"""Content-addressable blob storage shared by all simulated registries.

Two kinds of blobs coexist:

* **materialised** blobs carry real bytes (used in tests and for small
  config blobs) — their digest is verified against the content;
* **synthetic** blobs carry only a nominal size (used for the multi-GB
  image layers of the paper's Table II, which we obviously do not want
  to allocate) — their digest is supplied by the producer and acts as
  the identity for deduplication.

Both kinds behave identically for the pull protocol: what matters to
the model is the digest and the byte size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .digest import validate_digest


@dataclass(frozen=True)
class BlobRecord:
    """A stored blob: identity, size, and (optionally) content."""

    digest: str
    size_bytes: int
    data: Optional[bytes] = None

    def __post_init__(self) -> None:
        validate_digest(self.digest)
        if self.size_bytes < 0:
            raise ValueError(f"negative blob size: {self.size_bytes}")
        if self.data is not None and len(self.data) != self.size_bytes:
            raise ValueError(
                f"blob {self.digest}: size {self.size_bytes} != len(data) "
                f"{len(self.data)}"
            )

    @property
    def materialised(self) -> bool:
        return self.data is not None


class BlobNotFound(KeyError):
    """Raised when a digest is absent from a store."""


class BlobStore:
    """Digest-keyed store with idempotent puts.

    Re-putting an existing digest is a no-op (content-addressing makes
    it safe); putting *different* content under the same digest is a
    corruption and raises.
    """

    def __init__(self) -> None:
        self._blobs: Dict[str, BlobRecord] = {}

    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, digest: object) -> bool:
        return digest in self._blobs

    def __iter__(self) -> Iterator[BlobRecord]:
        return iter(self._blobs.values())

    def put_record(self, record: BlobRecord) -> BlobRecord:
        """Copy a record from another store (registry mirroring)."""
        existing = self._blobs.get(record.digest)
        if existing is not None:
            if existing.size_bytes != record.size_bytes:
                raise ValueError(f"digest collision on {record.digest}")
            return existing
        self._blobs[record.digest] = record
        return record

    def get(self, digest: str) -> BlobRecord:
        try:
            return self._blobs[digest]
        except KeyError:
            raise BlobNotFound(digest) from None

    def total_bytes(self) -> int:
        """Sum of stored blob sizes (dedup already applied)."""
        return sum(b.size_bytes for b in self._blobs.values())
