"""Content digests in the OCI ``sha256:<hex>`` convention.

Both simulated registries (Docker Hub and the MinIO-backed regional
one) are content-addressed: blobs are identified by the SHA-256 of
their bytes, manifests by the SHA-256 of their canonical serialisation.
This is the invariant that makes cross-registry layer deduplication
(the ablation A2 extension) sound: the *same* layer has the *same*
digest in every registry.
"""

from __future__ import annotations

import hashlib
import re

_DIGEST_RE = re.compile(r"^sha256:[0-9a-f]{64}$")

DIGEST_PREFIX = "sha256:"


def digest_bytes(data: bytes) -> str:
    """``sha256:<hex>`` digest of raw bytes."""
    return DIGEST_PREFIX + hashlib.sha256(data).hexdigest()


def digest_text(text: str) -> str:
    """Digest of UTF-8 encoded text (canonical manifest serialisation)."""
    return digest_bytes(text.encode("utf-8"))


def is_digest(value: str) -> bool:
    """True if ``value`` is a syntactically valid sha256 digest ref."""
    return bool(_DIGEST_RE.match(value))


def validate_digest(value: str) -> str:
    """Return ``value`` if valid, else raise ``ValueError``."""
    if not is_digest(value):
        raise ValueError(f"malformed digest: {value!r}")
    return value
