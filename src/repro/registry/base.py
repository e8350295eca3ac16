"""Registry behaviour shared by Docker Hub and the regional registry.

A registry stores repositories (tags → multi-arch manifests) and the
blobs they reference, and serves the three-step pull protocol used by
:mod:`repro.registry.client`:

1. resolve a ``repo:tag`` reference to a manifest list,
2. select the platform manifest for the puller's architecture,
3. fetch the layer blobs (the bytes the deployment time charges for).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..model.device import Arch
from ..model.registry import RegistryInfo
from .blobstore import BlobRecord, BlobStore
from .manifest import ImageManifest, ManifestList
from .repository import ManifestNotFound, RepositoryIndex


@dataclass(frozen=True)
class ImageReference:
    """Parsed ``[registry/]repo[:tag]`` reference.

    Only the repository and tag take part in resolution; the registry
    part is informational (Table I shows the same logical image under
    ``sina88/vp-frame`` on the Hub and
    ``dcloud2.itec.aau.at/aau/vp-frame`` regionally).
    """

    repository: str
    tag: str = "latest"

    def __post_init__(self) -> None:
        if not self.repository:
            raise ValueError("repository must be non-empty")
        if not self.tag:
            raise ValueError("tag must be non-empty")

    def __str__(self) -> str:
        return f"{self.repository}:{self.tag}"


class RegistryError(RuntimeError):
    """Registry-level failure (quota, unavailable, rate limited)."""


class Registry:
    """Base in-memory registry: repositories + content-addressed blobs."""

    def __init__(self, info: RegistryInfo) -> None:
        self.info = info
        self.repositories = RepositoryIndex()
        self.blobs = BlobStore()

    @property
    def name(self) -> str:
        return self.info.name

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def push_image(
        self,
        repository: str,
        tag: str,
        mlist: ManifestList,
        blobs: Iterable[BlobRecord] = (),
    ) -> str:
        """Publish a multi-arch image under ``repository:tag``.

        ``blobs`` must cover every layer and config referenced by the
        manifests; missing blobs make the push fail atomically (nothing
        is published), mirroring the registry API's completeness check.
        """
        staged = {blob.digest: blob for blob in blobs}
        missing: List[str] = []
        for manifest in mlist.manifests:
            for needed in [manifest.config_digest, *manifest.layer_digests()]:
                if needed not in staged and needed not in self.blobs:
                    missing.append(needed)
        if missing:
            raise RegistryError(
                f"push of {repository}:{tag} to {self.name} missing blobs: "
                f"{sorted(set(missing))}"
            )
        for blob in staged.values():
            self.blobs.put_record(blob)
        repo = self.repositories.get_or_create(repository)
        return repo.put_manifest_list(tag, mlist)

    # ------------------------------------------------------------------
    # pull protocol
    # ------------------------------------------------------------------
    def resolve(self, ref: ImageReference, arch: Arch) -> ImageManifest:
        """Steps 1–2: reference → platform manifest for ``arch``."""
        repo = self.repositories.get(ref.repository)
        mlist = repo.resolve_list(ref.tag)
        if not mlist.supports(arch):
            raise ManifestNotFound(
                f"{self.name}/{ref}: no {arch.value} platform "
                f"(has {[m.arch.value for m in mlist.manifests]})"
            )
        return mlist.for_arch(arch)

    def fetch_blob(self, digest: str) -> BlobRecord:
        """Step 3: blob by digest."""
        return self.blobs.get(digest)

    def meter_pull(self, client: str, now_s: float) -> None:
        """Hook for pull metering; the base registry does not meter."""

    def catalog(self) -> List[str]:
        """Repository names (the ``/v2/_catalog`` endpoint)."""
        return self.repositories.names()

    def storage_bytes(self) -> int:
        """Bytes occupied by unique blobs (dedup applied)."""
        return self.blobs.total_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, repos={len(self.repositories)})"


def mirror_image(
    source: Registry,
    target: Registry,
    repository: str,
    tag: str,
    target_repository: Optional[str] = None,
) -> str:
    """Copy an image (manifests + blobs) between registries.

    This is how the paper's regional registry is provisioned: images
    are mirrored from Docker Hub into the MinIO-backed edge registry.
    Blobs already present in the target are skipped (content addressing
    makes the copy incremental).
    """
    repo = source.repositories.get(repository)
    mlist = repo.resolve_list(tag)
    needed: List[str] = []
    for manifest in mlist.manifests:
        needed.append(manifest.config_digest)
        needed.extend(manifest.layer_digests())
    records = [source.blobs.get(d) for d in dict.fromkeys(needed)]
    return target.push_image(target_repository or repository, tag, mlist, records)
