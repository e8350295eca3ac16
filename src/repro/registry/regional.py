"""The MinIO-backed regional registry (paper Sec. IV-C).

The paper deploys a Docker registry on a local MinIO server
(``dcloud2.itec.aau.at:9001``) provisioned with a capacity quota.  Here
:class:`RegionalRegistry` keeps the fast in-memory index of
:class:`~repro.registry.base.Registry` for lookups while persisting
every blob and manifest into a :class:`~repro.registry.minio.MinioStore`
— the same layering as the real deployment (registry process in front,
S3-compatible object storage behind).

Key layout in the bucket (mirrors the upstream ``docker-registry``
storage driver):

* ``blobs/sha256/<hex>``           — layer and config blobs,
* ``manifests/<repo>/tags/<tag>``  — manifest-list JSON per tag.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..model.registry import RegistryInfo, RegistryKind
from .base import Registry, RegistryError
from .blobstore import BlobRecord
from .manifest import ManifestList
from .minio import MinioStore, QuotaExceeded

DEFAULT_BUCKET = "docker-registry"


class RegionalRegistry(Registry):
    """Edge-regional registry persisting into an S3-style object store.

    Parameters
    ----------
    name:
        Registry name used in plans and network channels.
    store:
        Backing object store; a fresh 100 GB one is created if omitted
        (the paper's example provisioning).

    Registry state lives in bucket :data:`DEFAULT_BUCKET`; the
    registry's endpoint is informational (the paper's MinIO console
    URL).
    """

    def __init__(
        self,
        name: str = "regional",
        store: Optional[MinioStore] = None,
    ) -> None:
        info = RegistryInfo(
            name=name,
            kind=RegistryKind.REGIONAL,
            endpoint="https://dcloud2.itec.aau.at:9001",
        )
        super().__init__(info)
        self.store = store if store is not None else MinioStore(capacity_gb=100.0)
        self.bucket = DEFAULT_BUCKET
        if not self.store.bucket_exists(self.bucket):
            self.store.make_bucket(self.bucket)

    # ------------------------------------------------------------------
    # persistence helpers
    # ------------------------------------------------------------------
    @staticmethod
    def blob_key(digest: str) -> str:
        algo, _, hexdigest = digest.partition(":")
        return f"blobs/{algo}/{hexdigest}"

    @staticmethod
    def manifest_key(repository: str, tag: str) -> str:
        return f"manifests/{repository}/tags/{tag}"

    def _persist_blob(self, blob: BlobRecord) -> None:
        key = self.blob_key(blob.digest)
        if self.store.object_exists(self.bucket, key):
            return
        if blob.materialised:
            self.store.put_object(self.bucket, key, blob.data)
        else:
            self.store.put_synthetic_object(self.bucket, key, blob.size_bytes)

    # ------------------------------------------------------------------
    # registry API overrides
    # ------------------------------------------------------------------
    def push_image(
        self,
        repository: str,
        tag: str,
        mlist: ManifestList,
        blobs: Iterable[BlobRecord] = (),
    ) -> str:
        """Publish an image, persisting blobs + manifest to MinIO.

        A push that would exceed the provisioned MinIO capacity fails
        with :class:`RegistryError` *before* mutating the in-memory
        index, so a quota breach never leaves a half-published image.
        """
        staged = list(blobs)
        # Dry-run the quota: total new bytes that would land in MinIO.
        new_bytes = sum(
            blob.size_bytes
            for blob in staged
            if not self.store.object_exists(self.bucket, self.blob_key(blob.digest))
        )
        if (
            self.store.capacity_bytes is not None
            and self.store.used_bytes() + new_bytes > self.store.capacity_bytes
        ):
            raise RegistryError(
                f"push of {repository}:{tag} needs {new_bytes} new bytes; "
                f"regional store over capacity "
                f"({self.store.used_bytes()}/{self.store.capacity_bytes})"
            )
        digest = super().push_image(repository, tag, mlist, staged)
        try:
            for blob in staged:
                self._persist_blob(blob)
            self.store.put_object(
                self.bucket,
                self.manifest_key(repository, tag),
                mlist.canonical_json().encode("utf-8"),
                content_type="application/vnd.oci.image.index.v1+json",
            )
        except QuotaExceeded as exc:  # pragma: no cover - guarded above
            raise RegistryError(str(exc)) from exc
        return digest

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def persisted_blob_count(self) -> int:
        return len(self.store.list_objects(self.bucket, prefix="blobs/"))

    def persisted_bytes(self) -> int:
        return sum(
            info.size_bytes
            for info in self.store.list_objects(self.bucket, prefix="blobs/")
        )

    def free_bytes(self) -> Optional[int]:
        if self.store.capacity_bytes is None:
            return None
        return self.store.capacity_bytes - self.store.used_bytes()
