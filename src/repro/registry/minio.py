"""MinIO-style S3-compatible object store (the regional registry backend).

The paper provisions its regional Docker registry on a local MinIO
server (Sec. IV-C): an S3-compatible object store holding the image
blobs and manifests.  This module reproduces the storage semantics the
registry needs — buckets, keyed objects, ETags, prefix listing and a
capacity quota (the paper provisions "a specific storage capacity
according to the user's requirements (e.g., 100 GB)").

Objects may be *materialised* (real bytes, ETag = MD5 like S3) or
*synthetic* (nominal size only, ETag derived from the declared digest),
matching the two blob kinds in :mod:`repro.registry.blobstore`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..model.units import BYTES_PER_GB


class MinioError(RuntimeError):
    """Base class for object-store failures."""


class NoSuchBucket(MinioError):
    pass


class NoSuchKey(MinioError):
    pass


class BucketAlreadyExists(MinioError):
    pass


class QuotaExceeded(MinioError):
    """Put would exceed the store's provisioned capacity."""


@dataclass(frozen=True)
class ObjectInfo:
    """Metadata of one stored object (the S3 HEAD response)."""

    bucket: str
    key: str
    size_bytes: int
    etag: str
    content_type: str = "application/octet-stream"


@dataclass
class _StoredObject:
    info: ObjectInfo
    data: Optional[bytes]


def _etag_of(data: bytes) -> str:
    # S3 uses MD5 for single-part uploads; usedforsecurity=False keeps
    # this valid on FIPS-locked interpreters.
    return hashlib.md5(data, usedforsecurity=False).hexdigest()


def _etag_synthetic(key: str, size_bytes: int) -> str:
    return hashlib.md5(
        f"synthetic:{key}:{size_bytes}".encode(), usedforsecurity=False
    ).hexdigest()


class MinioStore:
    """An in-memory S3-compatible object store with a capacity quota.

    Parameters
    ----------
    capacity_gb:
        Provisioned capacity; ``None`` disables the quota.  The paper's
        example deployment provisions 100 GB.
    """

    def __init__(self, capacity_gb: Optional[float] = 100.0) -> None:
        if capacity_gb is not None and capacity_gb <= 0:
            raise ValueError(f"capacity_gb must be > 0, got {capacity_gb}")
        self.capacity_bytes: Optional[int] = (
            None if capacity_gb is None else int(capacity_gb * BYTES_PER_GB)
        )
        self._buckets: Dict[str, Dict[str, _StoredObject]] = {}

    # ------------------------------------------------------------------
    # buckets
    # ------------------------------------------------------------------
    def make_bucket(self, bucket: str) -> None:
        if not bucket:
            raise ValueError("bucket name must be non-empty")
        if bucket in self._buckets:
            raise BucketAlreadyExists(bucket)
        self._buckets[bucket] = {}

    def bucket_exists(self, bucket: str) -> bool:
        return bucket in self._buckets

    def _bucket(self, bucket: str) -> Dict[str, _StoredObject]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise NoSuchBucket(bucket) from None

    # ------------------------------------------------------------------
    # objects
    # ------------------------------------------------------------------
    def used_bytes(self) -> int:
        return sum(
            obj.info.size_bytes
            for objects in self._buckets.values()
            for obj in objects.values()
        )

    def _check_quota(self, bucket: str, key: str, incoming_bytes: int) -> None:
        if self.capacity_bytes is None:
            return
        current = self.used_bytes()
        existing = self._buckets.get(bucket, {}).get(key)
        if existing is not None:
            current -= existing.info.size_bytes
        if current + incoming_bytes > self.capacity_bytes:
            raise QuotaExceeded(
                f"putting {incoming_bytes} B into {bucket}/{key} exceeds "
                f"capacity {self.capacity_bytes} B (used {current} B)"
            )

    def put_object(
        self,
        bucket: str,
        key: str,
        data: bytes,
        content_type: str = "application/octet-stream",
    ) -> ObjectInfo:
        """Store real bytes under ``bucket/key`` (overwrite allowed)."""
        objects = self._bucket(bucket)
        self._check_quota(bucket, key, len(data))
        info = ObjectInfo(bucket, key, len(data), _etag_of(data), content_type)
        objects[key] = _StoredObject(info=info, data=data)
        return info

    def put_synthetic_object(
        self,
        bucket: str,
        key: str,
        size_bytes: int,
        content_type: str = "application/octet-stream",
    ) -> ObjectInfo:
        """Store a size-only object (stands in for a multi-GB blob)."""
        if size_bytes < 0:
            raise ValueError(f"negative object size: {size_bytes}")
        objects = self._bucket(bucket)
        self._check_quota(bucket, key, size_bytes)
        info = ObjectInfo(
            bucket, key, size_bytes, _etag_synthetic(key, size_bytes), content_type
        )
        objects[key] = _StoredObject(info=info, data=None)
        return info

    def get_object(self, bucket: str, key: str) -> bytes:
        """Fetch object bytes; synthetic objects cannot be read."""
        obj = self._object(bucket, key)
        if obj.data is None:
            raise MinioError(
                f"{bucket}/{key} is synthetic (size-only); no bytes to read"
            )
        return obj.data

    def stat_object(self, bucket: str, key: str) -> ObjectInfo:
        return self._object(bucket, key).info

    def object_exists(self, bucket: str, key: str) -> bool:
        try:
            self._object(bucket, key)
            return True
        except (NoSuchBucket, NoSuchKey):
            return False

    def remove_object(self, bucket: str, key: str) -> None:
        objects = self._bucket(bucket)
        if key not in objects:
            raise NoSuchKey(f"{bucket}/{key}")
        del objects[key]

    def list_objects(self, bucket: str, prefix: str = "") -> List[ObjectInfo]:
        """Objects whose key starts with ``prefix``, sorted by key."""
        objects = self._bucket(bucket)
        return [
            obj.info
            for key, obj in sorted(objects.items())
            if key.startswith(prefix)
        ]

    def _object(self, bucket: str, key: str) -> _StoredObject:
        objects = self._bucket(bucket)
        try:
            return objects[key]
        except KeyError:
            raise NoSuchKey(f"{bucket}/{key}") from None
