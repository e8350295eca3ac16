"""MinIO-style object store: buckets, objects, quota."""

import pytest

from repro.registry.minio import (
    BucketAlreadyExists,
    MinioError,
    MinioStore,
    NoSuchBucket,
    NoSuchKey,
    QuotaExceeded,
)


@pytest.fixture
def store():
    s = MinioStore(capacity_gb=0.001)  # 1 MB quota for quota tests
    s.make_bucket("b")
    return s


class TestBuckets:
    def test_make_bucket_then_exists(self, store):
        assert not store.bucket_exists("other")
        store.make_bucket("other")
        assert store.bucket_exists("other")
        assert store.bucket_exists("b")

    def test_duplicate_bucket_rejected(self, store):
        with pytest.raises(BucketAlreadyExists):
            store.make_bucket("b")

    def test_missing_bucket_raises(self, store):
        with pytest.raises(NoSuchBucket):
            store.put_object("ghost", "k", b"x")



class TestObjects:
    def test_put_get_round_trip(self, store):
        store.put_object("b", "path/to/obj", b"hello")
        assert store.get_object("b", "path/to/obj") == b"hello"

    def test_stat(self, store):
        info = store.put_object("b", "k", b"hello")
        assert info.size_bytes == 5
        assert store.stat_object("b", "k").etag == info.etag

    def test_overwrite_allowed(self, store):
        store.put_object("b", "k", b"v1")
        store.put_object("b", "k", b"v2")
        assert store.get_object("b", "k") == b"v2"

    def test_etag_is_content_hash(self, store):
        a = store.put_object("b", "k1", b"same")
        c = store.put_object("b", "k2", b"same")
        assert a.etag == c.etag

    def test_missing_key_raises(self, store):
        with pytest.raises(NoSuchKey):
            store.get_object("b", "ghost")

    def test_remove_object(self, store):
        store.put_object("b", "k", b"x")
        store.remove_object("b", "k")
        assert not store.object_exists("b", "k")

    def test_list_objects_prefix_sorted(self, store):
        store.put_object("b", "blobs/2", b"x")
        store.put_object("b", "blobs/1", b"x")
        store.put_object("b", "manifests/1", b"x")
        keys = [o.key for o in store.list_objects("b", prefix="blobs/")]
        assert keys == ["blobs/1", "blobs/2"]

    def test_synthetic_object(self, store):
        info = store.put_synthetic_object("b", "big", 500)
        assert info.size_bytes == 500
        with pytest.raises(MinioError):
            store.get_object("b", "big")  # no bytes to read


class TestQuota:
    def test_quota_enforced(self, store):
        store.put_synthetic_object("b", "a", 900_000)
        with pytest.raises(QuotaExceeded):
            store.put_synthetic_object("b", "c", 200_000)

    def test_overwrite_frees_old_size(self, store):
        store.put_synthetic_object("b", "a", 900_000)
        # Replacing the same key with a slightly larger object fits.
        store.put_synthetic_object("b", "a", 950_000)
        assert store.used_bytes() == 950_000

    def test_unlimited_when_none(self):
        s = MinioStore(capacity_gb=None)
        s.make_bucket("b")
        s.put_synthetic_object("b", "huge", 10**12)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            MinioStore(capacity_gb=0.0)
