"""Content addressing: digests, blob store, manifests, repositories."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.device import Arch
from repro.registry.blobstore import BlobNotFound, BlobRecord, BlobStore
from repro.registry.digest import (
    digest_bytes,
    digest_text,
    is_digest,
    validate_digest,
)
from repro.registry.manifest import ImageManifest, LayerDescriptor, ManifestList
from repro.registry.repository import ManifestNotFound, Repository, RepositoryIndex


class TestDigest:
    def test_format(self):
        d = digest_bytes(b"hello")
        assert d.startswith("sha256:") and len(d) == 71
        assert is_digest(d)

    def test_text_matches_bytes(self):
        assert digest_text("abc") == digest_bytes(b"abc")

    def test_deterministic(self):
        assert digest_bytes(b"x") == digest_bytes(b"x")

    def test_distinct_content_distinct_digest(self):
        assert digest_bytes(b"a") != digest_bytes(b"b")

    @pytest.mark.parametrize(
        "bad", ["", "sha256:xyz", "sha1:" + "0" * 40, "sha256:" + "0" * 63]
    )
    def test_invalid_rejected(self, bad):
        assert not is_digest(bad)
        with pytest.raises(ValueError):
            validate_digest(bad)

    @given(data=st.binary(max_size=256))
    def test_digest_always_valid(self, data):
        assert is_digest(digest_bytes(data))


def blob(data: bytes) -> BlobRecord:
    return BlobRecord(digest_bytes(data), len(data), data)


class TestBlobStore:
    def test_put_get_round_trip(self):
        store = BlobStore()
        rec = store.put_record(blob(b"payload"))
        assert store.get(rec.digest).data == b"payload"
        assert store.get(rec.digest).size_bytes == 7

    def test_put_idempotent(self):
        store = BlobStore()
        a = store.put_record(blob(b"x"))
        b = store.put_record(blob(b"x"))
        assert a is b
        assert len(store) == 1

    def test_synthetic_blob(self):
        store = BlobStore()
        d = digest_text("layer:fake")
        rec = store.put_record(BlobRecord(d, 5_000_000))
        assert rec.size_bytes == 5_000_000
        assert not rec.materialised

    def test_synthetic_size_collision_rejected(self):
        store = BlobStore()
        d = digest_text("layer:fake")
        store.put_record(BlobRecord(d, 100))
        with pytest.raises(ValueError):
            store.put_record(BlobRecord(d, 200))

    def test_missing_raises_blob_not_found(self):
        with pytest.raises(BlobNotFound):
            BlobStore().get(digest_text("ghost"))

    def test_total_bytes_dedup(self):
        store = BlobStore()
        store.put_record(blob(b"abc"))
        store.put_record(blob(b"abc"))
        store.put_record(blob(b"defg"))
        assert store.total_bytes() == 7

    def test_record_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BlobRecord(digest=digest_bytes(b"x"), size_bytes=99, data=b"x")


def make_manifest(arch=Arch.AMD64, n_layers=2, salt=""):
    layers = tuple(
        LayerDescriptor(digest_text(f"layer{salt}:{i}"), 100 * (i + 1))
        for i in range(n_layers)
    )
    return ImageManifest(
        arch=arch, config_digest=digest_text(f"config{salt}"), layers=layers
    )


class TestManifest:
    def test_total_layer_bytes(self):
        assert make_manifest(n_layers=3).total_layer_bytes == 600

    def test_digest_stable(self):
        assert make_manifest().digest == make_manifest().digest

    def test_digest_depends_on_layers(self):
        assert make_manifest(salt="a").digest != make_manifest(salt="b").digest

    def test_empty_layers_rejected(self):
        with pytest.raises(ValueError):
            ImageManifest(
                arch=Arch.AMD64, config_digest=digest_text("c"), layers=()
            )

    def test_canonical_json_parses(self):
        import json

        obj = json.loads(make_manifest().canonical_json())
        assert obj["schemaVersion"] == 2
        assert obj["architecture"] == "amd64"


class TestManifestList:
    def test_for_arch(self):
        mlist = ManifestList(
            manifests=(make_manifest(Arch.AMD64), make_manifest(Arch.ARM64))
        )
        assert mlist.for_arch(Arch.ARM64).arch is Arch.ARM64
        assert mlist.supports(Arch.AMD64)

    def test_missing_arch_raises(self):
        mlist = ManifestList(manifests=(make_manifest(Arch.AMD64),))
        with pytest.raises(KeyError):
            mlist.for_arch(Arch.ARM64)

    def test_duplicate_arch_rejected(self):
        with pytest.raises(ValueError):
            ManifestList(
                manifests=(make_manifest(Arch.AMD64), make_manifest(Arch.AMD64))
            )

    def test_list_digest_differs_from_manifest_digest(self):
        m = make_manifest()
        mlist = ManifestList(manifests=(m,))
        assert mlist.digest != m.digest


class TestRepository:
    def test_tag_resolution(self):
        repo = Repository("aau/vp-frame")
        mlist = ManifestList(manifests=(make_manifest(),))
        digest = repo.put_manifest_list("latest", mlist)
        assert repo.resolve_list("latest") is mlist
        assert repo.resolve_list(digest) is mlist

    def test_retag_moves_pointer(self):
        repo = Repository("r")
        old = ManifestList(manifests=(make_manifest(salt="old"),))
        new = ManifestList(manifests=(make_manifest(salt="new"),))
        repo.put_manifest_list("latest", old)
        repo.put_manifest_list("latest", new)
        assert repo.resolve_list("latest") is new
        # the old list stays addressable by digest (immutability)
        assert repo.resolve_list(old.digest) is old

    def test_unknown_tag_raises(self):
        with pytest.raises(ManifestNotFound):
            Repository("r").resolve_list("nope")

    def test_index_get_or_create(self):
        index = RepositoryIndex()
        a = index.get_or_create("x")
        assert index.get_or_create("x") is a
        assert "x" in index
        with pytest.raises(ManifestNotFound):
            index.get("ghost")
