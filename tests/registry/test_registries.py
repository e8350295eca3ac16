"""Registry behaviour: pushes, pulls, mirroring, hub CDN, regional MinIO."""

import pytest

from repro.model.device import Arch
from repro.model.registry import RegistryInfo, RegistryKind
from repro.registry.base import ImageReference, Registry, RegistryError, mirror_image
from repro.registry.hub import (
    DockerHub,
    PointOfPresence,
    PullRateLimiter,
    RateLimitExceeded,
)
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.registry.minio import MinioStore
from repro.registry.regional import RegionalRegistry
from repro.registry.repository import ManifestNotFound


@pytest.fixture
def image():
    return build_image("acme/app", 0.5, base=OFFICIAL_BASES["alpine:3"])


def persisted_blobs(regional: RegionalRegistry) -> int:
    return len(regional.store.list_objects(regional.bucket, prefix="blobs/"))


@pytest.fixture
def hub(image):
    registry = DockerHub()
    mlist, blobs = image
    registry.push_image("acme/app", "latest", mlist, blobs)
    return registry


class TestImageReference:
    def test_str(self):
        assert str(ImageReference("a/b", "t")) == "a/b:t"


class TestPushPull:
    def test_push_then_resolve(self, hub):
        manifest = hub.resolve(ImageReference("acme/app"), Arch.AMD64)
        assert manifest.arch is Arch.AMD64
        assert manifest.total_layer_bytes == 500_000_000

    def test_push_missing_blobs_fails_atomically(self, image):
        registry = Registry(RegistryInfo("r", RegistryKind.HUB))
        mlist, blobs = image
        with pytest.raises(RegistryError):
            registry.push_image("acme/app", "latest", mlist, blobs[:1])
        assert "acme/app" not in registry.repositories

    def test_resolve_unknown_repo(self, hub):
        with pytest.raises(ManifestNotFound):
            hub.resolve(ImageReference("ghost/app"), Arch.AMD64)

    def test_fetch_blob_integrity(self, hub, image):
        mlist, _ = image
        for layer in mlist.for_arch(Arch.AMD64).layers:
            assert hub.fetch_blob(layer.digest).size_bytes == layer.size_bytes

    def test_catalog(self, hub):
        assert hub.catalog() == ["acme/app"]

    def test_storage_bytes_dedups_shared_base(self, hub):
        """Two images on the same base store the base layers once."""
        from repro.registry.images import OFFICIAL_BASES, build_image

        before = hub.storage_bytes()
        mlist2, blobs2 = build_image(
            "acme/sibling", 0.5, base=OFFICIAL_BASES["alpine:3"]
        )
        hub.push_image("acme/sibling", "latest", mlist2, blobs2)
        added = hub.storage_bytes() - before
        total2 = sum(m.total_layer_bytes for m in mlist2.manifests)
        assert added < total2  # base layers were already present


class TestMirroring:
    def test_mirror_to_regional_namespace(self, hub):
        regional = RegionalRegistry()
        mirror_image(hub, regional, "acme/app", "latest", "aau/app")
        manifest = regional.resolve(ImageReference("aau/app"), Arch.ARM64)
        assert manifest.arch is Arch.ARM64

    def test_mirror_preserves_digests(self, hub):
        regional = RegionalRegistry()
        mirror_image(hub, regional, "acme/app", "latest", "aau/app")
        src = hub.resolve(ImageReference("acme/app"), Arch.AMD64)
        dst = regional.resolve(ImageReference("aau/app"), Arch.AMD64)
        assert src.digest == dst.digest
        assert src.layer_digests() == dst.layer_digests()

    def test_mirror_is_incremental(self, hub):
        regional = RegionalRegistry()
        mirror_image(hub, regional, "acme/app", "latest", "aau/app")
        before = persisted_blobs(regional)
        mirror_image(hub, regional, "acme/app", "latest", "aau/app2")
        # Same blobs: only the new manifest object is written.
        assert persisted_blobs(regional) == before


class TestDockerHub:
    def test_pop_selection_prefers_fastest(self):
        hub = DockerHub(
            pops=[
                PointOfPresence("slow", ("eu",), 20.0),
                PointOfPresence("fast", ("eu",), 80.0),
            ]
        )
        assert hub.pop_for_region("eu").name == "fast"
        assert hub.effective_bandwidth_mbps("eu") == 80.0

    def test_origin_fallback(self):
        hub = DockerHub(origin_bandwidth_mbps=10.0)
        assert hub.pop_for_region("mars") is None
        assert hub.effective_bandwidth_mbps("mars") == 10.0

    def test_rate_limiter_window(self):
        limiter = PullRateLimiter(limit=2, window_s=100.0)
        limiter.record_pull("dev", 0.0)
        limiter.record_pull("dev", 1.0)
        with pytest.raises(RateLimitExceeded):
            limiter.record_pull("dev", 2.0)
        # Window rolls over: allowance resets.
        assert limiter.record_pull("dev", 101.0) == 1

    def test_rate_limiter_per_client(self):
        limiter = PullRateLimiter(limit=1, window_s=100.0)
        limiter.record_pull("a", 0.0)
        limiter.record_pull("b", 0.0)  # independent allowance

    def test_metered_hub_raises_on_exhaustion(self, image):
        hub = DockerHub(rate_limiter=PullRateLimiter(limit=1, window_s=60.0))
        mlist, blobs = image
        hub.push_image("acme/app", "latest", mlist, blobs)
        hub.meter_pull("dev", 0.0)
        with pytest.raises(RateLimitExceeded):
            hub.meter_pull("dev", 1.0)


class TestRegionalRegistry:
    def test_kind_and_persistence(self, hub):
        regional = RegionalRegistry()
        mirror_image(hub, regional, "acme/app", "latest", "aau/app")
        assert regional.info.kind is RegistryKind.REGIONAL
        assert persisted_blobs(regional) > 0
        assert regional.persisted_bytes() == regional.storage_bytes()

    def test_capacity_enforced_before_publish(self, hub):
        tiny = RegionalRegistry(store=MinioStore(capacity_gb=0.1))
        with pytest.raises(RegistryError):
            mirror_image(hub, tiny, "acme/app", "latest", "aau/app")
        # Atomic failure: nothing half-published.
        assert "aau/app" not in tiny.repositories
        assert persisted_blobs(tiny) == 0

    def test_manifest_persisted_as_json(self, hub):
        regional = RegionalRegistry()
        mirror_image(hub, regional, "acme/app", "latest", "aau/app")
        mlist = regional.repositories.get("aau/app").resolve_list("latest")
        (info,) = regional.store.list_objects(
            regional.bucket, prefix=regional.manifest_key("aau/app", "latest")
        )
        assert info.content_type.endswith("+json")
        assert info.size_bytes == len(mlist.canonical_json().encode("utf-8"))
