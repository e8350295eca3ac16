"""Device image caches and the pull client's two policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.device import Arch
from repro.registry.base import ImageReference
from repro.registry.cache import CacheFull, ImageCache
from repro.registry.client import PullPolicy, RegistryClient
from repro.registry.digest import digest_text
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image


@pytest.fixture
def hub():
    registry = DockerHub()
    for repo, size in (("acme/a", 0.4), ("acme/b", 0.5)):
        mlist, blobs = build_image(
            repo, size, base=OFFICIAL_BASES["python:3.9-slim"]
        )
        registry.push_image(repo, "latest", mlist, blobs)
    return registry


class TestImageCache:
    def test_add_and_touch(self):
        cache = ImageCache(1.0)
        cache.add("sha256:" + "a" * 64, 100)
        assert cache.touch("sha256:" + "a" * 64)
        assert not cache.touch("sha256:" + "b" * 64)

    def test_lru_eviction_order(self):
        cache = ImageCache(3e-7)  # 300 bytes
        d = [f"sha256:{c * 64}" for c in "abc"]
        cache.add(d[0], 100)
        cache.add(d[1], 100)
        cache.touch(d[0])  # a becomes MRU
        evicted = cache.add(d[2], 150)  # must evict b (LRU), not a
        assert [e.digest for e in evicted] == [d[1]]
        assert d[0] in cache and d[2] in cache

    def test_oversized_entry_rejected(self):
        cache = ImageCache(1e-7)  # 100 bytes
        with pytest.raises(CacheFull):
            cache.add("sha256:" + "a" * 64, 200)

    def test_re_add_updates_size(self):
        cache = ImageCache(1.0)
        d = "sha256:" + "a" * 64
        cache.add(d, 100)
        cache.add(d, 250)
        assert cache.used_bytes == 250

    def test_image_completeness_tracks_layers(self, hub):
        manifest = hub.resolve(ImageReference("acme/a"), Arch.AMD64)
        first, *rest = manifest.layers
        cache = ImageCache(64.0)
        for layer in rest:
            cache.add(layer.digest, layer.size_bytes)
        assert not cache.has_image(manifest)
        assert cache.missing_layers(manifest) == [first.digest]
        cache.add(first.digest, first.size_bytes)
        assert cache.has_image(manifest)

    def test_admit_never_evicts_own_layers(self, hub):
        manifest = hub.resolve(ImageReference("acme/a"), Arch.AMD64)
        # Cache exactly the image size: admission fills it completely.
        cache = ImageCache(manifest.total_layer_bytes / 1e9 + 1e-6)
        cache.admit_image(manifest)
        assert cache.has_image(manifest)

    @given(sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=30))
    def test_used_never_exceeds_capacity(self, sizes):
        cache = ImageCache(2e-6)  # 2000 bytes
        for i, size in enumerate(sizes):
            if size > cache.capacity_bytes:
                continue
            cache.add(digest_text(f"blob{i}"), size)
            assert cache.used_bytes <= cache.capacity_bytes


class TestWholeImagePolicy:
    def test_cold_pull_transfers_everything(self, hub):
        client = RegistryClient(PullPolicy.WHOLE_IMAGE)
        cache = ImageCache(64.0)
        result = client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        assert result.bytes_transferred == result.bytes_total
        assert not result.cache_hit

    def test_warm_pull_free(self, hub):
        client = RegistryClient(PullPolicy.WHOLE_IMAGE)
        cache = ImageCache(64.0)
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        again = client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        assert again.cache_hit
        assert again.bytes_transferred == 0
        assert again.hit_ratio == 1.0

    def test_shared_base_not_deduped(self, hub):
        """The paper's model: image b pays full price despite shared base."""
        client = RegistryClient(PullPolicy.WHOLE_IMAGE)
        cache = ImageCache(64.0)
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        result = client.pull(hub, ImageReference("acme/b"), Arch.AMD64, cache)
        assert result.bytes_transferred == result.bytes_total


class TestLayeredPolicy:
    def test_shared_base_deduped(self, hub):
        client = RegistryClient(PullPolicy.LAYERED)
        cache = ImageCache(64.0)
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        result = client.pull(hub, ImageReference("acme/b"), Arch.AMD64, cache)
        assert 0 < result.bytes_transferred < result.bytes_total
        assert result.layers_transferred < result.layers_total

    def test_dedup_matches_shared_layer_bytes(self, hub):
        a = hub.resolve(ImageReference("acme/a"), Arch.AMD64)
        b = hub.resolve(ImageReference("acme/b"), Arch.AMD64)
        shared = set(a.layer_digests()) & set(b.layer_digests())
        shared_bytes = sum(
            l.size_bytes for l in b.layers if l.digest in shared
        )
        client = RegistryClient(PullPolicy.LAYERED)
        cache = ImageCache(64.0)
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        result = client.pull(hub, ImageReference("acme/b"), Arch.AMD64, cache)
        assert result.bytes_transferred == result.bytes_total - shared_bytes

    def test_arch_specific_layers(self, hub):
        """arm64 and amd64 manifests do not share layers."""
        client = RegistryClient(PullPolicy.LAYERED)
        cache = ImageCache(64.0)
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache)
        result = client.pull(hub, ImageReference("acme/a"), Arch.ARM64, cache)
        assert result.bytes_transferred == result.bytes_total


class TestPullAccounting:
    def test_cache_hit_not_metered(self, hub):
        from repro.registry.hub import PullRateLimiter

        hub.rate_limiter = PullRateLimiter(limit=1, window_s=1e6)
        client = RegistryClient(PullPolicy.WHOLE_IMAGE)
        cache = ImageCache(64.0)
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache, "dev", 0.0)
        # Second pull hits the cache and must not consume allowance.
        client.pull(hub, ImageReference("acme/a"), Arch.AMD64, cache, "dev", 1.0)
