"""Hypothesis property tests for :class:`repro.registry.ImageCache`.

The invariants checked here are load-bearing for the P2P tier: the
peer index mirrors cache contents as the cache's observer, so
used-bytes accounting, completeness semantics, and eviction records
must be exact under arbitrary operation sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.device import Arch
from repro.model.units import BYTES_PER_GB
from repro.registry.cache import CacheFull, ImageCache
from repro.registry.digest import digest_text
from repro.registry.manifest import ImageManifest, LayerDescriptor

#: A small universe of digests so operation sequences collide often.
DIGESTS = [digest_text(f"layer-{i}") for i in range(8)]

CAPACITY_BYTES = 100


def make_cache() -> ImageCache:
    return ImageCache(CAPACITY_BYTES / BYTES_PER_GB, device="prop")


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(DIGESTS),
            st.integers(min_value=0, max_value=60),
        ),
        st.tuples(st.just("remove"), st.sampled_from(DIGESTS), st.just(0)),
        st.tuples(st.just("touch"), st.sampled_from(DIGESTS), st.just(0)),
        st.tuples(st.just("clear"), st.just(DIGESTS[0]), st.just(0)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(operations=ops)
def test_used_bytes_never_exceed_capacity_and_match_entries(operations):
    cache = make_cache()
    for op, digest, size in operations:
        if op == "add":
            cache.add(digest, size)
        elif op == "remove":
            cache.remove(digest)
        elif op == "touch":
            cache.touch(digest)
        else:
            cache.clear()
        assert 0 <= cache.used_bytes <= cache.capacity_bytes
        assert cache.used_bytes == sum(s for _, s in cache.entries())
        assert len(cache) == len(cache.entries())


@settings(max_examples=200, deadline=None)
@given(operations=ops)
def test_eviction_records_exactly_account_for_freed_bytes(operations):
    cache = make_cache()
    mirror = {}
    for op, digest, size in operations:
        if op == "add":
            before = dict(mirror)
            evicted = cache.add(digest, size)
            mirror.pop(digest, None)
            for record in evicted:
                # Victims must have been present with exactly that size.
                assert before[record.digest] == record.size_bytes
                assert mirror.pop(record.digest) == record.size_bytes
            mirror[digest] = size
        elif op == "remove":
            cache.remove(digest)
            mirror.pop(digest, None)
        elif op == "touch":
            cache.touch(digest)
        else:
            cache.clear()
            mirror.clear()
        assert dict(cache.entries()) == mirror
        assert cache.used_bytes == sum(mirror.values())


@settings(max_examples=200, deadline=None)
@given(
    operations=ops,
    layer_idx=st.lists(
        st.integers(min_value=0, max_value=len(DIGESTS) - 1),
        min_size=1,
        max_size=4,
        unique=True,
    ),
)
def test_image_complete_iff_all_layers_present(operations, layer_idx):
    manifest = ImageManifest(
        arch=Arch.AMD64,
        config_digest=digest_text("config"),
        layers=tuple(LayerDescriptor(DIGESTS[i], 10) for i in layer_idx),
    )
    cache = make_cache()
    for op, digest, size in operations:
        if op == "add":
            cache.add(digest, size)
        elif op == "remove":
            cache.remove(digest)
        elif op == "touch":
            cache.touch(digest)
        else:
            cache.clear()
        expected = all(d in cache for d in manifest.layer_digests())
        assert cache.has_image(manifest) == expected
        assert (not cache.missing_layers(manifest)) == expected


@settings(max_examples=200, deadline=None)
@given(operations=ops)
def test_subscription_events_mirror_cache_contents(operations):
    cache = make_cache()
    shadow = {}

    def observer(device, digest, size_bytes, present):
        assert device == "prop"
        if present:
            shadow[digest] = size_bytes
        else:  # evicted, removed or cleared
            assert shadow.pop(digest) == size_bytes

    cache.observer = observer
    for op, digest, size in operations:
        if op == "add":
            cache.add(digest, size)
        elif op == "remove":
            cache.remove(digest)
        elif op == "touch":
            cache.touch(digest)
        else:
            cache.clear()
        assert shadow == dict(cache.entries())


def test_oversized_entry_still_raises_and_emits_nothing():
    cache = make_cache()
    events = []
    cache.observer = lambda *change: events.append(change)
    with pytest.raises(CacheFull):
        cache.add(DIGESTS[0], CAPACITY_BYTES + 1)
    assert events == []
    assert cache.used_bytes == 0
