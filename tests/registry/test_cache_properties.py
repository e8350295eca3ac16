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
from repro.registry.cache import CacheFull, ImageCache, ReservationError
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
        st.tuples(st.just("touch"), st.sampled_from(DIGESTS), st.just(0)),
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
        else:
            cache.touch(digest)
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
        else:
            cache.touch(digest)
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
        else:
            cache.touch(digest)
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
        else:  # evicted
            assert shadow.pop(digest) == size_bytes

    cache.observer = observer
    for op, digest, size in operations:
        if op == "add":
            cache.add(digest, size)
        else:
            cache.touch(digest)
        assert shadow == dict(cache.entries())


def test_oversized_entry_still_raises_and_emits_nothing():
    cache = make_cache()
    events = []
    cache.observer = lambda *change: events.append(change)
    with pytest.raises(CacheFull):
        cache.add(DIGESTS[0], CAPACITY_BYTES + 1)
    assert events == []
    assert cache.used_bytes == 0


def _admit_by_add(cache, manifest):
    """``admit_image`` as a plain per-layer :meth:`ImageCache.add` loop:
    the reference its in-place refresh of present layers must match."""
    needed = sum(
        layer.size_bytes
        for layer in manifest.layers
        if layer.digest not in cache
    )
    if needed + cache.reserved_bytes > cache.capacity_bytes:
        raise CacheFull(
            f"image {manifest.digest} needs {needed} new bytes; cache "
            f"capacity is {cache.capacity_bytes} B"
        )
    evicted = []
    for layer in manifest.layers:
        evicted.extend(cache.add(layer.digest, layer.size_bytes))
    return evicted


#: Few sizes, so a layer is often present at the size it is admitted at.
SIZES = st.sampled_from([0, 5, 10, 30, 60])


@settings(max_examples=400, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=120),
    setup=st.lists(
        st.tuples(
            st.sampled_from(["add", "reserve", "commit", "touch"]),
            st.sampled_from(DIGESTS[:5]),
            SIZES,
        ),
        max_size=12,
    ),
    layers=st.lists(
        st.tuples(st.sampled_from(DIGESTS[:5]), SIZES), min_size=1, max_size=6
    ),
)
def test_admit_image_matches_the_per_layer_add_loop(capacity, setup, layers):
    # Random capacities, entries and reservations; the manifest may
    # repeat a digest and change a present layer's size.
    manifest = ImageManifest(
        arch=Arch.AMD64,
        config_digest=digest_text("config"),
        layers=tuple(LayerDescriptor(d, size) for d, size in layers),
    )
    runs = []
    for admit in (ImageCache.admit_image, _admit_by_add):
        cache = ImageCache(capacity / BYTES_PER_GB, device="prop")
        for op, digest, size in setup:
            try:
                if op in ("add", "reserve"):
                    getattr(cache, op)(digest, size)
                else:
                    getattr(cache, op)(digest)
            except (CacheFull, ReservationError):
                pass
        calls = []
        cache.observer = lambda *change: calls.append(change)
        try:
            result = admit(cache, manifest)
        except CacheFull as error:
            result = f"CacheFull: {error}"
        runs.append((
            cache.entries(),
            cache.used_bytes,
            cache.reserved_bytes,
            result,
            calls,
        ))
    assert runs[0] == runs[1]
