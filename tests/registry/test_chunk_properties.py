"""Hypothesis properties for chunk reassembly and rarest-first order.

The reassembly invariant is the load-bearing one: whatever interleaving
of chunk completions, aborts/restarts, out-of-band inserts, and cache
evictions a simulation produces, a layer that *finishes* must hold
exactly its own bytes — every chunk landed exactly once (double commits
raise), the chunk spans tile ``[0, size)`` with no holes and no
overlaps, and no partial state (reserved bytes, ledger entries)
survives the layer's terminal transition.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel
from repro.model.units import BYTES_PER_GB
from repro.registry.base import RegistryError
from repro.registry.cache import ImageCache
from repro.registry.chunks import (
    ChunkFetchOutcome,
    ChunkLedger,
    ChunkMap,
    ChunkStore,
    ChunkSwarmPlanner,
    _LayerFetch,
)
from repro.registry.digest import digest_text
from repro.registry.hub import DockerHub
from repro.registry.p2p import PeerSwarm, PullPlanner

LAYER = digest_text("prop-layer")
OTHER = digest_text("prop-other")

CAPACITY_BYTES = 400


def make_store():
    ledger = ChunkLedger()
    cache = ImageCache(CAPACITY_BYTES / BYTES_PER_GB, device="prop")
    return ChunkStore("prop", cache, ledger), cache, ledger


chunk_ops = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("abort"), st.just(0)),
        st.tuples(st.just("begin"), st.just(0)),
        st.tuples(st.just("insert-other"), st.integers(min_value=0, max_value=150)),
        st.tuples(st.just("insert-self"), st.just(0)),
        st.tuples(st.just("finish"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    layer_size=st.integers(min_value=0, max_value=200),
    chunk_size=st.integers(min_value=1, max_value=64),
    operations=chunk_ops,
)
def test_any_interleaving_reassembles_exactly_once(
    layer_size, chunk_size, operations
):
    store, cache, ledger = make_store()
    cmap = ChunkMap(LAYER, layer_size, chunk_size)

    for op, arg in operations:
        if op == "begin":
            if store.is_partial(LAYER):
                # a download is already in flight: starting another is
                # the scheduling bug begin_layer must reject
                with pytest.raises(RegistryError):
                    store.begin_layer(cmap)
            else:
                store.begin_layer(cmap)
        elif op == "commit":
            idx = arg % cmap.n_chunks
            if not store.is_partial(LAYER):
                # no attempt in flight (or it was absorbed): commits
                # degrade to ignored no-ops, never phantom entries
                assert store.commit_chunk(LAYER, idx) is False
            elif store.has_chunk(LAYER, idx):
                # exactly-once: re-landing a chunk is a hard error
                with pytest.raises(RegistryError):
                    store.commit_chunk(LAYER, idx)
            else:
                assert store.commit_chunk(LAYER, idx) is True
        elif op == "abort":
            store.abort_layer(LAYER)
        elif op == "insert-other":
            # eviction pressure from an unrelated layer; may legally
            # fail when reservations pin all the capacity
            try:
                cache.add(OTHER, arg)
            except Exception:
                pass
        elif op == "insert-self":
            # out-of-band instant insert of the same layer (analytic
            # replicator copy): absorbs the reservation, and — when a
            # presence event fires — the partial record with it
            cache.add(LAYER, layer_size)
        elif op == "finish":
            if store.is_partial(LAYER):
                if store.missing_chunks(LAYER):
                    with pytest.raises(RegistryError):
                        store.finish_layer(LAYER)
                else:
                    store.finish_layer(LAYER)
            elif LAYER in cache:
                store.finish_layer(LAYER)  # refresh of a landed layer

        # ---- invariants after every operation ----
        # the ledger advertises exactly the chunks the store holds for
        # its in-flight attempt, never more, never anyone else's
        committed = store.chunk_indices(LAYER)
        for idx in range(cmap.n_chunks):
            holders = ledger.chunk_holders(LAYER, idx)
            if idx in committed:
                assert holders == frozenset({"prop"})
            else:
                assert holders == frozenset()
        if not store.is_partial(LAYER):
            assert committed == frozenset()
        else:
            # partial layers hold capacity (reserved or already present)
            assert cache.is_reserved(LAYER) or LAYER in cache

    # drive the attempt to completion: the reassembled layer must hold
    # exactly its own bytes, once
    if not store.is_partial(LAYER) and LAYER not in cache:
        store.begin_layer(cmap)
    if store.is_partial(LAYER):
        for idx in store.missing_chunks(LAYER):
            store.commit_chunk(LAYER, idx)
        store.finish_layer(LAYER)
    assert LAYER in cache
    entry_bytes = dict(cache.entries())[LAYER]
    assert entry_bytes == layer_size
    assert cache.reserved_bytes == 0
    assert not store.is_partial(LAYER)
    for idx in range(cmap.n_chunks):
        assert ledger.chunk_holders(LAYER, idx) == frozenset()
    # the chunk spans tile the layer exactly: no dupes, no holes
    spans = sorted((c.offset, c.end) for c in cmap)
    assert spans[0][0] == 0
    for (a_start, a_end), (b_start, _b_end) in zip(spans, spans[1:]):
        assert a_end == b_start  # contiguous, non-overlapping
    assert spans[-1][1] == layer_size or (layer_size == 0 and spans == [(0, 0)])


@settings(max_examples=100, deadline=None)
@given(
    layer_size=st.integers(min_value=1, max_value=500),
    chunk_size=st.integers(min_value=1, max_value=64),
)
def test_chunk_maps_always_tile_exactly(layer_size, chunk_size):
    cmap = ChunkMap(LAYER, layer_size, chunk_size)
    assert sum(c.size_bytes for c in cmap) == layer_size
    offset = 0
    for chunk in cmap:
        assert chunk.offset == offset
        assert chunk.size_bytes > 0
        offset = chunk.end
    assert len({c.digest for c in cmap}) == cmap.n_chunks


def _planner(seed: int):
    hub = DockerHub(name="docker-hub")
    network = NetworkModel()
    names = [f"edge-{i}" for i in range(3)]
    network.connect_device_mesh(names, 800.0)
    for name in names:
        network.connect_registry(hub.name, name, 60.0)
    swarm = PeerSwarm(network)
    for name in names:
        swarm.add_device(name, ImageCache(1.0, name), region="lab")
    return ChunkSwarmPlanner(
        PullPlanner(swarm, [hub]), chunk_size_bytes=10, seed=seed
    )


def _claim_order(planner, cmap):
    """Chunks in the order ``_next_chunk`` claims them for edge-0."""
    st = _LayerFetch(cmap, ChunkFetchOutcome(cmap.layer_digest))
    order = []
    while (index := planner._next_chunk(st, "edge-0")) is not None:
        order.append(index)
    return order


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    layer_size=st.integers(min_value=1, max_value=400),
)
def test_rarest_first_is_deterministic_per_seed(seed, layer_size):
    cmap = ChunkMap(LAYER, layer_size, 10)
    order_a = _claim_order(_planner(seed), cmap)
    order_b = _claim_order(_planner(seed), cmap)
    assert order_a == order_b
    assert sorted(order_a) == list(range(cmap.n_chunks))
    # With no holders every chunk is equally rare, so the claim order
    # is the seeded hash order (index breaks hash ties).
    planner = _planner(seed)
    expected = sorted(
        range(cmap.n_chunks),
        key=lambda i: (planner._tiebreak("edge-0", LAYER, i), i),
    )
    assert _claim_order(planner, cmap) == expected
