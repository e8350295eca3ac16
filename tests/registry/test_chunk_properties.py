"""Hypothesis properties for chunk reassembly and rarest-first order.

The reassembly invariant is the load-bearing one: whatever interleaving
of chunk completions, upload saturation, seeder departure, partial
seeding between concurrent fetches and aborts a swarm produces, a layer
that *finishes* holds exactly its own bytes — committed once, every
chunk landed exactly once (the per-source bytes add up to the layer) —
and no partial state (reserved bytes, ledger entries) survives any
fetch's terminal transition, finished or aborted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel
from repro.registry.base import RegistryError
from repro.registry.blobstore import BlobRecord
from repro.registry.cache import ImageCache
from repro.registry.chunks import (
    ChunkFetchOutcome,
    ChunkMap,
    ChunkSwarmPlanner,
    _LayerFetch,
)
from repro.registry.digest import digest_text
from repro.registry.hub import DockerHub
from repro.registry.p2p import PeerSwarm, PullPlanner
from repro.scenarios import ChunkSpec
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine

LAYER = digest_text("prop-layer")


class _CountingCache(ImageCache):
    """Counts the commits that land a reservation, per digest."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.commits = {}

    def commit(self, digest: str) -> bool:
        committed = super().commit(digest)
        self.commits[digest] = self.commits.get(digest, 0) + committed
        return committed


@settings(max_examples=200, deadline=None)
@given(
    chunk_size=st.integers(min_value=4_000_000, max_value=32_000_000),
    full_chunks=st.integers(min_value=0, max_value=12),
    remainder=st.integers(min_value=0, max_value=3_999_999),
    window=st.integers(min_value=1, max_value=4),
    upload_budget=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    lan_mbps=st.sampled_from([50.0, 100.0, 800.0]),
    slow_seeder=st.booleans(),
    hub_has_layer=st.booleans(),
    roles=st.lists(
        st.sampled_from(["seed", "fetch", "idle"]), min_size=1, max_size=2
    ),
    starts=st.lists(st.integers(min_value=0, max_value=8), min_size=3,
                    max_size=3),
    departure_s=st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0)),
    abort=st.one_of(
        st.none(),
        st.tuples(st.integers(min_value=0, max_value=2),
                  st.floats(min_value=0.0, max_value=20.0)),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_interleaving_reassembles_exactly_once(
    chunk_size, full_chunks, remainder, window, upload_budget, lan_mbps,
    slow_seeder, hub_has_layer, roles, starts, departure_s, abort, seed,
):
    # edge-0 fetches, edge-1 seeds and may depart; each further device
    # (3–4 in all) seeds, fetches concurrently (and so seeds partial
    # chunks to the other fetchers) or idles.
    layer_size = full_chunks * chunk_size + remainder
    hub = DockerHub(name="docker-hub")
    if hub_has_layer:
        hub.blobs.put_record(BlobRecord(digest=LAYER, size_bytes=layer_size))
    names = [f"edge-{i}" for i in range(2 + len(roles))]
    network = NetworkModel()
    network.connect_device_mesh(names, lan_mbps)
    for name in names:
        network.connect_registry(hub.name, name, 100.0)
    if slow_seeder:
        network.set_uplink("edge-1", 10.0)  # a straggler: endgame bait
    sim = Simulator()
    engine = TransferEngine(sim, network, upload_budget=upload_budget)
    swarm = PeerSwarm(network)
    caches = {name: _CountingCache(1.0, name) for name in names}
    for name in names:
        swarm.add_device(name, caches[name], region="lab")
    planner = ChunkSwarmPlanner(
        PullPlanner(swarm, [hub]),
        ChunkSpec(size_bytes=chunk_size, parallel=window),
        seed=seed,
    )
    role_of = dict(zip(names, ["fetch", "seed"] + roles))
    for name, role in role_of.items():
        if role == "seed":
            caches[name].add(LAYER, layer_size)
    fetchers = [name for name, role in role_of.items() if role == "fetch"]
    fetches = {}

    def fetch(device, at_s, out):
        yield sim.timeout(at_s)
        out["outcome"] = yield from planner.fetch_layer(
            device, caches[device], LAYER, layer_size, engine
        )

    for device, at_s in zip(fetchers, starts):
        fetches[device] = {}
        fetches[device]["gen"] = fetch(device, at_s, fetches[device])
        sim.process(fetches[device]["gen"])
    if departure_s is not None:
        def depart():
            yield sim.timeout(departure_s)
            swarm.remove_device("edge-1", engine=engine)

        sim.process(depart())

    # A chunk no source can serve (the seeder departed and no registry
    # holds the layer) ends the run with the worker's error; every
    # fetch still in flight then aborts when its generator is closed,
    # as when a run is dropped.  A saturated seeder is not such a case:
    # the chunk waits for its next free slot.  An ``abort`` closes one
    # fetcher's generator mid-run.
    try:
        if abort is not None:
            victim = fetchers[abort[0] % len(fetchers)]
            sim.run(until=abort[1])
            fetches[victim]["gen"].close()
        sim.run()
    except RegistryError as exc:
        assert "unreachable" in str(exc)
        for out in fetches.values():
            out["gen"].close()

    for device, out in fetches.items():
        cache = caches[device]
        if "outcome" in out:
            assert cache.commits == {LAYER: 1}
            assert dict(cache.entries())[LAYER] == layer_size
            assert swarm.index.holds(device, LAYER)
            bytes_in = sum(out["outcome"].bytes_by_source.values())
            assert bytes_in == layer_size
        else:
            assert cache.commits == {}
            assert LAYER not in cache
    assert planner.ledger.tracked_layers() == []
    assert all(cache.reserved_bytes == 0 for cache in caches.values())
    assert swarm.index.coherence_violations() == []


@settings(max_examples=100, deadline=None)
@given(
    layer_size=st.integers(min_value=1, max_value=500),
    chunk_size=st.integers(min_value=1, max_value=64),
)
def test_chunk_maps_always_tile_exactly(layer_size, chunk_size):
    # The chunk spans tile the layer exactly: no dupes, no holes.
    cmap = ChunkMap(LAYER, layer_size, chunk_size)
    assert sum(c.size_bytes for c in cmap) == layer_size
    offset = 0
    for chunk in cmap:
        assert chunk.offset == offset
        assert chunk.size_bytes > 0
        offset += chunk.size_bytes
    assert offset == layer_size
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
        PullPlanner(swarm, [hub]), ChunkSpec(size_bytes=10), seed=seed
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
