"""Chunked multi-source transfers: maps, partial layers, swarm scheduling.

Covers the chunk subsystem end to end: deterministic chunking, the
reserve→commit-at-chunk-granularity lifecycle (partial layers hold
capacity and seed chunk-by-chunk), rarest-first scheduling with seeded
stable tie-breaks, per-chunk re-resolution on departure/saturation,
the registry endgame, and the waste-accounting comparison against the
single-source path's whole-layer restarts.
"""

import pytest

from repro.model.device import Arch
from repro.model.network import NetworkModel
from repro.registry.base import ImageReference, RegistryError
from repro.registry.blobstore import BlobRecord
from repro.registry.cache import ImageCache, ReservationError
from repro.registry.chunks import (
    ChunkFetchOutcome,
    ChunkLedger,
    ChunkMap,
    ChunkSwarmPlanner,
    _LayerFetch,
)
from repro.registry.digest import digest_text, is_digest
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.registry.p2p import (
    P2PRegistry,
    PeerIndex,
    PeerSwarm,
    PullPlanner,
    SourceKind,
)
from repro.scenarios import ChunkSpec
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine

LAYER = digest_text("layer-under-test")
MB = 1_000_000


# ----------------------------------------------------------------------
# ChunkMap
# ----------------------------------------------------------------------
class TestChunkMap:
    def test_chunks_tile_the_layer_exactly(self):
        cmap = ChunkMap(LAYER, 100 * MB, 32 * MB)
        assert cmap.n_chunks == 4
        assert [c.size_bytes for c in cmap] == [32 * MB, 32 * MB, 32 * MB, 4 * MB]
        offset = 0
        for chunk in cmap:
            assert chunk.offset == offset
            offset += chunk.size_bytes
        assert offset == 100 * MB

    def test_exact_multiple_has_no_remainder_chunk(self):
        cmap = ChunkMap(LAYER, 64 * MB, 32 * MB)
        assert [c.size_bytes for c in cmap] == [32 * MB, 32 * MB]

    def test_small_and_zero_layers_map_to_one_chunk(self):
        assert ChunkMap(LAYER, 5, 32 * MB).n_chunks == 1
        empty = ChunkMap(LAYER, 0, 32 * MB)
        assert empty.n_chunks == 1
        assert empty.chunk(0).size_bytes == 0

    def test_chunk_digests_are_valid_unique_and_deterministic(self):
        cmap = ChunkMap(LAYER, 100 * MB, 32 * MB)
        digests = [c.digest for c in cmap]
        assert all(is_digest(d) for d in digests)
        assert len(set(digests)) == cmap.n_chunks
        again = ChunkMap(LAYER, 100 * MB, 32 * MB)
        assert [c.digest for c in again] == digests
        other_layer = ChunkMap(digest_text("other"), 100 * MB, 32 * MB)
        assert set(c.digest for c in other_layer).isdisjoint(digests)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChunkMap(LAYER, -1, 32 * MB)
        with pytest.raises(ValueError):
            ChunkMap(LAYER, 100, 0)


# ----------------------------------------------------------------------
# partial-layer lifecycle: the layer reservation plus its ledger entries
# ----------------------------------------------------------------------
def make_store(capacity_gb: float = 1.0, device: str = "dev-a"):
    ledger = ChunkLedger()
    cache = ImageCache(capacity_gb, device)
    index = PeerIndex()
    index.register_cache(device, cache)
    return cache, ledger, index


def fetch_at(sim, engine, planner, cache, device, layer, size):
    """Run ``planner.fetch_layer`` as a process; the returned dict gets
    its ``outcome`` or its ``error``, and its generator as ``gen``."""
    out = {}

    def proc():
        try:
            out["outcome"] = yield from planner.fetch_layer(
                device, cache, layer, size, engine
            )
        except RegistryError as exc:
            out["error"] = exc

    out["gen"] = proc()
    sim.process(out["gen"])
    return out


class TestChunkStoreLifecycle:
    """A device's partial layer is its cache reservation plus the chunks
    it published to the ledger; ``fetch_layer`` drives both."""

    def test_begin_reserves_without_publishing(self):
        cache, ledger, index = make_store()
        cache.reserve(LAYER, 100 * MB)
        assert cache.is_reserved(LAYER)
        assert LAYER not in cache
        assert cache.reserved_bytes == 100 * MB
        assert not index.holds("dev-a", LAYER)
        assert ledger.chunk_holders(LAYER, 0) == frozenset()

    def test_committed_chunks_become_seedable_before_the_layer_lands(self):
        cache, ledger, index = make_store()
        cache.reserve(LAYER, 100 * MB)
        ledger.add_chunk("dev-a", LAYER, 2)
        ledger.add_chunk("dev-a", LAYER, 0)
        # Partial chunks are in the ledger (seedable) but the layer is
        # still invisible to the peer index — reserve→commit intact.
        assert ledger.chunk_holders(LAYER, 2) == frozenset({"dev-a"})
        assert ledger.chunk_holders(LAYER, 0) == frozenset({"dev-a"})
        assert ledger.chunk_holders(LAYER, 1) == frozenset()
        assert ledger.tracked_layers() == [LAYER]
        assert LAYER not in cache
        assert not index.holds("dev-a", LAYER)

    def test_finish_commits_cache_and_clears_partial_state(self):
        cache, ledger, index = make_store()
        cmap = ChunkMap(LAYER, 100 * MB, 32 * MB)
        cache.reserve(LAYER, 100 * MB)
        for i in range(cmap.n_chunks):
            ledger.add_chunk("dev-a", LAYER, i)
        # the ledger stops advertising partials the instant the full
        # replica becomes visible
        ledger.drop_layer("dev-a", LAYER)
        assert cache.commit(LAYER) is True
        assert LAYER in cache
        assert cache.used_bytes == 100 * MB
        assert cache.reserved_bytes == 0
        assert index.holds("dev-a", LAYER)
        assert ledger.chunk_holders(LAYER, 0) == frozenset()
        assert ledger.tracked_layers() == []

    def test_finish_with_missing_chunks_raises(self, monkeypatch):
        sim, engine, _swarm, caches, facade, _hub, _net = make_chunked_swarm()
        planner = facade.chunks

        def short_worker(st, device, _engine, _meter):
            # Lands chunk 0, then stops with the rest unclaimed.
            st.pending.clear()
            st.done.add(0)
            planner.ledger.add_chunk(device, st.cmap.layer_digest, 0)
            yield sim.timeout(1.0)

        monkeypatch.setattr(planner, "_worker", short_worker)
        cache = caches["edge-0"]
        out = fetch_at(sim, engine, planner, cache, "edge-0", LAYER, 100 * MB)
        sim.run()
        assert "missing" in str(out["error"])
        assert cache.reserved_bytes == 0 and LAYER not in cache
        assert planner.ledger.tracked_layers() == []

    def test_double_commit_of_a_chunk_counts_once(self, monkeypatch):
        # The original peer copy of a chunk and its endgame duplicate
        # from the registry start together over equal, independent
        # links, so both land in the same engine wake: the chunk is
        # committed and credited once, the second payload is waste.
        sim, engine, _swarm, caches, facade, hub, _net = make_chunked_swarm(
            hub_bw=100.0, lan_bw=100.0, chunk_parallel=2
        )
        hub.blobs.put_record(BlobRecord(digest=LAYER, size_bytes=32 * MB))
        caches["edge-1"].add(LAYER, 32 * MB)
        planner = facade.chunks
        claims = {"next": 0, "endgame": 0}
        real_next = planner._next_chunk

        def next_chunk(st, device):
            claims["next"] += 1
            if claims["next"] == 2:
                return None  # the second worker goes straight to endgame
            return real_next(st, device)

        def endgame_candidate(st, device, _engine):
            claims["endgame"] += 1
            if claims["endgame"] == 1:
                return next(iter(st.inflight))
            return None

        monkeypatch.setattr(planner, "_next_chunk", next_chunk)
        monkeypatch.setattr(planner, "_endgame_candidate", endgame_candidate)
        cache = caches["edge-0"]
        out = fetch_at(sim, engine, planner, cache, "edge-0", LAYER, 32 * MB)
        sim.run()
        outcome = out["outcome"]
        assert outcome.endgame_dupes == 1
        assert sum(outcome.bytes_by_source.values()) == 32 * MB
        assert outcome.wasted_bytes == 16 * MB
        assert dict(cache.entries())[LAYER] == 32 * MB
        assert cache.reserved_bytes == 0
        assert planner.ledger.tracked_layers() == []

    def test_begin_twice_raises(self):
        sim, engine, _swarm, caches, facade, _hub, _net = make_chunked_swarm()
        cache = caches["edge-0"]
        cache.reserve(LAYER, 100 * MB)  # a fetch of LAYER is in flight
        fetch = facade.chunks.fetch_layer(
            "edge-0", cache, LAYER, 100 * MB, engine
        )
        with pytest.raises(ReservationError, match="already reserved"):
            next(fetch)
        assert cache.reserved_bytes == 100 * MB
        assert facade.chunks.ledger.tracked_layers() == []

    def test_abort_releases_bytes_and_ledger_entries(self):
        # Only edge-1 holds the layer and no registry does: when it
        # departs mid-fetch the cancelled chunk has no source left.  The
        # worker's error ends the run; the fetch, suspended after some
        # chunks landed, aborts when its generator is closed (as when
        # the run is dropped).
        sim, engine, swarm, caches, facade, _hub, _net = make_chunked_swarm(
            lan_bw=100.0, chunk_parallel=1
        )
        caches["edge-1"].add(LAYER, 100 * MB)
        planner = facade.chunks
        cache = caches["edge-0"]
        seen = {}
        out = fetch_at(sim, engine, planner, cache, "edge-0", LAYER, 100 * MB)

        def departure():
            yield sim.timeout(4.0)  # after two 16 MB chunks, mid-third
            seen["partial"] = planner.ledger.tracked_layers()
            swarm.remove_device("edge-1", engine=engine)

        sim.process(departure())
        with pytest.raises(RegistryError, match="unreachable"):
            sim.run()
        assert seen["partial"] == [LAYER]
        assert cache.is_reserved(LAYER)
        out["gen"].close()
        assert cache.reserved_bytes == 0
        assert LAYER not in cache
        assert planner.ledger.tracked_layers() == []
        # a fresh download can start over
        cache.reserve(LAYER, 100 * MB)

    def test_out_of_band_insert_absorbs_the_partial_record(self):
        # An instant add landing the layer mid-fetch absorbs the
        # reservation.  No valid spec does this (chunked pulls need the
        # engine, and nothing then calls add); the fetch still ends
        # cleanly: its commit is a refresh and no partial state stays.
        sim, engine, swarm, caches, facade, _hub, _net = make_chunked_swarm(
            lan_bw=100.0, chunk_parallel=1
        )
        caches["edge-1"].add(LAYER, 100 * MB)
        planner = facade.chunks
        cache = caches["edge-0"]
        out = fetch_at(sim, engine, planner, cache, "edge-0", LAYER, 100 * MB)

        def insert():
            yield sim.timeout(4.0)
            cache.add(LAYER, 100 * MB)
            assert not cache.is_reserved(LAYER)

        sim.process(insert())
        sim.run()
        assert sum(out["outcome"].bytes_by_source.values()) == 100 * MB
        assert dict(cache.entries())[LAYER] == 100 * MB
        assert cache.reserved_bytes == 0
        assert swarm.index.holds("edge-0", LAYER)
        assert planner.ledger.tracked_layers() == []


# ----------------------------------------------------------------------
# rarest-first ordering
# ----------------------------------------------------------------------
def planner_on_lan(n_devices: int = 4, seed: int = 0):
    hub = DockerHub(name="docker-hub")
    network = NetworkModel()
    names = [f"edge-{i}" for i in range(n_devices)]
    network.connect_device_mesh(names, 800.0)
    for name in names:
        network.connect_registry(hub.name, name, 60.0)
    swarm = PeerSwarm(network)
    caches = {}
    for name in names:
        caches[name] = ImageCache(4.0, name)
        swarm.add_device(name, caches[name], region="lab")
    planner = ChunkSwarmPlanner(
        PullPlanner(swarm, [hub]), ChunkSpec(size_bytes=10 * MB), seed=seed
    )
    return planner, swarm, caches, hub


def claim_order(planner, device, cmap, pending=None):
    """Chunks of ``cmap`` in the order ``_next_chunk`` claims them for
    ``device`` (the selection every chunk worker runs)."""
    st = _LayerFetch(cmap, ChunkFetchOutcome(cmap.layer_digest))
    if pending is not None:
        st.pending = set(pending)
    order = []
    while (index := planner._next_chunk(st, device)) is not None:
        order.append(index)
    return order


class TestRarestFirst:
    def test_availability_counts_full_and_partial_holders(self):
        planner, swarm, caches, _hub = planner_on_lan()
        cmap = ChunkMap(LAYER, 40 * MB, 10 * MB)
        # edge-1 holds the full layer; edge-3 holds only chunk 0; a
        # stale ledger entry also lists edge-1 for chunk 1.
        caches["edge-1"].add(LAYER, 40 * MB)
        caches["edge-3"].reserve(LAYER, 40 * MB)
        planner.ledger.add_chunk("edge-3", LAYER, 0)
        planner.ledger.add_chunk("edge-1", LAYER, 1)
        # Rarity is |full ∪ partial|: chunk 0 has two holders, chunks
        # 1–3 one each (edge-1 counts once for chunk 1).
        order = claim_order(planner, "edge-0", cmap)
        assert order[-1] == 0
        assert set(order[:3]) == {1, 2, 3}
        # The viewer itself never counts: to edge-3 every chunk has the
        # one full holder, so the seeded tie-break alone decides (and it
        # does not put chunk 0 last, where counting edge-3 would).
        by_tiebreak = sorted(
            range(4), key=lambda i: planner._tiebreak("edge-3", LAYER, i)
        )
        assert by_tiebreak[-1] != 0
        assert claim_order(planner, "edge-3", cmap) == by_tiebreak

    def test_rarer_chunks_order_first(self):
        planner, swarm, caches, _hub = planner_on_lan()
        cmap = ChunkMap(LAYER, 40 * MB, 10 * MB)
        caches["edge-1"].add(LAYER, 40 * MB)
        caches["edge-2"].reserve(LAYER, 40 * MB)
        planner.ledger.add_chunk("edge-2", LAYER, 0)
        planner.ledger.add_chunk("edge-2", LAYER, 1)
        order = claim_order(planner, "edge-0", cmap)
        # chunks 2/3 have one holder, chunks 0/1 have two
        assert set(order[:2]) == {2, 3}
        assert set(order[2:]) == {0, 1}

    def test_tiebreak_is_seeded_and_stable(self):
        cmap = ChunkMap(LAYER, 320 * MB, 10 * MB)
        planner_a, *_ = planner_on_lan(seed=7)
        planner_b, *_ = planner_on_lan(seed=7)
        planner_c, *_ = planner_on_lan(seed=8)
        order_a = claim_order(planner_a, "edge-0", cmap)
        order_b = claim_order(planner_b, "edge-0", cmap)
        order_c = claim_order(planner_c, "edge-0", cmap)
        assert order_a == order_b  # same seed → identical schedule
        assert order_a != order_c  # different seed → different ties
        # repeated fetches are stable
        assert claim_order(planner_a, "edge-0", cmap) == order_a
        # and a restricted pending set preserves the relative order
        pending = set(order_a[:10])
        assert claim_order(planner_a, "edge-0", cmap, pending) == order_a[:10]

    def test_tiebreak_disperses_across_devices(self):
        # Equal-rarity chunks must be claimed in different orders on
        # different devices, else a cold wave moves in lockstep and
        # partial seeding never gets a chunk the neighbours lack.
        cmap = ChunkMap(LAYER, 320 * MB, 10 * MB)
        planner, *_ = planner_on_lan()
        order_0 = claim_order(planner, "edge-0", cmap)
        order_1 = claim_order(planner, "edge-1", cmap)
        assert order_0 != order_1


# ----------------------------------------------------------------------
# source choice shared with the single-source planner
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", ["layer", "chunk"])
def test_peer_beats_registry_on_equal_seconds(path):
    # One planner decides both a layer's and a chunk's source: a peer
    # and a registry that take exactly as long both resolve to the peer.
    hub = DockerHub(name="docker-hub")
    hub.blobs.put_record(BlobRecord(digest=LAYER, size_bytes=40 * MB))
    network = NetworkModel()
    network.connect_devices("dev", "peer", 100.0)
    network.connect_registry(hub.name, "dev", 100.0)
    swarm = PeerSwarm(network)
    for name in ("dev", "peer"):
        swarm.add_device(name, ImageCache(1.0, name), region="lab")
    swarm.index.cache_of("peer").add(LAYER, 40 * MB)
    planner = PullPlanner(swarm, [hub])
    size_mb = 40.0 if path == "layer" else 10.0
    assert network.device_channel("peer", "dev").transfer_time_s(
        size_mb
    ) == network.registry_channel(hub.name, "dev").transfer_time_s(size_mb)
    if path == "layer":
        source = planner.resolve_layer(
            LAYER, 40 * MB, "dev", swarm.index.cache_of("dev")
        )
        assert (source.kind, source.source) == (SourceKind.PEER, "peer")
    else:
        chunks = ChunkSwarmPlanner(planner, ChunkSpec(size_bytes=10 * MB))
        cmap = ChunkMap(LAYER, 40 * MB, 10 * MB)
        st = _LayerFetch(cmap, ChunkFetchOutcome(LAYER))
        assert chunks._resolve_chunk(st, cmap.chunk(0), "dev", set()) == (
            "peer", False
        )


# ----------------------------------------------------------------------
# chunked pulls through the facade (integration)
# ----------------------------------------------------------------------
def make_chunked_swarm(
    n_devices=4,
    hub_bw=80.0,
    lan_bw=800.0,
    upload_budget=None,
    chunk_size_bytes=16 * MB,
    chunk_parallel=4,
    repo_size_gb=0.5,
):
    hub = DockerHub(name="docker-hub")
    mlist, blobs = build_image("acme/mono", repo_size_gb, base=None, app_layers=1)
    hub.push_image("acme/mono", "latest", mlist, blobs)
    mlist2, blobs2 = build_image(
        "acme/app", repo_size_gb, base=OFFICIAL_BASES["python:3.9-slim"]
    )
    hub.push_image("acme/app", "latest", mlist2, blobs2)
    network = NetworkModel()
    names = [f"edge-{i}" for i in range(n_devices)]
    network.connect_device_mesh(names, lan_bw)
    for name in names:
        network.connect_registry(hub.name, name, hub_bw)
    sim = Simulator()
    engine = TransferEngine(sim, network, upload_budget=upload_budget)
    swarm = PeerSwarm(network)
    caches = {}
    for name in names:
        caches[name] = ImageCache(12.0, name)
        swarm.add_device(name, caches[name], region="lab")
    facade = P2PRegistry(
        swarm,
        [hub],
        chunks=ChunkSpec(
            enabled=True, size_bytes=chunk_size_bytes, parallel=chunk_parallel
        ),
    )
    return sim, engine, swarm, caches, facade, hub, network


def pull_at(sim, engine, facade, caches, at_s, device, repo="acme/mono"):
    out = {}

    def proc():
        yield sim.timeout(at_s)
        result = yield from facade.pull_process(
            ImageReference(repo), Arch.AMD64, device, caches[device], engine
        )
        out["result"] = result
        out["end"] = sim.now

    sim.process(proc())
    return out


class TestChunkedPull:
    def test_cold_pull_lands_exact_bytes_and_stays_coherent(self):
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm()
        out = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        sim.run()
        result = out["result"]
        manifest = result.manifest
        assert caches["edge-0"].has_image(manifest)
        assert caches["edge-0"].used_bytes == manifest.total_layer_bytes
        assert caches["edge-0"].reserved_bytes == 0
        assert result.bytes_transferred == manifest.total_layer_bytes
        # per-source plan entries sum exactly to the layer bytes
        assert sum(l.size_bytes for l in result.layers) == manifest.total_layer_bytes
        assert swarm.index.coherence_violations() == []
        # nothing partial lingers
        assert facade.chunks.ledger.tracked_layers() == []

    def test_partial_seeding_serves_chunks_before_the_layer_commits(self):
        # acme/mono is a single layer, so the leader commits nothing
        # until its pull completes — any peer bytes the follower gets
        # can only come from the leader's *partial* chunks (the ledger).
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm()
        lead = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        follow = pull_at(sim, engine, facade, caches, 5.0, "edge-1")
        sim.run()
        assert follow["result"].bytes_from_peers > 0
        # the follower overlapped the leader (started before it ended)
        assert follow["end"] >= 5.0 and lead["end"] > 5.0
        assert caches["edge-1"].has_image(follow["result"].manifest)

    def test_single_source_follower_gets_no_peer_bytes_in_same_overlap(self):
        # The control for the partial-seeding test: same topology and
        # timing, single-source planner — the follower resolves while
        # nothing is committed and must go to the registry.
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm()
        single = P2PRegistry(swarm, [hub])  # no chunks: single-source
        lead = pull_at(sim, engine, single, caches, 0.0, "edge-0")
        follow = pull_at(sim, engine, single, caches, 5.0, "edge-1")
        sim.run()
        assert follow["result"].bytes_from_peers == 0

    def test_chunked_beats_single_source_on_a_contended_cold_wave(self):
        def wave(chunked):
            sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm(
                n_devices=6, upload_budget=2
            )
            registry = (
                facade if chunked else P2PRegistry(swarm, [hub])
            )
            outs = [
                pull_at(sim, engine, registry, caches, float(i), f"edge-{i}")
                for i in range(6)
            ]
            sim.run()
            return max(o["end"] for o in outs), sum(
                o["result"].bytes_from_peers for o in outs
            )

        single_makespan, single_peer = wave(chunked=False)
        chunked_makespan, chunked_peer = wave(chunked=True)
        assert chunked_makespan < single_makespan
        assert chunked_peer > single_peer

    def test_multi_source_spread_respects_upload_budgets(self):
        # Two full holders with budget 1 each: a chunked pull must
        # spread chunks across both (and may top up from the hub), but
        # can never hold two concurrent uploads from one seeder.
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm(
            upload_budget=1
        )
        warm = pull_at(sim, engine, facade, caches, 0.0, "edge-1")
        warm2 = pull_at(sim, engine, facade, caches, 40.0, "edge-2")
        cold = pull_at(sim, engine, facade, caches, 80.0, "edge-0")
        sim.run()
        result = cold["result"]
        peer_sources = {
            layer.source
            for layer in result.layers
            if layer.kind is SourceKind.PEER
        }
        assert len(peer_sources) >= 2  # chunks drawn from both holders
        # Chunk-granular attribution: each seeder is credited its own
        # chunk bytes, and peers plus registries cover every byte moved.
        assert result.bytes_from_peers == sum(
            layer.size_bytes
            for layer in result.layers
            if layer.kind is SourceKind.PEER
        )
        assert (
            sum(result.bytes_by_registry.values()) + result.bytes_from_peers
            == result.bytes_transferred
        )
        assert result.bytes_wasted == 0
        assert result.chunk_endgame_dupes == 0

    def test_seeder_departure_loses_one_chunk_not_the_layer(self):
        # edge-1 seeds the whole (single-layer) image to edge-0, then
        # departs mid-transfer.  The chunked pull re-resolves the
        # in-flight chunk and keeps every chunk already landed.
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm(
            hub_bw=80.0, lan_bw=100.0, chunk_parallel=1
        )
        warm = pull_at(sim, engine, facade, caches, 0.0, "edge-1")
        cold = pull_at(sim, engine, facade, caches, 100.0, "edge-0")

        def departure():
            yield sim.timeout(130.0)  # mid-way through edge-0's pull
            swarm.remove_device("edge-1", engine=engine)

        sim.process(departure())
        sim.run()
        result = cold["result"]
        manifest = result.manifest
        assert caches["edge-0"].has_image(manifest)
        # waste is bounded by one chunk (the one in flight at departure)
        assert 0 < result.bytes_wasted <= 16 * MB
        # and the pull mixed peer chunks (before departure) with
        # registry chunks (after)
        kinds = {layer.kind for layer in result.layers}
        assert kinds == {SourceKind.PEER, SourceKind.REGISTRY}

    def test_single_source_departure_wastes_more_than_chunked(self):
        # The satellite assertion: same departure scenario, whole-layer
        # restart vs chunk re-resolution — chunking must reduce
        # bytes_wasted.
        def run(chunked):
            sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm(
                hub_bw=80.0, lan_bw=100.0, chunk_parallel=1
            )
            registry = facade if chunked else P2PRegistry(swarm, [hub])
            pull_at(sim, engine, registry, caches, 0.0, "edge-1")
            cold = pull_at(sim, engine, registry, caches, 100.0, "edge-0")

            def departure():
                yield sim.timeout(130.0)
                swarm.remove_device("edge-1", engine=engine)

            sim.process(departure())
            sim.run()
            return cold["result"]

        single = run(chunked=False)
        chunked = run(chunked=True)
        assert single.bytes_wasted > 0
        assert chunked.bytes_wasted > 0
        assert chunked.bytes_wasted < single.bytes_wasted

    def test_endgame_duplicates_a_straggler_from_the_registry(self):
        # One slow seeder (capped uplink) vs a fast hub: the last
        # chunks straggle on the peer path and the endgame re-requests
        # them from the registry, metering the duplicates.
        sim, engine, swarm, caches, facade, hub, network = make_chunked_swarm(
            hub_bw=80.0, lan_bw=100.0, chunk_parallel=2
        )
        network.set_uplink("edge-1", 10.0)  # the seeder crawls
        warm = pull_at(sim, engine, facade, caches, 0.0, "edge-1")
        cold = pull_at(sim, engine, facade, caches, 100.0, "edge-0")
        sim.run()
        result = cold["result"]
        assert result.chunk_endgame_dupes > 0
        assert result.bytes_wasted > 0  # the losing copy is metered
        assert caches["edge-0"].has_image(result.manifest)

    def test_concurrent_same_image_pulls_join_one_chunked_fetch(self):
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm()
        first = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        second = pull_at(sim, engine, facade, caches, 1.0, "edge-0")
        sim.run()
        n_chunks = len(
            ChunkMap(
                first["result"].manifest.layers[0].digest,
                first["result"].manifest.layers[0].size_bytes,
                16 * MB,
            )
        )
        # the joiner waited for the in-flight fetch instead of
        # re-fetching: exactly one chunk set moved for the layer
        assert engine.started == n_chunks
        assert second["result"].bytes_transferred == 0  # all LOCAL
        assert second["end"] == pytest.approx(first["end"])

    def test_chunked_facade_requires_engine_path(self):
        # the analytic pull() is untouched by chunking: it still works
        # and reports no waste/dupes
        sim, engine, swarm, caches, facade, hub, _net = make_chunked_swarm()
        result = facade.pull(
            ImageReference("acme/mono"), Arch.AMD64, "edge-0", caches["edge-0"]
        )
        assert result.bytes_wasted == 0
        assert result.chunk_endgame_dupes == 0
        assert caches["edge-0"].has_image(result.manifest)


class TestSaturatedSeeder:
    """A seeder at its upload budget is busy, not unreachable: a chunk
    whose only source is saturated waits for a slot."""

    def sole_seeder(self, window, budget):
        # edge-1 holds a 64 MB layer that no registry does; 16 MB
        # chunks at 100 Mbit/s take 1.28 s each, so four chunks
        # through one upload slot take 5.12 s.
        sim, engine, _swarm, caches, facade, _hub, _net = make_chunked_swarm(
            lan_bw=100.0, upload_budget=budget, chunk_parallel=window
        )
        caches["edge-1"].add(LAYER, 64 * MB)
        out = fetch_at(
            sim, engine, facade.chunks, caches["edge-0"], "edge-0",
            LAYER, 64 * MB,
        )
        return sim, out

    @pytest.mark.parametrize("window, budget", [(1, 1), (2, 1), (4, 2)])
    def test_window_above_the_budget_waits_for_slots(self, window, budget):
        sim, out = self.sole_seeder(window, budget)
        sim.run()
        outcome = out["outcome"]
        assert sim.now == pytest.approx(5.12)
        assert outcome.bytes_by_source == {(False, "edge-1"): 64 * MB}
        assert outcome.wasted_bytes == 0

    def test_a_seeder_freed_meanwhile_is_retried_at_once(self):
        # edge-1 is busy (an 8 MB upload to edge-2 ends at 0.64 s), so
        # the one 16 MB chunk goes to the slower edge-3, which departs
        # at 1 s.  edge-1 is free by then: the chunk retries it at once
        # and lands at 1 s + 1.28 s.
        sim, engine, swarm, caches, facade, _hub, network = (
            make_chunked_swarm(
                lan_bw=100.0, upload_budget=1, chunk_parallel=1
            )
        )
        network.set_uplink("edge-3", 50.0)
        for seeder in ("edge-1", "edge-3"):
            caches[seeder].add(LAYER, 16 * MB)
        engine.start("edge-1", "edge-2", 8 * MB)
        out = fetch_at(
            sim, engine, facade.chunks, caches["edge-0"], "edge-0",
            LAYER, 16 * MB,
        )

        def departure():
            yield sim.timeout(1.0)
            swarm.remove_device("edge-3", engine=engine)

        sim.process(departure())
        sim.run()
        outcome = out["outcome"]
        assert outcome.bytes_by_source == {(False, "edge-1"): 16 * MB}
        assert outcome.seconds == pytest.approx(2.28)

    def test_a_seeder_with_budget_zero_stays_unreachable(self):
        # No upload in flight will ever free a slot, so nothing waits.
        sim, _out = self.sole_seeder(window=2, budget=0)
        with pytest.raises(RegistryError, match="unreachable"):
            sim.run()


class TestEndgameMeteringFailure:
    def test_speculative_duplicate_never_sinks_the_pull(self):
        # Same slow-seeder topology as the endgame test, but registry
        # metering always fails (hub rate limit exhausted).  Every
        # required chunk resolves from the peer, so the only metering
        # calls are for speculative endgame duplicates — which must be
        # abandoned, not allowed to abort a pull the peer path is
        # already completing.
        sim, engine, swarm, caches, facade, hub, network = make_chunked_swarm(
            hub_bw=80.0, lan_bw=100.0, chunk_parallel=2
        )
        network.set_uplink("edge-1", 10.0)  # the seeder crawls
        pull_at(sim, engine, facade, caches, 0.0, "edge-1")

        meter_calls = []

        def exhausted(registry_name):
            meter_calls.append(registry_name)
            raise RegistryError("toomanyrequests: pull rate limit exceeded")

        out = {}

        def proc():
            yield sim.timeout(100.0)
            layer = hub.resolve(
                ImageReference("acme/mono"), Arch.AMD64
            ).layers[0]
            outcome = yield from facade.chunks.fetch_layer(
                "edge-0",
                caches["edge-0"],
                layer.digest,
                layer.size_bytes,
                engine,
                meter_registry=exhausted,
            )
            out["outcome"] = outcome

        sim.process(proc())
        sim.run()
        outcome = out["outcome"]
        # the endgame tried the registry, hit the limit, gave up the
        # duplicate — and the layer still assembled entirely from peers
        assert meter_calls
        assert outcome.endgame_dupes == 0
        assert not any(registry for registry, _ in outcome.bytes_by_source)
        assert sum(outcome.bytes_by_source.values()) == 500_000_000
