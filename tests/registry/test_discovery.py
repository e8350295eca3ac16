"""Unit tests for the pluggable discovery backends.

Omniscient discovery must be indistinguishable from querying the peer
index directly; gossip discovery must converge via anti-entropy, keep
views partial, treat staleness as a metered failure mode, and survive
departure / re-join-with-stale-cache without resurrecting dead info.
"""

import pytest

from repro.model.device import Arch
from repro.model.network import NetworkModel
from repro.model.units import BYTES_PER_GB
from repro.registry.base import ImageReference, RegistryError
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.discovery import (
    GossipDiscovery,
    OmniscientDiscovery,
    _version_key,
)
from repro.registry.hub import DockerHub
from repro.registry.images import build_image
from repro.registry.p2p import AdaptiveReplicator, P2PRegistry, PeerSwarm, SourceKind
from repro.scenarios import DiscoverySpec, ReplicationSpec
from repro.sim.engine import Simulator

from gossip_oracle import ViewRecord, _newer

D = [digest_text(f"disc-layer-{i}") for i in range(6)]


def gossip(sim=None, seed=0, **knobs) -> GossipDiscovery:
    """A gossip backend on ``sim`` (a fresh one by default), configured
    by a discovery spec section; ``knobs`` name its ``gossip_*`` fields
    without the prefix."""
    config = DiscoverySpec(
        backend="gossip", **{f"gossip_{k}": v for k, v in knobs.items()}
    )
    return GossipDiscovery(
        sim if sim is not None else Simulator(), config, seed=seed
    )


def small_cache(capacity_bytes: int, device: str) -> ImageCache:
    return ImageCache(capacity_bytes / BYTES_PER_GB, device)


def evict_everything(cache: ImageCache) -> None:
    """Drop every entry the way a run does: admit one that fills the
    cache, so LRU eviction takes all the others."""
    cache.add(digest_text(f"filler-{cache.device}"), cache.capacity_bytes)


def mesh_swarm(n=4, discovery=None, capacity=1000):
    network = NetworkModel()
    names = [f"d{i}" for i in range(n)]
    network.connect_device_mesh(names, 800.0)
    swarm = PeerSwarm(network, discovery=discovery)
    caches = {}
    for name in names:
        caches[name] = small_cache(capacity, name)
        swarm.add_device(name, caches[name], region="r0")
    return swarm, caches


# ----------------------------------------------------------------------
# omniscient backend
# ----------------------------------------------------------------------
class TestOmniscientDiscovery:
    def test_view_mirrors_index_for_every_viewer(self):
        swarm, caches = mesh_swarm()
        caches["d0"].add(D[0], 10)
        caches["d2"].add(D[0], 10)
        for viewer in swarm.devices():
            assert swarm.discovery.view(viewer, D[0]) == {"d0", "d2"}
        assert swarm.discovery.management_view(D[0]) == {"d0", "d2"}
        assert swarm.discovery.size_of(D[0]) == 10

    def test_default_backend_is_omniscient_and_authoritative(self):
        swarm, _ = mesh_swarm()
        assert isinstance(swarm.discovery, OmniscientDiscovery)
        assert swarm.discovery.authoritative
        assert swarm.discovery.stale_misses == 0

    def test_verify_holder_raises_on_incoherence(self):
        swarm, caches = mesh_swarm()
        caches["d0"].add(D[0], 10)
        assert swarm.verify_holder("d1", "d0", D[0]) is True
        with pytest.raises(RegistryError, match="incoherent"):
            swarm.verify_holder("d1", "d3", D[0])


# ----------------------------------------------------------------------
# gossip backend: convergence and partial views
# ----------------------------------------------------------------------
class TestGossipConvergence:
    def test_views_start_empty_and_converge(self):
        disc = gossip(fanout=2, period_s=30.0, seed=3)
        swarm, caches = mesh_swarm(n=6, discovery=disc)
        caches["d0"].add(D[0], 10)
        caches["d4"].add(D[0], 10)
        assert disc.view("d2", D[0]) == frozenset()
        for _ in range(3 * 6):
            disc.run_round()
        for viewer in swarm.devices():
            expected = {"d0", "d4"} - {viewer}
            assert disc.view(viewer, D[0]) == expected
        assert disc.management_view(D[0]) == {"d0", "d4"}
        assert disc.coverage(swarm.index) == pytest.approx(1.0)

    def test_view_never_contains_viewer(self):
        disc = gossip(fanout=2, period_s=30.0, seed=3)
        _swarm, caches = mesh_swarm(n=4, discovery=disc)
        caches["d1"].add(D[0], 10)
        for _ in range(12):
            disc.run_round()
        assert "d1" not in disc.view("d1", D[0])

    def test_view_cap_bounds_present_entries(self):
        disc = gossip(fanout=3, period_s=30.0, view_cap=2, seed=5)
        _swarm, caches = mesh_swarm(n=8, discovery=disc)
        for name, cache in caches.items():
            cache.add(D[0], 10)
        for _ in range(24):
            disc.run_round()
        for viewer in caches:
            holders = disc.view(viewer, D[0])
            assert 0 < len(holders) <= 2
            assert viewer not in holders

    def test_size_learned_from_firsthand_adds(self):
        disc = gossip(seed=1)
        _swarm, caches = mesh_swarm(n=3, discovery=disc)
        assert disc.size_of(D[0]) is None
        caches["d0"].add(D[0], 77)
        assert disc.size_of(D[0]) == 77

    def test_bound_simulator_runs_rounds_on_the_clock(self):
        sim = Simulator()
        disc = gossip(sim=sim, fanout=1, period_s=10.0, seed=2)
        _swarm, caches = mesh_swarm(n=3, discovery=disc)
        caches["d0"].add(D[0], 10)
        disc.start()
        sim.run(until=55.0)
        assert disc.rounds == 5
        assert disc.view("d1", D[0]) == {"d0"}


# ----------------------------------------------------------------------
# gossip backend: staleness as a failure mode
# ----------------------------------------------------------------------
class TestGossipStaleness:
    def converged(self, n=5, seed=7):
        disc = gossip(fanout=2, period_s=30.0, seed=seed)
        swarm, caches = mesh_swarm(n=n, discovery=disc)
        caches["d0"].add(D[0], 10)
        caches["d3"].add(D[0], 10)
        for _ in range(3 * n):
            disc.run_round()
        return disc, swarm, caches

    def test_eviction_leaves_stale_entries_until_verified(self):
        disc, swarm, caches = self.converged()
        evict_everything(caches["d0"])
        # d0's own firsthand flips instantly, but d2's view is stale.
        assert "d0" in disc.view("d2", D[0])
        assert swarm.verify_holder("d2", "d0", D[0]) is False
        assert disc.stale_misses == 1
        assert "d0" not in disc.view("d2", D[0])
        assert swarm.discovery.stale_misses == 1

    def test_drop_propagates_through_gossip_without_verification(self):
        disc, swarm, caches = self.converged()
        evict_everything(caches["d0"])
        for _ in range(3 * 5):
            disc.run_round()
        for viewer in swarm.devices():
            assert "d0" not in disc.view(viewer, D[0])
        assert disc.stale_misses == 0  # nobody had to trip over it

    def test_departed_holder_is_served_stale_then_metered(self):
        disc, swarm, caches = self.converged()
        swarm.remove_device("d3")
        assert "d3" in disc.view("d1", D[0])  # the departure is unseen
        assert swarm.best_peer(D[0], "d1") in {"d0", "d3"}
        assert swarm.verify_holder("d1", "d3", D[0]) is False
        assert "d3" not in disc.view("d1", D[0])

    def test_best_peer_ranks_a_live_region_member_before_a_departed_one(self):
        # d0 departed unseen: d1's view still holds it, and it ranks
        # first in d1's preference order (same bandwidth, smaller
        # name).  best_peer's same-region pass takes the live member
        # d3 instead, so no stale entry is tried, verified and missed.
        disc, swarm, caches = self.converged()
        swarm.remove_device("d0")
        preference = swarm.network.device_sources_by_preference("d1")
        view = disc.view("d1", D[0])
        assert [peer for peer in preference if peer in view] == ["d0", "d3"]
        assert swarm.best_peer(D[0], "d1") == "d3"
        assert disc.stale_misses == 0

    def test_rejoin_with_stale_cache_bumps_incarnation(self):
        disc, swarm, caches = self.converged()
        swarm.remove_device("d3")
        # Everyone learns d3 is gone the hard way.
        for viewer in ("d1", "d2", "d4"):
            swarm.verify_holder(viewer, "d3", D[0])
        swarm.add_device("d3", caches["d3"], region="r0")
        for _ in range(3 * 5):
            disc.run_round()
        # The fresh incarnation's announcement outranks the old
        # suppressions: d3 is a holder again in every view.
        for viewer in ("d1", "d2", "d4"):
            assert "d3" in disc.view(viewer, D[0])

    def test_double_join_rejected(self):
        disc = gossip(seed=1)
        _swarm, caches = mesh_swarm(n=3, discovery=disc)
        with pytest.raises(ValueError):
            disc.on_join("d0")

    def test_leave_unknown_rejected(self):
        disc = gossip(seed=1)
        with pytest.raises(ValueError):
            disc.on_leave("ghost")


# ----------------------------------------------------------------------
# gossip backend: transport knobs (latency, exchange mode)
# ----------------------------------------------------------------------
class TestGossipTransport:
    def test_latency_defers_payload_delivery(self):
        sim = Simulator()
        disc = gossip(
            sim=sim, fanout=1, period_s=10.0, latency_s=4.0, seed=2
        )
        _swarm, caches = mesh_swarm(n=3, discovery=disc)
        caches["d0"].add(D[0], 10)
        disc.start()
        sim.run(until=12.0)
        # The round fired at t=10, but its payloads are on the wire
        # until t=14: nobody has learned of d0's copy yet.
        assert disc.rounds == 1
        assert disc.view("d1", D[0]) == frozenset()
        assert disc.view("d2", D[0]) == frozenset()
        sim.run(until=15.0)
        # d0 initiated one exchange, so at least one peer now knows.
        assert disc.view("d1", D[0]) | disc.view("d2", D[0]) == {"d0"}

    def test_latency_only_delays_convergence(self):
        sim = Simulator()
        disc = gossip(
            sim=sim, fanout=2, period_s=10.0, latency_s=5.0, seed=3
        )
        swarm, caches = mesh_swarm(n=5, discovery=disc)
        caches["d0"].add(D[0], 10)
        disc.start()
        sim.run(until=200.0)
        for viewer in swarm.devices():
            expected = {"d0"} - {viewer}
            assert disc.view(viewer, D[0]) == expected

    def run_transport(self, exchange, rounds=15, n=5):
        disc = gossip(
            fanout=2, period_s=30.0, seed=11, exchange=exchange
        )
        swarm, caches = mesh_swarm(n=n, discovery=disc)
        caches["d0"].add(D[0], 10)
        caches["d3"].add(D[1], 20)
        for _ in range(rounds):
            disc.run_round()
        views = {
            (viewer, digest): disc.view(viewer, digest)
            for viewer in swarm.devices()
            for digest in (D[0], D[1])
        }
        return views, disc.records_sent

    def test_digest_summary_converges_identically_with_fewer_records(self):
        # Same seed, same partner schedule: the delta encoding must
        # land every view push-pull lands while metering strictly
        # fewer records over the wire.
        full_views, full_records = self.run_transport("push-pull")
        summary_views, summary_records = self.run_transport(
            "digest-summary"
        )
        assert summary_views == full_views
        assert 0 < summary_records < full_records

    def test_digest_summary_repeat_exchange_ships_nothing(self):
        disc = gossip(seed=1, exchange="digest-summary")
        _swarm, caches = mesh_swarm(n=2, discovery=disc)
        caches["d0"].add(D[0], 10)
        disc.run_round()
        sent = disc.records_sent
        assert sent > 0
        disc.run_round()  # both sides already know everything
        assert disc.records_sent == sent


# ----------------------------------------------------------------------
# merge rule
# ----------------------------------------------------------------------
class TestMergeRule:
    def test_strictly_newer_wins(self):
        old = _version_key(1, 2, True)
        assert _version_key(1, 3, False) > old
        assert _version_key(2, 0, True) > old
        assert not _version_key(1, 1, False) > old

    def test_tie_prefers_absent(self):
        assert _version_key(1, 2, False) > _version_key(1, 2, True)
        assert not _version_key(1, 2, True) > _version_key(1, 2, False)
        assert not _version_key(1, 2, True) > _version_key(1, 2, True)

    def test_key_order_is_the_record_merge_rule(self):
        # Exhaustively over small versions, and at the seq boundary:
        # key > key is exactly the record-object rule it replaced.
        seqs = (0, 1, 2, 2**32 - 1)
        records = [
            ViewRecord(inc, seq, present)
            for inc in (1, 2, 3)
            for seq in seqs
            for present in (True, False)
        ]
        for a in records:
            for b in records:
                key_a = _version_key(a.incarnation, a.seq, a.present)
                key_b = _version_key(b.incarnation, b.seq, b.present)
                assert (key_a > key_b) == _newer(a, b), (a, b)

    def test_seq_overflow_fails_loudly(self):
        disc = gossip(seed=1)
        mesh_swarm(n=2, discovery=disc)
        disc._clock["d0"] = 2**32 - 2
        disc.note("d0", D[0], 10, present=True)  # last seq
        with pytest.raises(OverflowError, match="d0"):
            disc.note("d0", D[1], 10, present=True)


# ----------------------------------------------------------------------
# view cap floor
# ----------------------------------------------------------------------
def key(seq, present=True):
    return _version_key(1, seq, present)


def offer(disc, viewer, digest, *records):
    """Deliver one payload of ``(holder, key)`` records about
    ``digest`` to ``viewer``."""
    disc._deliver(viewer, ({digest: list(records)}, len(records)))


class TestViewCapFloor:
    def full_view(self):
        """An observer view of D[0] whose present class is exactly full
        (view_cap=2): h2 is the floor entry."""
        disc = gossip(view_cap=2, seed=1)
        viewer = disc.observer
        offer(disc, viewer, D[0], ("h3", key(3)), ("h2", key(2)))
        assert disc.view(viewer, D[0]) == {"h2", "h3"}
        return disc, viewer

    def test_below_floor_record_is_absorbed(self):
        disc, viewer = self.full_view()
        offer(disc, viewer, D[0], ("h1", key(1)))
        assert disc._views[viewer][D[0]] == {"h3": key(3), "h2": key(2)}

    def test_demotion_in_the_same_payload_admits_a_below_floor_record(self):
        # h3's drop frees a present slot, so h1 — below the floor the
        # view had before this payload — must take it.
        disc, viewer = self.full_view()
        offer(
            disc, viewer, D[0], ("h1", key(1)), ("h3", key(4, present=False))
        )
        assert disc.view(viewer, D[0]) == {"h1", "h2"}
        assert disc._views[viewer][D[0]]["h3"] == key(4, present=False)

    def test_record_miss_then_below_floor_record_is_admitted(self):
        disc, viewer = self.full_view()
        disc.record_miss(viewer, "h3", D[0])
        assert disc.view(viewer, D[0]) == {"h2"}
        offer(disc, viewer, D[0], ("h1", key(1)))
        assert disc.view(viewer, D[0]) == {"h1", "h2"}

    def test_below_floor_record_still_replaces_a_known_tombstone(self):
        # h1 is known absent at seq 1; a newer presence below the floor
        # replaces the tombstone and is then capped away, so the view
        # forgets h1 entirely — a change the floor must not skip.
        disc, viewer = self.full_view()
        offer(disc, viewer, D[0], ("h1", key(1, present=False)))
        assert "h1" in disc._views[viewer][D[0]]
        offer(disc, viewer, D[0], ("h1", key(2)))
        assert disc._views[viewer][D[0]] == {"h3": key(3), "h2": key(2)}

    def test_below_floor_records_count_as_newer_under_digest_summary(self):
        disc = gossip(view_cap=2, seed=1, exchange="digest-summary")
        viewer = disc.observer
        offer(disc, viewer, D[0], ("h3", key(3)), ("h2", key(2)))
        sent = disc.records_sent
        offer(disc, viewer, D[0], ("h1", key(1)), ("h2", key(2)))
        # h1 is news to the viewer (it crosses the wire) even though the
        # cap then drops it; h2 is already known and does not.
        assert disc.records_sent == sent + 1

    def test_a_repeated_payload_can_readmit_a_tombstone_the_cap_outran(self):
        # The capped merge is not idempotent.  The cap drops a's newer
        # present record for b's, so nothing is left to outrank a's
        # older tombstone when the same payload comes again.
        disc = gossip(view_cap=1, seed=1)
        viewer = disc.observer
        offer(disc, viewer, D[0], ("a", _version_key(2, 1, True)))
        payload = (
            ("a", _version_key(1, 5, False)), ("b", _version_key(3, 1, True))
        )
        offer(disc, viewer, D[0], *payload)
        assert disc._views[viewer][D[0]] == {"b": _version_key(3, 1, True)}
        offer(disc, viewer, D[0], *payload)
        assert disc._views[viewer][D[0]] == {
            "b": _version_key(3, 1, True), "a": _version_key(1, 5, False)
        }
        assert disc.view(viewer, D[0]) == {"b"}


# ----------------------------------------------------------------------
# the pull path falls back through the registry chain on stale views
# ----------------------------------------------------------------------
class TestPullFallback:
    def build(self):
        hub = DockerHub(name="hub")
        mlist, blobs = build_image("acme/app", 0.00000005)  # 50 B image
        hub.push_image("acme/app", "latest", mlist, blobs)
        disc = gossip(fanout=2, period_s=30.0, seed=9)
        network = NetworkModel()
        names = ["d0", "d1", "d2"]
        network.connect_device_mesh(names, 800.0)
        for name in names:
            network.connect_registry("hub", name, 50.0)
        swarm = PeerSwarm(network, discovery=disc)
        caches = {n: small_cache(10_000, n) for n in names}
        for n in names:
            swarm.add_device(n, caches[n], region="r0")
        facade = P2PRegistry(swarm, [hub])
        return facade, swarm, caches, disc

    def test_stale_peer_falls_back_to_registry_and_meters(self):
        facade, swarm, caches, disc = self.build()
        ref = ImageReference("acme/app")
        # Seed d0, converge views, then silently gut d0's cache.
        r0 = facade.pull(ref, Arch.AMD64, "d0", caches["d0"])
        layer_digests = [l.digest for l in r0.layers]
        for _ in range(9):
            disc.run_round()
        assert swarm.best_peer(layer_digests[0], "d1") == "d0"
        evict_everything(caches["d0"])
        result = facade.pull(ref, Arch.AMD64, "d1", caches["d1"])
        # Every layer fell back to the hub; each stale entry metered.
        assert result.stale_peer_misses == len(layer_digests)
        assert all(
            layer.kind is SourceKind.REGISTRY for layer in result.layers
        )
        assert disc.stale_misses == len(layer_digests)
        assert result.bytes_from_peers == 0
        assert result.bytes_by_registry == {"hub": result.bytes_transferred}

    def test_verified_peer_serves_normally(self):
        facade, swarm, caches, disc = self.build()
        ref = ImageReference("acme/app")
        facade.pull(ref, Arch.AMD64, "d0", caches["d0"])
        for _ in range(9):
            disc.run_round()
        result = facade.pull(ref, Arch.AMD64, "d1", caches["d1"])
        assert result.stale_peer_misses == 0
        assert result.bytes_from_peers > 0


# ----------------------------------------------------------------------
# the replicator reasons over the management view
# ----------------------------------------------------------------------
class TestReplicatorUnderGossip:
    def test_replicator_blind_until_observer_view_converges(self):
        sim = Simulator()
        disc = gossip(fanout=2, period_s=30.0, seed=4)
        network = NetworkModel()
        names = ["a0", "a1", "b0", "b1"]
        network.connect_device_mesh(names, 800.0)
        swarm = PeerSwarm(network, discovery=disc)
        caches = {n: small_cache(1000, n) for n in names}
        for n in names:
            swarm.add_device(n, caches[n], region=n[0])
        caches["a0"].add(D[0], 10)
        for _ in range(8):
            swarm.record_demand(D[0], "b0")
        replicator = AdaptiveReplicator(
            sim, swarm, ReplicationSpec(
                interval_s=60.0, hot_threshold=3.0, target_replicas=1
            ),
        )
        # Management view is empty pre-gossip: hot but unreplicable.
        cycle = replicator.run_cycle()
        assert cycle.hot_digests == (D[0],)
        assert cycle.actions == ()
        for _ in range(12):
            disc.run_round()
        for _ in range(8):
            swarm.record_demand(D[0], "b0")
        cycle = replicator.run_cycle()
        assert any(a.digest == D[0] for a in cycle.actions)

    def test_stale_management_entry_is_pruned_and_metered(self):
        sim = Simulator()
        disc = gossip(fanout=2, period_s=30.0, seed=4)
        network = NetworkModel()
        names = ["a0", "b0"]
        network.connect_device_mesh(names, 800.0)
        swarm = PeerSwarm(network, discovery=disc)
        caches = {n: small_cache(1000, n) for n in names}
        for n in names:
            swarm.add_device(n, caches[n], region=n[0])
        caches["a0"].add(D[0], 10)
        for _ in range(6):
            disc.run_round()
        assert disc.management_view(D[0]) == {"a0"}
        evict_everything(caches["a0"])  # view now stale
        for _ in range(6):
            swarm.record_demand(D[0], "b0")
        replicator = AdaptiveReplicator(
            sim, swarm, ReplicationSpec(
                interval_s=60.0, hot_threshold=3.0, target_replicas=1
            ),
        )
        cycle = replicator.run_cycle()
        assert cycle.actions == ()
        assert disc.stale_misses >= 1
        assert "a0" not in disc.management_view(D[0])


# ----------------------------------------------------------------------
# gossip backend: lossy transport
# ----------------------------------------------------------------------
class TestGossipLoss:
    def test_invalid_loss_rate_rejected(self):
        with pytest.raises(ValueError, match="loss_rate"):
            gossip(loss_rate=1.0)
        with pytest.raises(ValueError, match="loss_rate"):
            gossip(loss_rate=-0.1)

    def test_zero_loss_is_the_exact_lossless_stream(self):
        """``loss_rate=0`` must not draw from the RNG at all, so its
        view evolution is byte-identical to a backend built before the
        knob existed (same seed, same partner choices, same views)."""
        baseline = gossip(fanout=2, period_s=30.0, seed=3)
        lossless = gossip(
            fanout=2, period_s=30.0, seed=3, loss_rate=0.0
        )
        _s1, caches1 = mesh_swarm(n=6, discovery=baseline)
        _s2, caches2 = mesh_swarm(n=6, discovery=lossless)
        caches1["d0"].add(D[0], 10)
        caches2["d0"].add(D[0], 10)
        for _ in range(12):
            baseline.run_round()
            lossless.run_round()
        assert lossless.payloads_lost == 0
        assert lossless.records_sent == baseline.records_sent
        for viewer in caches1:
            assert lossless.view(viewer, D[0]) == baseline.view(viewer, D[0])

    def test_drops_are_metered_and_seeded(self):
        def run(seed):
            disc = gossip(
                fanout=2, period_s=30.0, seed=seed, loss_rate=0.5
            )
            _swarm, caches = mesh_swarm(n=6, discovery=disc)
            caches["d0"].add(D[0], 10)
            for _ in range(12):
                disc.run_round()
            return disc

        first, second = run(seed=3), run(seed=3)
        assert first.payloads_lost > 0
        # same seed, same drops: the loss process is part of the
        # deterministic replay surface
        assert first.payloads_lost == second.payloads_lost
        assert first.records_sent == second.records_sent

    def test_lossy_rounds_still_converge(self):
        disc = gossip(
            fanout=2, period_s=30.0, seed=3, loss_rate=0.3
        )
        swarm, caches = mesh_swarm(n=6, discovery=disc)
        caches["d0"].add(D[0], 10)
        caches["d4"].add(D[0], 10)
        for _ in range(3 * 6 * 4):  # extra anti-entropy rounds
            disc.run_round()
        assert disc.payloads_lost > 0
        for viewer in swarm.devices():
            expected = {"d0", "d4"} - {viewer}
            assert disc.view(viewer, D[0]) == expected

    def test_loss_ships_fewer_records_than_lossless(self):
        def run(loss_rate):
            disc = gossip(
                fanout=2, period_s=30.0, seed=3, loss_rate=loss_rate
            )
            _swarm, caches = mesh_swarm(n=6, discovery=disc)
            caches["d0"].add(D[0], 10)
            for _ in range(12):
                disc.run_round()
            return disc

        assert run(0.6).records_sent < run(0.0).records_sent
