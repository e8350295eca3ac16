"""Tests for the P2P tier: peer index, pull planner, and replicator."""

from collections.abc import Set as AbstractSet

import pytest

from repro.model.device import Arch
from repro.model.network import NetworkModel
from repro.model.units import BYTES_PER_GB
from repro.registry.base import ImageReference, RegistryError
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.discovery import OmniscientDiscovery
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.registry.manifest import ImageManifest, LayerDescriptor
from repro.registry.minio import MinioStore
from repro.registry.p2p import (
    MAX_ACTIONS_PER_CYCLE,
    AdaptiveReplicator,
    P2PPullResult,
    P2PRegistry,
    PeerIndex,
    PeerSwarm,
    PullPlanner,
    SourceKind,
)
from repro.registry.regional import RegionalRegistry
from repro.scenarios import ReplicationSpec
from repro.sim.engine import Simulator


def small_cache(capacity_bytes: int, device: str) -> ImageCache:
    return ImageCache(capacity_bytes / BYTES_PER_GB, device)


def plan_pull(planner, manifest, device, cache) -> P2PPullResult:
    """Where an analytic pull of ``manifest`` onto ``device`` would take
    each layer from right now, without moving a byte: one
    ``resolve_layer`` per layer, wrapped in a pull result for its byte
    and time totals."""
    layers = tuple(
        planner.resolve_layer(layer.digest, layer.size_bytes, device, cache)
        for layer in manifest.layers
    )
    return P2PPullResult(
        ImageReference("planned"), planner.registries[0].name, manifest,
        device, layers,
    )


D = [digest_text(f"p2p-layer-{i}") for i in range(6)]


# ----------------------------------------------------------------------
# PeerIndex coherence
# ----------------------------------------------------------------------
class TestPeerIndex:
    def test_seeds_from_existing_entries(self):
        cache = small_cache(100, "a")
        cache.add(D[0], 10)
        index = PeerIndex()
        index.register_cache("a", cache)
        assert index.holders(D[0]) == {"a"}
        assert index.size_of(D[0]) == 10

    def test_add_and_remove_flow_through(self):
        index = PeerIndex()
        a, b = small_cache(100, "a"), small_cache(100, "b")
        index.register_cache("a", a)
        index.register_cache("b", b)
        a.add(D[0], 10)
        b.add(D[0], 10)
        assert index.holders(D[0]) == {"a", "b"}
        a.add(D[1], 100)  # evicts D[0]
        assert index.holders(D[0]) == {"b"}
        b.add(D[1], 100)
        assert index.holders(D[0]) == frozenset()
        assert index.size_of(D[0]) is None
        assert index.coherence_violations() == []

    def test_coherent_under_lru_evictions(self):
        index = PeerIndex()
        cache = small_cache(30, "a")
        index.register_cache("a", cache)
        cache.add(D[0], 10)
        cache.add(D[1], 10)
        cache.add(D[2], 10)
        # Inserting D[3] must evict D[0] (LRU) and the index must see it.
        cache.add(D[3], 15)
        assert not index.holds("a", D[0])
        assert index.holds("a", D[3])
        assert index.coherence_violations() == []

    def test_coherent_under_concurrent_evictions_across_devices(self):
        # Several devices churning at once: the index must track every
        # cache exactly, including cascaded evictions from admissions.
        index = PeerIndex()
        caches = {name: small_cache(25, name) for name in ("a", "b", "c")}
        for name, cache in caches.items():
            index.register_cache(name, cache)
        for step in range(40):
            name = ("a", "b", "c")[step % 3]
            caches[name].add(D[step % len(D)], 5 + (step % 3) * 7)
            assert index.coherence_violations() == []

    def test_double_registration_rejected(self):
        index = PeerIndex()
        index.register_cache("a", small_cache(100, "a"))
        with pytest.raises(ValueError):
            index.register_cache("a", small_cache(100, "a"))

    def test_caches_share_one_observer_until_forward_changes(self):
        index = PeerIndex()
        a, b, c = (small_cache(100, name) for name in "abc")
        index.register_cache("a", a)
        index.register_cache("b", b)
        assert a.observer is b.observer
        seen = []
        index.forward_to(lambda *change: seen.append(change))
        index.register_cache("c", c)
        assert c.observer is not a.observer
        a.add(D[0], 10)
        c.add(D[0], 10)
        # Only the cache registered after ``forward`` was set reports
        # to it, and the index hears both.
        assert seen == [("c", D[0], 10, True)]
        assert index.holders(D[0]) == {"a", "c"}

    def test_registration_names_an_unnamed_cache_and_refuses_another(self):
        index = PeerIndex()
        unnamed = ImageCache(1.0)
        index.register_cache("a", unnamed)
        assert unnamed.device == "a"
        unnamed.add(D[0], 10)
        assert index.holders(D[0]) == {"a"}
        with pytest.raises(ValueError, match="cannot register as 'b'"):
            index.register_cache("b", small_cache(100, "c"))
        assert index.devices() == ["a"]


# ----------------------------------------------------------------------
# PeerSwarm lookup
# ----------------------------------------------------------------------
class TestPeerSwarm:
    def make_swarm(self):
        network = NetworkModel()
        network.connect_device_mesh(["a", "b"], 800.0)   # region r0 LAN
        network.connect_devices("a", "c", 100.0)          # cross-region
        network.connect_devices("b", "c", 50.0)
        swarm = PeerSwarm(network)
        for name, region in (("a", "r0"), ("b", "r0"), ("c", "r1")):
            swarm.add_device(name, small_cache(1000, name), region=region)
        return swarm

    def test_best_peer_prefers_same_region(self):
        swarm = self.make_swarm()
        swarm.index.cache_of("b").add(D[0], 10)
        swarm.index.cache_of("c").add(D[0], 10)
        # From a: b (same region, 800 Mbps) beats c (100 Mbps).
        assert swarm.best_peer(D[0], "a") == "b"

    def test_best_peer_falls_back_across_regions(self):
        swarm = self.make_swarm()
        swarm.index.cache_of("c").add(D[0], 10)
        assert swarm.best_peer(D[0], "a") == "c"

    def test_fastest_tie_break_is_deterministic(self):
        # Equal-bandwidth holders must resolve by device name — never
        # by set iteration order — so sweeps reproduce across runs and
        # Python versions.
        for insertion_order in (
            ("p-c", "p-a", "p-b"),
            ("p-b", "p-c", "p-a"),
            ("p-a", "p-b", "p-c"),
        ):
            network = NetworkModel()
            network.connect_device_mesh(("target",) + insertion_order, 400.0)
            swarm = PeerSwarm(network)
            swarm.add_device("target", small_cache(1000, "target"))
            for name in insertion_order:
                cache = small_cache(1000, name)
                cache.add(D[0], 10)
                swarm.add_device(name, cache)
            assert swarm.best_peer(D[0], "target") == "p-a"
            assert swarm._fastest(set(insertion_order), "target") == "p-a"

    def test_fastest_prefers_bandwidth_over_name(self):
        network = NetworkModel()
        network.connect_devices("target", "p-a", 100.0)
        network.connect_devices("target", "p-z", 900.0)
        swarm = PeerSwarm(network)
        for name in ("target", "p-a", "p-z"):
            cache = small_cache(1000, name)
            if name != "target":
                cache.add(D[0], 10)
            swarm.add_device(name, cache)
        assert swarm.best_peer(D[0], "target") == "p-z"

    def test_no_holder_no_peer(self):
        swarm = self.make_swarm()
        assert swarm.best_peer(D[0], "a") is None

    def test_requester_is_never_its_own_peer(self):
        swarm = self.make_swarm()
        swarm.index.cache_of("a").add(D[0], 10)
        assert swarm.best_peer(D[0], "a") is None

    def test_demand_drain_resets(self):
        swarm = self.make_swarm()
        swarm.record_demand(D[0], "a")
        swarm.record_demand(D[0], "a")
        swarm.record_demand(D[0], "c")
        assert swarm.drain_demand() == {(D[0], "r0"): 2, (D[0], "r1"): 1}
        assert swarm.drain_demand() == {}


# ----------------------------------------------------------------------
# PullPlanner source selection against hand-computed cheapest paths
# ----------------------------------------------------------------------
class TestPullPlanner:
    def build(self):
        """One image, three layers, known bandwidths.

        Layer sizes: 100 MB each (100_000_000 B → 100 MB → 800 Mbit).
        Channels: peer 800 Mbps (1.0 s), regional 200 Mbps (4.0 s),
        hub 80 Mbps (10.0 s).  No RTTs, so seconds are exact.
        """
        layers = tuple(LayerDescriptor(D[i], 100_000_000) for i in range(3))
        manifest = ImageManifest(
            arch=Arch.AMD64, config_digest=digest_text("cfg"), layers=layers
        )
        hub = DockerHub(name="hub")
        regional = RegionalRegistry(name="reg", store=MinioStore(capacity_gb=10.0))
        from repro.registry.blobstore import BlobRecord

        for registry in (hub, regional):
            for layer in layers:
                registry.blobs.put_record(
                    BlobRecord(digest=layer.digest, size_bytes=layer.size_bytes)
                )
        network = NetworkModel()
        network.connect_devices("dev", "peer", 800.0)
        network.connect_registry("reg", "dev", 200.0)
        network.connect_registry("hub", "dev", 80.0)
        swarm = PeerSwarm(network)
        swarm.add_device("dev", small_cache(BYTES_PER_GB, "dev"), region="r0")
        swarm.add_device("peer", small_cache(BYTES_PER_GB, "peer"), region="r0")
        return manifest, hub, regional, swarm

    def test_local_beats_everything(self):
        manifest, hub, regional, swarm = self.build()
        cache = swarm.index.cache_of("dev")
        cache.add(D[0], 100_000_000)
        plan = plan_pull(PullPlanner(swarm, [regional, hub]), manifest, "dev", cache)
        assert plan.layers[0].kind is SourceKind.LOCAL
        assert plan.layers[0].seconds == 0.0

    def test_peer_beats_regional_beats_hub(self):
        manifest, hub, regional, swarm = self.build()
        swarm.index.cache_of("peer").add(D[1], 100_000_000)
        cache = swarm.index.cache_of("dev")
        plan = plan_pull(PullPlanner(swarm, [regional, hub]), manifest, "dev", cache)
        by_digest = {l.digest: l for l in plan.layers}
        # D[1]: peer at 800 Mbps → 1.0 s.
        assert by_digest[D[1]].kind is SourceKind.PEER
        assert by_digest[D[1]].source == "peer"
        assert by_digest[D[1]].seconds == pytest.approx(1.0)
        # D[0], D[2]: regional at 200 Mbps → 4.0 s (hub would be 10.0 s).
        for d in (D[0], D[2]):
            assert by_digest[d].kind is SourceKind.REGISTRY
            assert by_digest[d].source == "reg"
            assert by_digest[d].seconds == pytest.approx(4.0)
        assert plan.seconds == pytest.approx(1.0 + 4.0 + 4.0)
        assert plan.bytes_from_peers == 100_000_000
        assert plan.bytes_by_registry() == {"reg": 200_000_000}

    def test_slow_peer_loses_to_fast_registry(self):
        manifest, hub, regional, swarm = self.build()
        # Replace the peer link with a slow one: 40 Mbps → 20 s.
        network = swarm.network
        network.connect_devices("dev", "peer", 40.0)
        swarm.index.cache_of("peer").add(D[1], 100_000_000)
        cache = swarm.index.cache_of("dev")
        plan = plan_pull(PullPlanner(swarm, [regional, hub]), manifest, "dev", cache)
        by_digest = {l.digest: l for l in plan.layers}
        assert by_digest[D[1]].kind is SourceKind.REGISTRY
        assert by_digest[D[1]].source == "reg"

    def test_hub_only_chain_uses_hub(self):
        manifest, hub, _regional, swarm = self.build()
        cache = swarm.index.cache_of("dev")
        plan = plan_pull(PullPlanner(swarm, [hub]), manifest, "dev", cache)
        assert all(l.source == "hub" for l in plan.layers)
        assert plan.seconds == pytest.approx(30.0)

    def test_unreachable_layer_raises(self):
        manifest, hub, _regional, swarm = self.build()
        network = NetworkModel()  # no channels at all
        isolated = PeerSwarm(network)
        isolated.add_device("dev", small_cache(BYTES_PER_GB, "dev"))
        with pytest.raises(RegistryError):
            plan_pull(
                PullPlanner(isolated, [hub]),
                manifest, "dev", isolated.index.cache_of("dev"),
            )


# ----------------------------------------------------------------------
# P2PRegistry pulls
# ----------------------------------------------------------------------
class TestP2PRegistry:
    def build(self):
        hub = DockerHub(name="hub")
        mlist, blobs = build_image(
            "acme/app", 0.4, base=OFFICIAL_BASES["python:3.9-slim"]
        )
        hub.push_image("acme/app", "latest", mlist, blobs)
        network = NetworkModel()
        network.connect_devices("a", "b", 800.0)
        for dev in ("a", "b"):
            network.connect_registry("hub", dev, 80.0)
        swarm = PeerSwarm(network)
        for dev in ("a", "b"):
            swarm.add_device(dev, ImageCache(8.0, dev), region="r0")
        return hub, swarm, P2PRegistry(swarm, [hub])

    def test_first_pull_from_registry_second_from_peer(self):
        _hub, swarm, facade = self.build()
        ref = ImageReference("acme/app")
        first = facade.pull(ref, Arch.AMD64, "a", swarm.index.cache_of("a"))
        assert first.bytes_from_peers == 0
        assert first.bytes_by_registry() == {"hub": first.bytes_transferred}
        second = facade.pull(ref, Arch.AMD64, "b", swarm.index.cache_of("b"))
        assert second.bytes_by_registry() == {}
        assert second.bytes_from_peers == second.bytes_transferred > 0
        assert {
            layer.source
            for layer in second.layers
            if layer.kind is SourceKind.PEER
        } == {"a"}
        # The 800 Mbit/s peer channel is 10x the hub's: the peer-served
        # deployment is proportionally faster.
        assert second.seconds < first.seconds
        # And a's repeat pull is a pure cache hit.
        third = facade.pull(ref, Arch.AMD64, "a", swarm.index.cache_of("a"))
        assert third.cache_hit

    def test_pull_records_demand_for_transferred_layers(self):
        _hub, swarm, facade = self.build()
        ref = ImageReference("acme/app")
        result = facade.pull(ref, Arch.AMD64, "a", swarm.index.cache_of("a"))
        drained = swarm.drain_demand()
        assert sum(drained.values()) == len(result.layers)

    def test_peer_served_pulls_are_not_metered_against_the_hub(self):
        from repro.registry.hub import PullRateLimiter

        hub = DockerHub(name="hub", rate_limiter=PullRateLimiter(limit=1))
        mlist, blobs = build_image(
            "acme/app", 0.4, base=OFFICIAL_BASES["python:3.9-slim"]
        )
        hub.push_image("acme/app", "latest", mlist, blobs)
        network = NetworkModel()
        network.connect_devices("a", "b", 800.0)
        for dev in ("a", "b"):
            network.connect_registry("hub", dev, 80.0)
        swarm = PeerSwarm(network)
        for dev in ("a", "b"):
            swarm.add_device(dev, ImageCache(8.0, dev), region="r0")
        facade = P2PRegistry(swarm, [hub])
        ref = ImageReference("acme/app")
        facade.pull(ref, Arch.AMD64, "a", swarm.index.cache_of("a"))
        # b's pull is fully peer-served: with a 1-pull hub limit it must
        # NOT consume a token (the tier's offloading promise).
        result = facade.pull(ref, Arch.AMD64, "b", swarm.index.cache_of("b"))
        assert result.bytes_from_peers == result.bytes_transferred > 0

    def test_oversized_image_raises_cache_full(self):
        # The three-tier pull keeps the two-tier client's CacheFull
        # guard: a pull that cannot fit must fail, not half-admit.
        hub, swarm, facade = self.build()
        ref = ImageReference("acme/app")
        tiny = ImageCache(0.05, "tiny")  # 50 MB < the 0.4 GB image
        swarm.index.register_cache("tiny", tiny)
        from repro.registry.cache import CacheFull

        with pytest.raises(CacheFull):
            facade.pull(ref, Arch.AMD64, "a", tiny)
        assert len(tiny) == 0  # nothing half-admitted
        assert swarm.index.coherence_violations() == []

    def test_unknown_reference_raises(self):
        _hub, _swarm, facade = self.build()
        from repro.registry.repository import ManifestNotFound

        with pytest.raises(ManifestNotFound):
            facade.pull(
                ImageReference("acme/nope"),
                Arch.AMD64,
                "a",
                facade.swarm.index.cache_of("a"),
            )


# ----------------------------------------------------------------------
# AdaptiveReplicator
# ----------------------------------------------------------------------
class TestAdaptiveReplicator:
    def build(self, regions=("r0", "r1"), per_region=2, **kwargs):
        network = NetworkModel()
        names = []
        for r, region in enumerate(regions):
            members = [f"{region}-d{i}" for i in range(per_region)]
            names.extend((m, region) for m in members)
            if len(members) > 1:
                network.connect_device_mesh(members, 800.0)
        # Cross-region links so replication sources resolve.
        all_names = [n for n, _ in names]
        for i, a in enumerate(all_names):
            for b in all_names[i + 1:]:
                if a not in network.channels_into(b):
                    network.connect_devices(a, b, 100.0)
        swarm = PeerSwarm(network)
        for name, region in names:
            swarm.add_device(name, small_cache(1000, name), region=region)
        sim = Simulator()
        replicator = AdaptiveReplicator(
            sim, swarm, ReplicationSpec(
                interval_s=10.0, hot_threshold=3.0, target_replicas=1,
                **kwargs,
            ),
        )
        return sim, swarm, replicator

    def test_hot_layer_replicated_to_empty_region(self):
        sim, swarm, replicator = self.build()
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(3):
            swarm.record_demand(D[0], "r0-d1")
        cycle = replicator.run_cycle()
        assert D[0] in cycle.hot_digests
        # r1 had zero replicas and target is 1: exactly one copy lands.
        r1_holders = swarm.index.holders(D[0]) & swarm.members("r1")
        assert len(r1_holders) == 1
        assert replicator.bytes_replicated == 50
        assert swarm.index.coherence_violations() == []

    def test_cold_layers_not_replicated(self):
        _sim, swarm, replicator = self.build()
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        swarm.record_demand(D[0], "r0-d1")  # below threshold
        cycle = replicator.run_cycle()
        assert cycle.actions == ()

    def test_converges_once_demand_stops(self):
        sim, swarm, replicator = self.build()
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(5):
            swarm.record_demand(D[0], "r0-d1")
        sim.process(replicator.process())
        sim.run(until=60.0)
        assert len(replicator.history) == 6
        assert replicator.total_actions() >= 1
        assert replicator.converged(quiet_cycles=3)
        # Replica counts stabilised at >= target in every region.
        for region in swarm.regions():
            assert swarm.index.holders(D[0]) & swarm.members(region)

    def test_unreachable_region_is_not_provisioned(self):
        # Two regions with NO inter-region channels: replication into
        # the isolated region must be skipped, not teleported.
        network = NetworkModel()
        network.connect_device_mesh(["r0-d0", "r0-d1"], 800.0)
        network.connect_device_mesh(["r1-d0", "r1-d1"], 800.0)
        swarm = PeerSwarm(network)
        for name in ("r0-d0", "r0-d1", "r1-d0", "r1-d1"):
            swarm.add_device(name, small_cache(1000, name), region=name[:2])
        sim = Simulator()
        replicator = AdaptiveReplicator(
            sim, swarm, ReplicationSpec(
                interval_s=10.0, hot_threshold=3.0, target_replicas=1
            ),
        )
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(5):
            swarm.record_demand(D[0], "r0-d1")
        cycle = replicator.run_cycle()
        assert all(action.region != "r1" for action in cycle.actions)
        assert not (swarm.index.holders(D[0]) & swarm.members("r1"))

    def test_per_region_hotness_skips_cold_regions(self):
        # Same demand as test_hot_layer_replicated_to_empty_region,
        # but the per-region scope must NOT top up r1: nobody there
        # ever asked for the layer.
        _sim, swarm, replicator = self.build(hotness="per-region")
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(3):
            swarm.record_demand(D[0], "r0-d1")
        cycle = replicator.run_cycle()
        assert D[0] in cycle.hot_digests
        assert all(action.region == "r0" for action in cycle.actions)
        assert not (swarm.index.holders(D[0]) & swarm.members("r1"))
        assert replicator.bytes_replicated == 0  # r0 already holds it

    def test_per_region_hotness_serves_the_region_that_asked(self):
        _sim, swarm, replicator = self.build(hotness="per-region")
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(3):
            swarm.record_demand(D[0], "r1-d0")  # demand lives in r1
        replicator.run_cycle()
        r1_holders = swarm.index.holders(D[0]) & swarm.members("r1")
        assert len(r1_holders) == 1
        assert replicator.bytes_replicated == 50

    def test_per_region_demand_below_threshold_stays_cold(self):
        # Swarm-wide demand clears the threshold, but it is spread so
        # thin that no single region does: global replicates, the
        # per-region scope waits.
        _sim, swarm, replicator = self.build(
            regions=("r0", "r1", "r2"), hotness="per-region"
        )
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for device in ("r0-d1", "r1-d0", "r2-d0"):
            swarm.record_demand(D[0], device)
        cycle = replicator.run_cycle()
        assert cycle.actions == ()
        assert cycle.hot_digests == ()

    def test_bad_cadence_knobs_rejected(self):
        sim, swarm = Simulator(), PeerSwarm(NetworkModel())
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="interval_s"):
                AdaptiveReplicator(sim, swarm, ReplicationSpec(interval_s=bad))
            with pytest.raises(ValueError, match="hot_threshold"):
                AdaptiveReplicator(
                    sim, swarm, ReplicationSpec(hot_threshold=bad)
                )

    def test_a_cycle_stops_at_the_action_cap(self):
        # 70 hot layers are missing from r1: the first cycle copies the
        # first 64 and stops, the next copies the other six.
        _sim, swarm, replicator = self.build(per_region=1)
        digests = [digest_text(f"p2p-capped-{i}") for i in range(70)]
        for digest in digests:
            swarm.index.cache_of("r0-d0").add(digest, 10)
            for _ in range(10):
                swarm.record_demand(digest, "r0-d0")
        first = replicator.run_cycle()
        assert len(first.actions) == MAX_ACTIONS_PER_CYCLE == 64
        assert [a.digest for a in first.actions] == sorted(digests)[:64]
        second = replicator.run_cycle()
        assert len(second.actions) == 70 - 64
        assert all(swarm.index.holds("r1-d0", d) for d in digests)

    def test_actions_carry_transfer_seconds(self):
        _sim, swarm, replicator = self.build()
        swarm.index.cache_of("r0-d0").add(D[0], 500)
        for _ in range(3):
            swarm.record_demand(D[0], "r0-d1")
        cycle = replicator.run_cycle()
        assert cycle.actions
        for action in cycle.actions:
            # 100 MB over a real channel: strictly positive time.
            assert action.seconds > 0.0

    def test_replication_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            sim, swarm, replicator = self.build(per_region=3)
            swarm.index.cache_of("r0-d0").add(D[0], 50)
            for _ in range(4):
                swarm.record_demand(D[0], "r0-d2")
            replicator.run_cycle()
            outcomes.append(
                [(a.digest, a.region, a.target) for c in replicator.history for a in c.actions]
            )
        assert outcomes[0] == outcomes[1]

    def test_provisioned_regions_never_scan_holders(self):
        # Every region already meets the target for a hot layer: the
        # sweep must decide from membership probes alone, without
        # iterating (or copying) the layer's holder set.
        index = PeerIndex()
        network = NetworkModel()
        swarm = PeerSwarm(network, index, _NoScanDiscovery(index))
        for region in ("r0", "r1", "r2"):
            members = [f"{region}-d{i}" for i in range(3)]
            network.connect_device_mesh(members, 800.0)
            for name in members:
                swarm.add_device(name, small_cache(1000, name), region=region)
            for name in members[:2]:
                index.cache_of(name).add(D[0], 50)
        replicator = AdaptiveReplicator(
            Simulator(), swarm, ReplicationSpec(
                interval_s=10.0, hot_threshold=3.0, target_replicas=2
            ),
        )
        for _ in range(5):
            swarm.record_demand(D[0], "r0-d2")
        cycle = replicator.run_cycle()
        assert cycle.hot_digests == (D[0],)
        assert cycle.actions == ()
        assert cycle.replica_counts == {D[0]: 6}


class _NoScanView(AbstractSet):
    """A live holder set that fails the test if anything iterates it.

    Membership probes and ``len`` pass through; set algebra against it
    iterates the other operand (``_from_iterable`` builds a plain set).
    """

    def __init__(self, live):
        self._live = live

    def __contains__(self, item):
        return item in self._live

    def __len__(self):
        return len(self._live)

    def __iter__(self):
        raise AssertionError("replicator scanned the whole holder set")

    @classmethod
    def _from_iterable(cls, iterable):
        return set(iterable)


class _NoScanDiscovery(OmniscientDiscovery):
    def management_view(self, digest):
        return _NoScanView(self.index.holders_view(digest))


class _FlakyChurn:
    """Duck-typed churn stub: fixed observed availability per device."""

    def __init__(self, availability):
        self._availability = availability

    def availability(self, device):
        return self._availability.get(device, 1.0)


class TestChurnAwareReplication:
    def build(self, churn=None):
        network = NetworkModel()
        names = [("r0-d0", "r0"), ("r0-d1", "r0"), ("r1-d0", "r1"), ("r1-d1", "r1")]
        all_names = [n for n, _ in names]
        for i, a in enumerate(all_names):
            for b in all_names[i + 1:]:
                network.connect_devices(a, b, 100.0)
        swarm = PeerSwarm(network)
        for name, region in names:
            swarm.add_device(name, small_cache(1000, name), region=region)
        sim = Simulator()
        replicator = AdaptiveReplicator(
            sim,
            swarm,
            ReplicationSpec(
                interval_s=10.0, hot_threshold=3.0, target_replicas=1
            ),
            churn=churn,
        )
        return sim, swarm, replicator

    def heat(self, swarm):
        swarm.index.cache_of("r1-d0").add(D[0], 50)
        for _ in range(3):
            swarm.record_demand(D[0], "r1-d1")

    def test_face_value_counting_without_churn(self):
        # r1 already holds one replica and target is 1: the historical
        # replicator sees the region as provisioned and does nothing.
        _sim, swarm, replicator = self.build(churn=None)
        self.heat(swarm)
        cycle = replicator.run_cycle()
        assert not any(a.region == "r1" for a in cycle.actions)

    def test_departure_prone_holder_counts_less_than_a_replica(self):
        # Same state, but the sole r1 holder has demonstrated it is
        # online only ~20% of the time: weighted count 0.2 < target 1,
        # so the region gets a second (stable) copy.
        churn = _FlakyChurn({"r1-d0": 0.2})
        _sim, swarm, replicator = self.build(churn=churn)
        self.heat(swarm)
        cycle = replicator.run_cycle()
        r1_actions = [a for a in cycle.actions if a.region == "r1"]
        assert len(r1_actions) == 1
        assert r1_actions[0].target == "r1-d1"
        assert swarm.index.holds("r1-d1", D[0])

    def test_stable_holders_keep_face_value(self):
        churn = _FlakyChurn({})  # nobody observed flaky
        _sim, swarm, replicator = self.build(churn=churn)
        self.heat(swarm)
        cycle = replicator.run_cycle()
        assert not any(a.region == "r1" for a in cycle.actions)


# ----------------------------------------------------------------------
# auto-scaled per-region hotness (hot_fraction)
# ----------------------------------------------------------------------
class TestHotFraction:
    """``hot_fraction`` replaces the absolute per-region threshold with
    a fraction of the cycle's peak (digest, region) score, so the
    policy sweep no longer needs a hand-tuned cutoff per workload."""

    def build(self, regions=("r0", "r1", "r2"), per_region=2, **kwargs):
        network = NetworkModel()
        names = []
        for region in regions:
            members = [f"{region}-d{i}" for i in range(per_region)]
            names.extend((m, region) for m in members)
            network.connect_device_mesh(members, 800.0)
        all_names = [n for n, _ in names]
        for i, a in enumerate(all_names):
            for b in all_names[i + 1:]:
                if a not in network.channels_into(b):
                    network.connect_devices(a, b, 100.0)
        swarm = PeerSwarm(network)
        for name, region in names:
            swarm.add_device(name, small_cache(1000, name), region=region)
        sim = Simulator()
        replicator = AdaptiveReplicator(
            sim, swarm, ReplicationSpec(
                interval_s=10.0, hot_threshold=3.0, target_replicas=1,
                hotness="per-region", **kwargs,
            ),
        )
        return sim, swarm, replicator

    def test_requires_per_region_hotness(self):
        sim = Simulator()
        swarm = PeerSwarm(NetworkModel())
        with pytest.raises(ValueError, match="per-region"):
            AdaptiveReplicator(
                sim, swarm, ReplicationSpec(
                    interval_s=10.0, hotness="global", hot_fraction=0.5
                ),
            )

    def test_bounds_are_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="hot_fraction"):
                self.build(hot_fraction=bad)

    def test_peak_region_is_hot_below_the_absolute_threshold(self):
        # Two pulls never clear the absolute cutoff (3.0); the
        # fraction-of-peak cutoff acts on them anyway, because the
        # peak pair defines this cycle's scale.
        _sim, swarm, replicator = self.build(hot_fraction=1.0)
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(2):
            swarm.record_demand(D[0], "r1-d0")
        cycle = replicator.run_cycle()
        assert D[0] in cycle.hot_digests
        assert swarm.index.holders(D[0]) & swarm.members("r1")

    def test_sub_peak_regions_stay_cold(self):
        # r1 peaks at 4 pulls, r2 trails with 1: at hot_fraction 0.8
        # the cutoff is 3.2, so only r1 is topped up.
        _sim, swarm, replicator = self.build(hot_fraction=0.8)
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        for _ in range(4):
            swarm.record_demand(D[0], "r1-d0")
        swarm.record_demand(D[0], "r2-d0")
        cycle = replicator.run_cycle()
        assert swarm.index.holders(D[0]) & swarm.members("r1")
        assert not (swarm.index.holders(D[0]) & swarm.members("r2"))

    def test_scales_with_the_cycle_peak(self):
        # The same two-pull region that was hot on its own goes cold
        # once another region pulls ten times: the threshold follows
        # the peak up — per-region hotness that needs no retuning.
        _sim, swarm, replicator = self.build(hot_fraction=0.5)
        swarm.index.cache_of("r0-d0").add(D[0], 50)
        swarm.index.cache_of("r0-d0").add(D[1], 50)
        for _ in range(2):
            swarm.record_demand(D[0], "r1-d0")
        for _ in range(10):
            swarm.record_demand(D[1], "r2-d0")
        cycle = replicator.run_cycle()
        assert D[1] in cycle.hot_digests
        assert swarm.index.holders(D[1]) & swarm.members("r2")
        # (D[0], r1) scored 2 < 0.5 * 10: cold under the scaled cutoff
        assert not (swarm.index.holders(D[0]) & swarm.members("r1"))

    def test_quiet_cycle_stays_quiet(self):
        _sim, _swarm, replicator = self.build(hot_fraction=0.5)
        cycle = replicator.run_cycle()
        assert cycle.actions == ()
        assert cycle.hot_digests == ()
