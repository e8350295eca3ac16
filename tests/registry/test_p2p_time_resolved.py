"""Time-resolved three-tier pulls: commit-at-completion semantics.

What the analytic model could never test: overlapping pulls must not
source layers from peers whose copies are still in flight, saturated
seeders force re-resolution, and departing peers fail their uploads
without corrupting anything.
"""

import pytest

from repro.model.device import Arch
from repro.model.network import NetworkModel
from repro.registry.base import ImageReference
from repro.registry.cache import ImageCache
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.registry.p2p import (
    AdaptiveReplicator,
    P2PRegistry,
    PeerSwarm,
    SourceKind,
)
from repro.scenarios import ReplicationSpec
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine
from test_p2p import plan_pull

GB = 1_000_000_000


def make_swarm(n_devices=3, hub_bw=80.0, lan_bw=800.0, upload_budget=None):
    """Hub + LAN-meshed devices, one 0.5 GB image, fresh engine."""
    hub = DockerHub(name="docker-hub")
    mlist, blobs = build_image(
        "acme/app", 0.5, base=OFFICIAL_BASES["python:3.9-slim"]
    )
    hub.push_image("acme/app", "latest", mlist, blobs)
    mlist2, blobs2 = build_image(
        "acme/sibling", 0.4, base=OFFICIAL_BASES["python:3.9-slim"]
    )
    hub.push_image("acme/sibling", "latest", mlist2, blobs2)
    # A single-layer image: commit-at-completion has exactly one
    # observable admission instant, which the overlap tests pin down.
    mlist3, blobs3 = build_image("acme/mono", 0.5, base=None, app_layers=1)
    hub.push_image("acme/mono", "latest", mlist3, blobs3)

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
    facade = P2PRegistry(swarm, [hub])
    return sim, engine, swarm, caches, facade, hub


def pull_at(sim, engine, facade, caches, at_s, device, repo="acme/app"):
    """Schedule a pull; returns a dict filled at completion."""
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


def kinds(result):
    return [layer.kind for layer in result.layers]


class TestCommittedOnlySourcing:
    def test_overlapping_pull_cannot_source_in_flight_layers(self):
        sim, engine, swarm, caches, facade, hub = make_swarm()
        first = pull_at(sim, engine, facade, caches, 0.0, "edge-0", "acme/mono")
        # edge-1 starts while edge-0's transfer is still in flight
        # (0.5 GB over 80 Mbit/s = 50 s): no committed replica exists,
        # so the layer must come from the registry.
        second = pull_at(sim, engine, facade, caches, 1.0, "edge-1", "acme/mono")
        sim.run()
        assert all(k is SourceKind.REGISTRY for k in kinds(first["result"]))
        assert all(k is SourceKind.REGISTRY for k in kinds(second["result"]))
        assert second["result"].bytes_from_peers == 0

    def test_layer_commits_become_visible_mid_pull(self):
        # The flip side: with a *multi-layer* image, a 1 s follower
        # legitimately peer-fetches the layers the leader has already
        # committed — per-layer re-resolution sees fresh state.
        sim, engine, swarm, caches, facade, hub = make_swarm()
        pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        second = pull_at(sim, engine, facade, caches, 1.0, "edge-1")
        sim.run()
        observed = kinds(second["result"])
        assert observed[0] is SourceKind.REGISTRY  # nothing committed at 1 s
        assert SourceKind.PEER in observed  # later layers had landed

    def test_pull_after_commit_is_peer_served(self):
        sim, engine, swarm, caches, facade, hub = make_swarm()
        first = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        late = pull_at(sim, engine, facade, caches, 200.0, "edge-1")
        sim.run()
        assert first["end"] < 200.0  # sanity: seeder finished first
        assert all(k is SourceKind.PEER for k in kinds(late["result"]))
        assert late["result"].bytes_from_peers == late["result"].manifest.total_layer_bytes
        # LAN is 10x the hub channel: the peer-served pull is faster.
        assert (late["end"] - 200.0) < (first["end"] - 0.0)

    def test_cache_admission_happens_at_completion_not_start(self):
        sim, engine, swarm, caches, facade, hub = make_swarm()
        pull_at(sim, engine, facade, caches, 0.0, "edge-0", "acme/mono")
        observed = {}

        def observer():
            yield sim.timeout(10.0)  # mid-transfer
            observed["mid_cache"] = len(caches["edge-0"])
            observed["mid_reserved"] = caches["edge-0"].reserved_bytes
            observed["mid_holders"] = len(
                swarm.index.holders(
                    hub.resolve(ImageReference("acme/mono"), Arch.AMD64)
                    .layers[0]
                    .digest
                )
            )

        sim.process(observer())
        sim.run()
        # Mid-transfer: bytes are held by reservations, not entries,
        # and the peer index has no holder yet.
        assert observed["mid_cache"] == 0
        assert observed["mid_reserved"] > 0
        assert observed["mid_holders"] == 0
        assert swarm.index.coherence_violations() == []

    def test_sequential_pull_times_match_analytic_when_uncontended(self):
        sim, engine, swarm, caches, facade, hub = make_swarm()
        solo = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        sim.run()
        _, manifest = facade.resolve(ImageReference("acme/app"), Arch.AMD64)
        expected = plan_pull(facade.planner, manifest, "edge-1", caches["edge-1"])
        # edge-1's plan is all-peer now; edge-0's own pull took the
        # analytic registry time because nothing contended with it.
        analytic = 0.5 * 1000 * 8 / 80.0  # size_mb * 8 / bw
        assert solo["end"] == pytest.approx(analytic)
        assert solo["result"].seconds == pytest.approx(analytic)
        assert expected.bytes_from_peers == expected.manifest.total_layer_bytes


class TestUploadBudget:
    def test_saturated_seeder_forces_registry_fallback(self):
        sim, engine, swarm, caches, facade, hub = make_swarm(
            n_devices=3, upload_budget=1
        )
        seed = pull_at(sim, engine, facade, caches, 0.0, "edge-0", "acme/mono")
        # Both followers arrive after the seeder committed; the budget
        # allows one concurrent upload of the single layer, so exactly
        # one of them is peer-served and the other re-resolves to the
        # registry.
        a = pull_at(sim, engine, facade, caches, 100.0, "edge-1", "acme/mono")
        b = pull_at(sim, engine, facade, caches, 100.0, "edge-2", "acme/mono")
        sim.run()
        assert seed["end"] < 100.0
        served = [r["result"].bytes_from_peers for r in (a, b)]
        assert sorted(x > 0 for x in served) == [False, True]
        # Nobody failed: the saturated path fell back, loudly complete.
        assert a["result"].manifest.total_layer_bytes == b["result"].manifest.total_layer_bytes > 0


    @pytest.mark.parametrize("budget", [1, 2])
    def test_sole_saturated_seeder_is_waited_for(self, budget):
        # Only edge-2 holds the one-layer 0.2 GB image and no registry
        # reaches any device.  Budget 2 serves both pulls at once over
        # their own 100 Mbit/s channels (16 s each); with budget 1,
        # edge-1 finds edge-2 busy and waits for its slot instead of
        # failing "unreachable", starting when edge-0's upload ends.
        hub = DockerHub(name="docker-hub")
        mlist, blobs = build_image("acme/mono", 0.2, base=None, app_layers=1)
        hub.push_image("acme/mono", "latest", mlist, blobs)
        network = NetworkModel()
        names = ["edge-0", "edge-1", "edge-2"]
        network.connect_device_mesh(names, 100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network, upload_budget=budget)
        swarm = PeerSwarm(network)
        caches = {name: ImageCache(1.0, name) for name in names}
        for name in names:
            swarm.add_device(name, caches[name], region="lab")
        caches["edge-2"].admit_image(
            hub.resolve(ImageReference("acme/mono"), Arch.AMD64)
        )
        facade = P2PRegistry(swarm, [hub])
        first = pull_at(sim, engine, facade, caches, 0.0, "edge-0", "acme/mono")
        second = pull_at(sim, engine, facade, caches, 0.0, "edge-1", "acme/mono")
        sim.run()
        assert first["end"] == pytest.approx(16.0)
        assert second["end"] == pytest.approx(16.0 * (3 - budget))
        for out in (first, second):
            (layer,) = out["result"].layers
            assert (layer.kind, layer.source) == (SourceKind.PEER, "edge-2")
            assert layer.seconds == pytest.approx(16.0)


class TestPeerDeparture:
    def test_departing_peer_cancels_uploads_and_pull_reresolves(self):
        sim, engine, swarm, caches, facade, hub = make_swarm(lan_bw=100.0)
        seed = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        follower = pull_at(sim, engine, facade, caches, 100.0, "edge-1")

        def churn():
            yield sim.timeout(110.0)  # mid peer-transfer
            assert engine.uploads_in_flight("edge-0") > 0
            swarm.remove_device("edge-0", engine=engine)

        sim.process(churn())
        sim.run()
        result = follower["result"]
        # The pull completed despite the departure, re-resolved to the
        # registry for whatever the departed peer had not delivered.
        assert result.manifest.total_layer_bytes > 0
        assert any(k is SourceKind.REGISTRY for k in kinds(result))
        assert caches["edge-1"].reserved_bytes == 0
        assert swarm.index.coherence_violations() == []
        assert "edge-0" not in swarm.devices()

    def test_departed_device_is_invisible_to_planning(self):
        sim, engine, swarm, caches, facade, hub = make_swarm()
        seed = pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        sim.run()
        swarm.remove_device("edge-0", engine=engine)
        _, manifest = facade.resolve(ImageReference("acme/app"), Arch.AMD64)
        plan = plan_pull(facade.planner, manifest, "edge-1", caches["edge-1"])
        assert all(l.kind is SourceKind.REGISTRY for l in plan.layers)


class TestConcurrentSameDevice:
    def test_second_pull_joins_in_flight_shared_base(self):
        sim, engine, swarm, caches, facade, hub = make_swarm()
        app = pull_at(sim, engine, facade, caches, 0.0, "edge-0", "acme/app")
        sibling = pull_at(
            sim, engine, facade, caches, 1.0, "edge-0", "acme/sibling"
        )
        sim.run()
        base_digests = {
            l.digest
            for l in hub.resolve(ImageReference("acme/app"), Arch.AMD64).layers
        } & {
            l.digest
            for l in hub.resolve(
                ImageReference("acme/sibling"), Arch.AMD64
            ).layers
        }
        assert base_digests  # the two images really share a base
        shared_sources = [
            l
            for l in sibling["result"].layers
            if l.digest in base_digests
        ]
        # The sibling pull waited for the in-flight base instead of
        # transferring it again: those layers resolve as LOCAL.
        assert all(l.kind is SourceKind.LOCAL for l in shared_sources)
        assert engine.started == len(app["result"].layers) + sum(
            1 for l in sibling["result"].layers if l.digest not in base_digests
        )

    def test_pull_waits_out_an_idle_reservation_then_fetches_itself(self):
        # The layer is reserved by an owner with no transfer in flight
        # (the test holds it).  The pull waits for the reservation to
        # settle instead of spinning, and when the owner releases it one
        # simulated second later, fetches the layer itself.
        sim, engine, swarm, caches, facade, hub = make_swarm()
        _, manifest = facade.resolve(ImageReference("acme/mono"), Arch.AMD64)
        (layer,) = manifest.layers
        cache = caches["edge-0"]
        cache.reserve(layer.digest, layer.size_bytes)

        def owner():
            yield sim.timeout(1.0)
            cache.release(layer.digest)

        sim.process(owner())
        out = pull_at(sim, engine, facade, caches, 0.0, "edge-0", "acme/mono")
        sim.run()
        assert kinds(out["result"]) == [SourceKind.REGISTRY]
        assert engine.started == 1
        analytic = 0.5 * 1000 * 8 / 80.0  # size_mb * 8 / bw
        assert out["end"] == pytest.approx(1.0 + analytic)
        assert cache.has_image(manifest)
        assert cache.reserved_bytes == 0


class TestReplicatorTimeResolved:
    def test_proactive_copies_commit_over_time(self):
        sim, engine, swarm, caches, facade, hub = make_swarm(n_devices=4)
        replicator = AdaptiveReplicator(
            sim,
            swarm,
            ReplicationSpec(
                interval_s=60.0, hot_threshold=1.0, target_replicas=3
            ),
            engine=engine,
        )
        pull_at(sim, engine, facade, caches, 0.0, "edge-0")
        pull_at(sim, engine, facade, caches, 80.0, "edge-1")
        sim.process(replicator.process())
        sim.run(until=1200.0)
        assert len(replicator.history) == 20
        assert replicator.total_actions() > 0
        assert replicator.bytes_replicated > 0
        assert swarm.index.coherence_violations() == []
        for cache in caches.values():
            assert cache.reserved_bytes == 0  # every copy landed

    def test_time_resolved_session_is_deterministic(self):
        from repro.scenarios import (
            ScenarioSpec,
            SimulationSession,
            TopologySpec,
            TransferSpec,
            WorkloadSpec,
            deterministic_outcome_dict,
        )
        from repro.sim.transfers import TransferModel

        spec = ScenarioSpec(
            mode="hybrid+p2p",
            topology=TopologySpec(n_devices=8),
            workload=WorkloadSpec(n_images=4, pulls_per_device=3),
            transfer=TransferSpec(model=TransferModel.TIME_RESOLVED),
        )
        first = SimulationSession(spec).run()
        second = SimulationSession(spec).run()
        assert deterministic_outcome_dict(
            first.to_dict()
        ) == deterministic_outcome_dict(second.to_dict())


class TestRateLimitedRegistry:
    def test_rate_limit_failure_releases_the_reservation(self):
        """Regression: a meter_pull that raises (hub rate limiting)
        must not leave the layer's reservation behind."""
        from repro.registry.hub import PullRateLimiter, RateLimitExceeded

        hub = DockerHub(
            name="docker-hub",
            rate_limiter=PullRateLimiter(limit=1, window_s=3600.0),
        )
        mlist, blobs = build_image("acme/mono", 0.5, base=None, app_layers=1)
        hub.push_image("acme/mono", "latest", mlist, blobs)
        network = NetworkModel()
        network.connect_registry(hub.name, "edge-0", 80.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        swarm = PeerSwarm(network)
        cache = ImageCache(12.0, "edge-0")
        swarm.add_device("edge-0", cache, region="lab")
        facade = P2PRegistry(swarm, [hub])
        hub.meter_pull("edge-0", 0.0)  # burn the window's only token

        def proc():
            yield from facade.pull_process(
                ImageReference("acme/mono"), Arch.AMD64, "edge-0", cache, engine
            )

        sim.process(proc())
        with pytest.raises(RateLimitExceeded):
            sim.run()
        assert cache.reserved_bytes == 0  # nothing leaked
        # Once the window resets, the same pull succeeds cleanly.
        sim2 = Simulator()
        engine2 = TransferEngine(sim2, network)
        done = {}

        def retry():
            result = yield from facade.pull_process(
                ImageReference("acme/mono"), Arch.AMD64, "edge-0", cache, engine2
            )
            done["result"] = result

        hub.rate_limiter._windows.clear()
        sim2.process(retry())
        sim2.run()
        assert done["result"].manifest.total_layer_bytes > 0
        assert cache.reserved_bytes == 0
