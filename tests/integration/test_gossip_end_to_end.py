"""End-to-end: gossip discovery and churn on the full pull stack.

Covers the three integration seams the discovery refactor touches:
scenario sessions (gossip + churn specs through ``SimulationSession``),
the kubelet (``stale_peer_misses`` metered next to
``bytes_from_peers``), and the headline ``p2p-gossip`` experiment
(omniscient must never *understate* savings relative to gossip by more
than noise).
"""

import dataclasses

import pytest

from repro.devices.executor import DeviceRuntime
from repro.devices.specs import MEDIUM_POWER, MEDIUM_SPEC
from repro.experiments import p2p
from repro.model.application import Microservice
from repro.model.device import Device
from repro.model.network import NetworkModel
from repro.orchestrator.kubelet import Kubelet
from repro.orchestrator.monitoring import Monitor
from repro.orchestrator.objects import Pod
from repro.registry.base import ImageReference
from repro.registry.discovery import GossipDiscovery
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.registry.p2p import P2PRegistry, PeerSwarm
from repro.scenarios import (
    ChurnSpec,
    DiscoverySpec,
    ScenarioSpec,
    SimulationSession,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.engine import Simulator


class TestGossipAndChurnSessions:
    """Gossip discovery and churn described as specs and run through
    ``SimulationSession`` on the full pull stack."""

    @pytest.fixture(scope="class")
    def base(self):
        return ScenarioSpec(
            mode="hybrid+p2p",
            topology=TopologySpec(n_devices=10, n_regions=2),
            workload=WorkloadSpec(n_images=4, pulls_per_device=3),
        )

    def test_gossip_never_beats_omniscient_origin_traffic(self, base):
        omni = SimulationSession(base).run()
        gossip = SimulationSession(
            dataclasses.replace(
                base,
                discovery=DiscoverySpec(
                    backend="gossip", gossip_period_s=120.0
                ),
            )
        ).run()
        assert gossip.pulls == omni.pulls
        # Partial views can only hide committed replicas, never invent
        # them: gossip peer traffic is bounded by omniscient's and the
        # origin picks up the difference (small eviction-order noise
        # aside, which this seeded scenario does not exhibit).
        assert gossip.origin_bytes >= omni.origin_bytes
        assert omni.stale_peer_misses == 0
        assert omni.gossip_rounds == 0
        assert gossip.gossip_rounds > 0

    def test_churn_skips_offline_pulls_and_counts_them(self, base):
        churn = ChurnSpec(
            mean_uptime_s=400.0, mean_downtime_s=200.0, min_online=3
        )
        session = SimulationSession(dataclasses.replace(base, churn=churn))
        outcome = session.run()
        assert outcome.departures > 0
        assert outcome.pulls + outcome.skipped_pulls == len(
            session.scenario.schedule
        )
        assert outcome.unfinished_pulls == 0

    def test_gossip_plus_churn_meters_stale_misses(self, base):
        spec = dataclasses.replace(
            base,
            discovery=DiscoverySpec(backend="gossip", gossip_period_s=60.0),
            churn=ChurnSpec(
                mean_uptime_s=300.0, mean_downtime_s=300.0, min_online=3
            ),
        )
        outcome = SimulationSession(spec).run()
        # Departed holders linger in partial views until tripped over.
        assert outcome.stale_peer_misses > 0

    def test_unknown_discovery_rejected(self):
        with pytest.raises(ValueError, match="discovery"):
            DiscoverySpec(backend="psychic")


class TestGossipExperiment:
    def test_run_gossip_reports_the_savings_gap(self):
        result = p2p.run_gossip(
            n_devices=8, n_images=4, pulls_per_device=3, n_regions=2
        )
        assert result.experiment_id == "p2p-gossip"
        assert len(result.rows) == 2 * len(p2p.CHURN_REGIMES)
        by_key = {(r["churn"], r["discovery"]): r for r in result.rows}
        for label, _cfg in p2p.CHURN_REGIMES:
            omni = by_key[(label, "omniscient")]
            gossip = by_key[(label, "gossip")]
            assert omni["stale_misses"] == 0
            assert gossip["saved_pct"] <= omni["saved_pct"] + 5.0
            # Churn draws are seeded per device, but blocked-departure
            # redraws depend on pull timing (which differs per
            # backend), so only the schedule total is invariant.
            assert gossip["pulls"] + gossip["skipped"] == (
                omni["pulls"] + omni["skipped"]
            )
        assert any("overstates" in note for note in result.notes)


class TestKubeletStaleMissMetering:
    def test_stale_view_miss_reaches_the_monitor(self):
        hub = DockerHub(name="docker-hub")
        mlist, blobs = build_image(
            "acme/app", 0.5, base=OFFICIAL_BASES["python:3.9-slim"]
        )
        hub.push_image("acme/app", "latest", mlist, blobs)
        network = NetworkModel()
        network.connect_devices("edge-a", "edge-b", 800.0)
        for name in ("edge-a", "edge-b"):
            network.connect_registry("docker-hub", name, 80.0)
        sim = Simulator()
        discovery = GossipDiscovery(sim=sim, fanout=1, period_s=30.0, seed=2)
        swarm = PeerSwarm(network, discovery=discovery)
        facade = P2PRegistry(swarm, [hub])
        monitor = Monitor()
        runtimes = {
            name: DeviceRuntime(
                sim=sim,
                device=Device(
                    spec=dataclasses.replace(MEDIUM_SPEC, name=name),
                    power=MEDIUM_POWER,
                    region="lab",
                ),
                network=network,
                p2p=facade,
            )
            for name in ("edge-a", "edge-b")
        }
        service = Microservice(name="svc", image="acme/app", size_gb=0.5)

        def run_pod_on(name):
            pod = Pod(
                name=f"svc-{name}",
                service="svc",
                image=ImageReference("acme/app"),
                node=name,
                registry=facade.name,
            )
            kubelet = Kubelet(runtimes[name], monitor)
            done = sim.process(kubelet.run_pod(pod, service, hub))
            # Gossip ticks are daemon events, so draining terminates.
            sim.run()
            assert done.triggered

        # Seed edge-a, let edge-b's view converge on it, then gut
        # edge-a's cache so the view is stale when edge-b pulls.
        run_pod_on("edge-a")
        for _ in range(4):
            discovery.run_round()
        runtimes["edge-a"].cache.clear()
        run_pod_on("edge-b")
        counters = monitor.counters()
        assert counters["stale_peer_misses"] > 0
        assert counters["bytes_from_peers"] == 0
        assert counters["stale_peer_misses"] == discovery.stale_misses
        # The fallback chain served every transferred byte from the hub.
        assert counters["bytes_from.docker-hub"] == counters["bytes_pulled"]

    def test_counter_present_and_zero_on_healthy_pulls(self):
        hub = DockerHub(name="docker-hub")
        mlist, blobs = build_image("acme/app", 0.3)
        hub.push_image("acme/app", "latest", mlist, blobs)
        network = NetworkModel()
        network.connect_registry("docker-hub", "edge-a", 80.0)
        sim = Simulator()
        monitor = Monitor()
        runtime = DeviceRuntime(
            sim=sim,
            device=Device(
                spec=dataclasses.replace(MEDIUM_SPEC, name="edge-a"),
                power=MEDIUM_POWER,
                region="lab",
            ),
            network=network,
        )
        service = Microservice(name="svc", image="acme/app", size_gb=0.3)
        pod = Pod(
            name="svc-a",
            service="svc",
            image=ImageReference("acme/app"),
            node="edge-a",
            registry=hub.name,
        )
        sim.process(Kubelet(runtime, monitor).run_pod(pod, service, hub))
        sim.run()
        assert monitor.counter("stale_peer_misses") == 0
