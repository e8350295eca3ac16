"""End-to-end: the P2P tier on a layer-sharing workload.

Runs the full three-mode experiment on a small swarm and checks the
headline claim — hybrid+P2P moves strictly fewer bytes out of the
hub+regional origin tiers than plain hybrid — plus the executor-level
integration (a DeviceRuntime wired to a P2PRegistry pulls from a peer
and records the three-tier registry in its execution trace).
"""

from dataclasses import replace

import pytest

from repro import scenarios
from repro.devices.specs import MEDIUM_POWER, MEDIUM_SPEC
from repro.experiments import p2p
from repro.model.application import Microservice
from repro.model.device import Device
from repro.model.units import BYTES_PER_GB
from repro.registry.base import ImageReference
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.registry.p2p import P2PRegistry, PeerSwarm
from repro.model.network import NetworkModel
from repro.devices.executor import DeviceRuntime
from repro.scenarios import SimulationSession, TransferSpec
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferModel


@pytest.fixture(scope="module")
def outcomes():
    return {
        mode: SimulationSession(replace(scenarios.get("p2p"), mode=mode)).run()
        for mode in p2p.MODES
    }


def test_p2p_strictly_lowers_origin_bytes_vs_hybrid(outcomes):
    hybrid = outcomes["hybrid"]
    swarm = outcomes["hybrid+p2p"]
    assert swarm.origin_bytes < hybrid.origin_bytes
    # And the savings are served by peers, not skipped.
    assert swarm.bytes_from_peers > 0
    # Every mode executed the identical pull schedule.
    assert swarm.pulls == hybrid.pulls == outcomes["hub-only"].pulls


def test_hybrid_offloads_hub_and_p2p_offloads_origin(outcomes):
    hub_only = outcomes["hub-only"]
    hybrid = outcomes["hybrid"]
    swarm = outcomes["hybrid+p2p"]
    assert hub_only.bytes_by_registry.get("regional", 0) == 0
    assert hybrid.bytes_by_registry.get("docker-hub", 0) < hub_only.bytes_by_registry["docker-hub"]
    # Pull-delivered bytes can only shrink under P2P: replication
    # pre-places layers, turning some misses into pure local hits.
    def delivered(outcome):
        return outcome.origin_bytes + outcome.bytes_from_peers

    assert delivered(swarm) <= delivered(hybrid)


def test_p2p_transfer_time_beats_hybrid(outcomes):
    # Peer channels are LAN-fast, so the wall-clock transfer estimate
    # drops along with origin traffic.
    assert outcomes["hybrid+p2p"].transfer_s < outcomes["hybrid"].transfer_s


def test_replicator_converged_and_acted(outcomes):
    replicator = outcomes["hybrid+p2p"].replicator
    assert replicator is not None
    assert replicator.converged()
    assert replicator.swarm.index.coherence_violations() == []


def test_experiment_table_renders(outcomes):
    result = p2p.run(n_devices=8, n_images=4, pulls_per_device=3)
    assert [row["mode"] for row in result.rows] == list(p2p.MODES)
    text = result.to_text()
    assert "hybrid+p2p" in text
    assert any("less from" in note for note in result.notes)


def test_device_runtime_pulls_through_the_p2p_tier():
    """Executor integration: second device's deploy is a peer pull."""
    hub = DockerHub(name="docker-hub")
    mlist, blobs = build_image(
        "acme/app", 0.5, base=OFFICIAL_BASES["python:3.9-slim"]
    )
    hub.push_image("acme/app", "latest", mlist, blobs)

    import dataclasses

    specs = [
        Device(
            spec=dataclasses.replace(MEDIUM_SPEC, name=name),
            power=MEDIUM_POWER,
            region="lab",
        )
        for name in ("edge-a", "edge-b")
    ]

    network = NetworkModel()
    network.connect_devices("edge-a", "edge-b", 800.0)
    for device in specs:
        network.connect_registry("docker-hub", device.name, 80.0)

    sim = Simulator()
    swarm = PeerSwarm(network)
    facade = P2PRegistry(swarm, [hub])
    runtimes = [
        DeviceRuntime(sim=sim, device=device, network=network, p2p=facade)
        for device in specs
    ]
    service = Microservice(name="svc", image="acme/app", size_gb=0.5)
    ref = ImageReference("acme/app")

    first = runtimes[0].run_microservice(service, hub, ref)
    done_first = sim.process(first)
    sim.run()
    second = runtimes[1].run_microservice(service, hub, ref)
    sim.process(second)
    sim.run()

    rec_a = runtimes[0].records[0]
    rec_b = runtimes[1].records[0]
    assert rec_a.registry == facade.name
    assert rec_a.pull.bytes_from_peers == 0
    assert rec_b.pull.bytes_from_peers == rec_b.pull.bytes_transferred > 0
    # Peer bandwidth (800 Mbps) is 10x the hub channel: deployment is
    # proportionally faster on the peer-served device.
    assert rec_b.times.deploy_s < rec_a.times.deploy_s
    assert done_first.value.service == "svc"


class TestContendedOverlap:
    """Acceptance: analytic admission overstates P2P savings under
    overlapping pulls; time-resolved mode is strictly more pessimistic."""

    @pytest.fixture(scope="class")
    def contended(self):
        out = {}
        for model in (TransferModel.ANALYTIC, TransferModel.TIME_RESOLVED):
            spec = replace(
                scenarios.get("p2p-contended"),
                transfer=TransferSpec(
                    model=model,
                    upload_budget=(
                        2 if model is TransferModel.TIME_RESOLVED else None
                    ),
                ),
            )
            hybrid = SimulationSession(replace(spec, mode="hybrid")).run()
            swarm = SimulationSession(spec).run()
            out[model] = (hybrid, swarm)
        return out

    def test_savings_strictly_lower_when_time_resolved(self, contended):
        saving = {
            model: hybrid.origin_bytes - swarm.origin_bytes
            for model, (hybrid, swarm) in contended.items()
        }
        assert saving[TransferModel.ANALYTIC] > 0
        assert (
            saving[TransferModel.TIME_RESOLVED]
            < saving[TransferModel.ANALYTIC]
        )

    def test_hybrid_baseline_bytes_are_model_independent(self, contended):
        # Without peers there is nothing to mis-attribute: both models
        # move the same bytes, only on different clocks.
        origins = {
            hybrid.origin_bytes for hybrid, _swarm in contended.values()
        }
        assert len(origins) == 1

    def test_contention_slows_transfers_down(self, contended):
        _, analytic_swarm = contended[TransferModel.ANALYTIC]
        _, resolved_swarm = contended[TransferModel.TIME_RESOLVED]
        assert resolved_swarm.transfer_s > analytic_swarm.transfer_s

    def test_contended_experiment_table_renders(self):
        result = p2p.run_contended(n_devices=6)
        assert [row["model"] for row in result.rows] == [
            "analytic", "time-resolved",
        ]
        assert any("overstates" in note for note in result.notes)
