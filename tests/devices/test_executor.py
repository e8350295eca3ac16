"""Device runtime: the three-phase execution process."""

import pytest

from repro.devices.executor import DeviceRuntime
from repro.devices.specs import medium_device
from repro.model.application import Microservice, ResourceRequirements
from repro.model.device import Phase
from repro.model.network import NetworkModel
from repro.registry.base import ImageReference
from repro.registry.client import PullPolicy
from repro.registry.hub import DockerHub
from repro.registry.images import OFFICIAL_BASES, build_image
from repro.sim.engine import Simulator


@pytest.fixture
def hub():
    registry = DockerHub()
    mlist, blobs = build_image("acme/app", 1.0, base=OFFICIAL_BASES["alpine:3"])
    registry.push_image("acme/app", "latest", mlist, blobs)
    mlist2, blobs2 = build_image("acme/warm", 1.0, base=OFFICIAL_BASES["alpine:3"])
    registry.push_image("acme/warm", "latest", mlist2, blobs2)
    return registry


@pytest.fixture
def net():
    model = NetworkModel()
    model.connect_registry("docker-hub", "medium", 80.0)  # 10 MB/s
    model.connect_registry("docker-hub", "small", 80.0)
    model.connect_devices("medium", "small", 80.0)
    model.connect_ingress("medium", 80.0)
    return model


def service(cpu_mi=36_000.0, ingress=0.0, warm=0.0, image="acme/app"):
    return Microservice(
        name="svc",
        image=image,
        size_gb=1.0,
        requirements=ResourceRequirements(cpu_mi=cpu_mi),
        ingress_mb=ingress,
        warm_fraction=warm,
    )


def run(runtime, svc, hub, incoming=()):
    process = runtime.sim.process(
        runtime.run_microservice(svc, hub, ImageReference(svc.image), incoming)
    )
    runtime.sim.run()
    return process.value


class TestExecution:
    def test_three_phase_times(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        record = run(runtime, service(ingress=100.0), hub)
        assert record.times.deploy_s == pytest.approx(100.0)  # 1 GB @ 10 MB/s
        assert record.times.transfer_s == pytest.approx(10.0)
        assert record.times.compute_s == pytest.approx(1.0)  # 36k MI @ 36k MI/s
        assert sim.now == pytest.approx(111.0)

    def test_trace_segments_match_phases(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        run(runtime, service(ingress=100.0), hub)
        phases = [seg.phase for seg in runtime.trace._segments]
        assert phases == [Phase.PULL, Phase.TRANSFER, Phase.COMPUTE]

    def test_trace_energy_matches_record(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        record = run(runtime, service(ingress=100.0), hub)
        assert runtime.trace.energy_between_j(
            record.start_s, record.end_s
        ) == pytest.approx(record.energy_j)

    def test_cached_image_skips_pull(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        run(runtime, service(), hub)
        second = run(runtime, service(), hub)
        assert second.cache_hit
        assert second.times.deploy_s == 0.0

    def test_warm_fraction_shortens_pull(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        record = run(runtime, service(warm=0.5, image="acme/warm"), hub)
        assert record.times.deploy_s == pytest.approx(50.0)

    def test_upstream_transfer_times(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        record = run(runtime, service(), hub, incoming=[("small", 100.0)])
        assert record.times.transfer_s == pytest.approx(10.0)

    def test_colocated_transfer_free(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        record = run(runtime, service(), hub, incoming=[("medium", 5000.0)])
        assert record.times.transfer_s == 0.0

    def test_intensity_fn_applied(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(
            sim, medium_device(), net, intensity=lambda s, d: 2.0
        )
        record = run(runtime, service(), hub)
        assert record.intensity == 2.0
        base = medium_device().power
        assert record.energy.compute_j == pytest.approx(
            base.compute_watts * 2.0 * record.times.compute_s
        )

    def test_device_lock_serialises(self, hub, net):
        """Two services on one device never overlap in the trace."""
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        svc_a = service()
        svc_b = service(image="acme/warm")
        pa = sim.process(
            runtime.run_microservice(svc_a, hub, ImageReference("acme/app"))
        )
        pb = sim.process(
            runtime.run_microservice(svc_b, hub, ImageReference("acme/warm"))
        )
        sim.run()
        ra, rb = pa.value, pb.value
        assert ra.end_s <= rb.start_s or rb.end_s <= ra.start_s

    def test_records_accumulate(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(sim, medium_device(), net)
        run(runtime, service(), hub)
        run(runtime, service(image="acme/warm"), hub)
        assert [r.service for r in runtime.records] == ["svc", "svc"]
        assert len(runtime.records) == 2

    def test_layered_policy_dedups_on_device(self, hub, net):
        sim = Simulator()
        runtime = DeviceRuntime(
            sim, medium_device(), net, pull_policy=PullPolicy.LAYERED
        )
        run(runtime, service(), hub)
        second = run(runtime, service(image="acme/warm"), hub)
        # Shared alpine base already on the device.
        assert second.pull.bytes_transferred < second.pull.bytes_total
