"""The paper's CT and EC equations (Sec. III-D)."""

import pytest

from repro.model.application import Microservice, ResourceRequirements
from repro.model.device import Arch, Device, DeviceSpec, PowerModel
from repro.model.metrics import (
    CostRecord,
    PhaseTimes,
    compute_time_s,
    deployment_time_s,
    energy_breakdown,
    phase_times,
    transmission_time_s,
)
from repro.model.network import NetworkModel


@pytest.fixture
def device():
    return Device(
        spec=DeviceSpec("d0", Arch.AMD64, 8, 1000.0, 16.0, 64.0),
        power=PowerModel(
            static_watts=1.0, compute_watts=10.0, pull_watts=2.0,
            transfer_watts=0.5,
        ),
    )


@pytest.fixture
def net():
    model = NetworkModel()
    model.connect_registry("hub", "d0", 80.0)  # 10 MB/s
    model.connect_devices("d0", "d1", 80.0)
    model.connect_registry("hub", "d1", 80.0)
    model.connect_ingress("d0", 80.0)
    return model


@pytest.fixture
def service():
    return Microservice(
        name="svc",
        image="svc",
        size_gb=1.0,
        requirements=ResourceRequirements(cpu_mi=5000.0),
    )


class TestPhaseTimes:
    def test_completion_is_sum(self):
        times = PhaseTimes(1.0, 2.0, 3.0)
        assert times.completion_s == 6.0

    def test_addition(self):
        total = PhaseTimes(1.0, 2.0, 3.0) + PhaseTimes(0.5, 0.5, 0.5)
        assert total.completion_s == pytest.approx(7.5)


class TestDeploymentTime:
    def test_cold_pull(self, net):
        # 1 GB = 8000 Mbit at 80 Mbit/s = 100 s.
        assert deployment_time_s(net, "hub", "d0", 1.0) == pytest.approx(100.0)

    def test_cached_is_free(self, net):
        assert deployment_time_s(net, "hub", "d0", 1.0, cached=True) == 0.0

    def test_zero_size_free(self, net):
        assert deployment_time_s(net, "hub", "d0", 0.0) == 0.0


class TestTransmissionTime:
    def test_sums_over_in_flows(self, net):
        t = transmission_time_s(net, [("d1", 100.0), ("d1", 50.0)], "d0")
        assert t == pytest.approx(15.0)

    def test_colocated_flow_free(self, net):
        assert transmission_time_s(net, [("d0", 1000.0)], "d0") == 0.0

    def test_ingress_added(self, net):
        t = transmission_time_s(net, [], "d0", ingress_mb=100.0)
        assert t == pytest.approx(10.0)


class TestComputeTime:
    def test_cpu_over_speed(self, device, service):
        assert compute_time_s(service, device) == pytest.approx(5.0)


class TestWarmFraction:
    def test_warm_image_transfers_fraction(self, net, device):
        warm = Microservice(
            name="w", image="w", size_gb=1.0, warm_fraction=0.75,
            requirements=ResourceRequirements(cpu_mi=0.0),
        )
        times = phase_times(warm, device, net, "hub")
        assert times.deploy_s == pytest.approx(25.0)


class TestEnergyBreakdown:
    def test_phase_integration(self, device):
        times = PhaseTimes(deploy_s=10.0, transfer_s=4.0, compute_s=2.0)
        energy = energy_breakdown(times, device)
        assert energy.pull_j == pytest.approx(20.0)  # 2 W * 10 s
        assert energy.transfer_j == pytest.approx(2.0)  # 0.5 * 4
        assert energy.compute_j == pytest.approx(20.0)  # 10 * 2
        assert energy.static_j == pytest.approx(16.0)  # 1 * 16
        assert energy.active_j == pytest.approx(42.0)
        assert energy.total_j == pytest.approx(58.0)

    def test_ec_equals_ea_plus_es(self, device):
        energy = energy_breakdown(PhaseTimes(1.0, 1.0, 1.0), device)
        assert energy.total_j == pytest.approx(energy.active_j + energy.static_j)

    def test_intensity_scales_compute_only(self, device):
        times = PhaseTimes(1.0, 1.0, 1.0)
        base = energy_breakdown(times, device, 1.0)
        hot = energy_breakdown(times, device, 2.0)
        assert hot.compute_j == pytest.approx(2 * base.compute_j)
        assert hot.pull_j == base.pull_j
        assert hot.static_j == base.static_j

    def test_addition(self, device):
        e = energy_breakdown(PhaseTimes(1.0, 0.0, 0.0), device)
        combined = e + e
        assert combined.total_j == pytest.approx(2 * e.total_j)


class TestMicroserviceCost:
    """``CT`` and ``EC`` of one placement, composed the way the cost
    table composes them: :func:`phase_times` then
    :func:`energy_breakdown`."""

    def _record(self, device, net, service, incoming=(), cached=False):
        times = phase_times(service, device, net, "hub", incoming, cached)
        return CostRecord(
            service=service.name,
            registry="hub",
            device=device.name,
            times=times,
            energy=energy_breakdown(times, device),
        )

    def test_full_cost_record(self, device, net, service):
        record = self._record(device, net, service, incoming=[("d1", 100.0)])
        assert record.times.deploy_s == pytest.approx(100.0)
        assert record.times.transfer_s == pytest.approx(10.0)
        assert record.times.compute_s == pytest.approx(5.0)
        assert record.registry == "hub"
        assert record.device == "d0"
        assert record.energy.total_j == pytest.approx(
            2 * 100 + 0.5 * 10 + 10 * 5 + 1 * 115
        )

    def test_cached_removes_deploy(self, device, net, service):
        record = self._record(device, net, service, cached=True)
        assert record.times.deploy_s == 0.0
