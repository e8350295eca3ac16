"""Device and power model behaviour."""

import pytest

from repro.model.device import (
    Arch,
    Device,
    DeviceFleet,
    DeviceSpec,
    Phase,
    PowerModel,
)


@pytest.fixture
def spec():
    return DeviceSpec(
        name="dev", arch=Arch.AMD64, cores=8, speed_mips=36_000,
        memory_gb=16.0, storage_gb=64.0,
    )


@pytest.fixture
def power():
    return PowerModel(
        static_watts=2.0, compute_watts=20.0, pull_watts=1.0, transfer_watts=0.5
    )


class TestPowerModel:
    def test_idle_draws_static_only(self, power):
        assert power.total_watts(Phase.IDLE) == 2.0
        assert power.active_watts(Phase.IDLE) == 0.0

    def test_phase_surcharges(self, power):
        assert power.active_watts(Phase.PULL) == 1.0
        assert power.active_watts(Phase.TRANSFER) == 0.5
        assert power.active_watts(Phase.COMPUTE) == 20.0

    def test_compute_scales_with_utilization(self, power):
        assert power.active_watts(Phase.COMPUTE, 0.5) == 10.0

    def test_intensity_above_one_allowed(self, power):
        # Calibrated workload intensities may exceed the baseline.
        assert power.active_watts(Phase.COMPUTE, 2.5) == 50.0

    def test_negative_utilization_rejected(self, power):
        with pytest.raises(ValueError):
            power.active_watts(Phase.COMPUTE, -0.1)

    def test_utilization_only_affects_compute(self, power):
        assert power.active_watts(Phase.PULL, 0.5) == 1.0

    def test_negative_watts_rejected(self):
        with pytest.raises(ValueError):
            PowerModel(static_watts=-1.0, compute_watts=1.0)


class TestDeviceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("", Arch.AMD64, 8, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DeviceSpec("x", Arch.AMD64, 0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DeviceSpec("x", Arch.AMD64, 1, 0.0, 1.0, 1.0)


class TestDevice:
    def test_name_and_arch_shortcuts(self, spec, power):
        device = Device(spec=spec, power=power)
        assert device.name == "dev"
        assert device.arch is Arch.AMD64


class TestDeviceFleet:
    def test_ordered_iteration(self, spec, power):
        a = Device(spec=spec, power=power)
        b = Device(
            spec=DeviceSpec("pi", Arch.ARM64, 4, 9_600, 8.0, 32.0), power=power
        )
        fleet = DeviceFleet.of(a, b)
        assert fleet.names() == ["dev", "pi"]
        assert len(fleet) == 2
        assert "pi" in fleet
        assert fleet["pi"].arch is Arch.ARM64

    def test_duplicate_rejected(self, spec, power):
        fleet = DeviceFleet.of(Device(spec=spec, power=power))
        with pytest.raises(ValueError):
            fleet.add(Device(spec=spec, power=power))
