"""Power traces."""

import pytest

from repro.devices.power import PowerSegment, PowerTrace
from repro.devices.specs import medium_device
from repro.model.device import Phase


@pytest.fixture
def device():
    return medium_device()


@pytest.fixture
def trace(device):
    return PowerTrace(device)


class TestPowerSegment:
    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            PowerSegment(5.0, 4.0, 1.0, Phase.IDLE)


class TestPowerTrace:
    def test_record_uses_device_power(self, trace, device):
        seg = trace.record(0.0, 10.0, Phase.COMPUTE)
        assert seg.watts == device.power.total_watts(Phase.COMPUTE)

    def test_record_intensity_scaling(self, trace, device):
        seg = trace.record(0.0, 10.0, Phase.COMPUTE, utilization=2.0)
        expected = device.power.static_watts + 2.0 * device.power.compute_watts
        assert seg.watts == pytest.approx(expected)

    def test_overlap_rejected(self, trace):
        trace.record(0.0, 10.0, Phase.PULL)
        with pytest.raises(ValueError):
            trace.record(5.0, 1.0, Phase.COMPUTE)

    def test_gap_allowed_and_idles(self, trace, device):
        trace.record(0.0, 10.0, Phase.PULL)
        trace.record(20.0, 5.0, Phase.COMPUTE)
        assert trace.power_at(15.0) == device.power.static_watts

    def test_power_at_boundaries(self, trace, device):
        trace.record(0.0, 10.0, Phase.PULL)
        assert trace.power_at(0.0) == device.power.total_watts(Phase.PULL)
        # Interval is half-open: at t=10 the device is idle again.
        assert trace.power_at(10.0) == device.power.static_watts

    def test_energy_between_exact(self, trace, device):
        trace.record(0.0, 10.0, Phase.PULL)
        p = device.power
        expected = p.total_watts(Phase.PULL) * 10 + p.static_watts * 10
        assert trace.energy_between_j(0.0, 20.0) == pytest.approx(expected)

    def test_energy_partial_overlap(self, trace, device):
        trace.record(0.0, 10.0, Phase.COMPUTE)
        p = device.power
        expected = p.total_watts(Phase.COMPUTE) * 5 + p.static_watts * 5
        assert trace.energy_between_j(5.0, 15.0) == pytest.approx(expected)


    def test_inverted_window_rejected(self, trace):
        with pytest.raises(ValueError):
            trace.energy_between_j(5.0, 1.0)
