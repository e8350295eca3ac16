"""Energy meters: RAPL counters and the sampled wall-plug meter."""

import pytest

from repro.devices.power import PowerTrace
from repro.devices.specs import medium_device, small_device
from repro.energy.powermeter import PowerMeter
from repro.energy.rapl import COUNTER_WRAP_UJ, MeasurementError, RaplMeter
from repro.model.device import Phase


@pytest.fixture
def trace():
    t = PowerTrace(medium_device())
    t.record(0.0, 100.0, Phase.PULL)
    t.record(100.0, 50.0, Phase.COMPUTE)
    return t


class TestRaplMeter:
    def test_counter_monotone_modulo_wrap(self, trace):
        meter = RaplMeter(trace)
        assert meter.counter_uj(10.0) < meter.counter_uj(50.0)

    def test_window_matches_exact_integral(self, trace):
        meter = RaplMeter(trace)
        result = meter.measure_window(0.0, 150.0, "svc")
        assert result.energy_j == pytest.approx(
            trace.energy_between_j(0.0, 150.0), rel=1e-6
        )
        assert result.label == "svc"

    def test_begin_end_protocol(self, trace):
        meter = RaplMeter(trace)
        meter.begin(0.0)
        with pytest.raises(MeasurementError):
            meter.begin(1.0)
        meter.end(10.0)
        with pytest.raises(MeasurementError):
            meter.end(20.0)

    def test_inverted_window_rejected(self, trace):
        meter = RaplMeter(trace)
        meter.begin(10.0)
        with pytest.raises(MeasurementError):
            meter.end(5.0)

    def test_results_accumulate(self, trace):
        meter = RaplMeter(trace)
        meter.measure_window(0.0, 10.0, "a")
        meter.measure_window(10.0, 20.0, "b")
        assert [r.label for r in meter.results] == ["a", "b"]

    def test_single_counter_wrap_unwrapped(self):
        """A window spanning one counter wrap still measures correctly."""
        device = medium_device()
        trace = PowerTrace(device)
        # ~26.4 W compute; wrap at 4294.97 J → ~163 s to wrap.  Put the
        # window right across the wrap boundary.
        trace.record(0.0, 400.0, Phase.COMPUTE)
        meter = RaplMeter(trace)
        watts = device.power.total_watts(Phase.COMPUTE)
        wrap_t = (COUNTER_WRAP_UJ / 1e6) / watts
        window = meter.measure_window(wrap_t - 10.0, wrap_t + 10.0)
        assert window.energy_j == pytest.approx(watts * 20.0, rel=1e-3)


class TestPowerMeter:
    def test_constant_power_is_exact(self):
        trace = PowerTrace(small_device())
        trace.record(0.0, 100.0, Phase.COMPUTE)
        meter = PowerMeter(trace, sample_hz=1.0)
        reading = meter.measure(10.0, 90.0)
        assert reading.energy_j == pytest.approx(
            trace.energy_between_j(10.0, 90.0), rel=1e-9
        )

    def test_sampling_error_shrinks_with_rate(self):
        trace = PowerTrace(small_device())
        # Power changes mid-window: discretisation error appears.
        trace.record(0.0, 10.3, Phase.PULL)
        trace.record(10.3, 9.4, Phase.COMPUTE)
        exact = trace.energy_between_j(0.0, 19.7)
        coarse = abs(PowerMeter(trace, 1.0).measure(0.0, 19.7).energy_j - exact)
        fine = abs(PowerMeter(trace, 100.0).measure(0.0, 19.7).energy_j - exact)
        assert fine <= coarse

    def test_sample_grid_includes_endpoints(self):
        trace = PowerTrace(small_device())
        samples = PowerMeter(trace, 1.0).sample_window(0.0, 2.5)
        assert samples[0].t_s == 0.0
        assert samples[-1].t_s == 2.5

    def test_peak_and_average(self):
        trace = PowerTrace(small_device())
        trace.record(0.0, 10.0, Phase.COMPUTE)
        reading = PowerMeter(trace, 10.0).measure(0.0, 10.0)
        assert reading.peak_watts == pytest.approx(
            small_device().power.total_watts(Phase.COMPUTE)
        )
        assert reading.average_watts <= reading.peak_watts

    def test_zero_window(self):
        trace = PowerTrace(small_device())
        reading = PowerMeter(trace, 1.0).measure(5.0, 5.0)
        assert reading.energy_j == 0.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            PowerMeter(PowerTrace(small_device()), 0.0)
