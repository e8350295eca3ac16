"""Wall-plug power meter (the Ketotek stand-in for the ARM device).

A plug meter samples instantaneous whole-device power at a fixed rate
and its display integrates the samples.  :class:`PowerMeter` samples a
:class:`~repro.devices.power.PowerTrace` at ``sample_hz`` and estimates
window energy with trapezoidal integration — deliberately *not* the
exact piecewise integral, so measurement discretisation error exists in
the simulation the same way it does on the physical testbed.  Tests
assert the estimate converges to the analytic energy as the sampling
rate grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..devices.power import PowerTrace


@dataclass(frozen=True)
class PowerSample:
    """One reading: time and instantaneous watts."""

    t_s: float
    watts: float


@dataclass(frozen=True)
class MeterReading:
    """Aggregated window measurement from sampled power."""

    begin_s: float
    end_s: float
    energy_j: float
    samples: int
    peak_watts: float
    average_watts: float


class PowerMeter:
    """Fixed-rate sampling meter over one device's power trace."""

    def __init__(self, trace: PowerTrace, sample_hz: float = 1.0) -> None:
        if sample_hz <= 0:
            raise ValueError(f"sample_hz must be > 0, got {sample_hz}")
        self.trace = trace
        self.sample_hz = sample_hz

    def sample_window(self, t0_s: float, t1_s: float) -> List[PowerSample]:
        """Readings at the sampling grid covering ``[t0_s, t1_s]``.

        The grid always includes both endpoints so short windows still
        produce at least two samples.
        """
        if t1_s < t0_s:
            raise ValueError(f"window ends before start: [{t0_s}, {t1_s}]")
        if t1_s == t0_s:
            return [PowerSample(t0_s, self.trace.power_at(t0_s))]
        period = 1.0 / self.sample_hz
        ticks = np.arange(t0_s, t1_s, period)
        times = np.append(ticks, t1_s)
        return [PowerSample(float(t), self.trace.power_at(float(t))) for t in times]

    def measure(self, t0_s: float, t1_s: float) -> MeterReading:
        """Trapezoidal energy estimate over the window."""
        samples = self.sample_window(t0_s, t1_s)
        times = np.array([s.t_s for s in samples])
        watts = np.array([s.watts for s in samples])
        if len(samples) == 1:
            energy = 0.0
        else:
            energy = float(np.trapezoid(watts, times))
        duration = t1_s - t0_s
        return MeterReading(
            begin_s=t0_s,
            end_s=t1_s,
            energy_j=energy,
            samples=len(samples),
            peak_watts=float(watts.max()),
            average_watts=energy / duration if duration > 0 else float(watts[0]),
        )
