"""pyRAPL-style energy measurement over simulated power traces.

The paper measures the Intel device with pyRAPL, which exposes RAPL
(Running Average Power Limit) energy counters: monotonically increasing
µJ registers per package domain, sampled at the start and end of a
measurement window.  :class:`RaplMeter` reproduces that interface on
top of a :class:`~repro.devices.power.PowerTrace`: the counter value at
time *t* is the exact integral of the trace power over ``[0, t]``, so a
begin/end window yields exactly the energy the model predicts.

RAPL counters are fixed-width and wrap; the simulated counter wraps at
the same 2³² µJ boundary real hardware uses, and the meter unwraps a
single overflow per window like pyRAPL does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..devices.power import PowerTrace

#: RAPL energy-status registers are 32-bit µJ counters.
COUNTER_WRAP_UJ = 2**32


@dataclass(frozen=True)
class RaplMeasurement:
    """One begin/end window (mirrors ``pyRAPL.Measurement`` results)."""

    label: str
    begin_s: float
    end_s: float
    pkg_uj: float

    @property
    def energy_j(self) -> float:
        return self.pkg_uj / 1e6


class MeasurementError(RuntimeError):
    """Misuse of the begin/end protocol."""


class RaplMeter:
    """Package-domain energy counter for one device's trace.

    Usage mirrors pyRAPL::

        meter = RaplMeter(runtime.trace)
        meter.begin(now)
        ...  # simulated work happens, trace grows
        result = meter.end(later, label="ha-train")
    """

    def __init__(self, trace: PowerTrace) -> None:
        self.trace = trace
        self._begin_s: Optional[float] = None
        self.results: List[RaplMeasurement] = []

    def counter_uj(self, t_s: float) -> int:
        """The raw (wrapping) µJ counter at time ``t_s``."""
        if t_s < 0:
            raise ValueError(f"negative time: {t_s}")
        total_uj = int(round(self.trace.energy_between_j(0.0, t_s) * 1e6))
        return total_uj % COUNTER_WRAP_UJ

    def begin(self, now_s: float) -> None:
        if self._begin_s is not None:
            raise MeasurementError("begin() called twice without end()")
        self._begin_s = now_s

    def end(self, now_s: float, label: str = "") -> RaplMeasurement:
        if self._begin_s is None:
            raise MeasurementError("end() without begin()")
        begin_s = self._begin_s
        self._begin_s = None
        if now_s < begin_s:
            raise MeasurementError(
                f"window ends at {now_s} before beginning at {begin_s}"
            )
        delta = self.counter_uj(now_s) - self.counter_uj(begin_s)
        if delta < 0:  # one counter wrap inside the window
            delta += COUNTER_WRAP_UJ
        measurement = RaplMeasurement(
            label=label, begin_s=begin_s, end_s=now_s, pkg_uj=float(delta)
        )
        self.results.append(measurement)
        return measurement

    def measure_window(self, t0_s: float, t1_s: float, label: str = "") -> RaplMeasurement:
        """One-shot begin/end convenience."""
        self.begin(t0_s)
        return self.end(t1_s, label)
