"""Piecewise-constant power traces of a simulated device.

The device runtime appends one segment per execution phase (pull,
transfer, compute); between segments the device idles at static power.
The energy meters (:mod:`repro.energy`) integrate these traces — the
RAPL stand-in exactly, the wall-plug stand-in by sampling — which is
how the reproduction exercises the paper's two measurement paths
(pyRAPL on the Intel device, Ketotek meter on the ARM one).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List

from ..model.device import Device, Phase


@dataclass(frozen=True)
class PowerSegment:
    """One constant-power interval ``[start_s, end_s)``."""

    start_s: float
    end_s: float
    watts: float
    phase: Phase
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise ValueError(
                f"segment ends before it starts: [{self.start_s}, {self.end_s})"
            )
        if self.watts < 0:
            raise ValueError(f"negative power: {self.watts}")


class PowerTrace:
    """Append-only, time-ordered power history of one device.

    Segments must be appended in non-decreasing start order and may not
    overlap (the paper executes microservices non-concurrently; the
    stage-parallel mode uses one trace per device, where phases on the
    same device still serialise through the core resource).  Gaps
    between segments are implicit idle time at ``static_watts``.
    """

    def __init__(self, device: Device) -> None:
        self.device = device
        self._segments: List[PowerSegment] = []
        self._starts: List[float] = []

    def __len__(self) -> int:
        return len(self._segments)

    def record(
        self,
        start_s: float,
        duration_s: float,
        phase: Phase,
        utilization: float = 1.0,
        label: str = "",
    ) -> PowerSegment:
        """Append a phase segment; returns it.

        Power is the device's *total* draw for the phase (static +
        active), so integrating the trace directly yields EC.
        """
        if duration_s < 0:
            raise ValueError(f"negative duration: {duration_s}")
        if self._segments and start_s < self._segments[-1].end_s - 1e-12:
            raise ValueError(
                f"segment at {start_s} overlaps previous ending at "
                f"{self._segments[-1].end_s}"
            )
        segment = PowerSegment(
            start_s=start_s,
            end_s=start_s + duration_s,
            watts=self.device.power.total_watts(phase, utilization),
            phase=phase,
            label=label,
        )
        self._segments.append(segment)
        self._starts.append(segment.start_s)
        return segment

    def power_at(self, t_s: float) -> float:
        """Instantaneous draw at time ``t_s`` (static when idle)."""
        index = bisect.bisect_right(self._starts, t_s) - 1
        if index >= 0:
            segment = self._segments[index]
            if segment.start_s <= t_s < segment.end_s:
                return segment.watts
        return self.device.power.static_watts

    def energy_between_j(self, t0_s: float, t1_s: float) -> float:
        """Exact integral of power over ``[t0_s, t1_s]``.

        Piecewise-constant integration: active segments contribute
        their overlap at segment power, the rest of the window idles at
        static power.
        """
        if t1_s < t0_s:
            raise ValueError(f"window ends before it starts: [{t0_s}, {t1_s}]")
        window = t1_s - t0_s
        energy = self.device.power.static_watts * window
        for segment in self._segments:
            overlap = min(t1_s, segment.end_s) - max(t0_s, segment.start_s)
            if overlap > 0:
                energy += (segment.watts - self.device.power.static_watts) * overlap
        return energy
