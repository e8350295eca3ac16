"""Energy aggregation: from execution records to the paper's figures.

The evaluation reports energy at three granularities:

* per microservice (Figure 3a's bars),
* per application / deployment method (Figure 3b's bars), and
* the ``EC = Ea + Es`` split of the model (Sec. III-D).

:class:`EnergyLedger` aggregates :class:`~repro.devices.executor.ExecutionRecord`
objects into all three, and :func:`reconcile` cross-checks the analytic
ledger against meter measurements (the simulation's equivalent of
validating pyRAPL against the model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..devices.executor import ExecutionRecord
from ..model.metrics import EnergyBreakdown
from ..model.units import j_to_kj


@dataclass(frozen=True)
class ServiceEnergy:
    """Per-microservice energy line (one Figure-3a bar)."""

    service: str
    device: str
    registry: str
    energy: EnergyBreakdown

    @property
    def total_j(self) -> float:
        return self.energy.total_j

    @property
    def total_kj(self) -> float:
        return j_to_kj(self.energy.total_j)


class EnergyLedger:
    """Accumulates execution records and answers energy queries."""

    def __init__(self) -> None:
        self._records: List[ExecutionRecord] = []

    def add(self, record: ExecutionRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[ExecutionRecord]) -> None:
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> List[ExecutionRecord]:
        return list(self._records)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def per_service(self) -> List[ServiceEnergy]:
        """One line per executed microservice, execution order."""
        return [
            ServiceEnergy(
                service=r.service,
                device=r.device,
                registry=r.registry,
                energy=r.energy,
            )
            for r in self._records
        ]

    def total_j(self) -> float:
        """``EC_total`` over everything recorded."""
        return sum(r.energy.total_j for r in self._records)

    def total_kj(self) -> float:
        return j_to_kj(self.total_j())

    def active_j(self) -> float:
        """Total ``Ea``."""
        return sum(r.energy.active_j for r in self._records)

    def static_j(self) -> float:
        """Total ``Es``."""
        return sum(r.energy.static_j for r in self._records)

    def by_device(self) -> Dict[str, float]:
        """Device name → total joules."""
        out: Dict[str, float] = {}
        for r in self._records:
            out[r.device] = out.get(r.device, 0.0) + r.energy.total_j
        return out

    def by_registry(self) -> Dict[str, float]:
        """Registry name → total joules."""
        out: Dict[str, float] = {}
        for r in self._records:
            out[r.registry] = out.get(r.registry, 0.0) + r.energy.total_j
        return out

    def completion_s(self) -> float:
        """Sum of completion times (non-concurrent execution metric)."""
        return sum(r.completion_s for r in self._records)

    def makespan_s(self) -> float:
        """Wall-clock span from first start to last end."""
        if not self._records:
            return 0.0
        return max(r.end_s for r in self._records) - min(
            r.start_s for r in self._records
        )


@dataclass(frozen=True)
class Reconciliation:
    """Comparison of analytic energy vs meter-measured energy."""

    analytic_j: float
    measured_j: float

    @property
    def absolute_error_j(self) -> float:
        return abs(self.analytic_j - self.measured_j)

    @property
    def relative_error(self) -> float:
        if self.analytic_j == 0:
            return 0.0 if self.measured_j == 0 else float("inf")
        return self.absolute_error_j / self.analytic_j

    def within(self, relative_tolerance: float) -> bool:
        return self.relative_error <= relative_tolerance


def reconcile(analytic_j: float, measured_j: float) -> Reconciliation:
    """Pair an analytic prediction with a meter reading."""
    return Reconciliation(analytic_j=analytic_j, measured_j=measured_j)
