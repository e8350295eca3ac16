"""Energy aggregation: from execution records to the paper's figures.

:class:`EnergyLedger` sums the energies of
:class:`~repro.devices.executor.ExecutionRecord` objects: the total
(Figure 3b's bars), per device, per registry, and the ``EC = Ea + Es``
split of the model (Sec. III-D).  Figure 3a's per-microservice bars
read the records themselves.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..devices.executor import ExecutionRecord


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

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def total_j(self) -> float:
        """``EC_total`` over everything recorded."""
        return sum(r.energy.total_j for r in self._records)

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

