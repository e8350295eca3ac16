"""Placement plans: the output of every scheduler.

A plan maps each microservice to the pair the paper's problem
definition optimises over — ``regist(m_i) = r_g`` and
``sched(m_i) = d_j`` — plus helpers to compute the Table III
distribution percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple

from ..model.application import Application


class PlacementError(ValueError):
    """A plan is inconsistent with its application or infeasible."""


@dataclass(frozen=True)
class Assignment:
    """One microservice's deployment decision."""

    service: str
    registry: str
    device: str


@dataclass
class PlacementPlan:
    """Complete schedule of an application.

    Iteration order is the order assignments were made (topological for
    every scheduler in this library), which is also the execution order
    used by the orchestrator's sequential mode.
    """

    application: str
    assignments: Dict[str, Assignment] = field(default_factory=dict)

    def assign(self, service: str, registry: str, device: str) -> Assignment:
        if service in self.assignments:
            raise PlacementError(f"{service!r} assigned twice")
        assignment = Assignment(service=service, registry=registry, device=device)
        self.assignments[service] = assignment
        return assignment

    def __len__(self) -> int:
        return len(self.assignments)

    def __contains__(self, service: object) -> bool:
        return service in self.assignments

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self.assignments.values())

    def device_of(self, service: str) -> str:
        """``sched(m_i)``."""
        return self._get(service).device

    def registry_of(self, service: str) -> str:
        """``regist(m_i)``."""
        return self._get(service).registry

    def _get(self, service: str) -> Assignment:
        try:
            return self.assignments[service]
        except KeyError:
            raise PlacementError(
                f"{service!r} not in plan for {self.application!r}"
            ) from None

    def devices(self) -> Mapping[str, str]:
        """service → device mapping (what the cost model's ``Tc`` needs)."""
        return {name: a.device for name, a in self.assignments.items()}

    def covers(self, app: Application) -> bool:
        """True when every microservice of ``app`` is assigned."""
        return set(self.assignments) == set(app.microservices)

    def validate_against(self, app: Application) -> None:
        """Raise :class:`PlacementError` unless the plan covers ``app``.

        Extra assignments (services not in the app) are also an error.
        """
        missing = set(app.microservices) - set(self.assignments)
        extra = set(self.assignments) - set(app.microservices)
        if missing or extra:
            raise PlacementError(
                f"plan/application mismatch for {app.name!r}: "
                f"missing={sorted(missing)}, extra={sorted(extra)}"
            )

    # ------------------------------------------------------------------
    # Table III views
    # ------------------------------------------------------------------
    def distribution(self) -> Dict[Tuple[str, str], int]:
        """(device, registry) → number of microservices."""
        counts: Dict[Tuple[str, str], int] = {}
        for a in self.assignments.values():
            key = (a.device, a.registry)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def distribution_percent(self) -> Dict[Tuple[str, str], float]:
        """(device, registry) → share of microservices in percent.

        Matches Table III's cells, e.g. ``("small", "regional") → 66.7``.
        """
        total = len(self.assignments)
        if total == 0:
            return {}
        return {
            key: 100.0 * count / total
            for key, count in self.distribution().items()
        }

    def registry_share(self, registry: str) -> float:
        """Fraction (0–1) of microservices pulled from ``registry``."""
        if not self.assignments:
            return 0.0
        hits = sum(1 for a in self.assignments.values() if a.registry == registry)
        return hits / len(self.assignments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlacementPlan({self.application!r}, n={len(self.assignments)})"
