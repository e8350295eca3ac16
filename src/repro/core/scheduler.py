"""Schedulers: DEEP's Nash sweep and the shared scheduling driver.

Every scheduler in this library walks the application in topological
order, asks the :class:`~repro.core.costs.CostTable` for the current
microservice's cost matrix, picks a (registry, device) cell by its own
policy, and commits the choice to the shared
:class:`~repro.core.costs.SchedulerState` (which updates image caches,
storage, and congestion info for the next microservice).

:class:`DeepScheduler` picks cells by computing Nash equilibria of the
per-microservice game (Sec. III-E) with a configurable solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..game.fictitious_play import fictitious_play
from ..game.lemke_howson import DegenerateGameError, lemke_howson_all
from ..game.normal_form import Equilibrium
from ..game.pure import pure_equilibria
from ..game.support_enumeration import all_equilibria
from ..model.application import Application
from ..model.metrics import CostRecord
from .costs import CostMatrix, CostTable, SchedulerState
from .environment import Environment
from .games import PenaltyWeights, microservice_game, select_equilibrium
from .placement import PlacementError, PlacementPlan


class NashSolver(enum.Enum):
    """Which equilibrium computation DEEP uses (ablation A3)."""

    PURE = "pure"
    SUPPORT_ENUMERATION = "support-enumeration"
    LEMKE_HOWSON = "lemke-howson"
    FICTITIOUS_PLAY = "fictitious-play"


@dataclass
class ScheduleResult:
    """A plan plus the model's predictions for it."""

    plan: PlacementPlan
    records: List[CostRecord]
    total_energy_j: float
    total_completion_s: float
    #: per-microservice equilibrium count (diagnostics; empty for
    #: non-game schedulers).
    equilibria_found: Dict[str, int] = field(default_factory=dict)

    def record_of(self, service: str) -> CostRecord:
        for record in self.records:
            if record.service == service:
                return record
        raise KeyError(service)


class SchedulerBase:
    """Topological-sweep driver; subclasses implement :meth:`choose`."""

    name = "base"

    def choose(
        self, costs: CostMatrix, state: SchedulerState, env: Environment
    ) -> Tuple[int, int]:
        """Return (registry_index, device_index) into the cost matrix."""
        raise NotImplementedError

    def schedule(self, app: Application, env: Environment) -> ScheduleResult:
        """Produce a full plan for ``app`` in ``env``."""
        table = CostTable(app, env)
        state = SchedulerState()
        plan = PlacementPlan(application=app.name)
        records: List[CostRecord] = []
        diagnostics: Dict[str, int] = {}
        for name in app.topological_order():
            costs = table.matrix(name, state)
            if not costs.any_feasible():
                raise PlacementError(
                    f"no feasible (registry, device) for {name!r} in "
                    f"{app.name!r}"
                )
            g, d = self.choose(costs, state, env)
            if not costs.feasible[g, d]:
                raise PlacementError(
                    f"{type(self).__name__} chose infeasible cell "
                    f"({costs.registries[g]}, {costs.devices[d]}) for {name!r}"
                )
            registry = costs.registries[g]
            device = costs.devices[d]
            record = table.record(name, registry, device, state)
            plan.assign(name, registry, device)
            state.commit(
                app.service(name), registry, device, record.times.completion_s
            )
            records.append(record)
            diagnostics[name] = getattr(self, "_last_equilibria", 0)
        return ScheduleResult(
            plan=plan,
            records=records,
            total_energy_j=sum(r.energy.total_j for r in records),
            total_completion_s=sum(r.times.completion_s for r in records),
            equilibria_found=diagnostics,
        )


class DeepScheduler(SchedulerBase):
    """The paper's contribution: Nash-game (registry, device) selection.

    Parameters
    ----------
    solver:
        Equilibrium algorithm.  ``PURE`` is the fast path (always
        sufficient for coordination-structured payoffs); the mixed
        solvers are exercised in the ablations.
    penalties:
        Dilemma-inducing penalty weights; defaults to the mild tension
        described in :mod:`repro.core.games`.
    """

    name = "deep"

    def __init__(
        self,
        solver: NashSolver = NashSolver.SUPPORT_ENUMERATION,
        penalties: PenaltyWeights = PenaltyWeights(),
    ) -> None:
        self.solver = solver
        self.penalties = penalties
        self._last_equilibria = 0

    def _equilibria(self, game) -> List[Equilibrium]:
        if self.solver is NashSolver.PURE:
            return pure_equilibria(game)
        if self.solver is NashSolver.SUPPORT_ENUMERATION:
            return all_equilibria(game)
        if self.solver is NashSolver.LEMKE_HOWSON:
            try:
                return lemke_howson_all(game)
            except DegenerateGameError:
                return pure_equilibria(game)
        result = fictitious_play(game, iterations=2000)
        return [result.equilibrium(game)] if result.converged else []

    def choose(
        self, costs: CostMatrix, state: SchedulerState, env: Environment
    ) -> Tuple[int, int]:
        game = microservice_game(costs, state, env, self.penalties)
        equilibria = self._equilibria(game)
        # Pure equilibria always exist here (energy games are
        # coordination-like after the sentinel patch); if a mixed-only
        # solver missed them, fall back to the exhaustive pure search.
        if not equilibria:
            equilibria = pure_equilibria(game)
        self._last_equilibria = len(equilibria)
        return select_equilibrium(game, equilibria, costs)
