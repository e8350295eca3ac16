"""DEEP's core: cost tables, per-microservice games, the Nash scheduler
and the paper's baselines."""

from .baselines import (
    FixedRegistryScheduler,
    GreedyEnergyScheduler,
    GreedyTimeScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from .costs import CostMatrix, CostTable, SchedulerState
from .environment import Environment
from .games import (
    NO_PENALTIES,
    PenaltyWeights,
    build_penalties,
    microservice_game,
    select_equilibrium,
)
from .placement import Assignment, PlacementError, PlacementPlan
from .scheduler import DeepScheduler, NashSolver, ScheduleResult, SchedulerBase

__all__ = [
    "Assignment",
    "CostMatrix",
    "CostTable",
    "DeepScheduler",
    "Environment",
    "FixedRegistryScheduler",
    "GreedyEnergyScheduler",
    "GreedyTimeScheduler",
    "NO_PENALTIES",
    "NashSolver",
    "PenaltyWeights",
    "PlacementError",
    "PlacementPlan",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ScheduleResult",
    "SchedulerBase",
    "SchedulerState",
    "build_penalties",
    "microservice_game",
    "select_equilibrium",
]
