"""Game-theory substrate: the Nashpy replacement used by DEEP.

Solvers
-------
The scheduler and the A3 solver ablation run these four:

* :func:`pure_equilibria` — fast pure-strategy search (DEEP's fast path)
* :func:`support_enumeration` — exhaustive mixed equilibria (reference)
* :func:`lemke_howson` / :func:`lemke_howson_all` — complementary pivoting
* :func:`fictitious_play` — learning dynamics (ablation)
"""

from .dilemma import (
    coordination_game,
    energy_game,
    matching_pennies,
    prisoners_dilemma,
)
from .fictitious_play import FictitiousPlayResult, exploitability, fictitious_play
from .lemke_howson import DegenerateGameError, lemke_howson, lemke_howson_all
from .normal_form import (
    Equilibrium,
    NormalFormGame,
    as_strategy,
    dedupe_equilibria,
    support,
)
from .pure import pure_equilibria
from .support_enumeration import all_equilibria, support_enumeration

__all__ = [
    "DegenerateGameError",
    "Equilibrium",
    "FictitiousPlayResult",
    "NormalFormGame",
    "all_equilibria",
    "as_strategy",
    "coordination_game",
    "dedupe_equilibria",
    "energy_game",
    "exploitability",
    "fictitious_play",
    "lemke_howson",
    "lemke_howson_all",
    "matching_pennies",
    "prisoners_dilemma",
    "pure_equilibria",
    "support",
    "support_enumeration",
]
