"""Game-theory substrate: the Nashpy replacement used by DEEP.

Solvers
-------
The scheduler and the A3 solver ablation run these four:

* :func:`pure_equilibria` — fast pure-strategy search (DEEP's fast path)
* :func:`support_enumeration` — exhaustive mixed equilibria (reference)
* :func:`lemke_howson` / :func:`lemke_howson_all` — complementary pivoting
* :func:`fictitious_play` — learning dynamics (ablation)
"""

from .dilemma import energy_game
from .fictitious_play import FictitiousPlayResult, exploitability, fictitious_play
from .lemke_howson import DegenerateGameError, lemke_howson, lemke_howson_all
from .normal_form import (
    Equilibrium,
    NormalFormGame,
    as_strategy,
    dedupe_equilibria,
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
    "dedupe_equilibria",
    "energy_game",
    "exploitability",
    "fictitious_play",
    "lemke_howson",
    "lemke_howson_all",
    "pure_equilibria",
    "support_enumeration",
]
