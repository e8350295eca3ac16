"""Textbook 2x2 games that exercise the solvers from several angles.

The prisoner's dilemma has one pure equilibrium, matching pennies one
mixed equilibrium only, and the coordination game two pure equilibria
and one mixed.
"""

import numpy as np

from repro.game import NormalFormGame


def prisoners_dilemma(
    reward: float = 3.0,
    temptation: float = 5.0,
    sucker: float = 0.0,
    punishment: float = 1.0,
) -> NormalFormGame:
    """The canonical 2×2 dilemma (row 0 / col 0 = cooperate).

    Requires ``temptation > reward > punishment > sucker`` so that
    defection strictly dominates yet mutual defection is Pareto-worse
    than mutual cooperation.
    """
    if not (temptation > reward > punishment > sucker):
        raise ValueError(
            "need temptation > reward > punishment > sucker, got "
            f"T={temptation}, R={reward}, P={punishment}, S={sucker}"
        )
    A = np.array([[reward, sucker], [temptation, punishment]])
    return NormalFormGame(
        A, A.T, row_labels=["cooperate", "defect"], col_labels=["cooperate", "defect"]
    )


def matching_pennies() -> NormalFormGame:
    """Zero-sum 2×2 with the unique mixed equilibrium (½, ½)."""
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NormalFormGame(A, row_labels=["heads", "tails"], col_labels=["heads", "tails"])


def coordination_game(a: float = 2.0, b: float = 1.0) -> NormalFormGame:
    """Pure coordination with two pure equilibria and one mixed."""
    if a <= 0 or b <= 0:
        raise ValueError("coordination payoffs must be positive")
    A = np.array([[a, 0.0], [0.0, b]])
    return NormalFormGame(A, A.copy())
