"""Fictitious play: learning dynamics converging to equilibrium play.

Each round both players best-respond to the opponent's *empirical*
mixture of past play.  The empirical averages converge to a Nash
equilibrium for zero-sum, 2×N, and potential games — which covers the
aligned-payoff games DEEP constructs — and the run records enough
history to expose convergence behaviour in the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .normal_form import Equilibrium, NormalFormGame


@dataclass
class FictitiousPlayResult:
    """Outcome of a fictitious-play run."""

    row_empirical: np.ndarray
    col_empirical: np.ndarray
    iterations: int
    converged: bool
    #: max payoff either player could gain by deviating from the
    #: empirical mixtures (the ε of the ε-equilibrium reached).
    exploitability: float

    def equilibrium(self, game: NormalFormGame) -> Equilibrium:
        return Equilibrium.of(game, self.row_empirical, self.col_empirical)


def exploitability(game: NormalFormGame, x: np.ndarray, y: np.ndarray) -> float:
    """Max unilateral gain over the profile ``(x, y)`` — 0 iff Nash."""
    row_u, col_u = game.payoffs(x, y)
    best_row = float(game.row_payoff_vector(y).max())
    best_col = float(game.col_payoff_vector(x).max())
    return max(best_row - row_u, best_col - col_u)


def fictitious_play(
    game: NormalFormGame,
    iterations: int = 2000,
    tolerance: float = 1e-3,
) -> FictitiousPlayResult:
    """Run discrete fictitious play.

    Parameters
    ----------
    iterations:
        Hard cap on rounds.
    tolerance:
        Early-out when exploitability of the empirical profile drops
        below this (checked every 25 rounds).

    Both players open with action 0, and ties in best response are
    broken towards the lowest index, making the dynamics fully
    deterministic.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    m, n = game.shape
    row_counts = np.zeros(m)
    col_counts = np.zeros(n)
    row_counts[0] += 1
    col_counts[0] += 1

    done = iterations
    converged = False
    for step in range(1, iterations):
        # Best responses to the opponent's empirical distribution.
        y_hat = col_counts / col_counts.sum()
        x_hat = row_counts / row_counts.sum()
        row_action = int(np.argmax(game.A @ y_hat))
        col_action = int(np.argmax(x_hat @ game.B))
        row_counts[row_action] += 1
        col_counts[col_action] += 1
        if step % 25 == 0:
            eps = exploitability(
                game, row_counts / row_counts.sum(), col_counts / col_counts.sum()
            )
            if eps <= tolerance:
                done = step + 1
                converged = True
                break

    x = row_counts / row_counts.sum()
    y = col_counts / col_counts.sum()
    eps = exploitability(game, x, y)
    return FictitiousPlayResult(
        row_empirical=x,
        col_empirical=y,
        iterations=done,
        converged=converged or eps <= tolerance,
        exploitability=eps,
    )
