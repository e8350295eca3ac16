"""Support enumeration: all Nash equilibria of nondegenerate games.

For every pair of equal-size supports ``(I, J)`` the algorithm solves
the indifference conditions — the column player's mixture ``y`` must
make every row in ``I`` equally good (and no row outside better), and
symmetrically for ``x`` — then keeps the solutions that are valid
probability vectors satisfying the best-response inequalities.

This is the same algorithm Nashpy's ``support_enumeration`` uses, and
it is the reference solver for this library: Lemke–Howson and
fictitious play are validated against it in the test suite.

Complexity is exponential in the support size, which is irrelevant at
DEEP's scale (registries × devices is a handful of strategies).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .normal_form import Equilibrium, NormalFormGame


def _solve_indifference(
    payoffs: np.ndarray, support_own: Sequence[int], support_opp: Sequence[int]
) -> Optional[np.ndarray]:
    """Opponent mixture making ``support_own`` strategies indifferent.

    Solves for a vector ``p`` over ``support_opp`` with ``Σp = 1`` such
    that all strategies in ``support_own`` earn equal payoff.  Returns
    ``None`` when the system is singular or yields negatives.
    """
    k = len(support_opp)
    # Unknowns: p (k entries) and the common payoff u.
    rows: List[np.ndarray] = []
    rhs: List[float] = []
    for own in support_own:
        row = np.zeros(k + 1)
        row[:k] = payoffs[own, support_opp]
        row[k] = -1.0  # ... - u = 0
        rows.append(row)
        rhs.append(0.0)
    norm = np.zeros(k + 1)
    norm[:k] = 1.0
    rows.append(norm)
    rhs.append(1.0)
    system = np.asarray(rows)
    target = np.asarray(rhs)
    if system.shape[0] != system.shape[1]:
        # |support_own| != |support_opp| never reaches here (equal-size
        # enumeration), kept as a guard for direct calls.
        solution, residuals, rank, _ = np.linalg.lstsq(system, target, rcond=None)
        if rank < system.shape[1]:
            return None
        if not np.allclose(system @ solution, target, atol=1e-9):
            return None
    else:
        try:
            solution = np.linalg.solve(system, target)
        except np.linalg.LinAlgError:
            return None
    p = solution[:k]
    if np.any(p < -1e-10):
        return None
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        return None
    return p / total


def _expand(indices: Sequence[int], values: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[list(indices)] = values
    return out


def _obeys_support(strategy: np.ndarray, support: Sequence[int], tol: float) -> bool:
    """Positive exactly on the candidate support."""
    mask = np.zeros(len(strategy), dtype=bool)
    mask[list(support)] = True
    return bool(np.all(strategy[mask] > tol) and np.all(strategy[~mask] <= tol))


def support_enumeration(
    game: NormalFormGame, tol: float = 1e-10
) -> Iterator[Equilibrium]:
    """Yield all Nash equilibria found by support enumeration.

    For degenerate games the enumeration still yields every equilibrium
    with equal-size supports; degenerate components (continua) surface
    through their extreme points found by vertex enumeration instead.
    """
    m, n = game.shape
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                # y makes the row player's support rows indifferent.
                y = _solve_indifference(game.A, rows, cols)
                if y is None:
                    continue
                # x makes the column player's support cols indifferent
                # (transpose B so the same helper applies).
                x = _solve_indifference(game.B.T, cols, rows)
                if x is None:
                    continue
                full_x = _expand(rows, x, m)
                full_y = _expand(cols, y, n)
                if not _obeys_support(full_x, rows, tol):
                    continue
                if not _obeys_support(full_y, cols, tol):
                    continue
                if game.is_nash(full_x, full_y, tol=1e-8):
                    yield Equilibrium.of(game, full_x, full_y)


def all_equilibria(game: NormalFormGame) -> List[Equilibrium]:
    """Materialised list of support-enumeration equilibria."""
    return list(support_enumeration(game))
