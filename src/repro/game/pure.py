"""Pure-strategy Nash equilibria.

Pure equilibria are what DEEP ultimately deploys (a microservice is
pulled from exactly one registry onto exactly one device), so the pure
solver is the fast path; the mixed solvers handle the general case and
validate it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .normal_form import Equilibrium, NormalFormGame


def pure_equilibria(game: NormalFormGame, tol: float = 1e-9) -> List[Equilibrium]:
    """All pure-strategy Nash equilibria, row-major order.

    A cell ``(i, j)`` is an equilibrium iff ``A[i, j]`` is maximal in
    its column and ``B[i, j]`` maximal in its row — computed with two
    vectorised comparisons rather than per-cell loops.
    """
    A, B = game.A, game.B
    row_best = A >= A.max(axis=0, keepdims=True) - tol
    col_best = B >= B.max(axis=1, keepdims=True) - tol
    cells = np.argwhere(row_best & col_best)
    return [Equilibrium.of(game, int(i), int(j)) for i, j in cells]

