"""Reference solver for the Nash tests: vertex enumeration over the
best-response polytopes.

Every Nash equilibrium of a nondegenerate bimatrix game corresponds to
a *fully labelled* pair of vertices of the polytopes

* ``P = {x ≥ 0, Bᵀx ≤ 1}``  and  ``Q = {y ≥ 0, Ay ≤ 1}``

(payoffs shifted positive).  We enumerate the vertices of each polytope
by brute-force basis enumeration — choose dim-many constraints, solve,
keep feasible points — collect each vertex's label set, and match pairs
whose labels cover ``{0, …, m+n−1}``.

Cubic-ish in the number of constraint subsets, fine for the small games
DEEP builds, and a genuinely independent implementation to cross-check
support enumeration against.  Nothing in the library runs it; it stays
here as that oracle.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, List, Tuple

import numpy as np

from repro.game.normal_form import (
    Equilibrium,
    NormalFormGame,
    dedupe_equilibria,
)

_TOL = 1e-9


def polytope_vertices(
    halfspace_matrix: np.ndarray, rhs: np.ndarray
) -> List[Tuple[np.ndarray, FrozenSet[int]]]:
    """Vertices of ``{z : Mz ≤ b, z ≥ 0}`` with their tight-label sets.

    Constraint indices double as labels: row ``r`` of ``M`` carries
    label ``r``; the non-negativity constraint on coordinate ``k``
    carries label ``n_constraints + k``.  Returns (vertex, labels)
    pairs, excluding the origin's degenerate duplicates.
    """
    n_constraints, dim = halfspace_matrix.shape
    # Stack the polytope constraints with coordinate non-negativity so
    # any dim-subset of tight constraints pins a candidate vertex.
    full_m = np.vstack([halfspace_matrix, -np.eye(dim)])
    full_b = np.concatenate([rhs, np.zeros(dim)])
    vertices: List[Tuple[np.ndarray, FrozenSet[int]]] = []
    for active in combinations(range(len(full_b)), dim):
        system = full_m[list(active)]
        target = full_b[list(active)]
        try:
            point = np.linalg.solve(system, target)
        except np.linalg.LinAlgError:
            continue
        # A near-singular basis (e.g. a subnormal payoff) can overflow
        # to inf without raising; it pins no vertex.
        if not np.all(np.isfinite(point)):
            continue
        if np.any(full_m @ point > full_b + _TOL):
            continue  # infeasible
        labels = frozenset(
            int(i) for i in np.flatnonzero(full_m @ point >= full_b - _TOL)
        )
        vertices.append((point, labels))
    return vertices


def vertex_enumeration(game: NormalFormGame) -> List[Equilibrium]:
    """All equilibria found by fully-labelled vertex pairs."""
    m, n = game.shape
    positive = game.shifted_positive()
    # P lives in R^m: B^T x <= 1 (labels m..m+n-1 after remap), x >= 0
    # (labels 0..m-1).  polytope_vertices labels constraints first, so
    # remap: constraint j -> label m+j, nonneg k -> label k.
    p_vertices = []
    for point, raw in polytope_vertices(positive.B.T, np.ones(n)):
        if point.sum() <= _TOL:
            continue  # origin: not a strategy
        labels = frozenset(
            (m + r) if r < n else (r - n) for r in raw
        )
        p_vertices.append((point, labels))
    # Q lives in R^n: A y <= 1 (constraint i -> label i), y >= 0
    # (nonneg k at raw index m+k -> label m+k): raw indices equal labels.
    q_vertices = []
    for point, raw in polytope_vertices(positive.A, np.ones(m)):
        if point.sum() <= _TOL:
            continue
        q_vertices.append((point, frozenset(raw)))

    everything = frozenset(range(m + n))
    found: List[Equilibrium] = []
    for x, x_labels in p_vertices:
        for y, y_labels in q_vertices:
            if x_labels | y_labels == everything:
                # Basis solves can leave coordinates a hair below zero
                # (within the feasibility tolerance); normalising then
                # amplifies them past the strategy validator.  Clip
                # before normalising.
                x_pos = np.clip(x, 0.0, None)
                y_pos = np.clip(y, 0.0, None)
                candidate = Equilibrium.of(
                    game, x_pos / x_pos.sum(), y_pos / y_pos.sum()
                )
                if game.is_nash(
                    candidate.row_strategy, candidate.col_strategy, tol=1e-8
                ):
                    found.append(candidate)
    return dedupe_equilibria(found)
