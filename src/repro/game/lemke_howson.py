"""Lemke–Howson complementary pivoting.

Finds one Nash equilibrium of a bimatrix game per *dropped label* by
walking an edge path between the best-response polytopes

* ``P = {x ∈ R^m : x ≥ 0, Bᵀx ≤ 1}``  (row player, labels: ``x_i = 0``
  ↦ label *i*; tight column constraint *j* ↦ label *m + j*), and
* ``Q = {y ∈ R^n : Ay ≤ 1, y ≥ 0}``  (column player, labels: tight row
  constraint *i* ↦ label *i*; ``y_j = 0`` ↦ label *m + j*).

Payoff matrices are shifted positive first (equilibrium-invariant), so
both polytopes are bounded and the artificial vertex pair ``(0, 0)`` is
fully labelled.  Dropping a label and alternately pivoting until the
dropped label reappears terminates at an equilibrium vertex pair —
guaranteed for nondegenerate games; a pivot cap turns potential cycling
on degenerate inputs into an explicit error.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .normal_form import Equilibrium, NormalFormGame, dedupe_equilibria


class DegenerateGameError(RuntimeError):
    """Pivoting failed to terminate (degenerate game cycling)."""


class _Tableau:
    """A simplex tableau over one best-response polytope.

    ``columns`` maps each variable *label* to its column index.  Basic
    variables are tracked per row; pivoting keeps the invariant that
    each basic variable's column is a (positive multiple of a) unit
    vector.
    """

    def __init__(self, constraint: np.ndarray, var_labels: List[int], slack_labels: List[int]) -> None:
        rows, cols = constraint.shape
        if len(var_labels) != cols or len(slack_labels) != rows:
            raise ValueError("label count mismatch")
        self.table = np.hstack(
            [constraint, np.eye(rows), np.ones((rows, 1))]
        ).astype(float)
        self.labels = list(var_labels) + list(slack_labels)
        self.basic: List[int] = list(slack_labels)  # one per row

    @property
    def rhs(self) -> np.ndarray:
        return self.table[:, -1]

    def column_of(self, label: int) -> int:
        return self.labels.index(label)

    def pivot(self, entering_label: int) -> int:
        """Bring ``entering_label`` into the basis; return the leaver.

        Standard minimum-ratio test with smallest-index tie-breaking.
        """
        col = self.column_of(entering_label)
        column = self.table[:, col]
        positive = column > 1e-12
        if not positive.any():
            raise DegenerateGameError(
                f"unbounded pivot on label {entering_label}"
            )
        ratios = np.full(len(column), np.inf)
        ratios[positive] = self.rhs[positive] / column[positive]
        row = int(np.argmin(ratios))
        leaving_label = self.basic[row]
        # Normalise pivot row, then clear the column elsewhere.
        self.table[row] /= self.table[row, col]
        for r in range(self.table.shape[0]):
            if r != row and abs(self.table[r, col]) > 1e-14:
                self.table[r] -= self.table[r, col] * self.table[row]
        self.basic[row] = entering_label
        return leaving_label

    def solution(self, labels_of_interest: List[int], size: int, offset: int) -> np.ndarray:
        """Values of the original variables (basic → rhs, else 0)."""
        values = np.zeros(size)
        for row, label in enumerate(self.basic):
            if label in labels_of_interest:
                values[label - offset] = self.rhs[row]
        return values


def lemke_howson(
    game: NormalFormGame, dropped_label: int = 0, max_pivots: int = 10_000
) -> Equilibrium:
    """One equilibrium reached by dropping ``dropped_label``.

    Labels ``0..m-1`` are row strategies; ``m..m+n-1`` column
    strategies.  Different labels may reach different equilibria.
    """
    m, n = game.shape
    if not 0 <= dropped_label < m + n:
        raise ValueError(
            f"label {dropped_label} out of range [0, {m + n})"
        )
    positive = game.shifted_positive()
    row_labels = list(range(m))
    col_labels = list(range(m, m + n))
    # P-tableau: n constraints B^T x <= 1 over x (labels 0..m-1), slack
    # of constraint j carries label m+j.
    p_tab = _Tableau(positive.B.T, row_labels, col_labels)
    # Q-tableau: m constraints A y <= 1 over y (labels m..m+n-1), slack
    # of constraint i carries label i.
    q_tab = _Tableau(positive.A, col_labels, row_labels)

    # The dropped label is nonbasic in exactly one tableau at the
    # artificial vertex: row labels in P, column labels in Q.
    current, other = (p_tab, q_tab) if dropped_label < m else (q_tab, p_tab)
    entering = dropped_label
    for _ in range(max_pivots):
        leaving = current.pivot(entering)
        if leaving == dropped_label:
            break
        entering = leaving
        current, other = other, current
    else:
        raise DegenerateGameError(
            f"no termination within {max_pivots} pivots (label {dropped_label})"
        )

    x = p_tab.solution(row_labels, m, offset=0)
    y = q_tab.solution(col_labels, n, offset=m)
    if x.sum() <= 0 or y.sum() <= 0:
        raise DegenerateGameError(
            f"degenerate solution for dropped label {dropped_label}"
        )
    return Equilibrium.of(game, x / x.sum(), y / y.sum())


def lemke_howson_all(game: NormalFormGame) -> List[Equilibrium]:
    """Equilibria reached from every dropped label, deduplicated.

    Not guaranteed to find *all* equilibria (the LH path only reaches
    those connected to the artificial vertex) but cheap and usually
    sufficient; support enumeration remains the exhaustive reference.
    Labels whose paths fail on degeneracy are skipped.
    """
    found: List[Equilibrium] = []
    for label in range(sum(game.shape)):
        try:
            found.append(lemke_howson(game, label))
        except DegenerateGameError:
            continue
    return dedupe_equilibria(found)
