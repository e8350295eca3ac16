"""Two-player normal-form (bimatrix) games.

This is the core of the Nashpy stand-in: a :class:`NormalFormGame`
holds the row player's payoff matrix ``A`` and the column player's
``B`` (both ``m × n``, entries are *utilities to maximise*), and
provides the primitive queries every solver builds on — expected
payoffs, best responses, and the ε-Nash test.

Strategies are numpy probability vectors.  Pure strategies are
represented by their index or by one-hot vectors; helpers convert
between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_TOL = 1e-9


def as_strategy(value, size: int) -> np.ndarray:
    """Coerce an index / sequence into a validated mixed strategy."""
    if np.isscalar(value) and not isinstance(value, (list, tuple, np.ndarray)):
        index = int(value)
        if not 0 <= index < size:
            raise ValueError(f"pure strategy index {index} out of range [0,{size})")
        strategy = np.zeros(size)
        strategy[index] = 1.0
        return strategy
    strategy = np.asarray(value, dtype=float)
    if strategy.shape != (size,):
        raise ValueError(f"strategy shape {strategy.shape} != ({size},)")
    if np.any(strategy < -DEFAULT_TOL):
        raise ValueError(f"negative probabilities in {strategy}")
    total = strategy.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"strategy sums to {total}, expected 1")
    return np.clip(strategy, 0.0, None) / strategy.sum()


def support(strategy: np.ndarray, tol: float = DEFAULT_TOL) -> Tuple[int, ...]:
    """Indices played with positive probability."""
    return tuple(int(i) for i in np.flatnonzero(strategy > tol))


class NormalFormGame:
    """A bimatrix game ``(A, B)``.

    Parameters
    ----------
    row_payoffs:
        ``m × n`` matrix ``A``; entry ``A[i, j]`` is the row player's
        utility when row ``i`` meets column ``j``.
    col_payoffs:
        ``m × n`` matrix ``B`` for the column player.  Omitted →
        zero-sum (``B = -A``).
    row_labels / col_labels:
        Optional human-readable strategy names (used by DEEP to map
        equilibria back to registries and devices).
    """

    def __init__(
        self,
        row_payoffs,
        col_payoffs=None,
        row_labels: Optional[Sequence[str]] = None,
        col_labels: Optional[Sequence[str]] = None,
    ) -> None:
        self.A = np.asarray(row_payoffs, dtype=float)
        if self.A.ndim != 2:
            raise ValueError(f"payoff matrix must be 2-D, got shape {self.A.shape}")
        if self.A.size == 0:
            raise ValueError("payoff matrix must be non-empty")
        self.B = -self.A if col_payoffs is None else np.asarray(col_payoffs, float)
        if self.B.shape != self.A.shape:
            raise ValueError(
                f"payoff shapes differ: A{self.A.shape} vs B{self.B.shape}"
            )
        if not (np.isfinite(self.A).all() and np.isfinite(self.B).all()):
            raise ValueError("payoffs must be finite")
        m, n = self.A.shape
        self.row_labels = list(row_labels) if row_labels else [str(i) for i in range(m)]
        self.col_labels = list(col_labels) if col_labels else [str(j) for j in range(n)]
        if len(self.row_labels) != m or len(self.col_labels) != n:
            raise ValueError("label count mismatch with payoff shape")

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return self.A.shape

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    @property
    def n_cols(self) -> int:
        return self.A.shape[1]

    # ------------------------------------------------------------------
    # payoffs
    # ------------------------------------------------------------------
    def payoffs(self, row_strategy, col_strategy) -> Tuple[float, float]:
        """Expected (row, column) utilities under mixed strategies."""
        x = as_strategy(row_strategy, self.n_rows)
        y = as_strategy(col_strategy, self.n_cols)
        return float(x @ self.A @ y), float(x @ self.B @ y)

    def row_payoff_vector(self, col_strategy) -> np.ndarray:
        """Row player's utility of each pure row vs ``col_strategy``."""
        y = as_strategy(col_strategy, self.n_cols)
        return self.A @ y

    def col_payoff_vector(self, row_strategy) -> np.ndarray:
        """Column player's utility of each pure column vs ``row_strategy``."""
        x = as_strategy(row_strategy, self.n_rows)
        return x @ self.B

    # ------------------------------------------------------------------
    # best responses
    # ------------------------------------------------------------------
    def row_best_responses(self, col_strategy, tol: float = 1e-9) -> List[int]:
        """Pure rows maximising utility against ``col_strategy``."""
        utilities = self.row_payoff_vector(col_strategy)
        best = utilities.max()
        return [int(i) for i in np.flatnonzero(utilities >= best - tol)]

    def is_best_response_row(self, row_strategy, col_strategy, tol=1e-8) -> bool:
        """Is ``row_strategy`` optimal against ``col_strategy``?

        A mixed strategy is a best response iff its support lies within
        the pure best-response set.
        """
        x = as_strategy(row_strategy, self.n_rows)
        utilities = self.row_payoff_vector(col_strategy)
        best = utilities.max()
        return bool(np.all(utilities[np.flatnonzero(x > tol)] >= best - tol))

    def is_best_response_col(self, row_strategy, col_strategy, tol=1e-8) -> bool:
        y = as_strategy(col_strategy, self.n_cols)
        utilities = self.col_payoff_vector(row_strategy)
        best = utilities.max()
        return bool(np.all(utilities[np.flatnonzero(y > tol)] >= best - tol))

    def is_nash(self, row_strategy, col_strategy, tol: float = 1e-8) -> bool:
        """ε-Nash test: both strategies mutual best responses."""
        return self.is_best_response_row(
            row_strategy, col_strategy, tol
        ) and self.is_best_response_col(row_strategy, col_strategy, tol)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def shifted_positive(self) -> "NormalFormGame":
        """Payoffs translated to be strictly positive (NE-invariant).

        Lemke–Howson's polytope construction requires positive
        matrices; adding a constant to all of one player's payoffs does
        not change best responses, hence not the equilibria.
        """
        shift_a = 1.0 - self.A.min() if self.A.min() <= 0 else 0.0
        shift_b = 1.0 - self.B.min() if self.B.min() <= 0 else 0.0
        return NormalFormGame(
            self.A + shift_a, self.B + shift_b, self.row_labels, self.col_labels
        )

    def transpose(self) -> "NormalFormGame":
        """Swap the players (useful for symmetric solver code paths)."""
        return NormalFormGame(
            self.B.T, self.A.T, self.col_labels, self.row_labels
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NormalFormGame(shape={self.shape})"


@dataclass(frozen=True)
class Equilibrium:
    """A (possibly mixed) Nash equilibrium with its expected payoffs."""

    row_strategy: np.ndarray
    col_strategy: np.ndarray
    row_payoff: float
    col_payoff: float

    @classmethod
    def of(cls, game: NormalFormGame, row_strategy, col_strategy) -> "Equilibrium":
        x = as_strategy(row_strategy, game.n_rows)
        y = as_strategy(col_strategy, game.n_cols)
        u, v = game.payoffs(x, y)
        return cls(x, y, u, v)

    @property
    def is_pure(self) -> bool:
        return len(support(self.row_strategy)) == 1 and len(
            support(self.col_strategy)
        ) == 1

    def pure_profile(self) -> Tuple[int, int]:
        """(row, col) indices of the modal pure profile.

        For pure equilibria this is exact; for mixed ones it is the
        most probable joint outcome (how DEEP resolves mixing into a
        concrete deployment decision).
        """
        return (
            int(np.argmax(self.row_strategy)),
            int(np.argmax(self.col_strategy)),
        )

    def close_to(self, other: "Equilibrium", tol: float = 1e-6) -> bool:
        return bool(
            np.allclose(self.row_strategy, other.row_strategy, atol=tol)
            and np.allclose(self.col_strategy, other.col_strategy, atol=tol)
        )


def dedupe_equilibria(
    equilibria: Iterable[Equilibrium], tol: float = 1e-6
) -> List[Equilibrium]:
    """Drop near-duplicate equilibria (solvers can find the same point)."""
    unique: List[Equilibrium] = []
    for eq in equilibria:
        if not any(eq.close_to(seen, tol) for seen in unique):
            unique.append(eq)
    return unique
