"""Property-based cross-validation of the Nash solvers (hypothesis).

These are the library's strongest correctness guarantees: on random
games, every solver's output must satisfy the best-response conditions,
and the independent algorithms must agree with each other.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.game import (
    NormalFormGame,
    all_equilibria,
    energy_game,
    fictitious_play,
    lemke_howson,
    lemke_howson_all,
    pure_equilibria,
)
from repro.game.lemke_howson import DegenerateGameError
from vertex_oracle import vertex_enumeration

payoff_entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def games(max_rows=4, max_cols=4):
    return st.integers(2, max_rows).flatmap(
        lambda m: st.integers(2, max_cols).flatmap(
            lambda n: st.tuples(
                arrays(np.float64, (m, n), elements=payoff_entries),
                arrays(np.float64, (m, n), elements=payoff_entries),
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(payoffs=games())
def test_support_enumeration_outputs_are_nash(payoffs):
    g = NormalFormGame(*payoffs)
    for eq in all_equilibria(g):
        assert g.is_nash(eq.row_strategy, eq.col_strategy, tol=1e-7)


@settings(max_examples=60, deadline=None)
@given(payoffs=games())
def test_pure_equilibria_are_nash_and_complete(payoffs):
    g = NormalFormGame(*payoffs)
    pure = {e.pure_profile() for e in pure_equilibria(g)}
    for eq in pure_equilibria(g):
        assert g.is_nash(eq.row_strategy, eq.col_strategy)
    # Completeness: every cell that passes the Nash test is found.
    for i in range(g.n_rows):
        for j in range(g.n_cols):
            if g.is_nash(i, j, tol=1e-12):
                assert (i, j) in pure


@settings(max_examples=40, deadline=None)
@given(payoffs=games(3, 3))
def test_lemke_howson_agrees_with_nash_test(payoffs):
    g = NormalFormGame(*payoffs)
    try:
        eq = lemke_howson(g, 0, max_pivots=500)
    except DegenerateGameError:
        assume(False)  # degenerate instances are out of LH's contract
    assert g.is_nash(eq.row_strategy, eq.col_strategy, tol=1e-5)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(payoffs=games(3, 3))
@example(payoffs=(
    np.array([[0.0, 3.0], [1.0, 2.0]]),
    np.array([[2.2250738585e-311, 3.0], [1.0, 2.0]]),
))
def test_vertex_and_support_enumeration_agree(payoffs):
    A, B = payoffs
    # The agreement guarantee holds for nondegenerate games only;
    # ties — and near-ties within solver tolerance (e.g. 0 vs 6.5e-9)
    # — in the payoff entries create equilibrium continua where the
    # two enumerations may pick different extreme points, so require
    # the entries to be well separated, not merely unique.
    def well_separated(matrix, eps=1e-4):
        flat = np.sort(matrix.ravel())
        return bool(np.all(np.diff(flat) > eps))

    assume(well_separated(A) and well_separated(B))
    g = NormalFormGame(A, B)
    se = all_equilibria(g)
    ve = vertex_enumeration(g)
    for eq in se:
        assert any(eq.close_to(other, tol=1e-5) for other in ve)


@settings(max_examples=30, deadline=None)
@given(matrix=arrays(np.float64, (2, 2), elements=payoff_entries))
def test_fictitious_play_low_exploitability_zero_sum(matrix):
    g = NormalFormGame(matrix)  # zero-sum: FP converges
    result = fictitious_play(g, iterations=3000)
    # Robinson's theorem: empirical play converges; allow loose epsilon.
    span = float(np.ptp(matrix)) or 1.0
    assert result.exploitability <= 0.15 * span + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    energy=arrays(
        np.float64,
        (2, 2),
        elements=st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False),
    )
)
def test_energy_game_min_cell_is_always_an_equilibrium(energy):
    """DEEP's key invariant: without penalties the joint energy minimum
    is a Nash equilibrium of the constructed game."""
    g = energy_game(energy)
    i, j = np.unravel_index(int(np.argmin(energy)), energy.shape)
    assert g.is_nash(int(i), int(j))


@settings(max_examples=40, deadline=None)
@given(
    energy=arrays(
        np.float64,
        (2, 3),
        elements=st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False),
    ),
    infeasible_row=st.integers(0, 1),
)
def test_energy_game_infeasible_cells_never_chosen(energy, infeasible_row):
    cost = energy.copy()
    cost[infeasible_row, :] = np.inf
    g = energy_game(cost)
    for eq in pure_equilibria(g):
        i, j = eq.pure_profile()
        assert i != infeasible_row
