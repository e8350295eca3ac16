"""Individual solver behaviour on classic games."""

import warnings

import numpy as np
import pytest

from repro.game import (
    NormalFormGame,
    all_equilibria,
    exploitability,
    fictitious_play,
    lemke_howson,
    lemke_howson_all,
    pure_equilibria,
)
from classic_games import coordination_game, matching_pennies, prisoners_dilemma
from vertex_oracle import polytope_vertices, vertex_enumeration


class TestPure:
    def test_pd_unique_pure_ne(self):
        eqs = pure_equilibria(prisoners_dilemma())
        assert len(eqs) == 1 and eqs[0].pure_profile() == (1, 1)

    def test_matching_pennies_no_pure(self):
        assert pure_equilibria(matching_pennies()) == []

    def test_coordination_two_pure(self):
        profiles = {e.pure_profile() for e in pure_equilibria(coordination_game())}
        assert profiles == {(0, 0), (1, 1)}


class TestSupportEnumeration:
    def test_matching_pennies_mixed(self):
        eqs = all_equilibria(matching_pennies())
        assert len(eqs) == 1
        np.testing.assert_allclose(eqs[0].row_strategy, [0.5, 0.5])

    def test_coordination_three_equilibria(self):
        eqs = all_equilibria(coordination_game(2.0, 1.0))
        assert len(eqs) == 3
        mixed = [e for e in eqs if e.row_strategy.max() < 1.0 - 1e-9]
        assert len(mixed) == 1
        # Mixed equilibrium of a 2x2 coordination game: p = b/(a+b).
        np.testing.assert_allclose(mixed[0].row_strategy, [1 / 3, 2 / 3])

    def test_asymmetric_shapes(self):
        g = NormalFormGame(np.arange(6.0).reshape(2, 3))
        for eq in all_equilibria(g):
            assert g.is_nash(eq.row_strategy, eq.col_strategy)

    def test_all_returned_are_nash(self):
        for seed, shape in ((3, (4, 4)), (42, (4, 6))):
            rng = np.random.default_rng(seed)
            g = NormalFormGame(rng.normal(size=shape), rng.normal(size=shape))
            eqs = all_equilibria(g)
            assert eqs, "random nondegenerate game must have >= 1 NE"
            for eq in eqs:
                assert g.is_nash(eq.row_strategy, eq.col_strategy)


class TestLemkeHowson:
    def test_pd(self):
        assert lemke_howson(prisoners_dilemma(), 0).pure_profile() == (1, 1)

    def test_matching_pennies_all_labels(self):
        g = matching_pennies()
        for label in range(4):
            eq = lemke_howson(g, label)
            np.testing.assert_allclose(eq.row_strategy, [0.5, 0.5], atol=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            lemke_howson(matching_pennies(), 4)

    def test_all_labels_dedup(self):
        eqs = lemke_howson_all(coordination_game())
        assert 1 <= len(eqs) <= 3
        g = coordination_game()
        for eq in eqs:
            assert g.is_nash(eq.row_strategy, eq.col_strategy)

    def test_bigger_game_is_nash(self):
        for seed, shape in ((11, (5, 4)), (42, (4, 6))):
            rng = np.random.default_rng(seed)
            g = NormalFormGame(rng.normal(size=shape), rng.normal(size=shape))
            eq = lemke_howson(g, 0)
            assert g.is_nash(eq.row_strategy, eq.col_strategy, tol=1e-6)


class TestVertexEnumeration:
    def test_matches_support_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            g = NormalFormGame(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
            se = all_equilibria(g)
            ve = vertex_enumeration(g)
            assert len(se) == len(ve)
            for eq in ve:
                assert any(eq.close_to(other, tol=1e-6) for other in se)

    def test_subnormal_payoff_stays_finite(self):
        # A subnormal payoff makes one basis solve overflow to inf
        # without raising LinAlgError; that candidate must be skipped,
        # not fed into the feasibility test as inf * 0 = nan.
        g = NormalFormGame(
            np.array([[0.0, 3.0], [1.0, 2.0]]),
            np.array([[2.2250738585e-311, 3.0], [1.0, 2.0]]),
        )
        with np.errstate(invalid="raise"):
            ve = vertex_enumeration(g)
        for eq in all_equilibria(g):
            assert any(eq.close_to(other, tol=1e-6) for other in ve)

    def test_huge_finite_basis_is_skipped_without_warning(self):
        # Row 0 with x0 >= 0 tight solves to the finite point
        # (0, 5e307), whose product with row 1 overflows; that basis
        # must be skipped quietly, like one whose solve overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vertices = polytope_vertices(
                np.array([[1e-308, 2.0], [3.0, 1e308]]),
                np.array([1e308, 1.0]),
            )
        assert sorted(labels for _point, labels in vertices) == sorted(
            [frozenset({1, 2, 3}), frozenset({1, 3}), frozenset({2, 3})]
        )


class TestFictitiousPlay:
    def test_converges_on_matching_pennies(self):
        result = fictitious_play(matching_pennies(), iterations=5000)
        np.testing.assert_allclose(result.row_empirical, [0.5, 0.5], atol=0.05)
        assert result.exploitability < 0.05

    def test_converges_on_pd(self):
        result = fictitious_play(prisoners_dilemma(), iterations=500)
        assert result.row_empirical[1] > 0.95  # defect

    def test_early_out_on_tolerance(self):
        result = fictitious_play(
            prisoners_dilemma(), iterations=100_000, tolerance=0.05
        )
        assert result.iterations < 100_000
        assert result.converged

    def test_exploitability_zero_at_nash(self):
        g = matching_pennies()
        assert exploitability(
            g, np.array([0.5, 0.5]), np.array([0.5, 0.5])
        ) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        a = fictitious_play(coordination_game(), iterations=200)
        b = fictitious_play(coordination_game(), iterations=200)
        np.testing.assert_array_equal(a.row_empirical, b.row_empirical)

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            fictitious_play(matching_pennies(), iterations=0)
