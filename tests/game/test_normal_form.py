"""NormalFormGame primitives: payoffs, best responses, Nash test."""

import numpy as np
import pytest

from repro.game import NormalFormGame, as_strategy
from repro.game.normal_form import Equilibrium, dedupe_equilibria


@pytest.fixture
def pd():
    A = np.array([[3.0, 0.0], [5.0, 1.0]])
    return NormalFormGame(A, A.T)


class TestConstruction:
    def test_zero_sum_default(self):
        g = NormalFormGame([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_array_equal(g.B, -g.A)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            NormalFormGame([[1.0, 2.0]], [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NormalFormGame([[np.inf, 1.0], [0.0, 1.0]])

    def test_labels_default_to_indices(self, pd):
        assert pd.row_labels == ["0", "1"]

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            NormalFormGame([[1.0, 2.0]], row_labels=["a", "b"])


class TestStrategies:
    def test_pure_index_to_one_hot(self):
        s = as_strategy(1, 3)
        assert list(s) == [0.0, 1.0, 0.0]

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            as_strategy(3, 3)

    def test_mixed_validated(self):
        s = as_strategy([0.25, 0.75], 2)
        assert s.sum() == pytest.approx(1.0)

    def test_non_normalised_rejected(self):
        with pytest.raises(ValueError):
            as_strategy([0.5, 0.2], 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            as_strategy([1.5, -0.5], 2)


class TestPayoffs:
    def test_pure_payoffs(self, pd):
        assert pd.payoffs(0, 1) == (0.0, 5.0)
        assert pd.payoffs(1, 1) == (1.0, 1.0)

    def test_mixed_payoffs(self, pd):
        u, v = pd.payoffs([0.5, 0.5], [0.5, 0.5])
        assert u == pytest.approx((3 + 0 + 5 + 1) / 4)
        assert v == pytest.approx((3 + 5 + 0 + 1) / 4)

    def test_payoff_vectors(self, pd):
        np.testing.assert_allclose(pd.row_payoff_vector(0), [3.0, 5.0])
        np.testing.assert_allclose(pd.col_payoff_vector(0), [3.0, 5.0])


class TestBestResponse:
    def test_is_nash_on_pd(self, pd):
        assert pd.is_nash(1, 1)
        assert not pd.is_nash(0, 0)  # mutual cooperation is not Nash

    def test_mixed_nash_matching_pennies(self):
        g = NormalFormGame([[1.0, -1.0], [-1.0, 1.0]])
        assert g.is_nash([0.5, 0.5], [0.5, 0.5])
        # Against a biased row, the column player strictly prefers one
        # side, so the profile fails the mutual-best-response test.
        assert not g.is_nash([0.6, 0.4], [0.5, 0.5])


class TestTransformations:
    def test_shift_preserves_equilibria(self, pd):
        shifted = pd.shifted_positive()
        assert shifted.A.min() > 0 and shifted.B.min() > 0
        assert shifted.is_nash(1, 1)
        assert not shifted.is_nash(0, 0)


class TestEquilibriumObject:
    def test_of_computes_payoffs(self, pd):
        eq = Equilibrium.of(pd, 1, 1)
        assert eq.row_payoff == 1.0 and eq.col_payoff == 1.0
        assert eq.pure_profile() == (1, 1)

    def test_dedupe(self, pd):
        a = Equilibrium.of(pd, 1, 1)
        b = Equilibrium.of(pd, 1, 1)
        c = Equilibrium.of(pd, 0, 0)
        assert len(dedupe_equilibria([a, b, c])) == 2
