"""Game constructors: prisoner's dilemma and DEEP's energy game."""

import numpy as np
import pytest

from repro.game import energy_game, pure_equilibria
from classic_games import coordination_game, matching_pennies, prisoners_dilemma


class TestPrisonersDilemma:
    def test_defection_is_unique_equilibrium(self):
        eqs = pure_equilibria(prisoners_dilemma())
        assert [e.pure_profile() for e in eqs] == [(1, 1)]

    def test_dilemma_structure(self):
        pd = prisoners_dilemma()
        # Mutual cooperation Pareto-dominates mutual defection...
        assert pd.A[0, 0] > pd.A[1, 1] and pd.B[0, 0] > pd.B[1, 1]
        # ...yet defection strictly dominates for both players.
        assert np.all(pd.A[1] > pd.A[0])
        assert np.all(pd.B[:, 1] > pd.B[:, 0])

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            prisoners_dilemma(reward=5.0, temptation=3.0)

    def test_symmetry(self):
        pd = prisoners_dilemma()
        np.testing.assert_allclose(pd.B, pd.A.T)


class TestClassics:
    def test_matching_pennies_zero_sum(self):
        g = matching_pennies()
        np.testing.assert_array_equal(g.A + g.B, 0.0)

    def test_coordination_validation(self):
        with pytest.raises(ValueError):
            coordination_game(a=0.0)


class TestEnergyGame:
    def test_payoffs_are_negated_energy(self):
        energy = np.array([[10.0, 20.0], [30.0, 40.0]])
        g = energy_game(energy)
        np.testing.assert_allclose(g.A, -energy)
        np.testing.assert_allclose(g.B, -energy)

    def test_labels_carried(self):
        g = energy_game(
            np.ones((2, 2)),
            row_labels=["hub", "regional"],
            col_labels=["medium", "small"],
        )
        assert g.row_labels == ["hub", "regional"]
        assert g.col_labels == ["medium", "small"]

    def test_penalties_split_players(self):
        energy = np.array([[10.0, 20.0], [30.0, 40.0]])
        row_pen = np.full((2, 2), 5.0)
        g = energy_game(energy, row_penalty=row_pen)
        np.testing.assert_allclose(g.A, -(energy + 5.0))
        np.testing.assert_allclose(g.B, -energy)

    def test_infeasible_sentinel_is_finite_but_bad(self):
        energy = np.array([[10.0, np.inf], [30.0, 40.0]])
        g = energy_game(energy)
        assert np.isfinite(g.A).all()
        assert g.A[0, 1] < g.A.min(where=np.isfinite(-energy), initial=0) \
            or g.A[0, 1] < -40.0

    def test_all_infeasible_rejected(self):
        with pytest.raises(ValueError):
            energy_game(np.full((2, 2), np.inf))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            energy_game(np.array([[np.nan, 1.0], [1.0, 1.0]]))

    def test_penalty_shape_checked(self):
        with pytest.raises(ValueError):
            energy_game(np.ones((2, 2)), row_penalty=np.ones((3, 2)))

    def test_penalty_can_create_dilemma(self):
        """With a big enough row penalty on the cheap registry, the
        equilibrium moves off the joint energy minimum — the
        cooperate/defect tension of Sec. III-E."""
        energy = np.array([[100.0, 200.0], [110.0, 210.0]])  # row 0 cheaper
        penalty = np.array([[50.0, 50.0], [0.0, 0.0]])  # row 0 congested
        g = energy_game(energy, row_penalty=penalty)
        profiles = [e.pure_profile() for e in pure_equilibria(g)]
        assert (1, 0) in profiles  # row player defects to registry 1
