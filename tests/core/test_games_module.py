"""DEEP's per-microservice game construction and equilibrium selection."""

import numpy as np
import pytest

from repro.core.costs import CostMatrix, SchedulerState
from repro.core.games import (
    PenaltyWeights,
    build_penalties,
    microservice_game,
    select_equilibrium,
)
from repro.game import Equilibrium, all_equilibria
from repro.model.units import gb_to_bytes


def make_costs(energy, feasible=None):
    energy = np.asarray(energy, dtype=float)
    if feasible is None:
        feasible = np.isfinite(energy)
    return CostMatrix(
        service="svc",
        registries=["hub", "regional"][: energy.shape[0]],
        devices=["medium", "small"][: energy.shape[1]],
        energy_j=energy,
        completion_s=energy / 10.0,
        feasible=np.asarray(feasible, dtype=bool),
    )


class TestPenaltyWeights:
    def test_defaults_are_mild(self):
        weights = PenaltyWeights()
        assert 0 < weights.registry_contention_j_per_gb < 1.0
        assert 0 < weights.device_occupancy_factor < 0.1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PenaltyWeights(registry_contention_j_per_gb=-1.0)
        with pytest.raises(ValueError):
            PenaltyWeights(device_occupancy_factor=-0.1)


class TestBuildPenalties:
    def test_registry_penalty_scales_with_served_bytes(self, env):
        costs = make_costs([[100.0, 200.0], [110.0, 190.0]])
        state = SchedulerState()
        state.registry_bytes["hub"] = gb_to_bytes(10.0)
        row, col = build_penalties(
            costs, state, env, PenaltyWeights(2.0, 0.0)
        )
        assert row[0, 0] == pytest.approx(20.0)  # hub row, 10 GB * 2 J/GB
        assert row[1, 0] == 0.0  # regional served nothing yet
        assert np.all(col == 0.0)

    def test_device_penalty_scales_with_busy_time(self, env):
        costs = make_costs([[100.0, 200.0], [110.0, 190.0]])
        state = SchedulerState()
        state.busy_s["medium"] = 100.0
        row, col = build_penalties(
            costs, state, env, PenaltyWeights(0.0, 0.5)
        )
        static = env.device("medium").power.static_watts
        assert col[0, 0] == pytest.approx(0.5 * 100.0 * static)
        assert col[0, 1] == 0.0


class TestMicroserviceGame:
    def test_no_penalty_game_is_symmetric(self):
        costs = make_costs([[100.0, 200.0], [110.0, 190.0]])
        game = microservice_game(costs)
        np.testing.assert_allclose(game.A, game.B)
        np.testing.assert_allclose(game.A, -costs.energy_j)

    def test_labels_are_registry_device_names(self):
        costs = make_costs([[1.0, 2.0], [3.0, 4.0]])
        game = microservice_game(costs)
        assert game.row_labels == ["hub", "regional"]
        assert game.col_labels == ["medium", "small"]

    def test_penalties_require_context(self):
        costs = make_costs([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            microservice_game(costs, weights=PenaltyWeights(1.0, 1.0))

    def test_min_energy_cell_is_equilibrium(self):
        costs = make_costs([[100.0, 200.0], [110.0, 190.0]])
        game = microservice_game(costs)
        assert game.is_nash(0, 0)  # (hub, medium) = 100 J minimum


class TestSelectEquilibrium:
    def test_picks_min_energy_equilibrium(self):
        costs = make_costs([[100.0, 200.0], [110.0, 190.0]])
        game = microservice_game(costs)
        choice = select_equilibrium(game, all_equilibria(game), costs)
        assert choice == (0, 0)

    def test_empty_equilibria_falls_back_to_best_cell(self):
        costs = make_costs([[100.0, 50.0], [110.0, 190.0]])
        game = microservice_game(costs)
        assert select_equilibrium(game, [], costs) == (0, 1)

    def test_infeasible_modal_profile_redirected(self):
        # Feasible only on the diagonal; craft a mixed equilibrium whose
        # modal profile is infeasible.
        energy = np.array([[100.0, np.inf], [np.inf, 120.0]])
        costs = make_costs(energy)
        game = microservice_game(costs)
        mixed = Equilibrium.of(game, [0.4, 0.6], [0.9, 0.1])
        g, d = select_equilibrium(game, [mixed], costs)
        assert costs.feasible[g, d]

    def test_among_two_pure_equilibria_lower_energy_wins(self):
        # Coordination structure with two pure equilibria.
        energy = np.array([[100.0, 500.0], [500.0, 150.0]])
        costs = make_costs(energy)
        game = microservice_game(costs)
        equilibria = all_equilibria(game)
        assert len(equilibria) >= 2
        assert select_equilibrium(game, equilibria, costs) == (0, 0)
