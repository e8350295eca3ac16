"""DEEP and the baseline schedulers on the calibrated testbed."""

import pytest

from repro.core.baselines import (
    FixedRegistryScheduler,
    GreedyEnergyScheduler,
    GreedyTimeScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.core.games import PenaltyWeights
from repro.core.placement import PlacementError
from repro.core.scheduler import DeepScheduler, NashSolver
from repro.workloads.testbed import HUB_NAME, REGIONAL_NAME


class TestDeepScheduler:
    def test_full_coverage(self, video_app, env):
        result = DeepScheduler().schedule(video_app, env)
        result.plan.validate_against(video_app)
        assert len(result.records) == 6

    def test_energy_is_sum_of_records(self, video_app, env):
        result = DeepScheduler().schedule(video_app, env)
        assert result.total_energy_j == pytest.approx(
            sum(r.energy.total_j for r in result.records)
        )

    def test_deterministic(self, text_app, env):
        a = DeepScheduler().schedule(text_app, env)
        b = DeepScheduler().schedule(text_app, env)
        assert {x.service: (x.registry, x.device) for x in a.plan} == {
            x.service: (x.registry, x.device) for x in b.plan
        }

    def test_equilibria_found_everywhere(self, video_app, env):
        result = DeepScheduler().schedule(video_app, env)
        assert all(n >= 1 for n in result.equilibria_found.values())

    @pytest.mark.parametrize("solver", list(NashSolver))
    def test_all_solvers_cover_app(self, solver, text_app, env):
        result = DeepScheduler(solver).schedule(text_app, env)
        result.plan.validate_against(text_app)

    def test_zero_penalties_matches_greedy(self, video_app, env):
        deep = DeepScheduler(penalties=PenaltyWeights(0.0, 0.0)).schedule(
            video_app, env
        )
        greedy = GreedyEnergyScheduler().schedule(video_app, env)
        assert deep.total_energy_j == pytest.approx(greedy.total_energy_j)

    def test_deep_close_to_greedy_with_default_penalties(self, text_app, env):
        deep = DeepScheduler().schedule(text_app, env)
        greedy = GreedyEnergyScheduler().schedule(text_app, env)
        assert deep.total_energy_j <= greedy.total_energy_j * 1.02


class TestBaselines:
    def test_fixed_registry_pins_all(self, video_app, env):
        for registry in (HUB_NAME, REGIONAL_NAME):
            result = FixedRegistryScheduler(registry).schedule(video_app, env)
            assert all(a.registry == registry for a in result.plan)

    def test_unknown_registry_raises(self, video_app, env):
        with pytest.raises(PlacementError):
            FixedRegistryScheduler("ghost").schedule(video_app, env)

    def test_greedy_energy_never_worse_than_fixed(self, text_app, env):
        greedy = GreedyEnergyScheduler().schedule(text_app, env)
        for registry in (HUB_NAME, REGIONAL_NAME):
            fixed = FixedRegistryScheduler(registry).schedule(text_app, env)
            assert greedy.total_energy_j <= fixed.total_energy_j + 1e-9

    def test_greedy_time_minimises_completion(self, text_app, env):
        fast = GreedyTimeScheduler().schedule(text_app, env)
        slow = GreedyEnergyScheduler().schedule(text_app, env)
        assert fast.total_completion_s <= slow.total_completion_s + 1e-9

    def test_round_robin_spreads_devices(self, video_app, env):
        result = RoundRobinScheduler().schedule(video_app, env)
        devices = {a.device for a in result.plan}
        assert devices == {"medium", "small"}

    def test_random_is_seeded(self, video_app, env):
        from repro.sim.rng import RngRegistry

        a = RandomScheduler(RngRegistry(1)).schedule(video_app, env)
        b = RandomScheduler(RngRegistry(1)).schedule(video_app, env)
        assert {x.service: x.device for x in a.plan} == {
            x.service: x.device for x in b.plan
        }

    def test_random_is_feasible(self, video_app, env):
        result = RandomScheduler().schedule(video_app, env)
        result.plan.validate_against(video_app)
