"""End-to-end property tests on random synthetic instances.

Hypothesis drives the whole stack — generator → scheduler →
orchestrator → meters — and checks the invariants that must hold for
*every* instance, not just the paper's two applications.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import GreedyEnergyScheduler
from repro.core.scheduler import DeepScheduler
from repro.core.costs import CostTable, SchedulerState
from repro.sim.rng import RngRegistry
from repro.workloads.synthetic import (
    SyntheticConfig,
    synthetic_application,
    synthetic_environment,
)


def make_instance(seed: int, n_devices: int, layers: int, width: int):
    rng = RngRegistry(seed)
    env = synthetic_environment(n_devices, rng)
    app = synthetic_application(
        f"prop-{seed}", SyntheticConfig(layers=layers, width=width), rng
    )
    return env, app


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_devices=st.integers(2, 5),
    layers=st.integers(2, 4),
    width=st.integers(1, 3),
)
@example(seed=99, n_devices=8, layers=4, width=4)
def test_deep_plans_are_always_feasible_and_complete(
    seed, n_devices, layers, width
):
    env, app = make_instance(seed, n_devices, layers, width)
    result = DeepScheduler().schedule(app, env)
    result.plan.validate_against(app)
    # Every assignment satisfies the requirement triple.
    for assignment in result.plan:
        device = env.device(assignment.device)
        service = app.service(assignment.service)
        assert device.spec.cores >= service.requirements.cores
        assert device.spec.memory_gb >= service.requirements.memory_gb


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_devices=st.integers(2, 4),
)
def test_predicted_energy_equals_recomputed_energy(seed, n_devices):
    """The schedule's total must equal independently replayed costs."""
    env, app = make_instance(seed, n_devices, 3, 2)
    result = DeepScheduler().schedule(app, env)
    table = CostTable(app, env)
    state = SchedulerState()
    replayed = 0.0
    for name in app.topological_order():
        assignment = result.plan.assignments[name]
        record = table.record(name, assignment.registry, assignment.device, state)
        replayed += record.energy.total_j
        state.commit(
            app.service(name),
            assignment.registry,
            assignment.device,
            record.times.completion_s,
        )
    assert replayed == pytest.approx(result.total_energy_j)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_deep_never_beaten_by_more_than_penalty_margin(seed):
    """DEEP deviates from the greedy optimum only by its penalties."""
    env, app = make_instance(seed, 3, 3, 2)
    deep = DeepScheduler().schedule(app, env)
    greedy = GreedyEnergyScheduler().schedule(app, env)
    greedy.plan.validate_against(app)
    assert deep.total_energy_j <= greedy.total_energy_j * 1.10 + 1.0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_schedule_is_deterministic(seed):
    env1, app1 = make_instance(seed, 3, 3, 2)
    env2, app2 = make_instance(seed, 3, 3, 2)
    a = DeepScheduler().schedule(app1, env1)
    b = DeepScheduler().schedule(app2, env2)
    assert {x.service: (x.registry, x.device) for x in a.plan} == {
        x.service: (x.registry, x.device) for x in b.plan
    }
