"""Determinism of the DES engine under seeded scenarios.

The adaptive replicator (and every benchmark) relies on the engine
being a pure function of its inputs: two runs of the same seeded
scenario must produce identical event orderings and final clocks —
including through ``AllOf`` barriers and a failed event thrown into the
process waiting on it, where tie-breaking by insertion sequence is what
keeps traces stable.
"""

from typing import List, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def scripted_scenario(seed: int) -> Tuple[List[Tuple[float, str]], float]:
    """A scenario exercising timeouts, barriers, and a thrown failure.

    Returns the (time, label) trace and the final clock.
    """
    rng = RngRegistry(seed)
    sim = Simulator()
    trace: List[Tuple[float, str]] = []

    def worker(name: str, stream):
        for step in range(4):
            yield sim.timeout(float(stream.uniform(0.1, 5.0)))
            trace.append((sim.now, f"{name}:step{step}"))
        return name

    workers = [
        sim.process(worker(f"w{i}", rng.stream(f"worker.{i}"))) for i in range(5)
    ]

    def barrier_watcher():
        results = yield sim.all_of(workers)
        trace.append((sim.now, f"barrier:{','.join(results)}"))

    sim.process(barrier_watcher())

    alarm = sim.event()

    def sleeper():
        try:
            yield alarm
            trace.append((sim.now, "sleeper:woken"))
        except RuntimeError as exc:
            trace.append((sim.now, f"sleeper:failed:{exc}"))
            yield sim.timeout(float(rng.stream("sleeper").uniform(0.5, 2.0)))
            trace.append((sim.now, "sleeper:recovered"))

    sim.process(sleeper())

    def poker():
        yield sim.timeout(float(rng.stream("poker").uniform(1.0, 3.0)))
        alarm.fail(RuntimeError("poke"))

    sim.process(poker())

    final = sim.run()
    return trace, final


def test_same_seed_same_trace_and_clock():
    first_trace, first_clock = scripted_scenario(seed=1234)
    second_trace, second_clock = scripted_scenario(seed=1234)
    assert first_trace == second_trace
    assert first_clock == second_clock
    # The barrier fired exactly once, after every worker step.
    barriers = [label for _, label in first_trace if label.startswith("barrier")]
    assert len(barriers) == 1
    # The failure reached the waiting process, which handled it (so
    # run() did not re-raise it) and carried on.
    sleeper = [l for _, l in first_trace if l.startswith("sleeper")]
    assert sleeper == ["sleeper:failed:poke", "sleeper:recovered"]


def test_rng_streams_are_stable_across_registries():
    a = RngRegistry(42)
    b = RngRegistry(42)
    assert a.stream("x").uniform(0, 1) == b.stream("x").uniform(0, 1)
    # Adding a new consumer must not perturb existing streams: a fresh
    # registry that first draws from another stream still produces the
    # same first draw on "x" as an untouched registry does.
    c = RngRegistry(42)
    c.stream("brand-new-consumer").uniform(0, 1)
    d = RngRegistry(42)
    assert c.stream("x").uniform(0, 1) == d.stream("x").uniform(0, 1)


def test_run_until_is_deterministic():
    def run_once():
        trace, _ = [], None
        rng = RngRegistry(7)
        sim = Simulator()
        log: List[Tuple[float, str]] = []

        def ticker(name, stream):
            while True:
                yield sim.timeout(float(stream.exponential(2.0)))
                log.append((sim.now, name))

        for i in range(3):
            sim.process(ticker(f"t{i}", rng.stream(f"tick.{i}")))
        clock = sim.run(until=25.0)
        return log, clock

    first_log, first_clock = run_once()
    second_log, second_clock = run_once()
    assert first_log == second_log
    assert first_clock == second_clock == 25.0


def test_handled_barrier_failure_does_not_reraise_from_run():
    sim = Simulator()
    seen = []
    failing = sim.event()

    def waiter():
        try:
            yield sim.all_of([failing, sim.timeout(1.0)])
        except RuntimeError as exc:
            seen.append(str(exc))

    def breaker():
        yield sim.timeout(0.5)
        failing.fail(RuntimeError("child failed"))

    sim.process(waiter())
    sim.process(breaker())
    sim.run()  # the barrier adopted the failure and the waiter caught it
    assert seen == ["child failed"]


def test_second_barrier_child_failure_is_also_consumed():
    sim = Simulator()
    caught = []
    first, second = sim.event(), sim.event()

    def waiter():
        try:
            yield sim.all_of([first, second])
        except RuntimeError as exc:
            caught.append(str(exc))

    def breaker():
        yield sim.timeout(0.5)
        first.fail(RuntimeError("first"))
        yield sim.timeout(0.5)
        second.fail(RuntimeError("second"))

    sim.process(waiter())
    sim.process(breaker())
    sim.run()  # the second failure is adopted by the fired barrier too
    assert caught == ["first"]


def test_seeded_replicator_schedules_are_reproducible():
    """Two identical seeded P2P experiment runs agree byte-for-byte."""
    from repro.scenarios import (
        ScenarioSpec,
        SimulationSession,
        TopologySpec,
        WorkloadSpec,
    )

    spec = ScenarioSpec(
        mode="hybrid+p2p",
        topology=TopologySpec(n_devices=6, n_regions=2),
        workload=WorkloadSpec(n_images=4),
        seed=99,
    )
    outcomes = []
    for _ in range(2):
        session = SimulationSession(spec)
        outcome = session.run()
        replicator = session.replicator
        outcomes.append(
            (
                outcome.bytes_by_registry,
                outcome.bytes_from_peers,
                outcome.bytes_replicated,
                [
                    (c.time_s, c.hot_digests, tuple(a.target for a in c.actions))
                    for c in replicator.history
                ],
            )
        )
    assert outcomes[0] == outcomes[1]
