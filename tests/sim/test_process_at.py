"""Simulator.process_at: one pending arrival, the eager spawn's order.

``process_at(delays, start)`` starts process ``i`` when entry ``i``
arrives instead of spawning every process up front.  It must order
every event exactly as the eager spawn does: ``sim.process`` of a
generator that first yields ``timeout(delays[i])``.  The Hypothesis
trace below compares the two with integer delays full of ties, a
ticker created before the call and one created after it (their
timeouts tie with arrivals but were scheduled at other times),
zero-delay events scheduled at arrival, a ``start`` that raises, and
starts that do their work inline and return None (the eager process
then ends at its first step, and its completion event has no waiter).

A variant that takes a fresh sequence number for each arrival as it
queues it, instead of reserving the eager block up front, keeps every
preset output identical but fails this trace: an arrival then loses
same-time ties to events scheduled after the bootstrap, such as the
second ticker's timeout or a zero-delay event of an earlier arrival.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


class Boom(Exception):
    pass


def _trace(steps, holds, raise_at, periods, inline, lazy):
    """The ``(now, label)`` log of one run, eager or through
    ``process_at``; a raise from ``start`` ends it with a ``raised``
    entry at the clock it surfaced at.  The starts in ``inline`` run
    their body as callbacks and return None."""
    delays = []
    for step in steps:
        delays.append((delays[-1] if delays else 0) + step)
    sim = Simulator()
    log = []

    def ticker(label, period):
        while True:
            yield sim.timeout(period)
            log.append((sim.now, label))

    def body(i):
        log.append((sim.now, f"start {i}"))
        zero = sim.timeout(0)
        zero.add_callback(lambda _event: log.append((sim.now, f"zero {i}")))
        yield zero
        log.append((sim.now, f"resumed {i}"))
        yield sim.timeout(holds[i % len(holds)])
        log.append((sim.now, f"done {i}"))

    def body_inline(i):
        log.append((sim.now, f"start {i}"))
        zero = sim.timeout(0)
        zero.add_callback(lambda _event: log.append((sim.now, f"zero {i}")))
        hold = sim.timeout(holds[i % len(holds)])
        hold.add_callback(lambda _event: log.append((sim.now, f"done {i}")))

    def start(i):
        if i == raise_at:
            raise Boom(i)
        if i in inline:
            return body_inline(i)
        return body(i)

    def eager(i):
        yield sim.timeout(delays[i])
        generator = start(i)
        if generator is not None:
            yield from generator

    sim.process(ticker("before", periods[0]))
    if lazy:
        sim.process_at(delays, start)
    else:
        for i in range(len(delays)):
            sim.process(eager(i))
    sim.process(ticker("after", periods[1]))
    try:
        sim.run(until=delays[-1] + max(holds) + 2)
    except Boom as exc:
        log.append((sim.now, f"raised {exc.args[0]}"))
    return log


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.sampled_from([0, 0, 0, 1, 2]), min_size=1, max_size=12
    ),
    holds=st.lists(st.integers(0, 3), min_size=1, max_size=4),
    raise_at=st.none() | st.integers(0, 11),
    periods=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    inline=st.frozensets(st.integers(0, 11)),
)
def test_trace_equals_the_eager_spawn(steps, holds, raise_at, periods, inline):
    eager = _trace(steps, holds, raise_at, periods, inline, lazy=False)
    assert _trace(steps, holds, raise_at, periods, inline, lazy=True) == eager
    if raise_at is not None and raise_at < len(steps):
        assert eager[-1][1] == f"raised {raise_at}"


def test_starts_each_process_when_it_arrives():
    sim = Simulator()
    started = []

    def body(i):
        started.append((sim.now, i))
        yield sim.timeout(1.0)

    sim.process_at([2.0] * 500 + [5.0], body)
    sim.run(until=1.0)
    assert started == []
    # One bootstrap ran; one arrival is pending, not 501.
    assert sim._queue.foreground_pending() == 1
    sim.run()
    assert started == [(2.0, i) for i in range(500)] + [(5.0, 500)]
    assert sim.now == 6.0


def test_delays_count_from_the_bootstrap():
    sim = Simulator()
    started = []

    def later():
        yield sim.timeout(3.0)
        sim.process_at([0.0, 1.5], body)

    def body(i):
        started.append((sim.now, i))
        yield sim.timeout(0)

    sim.process(later())
    sim.run()
    assert started == [(3.0, 0), (4.5, 1)]


@pytest.mark.parametrize(
    "delays", [[1.0, 0.5], [-1.0], [0.0, float("nan")], [float("nan")]]
)
def test_rejects_negative_decreasing_or_nan_delays(delays):
    sim = Simulator()
    with pytest.raises(ValueError, match="non-decreasing"):
        sim.process_at(delays, lambda i: iter(()))
    assert sim._queue.empty()


def test_a_start_returning_none_builds_no_process():
    # Its work ran inline at arrival: nothing is left queued for it, so
    # a horizonless run ends at the last arrival.
    sim = Simulator()
    started = []
    sim.process_at([1.0, 2.0], lambda i: started.append((sim.now, i)))
    sim.run()
    assert started == [(1.0, 0), (2.0, 1)]
    assert sim._queue.empty()
    assert sim.now == 2.0


def test_no_entries_schedule_nothing():
    sim = Simulator()
    sim.process_at([], lambda i: iter(()))
    assert sim._queue.empty()
