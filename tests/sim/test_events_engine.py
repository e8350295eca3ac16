"""DES kernel: events, clock, processes, barriers."""

import pytest

from repro.sim import AllOf, Event, EventQueue, Simulator, Timeout


class TestEventQueue:
    def test_clock_starts_at_zero(self):
        assert EventQueue().now == 0.0

    def test_step_advances_clock(self):
        q = EventQueue()
        Timeout(q, 5.0)
        q.step()
        assert q.now == 5.0

    def test_tie_break_is_fifo(self):
        q = EventQueue()
        order = []
        for tag in ("first", "second"):
            event = Event(q)
            event.add_callback(lambda e, t=tag: order.append(t))
            event.succeed(t := None, delay=1.0)
        q.step()
        q.step()
        assert order == ["first", "second"]

    def test_empty_step_raises(self):
        with pytest.raises(RuntimeError):
            EventQueue().step()

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() == float("inf")
        Timeout(q, 3.0)
        assert q.peek_time() == 3.0

    def test_negative_delay_rejected(self):
        q = EventQueue()
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                Event(q).succeed(delay=bad)
        with pytest.raises(ValueError):
            Timeout(q, float("nan"))
        assert q.empty()


class TestEvent:
    def test_double_trigger_rejected(self):
        q = EventQueue()
        e = Event(q)
        e.succeed(1)
        with pytest.raises(RuntimeError):
            e.succeed(2)

    def test_value_before_trigger_raises(self):
        e = Event(EventQueue())
        with pytest.raises(RuntimeError):
            _ = e.value

    def test_late_callback_fires_immediately(self):
        q = EventQueue()
        e = Event(q)
        e.succeed("v")
        q.step()
        seen = []
        e.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["v"]

    def test_fail_requires_exception(self):
        e = Event(EventQueue())
        with pytest.raises(TypeError):
            e.fail("not an exception")


class TestProcesses:
    def test_sequential_timeouts(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(1.0)
            log.append(sim.now)
            yield sim.timeout(2.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [1.0, 3.0]

    def test_interleaving_deterministic(self):
        sim = Simulator()
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append(name)

        sim.process(worker("slow", 2.0))
        sim.process(worker("fast", 1.0))
        sim.run()
        assert log == ["fast", "slow"]

    def test_process_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        p = sim.process(proc())
        sim.run()
        assert p.value == 42

    def test_yield_from_composition(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(1.0)
            return "inner-result"

        def outer():
            result = yield from inner()
            return result + "!"

        p = sim.process(outer())
        sim.run()
        assert p.value == "inner-result!"

    def test_crash_propagates_to_run(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_run_until_stops_clock(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_daemon_timeouts_do_not_keep_run_alive(self):
        sim = Simulator()
        ticks = []

        def background():
            while True:
                yield sim.timeout(5.0, daemon=True)
                ticks.append(sim.now)

        def worker():
            yield sim.timeout(12.0)

        sim.process(background())
        sim.process(worker())
        # A horizonless run terminates once only daemon wake-ups
        # remain — at the worker's end, having processed the daemon
        # ticks that came before it.
        assert sim.run() == 12.0
        assert ticks == [5.0, 10.0]

    def test_daemon_timeouts_fire_under_a_horizon(self):
        sim = Simulator()
        ticks = []

        def background():
            while True:
                yield sim.timeout(5.0, daemon=True)
                ticks.append(sim.now)

        sim.process(background())
        sim.run(until=22.0)
        assert ticks == [5.0, 10.0, 15.0, 20.0]
        assert sim.now == 22.0

    def test_daemon_only_run_does_not_advance_the_clock(self):
        sim = Simulator()

        def background():
            while True:
                yield sim.timeout(5.0, daemon=True)

        sim.process(background())
        assert sim.run() == 0.0
        assert sim.now == 0.0

    def test_voided_foreground_event_does_not_block_daemon_exit(self):
        sim = Simulator()
        wake = sim.timeout(50.0)

        def background():
            while True:
                yield sim.timeout(5.0, daemon=True)

        sim.process(background())
        wake.void()
        # The only foreground event was retracted: run() must stop
        # immediately instead of chasing daemon ticks to the void.
        assert sim.run() == 0.0

    def test_non_event_yield_rejected(self):
        sim = Simulator()

        def proc():
            yield 42

        sim.process(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_waiting_on_another_process(self):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(2.0)
            return "done"

        def parent():
            result = yield sim.process(child())
            log.append((sim.now, result))

        sim.process(parent())
        sim.run()
        assert log == [(2.0, "done")]


class TestAllOf:
    def test_barrier_waits_for_all(self):
        sim = Simulator()
        log = []

        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def driver():
            values = yield sim.all_of(
                [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
            )
            log.append((sim.now, values))

        sim.process(driver())
        sim.run()
        assert log == [(3.0, [3.0, 1.0, 2.0])]

    def test_empty_barrier_fires_immediately(self):
        sim = Simulator()
        barrier = sim.all_of([])
        sim.run()
        assert barrier.triggered and barrier.value == []

    def test_barrier_fails_on_child_failure(self):
        sim = Simulator()

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("child failed")

        def driver():
            yield sim.all_of([sim.process(bad())])

        sim.process(driver())
        with pytest.raises(ValueError, match="child failed"):
            sim.run()
