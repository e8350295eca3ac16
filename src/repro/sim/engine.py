"""Generator-based process engine on top of :mod:`repro.sim.events`.

A *process* is a Python generator that yields :class:`~repro.sim.events.Event`
objects; the engine resumes it with the event's value when the event
fires.  ``AllOf`` composes events into a barrier — the synchronisation
primitive used by the orchestrator to model the paper's stage barriers.
:meth:`Simulator.process_at` starts a batch of processes, each at its
own arrival time, keeping only the next arrival pending.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker("a", 2.0))
>>> _ = sim.process(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from .events import Event, EventQueue, Timeout

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process; itself an event that fires on termination.

    The event's value is the generator's return value; uncaught
    exceptions propagate to :meth:`Simulator.run` (there is no silent
    failure mode — a crashed process is a crashed simulation).

    The generator first runs when ``start`` is processed, or at once if
    it already was; without one the process schedules its own
    bootstrap event for the current time.
    """

    __slots__ = ("_generator",)

    def __init__(
        self,
        env: EventQueue,
        generator: ProcessGenerator,
        start: Optional[Event] = None,
    ) -> None:
        super().__init__(env)
        self._generator = generator
        if start is None:
            start = Event(env)
            start.succeed(None)
        start.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        try:
            if event.ok:
                next_event = self._generator.send(event.value)
            else:
                # The failure is being delivered into a generator: it is
                # consumed here whether or not the generator survives it
                # (if it doesn't, the exception propagates out of this
                # frame and run() re-raises it directly).
                event.mark_consumed()
                next_event = self._generator.throw(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(next_event, Event):
            raise TypeError(
                f"process yielded {next_event!r}; processes must yield Event"
            )
        next_event.add_callback(self._resume)


class AllOf(Event):
    """Barrier event: fires once every child event has fired.

    The value is the list of child values in construction order.  If
    any child fails, the barrier fails with that child's exception.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, env: EventQueue, events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children: List[Event] = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            # Barrier already fired (necessarily as a failure — success
            # requires every child to have succeeded).  A later failing
            # child is still adopted by the barrier: consume it so it
            # cannot re-raise from run() behind the waiter's back.
            if not child.ok:
                child.mark_consumed()
            return
        if not child.ok:
            # The barrier adopts the child's failure: the child is
            # consumed here, and whether the failure is ultimately
            # handled is decided by whoever waits on the barrier.
            child.mark_consumed()
            self.fail(child.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class Simulator:
    """Facade bundling the event queue with process management."""

    def __init__(self) -> None:
        self._queue = EventQueue()

    @property
    def now(self) -> float:
        return self._queue.now

    def event(self) -> Event:
        """A fresh untriggered event (manual trigger)."""
        return Event(self._queue)

    def timeout(
        self,
        delay: float,
        value: Any = None,
        daemon: bool = False,
        observer: bool = False,
    ) -> Timeout:
        """An event firing ``delay`` seconds from now.

        ``daemon=True`` marks a background wake-up that does not keep
        a horizonless :meth:`run` alive; ``observer=True`` one whose
        processing only reads state (see :class:`Timeout`).
        """
        return Timeout(
            self._queue, delay, value, daemon=daemon, observer=observer
        )

    def last_scheduled(self) -> Optional[Event]:
        """The latest non-observer event queued, unless numbers were
        reserved since (:meth:`EventQueue.last_scheduled`)."""
        return self._queue.last_scheduled()

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a process; returns its completion event."""
        return Process(self._queue, generator)

    def process_at(
        self,
        delays: Sequence[float],
        start: Callable[[int], Optional[ProcessGenerator]],
    ) -> None:
        """Start process ``i``, the generator ``start(i)``, ``delays[i]``
        seconds after this call's bootstrap event runs.

        Events run exactly as if each process were spawned now with
        :meth:`process`, its generator first yielding
        ``timeout(delays[i])``, but only the next arrival is pending.
        The bootstrap reserves the block of sequence numbers those
        timeouts would take, entry ``i`` is queued under the block's
        ``i``-th number when entry ``i - 1`` arrives, and process ``i``
        starts inside its own entry's processing (the package README
        gives the argument).  A ``start(i)`` that returns None did its
        work inline, in that same processing: entry ``i`` then builds
        no process, and no completion event takes a sequence number,
        which reorders no other event.  ``delays`` must be
        non-negative and non-decreasing; empty, it schedules nothing.
        """
        previous = 0.0
        for i, delay in enumerate(delays):
            if not delay >= previous:  # NaN compares false
                raise ValueError(
                    f"process_at delays must be non-negative and "
                    f"non-decreasing: delays[{i}] = {delay} after {previous}"
                )
            previous = delay
        if len(delays) == 0:
            return
        bootstrap = Event(self._queue)
        bootstrap.succeed(None)
        bootstrap.add_callback(
            lambda _event: _Arrivals(self._queue, delays, start)
        )

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier over ``events``."""
        return AllOf(self._queue, events)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time when the run stopped.  Failure
        events that nothing waited on re-raise here so that errors
        cannot vanish.  A horizonless run additionally stops once only
        *daemon* events remain (periodic background processes — gossip
        rounds, churn — would otherwise keep the queue alive forever);
        under a horizon, daemon events are processed like any other up
        to ``until``.
        """
        while not self._queue.empty():
            if until is None and self._queue.foreground_pending() == 0:
                return self._queue.now
            if until is not None and self._queue.peek_time() > until:
                self._now_to(until)
                return self._queue.now
            event = self._queue.step()
            if not event.ok and event.callbacks is None and not _was_consumed(event):
                raise event.value
        if until is not None and until > self._queue.now:
            self._now_to(until)
        return self._queue.now

    def _now_to(self, time: float) -> None:
        self._queue._now = max(self._queue._now, time)


class _Arrivals:
    """The one pending arrival of a :meth:`Simulator.process_at` call."""

    __slots__ = ("_queue", "_delays", "_start", "_t0", "_first", "_next")

    def __init__(
        self,
        queue: EventQueue,
        delays: Sequence[float],
        start: Callable[[int], Optional[ProcessGenerator]],
    ) -> None:
        self._queue = queue
        self._delays = delays
        self._start = start
        self._t0 = queue.now
        self._first = queue.reserve(len(delays))
        self._push(0)

    def _push(self, i: int) -> None:
        entry = Event(self._queue)
        entry._triggered = True
        entry.add_callback(self._arrive)
        self._next = i
        self._queue.schedule_at(
            entry, self._t0 + self._delays[i], self._first + i
        )

    def _arrive(self, entry: Event) -> None:
        i = self._next
        if i + 1 < len(self._delays):
            self._push(i + 1)
        generator = self._start(i)
        if generator is not None:
            Process(self._queue, generator, start=entry)


def _was_consumed(event: Event) -> bool:
    """True when a failed event was delivered to at least one waiter."""
    # Process._resume marks consumption by re-raising inside the
    # generator; if the event is a Process itself, its failure is its
    # value and run() should re-raise unless someone waited on it.
    return bool(getattr(event, "_consumed", False))
