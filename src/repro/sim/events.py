"""Event primitives for the discrete-event simulation kernel.

The kernel is a small, deterministic, single-threaded DES in the style
of SimPy: a priority queue of timestamped events, and generator-based
processes that suspend on events.  Determinism matters — two runs with
the same seed must produce identical traces — so ties in time are broken
by a monotonically increasing sequence number.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    Events move through three states: *pending* → *triggered*
    (scheduled with a value) → *processed* (callbacks ran).  Triggering
    twice is an error; waiting on a processed event fires immediately.
    """

    __slots__ = (
        "env",
        "callbacks",
        "daemon",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_consumed",
        "_voided",
        "_queued",
    )

    def __init__(self, env: "EventQueue") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        #: Daemon events (periodic background wake-ups: gossip rounds,
        #: churn transitions) do not keep the simulation alive — a
        #: horizonless ``run()`` stops once only daemon events remain.
        self.daemon = False
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._consumed = False
        self._voided = False
        self._queued = False

    def void(self) -> None:
        """Retract a scheduled event: it is lazily dropped from the
        queue without processing — crucially, without advancing the
        clock to its scheduled time.  Used for obsolete wake-ups (the
        transfer engine re-arms one on every rate change); a voided
        event never runs its callbacks.
        """
        if self._processed:
            raise RuntimeError("cannot void a processed event")
        self._voided = True
        if self._queued:
            self._queued = False
            if not self.daemon:
                self.env._foreground -= 1

    def mark_consumed(self) -> None:
        """Record that this event's failure was delivered to a waiter.

        A consumed failure is handled (e.g. a failed event thrown into
        the process waiting on it) and must not re-raise from ``run()``.
        """
        self._consumed = True

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """False when the event carries a failure (exception value)."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise RuntimeError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self.env.schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env.schedule(self, delay)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs
        immediately (same tick), which lets late waiters join safely.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        for fn in callbacks or ():
            fn(self)


class Timeout(Event):
    """An event that fires after a fixed delay (auto-triggered).

    ``daemon=True`` marks a background wake-up: it fires normally
    while the simulation is otherwise alive (and always under a
    ``run(until=...)`` horizon), but pending daemon timeouts alone do
    not keep a horizonless ``run()`` going — eternal periodic
    processes (gossip anti-entropy, churn) yield these so simulations
    that drain the queue still terminate.

    ``observer=True`` marks a wake-up whose processing only reads
    state (the metrics sampler's tick): it is never
    :meth:`EventQueue.last_scheduled`.
    """

    __slots__ = ("delay",)

    def __init__(
        self,
        env: "EventQueue",
        delay: float,
        value: Any = None,
        daemon: bool = False,
        observer: bool = False,
    ) -> None:
        if not delay >= 0:  # NaN compares false
            raise ValueError(f"negative or NaN timeout: {delay}")
        super().__init__(env)
        self.daemon = daemon
        self.delay = delay
        self._triggered = True
        self._value = value
        env.schedule(self, delay, observer)


class EventQueue:
    """The simulation clock plus the time-ordered event heap."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._foreground = 0
        self._last: Optional[Event] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def foreground_pending(self) -> int:
        """Scheduled non-daemon events still awaiting processing."""
        return self._foreground

    def schedule(
        self, event: Event, delay: float = 0.0, observer: bool = False
    ) -> None:
        """Enqueue ``event`` to process at ``now + delay``.

        An ``observer`` event (one whose processing only reads state)
        does not become :meth:`last_scheduled`.
        """
        if not delay >= 0:  # NaN compares false
            raise ValueError(f"negative or NaN delay: {delay}")
        event._queued = True
        if not event.daemon:
            self._foreground += 1
        if not observer:
            self._last = event
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), event))

    def last_scheduled(self) -> Optional[Event]:
        """The event the latest :meth:`schedule` queued, observer events
        excepted; None once :meth:`reserve` has taken numbers since.

        While a pending event is still the last one scheduled, an event
        scheduled now for the same instant sorts right behind it: only
        observer events can have taken a number in between, so nothing
        else can run between the two.  :meth:`schedule_at` leaves it
        alone, because it queues under a number reserved earlier, which
        sorts before both.
        """
        return self._last

    def reserve(self, count: int) -> int:
        """Take ``count`` (>= 1) consecutive sequence numbers for
        :meth:`schedule_at`; returns the first."""
        self._last = None
        first = next(self._seq)
        self._seq = itertools.count(first + count)
        return first

    def schedule_at(self, event: Event, time: float, seq: int) -> None:
        """Enqueue ``event`` at absolute ``time`` under ``seq``, a
        number taken earlier with :meth:`reserve`."""
        if not time >= self._now:  # NaN compares false
            raise ValueError(f"time {time} is before now ({self._now})")
        event._queued = True
        if not event.daemon:
            self._foreground += 1
        heapq.heappush(self._heap, (time, seq, event))

    def _purge_voided(self) -> None:
        """Drop retracted events from the head of the heap (lazy
        deletion: voided entries deeper in the heap are skipped when
        they surface)."""
        while self._heap and self._heap[0][2]._voided:
            heapq.heappop(self._heap)

    def empty(self) -> bool:
        self._purge_voided()
        return not self._heap

    def peek_time(self) -> float:
        """Time of the next event; ``inf`` when the queue is empty."""
        self._purge_voided()
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> Event:
        """Advance the clock to the next event and process it."""
        self._purge_voided()
        if not self._heap:
            raise RuntimeError("step() on an empty event queue")
        time, _, event = heapq.heappop(self._heap)
        event._queued = False
        if not event.daemon:
            self._foreground -= 1
        self._now = time
        event._process()
        return event
