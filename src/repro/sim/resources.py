"""Counted resources with FIFO queuing for the DES engine.

:class:`Resource` models a pool of identical tokens (e.g. the cores of
an edge device).  Processes ``yield resource.request(n)`` to acquire
``n`` tokens and call ``resource.release(n)`` when done; waiters are
served strictly FIFO, which keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from .engine import Simulator
from .events import Event


class Resource:
    """A counted resource (semaphore) with FIFO fairness.

    Parameters
    ----------
    sim:
        The owning simulator.
    capacity:
        Total number of tokens.  Must be >= 1.
    """

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._sim = sim
        self._capacity = capacity
        self._available = capacity
        self._waiters: Deque[Tuple[Event, int]] = deque()

    def request(self, amount: int = 1) -> Event:
        """Acquire ``amount`` tokens; the returned event fires on grant."""
        if amount < 1:
            raise ValueError(f"request amount must be >= 1, got {amount}")
        if amount > self._capacity:
            raise ValueError(
                f"request of {amount} exceeds capacity {self._capacity}"
            )
        event = self._sim.event()
        self._waiters.append((event, amount))
        self._dispatch()
        return event

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` tokens to the pool."""
        if amount < 1:
            raise ValueError(f"release amount must be >= 1, got {amount}")
        if self._available + amount > self._capacity:
            raise RuntimeError(
                f"release of {amount} overflows capacity "
                f"({self._available}/{self._capacity} free)"
            )
        self._available += amount
        self._dispatch()

    def _dispatch(self) -> None:
        # Strict FIFO: the head blocks everyone behind it even if a
        # later, smaller request would fit (no starvation of big jobs).
        while self._waiters:
            event, amount = self._waiters[0]
            if amount > self._available:
                return
            self._waiters.popleft()
            self._available -= amount
            event.succeed(amount)
