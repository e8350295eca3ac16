"""Engine self-profiling: wall-clock and work counters.

:class:`EngineProfile` is attached to a
:class:`~repro.sim.transfers.TransferEngine` (``engine.profile``) when
``TelemetrySpec.profile`` is on or a telemetry capture is active.  The
engine notes, per fair-share recompute, the wall-clock nanoseconds
spent and the dirty-closure size, and counts every deadline-heap push /
pop / lazy invalidation under the heap's label — the index upkeep that
the closure engine's heap, with one entry per solved component, keeps
small.  A summary lands on ``ModeOutcome.engine_profile`` (and,
flattened, in sweep rows) when the spec asked for it, and in a
capture's ``profile.json`` otherwise, so a perf regression in the
solvers becomes a measurable diff instead of an anecdote.

All counters are *work* counters except the ``_ns`` aggregates, which
are wall-clock and therefore nondeterministic — the sweep aggregate's
byte-identity surface and the differential outcome tests exclude them.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Heap label of the closure engine's component deadline heap.
DEADLINE_HEAP = "@deadline"


class EngineProfile:
    """Recompute timings, closure-size histogram, heap work counters."""

    def __init__(self) -> None:
        self.recomputes = 0
        self.recompute_ns_total = 0
        self.recompute_ns_max = 0
        self.transfers_rerated = 0
        # int power-of-two buckets; rendered as strings in summary().
        self._closure_hist: Dict[int, int] = {}
        # heap label -> [pushes, pops, invalidations]; flat lists keep the
        # per-heap-op cost to one dict lookup + one index increment.
        self._heaps: Dict[str, List[int]] = {}

    # -- recompute timing ----------------------------------------------
    def note_recompute(self, ns: int, closure_size: int) -> None:
        self.recomputes += 1
        self.recompute_ns_total += ns
        if ns > self.recompute_ns_max:
            self.recompute_ns_max = ns
        self.transfers_rerated += closure_size
        bucket = (
            1 << (closure_size - 1).bit_length() if closure_size > 0 else 0
        )
        self._closure_hist[bucket] = self._closure_hist.get(bucket, 0) + 1

    # -- deadline-heap work --------------------------------------------
    def heap_push(self, heap: str) -> None:
        try:
            self._heaps[heap][0] += 1
        except KeyError:
            self._heaps[heap] = [1, 0, 0]

    def heap_pop(self, heap: str) -> None:
        """A *due* entry popped for draining."""
        try:
            self._heaps[heap][1] += 1
        except KeyError:
            self._heaps[heap] = [0, 1, 0]

    def heap_invalidate(self, heap: str) -> None:
        """A stale (retired) entry pruned."""
        try:
            self._heaps[heap][2] += 1
        except KeyError:
            self._heaps[heap] = [0, 0, 1]

    # -- export ---------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """JSON-safe summary for ``ModeOutcome.engine_profile``.

        ``closure_size_hist`` keys are closure sizes rounded up to the
        next power of two (0 stays 0); ``heaps`` keys are heap labels
        (:data:`DEADLINE_HEAP` for the closure engine's heap).
        """
        return {
            "recomputes": self.recomputes,
            "recompute_ns_total": self.recompute_ns_total,
            "recompute_ns_max": self.recompute_ns_max,
            "transfers_rerated": self.transfers_rerated,
            "closure_size_hist": {
                str(bucket): count
                for bucket, count in sorted(self._closure_hist.items())
            },
            "heaps": {
                heap: {
                    "pushes": counters[0],
                    "pops": counters[1],
                    "invalidations": counters[2],
                }
                for heap, counters in sorted(self._heaps.items())
            },
        }
