"""Frozen reference for the closure engine's deadline index.

:class:`SingleHeapEngine` is the live :class:`TransferEngine` with its
component deadline index swapped for an unchanged copy of the single
global heap the closure engine shipped with: one lazy min-heap of
``(deadline, transfer id, token)`` that every re-solve re-pushes each
transfer it touched into, one wake armed at its earliest valid entry,
and a drain loop over that one heap.  The dirty-closure walk that feeds
it is frozen too (one name-keyed walk over all seeds, one push per
transfer), and ``_detach`` pops the transfer's token.  The rate solve
(handed a link table built by ``_link_table``, since the frozen walk
builds none), settling, and cancellation paths are inherited, so any
divergence is the index's.
It stays here as the oracle the component index must match exactly:
same wake instants, same end times, same work counters.
"""

import heapq
import itertools
from time import perf_counter_ns
from typing import Dict, Iterable, List, Tuple

from repro.model.units import MBIT_PER_MB
from repro.sim.transfers import (
    _EPS_MB,
    Link,
    Transfer,
    TransferEngine,
    _link_table,
)

#: Profile label of the single heap.
GLOBAL_HEAP = "@global"


class SingleHeapEngine(TransferEngine):
    """The engine on the frozen single-heap deadline index."""

    def __init__(self, sim, network, **kwargs) -> None:
        super().__init__(sim, network, **kwargs)
        self._deadline_heap: List[Tuple[float, int, int]] = []
        self._tokens: Dict[int, int] = {}
        self._token_seq = itertools.count()

    def _detach(self, transfer: Transfer) -> None:
        super()._detach(transfer)
        self._tokens.pop(transfer.id, None)

    def _recompute(self, seeds: Iterable[Link]) -> None:
        self.recomputes += 1
        t0 = perf_counter_ns() if self.profile is not None else 0
        seen: set = set()
        stack: List[Link] = []
        for link in seeds:
            if link.name not in seen:
                seen.add(link.name)
                stack.append(link)
        closure: Dict[int, Transfer] = {}
        while stack:
            link = stack.pop()
            for tid, transfer in link.transfers.items():
                if tid in closure:
                    continue
                closure[tid] = transfer
                self._settle_one(transfer, self.sim.now)
                for other in transfer.links:
                    if other.name not in seen:
                        seen.add(other.name)
                        stack.append(other)
        if len(closure) == 1:
            (transfer,) = closure.values()
            rate = min(link.capacity_mbps for link in transfer.links)
            transfer.rate_mbps = rate
            self.transfers_visited += 1
            for link in transfer.links:
                if rate > link.peak_utilisation_mbps:
                    link.peak_utilisation_mbps = rate
            self._push_deadline(transfer)
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "engine.reallocate", "",
                    closure=next(self._closure_seq), n=1,
                    rates={transfer.id: rate},
                )
        elif closure:
            self._fill(closure, _link_table(closure.values()))
            for transfer in closure.values():
                self._push_deadline(transfer)
        if self.profile is not None:
            self.profile.note_recompute(perf_counter_ns() - t0, len(closure))
        if self.self_check:
            self._assert_reference_rates()
        self._arm_wake_incremental()

    def _push_deadline(self, transfer: Transfer) -> None:
        if transfer.rate_mbps > 0:
            deadline = (
                transfer.settled_s
                + transfer.remaining_mb * MBIT_PER_MB / transfer.rate_mbps
            )
            token = next(self._token_seq)
            self._tokens[transfer.id] = token
            heapq.heappush(
                self._deadline_heap, (deadline, transfer.id, token)
            )
            if self.profile is not None:
                self.profile.heap_push(GLOBAL_HEAP)
        else:
            self._tokens.pop(transfer.id, None)

    def _arm_wake_incremental(self) -> None:
        heap = self._deadline_heap
        while heap and self._tokens.get(heap[0][1]) != heap[0][2]:
            heapq.heappop(heap)
            if self.profile is not None:
                self.profile.heap_invalidate(GLOBAL_HEAP)
        live = self._wake is not None and not self._wake.processed
        if not heap:
            if live:
                self._generation += 1
                self._wake.void()
                self._wake = None
            return
        deadline = heap[0][0]
        if live:
            if deadline == self._wake_deadline:
                return  # armed wake already fires at the right time
            self._wake.void()
        self._generation += 1
        generation = self._generation
        wake = self.sim.timeout(max(0.0, deadline - self.sim.now))
        wake.add_callback(
            lambda _evt, g=generation: self._on_wake_incremental(g)
        )
        self._wake = wake
        self._wake_deadline = deadline

    def _on_wake_incremental(self, generation: int) -> None:
        if generation != self._generation:
            return  # stale wake-up: the heap front changed since
        now = self.sim.now
        heap = self._deadline_heap
        prof = self.profile
        finished: List[Transfer] = []
        while heap:
            deadline, tid, token = heap[0]
            if self._tokens.get(tid) != token:
                heapq.heappop(heap)
                if prof is not None:
                    prof.heap_invalidate(GLOBAL_HEAP)
                continue
            if deadline > now:
                break
            heapq.heappop(heap)
            if prof is not None:
                prof.heap_pop(GLOBAL_HEAP)
            transfer = self._active[tid]
            self._settle_one(transfer, now)
            if transfer.remaining_mb <= _EPS_MB:
                finished.append(transfer)
                continue
            # Residual payload above the finish threshold: re-predict.
            # If the new deadline cannot advance the clock (a sub-ulp
            # residue of the timeout's float rounding), finishing now
            # is the only way to guarantee progress.
            deadline = (
                transfer.settled_s
                + transfer.remaining_mb * MBIT_PER_MB / transfer.rate_mbps
            )
            if deadline <= now:
                finished.append(transfer)
            else:
                token = next(self._token_seq)
                self._tokens[tid] = token
                heapq.heappush(heap, (deadline, tid, token))
                if prof is not None:
                    prof.heap_push(GLOBAL_HEAP)
        if finished:
            seeds: List[Link] = []
            for transfer in sorted(finished, key=lambda t: t.id):
                seeds.extend(transfer.links)
                self._finish(transfer)
            self._recompute(seeds)
        else:
            self._arm_wake_incremental()
