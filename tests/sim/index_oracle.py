"""Frozen reference for the closure engine's deadline index.

:class:`SingleHeapEngine` is the live :class:`TransferEngine` with its
region-sharded deadline index swapped for an unchanged copy of the
single global heap the incremental mode shipped before every closure
engine ran on per-shard heaps: one lazy min-heap of ``(deadline,
transfer id, token)``, one wake armed at its earliest valid entry, and
a drain loop over that one heap.  The rate solve, settling, and
cancellation paths are inherited, so any divergence is the index's
(the inherited ``_detach`` still marks shards touched; nothing here
reads them).
It stays here as the oracle the sharded index must match exactly:
same wake instants, same end times, same work counters.
"""

import heapq
from typing import List, Tuple

from repro.model.units import MBIT_PER_MB
from repro.sim.transfers import _EPS_MB, Link, Transfer, TransferEngine

#: Profile label of the single heap.
GLOBAL_HEAP = "@global"


class SingleHeapEngine(TransferEngine):
    """The closure engine (``incremental=True``) on the frozen
    single-heap deadline index."""

    def __init__(self, sim, network, **kwargs) -> None:
        super().__init__(sim, network, incremental=True, **kwargs)
        self._deadline_heap: List[Tuple[float, int, int]] = []

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

    def _arm_wake_sharded(self) -> None:
        # The live closure engine arms through this hook.
        self._arm_wake_incremental()

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
            self._settle_one(transfer)
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
            self._recompute_incremental(seeds)
        else:
            self._arm_wake_incremental()
