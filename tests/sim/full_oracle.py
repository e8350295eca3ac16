"""Frozen reference for the transfer engine's dirty-closure recompute.

:class:`FullModeEngine` is the live :class:`TransferEngine` with its
recompute swapped for an unchanged copy of the full mode the engine
shipped with (and defaulted to) before the closure engine became its
only path: every start, finish and cancel settles *every* active
transfer (``_settle``, one shared clock), re-rates the whole active
set with one fill, and arms one wake at the earliest predicted
completion; the wake finishes what is due (with the force-finish rule
for sub-ulp residues) and recomputes everything again.  It carries its
own ``_activate``, ``_cancel_batch``, ``remaining_mb``, ``_settle``,
``_recompute`` and ``_on_wake``, so none of its events run through the
live recompute or the component deadline index.  The fill kernel
(``_fill``, handed a link table built by ``_link_table``), finishing
and slot bookkeeping are inherited.

It stays here as the oracle the closure engine must match: identical
rates, completion times within float-settling noise, and never more
transfers visited.
"""

from time import perf_counter_ns
from typing import List, Sequence

from repro.model.units import MBIT_PER_MB
from repro.sim.transfers import (
    _EPS_MB,
    Transfer,
    TransferCancelled,
    TransferEngine,
    _link_table,
)


class FullModeEngine(TransferEngine):
    """Every event re-solves every active transfer."""

    def __init__(self, sim, network, **kwargs) -> None:
        super().__init__(sim, network, **kwargs)
        self._clock_s = sim.now

    def _cancel_batch(
        self, transfers: Sequence[Transfer], reason: str
    ) -> int:
        unique = {t.id: t for t in transfers}
        victims = [
            t for t in unique.values()
            if not t.cancelled and t.completed_s is None
        ]
        if not victims:
            return 0
        any_active = any(t.active for t in victims)
        if any_active:
            self._settle()
        for transfer in victims:
            transfer.cancelled = True
            self.cancellations += 1
            self._release_slot(transfer)
            if transfer.active:
                self._detach(transfer)
        if any_active:
            self._recompute()
        for transfer in victims:
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "transfer.cancel", transfer.dst,
                    id=transfer.id, reason=reason,
                    moved_bytes=transfer.moved_bytes,
                )
            transfer.done.fail(TransferCancelled(transfer, reason))
        return len(victims)

    def remaining_mb(self, transfer: Transfer) -> float:
        # As fresh as the last engine event, not as of now.
        return transfer.remaining_mb

    def _activate(self, transfer: Transfer) -> None:
        if transfer.cancelled:
            return
        if transfer.remaining_mb <= _EPS_MB or not transfer.links:
            self._finish(transfer)
            return
        self._settle()
        transfer.active = True
        transfer.settled_s = self.sim.now
        self._active[transfer.id] = transfer
        for link in transfer.links:
            link.transfers[transfer.id] = transfer
        self._recompute()

    def _settle(self) -> None:
        """Account progress made at the current rates since the last
        rate change, bringing every ``remaining_mb`` up to date."""
        dt = self.sim.now - self._clock_s
        self._clock_s = self.sim.now
        if dt <= 0:
            return
        for transfer in self._active.values():
            rate = transfer.rate_mbps
            if rate > 0:
                left = transfer.remaining_mb - rate / MBIT_PER_MB * dt
                transfer.remaining_mb = left if left > 0.0 else 0.0

    def _recompute(self) -> None:
        """Progressive filling over the whole active set, then arm a
        wake-up at the earliest predicted completion."""
        self.recomputes += 1
        self._generation += 1
        # Retract the previously armed wake-up: a stale one must not
        # drag the clock out to a prediction that no longer holds.
        if self._wake is not None and not self._wake.processed:
            self._wake.void()
        self._wake = None
        if not self._active:
            return
        if self.profile is not None:
            t0 = perf_counter_ns()
            self._fill(self._active, _link_table(self._active.values()))
            self.profile.note_recompute(
                perf_counter_ns() - t0, len(self._active)
            )
        else:
            self._fill(self._active, _link_table(self._active.values()))
        if self.self_check:
            self._assert_reference_rates()
        next_dt = float("inf")
        for transfer in self._active.values():
            rate = transfer.rate_mbps
            if rate > 0:
                dt = transfer.remaining_mb * MBIT_PER_MB / rate
                if dt < next_dt:
                    next_dt = dt
        if next_dt == float("inf"):  # pragma: no cover - defensive
            return
        generation = self._generation
        wake = self.sim.timeout(next_dt)
        wake.add_callback(lambda _evt, g=generation: self._on_wake(g))
        self._wake = wake

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # stale wake-up: rates changed since it was armed
        self._settle()
        # Force-finish rule: a residue whose predicted completion cannot
        # advance the clock (sub-ulp at late simulated times) finishes
        # now, or the wake re-arms at ``now`` forever.
        now = self.sim.now
        finished: List[Transfer] = [
            t for t in self._active.values()
            if t.remaining_mb <= _EPS_MB or (
                t.rate_mbps > 0
                and now + t.remaining_mb * MBIT_PER_MB / t.rate_mbps <= now
            )
        ]
        for transfer in sorted(finished, key=lambda t: t.id):
            self._finish(transfer)
        self._recompute()
