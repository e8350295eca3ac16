"""Time-resolved transfer engine: shared links, fair share, cancellation.

The paper's pull model resolves every transfer analytically — an
isolated ``Size / BW`` sleep that never contends with anything.  This
module is the alternative: transfers *occupy* links over simulated
time.  Each link is a capacity shared among the transfers crossing it;
rates follow **max-min fairness** (progressive filling), recomputed on
every transfer start, finish, and cancellation.  A transfer traverses
a small path of links (source uplink → channel → destination downlink,
as built by :meth:`~repro.model.network.NetworkModel.transfer_path`)
and its rate is set by the tightest bottleneck along that path.

On top of the rate model the engine enforces **per-device concurrent
upload budgets** (a peer can seed only so many transfers at once —
EdgePier's seeder-contention observation) and supports **mid-transfer
cancellation** (a departing peer fails its in-flight uploads, and the
freed bandwidth is redistributed immediately).

Dirty-closure recompute
-----------------------
An event re-solves only its **dirty closure**, the connected
component(s) of the transfer–link bipartite graph touching the links
whose membership the event changed.  Max-min fairness decomposes
exactly over connected components (a transfer's rate depends only on
the capacities and membership of links it can reach through shared
transfers), so the closure fill produces *bit-identical* rates to a
fill over every active transfer — an invariant the engine can verify
on every event (``self_check=True``) and the Hypothesis differential
tests pin down.  Progress accounting is lazy (per-transfer
``settled_s``), so an event on an idle corner of a 10k-device swarm
costs the size of its component, not the swarm.

Predicted completions live in a component deadline index: the
dirty-closure walk yields the closure one connected component at a
time, and one lazy min-heap holds one entry per solved component,
keyed by its earliest member deadline.  A component is always
re-solved whole, so a live entry's key is its members' exact minimum
and one wake armed at the heap's earliest live entry fires exactly when
a per-transfer index would.

Which model a simulation uses is selected by :class:`TransferModel`:
``ANALYTIC`` keeps the paper-faithful instant-accounting path bit-for-
bit, ``TIME_RESOLVED`` routes transfers through this engine.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from time import perf_counter_ns
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.network import TRUNK
from ..model.units import BYTES_PER_MB, bytes_to_mb, MBIT_PER_MB, transfer_time_s
from .engine import Simulator
from .events import Event

#: Residual payload (in MB) below which a transfer counts as finished.
#: Far above float noise accumulated by settling (≈1e-13 MB), far below
#: one byte (1e-6 MB), so no real payload is ever silently dropped.
_EPS_MB = 1e-9

#: Profile label of the engine's deadline heap (mirrors
#: ``repro.telemetry.DEADLINE_HEAP``; this package never imports it).
_DEADLINE_HEAP = "@deadline"


class TransferModel(enum.Enum):
    """How the simulation turns bytes into elapsed time."""

    #: The paper's model: ``Size / BW`` computed analytically, slept in
    #: one piece, no contention.  Seed experiments reproduce bit-for-bit.
    ANALYTIC = "analytic"
    #: Transfers occupy shared links over time via :class:`TransferEngine`.
    TIME_RESOLVED = "time-resolved"


class UploadBudgetExceeded(RuntimeError):
    """The source device is already at its concurrent-upload budget."""


class TransferCancelled(Exception):
    """Delivered to waiters of a transfer that was cancelled mid-flight."""

    def __init__(self, transfer: "Transfer", reason: str = "") -> None:
        super().__init__(
            f"transfer {transfer.src}->{transfer.dst} cancelled"
            + (f": {reason}" if reason else "")
        )
        self.transfer = transfer
        self.reason = reason


class Link:
    """One shared channel: a capacity and the transfers crossing it."""

    __slots__ = (
        "name", "capacity_mbps", "shard", "transfers", "peak_utilisation_mbps"
    )

    def __init__(
        self, name: str, capacity_mbps: float, shard: str = TRUNK
    ) -> None:
        if capacity_mbps <= 0:
            raise ValueError(f"link {name!r} capacity must be > 0")
        self.name = name
        self.capacity_mbps = capacity_mbps
        #: Region that owns this link
        #: (:data:`~repro.model.network.TRUNK` when none does); the
        #: metrics sampler groups link utilisation by it.
        self.shard = shard
        #: Active transfers keyed by transfer id (insertion ordered —
        #: determinism depends on it).
        self.transfers: Dict[int, "Transfer"] = {}
        #: Highest simultaneous allocated rate ever observed (tests use
        #: this to check fair shares never oversubscribe the link).
        self.peak_utilisation_mbps = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name!r}, {self.capacity_mbps} Mbit/s, "
            f"{len(self.transfers)} active)"
        )


class Transfer:
    """One payload moving through a path of shared links."""

    __slots__ = (
        "id",
        "src",
        "dst",
        "size_bytes",
        "src_is_registry",
        "links",
        "latency_s",
        "done",
        "requested_s",
        "completed_s",
        "cancelled",
        "remaining_mb",
        "rate_mbps",
        "active",
        "settled_s",
        "deadline_s",
        "component",
    )

    def __init__(
        self,
        transfer_id: int,
        src: str,
        dst: str,
        size_bytes: int,
        links: Tuple[Link, ...],
        latency_s: float,
        done: Event,
        requested_s: float,
        src_is_registry: bool,
    ) -> None:
        self.id = transfer_id
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.src_is_registry = src_is_registry
        self.links = links
        self.latency_s = latency_s
        self.done = done
        self.requested_s = requested_s
        self.completed_s: Optional[float] = None
        self.cancelled = False
        self.remaining_mb = bytes_to_mb(size_bytes)
        self.rate_mbps = 0.0
        #: True while the transfer occupies its links (past latency,
        #: not yet finished/cancelled).
        self.active = False
        #: Simulated time up to which ``remaining_mb`` is accounted
        #: (settled lazily, per dirty closure).
        self.settled_s = requested_s
        #: The solved component whose heap entry indexes this transfer
        #: (None outside one).  Indexing also sets ``deadline_s``, the
        #: predicted completion time.
        self.component: Optional[_Component] = None

    @property
    def lower_bound_s(self) -> float:
        """Uncontended completion time: latency + size over the
        narrowest link of the path.  No schedule can beat it."""
        if not self.links:
            return self.latency_s
        bottleneck = min(link.capacity_mbps for link in self.links)
        return self.latency_s + transfer_time_s(
            bytes_to_mb(self.size_bytes), bottleneck
        )

    @property
    def moved_bytes(self) -> int:
        """Payload bytes already delivered (settled progress).

        Exact for finished/cancelled transfers — the engine settles
        progress before failing a cancelled transfer's event — so this
        is what waste accounting reads when a mid-flight fallback
        abandons a transfer's delivered bytes.
        """
        done_mb = bytes_to_mb(self.size_bytes) - self.remaining_mb
        moved = int(round(done_mb * BYTES_PER_MB))
        return max(0, min(self.size_bytes, moved))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "cancelled" if self.cancelled
            else "done" if self.completed_s is not None
            else "active" if self.active
            else "latency"
        )
        return (
            f"Transfer#{self.id}({self.src}->{self.dst}, "
            f"{self.size_bytes} B, {state})"
        )


class _Component:
    """One connected component of a closure solve: the unit the
    deadline index holds one heap entry for.

    ``live`` drops to False when any member is re-solved or detached,
    which retires the component's heap entry (skipped lazily when it
    surfaces).
    """

    __slots__ = ("members", "live")

    def __init__(self, members: List[Transfer]) -> None:
        self.members = members
        self.live = True


def _link_table(transfers: Iterable[Transfer]) -> Dict[Link, List[float]]:
    """The link table :meth:`TransferEngine._fill` consumes, built from
    a union of whole components: each of their links mapped to
    ``[capacity, occupancy]``."""
    links: Dict[Link, List[float]] = {}
    for transfer in transfers:
        for link in transfer.links:
            if link not in links:
                links[link] = [link.capacity_mbps, len(link.transfers)]
    return links


class TransferEngine:
    """Shared-bandwidth transfer scheduler on the DES clock.

    One engine serves one simulation: it owns the :class:`Link` objects
    (materialised lazily from the network's
    :meth:`~repro.model.network.NetworkModel.transfer_path` specs) and
    the one cache of resolved paths, each pair's tuple of live links
    plus its latency, kept while the network's ``topology_version``
    stands.  It tracks every in-flight :class:`Transfer`, and keeps
    all rates max-min fair.  Rate recomputation runs on every start,
    finish, and cancellation — there is no per-tick work, so idle
    links are free.

    Recompute cost
    --------------
    An event costs only its **dirty closure** — the connected
    component(s) of the transfer–link graph reachable from the links
    whose membership changed.  Because max-min fairness is exactly
    decomposable over components, the closure fill is bit-identical to
    a fill over every active transfer (``self_check=True`` re-derives
    that full solution after every event and asserts equality — a test
    hook, quadratic, never for production runs).
    ``transfers_visited`` counts the transfers actually re-rated, so
    scale benchmarks can compare the work directly.  Predicted
    completions are indexed with one heap entry per solved component,
    and the single wake is armed at the earliest live entry.
    Transfers whose latency handshakes the kernel would process back
    to back join their links under one recompute
    (:meth:`_await_handshake`).

    Upload budgets
    --------------
    ``upload_budget`` (None, or 1 and up) caps concurrent uploads *per
    device source* (registries are exempt: their fan-out is the CDN's
    problem, modelled by their uplink capacity instead).  A saturated
    source makes :meth:`start` raise :class:`UploadBudgetExceeded`;
    callers re-resolve to another source, and when none is left wait
    on :meth:`upload_slot_freed` for a saturated one to free a slot.
    """

    def __init__(
        self,
        sim: Simulator,
        network,
        upload_budget: Optional[int] = None,
        self_check: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.upload_budget = upload_budget
        self.self_check = self_check
        self._links: Dict[str, Link] = {}
        # Each resolved (src, dst, src_is_registry) path: its live links
        # and its latency.  Valid while the network's topology version
        # is ``_paths_version``; any topology change drops it wholesale.
        self._paths: Dict[
            Tuple[str, str, bool], Tuple[Tuple[Link, ...], float]
        ] = {}
        self._paths_version = network.topology_version
        self._active: Dict[int, Transfer] = {}
        self._uploads: Dict[str, Dict[int, Transfer]] = {}
        # source device -> events to fire when it next frees a slot
        self._slot_waiters: Dict[str, List[Event]] = {}
        self._ids = itertools.count()
        self._generation = 0
        self._wake: Optional[Event] = None
        # The open handshake batch: an event whose value lists the
        # transfers it activates, and the instant it is due.
        self._handshake: Optional[Event] = None
        self._handshake_due = 0.0
        # The component deadline index: a lazy min-heap of (earliest
        # member deadline, seq, component); an entry whose component is
        # no longer live is skipped when it surfaces.
        self._deadlines: List[Tuple[float, int, _Component]] = []
        self._deadline_seq = itertools.count()
        self._wake_deadline = float("inf")
        # diagnostics
        self.started = 0
        self.completed = 0
        self.cancellations = 0
        self.recomputes = 0
        self.bytes_completed = 0
        #: Transfers assigned a rate, summed over all recomputes (each
        #: re-rates its dirty closure) — the work metric the scale
        #: benchmarks compare.
        self.transfers_visited = 0
        # telemetry (duck-typed, None = off; see repro.telemetry).
        #: Optional trace sink receiving transfer.start/finish/cancel
        #: and engine.reallocate records.
        self.trace = None
        #: Optional self-profiler receiving per-recompute wall-clock ns,
        #: closure sizes, and deadline-heap push/pop/invalidation counts
        #: (label "@deadline").
        self.profile = None
        #: Reallocation-solve sequence (the closure id trace records
        #: carry — one per fill, shared by the rates it assigned).
        self._closure_seq = itertools.count()

    # ------------------------------------------------------------------
    # upload budgets
    # ------------------------------------------------------------------

    def uploads_in_flight(self, device: str) -> int:
        return len(self._uploads.get(device, ()))

    def can_upload(self, device: str) -> bool:
        """Whether ``device`` may start one more upload right now."""
        budget = self.upload_budget
        return budget is None or self.uploads_in_flight(device) < budget

    def upload_slot_freed(self, devices: Sequence[str]) -> Event:
        """An event that fires once any of ``devices`` has a free
        upload slot: at once if one has a slot now, else when one of
        their uploads finishes or is cancelled (a device without a
        free slot has an upload in flight, as every budget is >= 1).
        """
        freed = self.sim.event()
        if any(self.can_upload(device) for device in devices):
            return freed.succeed()
        for device in devices:
            self._slot_waiters.setdefault(device, []).append(freed)
        return freed

    # ------------------------------------------------------------------
    # starting / finishing / cancelling
    # ------------------------------------------------------------------
    def start(
        self,
        src: str,
        dst: str,
        size_bytes: int,
        src_is_registry: bool = False,
        digest: str = "",
    ) -> Transfer:
        """Begin moving ``size_bytes`` from ``src`` to ``dst``.

        Returns a :class:`Transfer` whose ``done`` event fires (with
        no value) at completion, or fails with
        :class:`TransferCancelled` if cancelled.  A value of the
        transfer itself would make every finished transfer a
        ``Transfer`` → ``done`` → ``Transfer`` cycle that only the
        cyclic collector frees; a cancelled one keeps that cycle
        through ``TransferCancelled.transfer``.  Raises
        :class:`UploadBudgetExceeded` (consuming no slot) if a *device*
        source is already at its budget.  ``digest`` only labels the
        transfer in traces: the device cache's reservation, not the
        engine, keeps one layer from landing twice on one device.
        """
        if size_bytes < 0:
            raise ValueError(f"negative transfer size: {size_bytes}")
        if not src_is_registry and not self.can_upload(src):
            raise UploadBudgetExceeded(
                f"{src!r} is at its upload budget "
                f"({self.uploads_in_flight(src)} in flight)"
            )
        links, latency_s = self._path(src, dst, src_is_registry)
        transfer = Transfer(
            transfer_id=next(self._ids),
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            links=links,
            latency_s=latency_s,
            done=self.sim.event(),
            requested_s=self.sim.now,
            src_is_registry=src_is_registry,
        )
        self.started += 1
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "transfer.start", dst,
                id=transfer.id, src=src, size_bytes=size_bytes,
                digest=digest, registry=src_is_registry,
            )
        if not src_is_registry:
            self._uploads.setdefault(src, {})[transfer.id] = transfer
        if latency_s > 0:
            self._await_handshake(transfer)
        else:
            self._activate((transfer,))
        return transfer

    def cancel(self, transfer: Transfer, reason: str = "") -> bool:
        """Abort an in-flight transfer; its bandwidth frees immediately.

        Returns False (no-op) if the transfer already completed or was
        already cancelled; otherwise fails the transfer's ``done``
        event with :class:`TransferCancelled`.
        """
        return self._cancel_batch((transfer,), reason) > 0

    def cancel_many(
        self, transfers: Iterable[Transfer], reason: str = ""
    ) -> int:
        """Cancel a batch of transfers with **one** settle + recompute.

        Already-finished or already-cancelled entries are skipped, like
        :meth:`cancel`.  The batch detaches every victim before rates
        are re-solved once, so cancelling k transfers costs one
        recompute instead of k — and survivors never observe the
        intermediate memberships (which a per-victim loop would expose
        as phantom rate spikes in zero elapsed time).  Victims are
        processed in id order for determinism.  Returns the number of
        transfers actually cancelled.
        """
        return self._cancel_batch(
            sorted(transfers, key=lambda t: t.id), reason
        )

    def cancel_uploads_from(self, device: str, reason: str = "") -> int:
        """Cancel every in-flight upload seeded by ``device``.

        The device-departure hook: a peer leaving the swarm takes its
        uploads with it.  The whole batch settles and recomputes once
        (a departing seeder with k uploads used to trigger k
        recomputes).  Returns the number of transfers cancelled.
        """
        victims = sorted(
            self._uploads.get(device, {}).values(), key=lambda t: t.id
        )
        return self._cancel_batch(victims, reason or f"{device} departed")

    def _cancel_batch(
        self, transfers: Sequence[Transfer], reason: str
    ) -> int:
        # One entry per transfer: a repeat would be counted and failed
        # twice, and the second ``done.fail`` raises mid-batch.
        unique = {t.id: t for t in transfers}
        victims = [
            t for t in unique.values()
            if not t.cancelled and t.completed_s is None
        ]
        if not victims:
            return 0
        seeds: List[Link] = []
        for transfer in victims:
            transfer.cancelled = True
            self.cancellations += 1
            self._release_slot(transfer)
            if transfer.active:
                self._settle_one(transfer, self.sim.now)
                seeds.extend(transfer.links)
                self._detach(transfer)
        if seeds:
            self._recompute(seeds)
        # Event failure is deferred (callbacks run when the queue
        # processes the event), so failing after the single recompute
        # preserves the per-victim ordering waiters observe.
        for transfer in victims:
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "transfer.cancel", transfer.dst,
                    id=transfer.id, reason=reason,
                    moved_bytes=transfer.moved_bytes,
                )
            transfer.done.fail(TransferCancelled(transfer, reason))
        return len(victims)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active_transfers(self) -> List[Transfer]:
        return list(self._active.values())

    def remaining_mb(self, transfer: Transfer) -> float:
        """The transfer's unsent payload as of *now*.

        ``transfer.remaining_mb`` is settled lazily, per dirty closure,
        so mid-flight readers (the chunked endgame's straggler
        detection) get an active transfer's progress projected forward
        to the current clock.  Non-mutating: querying never perturbs
        the engine's own accounting.
        """
        if not transfer.active:
            return transfer.remaining_mb
        dt = self.sim.now - transfer.settled_s
        if dt <= 0 or transfer.rate_mbps <= 0:
            return transfer.remaining_mb
        return max(
            0.0,
            transfer.remaining_mb - transfer.rate_mbps / MBIT_PER_MB * dt,
        )

    def links(self) -> List[Link]:
        return list(self._links.values())

    def estimated_transfer_s(
        self, src: str, dst: str, size_mb: float, src_is_registry: bool = False
    ) -> float:
        """Contention-aware counterpart of ``Channel.transfer_time_s``.

        Takes, per link of the ``src → dst`` path, the equal split
        among the link's current occupants plus the newcomer — the
        first-order max-min estimate (the true allocation can be higher
        when other occupants are bottlenecked elsewhere).  Links with
        no live state count at full capacity.  Loopback and empty
        transfers cost 0.

        A path a transfer already resolved is read from the engine's
        cache; any other is built from the network and not kept, so an
        estimate never creates a link (:meth:`links` feeds the metrics
        sampler's per-shard utilisation).
        """
        self._check_paths()
        path = self._paths.get((src, dst, src_is_registry))
        if path is None:
            path = self.network.transfer_path(
                src, dst, src_is_registry=src_is_registry
            )
        hops, latency_s = path
        if not hops or size_mb <= 0:
            return 0.0
        rate = float("inf")
        for hop in hops:
            link = self._links.get(hop.name)
            occupants = len(link.transfers) if link is not None else 0
            rate = min(rate, hop.capacity_mbps / (occupants + 1))
        return latency_s + transfer_time_s(size_mb, rate)

    def peak_oversubscription(self) -> float:
        """Worst observed ``allocated / capacity`` over all links.

        Utilisation is the *sum of allocated rates* over a link's
        transfers — measured independently of the filling loop's own
        capacity bookkeeping, so a real over-allocation bug shows up
        here as a ratio above 1 instead of being clamped away.
        Max-min fairness guarantees the ratio never exceeds 1 (modulo
        float noise); the Hypothesis invariant tests pin it down.
        """
        worst = 0.0
        for link in self._links.values():
            worst = max(worst, link.peak_utilisation_mbps / link.capacity_mbps)
        return worst

    def reference_rates(self) -> Dict[int, float]:
        """Max-min rates from a full fill over every active transfer,
        computed without touching engine state — the oracle the
        closure fill must match bit-for-bit."""
        record: Dict[int, float] = {}
        if self._active:
            self._fill(
                self._active, _link_table(self._active.values()), record
            )
        return record

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _check_paths(self) -> None:
        """Drop every cached path once the network's topology moved."""
        version = self.network.topology_version
        if version != self._paths_version:
            self._paths.clear()
            self._paths_version = version

    def _path(
        self, src: str, dst: str, src_is_registry: bool
    ) -> Tuple[Tuple[Link, ...], float]:
        """The ``src → dst`` path's live links and its latency,
        resolved from the network once per topology version.  Resolving
        runs :meth:`_link`'s capacity and shard checks, so a topology
        change that alters a live link still fails loudly."""
        self._check_paths()
        key = (src, dst, src_is_registry)
        path = self._paths.get(key)
        if path is None:
            specs, latency_s = self.network.transfer_path(
                src, dst, src_is_registry=src_is_registry
            )
            path = self._paths[key] = (
                tuple(
                    self._link(spec.name, spec.capacity_mbps, spec.shard)
                    for spec in specs
                ),
                latency_s,
            )
        return path

    def _link(
        self, name: str, capacity_mbps: float, shard: str = TRUNK
    ) -> Link:
        link = self._links.get(name)
        if link is None:
            link = Link(name, capacity_mbps, shard)
            self._links[name] = link
        elif link.capacity_mbps != capacity_mbps:
            raise ValueError(
                f"link {name!r} capacity changed mid-simulation "
                f"({link.capacity_mbps} -> {capacity_mbps} Mbit/s)"
            )
        elif link.shard != shard:
            raise ValueError(
                f"link {name!r} shard changed mid-simulation "
                f"({link.shard!r} -> {shard!r})"
            )
        return link

    def _await_handshake(self, transfer: Transfer) -> None:
        """Activate ``transfer`` once its latency elapses.

        Handshakes the kernel would process back to back share one
        event: a transfer whose handshake is due at the same instant as
        the open batch's, while that batch's event is still the last
        one the queue scheduled, joins the batch instead of queueing its
        own.  Nothing but observer events could run between the two
        handshakes, so activating them together changes no outcome.
        """
        sim = self.sim
        due = sim.now + transfer.latency_s
        handshake = self._handshake
        if (
            handshake is None
            or due != self._handshake_due
            or sim.last_scheduled() is not handshake
        ):
            handshake = sim.timeout(transfer.latency_s, [])
            handshake.add_callback(self._on_handshake)
            self._handshake = handshake
            self._handshake_due = due
        handshake.value.append(transfer)

    def _on_handshake(self, handshake: Event) -> None:
        if handshake is self._handshake:
            self._handshake = None
        self._activate(handshake.value)

    def _activate(self, transfers: Sequence[Transfer]) -> None:
        """Latency elapsed: the transfers join their links in start
        order, and one recompute re-solves the union of their links.

        A transfer cancelled in its latency window is skipped.  A
        zero-payload (or loopback) one finishes here: it never occupies
        a link.  The links joined before it are re-solved first, so the
        events its finish schedules follow the wake that re-solve arms,
        exactly as they did when every transfer had its own handshake.
        """
        now = self.sim.now
        seeds: List[Link] = []
        for transfer in transfers:
            if transfer.cancelled:
                continue
            if transfer.remaining_mb <= _EPS_MB or not transfer.links:
                if seeds:
                    self._recompute(seeds)
                    seeds = []
                self._finish(transfer)
                continue
            transfer.active = True
            transfer.settled_s = now
            self._active[transfer.id] = transfer
            for link in transfer.links:
                link.transfers[transfer.id] = transfer
            seeds.extend(transfer.links)
        if seeds:
            self._recompute(seeds)

    def _detach(self, transfer: Transfer) -> None:
        transfer.active = False
        active = self._active
        active.pop(transfer.id, None)
        if not active:
            # Like a link's occupant table below: free the grown table
            # once the last transfer leaves.
            active.clear()
        component = transfer.component
        if component is not None:
            # Retire the indexed component: a cancelled transfer alone
            # in it leaves an empty closure, so no re-solve would.
            component.live = False
            transfer.component = None
        for link in transfer.links:
            occupants = link.transfers
            occupants.pop(transfer.id, None)
            if not occupants:
                # A dict keeps its table after its last pop; clear()
                # frees it, so an idle link costs an empty dict.
                occupants.clear()

    def _release_slot(self, transfer: Transfer) -> None:
        if not transfer.src_is_registry:
            slots = self._uploads.get(transfer.src)
            if slots is not None:
                slots.pop(transfer.id, None)
                if not slots:
                    del self._uploads[transfer.src]
            if self._slot_waiters:
                for freed in self._slot_waiters.pop(transfer.src, ()):
                    # An event waiting on several sources fires once.
                    if not freed.triggered:
                        freed.succeed()

    def _finish(self, transfer: Transfer) -> None:
        self._detach(transfer)
        self._release_slot(transfer)
        transfer.completed_s = self.sim.now
        transfer.remaining_mb = 0.0
        transfer.rate_mbps = 0.0
        self.completed += 1
        self.bytes_completed += transfer.size_bytes
        if self.trace is not None:
            self.trace.record(
                self.sim.now, "transfer.finish", transfer.dst,
                id=transfer.id,
                duration_s=transfer.completed_s - transfer.requested_s,
            )
        transfer.done.succeed()

    def _settle_one(self, transfer: Transfer, now: float) -> None:
        """Bring one transfer's ``remaining_mb`` up to ``now`` (the
        current clock) at its (unchanged) rate."""
        dt = now - transfer.settled_s
        transfer.settled_s = now
        if dt <= 0 or transfer.rate_mbps <= 0:
            return
        left = transfer.remaining_mb - transfer.rate_mbps / MBIT_PER_MB * dt
        transfer.remaining_mb = left if left > 0.0 else 0.0

    # ------------------------------------------------------------------
    # progressive filling
    # ------------------------------------------------------------------
    def _fill(
        self,
        transfers: Dict[int, Transfer],
        links: Dict[Link, List[float]],
        record: Optional[Dict[int, float]] = None,
    ) -> None:
        """Progressive filling over ``transfers``.

        ``transfers`` must be a union of whole connected components of
        the transfer–link graph (a dirty closure is by construction, and
        so is the active set :meth:`reference_rates` fills).  ``links``
        is the fill's link table, which the fill consumes: every link
        of ``transfers`` mapped to ``[capacity left, unfrozen count]``,
        seeded with its capacity and occupancy.  The closure walk in
        :meth:`_recompute` builds it as it finds each link;
        :meth:`reference_rates` builds it with :func:`_link_table`.
        Assigns each transfer its max-min fair rate and records
        per-link peak utilisation as the **sum of allocated rates** —
        independent of the loop's own capacity bookkeeping, so an
        over-allocation bug is observable.  With ``record`` the rates
        go into that mapping instead and no engine state is touched
        (the reference rates ``self_check`` compares against).

        Four facts keep the kernel lean and exact.  Whole components
        mean every occupant of a link in the table is in ``transfers``,
        so a link's unfrozen count starts at its occupancy.  Every transfer
        frozen in one round subtracts the same share, so the order in
        which a round freezes them cannot change any float.  The
        bottleneck is the least ``(share, name)``, so the table's order
        cannot change it, and a table link with no occupant (a seed the
        triggering event emptied) is skipped like any drained link.
        And once the bottleneck carries every transfer still unfrozen,
        that round is the last: it freezes them and skips the link
        updates, which nothing would read again.
        """
        rates: Dict[int, float] = {} if record is None else record
        remaining = len(transfers)
        while True:
            # Bottleneck link: the one whose equal split is smallest,
            # ties broken by name.
            best_link: Optional[Link] = None
            best_share = 0.0
            for link, (capacity_left, count) in links.items():
                if count == 0:
                    continue
                share = capacity_left / count
                if best_link is None or share < best_share or (
                    share == best_share and link.name < best_link.name
                ):
                    best_link, best_share = link, share
            assert best_link is not None  # an unfrozen transfer remains
            if links[best_link][1] == remaining:
                # The last round: every unfrozen transfer crosses the
                # bottleneck.
                for tid in best_link.transfers:
                    if tid not in rates:
                        rates[tid] = best_share
                break
            for tid, transfer in best_link.transfers.items():
                if tid in rates:
                    continue
                rates[tid] = best_share
                remaining -= 1
                for link in transfer.links:
                    state = links[link]
                    left = state[0] - best_share
                    state[0] = left if left > 0.0 else 0.0
                    state[1] -= 1
        if record is None:
            for tid, transfer in transfers.items():
                transfer.rate_mbps = rates[tid]
            self.transfers_visited += len(transfers)
            self._record_peaks(links)
            if self.trace is not None:
                # Integer transfer ids as keys — json.dumps stringifies
                # them at export; skipping str() here keeps the hot
                # path inside the tracing overhead budget.
                self.trace.record(
                    self.sim.now, "engine.reallocate", "",
                    closure=next(self._closure_seq), n=len(transfers),
                    rates={
                        tid: t.rate_mbps for tid, t in transfers.items()
                    },
                )

    def _record_peaks(self, involved: Iterable[Link]) -> None:
        """Update peak utilisation from the rates actually allocated."""
        for link in involved:
            utilisation = 0.0
            for transfer in link.transfers.values():
                utilisation += transfer.rate_mbps
            if utilisation > link.peak_utilisation_mbps:
                link.peak_utilisation_mbps = utilisation

    # ------------------------------------------------------------------
    # dirty-closure recompute
    # ------------------------------------------------------------------
    def _recompute(self, seeds: Iterable[Link]) -> None:
        """Re-solve only the connected component(s) touching ``seeds``.

        ``seeds`` are the links whose membership the triggering event
        changed.  The closure walk collects every transfer reachable
        from them through shared links (settling each at its old rate
        first — rates change only after progress is accounted), then
        refills that closure.  Transfers outside the closure share no
        link with it, directly or transitively, so their max-min rates
        are provably unchanged — skipping them is what breaks the
        every-event-scans-everything cost wall.  The walk starts one
        depth-first search per unseen seed, so each search yields one
        whole component, which the deadline index then holds as one
        entry.  The walk also builds the fill's link table: each link
        it finds is recorded once, with its capacity and occupancy, and
        that record is also how the walk knows it has seen the link.
        """
        self.recomputes += 1
        # Observation only: feeds the profiler, never an outcome.
        t0 = perf_counter_ns() if self.profile is not None else 0  # repro-lint: disable=wall-clock-in-sim
        now = self.sim.now
        links: Dict[Link, List[float]] = {}
        closure: Dict[int, Transfer] = {}
        components: List[List[Transfer]] = []
        for seed in seeds:
            if seed in links:
                continue
            links[seed] = [seed.capacity_mbps, len(seed.transfers)]
            stack = [seed]
            members: List[Transfer] = []
            while stack:
                for tid, transfer in stack.pop().transfers.items():
                    if tid in closure:
                        continue
                    closure[tid] = transfer
                    members.append(transfer)
                    self._settle_one(transfer, now)
                    for other in transfer.links:
                        if other not in links:
                            links[other] = [
                                other.capacity_mbps, len(other.transfers)
                            ]
                            stack.append(other)
            if members:
                components.append(members)
        if len(closure) == 1:
            # Degenerate (and, off the hot spots, most common) closure:
            # a transfer alone on all its links.  Its max-min rate is
            # the path bottleneck; skip the filling-loop bookkeeping.
            (transfer,) = closure.values()
            rate = min(link.capacity_mbps for link in transfer.links)
            transfer.rate_mbps = rate
            self.transfers_visited += 1
            for link in transfer.links:
                if rate > link.peak_utilisation_mbps:
                    link.peak_utilisation_mbps = rate
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "engine.reallocate", "",
                    closure=next(self._closure_seq), n=1,
                    rates={transfer.id: rate},
                )
        elif closure:
            self._fill(closure, links)
        for members in components:
            self._index_component(members)
        if self.profile is not None:
            # repro-lint: disable=wall-clock-in-sim
            self.profile.note_recompute(perf_counter_ns() - t0, len(closure))
        if self.self_check:
            self._assert_reference_rates()
        self._arm_deadline_wake()

    # ------------------------------------------------------------------
    # component deadline index
    # ------------------------------------------------------------------
    def _index_component(self, members: List[Transfer]) -> None:
        """Predict each member's completion and index the component
        once, under its earliest member deadline.  Each member's
        previous component is retired: a closure is a union of whole
        old components, so none of them keeps a member outside it."""
        component = _Component(members)
        earliest = float("inf")
        for transfer in members:
            old = transfer.component
            if old is not None:
                old.live = False
            transfer.component = component
            deadline = (
                transfer.settled_s
                + transfer.remaining_mb * MBIT_PER_MB / transfer.rate_mbps
            )
            transfer.deadline_s = deadline
            if deadline < earliest:
                earliest = deadline
        heapq.heappush(
            self._deadlines, (earliest, next(self._deadline_seq), component)
        )
        if self.profile is not None:
            self.profile.heap_push(_DEADLINE_HEAP)

    def _arm_deadline_wake(self) -> None:
        """Point the single wake-up at the earliest live component.

        Retired entries on top are discarded first, so the top key is
        the minimum over every indexed transfer's deadline.  A wake
        already armed at that deadline is kept.
        """
        heap = self._deadlines
        prof = self.profile
        while heap and not heap[0][2].live:
            heapq.heappop(heap)
            if prof is not None:
                prof.heap_invalidate(_DEADLINE_HEAP)
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
        wake.add_callback(lambda _evt, g=generation: self._on_wake(g))
        self._wake = wake
        self._wake_deadline = deadline

    def _on_wake(self, generation: int) -> None:
        """Drain every due component.  Its due members are settled and
        either finished or re-predicted; a component that lost no
        member is re-indexed at its new minimum, and one that did is
        re-solved whole by the recompute over the finished links."""
        if generation != self._generation:
            return  # stale wake-up: the index changed since
        now = self.sim.now
        heap = self._deadlines
        prof = self.profile
        finished: List[Transfer] = []
        while heap:
            earliest, _seq, component = heap[0]
            if not component.live:
                heapq.heappop(heap)
                if prof is not None:
                    prof.heap_invalidate(_DEADLINE_HEAP)
                continue
            if earliest > now:
                break
            heapq.heappop(heap)
            if prof is not None:
                prof.heap_pop(_DEADLINE_HEAP)
            n_finished = len(finished)
            earliest = float("inf")
            for transfer in component.members:
                deadline = transfer.deadline_s
                if deadline <= now:
                    self._settle_one(transfer, now)
                    if transfer.remaining_mb <= _EPS_MB:
                        finished.append(transfer)
                        continue
                    # Residual payload above the finish threshold:
                    # re-predict.  A re-predicted deadline that cannot
                    # advance the clock (a sub-ulp residue of the
                    # timeout's float rounding) finishes now, or
                    # progress stalls on float residue.
                    deadline = (
                        transfer.settled_s
                        + transfer.remaining_mb * MBIT_PER_MB
                        / transfer.rate_mbps
                    )
                    if deadline <= now:
                        finished.append(transfer)
                        continue
                    transfer.deadline_s = deadline
                if deadline < earliest:
                    earliest = deadline
            if len(finished) == n_finished:
                heapq.heappush(
                    heap, (earliest, next(self._deadline_seq), component)
                )
                if prof is not None:
                    prof.heap_push(_DEADLINE_HEAP)
        if finished:
            seeds: List[Link] = []
            for transfer in sorted(finished, key=lambda t: t.id):
                seeds.extend(transfer.links)
                self._finish(transfer)
            self._recompute(seeds)
        else:
            self._arm_deadline_wake()

    def _assert_reference_rates(self) -> None:
        """Compare live rates against the full-fill oracle
        (exact equality — max-min decomposes over components with
        identical arithmetic, so any drift is a bug)."""
        expected = self.reference_rates()
        actual = {tid: t.rate_mbps for tid, t in self._active.items()}
        if actual != expected:
            diff = {
                tid: (actual.get(tid), expected.get(tid))
                for tid in sorted(set(expected) | set(actual))
                if actual.get(tid) != expected.get(tid)
            }
            raise AssertionError(
                f"recompute diverged from the full-fill oracle at "
                f"t={self.sim.now}: {diff}"
            )
