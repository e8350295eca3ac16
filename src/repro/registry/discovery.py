"""Pluggable peer discovery: how devices find layer replicas.

The P2P tier needs an answer to one question — *which peers hold this
digest, as far as this device knows?* — and everything downstream
(:class:`~repro.registry.p2p.PullPlanner`, the time-resolved pull
process, the :class:`~repro.registry.p2p.AdaptiveReplicator`) consumes
that answer.  This module extracts the question into a protocol with
two implementations:

:class:`OmniscientDiscovery`
    Wraps the ground-truth :class:`~repro.registry.p2p.PeerIndex`:
    every device sees every committed replica instantly and exactly.
    This is the historical behaviour and stays the default — outputs
    are bit-for-bit identical to the pre-refactor code.

:class:`GossipDiscovery`
    Per-device **partial views** converging via periodic anti-entropy
    exchanges (push-pull, seeded fanout), scheduled as ordinary
    sim-engine processes.  Views lag reality by up to a gossip period
    and survive holder departures, so *staleness is a first-class
    failure mode*: a view entry that resolves to an evicted or
    departed holder fails verification against the ground-truth index,
    the miss is metered, and the pull falls back through the registry
    chain (regional → hub).

Versioning
----------
A gossip record is one fact about ``(holder, digest)`` at a version
``(incarnation, seq)``, stored as a single packed int key::

    key = ((incarnation << 32 | seq) << 1) | absent

``seq`` is the holder's own monotone event counter (every cache
add/evict/remove bumps it; the peer index passes each one on through
:meth:`GossipDiscovery.note`), ``incarnation`` bumps each time the holder
re-joins the swarm — so a device re-joining with a stale cache cannot
be shadowed by tombstones from its previous life.  Merges keep the
strictly newer record; on a version tie the *absent* record wins,
which makes local stale-miss suppression sticky (a viewer that
observed a holder to be stale never un-observes it from equally-old
gossip).  The packing makes plain ``>`` on keys exactly that rule: the
version fills the high bits and the low bit breaks ties toward
*absent*.  ``seq`` must stay below ``2**32`` (a holder that got there
raises rather than misorder its records).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.spec import DiscoverySpec
    from ..sim.engine import Simulator
    from .p2p import PeerIndex

#: Bits of a packed version key that hold ``seq`` (above the absent bit).
_SEQ_BITS = 32

#: A round-start snapshot of one participant's knowledge: its records
#: grouped by digest as ``(holder, key)`` pairs, plus the record count.
Payload = Tuple[Dict[str, List[Tuple[str, int]]], int]


def _version_key(incarnation: int, seq: int, present: bool) -> int:
    """The packed record key; ``>`` on keys is the merge rule."""
    return ((incarnation << _SEQ_BITS | seq) << 1) | (not present)


class DiscoveryBackend:
    """The replica-lookup surface of the P2P tier.

    ``authoritative`` declares whether :meth:`view` is ground truth: an
    authoritative backend whose answer fails verification is an index
    coherence *bug* (raise), a non-authoritative one has merely served
    a stale entry (meter the miss, fall back).
    """

    authoritative = True

    #: Total stale view entries that failed holder verification.
    stale_misses = 0

    #: Name the management plane (the replicator) verifies as — gossip
    #: backends key their observer view on it.
    observer = "__management__"

    #: The peer index forwards every presence change of a member's
    #: cache here, as ``note(device, digest, size_bytes, present)``;
    #: None for a backend that reads the index itself.
    note: Optional[Callable[[str, str, int, bool], None]] = None

    # -- membership ----------------------------------------------------
    def on_join(self, device: str) -> None:
        """``device`` joined the swarm (its cache's entries follow as
        :attr:`note` calls when the index registers it)."""

    def on_leave(self, device: str) -> None:
        """``device`` departed (its cache may return later, stale)."""

    # -- lookups -------------------------------------------------------
    def view(self, viewer: str, digest: str) -> FrozenSet[str]:
        """Holders of ``digest`` as seen *by ``viewer``* (may be stale)."""
        raise NotImplementedError

    def management_view(self, digest: str) -> FrozenSet[str]:
        """Holders as seen by the management plane (the replicator)."""
        raise NotImplementedError

    def size_of(self, digest: str) -> Optional[int]:
        """Known size of ``digest`` in bytes (None if never observed)."""
        raise NotImplementedError

    # -- staleness feedback --------------------------------------------
    def record_miss(self, viewer: str, holder: str, digest: str) -> None:
        """``viewer`` verified ``holder`` and found the entry stale."""


class OmniscientDiscovery(DiscoveryBackend):
    """Perfect, instantaneous global knowledge (the historical model).

    Wraps the swarm's ground-truth :class:`PeerIndex`; every viewer —
    devices and the management plane alike — sees exactly the committed
    replica set.  Verification can never fail, so a failed verification
    against this backend raises (index incoherence is a bug).
    """

    authoritative = True

    def __init__(self, index: "PeerIndex") -> None:
        self.index = index

    def view(self, viewer: str, digest: str) -> FrozenSet[str]:
        # The live holder set, not a snapshot: every caller consumes a
        # view immediately (set algebra, len, iteration), and at swarm
        # scale per-lookup copies of a hot layer's thousand-holder set
        # would dominate the pull path.
        return self.index.holders_view(digest)

    def management_view(self, digest: str) -> FrozenSet[str]:
        return self.index.holders_view(digest)

    def size_of(self, digest: str) -> Optional[int]:
        return self.index.size_of(digest)


class GossipDiscovery(DiscoveryBackend):
    """Partial views converging via seeded push-pull anti-entropy.

    Every ``period_s`` simulated seconds each participant (every swarm
    member plus one management-plane ``observer``) picks ``fanout``
    random partners and exchanges its knowledge — its own first-hand
    cache state, which the peer index reports through :meth:`note`,
    plus everything second-hand it has heard.  The knobs come from a
    gossip :class:`~repro.scenarios.spec.DiscoverySpec`; rounds run on
    ``sim``'s clock from :meth:`start`.  Merging
    follows the versioning rules in the module docstring; per digest a
    view keeps at most ``view_cap`` *present* entries and ``view_cap``
    tombstones (the freshest of each), which is what makes the views
    partial rather than eventually-global.

    The backend is **not authoritative**: callers must verify a chosen
    holder against ground truth and report failures via
    :meth:`record_miss`, which suppresses the stale entry locally and
    increments :attr:`stale_misses`.
    """

    authoritative = False

    def __init__(
        self, sim: "Simulator", config: "DiscoverySpec", seed: int = 0
    ) -> None:
        self.sim = sim
        # The knobs, read once from the spec section that validated
        # them (see DiscoverySpec for what each one means).
        self.fanout = config.gossip_fanout
        self.period_s = config.gossip_period_s
        self.view_cap = config.gossip_view_cap
        self.latency_s = config.gossip_latency_s
        self.exchange = config.gossip_exchange
        self.loss_rate = config.gossip_loss_rate
        self._rng = np.random.default_rng(seed)
        # viewer -> digest -> holder -> key (second-hand knowledge; a
        # viewer's knowledge about itself lives in _firsthand only).
        self._views: Dict[str, Dict[str, Dict[str, int]]] = {
            self.observer: {}
        }
        # viewer -> digest -> (key, holder) of the lowest kept present
        # entry, only while that digest's present class is exactly full
        # (see _deliver).
        self._floors: Dict[str, Dict[str, Tuple[int, str]]] = {
            self.observer: {}
        }
        # device -> digest -> key (authoritative self-knowledge).
        self._firsthand: Dict[str, Dict[str, int]] = {}
        self._clock: Dict[str, int] = {}
        self._incarnation: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        # diagnostics
        self.rounds = 0
        self.exchanges = 0
        self.stale_misses = 0
        #: Full view records shipped over the metadata plane (both
        #: directions of every exchange) — the wire cost the
        #: digest-summary mode exists to cut.
        self.records_sent = 0
        #: Directed payloads dropped in transit (``loss_rate`` draws).
        self.payloads_lost = 0
        #: Optional telemetry trace sink (duck-typed, None = off):
        #: receives one ``gossip.round`` record per round with that
        #: round's counter deltas.  See :mod:`repro.telemetry`.
        self.trace = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def on_join(self, device: str) -> None:
        if device in self._firsthand:
            raise ValueError(f"device {device!r} already gossiping")
        if device == self.observer:
            raise ValueError(f"{device!r} collides with the observer name")
        self._incarnation[device] = self._incarnation.get(device, 0) + 1
        self._clock[device] = 0
        self._firsthand[device] = {}
        self._views.setdefault(device, {})
        self._floors.setdefault(device, {})

    def on_leave(self, device: str) -> None:
        if device not in self._firsthand:
            raise ValueError(f"device {device!r} not gossiping")
        # First-hand state and the device's view die with it; the
        # incarnation counter survives so a re-join outranks any gossip
        # from the previous life.  Other views keep their (now
        # potentially stale) entries about the device — that is the
        # failure mode this backend exists to model.
        del self._firsthand[device]
        del self._clock[device]
        self._views.pop(device, None)
        self._floors.pop(device, None)

    def note(
        self, device: str, digest: str, size_bytes: int, present: bool
    ) -> None:
        """A member's cache gained (``present``) or lost ``digest``."""
        self._note_firsthand(device, digest, size_bytes, present)

    def _note_firsthand(
        self, device: str, digest: str, size_bytes: int, present: bool
    ) -> None:
        seq = self._clock[device] + 1
        if seq >= 1 << _SEQ_BITS:
            raise OverflowError(
                f"{device!r} exhausted its {_SEQ_BITS}-bit gossip event "
                f"counter"
            )
        self._clock[device] = seq
        self._firsthand[device][digest] = _version_key(
            self._incarnation[device], seq, present
        )
        if present:
            self._sizes[digest] = size_bytes

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def view(self, viewer: str, digest: str) -> FrozenSet[str]:
        records = self._views.get(viewer, {}).get(digest)
        if not records:
            return frozenset()
        return frozenset(h for h, key in records.items() if not key & 1)

    def management_view(self, digest: str) -> FrozenSet[str]:
        return self.view(self.observer, digest)

    def size_of(self, digest: str) -> Optional[int]:
        return self._sizes.get(digest)

    def participants(self) -> List[str]:
        return sorted(self._firsthand) + [self.observer]

    # ------------------------------------------------------------------
    # staleness feedback
    # ------------------------------------------------------------------
    def record_miss(self, viewer: str, holder: str, digest: str) -> None:
        self.stale_misses += 1
        records = self._views.get(viewer, {}).get(digest)
        if records is None:
            return
        current = records.get(holder)
        if current is not None and not current & 1:
            # Suppress locally at the same version: the tie-breaking
            # merge rule (absent wins ties) keeps the suppression from
            # being revived by equally-old gossip.  The present class
            # shrank (and the tombstones may now overflow the cap), so
            # the digest's floor no longer holds.
            records[holder] = current | 1
            self._floors[viewer].pop(digest, None)

    # ------------------------------------------------------------------
    # anti-entropy rounds
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the rounds on the bound simulator's clock.

        A pending daemon and the simulator's queue point at each
        other, so a session starts it when it runs, not while it is
        assembled: a session built and dropped unrun is then freed by
        reference counting.
        """
        self.sim.process(self._run())

    def _run(self):
        # Daemon wake-ups: anti-entropy ticks forever but must not keep
        # a horizonless sim.run() from terminating.
        while True:
            yield self.sim.timeout(self.period_s, daemon=True)
            self.run_round()

    def run_round(self) -> None:
        """One synchronous anti-entropy round over all participants.

        Every participant's outgoing payload is snapshotted at round
        start (knowledge received *this* round is forwarded next round
        — one hop per round, the classic synchronous-gossip model),
        then each participant push-pulls with ``fanout`` seeded random
        partners.  Public so tests (and convergence measurements) can
        step rounds without running the simulator; with a latency, the
        round's payloads land once the simulator reaches them.
        """
        names = self.participants()
        if len(names) < 2:
            return
        if self.trace is not None:
            sent0 = self.records_sent
            lost0 = self.payloads_lost
            exch0 = self.exchanges
        payloads = {name: self._payload(name) for name in names}
        deliveries: List[Tuple[str, str]] = []  # (receiver, sender)
        for name in names:
            others = [p for p in names if p != name]
            k = min(self.fanout, len(others))
            partners = self._rng.choice(len(others), size=k, replace=False)
            for idx in sorted(int(i) for i in partners):
                partner = others[idx]
                self.exchanges += 1
                deliveries.append((partner, name))
                deliveries.append((name, partner))
        if self.loss_rate > 0 and deliveries:
            # Each directed payload is lost independently.  The draws
            # happen only when loss is configured, so loss_rate=0 runs
            # consume the exact historical RNG stream.
            draws = self._rng.random(len(deliveries))
            kept: List[Tuple[str, str]] = []
            for pair, draw in zip(deliveries, draws):
                if draw < self.loss_rate:
                    self.payloads_lost += 1
                else:
                    kept.append(pair)
            deliveries = kept
        if self.latency_s > 0:
            # Metadata takes time to cross the wire: the whole round's
            # payloads (snapshotted above) land latency_s later, so
            # views lag reality by a period *plus* the transport.
            self.sim.process(self._deliver_later(deliveries, payloads))
        else:
            for receiver, sender in deliveries:
                self._deliver(receiver, payloads[sender])
        self.rounds += 1
        if self.trace is not None:
            # Deltas of this round's wire counters (deferred-latency
            # deliveries land later, so their records count in a later
            # round's delta — the trace mirrors when work happened).
            self.trace.record(
                self.sim.now, "gossip.round", "",
                round=self.rounds,
                records_sent=self.records_sent - sent0,
                payloads_lost=self.payloads_lost - lost0,
                exchanges=self.exchanges - exch0,
            )

    def _deliver_later(self, deliveries, payloads):
        yield self.sim.timeout(self.latency_s, daemon=True)
        for receiver, sender in deliveries:
            self._deliver(receiver, payloads[sender])

    def _deliver(self, receiver: str, payload: Payload) -> None:
        """Merge one directed payload into ``receiver``'s view and meter
        its wire records.

        A payload holds at most one record per ``(holder, digest)``, so
        the merge is a per-holder maximum of keys, then the cap on each
        digest the payload changed.  ``digest-summary`` meters only the
        records strictly newer than the receiver's view (the summary
        handshake filters the rest); the merge is the same either way.

        While a digest's present class is exactly full, a present record
        about an unknown holder that ranks below the stored floor is
        *deferred*, since the cap would evict it again.  It is inserted
        only if something else in its group changes the digest.  The
        registry README explains why this is exact.
        """
        view = self._views.get(receiver)
        if view is None:
            return  # receiver departed before delivery
        groups, count = payload
        floors = self._floors[receiver]
        newer = 0
        for digest, group in groups.items():
            records = view.get(digest)
            if records is None:
                records, floor = {}, None
            else:
                floor = floors.get(digest)
            changed = False
            deferred: List[Tuple[str, int]] = []
            for holder, key in group:
                if holder == receiver:
                    continue  # self-knowledge is first-hand only
                current = records.get(holder)
                if current is None:
                    newer += 1
                    if (
                        floor is not None
                        and not key & 1
                        and (key, holder) < floor
                    ):
                        deferred.append((holder, key))
                    else:
                        records[holder] = key
                        changed = True
                elif key > current:
                    newer += 1
                    records[holder] = key
                    changed = True
            if not changed:
                continue  # only deferred news: the cap would undo it
            records.update(deferred)
            view[digest] = records  # a no-op unless the digest is new
            floor = self._enforce_cap(records)
            if floor is None:
                floors.pop(digest, None)
            else:
                floors[digest] = floor
        if self.exchange == "digest-summary":
            self.records_sent += newer
        else:
            self.records_sent += count

    def _payload(self, name: str) -> Payload:
        """Everything ``name`` knows — its view plus its first-hand
        records, each in its digest's group — snapshotted, with the
        record count a push-pull ships."""
        groups = {
            digest: list(records.items())
            for digest, records in self._views.get(name, {}).items()
        }
        count = sum(map(len, groups.values()))
        firsthand = self._firsthand.get(name)
        if firsthand is not None:
            count += len(firsthand)
            for digest, key in firsthand.items():
                group = groups.get(digest)
                if group is None:
                    groups[digest] = [(name, key)]
                else:
                    group.append((name, key))
        return groups, count

    def _enforce_cap(
        self, records: Dict[str, int]
    ) -> Optional[Tuple[int, str]]:
        """Keep at most ``view_cap`` present and ``view_cap`` absent
        entries per digest (freshest win, ``(key, holder)`` order).

        Capping tombstones too keeps view memory bounded at
        ``2·view_cap`` records per digest under sustained churn; an
        early-dropped tombstone can at worst let an old rumour
        resurface, which the verification path then meters and
        re-suppresses (self-healing).

        Returns the floor — the lowest kept present ``(key, holder)`` —
        when the present class is left exactly full, else ``None``.
        """
        cap = self.view_cap
        present = [(k, h) for h, k in records.items() if not k & 1]
        if len(records) - len(present) > cap:
            absent = [(k, h) for h, k in records.items() if k & 1]
            absent.sort(reverse=True)
            for _key, holder in absent[cap:]:
                del records[holder]
        if len(present) < cap:
            return None
        if len(present) == cap:
            return min(present)
        present.sort(reverse=True)
        for _key, holder in present[cap:]:
            del records[holder]
        return present[cap - 1]

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def coverage(self, index: "PeerIndex") -> float:
        """Mean fraction of true holders visible per (member, digest).

        1.0 means every member's view contains every committed replica
        (up to the view cap this only holds when ``view_cap`` exceeds
        the replica count); 0.0 means views are empty.  Digests nobody
        holds are skipped.
        """
        ratios: List[float] = []
        for viewer in self._firsthand:
            for digest in index.tracked_digests():
                truth = index.holders(digest) - {viewer}
                if not truth:
                    continue
                seen = self.view(viewer, digest) & truth
                want = min(len(truth), self.view_cap)
                ratios.append(len(seen) / want)
        if not ratios:
            return 1.0
        return float(sum(ratios) / len(ratios))
