"""Chunked multi-source layer transfers: BitTorrent-style swarming.

The planner in :mod:`repro.registry.p2p` resolves each layer to exactly
**one** source, so a single slow seeder caps the whole pull even when
five peers hold the same hot layer.  This module changes the unit of
transfer: layers are split into fixed-size, digest-addressed **chunks**
pulled *in parallel from many sources at once* (EdgePier's observation
that P2P image distribution at the edge wins by splitting images into
pieces served by many holders), and the per-chunk schedule is re-made
as conditions change (continuous reasoning: seeder departure, upload
saturation, and staleness re-resolve one chunk, not one layer).

Components
----------
:class:`ChunkMap`
    Deterministic fixed-size chunking of one layer.  Chunks are
    digest-addressed (``sha256`` over layer digest × span), so the same
    layer chunks identically on every device and registry.
:class:`ChunkLedger`
    Swarm-wide partial-layer holdings riding the
    :class:`~repro.registry.cache.ImageCache` reserve→commit path: a
    chunked download reserves the whole layer (capacity held, digest
    invisible), and every chunk that lands is published to the ledger,
    making the device a *partial seeder* other pulls can fetch that
    chunk from before the layer is complete.  Only when every chunk has
    landed is the cache entry committed (the layer becomes a normal
    full replica in the peer index).  The fetch's own record
    (``_LayerFetch``) is the one place that tracks which chunks landed.
:class:`ChunkSwarmPlanner`
    Turns the per-layer source choice into a per-chunk schedule:
    **rarest-first** chunk selection across full holders (discovery
    view, verified against ground truth) and partial holders (ledger),
    up to ``ChunkSpec.parallel`` concurrent chunk transfers per layer
    through the shared :class:`~repro.sim.transfers.TransferEngine`,
    per-chunk re-resolution on
    :class:`~repro.sim.transfers.TransferCancelled` /
    :class:`~repro.sim.transfers.UploadBudgetExceeded` (replacing the
    single-source path's whole-layer restart; when only saturated
    seeders are left, the chunk waits for one to free an upload slot),
    and an **endgame** that re-requests straggling peer-sourced chunks
    from the registry tier (duplicated bytes are metered, never
    silent).

Determinism
-----------
Rarest-first ties are broken by a seeded stable hash over
``(seed, layer digest, chunk index)`` and finally by index, so a chunk
schedule is a pure function of the seed and the observable swarm state
— independent of set iteration order or hash randomisation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from ..model.units import bytes_to_mb
from ..sim.transfers import (
    Transfer,
    TransferCancelled,
    TransferEngine,
    UploadBudgetExceeded,
)
from .base import RegistryError
from .cache import EvictionRecord, ImageCache
from .digest import DIGEST_PREFIX

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.spec import ChunkSpec
    from .p2p import PullPlanner

#: Default chunk size (decimal MB convention, like image sizes): large
#: enough that per-chunk latency does not dominate, small enough that a
#: typical 100–800 MB layer splits into double-digit chunk counts.
DEFAULT_CHUNK_SIZE_BYTES = 32_000_000


@dataclass(frozen=True)
class Chunk:
    """One fixed-size span of a layer, digest-addressed."""

    layer_digest: str
    index: int
    offset: int
    size_bytes: int
    digest: str


class ChunkMap:
    """Deterministic fixed-size chunking of one layer.

    Chunks tile ``[0, layer_size_bytes)`` exactly: every chunk but the
    last is ``chunk_size_bytes`` long, the last carries the remainder.
    A zero-byte layer still maps to one zero-byte chunk so every layer
    has at least one observable completion.
    """

    def __init__(
        self,
        layer_digest: str,
        layer_size_bytes: int,
        chunk_size_bytes: int = DEFAULT_CHUNK_SIZE_BYTES,
    ) -> None:
        if layer_size_bytes < 0:
            raise ValueError(f"negative layer size: {layer_size_bytes}")
        if chunk_size_bytes <= 0:
            raise ValueError(f"chunk size must be > 0, got {chunk_size_bytes}")
        self.layer_digest = layer_digest
        self.layer_size_bytes = layer_size_bytes
        self.chunk_size_bytes = chunk_size_bytes
        chunks: List[Chunk] = []
        offset = 0
        index = 0
        while offset < layer_size_bytes or index == 0:
            size = min(chunk_size_bytes, layer_size_bytes - offset)
            chunks.append(
                Chunk(
                    layer_digest=layer_digest,
                    index=index,
                    offset=offset,
                    size_bytes=size,
                    digest=_chunk_digest(layer_digest, index, offset, size),
                )
            )
            offset += size
            index += 1
        self.chunks: Tuple[Chunk, ...] = tuple(chunks)

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def chunk(self, index: int) -> Chunk:
        return self.chunks[index]

    def __len__(self) -> int:
        return len(self.chunks)

    def __iter__(self):
        return iter(self.chunks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkMap({self.layer_digest[:19]}…, {self.layer_size_bytes} B, "
            f"{self.n_chunks} × {self.chunk_size_bytes} B)"
        )


def _chunk_digest(layer_digest: str, index: int, offset: int, size: int) -> str:
    """Content-style address of one chunk (layer digest × span)."""
    h = hashlib.sha256(
        f"{layer_digest}:{index}:{offset}:{size}".encode("utf-8")
    ).hexdigest()
    return DIGEST_PREFIX + h


class ChunkLedger:
    """Swarm-wide map of *partial* layer holdings.

    ``(layer digest, chunk index) → devices`` holding that chunk of a
    layer they have **not finished** downloading.  Full replicas live
    in the :class:`~repro.registry.p2p.PeerIndex` (they implicitly hold
    every chunk); the ledger covers only the in-flight window where a
    device can already seed the chunks it has.  Entries are ground
    truth — a chunked fetch writes each one as its chunk lands and
    drops the layer's entries when it finishes or aborts — so partial
    holders need no staleness verification.
    """

    def __init__(self) -> None:
        # layer digest -> chunk index -> set of devices
        self._chunks: Dict[str, Dict[int, Set[str]]] = {}
        # device -> layer digests it partially holds (for drops)
        self._by_device: Dict[str, Set[str]] = {}

    def add_chunk(self, device: str, layer_digest: str, index: int) -> None:
        self._chunks.setdefault(layer_digest, {}).setdefault(index, set()).add(
            device
        )
        self._by_device.setdefault(device, set()).add(layer_digest)

    def drop_layer(self, device: str, layer_digest: str) -> None:
        """Forget ``device``'s partial holding of ``layer_digest``."""
        per_layer = self._chunks.get(layer_digest)
        if per_layer is not None:
            for index in [i for i, holders in per_layer.items() if device in holders]:
                per_layer[index].discard(device)
                if not per_layer[index]:
                    del per_layer[index]
            if not per_layer:
                del self._chunks[layer_digest]
        layers = self._by_device.get(device)
        if layers is not None:
            layers.discard(layer_digest)
            if not layers:
                del self._by_device[device]

    def chunk_holders(self, layer_digest: str, index: int) -> FrozenSet[str]:
        """Partial holders of one chunk (full replicas not included)."""
        return frozenset(self._chunks.get(layer_digest, {}).get(index, ()))

    def tracked_layers(self) -> List[str]:
        return sorted(self._chunks)


@dataclass
class ChunkFetchOutcome:
    """What one chunked layer fetch produced (consumed by the facade).

    ``bytes_by_source`` keys are ``(kind, source)`` with kind one of
    ``"peer"`` / ``"registry"`` — the facade converts them to
    :class:`~repro.registry.p2p.LayerSource` entries (kept as strings
    here to avoid an import cycle with :mod:`repro.registry.p2p`).
    """

    layer_digest: str
    seconds: float = 0.0
    evictions: List[EvictionRecord] = field(default_factory=list)
    bytes_by_source: Dict[Tuple[str, str], int] = field(default_factory=dict)
    stale_misses: int = 0
    wasted_bytes: int = 0
    endgame_dupes: int = 0


class _LayerFetch:
    """Shared mutable state of one layer's chunk workers: the one record
    of which chunks landed (``done``), so each lands exactly once."""

    __slots__ = (
        "cmap",
        "pending",
        "tiebreaks",
        "done",
        "inflight",
        "dup_requested",
        "outcome",
        "aborted",
    )

    def __init__(self, cmap: ChunkMap, outcome: ChunkFetchOutcome) -> None:
        self.cmap = cmap
        self.pending: Set[int] = set(range(cmap.n_chunks))
        # Each chunk's rarest-first tie-break for the fetching device,
        # computed at the fetch's first claim.
        self.tiebreaks: Optional[List[int]] = None
        self.done: Set[int] = set()
        # chunk index -> list of (transfer, kind, source) currently on
        # the wire for it (more than one only during endgame).
        self.inflight: Dict[int, List[Tuple[Transfer, str, str]]] = {}
        self.dup_requested: Set[int] = set()
        self.outcome = outcome
        self.aborted = False

    @property
    def complete(self) -> bool:
        return len(self.done) == self.cmap.n_chunks


class ChunkSwarmPlanner:
    """Per-chunk scheduling across every holder the swarm can see.

    One planner serves one :class:`~repro.registry.p2p.P2PRegistry`
    facade.  It owns the swarm-wide :class:`ChunkLedger`.  Once no
    unclaimed chunk remains, the
    endgame re-requests a straggling peer-sourced chunk from the
    registry tier; the duplicate bytes are metered in each fetch's
    ``endgame_dupes`` / ``wasted_bytes``.

    Parameters
    ----------
    planner:
        The facade's :class:`~repro.registry.p2p.PullPlanner`: its
        swarm (topology + discovery of full replicas), its
        preference-ordered registry chain and registry choice, and its
        ``use_peers`` (a peer-less planner keeps every chunk on the
        registry tier).
    config:
        The :class:`~repro.scenarios.spec.ChunkSpec`: ``size_bytes`` is
        the unit of transfer, ``parallel`` the concurrent chunk
        transfers per layer fetch (the swarming window; 1 degenerates
        to sequential chunking).
    seed:
        Seeds the rarest-first tie-break (stable, deterministic).
    """

    def __init__(
        self, planner: "PullPlanner", config: "ChunkSpec", seed: int = 0
    ) -> None:
        self.planner = planner
        self.swarm = planner.swarm
        self.config = config
        self.seed = seed
        self.ledger = ChunkLedger()
        #: Optional telemetry trace sink (duck-typed, None = off):
        #: receives one ``chunk.endgame`` record per duplicate start.
        self.trace = None

    # ------------------------------------------------------------------
    # rarest-first selection
    # ------------------------------------------------------------------
    def _tiebreak(self, device: str, layer_digest: str, index: int) -> int:
        """Seeded stable tie-break for equal-rarity chunks.

        Salted by the *claiming device* so equally-rare chunks are
        claimed in a different order on every device — without this a
        cold wave moves in lockstep (every device fetches the same
        chunk at the same instant) and nobody ever holds a chunk its
        neighbours lack, which is exactly the dispersion BitTorrent's
        random-first/rarest-first policy exists to create.  Still a
        pure function of ``(seed, device, layer, index)``: runs are
        reproducible and the ordering is stable under set iteration.
        """
        h = hashlib.sha256(
            f"{self.seed}:{device}:{layer_digest}:{index}".encode("utf-8")
        ).digest()
        return int.from_bytes(h[:8], "big")

    def _full_holders(self, device: str, layer_digest: str) -> FrozenSet[str]:
        """Full-replica holders as ``device`` sees them (index-free)."""
        return self.swarm.discovery.view(device, layer_digest) - {device}

    def _next_chunk(self, st: _LayerFetch, device: str) -> Optional[int]:
        """Claim the rarest pending chunk of ``st`` for ``device``.

        Rarity counts the holders ``device`` can see: full replicas in
        its discovery view (unverified — verification happens at fetch
        time) plus partial holders in the ledger.  Ties fall to the
        seeded :meth:`_tiebreak`, then to the index.  One fetch claims
        for one device, so the first claim computes every chunk's
        tie-break and later claims read them.
        """
        if not st.pending:
            return None
        layer = st.cmap.layer_digest
        tiebreaks = st.tiebreaks
        if tiebreaks is None:
            tiebreaks = st.tiebreaks = [
                self._tiebreak(device, layer, i)
                for i in range(st.cmap.n_chunks)
            ]
        full = self._full_holders(device, layer)
        best = min(
            st.pending,
            key=lambda i: (
                len(full | (self.ledger.chunk_holders(layer, i) - {device})),
                tiebreaks[i],
                i,
            ),
        )
        st.pending.discard(best)
        return best

    # ------------------------------------------------------------------
    # endgame
    # ------------------------------------------------------------------
    def _endgame_candidate(
        self, st: _LayerFetch, device: str, engine: TransferEngine
    ) -> Optional[int]:
        """A straggling peer-sourced chunk worth duplicating.

        Eligible: in flight from a peer, no duplicate issued yet, and
        the registry tier's estimated fetch is meaningfully faster than
        the transfer's remaining time at its current rate.  Returns the
        longest-running eligible chunk (stable tie-break by index).
        """
        candidates: List[Tuple[float, int]] = []
        for index, entries in st.inflight.items():
            if index in st.done or index in st.dup_requested:
                continue
            live = [
                t
                for t, kind, _s in entries
                if kind == "peer"
                and t.completed_s is None
                and not t.cancelled
            ]
            if not live:
                # No live peer transfer: either registry-sourced (the
                # endgame has nothing faster to offer) or already
                # finished and merely awaiting its worker's resume.
                continue
            transfer = live[0]
            if transfer.rate_mbps > 0:
                # engine.remaining_mb projects lazily-settled progress
                # forward to the current clock (the engine settles
                # transfer.remaining_mb only per dirty closure).
                remaining_s = (
                    engine.remaining_mb(transfer) * 8.0 / transfer.rate_mbps
                )
            else:
                # Still in its connection-latency phase: fall back to
                # the payload over the path's bottleneck capacity.
                remaining_s = transfer.lower_bound_s
            registry = self.planner.best_registry(
                st.cmap.layer_digest,
                bytes_to_mb(st.cmap.chunk(index).size_bytes),
                device,
                engine,
            )
            if registry is None or registry[0] >= 0.8 * remaining_s:
                continue
            candidates.append((transfer.requested_s, index))
        if not candidates:
            return None
        return min(candidates)[1]

    # ------------------------------------------------------------------
    # per-chunk source resolution
    # ------------------------------------------------------------------
    def _resolve_chunk(
        self,
        st: _LayerFetch,
        chunk: Chunk,
        device: str,
        excluded: Set[str],
        registry_only: bool = False,
    ) -> Optional[Tuple[str, str]]:
        """Cheapest verified source of one chunk right now.

        Returns ``(kind, source)`` with kind ``"peer"``/``"registry"``,
        or None when nothing can serve the chunk.  Full-replica claims
        from the discovery view are verified against the ground-truth
        index (stale entries metered and excluded, like the
        single-source path); partial holders come from the ledger,
        which is ground truth, and are only required to still be swarm
        members.
        """
        swarm = self.swarm
        layer = chunk.layer_digest
        size_mb = bytes_to_mb(chunk.size_bytes)
        best: Optional[Tuple[float, str, str]] = None
        if self.planner.use_peers and not registry_only:
            partial = self.ledger.chunk_holders(layer, chunk.index)
            candidates: Set[str] = set()
            for holder in swarm.discovery.view(device, layer):
                if holder != device and holder not in excluded:
                    candidates.add(holder)
            for holder in partial:
                if (
                    holder != device
                    and holder not in excluded
                    and swarm.is_member(holder)
                ):
                    candidates.add(holder)
            peer, misses = swarm.fastest_verified(
                candidates, device, layer, device, trusted=partial
            )
            st.outcome.stale_misses += misses
            if peer is not None:
                seconds = swarm.network.device_channel(
                    peer, device
                ).transfer_time_s(size_mb)
                best = (seconds, "peer", peer)
        registry = self.planner.best_registry(layer, size_mb, device)
        if registry is not None and (best is None or registry[0] < best[0]):
            return "registry", registry[1]
        if best is None:
            return None
        return best[1], best[2]

    # ------------------------------------------------------------------
    # the chunked layer fetch (a DES process)
    # ------------------------------------------------------------------
    def fetch_layer(
        self,
        device: str,
        cache: ImageCache,
        layer_digest: str,
        layer_size_bytes: int,
        engine: TransferEngine,
        meter_registry: Optional[Callable[[str], None]] = None,
    ):
        """Generator fetching one layer chunk-by-chunk onto ``device``.

        The caller yields from it inside a simulator process; the
        return value is a :class:`ChunkFetchOutcome`.  The layer is
        reserved up front (capacity held; a second fetch of it on
        ``device`` is the cache's
        :class:`~repro.registry.cache.ReservationError`), chunks land in
        parallel from up to ``config.parallel`` sources, each published
        to the ledger as it lands, and the cache entry commits only when
        every chunk has.  Finish or abort first drops the layer's ledger
        entries — the ledger stops advertising partial chunks at the
        instant the peer index starts advertising the full replica —
        then commits or releases the reservation.  A worker that fails
        (no source can serve a chunk, or registry metering raises)
        raises out of the run from its own process, as a failing
        single-source pull does; the fetch, still waiting on its
        workers, aborts when its generator is closed.
        """
        sim = engine.sim
        outcome = ChunkFetchOutcome(layer_digest=layer_digest)
        cmap = ChunkMap(layer_digest, layer_size_bytes, self.config.size_bytes)
        outcome.evictions.extend(cache.reserve(layer_digest, layer_size_bytes))
        st = _LayerFetch(cmap, outcome)
        started_s = sim.now
        try:
            workers = [
                sim.process(self._worker(st, device, engine, meter_registry))
                for _ in range(min(self.config.parallel, cmap.n_chunks))
            ]
            yield sim.all_of(workers)
            if not st.complete:
                missing = sorted(set(range(cmap.n_chunks)) - st.done)
                raise RegistryError(
                    f"chunked fetch of {layer_digest} on {device!r} ended "
                    f"with {len(missing)} chunk(s) missing: {missing[:8]}"
                )
        except BaseException:
            st.aborted = True
            engine.cancel_many(
                (
                    transfer
                    for entries in list(st.inflight.values())
                    for transfer, _kind, _source in list(entries)
                ),
                reason="chunked fetch aborted",
            )
            self.ledger.drop_layer(device, layer_digest)
            cache.release(layer_digest)
            raise
        self.ledger.drop_layer(device, layer_digest)
        cache.commit(layer_digest)
        outcome.seconds = sim.now - started_s
        return outcome

    def _worker(
        self,
        st: _LayerFetch,
        device: str,
        engine: TransferEngine,
        meter_registry: Optional[Callable[[str], None]],
    ):
        """One chunk-slot worker: claim → resolve → transfer → commit,
        looping until no pending chunk and no endgame work remains."""
        layer = st.cmap.layer_digest
        while True:
            if st.aborted:
                return
            duplicate = False
            index = self._next_chunk(st, device)
            if index is None:
                if st.complete:
                    return
                index = self._endgame_candidate(st, device, engine)
                if index is None:
                    return
                duplicate = True
                st.dup_requested.add(index)
            chunk = st.cmap.chunk(index)
            excluded: Set[str] = set()
            # Excluded seeders whose full upload budget will free a slot.
            busy: Tuple[str, ...] = ()
            while True:
                if st.aborted:
                    return
                if index in st.done:
                    break  # endgame race already resolved this chunk
                resolved = self._resolve_chunk(
                    st, chunk, device, excluded, registry_only=duplicate
                )
                if resolved is None:
                    if duplicate:
                        break  # no registry can duplicate it; fine
                    if busy:
                        # Only saturated seeders are left: they are
                        # busy, not gone, so wait for a free slot.
                        yield engine.upload_slot_freed(busy)
                        excluded.difference_update(busy)
                        busy = ()
                        continue
                    raise RegistryError(
                        f"chunk {index} of layer {layer} unreachable from "
                        f"{device!r}: no peer or registry source"
                    )
                kind, source = resolved
                try:
                    if kind == "peer":
                        transfer = engine.start(
                            source, device, chunk.size_bytes, digest=chunk.digest
                        )
                    else:
                        if meter_registry is not None:
                            try:
                                meter_registry(source)
                            except Exception:
                                if duplicate:
                                    # A purely speculative endgame copy
                                    # must never sink a pull the peer
                                    # path is already completing: give
                                    # the duplicate up, keep waiting.
                                    break
                                # A *required* registry chunk: the
                                # metering failure (hub rate limiting)
                                # propagates, aborting the fetch like
                                # the single-source path's would.
                                raise
                        transfer = engine.start(
                            source,
                            device,
                            chunk.size_bytes,
                            src_is_registry=True,
                            digest=chunk.digest,
                        )
                except UploadBudgetExceeded:
                    excluded.add(source)
                    if engine.uploads_in_flight(source):
                        busy += (source,)
                    continue
                if duplicate:
                    st.outcome.endgame_dupes += 1
                    if self.trace is not None:
                        self.trace.record(
                            engine.sim.now, "chunk.endgame", device,
                            layer=layer, chunk=index, source=source,
                        )
                entry = (transfer, kind, source)
                st.inflight.setdefault(index, []).append(entry)
                try:
                    yield transfer.done
                    completed = True
                except TransferCancelled:
                    completed = False
                entries = st.inflight.get(index)
                if entries is not None:
                    try:
                        entries.remove(entry)
                    except ValueError:  # pragma: no cover - defensive
                        pass
                    if not entries:
                        st.inflight.pop(index, None)
                if not completed:
                    # Seeder departed / duplicate lost the race / fetch
                    # aborted: the bytes already moved are waste either
                    # way — meter them, then re-resolve unless done.
                    st.outcome.wasted_bytes += transfer.moved_bytes
                    if st.aborted:
                        return
                    if index in st.done:
                        break
                    excluded.add(source)
                    continue
                if st.aborted:
                    return
                if index in st.done:
                    # Both the original and its endgame duplicate
                    # finished in the same engine wake: the second
                    # payload is pure duplication.
                    st.outcome.wasted_bytes += chunk.size_bytes
                    break
                st.done.add(index)
                self.ledger.add_chunk(device, layer, index)
                key = (kind, source)
                st.outcome.bytes_by_source[key] = (
                    st.outcome.bytes_by_source.get(key, 0) + chunk.size_bytes
                )
                # First completion wins: any rival transfer still on
                # the wire for this chunk is duplication — cancel it so
                # its bandwidth frees now (its worker meters the waste).
                for rival, _k, _s in list(st.inflight.get(index, [])):
                    engine.cancel(
                        rival, reason="chunk completed via faster source"
                    )
                break
