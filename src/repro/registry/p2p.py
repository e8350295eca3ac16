"""The P2P edge tier: devices serving cached layers to each other.

The paper's hybrid design stops at two registry tiers — Docker Hub and
the regional registry.  This module adds the third tier that
registry-starved edge deployments actually build (EdgePier-style):
devices already holding a layer serve it to nearby peers over the
device↔device channels of :class:`~repro.model.network.NetworkModel`,
and a demand-driven replicator proactively spreads hot layers into
under-provisioned regions (continuous-reasoning placement).

Components
----------
:class:`PeerIndex`
    Maps layer digests to the set of device caches currently holding
    them.  It is the only observer of every
    :class:`~repro.registry.cache.ImageCache` — an eviction on any
    device is reflected in the index before the evicting call returns —
    and it forwards each presence change to the discovery backend.
:class:`PeerSwarm`
    The index plus topology knowledge: device regions, peer channel
    lookup, and the pull-demand counters the replicator consumes.
:class:`PullPlanner` / :class:`P2PRegistry`
    Resolve each layer of a pull from the cheapest source — local
    cache → peer → regional registry → Docker Hub — using channel
    bandwidths, and execute the plan against the device cache.
:class:`AdaptiveReplicator`
    A DES process that periodically inspects observed pull demand and
    replicates hot layers to regions holding fewer than a target
    number of replicas, until demand cools and the swarm converges.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from ..model.device import Arch
from ..model.network import NetworkModel
from ..model.units import bytes_to_mb
from ..sim.engine import Simulator
from ..sim.transfers import (
    Transfer,
    TransferCancelled,
    TransferEngine,
    UploadBudgetExceeded,
)
from .base import ImageReference, Registry, RegistryError
from .cache import CacheFull, ImageCache
from .chunks import ChunkFetchOutcome, ChunkSwarmPlanner
from .discovery import DiscoveryBackend, OmniscientDiscovery
from .manifest import ImageManifest
from .repository import ManifestNotFound

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.spec import ChunkSpec, ReplicationSpec
    from ..sim.churn import ChurnProcess

#: Shared empty holder set for digests nobody holds.
_NO_HOLDERS: FrozenSet[str] = frozenset()


#: Where the index forwards each presence change after applying it, as
#: ``forward(device, digest, size_bytes, present)``.
PresenceHook = Callable[[str, str, int, bool], None]


def _presence(
    holders: Dict[str, Set[str]],
    sizes: Dict[str, int],
    forward: Optional[PresenceHook],
    device: str,
    digest: str,
    size_bytes: int,
    present: bool,
) -> None:
    """Apply one presence change of ``device``'s cache to the index's
    tables, then pass it on to ``forward``.  Every cache an index
    observes shares one observer, this function bound to the tables
    and ``forward`` but not to the index, and passes its own device:
    nothing a cache points to points back at it, so a dropped swarm is
    freed by reference counting."""
    if present:
        holders.setdefault(digest, set()).add(device)
        sizes[digest] = size_bytes
    else:
        peers = holders.get(digest)
        if peers is not None:
            peers.discard(device)
            if not peers:
                del holders[digest]
                sizes.pop(digest, None)
    if forward is not None:
        forward(device, digest, size_bytes, present)


def _exclude(excluded: Optional[Set[str]], source: str) -> Set[str]:
    """``excluded`` with ``source`` added, made on the first exclusion.
    Never a shared set: each caller's exclusions are its own."""
    if excluded is None:
        return {source}
    excluded.add(source)
    return excluded


class PeerIndex:
    """Digest → holders map, the only observer of every device cache.

    :meth:`register_cache` makes the index the cache's observer and
    seeds it from the cache's entries; from then on every insert and
    eviction updates the index synchronously and is passed on to the
    hook given to :meth:`forward_to` (the gossip backend's ``note``;
    None under omniscient discovery, which reads the index itself).  The
    index never mutates caches, except to name an unnamed one after
    the device it registers.
    """

    def __init__(self) -> None:
        self._holders: Dict[str, Set[str]] = {}
        self._sizes: Dict[str, int] = {}
        self._caches: Dict[str, ImageCache] = {}
        self.forward_to(None)  # builds the shared observer

    def forward_to(self, hook: Optional[PresenceHook]) -> None:
        """Pass each presence change on to ``hook`` after the index
        applied it, for caches registered from now on."""
        # The one observer of every cache registered from now on;
        # caches registered earlier keep the one they got.
        self._observer = functools.partial(
            _presence, self._holders, self._sizes, hook
        )

    def register_cache(self, device: str, cache: ImageCache) -> None:
        """Track ``cache`` as ``device``'s: observe it, then seed the
        index (and the forward hook) from its entries, LRU first.  The
        cache reports its own ``device``, so an unnamed cache takes
        ``device`` as its name and a cache named otherwise is refused."""
        if device in self._caches:
            raise ValueError(f"device {device!r} already registered")
        if cache.observer is not None:
            raise ValueError(f"cache of {device!r} already has an observer")
        if cache.device != device:
            if cache.device:
                raise ValueError(
                    f"cache of {cache.device!r} cannot register as {device!r}"
                )
            cache.device = device
        self._caches[device] = cache
        cache.observer = observer = self._observer
        for digest, size in cache.entries():
            observer(device, digest, size, True)

    def unregister_cache(self, device: str) -> None:
        """Stop tracking ``device`` (departure): stop observing its
        cache and drop every holder entry it contributed, without
        forwarding the drops (the departed device says nothing)."""
        cache = self._caches.pop(device, None)
        if cache is None:
            raise ValueError(f"device {device!r} not registered")
        cache.observer = None
        for digest in [d for d, h in self._holders.items() if device in h]:
            _presence(self._holders, self._sizes, None, device, digest, 0, False)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holders(self, digest: str) -> FrozenSet[str]:
        """Devices whose cache currently holds ``digest``."""
        return frozenset(self._holders.get(digest, ()))

    def holders_view(self, digest: str) -> FrozenSet[str]:
        """Live holder set for ``digest`` — **read-only**, aliased.

        The hot-path variant of :meth:`holders`: no per-call copy, but
        the result mutates with the index.  Callers must consume it
        immediately (set algebra, iteration) and never store it across
        simulated time; use :meth:`holders` for a stable snapshot.
        """
        return self._holders.get(digest, _NO_HOLDERS)

    def holds(self, device: str, digest: str) -> bool:
        return device in self._holders.get(digest, ())

    def size_of(self, digest: str) -> Optional[int]:
        """Last observed size of ``digest`` (None if nobody holds it)."""
        return self._sizes.get(digest)

    def devices(self) -> List[str]:
        return list(self._caches)

    def cache_of(self, device: str) -> ImageCache:
        return self._caches[device]

    def tracked_digests(self) -> List[str]:
        return list(self._holders)

    def coherence_violations(self) -> List[str]:
        """Index-vs-cache mismatches (must be empty; used by tests)."""
        problems: List[str] = []
        for device, cache in self._caches.items():
            cached = {d for d, _ in cache.entries()}
            indexed = {d for d, h in self._holders.items() if device in h}
            for digest in sorted(cached - indexed):
                problems.append(f"{device}: {digest} cached but not indexed")
            for digest in sorted(indexed - cached):
                problems.append(f"{device}: {digest} indexed but not cached")
        return problems


class PeerSwarm:
    """A fleet of device caches acting as each other's layer sources.

    Couples the :class:`PeerIndex` to the network topology (which peer
    can reach which device, at what bandwidth), groups devices into
    regions for the replicator, and accumulates the per-region pull
    demand the replicator's continuous reasoning runs on.

    Replica *lookups* go through a pluggable
    :class:`~repro.registry.discovery.DiscoveryBackend`: the default
    :class:`~repro.registry.discovery.OmniscientDiscovery` wraps the
    ground-truth index (every device sees every committed replica,
    the historical behaviour, bit-for-bit), while
    :class:`~repro.registry.discovery.GossipDiscovery` gives each
    device a partial, possibly stale view that converges via
    anti-entropy rounds.  The index itself stays authoritative — it is
    what :meth:`verify_holder` checks chosen sources against.
    """

    def __init__(
        self,
        network: NetworkModel,
        index: Optional[PeerIndex] = None,
        discovery: Optional[DiscoveryBackend] = None,
    ) -> None:
        self.network = network
        self.index = index if index is not None else PeerIndex()
        self.discovery = (
            discovery if discovery is not None else OmniscientDiscovery(self.index)
        )
        self.index.forward_to(self.discovery.note)
        self._regions: Dict[str, str] = {}
        self._members: Dict[str, Set[str]] = {}
        self._demand: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_device(
        self, device: str, cache: ImageCache, region: str = "edge"
    ) -> None:
        """Join ``device`` (and its cache) to the swarm.  The backend
        joins first, so the cache's entries reach it as the new
        incarnation's first events when the index seeds from them."""
        self.discovery.on_join(device)
        self.index.register_cache(device, cache)
        self._regions[device] = region
        self._members.setdefault(region, set()).add(device)

    def remove_device(
        self, device: str, engine: Optional["TransferEngine"] = None
    ) -> None:
        """Depart ``device`` from the swarm (churn).

        The peer index forgets its holdings immediately — committed
        replicas elsewhere are unaffected — and, when a time-resolved
        ``engine`` is given, every upload the device was seeding is
        cancelled so its customers re-resolve to other sources.
        """
        self.discovery.on_leave(device)
        self.index.unregister_cache(device)
        region = self._regions.pop(device)
        members = self._members.get(region)
        if members is not None:
            members.discard(device)
            if not members:
                del self._members[region]
        if engine is not None:
            engine.cancel_uploads_from(device, reason=f"{device} departed")

    def devices(self) -> List[str]:
        return list(self._regions)

    def regions(self) -> List[str]:
        return sorted(self._members)

    def region_of(self, device: str) -> str:
        return self._regions[device]

    def is_member(self, device: str) -> bool:
        """Whether ``device`` is currently joined (not churned out)."""
        return device in self._regions

    def members(self, region: str) -> AbstractSet[str]:
        """Live member set of ``region`` — **read-only**, aliased.

        Like :meth:`PeerIndex.holders_view`: no per-call copy, but the
        result mutates as devices join and depart.  Callers must
        consume it immediately (set algebra, iteration) and never
        store it across simulated time; copy it for a stable snapshot.
        """
        return self._members.get(region, _NO_HOLDERS)

    # ------------------------------------------------------------------
    # peer lookup
    # ------------------------------------------------------------------
    def best_peer(
        self,
        digest: str,
        device: str,
        exclude: AbstractSet[str] = _NO_HOLDERS,
    ) -> Optional[str]:
        """Fastest reachable peer holding ``digest``; a live member of
        ``device``'s region first.

        Holders come from the discovery backend **as seen by
        ``device``** — under gossip discovery the answer may be stale
        (an entry for an evicted layer or a departed peer); callers on
        the pull path must :meth:`verify_holder` before transferring.
        ``exclude`` names peers the caller already found saturated,
        departed, or stale; they are skipped so a re-resolution never
        returns the same dead end.

        Both passes walk the device's preference order, as
        :meth:`fastest_verified` does.  The first accepts only live
        members of ``device``'s region.  It is not a speed-up (with no
        such holder the order is walked twice): it keeps a departed
        device that a gossip view still ranks first from being chosen,
        verified and missed.
        """
        holders = self.discovery.view(device, digest)
        if not holders:
            return None
        # A hot layer's holder set dwarfs a device's degree at swarm
        # scale, and the holder-membership probe is O(1), so a lookup
        # usually costs a handful of probes instead of a scan over
        # every holder.  A mesh's shared order names the device
        # itself: skip it.
        preference = self.network.device_sources_by_preference(device)
        region = self._regions.get(device)
        if region is not None:
            members = self._members.get(region, _NO_HOLDERS)
            for peer in preference:
                if (
                    peer in holders
                    and peer != device
                    and peer in members
                    and peer not in exclude
                ):
                    return peer
        for peer in preference:
            if peer in holders and peer != device and peer not in exclude:
                return peer
        return None

    def fastest_verified(
        self,
        candidates: Set[str],
        dst: str,
        digest: str,
        viewer: str,
        trusted: AbstractSet[str] = _NO_HOLDERS,
    ) -> Tuple[Optional[str], int]:
        """Fastest candidate into ``dst`` that really holds ``digest``.

        Returns ``(peer, stale_misses)``; peer is None when no
        candidate survives.  Candidates are tried in ``dst``'s
        preference order, as :meth:`best_peer` tries holders: higher
        bandwidth first and equal bandwidth by name, so the answer
        never depends on the set's iteration order, and a candidate
        with no channel into ``dst`` is never tried.  A candidate in
        ``trusted`` (ground truth already, like the chunk ledger's
        partial holders) is taken unchecked; any other is verified as
        ``viewer`` sees it, and a stale one is metered and pruned from
        ``candidates`` in place, so the caller never trips over the
        same dead entry twice.
        """
        misses = 0
        for peer in self.network.device_sources_by_preference(dst):
            if peer not in candidates or peer == dst:
                continue
            if peer in trusted or self.verify_holder(viewer, peer, digest):
                return peer, misses
            misses += 1
            candidates.discard(peer)
        return None, misses

    def verify_holder(self, viewer: str, holder: str, digest: str) -> bool:
        """Check a discovered holder against the ground-truth index.

        True when ``holder`` really holds ``digest``.  When it does not:
        an authoritative backend has an index coherence bug (raise);
        a gossip backend served a stale view entry — the miss is
        metered, the viewer's view is corrected, and False is returned
        so the caller can exclude the holder and fall back through
        regional → hub.
        """
        if self.index.holds(holder, digest):
            return True
        if self.discovery.authoritative:
            raise RegistryError(
                f"peer index incoherent: {holder!r} does not hold {digest}"
            )
        self.discovery.record_miss(viewer, holder, digest)
        return False

    # ------------------------------------------------------------------
    # demand accounting (consumed by the adaptive replicator)
    # ------------------------------------------------------------------
    def record_demand(self, digest: str, device: str) -> None:
        """Count one remote fetch of ``digest`` by ``device``."""
        region = self._regions.get(device, "edge")
        key = (digest, region)
        self._demand[key] = self._demand.get(key, 0) + 1

    def drain_demand(self) -> Dict[Tuple[str, str], int]:
        """Demand accumulated since the last drain; resets counters."""
        drained, self._demand = self._demand, {}
        return drained


class SourceKind(enum.Enum):
    """Where one layer of a pull plan comes from."""

    LOCAL = "local"
    PEER = "peer"
    REGISTRY = "registry"


#: The source kinds as module constants: the per-layer paths read a
#: global instead of looking a member up on the enum class.
_LOCAL = SourceKind.LOCAL
_PEER = SourceKind.PEER
_REGISTRY = SourceKind.REGISTRY


class LayerSource(NamedTuple):
    """The resolved source of one layer.

    Every layer of every pull builds one, so it is an immutable named
    tuple: on CPython 3.11 one builds in about 330 ns, against about
    810 ns for a frozen slots dataclass.
    """

    digest: str
    size_bytes: int
    kind: SourceKind
    source: str
    seconds: float


class PullPlanner:
    """Resolves layers to their cheapest source by transfer time.

    Sources are compared by estimated seconds on the respective
    channel; ties prefer peers over registries (offloading the origin
    tiers is the point of the swarm) and earlier registries in the
    fallback chain over later ones (the chain is ordered regional →
    hub by convention).  The chunk planner borrows the same choice
    (:meth:`best_registry`) for every chunk and endgame estimate.
    """

    def __init__(
        self,
        swarm: PeerSwarm,
        registries: Sequence[Registry],
        use_peers: bool = True,
    ) -> None:
        if not registries:
            raise ValueError("pull planner needs at least one registry")
        self.swarm = swarm
        self.registries = list(registries)
        self.use_peers = use_peers

    def best_registry(
        self,
        digest: str,
        size_mb: float,
        device: str,
        engine: Optional[TransferEngine] = None,
    ) -> Optional[Tuple[float, str]]:
        """Cheapest registry holding ``digest`` that reaches ``device``.

        Returns ``(seconds, registry name)``, or None when no registry
        can serve it.  Seconds are the channel's transfer time, or with
        an ``engine`` its contention-aware estimate; on equal seconds
        the earlier registry in the chain wins.
        """
        network = self.swarm.network
        best: Optional[Tuple[float, str]] = None
        for registry in self.registries:
            if digest not in registry.blobs:
                continue
            name = registry.name
            channel = network.find_registry_channel(name, device)
            if channel is None:
                continue
            if engine is None:
                seconds = channel.transfer_time_s(size_mb)
            else:
                seconds = engine.estimated_transfer_s(
                    name, device, size_mb, src_is_registry=True
                )
            if best is None or seconds < best[0]:
                best = (seconds, name)
        return best

    def resolve_layer(
        self,
        digest: str,
        size_bytes: int,
        device: str,
        cache: ImageCache,
        exclude_peers: AbstractSet[str] = _NO_HOLDERS,
    ) -> LayerSource:
        """Cheapest source for one layer right now.

        Time-resolved pulls call this repeatedly: once per layer at
        fetch time (so the choice sees only *committed* replicas) and
        again with a grown ``exclude_peers`` whenever the chosen peer
        turned out to be saturated or departed mid-transfer.
        """
        if digest in cache:
            return LayerSource(digest, size_bytes, _LOCAL, device, 0.0)
        size_mb = bytes_to_mb(size_bytes)
        best: Optional[LayerSource] = None
        if self.use_peers:
            peer = self.swarm.best_peer(digest, device, exclude=exclude_peers)
            if peer is not None:
                seconds = self.swarm.network.device_channel(
                    peer, device
                ).transfer_time_s(size_mb)
                best = LayerSource(digest, size_bytes, _PEER, peer, seconds)
        registry = self.best_registry(digest, size_mb, device)
        if registry is not None and (best is None or registry[0] < best.seconds):
            best = LayerSource(
                digest, size_bytes, _REGISTRY, registry[1], registry[0]
            )
        if best is None:
            raise RegistryError(
                f"layer {digest} unreachable from {device!r}: no "
                f"peer or registry source"
            )
        return best


@dataclass(frozen=True)
class P2PPullResult:
    """Outcome of one three-tier pull (mirrors ``PullResult``'s API).

    ``layers`` holds one source entry per layer (a chunked layer has
    one per serving source, sized by the bytes it delivered).  The
    tallies after the constructor fields are computed from them once,
    when the result is built, in one pass in layer order.
    """

    reference: ImageReference
    registry: str
    manifest: ImageManifest
    device: str
    layers: Tuple[LayerSource, ...]
    #: Discovered peer sources that failed ground-truth verification
    #: during this pull (stale view entries: evicted layers, departed
    #: holders).  Always 0 under omniscient discovery.
    stale_peer_misses: int = 0
    #: Bytes that moved over links but were thrown away: progress of a
    #: transfer abandoned mid-flight (seeder departed and the pull fell
    #: back) plus losing endgame duplicates.  Always 0 on the analytic
    #: path, where transfers never fall back mid-flight.
    bytes_wasted: int = 0
    #: Duplicate chunk re-requests issued by the chunked endgame (0 on
    #: single-source pulls).
    chunk_endgame_dupes: int = 0
    #: Bytes that must actually move (non-local layers).
    bytes_transferred: int = field(init=False, compare=False)
    #: Bytes peers serve (the rest come from registries).
    bytes_from_peers: int = field(init=False, compare=False)
    #: Registry name → bytes this pull takes from it.
    bytes_by_registry: Dict[str, int] = field(init=False, compare=False)
    #: Transfer time, layers fetched sequentially: the layers' seconds
    #: added left to right, so a session's ``transfer_s`` adds the same
    #: floats in the same order as a sum over ``layers``.
    seconds: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        moved = from_peers = 0
        seconds = 0.0
        by_registry: Dict[str, int] = {}
        for layer in self.layers:
            seconds += layer.seconds
            kind = layer.kind
            if kind is _LOCAL:
                continue
            size = layer.size_bytes
            moved += size
            if kind is _PEER:
                from_peers += size
            else:
                source = layer.source
                by_registry[source] = by_registry.get(source, 0) + size
        # The dataclass is frozen: set the tallies the way its
        # generated __init__ sets the fields.
        object.__setattr__(self, "bytes_transferred", moved)
        object.__setattr__(self, "bytes_from_peers", from_peers)
        object.__setattr__(self, "bytes_by_registry", by_registry)
        object.__setattr__(self, "seconds", seconds)

    @property
    def cache_hit(self) -> bool:
        return self.bytes_transferred == 0


class P2PRegistry:
    """Three-tier pull facade: local cache → peer swarm → registries.

    Presents the same resolve/pull shape as a single registry while
    internally fanning each layer out to its cheapest source.  The
    registry chain is preference-ordered (regional before hub); tag
    resolution walks the chain and uses the first registry that can
    serve the reference, so hub-only images still resolve.

    An enabled ``chunks`` section (opt-in; needs the time-resolved
    engine) replaces the per-layer single-source fetch of
    :meth:`pull_process` with the BitTorrent-style per-chunk schedule
    of :class:`~repro.registry.chunks.ChunkSwarmPlanner`: rarest-first
    chunk selection across full and *partial* holders, up to
    ``chunks.parallel`` concurrent sources per layer, endgame registry
    re-requests for stragglers, and per-chunk (not per-layer)
    re-resolution on seeder departure or saturation; ``seed`` seeds its
    tie-break.  Without one, the analytic and single-source paths stay
    bit-for-bit unchanged.
    """

    def __init__(
        self,
        swarm: PeerSwarm,
        registries: Sequence[Registry],
        name: str = "p2p",
        use_peers: bool = True,
        chunks: Optional["ChunkSpec"] = None,
        seed: int = 0,
    ) -> None:
        self.swarm = swarm
        self.name = name
        self.planner = PullPlanner(swarm, registries, use_peers=use_peers)
        self.chunks: Optional[ChunkSwarmPlanner] = None
        if chunks is not None and chunks.enabled:
            self.chunks = ChunkSwarmPlanner(self.planner, chunks, seed=seed)

    def resolve(
        self, reference: ImageReference, arch: Arch
    ) -> Tuple[Registry, ImageManifest]:
        """First registry in the chain that resolves ``reference``."""
        last_error: Optional[Exception] = None
        for registry in self.planner.registries:
            try:
                return registry, registry.resolve(reference, arch)
            except (ManifestNotFound, KeyError) as exc:
                last_error = exc
        raise ManifestNotFound(
            f"{reference} not resolvable by any of "
            f"{[r.name for r in self.planner.registries]}"
        ) from last_error

    def pull_process(
        self,
        reference: ImageReference,
        arch: Arch,
        device: str,
        cache: ImageCache,
        engine: TransferEngine,
    ):
        """Time-resolved pull: a DES process whose return value is the
        :class:`P2PPullResult` (yield it from a simulator process).

        Differences from the analytic :meth:`pull`:

        * each layer is resolved **at fetch time** against committed
          replicas only — a layer another device is still downloading
          is invisible until its reserve→commit completes;
        * a layer already reserved on this device (a concurrent pull,
          chunked fetch or replicator copy is landing it) is joined:
          the pull waits for that reservation to settle, then finds
          the layer present or fetches it itself;
        * layer bytes occupy shared links for real (fair-share rates,
          upload budgets) via ``engine``;
        * a source that turns out saturated
          (:class:`UploadBudgetExceeded`) or departs mid-transfer
          (:class:`TransferCancelled`) is excluded and the layer is
          re-resolved against whatever the swarm holds *now*; when
          only saturated seeders are left, the pull waits for one of
          them to free an upload slot and resolves again;
        * the device cache admits each layer only when its transfer
          completes (reserve → commit), so this device in turn becomes
          a peer source no earlier than it truly holds the bytes.
        """
        sim = engine.sim
        resolved_registry, manifest = self.resolve(reference, arch)
        missing = [l for l in manifest.layers if l.digest not in cache]
        needed = sum(l.size_bytes for l in missing)
        # Only a *permanently* impossible image fails upfront.  Bytes
        # reserved by concurrent transfers are deliberately ignored:
        # they are transient (they commit into evictable entries or
        # get released), so counting them would nondeterministically
        # abort pulls that a moment later would fit.  If reservations
        # truly starve a layer mid-pull, its reserve() fails loudly.
        if needed > cache.capacity_bytes:
            raise CacheFull(
                f"image {manifest.digest} needs {needed} new bytes; cache "
                f"capacity is {cache.capacity_bytes} B"
            )
        # The registries this pull has metered: one or two.
        metered: List[str] = []
        sources: List[LayerSource] = []
        stale_misses = 0
        wasted_bytes = 0
        endgame_dupes = 0
        for layer in manifest.layers:
            layer_start = sim.now
            while cache.is_reserved(layer.digest):
                # Another process (concurrent pull, chunked fetch or
                # replicator copy) is landing this layer here: wait for
                # its reservation to settle instead of fetching twice.
                settled = sim.event()
                cache.when_settled(layer.digest, settled.succeed)
                yield settled
            if layer.digest in cache:
                # Present (possibly only after waiting out a concurrent
                # download of the same layer).
                cache.touch(layer.digest)
                sources.append(
                    LayerSource(
                        layer.digest,
                        layer.size_bytes,
                        _LOCAL,
                        device,
                        sim.now - layer_start,
                    )
                )
                continue
            if self.chunks is not None:
                outcome = yield from self.chunks.fetch_layer(
                    device,
                    cache,
                    layer.digest,
                    layer.size_bytes,
                    engine,
                    meter_registry=functools.partial(
                        self._meter, layer.digest, device, sim, metered
                    ),
                )
                sources.extend(self._chunk_sources(layer, outcome))
                stale_misses += outcome.stale_misses
                wasted_bytes += outcome.wasted_bytes
                endgame_dupes += outcome.endgame_dupes
                self.swarm.record_demand(layer.digest, device)
                continue
            cache.reserve(layer.digest, layer.size_bytes)
            # Sources this layer must not use; None until the first.
            excluded: Optional[Set[str]] = None
            # Excluded seeders whose full upload budget will free a slot.
            busy: Tuple[str, ...] = ()
            transfer: Optional[Transfer] = None
            try:
                while True:
                    best, misses, excluded = self._resolve_verified(
                        layer.digest, layer.size_bytes, device, cache,
                        excluded, busy,
                    )
                    stale_misses += misses
                    if best is not None and best.kind is _REGISTRY:
                        self._meter(
                            layer.digest, device, sim, metered, best.source
                        )
                    if best is None:
                        # Only saturated seeders are left: they are busy,
                        # not gone, so wait for a free slot.  ``busy``
                        # names excluded seeders, so ``excluded`` exists.
                        yield engine.upload_slot_freed(busy)
                        excluded.difference_update(busy)
                        busy = ()
                        continue
                    try:
                        transfer = engine.start(
                            best.source,
                            device,
                            layer.size_bytes,
                            src_is_registry=best.kind is _REGISTRY,
                            digest=layer.digest,
                        )
                    except UploadBudgetExceeded:
                        excluded = _exclude(excluded, best.source)
                        if engine.uploads_in_flight(best.source):
                            busy += (best.source,)
                        continue
                    fetch_start = sim.now
                    try:
                        yield transfer.done
                    except TransferCancelled:
                        # Whole-layer restart: everything the dead
                        # transfer already delivered is thrown away.
                        # Metering it is the baseline the chunked path
                        # improves on (only the cancelled *chunk*'s
                        # progress is lost there).
                        wasted_bytes += transfer.moved_bytes
                        excluded = _exclude(excluded, best.source)
                        continue
                    break
            except BaseException:
                # A failed resolve or metering, or the pull closed while
                # it waits: neither the transfer nor the reservation may
                # outlive the pull.
                if transfer is not None:
                    engine.cancel(transfer, reason="pull aborted")
                cache.release(layer.digest)
                raise
            cache.commit(layer.digest)
            sources.append(
                LayerSource(
                    layer.digest,
                    layer.size_bytes,
                    best.kind,
                    best.source,
                    sim.now - fetch_start,
                )
            )
            self.swarm.record_demand(layer.digest, device)
        return P2PPullResult(
            reference=reference,
            registry=resolved_registry.name,
            manifest=manifest,
            device=device,
            layers=tuple(sources),
            stale_peer_misses=stale_misses,
            bytes_wasted=wasted_bytes,
            chunk_endgame_dupes=endgame_dupes,
        )

    def _chunk_sources(
        self, layer, outcome: ChunkFetchOutcome
    ) -> List[LayerSource]:
        """Per-source plan entries for one chunked layer fetch.

        One :class:`LayerSource` per distinct serving source, sized by
        the chunk bytes it delivered — so downstream accounting
        (``bytes_by_registry``, ``bytes_from_peers``) is chunk-granular
        for free.  The layer's wall-clock duration is
        carried by the largest contributor (ties: source name) and the
        rest report 0 s, keeping ``plan.seconds`` a sum of per-layer
        wall times like the single-source path.
        """
        entries = sorted(
            outcome.bytes_by_source.items(),
            key=lambda item: (-item[1], item[0][1]),
        )
        primary = entries[0][0]
        out: List[LayerSource] = []
        for key, size in entries:
            src_is_registry, source = key
            out.append(
                LayerSource(
                    layer.digest,
                    size,
                    _REGISTRY if src_is_registry else _PEER,
                    source,
                    outcome.seconds if key == primary else 0.0,
                )
            )
        return out

    def _meter(
        self,
        digest: str,
        device: str,
        sim: Simulator,
        metered: List[str],
        registry_name: str,
    ) -> None:
        """Check the blob on each fetch of ``digest`` from a registry,
        and meter ``device``'s pull once per registry (``metered`` lists
        the ones already metered).  Either may raise (hub rate
        limiting), aborting the fetch."""
        registry = self._registry_named(registry_name)
        registry.fetch_blob(digest)
        if registry_name not in metered:
            registry.meter_pull(device, sim.now)
            metered.append(registry_name)

    def _registry_named(self, name: str) -> Registry:
        for registry in self.planner.registries:
            if registry.name == name:
                return registry
        raise RegistryError(f"no registry named {name!r} in the pull chain")

    def pull(
        self,
        reference: ImageReference,
        arch: Arch,
        device: str,
        cache: ImageCache,
        now_s: float = 0.0,
    ) -> P2PPullResult:
        """Resolve, plan, verify sources, and admit layers into ``cache``.

        Each layer's source is resolved through the discovery backend
        and **verified** against the ground-truth index before it
        counts: a stale view entry (gossip discovery) is metered,
        excluded, and the layer re-resolved — falling back through the
        registry chain when the view holds nothing real.  Demand is
        recorded against the swarm for every layer that had to move
        (local hits need no replication), which is the signal the
        adaptive replicator consumes.
        """
        resolved_registry, manifest = self.resolve(reference, arch)
        sources: List[LayerSource] = []
        # Layers served by a registry, and digests of every layer that
        # moves (peer or registry), both in layer order.
        fetched: List[LayerSource] = []
        moved: List[str] = []
        stale_misses = 0
        for layer in manifest.layers:
            best, misses, _excluded = self._resolve_verified(
                layer.digest, layer.size_bytes, device, cache, None
            )
            stale_misses += misses
            sources.append(best)
            kind = best.kind
            if kind is not _LOCAL:
                moved.append(best.digest)
                if kind is _REGISTRY:
                    fetched.append(best)
        # Meter the registries that actually serve bytes (mirrors the
        # two-tier client: cache hits and peer-served pulls don't burn
        # hub rate-limit tokens — offloading them is the tier's point).
        if fetched:
            served = {layer.source for layer in fetched}
            for registry in self.planner.registries:
                if registry.name in served:
                    registry.meter_pull(device, now_s)
            for layer in fetched:
                self._registry_named(layer.source).fetch_blob(layer.digest)
        # admit_image (not a bare add loop) keeps the CacheFull guard
        # and the an-image-cannot-evict-itself guarantee of the
        # two-tier client's pull path.
        cache.admit_image(manifest)
        for digest in moved:
            self.swarm.record_demand(digest, device)
        return P2PPullResult(
            reference=reference,
            registry=resolved_registry.name,
            manifest=manifest,
            device=device,
            layers=tuple(sources),
            stale_peer_misses=stale_misses,
        )

    def _resolve_verified(
        self,
        digest: str,
        size_bytes: int,
        device: str,
        cache: ImageCache,
        excluded: Optional[Set[str]],
        busy: Tuple[str, ...] = (),
    ) -> Tuple[Optional[LayerSource], int, Optional[Set[str]]]:
        """Cheapest source whose holder survives verification.

        Returns ``(source, stale_misses, excluded)``.  Peer sources come
        from the device's discovery view; each candidate is checked
        against the ground-truth index and a stale one is added to
        ``excluded`` (the caller's set, which also keeps the peers a
        time-resolved pull found saturated or departed; None until it
        names one, and made on the first stale holder) until a real
        holder — or a registry — remains.  When nothing remains, the
        planner's "unreachable" error propagates, unless ``busy`` names
        excluded seeders that will free an upload slot: then the source
        is None.
        """
        misses = 0
        while True:
            try:
                best = self.planner.resolve_layer(
                    digest,
                    size_bytes,
                    device,
                    cache,
                    exclude_peers=_NO_HOLDERS if excluded is None else excluded,
                )
            except RegistryError:
                if not busy:
                    raise
                return None, misses, excluded
            if best.kind is _PEER and not self.swarm.verify_holder(
                device, best.source, digest
            ):
                misses += 1
                excluded = _exclude(excluded, best.source)
                continue
            return best, misses, excluded


@dataclass(frozen=True)
class ReplicationAction:
    """One proactive layer copy performed by the replicator."""

    digest: str
    region: str
    target: str
    source: str
    size_bytes: int
    #: Estimated transfer time of the copy over the source→target
    #: channel (replication runs in the background; this is reported
    #: so its traffic is never mistaken for free).
    seconds: float = 0.0


@dataclass(frozen=True)
class ReplicatorCycle:
    """What one replication cycle saw and did."""

    time_s: float
    hot_digests: Tuple[str, ...]
    actions: Tuple[ReplicationAction, ...]
    replica_counts: Dict[str, int]


#: Most proactive copies one replicator cycle performs.
MAX_ACTIONS_PER_CYCLE = 64


class AdaptiveReplicator:
    """Demand-driven hot-layer replication, run as a DES process.

    Every ``interval_s`` simulated seconds the replicator drains the
    swarm's demand counters into an exponentially decayed score per
    (digest, region).  Digests whose *swarm-wide* score reaches
    ``hot_threshold`` are hot; every region then holding fewer than
    ``target_replicas`` copies is under-provisioned and receives one —
    copied into the cache of the member with the most free space.
    The anticipation is the point: a layer that went hot in one region
    is replicated into the others *before* they ask, so their first
    pull is already a LAN-speed peer hit.  Copies go through the
    ordinary cache insert, so the peer index stays coherent and cold
    layers can be evicted by the copy like any other insert.  The knobs
    come from ``config``, a :class:`~repro.scenarios.spec.ReplicationSpec`
    (its docstring covers ``hotness`` and ``hot_fraction``); a cycle
    performs at most :data:`MAX_ACTIONS_PER_CYCLE` copies.

    With an ``engine``, copies move through the time-resolved transfer
    engine (reserve → transfer → commit) instead of landing instantly,
    and ``bytes_replicated`` counts only *delivered* copies.  With a
    ``churn`` process, a region's replica count weights each holder by
    its observed availability (:meth:`_effective_replicas`).

    Convergence is observable: once demand cools, cycles perform zero
    actions and :meth:`converged` turns true.
    """

    def __init__(
        self,
        sim: Simulator,
        swarm: PeerSwarm,
        config: "ReplicationSpec",
        engine: Optional[TransferEngine] = None,
        churn: Optional["ChurnProcess"] = None,
    ) -> None:
        self.sim = sim
        self.swarm = swarm
        self.config = config
        self.engine = engine
        self.churn = churn
        self.history: List[ReplicatorCycle] = []
        self.bytes_replicated = 0
        self._scores: Dict[Tuple[str, str], float] = {}
        #: Optional telemetry trace sink (duck-typed, None = off):
        #: receives one ``replicator.cycle`` record per cycle.
        self.trace = None

    # ------------------------------------------------------------------
    # the DES process
    # ------------------------------------------------------------------
    def process(self):
        """Generator to hand to ``sim.process``: one cycle every
        ``interval_s``, forever.  It ticks on daemon timeouts, so it
        never keeps a horizonless ``sim.run()`` from terminating."""
        while True:
            yield self.sim.timeout(self.config.interval_s, daemon=True)
            self.run_cycle()

    # ------------------------------------------------------------------
    # one cycle of continuous reasoning
    # ------------------------------------------------------------------
    def run_cycle(self) -> ReplicatorCycle:
        """Drain demand, refresh scores, replicate, record history."""
        config = self.config
        bytes0 = self.bytes_replicated
        fresh = self.swarm.drain_demand()
        scores: Dict[Tuple[str, str], float] = {}
        for key, score in self._scores.items():
            decayed = score * config.decay
            if decayed >= 0.01:
                scores[key] = decayed
        for key, count in fresh.items():
            scores[key] = scores.get(key, 0.0) + count
        self._scores = scores

        swarm_score: Dict[str, float] = {}
        for (digest, _region), score in scores.items():
            swarm_score[digest] = swarm_score.get(digest, 0.0) + score
        if config.hotness == "per-region":
            # A (digest, region) pair is hot only on that region's own
            # decayed demand; hot digests are those hot *somewhere*,
            # ranked by swarm-wide score exactly like the global policy
            # so the two scopes stay comparable cycle for cycle.
            if config.hot_fraction is not None:
                # Auto-scaled threshold: a fraction of this cycle's
                # peak per-region score.  The peak pair is hot by
                # construction, so a cycle with any demand always acts.
                peak = max(scores.values(), default=0.0)
                threshold = config.hot_fraction * peak
                hot_pairs = {
                    key for key, score in scores.items()
                    if peak > 0.0 and score >= threshold
                }
            else:
                hot_pairs = {
                    key for key, score in scores.items()
                    if score >= config.hot_threshold
                }
            hot = sorted(
                {digest for digest, _region in hot_pairs},
                key=lambda d: (-swarm_score[d], d),
            )
        else:
            hot_pairs = None
            hot = sorted(
                (d for d, score in swarm_score.items()
                 if score >= config.hot_threshold),
                key=lambda d: (-swarm_score[d], d),
            )
        actions: List[ReplicationAction] = []
        # Membership cannot change inside a cycle (a sweep runs at one
        # instant; departures are other processes' events).
        regions = self.swarm.regions()
        for digest in hot:
            if len(actions) >= MAX_ACTIONS_PER_CYCLE:
                break
            for region in regions:
                if len(actions) >= MAX_ACTIONS_PER_CYCLE:
                    break
                if hot_pairs is not None and (digest, region) not in hot_pairs:
                    continue
                action = self._replicate(digest, region)
                if action is not None:
                    actions.append(action)

        cycle = ReplicatorCycle(
            time_s=self.sim.now,
            hot_digests=tuple(hot),
            actions=tuple(actions),
            replica_counts={
                digest: len(self.swarm.discovery.management_view(digest))
                for digest in hot
            },
        )
        self.history.append(cycle)
        if self.trace is not None:
            # ``bytes`` is this cycle's delta of *accounted* replica
            # bytes (engine-backed copies count at commit, so a cycle
            # whose transfers are still in flight reports 0 here).
            self.trace.record(
                self.sim.now, "replicator.cycle", "",
                hot=len(hot), actions=len(actions),
                bytes=self.bytes_replicated - bytes0,
            )
        return cycle

    def _replicate(self, digest: str, region: str) -> Optional[ReplicationAction]:
        index = self.swarm.index
        discovery = self.swarm.discovery
        # The replicator reasons over the management-plane view — under
        # gossip discovery a partial, possibly stale picture of the
        # replica map (the continuous-reasoning realism axis); under
        # omniscient discovery exactly the committed set, as before.
        view = discovery.management_view(digest)
        if not view:
            return None  # nobody to copy from; the next pull will seed it
        # Almost every check ends here, copying nothing.
        members = self.swarm.members(region)
        if self._provisioned(members, view):
            return None
        size = discovery.size_of(digest)
        if size is None:
            return None
        # This region may receive a copy: snapshot the view, because
        # ``fastest_verified`` prunes stale entries from it and, under
        # omniscient discovery, ``cache.add`` grows the live set.
        holders = set(view)
        candidates = sorted(
            (member for member in members if member not in holders),
            key=lambda m: (-index.cache_of(m).free_bytes, m),
        )
        for target in candidates:
            cache = index.cache_of(target)
            if size > cache.capacity_bytes:
                continue
            if cache.is_reserved(digest):
                continue  # a copy (or pull) of this layer is already in flight
            # A copy needs a real channel from some *verified* holder:
            # stale view entries are metered and dropped, and a region
            # no surviving holder can reach cannot be provisioned
            # peer-to-peer (its first pull will seed it from a
            # registry instead).
            source, _misses = self.swarm.fastest_verified(
                holders, target, digest, self.swarm.discovery.observer
            )
            if source is None:
                continue
            seconds = self.swarm.network.device_channel(
                source, target
            ).transfer_time_s(bytes_to_mb(size))
            if self.engine is None:
                cache.add(digest, size)  # updates the peer index via the hook
                self.bytes_replicated += size
            else:
                try:
                    cache.reserve(digest, size)
                except CacheFull:
                    continue
                try:
                    transfer = self.engine.start(
                        source, target, size, digest=digest
                    )
                except UploadBudgetExceeded:
                    cache.release(digest)
                    continue  # seeder saturated; demand will retrigger
                self.sim.process(self._deliver(transfer, cache, digest, size))
            return ReplicationAction(
                digest=digest,
                region=region,
                target=target,
                source=source,
                size_bytes=size,
                seconds=seconds,
            )
        return None

    def _provisioned(
        self, members: AbstractSet[str], view: AbstractSet[str]
    ) -> bool:
        """Whether ``view`` shows ``target_replicas`` copies among a
        region's ``members``.

        Without churn every copy counts once: the check walks the
        smaller of the two live sets, probes the other, and stops at
        the target.  The answer is a threshold on the size of the
        intersection, so no set order can change it, and no
        intersection is built.  With churn, copies are weighted by
        availability (:meth:`_effective_replicas`) over the
        intersection.
        """
        target = self.config.target_replicas
        if self.churn is not None:
            return self._effective_replicas(members & view) >= target
        if len(view) < len(members):
            members, view = view, members
        found = 0
        for member in members:
            if member in view:
                found += 1
                if found == target:
                    return True
        return False

    def _effective_replicas(self, holders: AbstractSet[str]) -> float:
        """Availability-weighted replica count of one region's holders.

        Face-value counting treats a replica on a device that is
        online 20% of the time like one that never leaves; weighting
        by observed session behaviour makes departure-prone regions
        look under-provisioned — which they are, from the perspective
        of the next pull.
        """
        # Float addition is not associative: summing in set order would
        # make the replica weight — and every threshold decision built
        # on it — vary with the hash seed.
        return sum(
            self.churn.availability(holder) for holder in sorted(holders)
        )

    def _deliver(self, transfer, cache: ImageCache, digest: str, size: int):
        """Commit a proactive copy when its transfer lands (DES process)."""
        try:
            yield transfer.done
        except TransferCancelled:
            cache.release(digest)
            return
        cache.commit(digest)
        self.bytes_replicated += size

    # ------------------------------------------------------------------
    # convergence diagnostics
    # ------------------------------------------------------------------
    def converged(self, quiet_cycles: int = 3) -> bool:
        """True when the last ``quiet_cycles`` cycles did nothing."""
        if len(self.history) < quiet_cycles:
            return False
        return all(
            not cycle.actions for cycle in self.history[-quiet_cycles:]
        )

    def total_actions(self) -> int:
        return sum(len(cycle.actions) for cycle in self.history)
