"""Network model of Sec. III-B/C: bandwidth-only channels.

The paper models the network purely by bandwidth (RTT is explicitly
neglected).  Two kinds of channels exist:

* device ↔ device channels ``h_kj = BW_kj`` used by dataflow
  transmissions between upstage and downstage microservices, and
* registry → device channels ``BW_gj`` used by image deployments.

Transfers between microservices co-located on the same device never
touch the network and take zero time (loopback).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .units import require_non_negative, require_positive, transfer_time_s


@dataclass(frozen=True)
class Channel:
    """A point-to-point channel with a bandwidth and optional RTT.

    Attributes
    ----------
    bandwidth_mbps:
        Channel bandwidth in Mbit/s.
    rtt_s:
        Round-trip time in seconds.  The paper neglects RTT; it is kept
        as an optional extension knob (default 0) and charged once per
        transfer when set.
    """

    bandwidth_mbps: float
    rtt_s: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_mbps, "bandwidth_mbps")
        require_non_negative(self.rtt_s, "rtt_s")

    def transfer_time_s(self, size_mb: float) -> float:
        """Seconds to move ``size_mb`` MB across this channel."""
        if size_mb == 0:
            return 0.0
        return self.rtt_s + transfer_time_s(size_mb, self.bandwidth_mbps)


#: Reserved channel name for external data ingress (camera feeds, S3
#: datasets).  Wired per device like a registry channel.
INGRESS = "__ingress__"

#: Shared empty channel row for devices nothing connects to.
_NO_CHANNELS: Dict[str, "Channel"] = {}

#: Shard label for links not owned by any single region: inter-region
#: channels, monolithic registry egress, and links between endpoints
#: whose region was never declared.  Shards only label links: the
#: metrics sampler reports trunk utilisation under this name.
TRUNK = "@trunk"


@dataclass(frozen=True)
class LinkSpec:
    """One shared link of a transfer path (name + capacity + shard).

    The time-resolved :class:`~repro.sim.transfers.TransferEngine`
    materialises these into live :class:`~repro.sim.transfers.Link`
    objects; the analytic path never looks at them.  ``shard`` names
    the region that owns the link (:data:`TRUNK` when no single region
    does); it labels the link for per-region utilisation metrics and
    never affects a rate or the engine's scheduling.
    """

    name: str
    capacity_mbps: float
    shard: str = TRUNK


class NetworkModel:
    """Bandwidth matrix over devices and registries.

    Channels are stored directionally; :meth:`connect_devices` installs
    both directions at once (the common symmetric case).  Lookups for
    missing channels raise ``KeyError`` — a missing channel is a
    topology bug, not a zero-bandwidth link.

    Device channels live in one store, a row per destination mapping
    each source to its :class:`Channel`; every device-channel lookup
    reads it.  A mesh is stored once: :meth:`connect_device_mesh`
    gives every member one shared row that names every member, its
    destination included, so a row that names its own destination is
    a shared mesh row.  A device is never its own source: readers of
    :meth:`channels_into` and :meth:`device_sources_by_preference`
    skip the destination, and :meth:`device_channel` and
    :meth:`has_device_channel` exclude loopback before reading a row.
    The first :meth:`connect_devices` call or overlapping mesh that
    touches a member copies that member's row out, so every overwrite
    means what it would on private rows.

    Registry channels live in one row per registry (device →
    :class:`Channel`).  The model builds one frozen :class:`Channel`
    per distinct (bandwidth, RTT) pair and shares it across every
    channel it connects at that value.
    """

    def __init__(self) -> None:
        # Registry channels, one row per registry: registry → device.
        self._registry_channels: Dict[str, Dict[str, Channel]] = {}
        # The one frozen Channel per (bandwidth, RTT) value; keyed by
        # type too, so an int bandwidth never stands in for an equal
        # float one.
        self._shared_channels: Dict[tuple, Channel] = {}
        self._uplinks: Dict[str, float] = {}
        self._downlinks: Dict[str, float] = {}
        #: Bumped by every mutation that can change a
        #: :meth:`transfer_path` result.  The time-resolved engine
        #: caches each path it resolves and drops its cache when this
        #: moves.
        self.topology_version = 0
        # Device channels grouped per destination: dst → src → Channel.
        # Candidate-source scans fetch the row once and probe it with
        # plain string keys instead of hashing a tuple per candidate.
        # Every member of a mesh holds the mesh's one shared row.
        self._channels_into: Dict[str, Dict[str, Channel]] = {}
        # Each row's sources in best-first order (bandwidth descending,
        # then name), under every destination that reads the row —
        # built lazily, once per row, and dropped on mutation.
        self._pref_cache: Dict[str, Tuple[str, ...]] = {}
        # Region each endpoint belongs to, for link→shard
        # classification.  Unset endpoints classify onto the trunk.
        self._regions: Dict[str, str] = {}
        # Per-region egress slices of a registry uplink: endpoint →
        # region → capacity.  When present for the destination's
        # region, the slice replaces the monolithic uplink for that
        # path, so pulls from different regions never share a link.
        self._regional_uplinks: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def connect_devices(
        self,
        a: str,
        b: str,
        bandwidth_mbps: float,
        rtt_s: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Install a device↔device channel (both directions by default)."""
        if a == b:
            raise ValueError(f"loopback channel on {a!r} is implicit")
        channel = self._channel(bandwidth_mbps, rtt_s)
        self.topology_version += 1
        self._pref_cache.clear()
        self._own_row(b)[a] = channel
        if symmetric:
            self._own_row(a)[b] = channel

    def connect_device_mesh(
        self,
        names: Iterable[str],
        bandwidth_mbps: float,
        rtt_s: float = 0.0,
    ) -> None:
        """Fully connect ``names`` with symmetric channels.

        Convenience for P2P swarm topologies where every device in a
        region can serve layers to every other.  Existing channels
        between the named devices are overwritten.  Every channel of
        the mesh is one shared frozen :class:`Channel`.  A member with
        no channels yet reads one row that all such members share: it
        names every member in ``names`` order, the member itself
        included.  A member that already has a row gains the other
        members in ``names`` order in its own copy — the rows
        :meth:`connect_devices` would leave pair by pair.  The
        bandwidth and the names are validated before anything is
        written, so a rejected mesh leaves the network unchanged.
        """
        members = list(names)
        channel = self._channel(bandwidth_mbps, rtt_s)
        mesh_row = dict.fromkeys(members, channel)
        if len(mesh_row) < len(members):
            dup = next(n for i, n in enumerate(members) if n in members[:i])
            raise ValueError(f"loopback channel on {dup!r} is implicit")
        if len(members) < 2:
            return
        self.topology_version += 1
        self._pref_cache.clear()
        for dst in members:
            if dst in self._channels_into:
                row = self._own_row(dst)
                row.update(mesh_row)
                del row[dst]  # mesh_row names dst too; loopback is implicit
            else:
                self._channels_into[dst] = mesh_row

    def _own_row(self, dst: str) -> Dict[str, Channel]:
        """``dst``'s writable row, copied out of a shared mesh row first."""
        row = self._channels_into.get(dst)
        if row is None:
            row = self._channels_into[dst] = {}
        elif dst in row:
            row = self._channels_into[dst] = {
                src: channel for src, channel in row.items() if src != dst
            }
        return row

    def _channel(self, bandwidth_mbps: float, rtt_s: float) -> Channel:
        """The model's one frozen channel at this bandwidth and RTT."""
        key = (bandwidth_mbps, rtt_s, type(bandwidth_mbps), type(rtt_s))
        channel = self._shared_channels.get(key)
        if channel is None:
            channel = Channel(bandwidth_mbps, rtt_s)
            self._shared_channels[key] = channel
        return channel

    def connect_registry(
        self,
        registry: str,
        device: str,
        bandwidth_mbps: float,
        rtt_s: float = 0.0,
    ) -> None:
        """Install a registry→device channel (``BW_gj``)."""
        channel = self._channel(bandwidth_mbps, rtt_s)
        self.topology_version += 1
        self._registry_channels.setdefault(registry, {})[device] = channel

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def device_channel(self, src: str, dst: str) -> Optional[Channel]:
        """Channel from ``src`` to ``dst``; ``None`` for loopback."""
        if src == dst:
            return None
        try:
            return self._channels_into[dst][src]
        except KeyError:
            raise KeyError(f"no channel between devices {src!r} and {dst!r}") from None

    def registry_channel(self, registry: str, device: str) -> Channel:
        """Channel from ``registry`` to ``device``."""
        try:
            return self._registry_channels[registry][device]
        except KeyError:
            raise KeyError(
                f"no channel from registry {registry!r} to device {device!r}"
            ) from None

    def find_registry_channel(
        self, registry: str, device: str
    ) -> Optional[Channel]:
        """Channel from ``registry`` to ``device``; None if unconnected."""
        return self._registry_channels.get(registry, _NO_CHANNELS).get(device)

    def channels_into(self, dst: str) -> Dict[str, Channel]:
        """Source → channel for every device channel into ``dst``.

        The store's own row, in connection order — read-only for
        callers.  Source-selection scans fetch the row once and probe
        candidates with plain string keys.  A shared mesh row names
        ``dst`` itself; a device is never its own source, so callers
        skip that entry.
        """
        return self._channels_into.get(dst, _NO_CHANNELS)

    def device_sources_by_preference(self, dst: str) -> Tuple[str, ...]:
        """Sources of ``dst``'s row, fastest first (ties by name).

        The order is exactly the total order peer selection minimises
        over — ``(-bandwidth, name)`` — so the best source among any
        candidate set is the *first* entry of this list contained in
        it.  Built lazily, once per row, and invalidated by topology
        mutations; every member of a mesh gets the same tuple, which
        names that member too (see :meth:`channels_into`), so callers
        skip ``dst``.  Swarm-scale peer lookups walk it with O(1)
        membership probes instead of scanning every holder.  Sources
        are grouped by bandwidth, so only names are sorted per group.
        """
        cached = self._pref_cache.get(dst)
        if cached is None:
            row = self.channels_into(dst)
            groups: Dict[float, List[str]] = {}
            for src, channel in row.items():
                groups.setdefault(channel.bandwidth_mbps, []).append(src)
            cached = tuple(
                src
                for bandwidth in sorted(groups, reverse=True)
                for src in sorted(groups[bandwidth])
            )
            self._pref_cache[dst] = cached
            if dst in row:  # a shared mesh row: its other readers too
                for member in row:
                    if self._channels_into.get(member) is row:
                        self._pref_cache[member] = cached
        return cached

    # ------------------------------------------------------------------
    # transfer-time queries (the paper's Size/BW terms)
    # ------------------------------------------------------------------
    def dataflow_time_s(self, src: str, dst: str, size_mb: float) -> float:
        """Transmission time ``Tc`` for a dataflow of ``size_mb`` MB."""
        channel = self.device_channel(src, dst)
        if channel is None:  # co-located: no network involved
            return 0.0
        return channel.transfer_time_s(size_mb)

    def deployment_time_s(self, registry: str, device: str, size_gb: float) -> float:
        """Deployment time ``Td`` for an image of ``size_gb`` GB."""
        return self.registry_channel(registry, device).transfer_time_s(
            size_gb * 1000.0
        )

    # ------------------------------------------------------------------
    # shared links (the time-resolved transfer model)
    # ------------------------------------------------------------------
    def set_uplink(self, endpoint: str, capacity_mbps: float) -> None:
        """Give ``endpoint`` (device or registry) a shared egress link.

        Every transfer *sourced* at the endpoint crosses this link, so
        concurrent uploads share it — the seeder-side contention the
        analytic model cannot express.  Only the time-resolved
        :class:`~repro.sim.transfers.TransferEngine` consults it.
        """
        require_positive(capacity_mbps, "capacity_mbps")
        self.topology_version += 1
        self._uplinks[endpoint] = capacity_mbps

    def set_downlink(self, endpoint: str, capacity_mbps: float) -> None:
        """Give ``endpoint`` a shared ingress link (NIC capacity)."""
        require_positive(capacity_mbps, "capacity_mbps")
        self.topology_version += 1
        self._downlinks[endpoint] = capacity_mbps

    def set_region(self, endpoint: str, region: str) -> None:
        """Declare which region owns ``endpoint`` for shard labelling.

        Regions drive the ``shard`` field of the :class:`LinkSpec`\\ s
        :meth:`transfer_path` emits: an endpoint's up/down links belong
        to its region, an intra-region channel to the shared region,
        and everything else to :data:`TRUNK`.  Purely a label —
        capacities and path shapes are unaffected.
        """
        if not region:
            raise ValueError(f"empty region for endpoint {endpoint!r}")
        self.topology_version += 1
        self._regions[endpoint] = region

    def set_regional_uplink(
        self, endpoint: str, region: str, capacity_mbps: float
    ) -> None:
        """Give ``endpoint`` a per-region egress slice toward ``region``.

        Transfers sourced at the endpoint toward a destination in
        ``region`` cross ``up:{endpoint}@{region}`` (owned by that
        region's shard) instead of the monolithic ``up:{endpoint}``
        link.  This is the explicit trunk-slicing DEEP's regional
        registries imply: egress toward different regions no longer
        couples into one shared component.
        """
        require_positive(capacity_mbps, "capacity_mbps")
        if not region:
            raise ValueError(f"empty region for endpoint {endpoint!r}")
        self.topology_version += 1
        self._regional_uplinks.setdefault(endpoint, {})[region] = capacity_mbps

    def regional_uplink_mbps(
        self, endpoint: str, region: Optional[str]
    ) -> Optional[float]:
        slices = self._regional_uplinks.get(endpoint)
        if slices is None or region is None:
            return None
        return slices.get(region)

    def _endpoint_shard(self, endpoint: str) -> str:
        """Shard owning ``endpoint``'s private links (trunk if unset)."""
        return self._regions.get(endpoint, TRUNK)

    def _channel_shard(self, src: str, dst: str, src_is_registry: bool) -> str:
        """Shard owning the ``src → dst`` point-to-point channel.

        Registry→device channels are private to the destination, so
        they belong to the destination's region.  Device channels
        belong to the common region when both ends share one, else to
        the trunk (cross-region peer traffic).
        """
        if src_is_registry:
            return self._regions.get(dst, TRUNK)
        src_region = self._regions.get(src)
        if src_region is not None and src_region == self._regions.get(dst):
            return src_region
        return TRUNK

    def transfer_path(
        self, src: str, dst: str, src_is_registry: bool = False
    ) -> Tuple[List[LinkSpec], float]:
        """Shared links a ``src → dst`` transfer occupies, plus latency.

        The path is source uplink (if configured) → the point-to-point
        channel (always, at its bandwidth) → destination downlink (if
        configured).  Loopback transfers occupy nothing.  The latency
        is the channel's RTT, charged once per transfer as in the
        analytic model.

        When the source has a regional uplink slice toward the
        destination's region (:meth:`set_regional_uplink`), that slice
        replaces the monolithic uplink for this path.  Every spec
        carries the shard that owns it (see :meth:`set_region`).

        Each call builds the path afresh and returns a new list.  The
        model caches nothing: the time-resolved engine resolves a path
        once into its live links and keeps it while
        :attr:`topology_version` stands.
        """
        if not src_is_registry and src == dst:
            return [], 0.0
        if src_is_registry:
            channel = self.registry_channel(src, dst)
        else:
            chan = self.device_channel(src, dst)
            assert chan is not None  # loopback handled above
            channel = chan
        specs: List[LinkSpec] = []
        dst_region = self._regions.get(dst)
        regional_up = self.regional_uplink_mbps(src, dst_region)
        if regional_up is not None:
            specs.append(
                LinkSpec(f"up:{src}@{dst_region}", regional_up, dst_region)
            )
        else:
            up = self._uplinks.get(src)
            if up is not None:
                specs.append(
                    LinkSpec(f"up:{src}", up, self._endpoint_shard(src))
                )
        specs.append(LinkSpec(
            f"chan:{src}->{dst}",
            channel.bandwidth_mbps,
            self._channel_shard(src, dst, src_is_registry),
        ))
        down = self._downlinks.get(dst)
        if down is not None:
            specs.append(
                LinkSpec(f"down:{dst}", down, self._endpoint_shard(dst))
            )
        return specs, channel.rtt_s

    # ------------------------------------------------------------------
    # external ingress (camera feeds, S3 datasets)
    # ------------------------------------------------------------------
    def connect_ingress(
        self, device: str, bandwidth_mbps: float, rtt_s: float = 0.0
    ) -> None:
        """Install the external-ingress channel for ``device``."""
        self.connect_registry(INGRESS, device, bandwidth_mbps, rtt_s)

    def ingress_time_s(self, device: str, size_mb: float) -> float:
        """Transfer time of ``size_mb`` of external input into ``device``."""
        if size_mb == 0:
            return 0.0
        return self.registry_channel(INGRESS, device).transfer_time_s(size_mb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        device_channels = sum(
            len(row) - (dst in row) for dst, row in self._channels_into.items()
        )
        registry_channels = sum(map(len, self._registry_channels.values()))
        return (
            f"NetworkModel(device_channels={device_channels}, "
            f"registry_channels={registry_channels})"
        )
