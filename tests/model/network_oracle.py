"""Frozen reference for the network model's device-channel store.

:class:`OracleNetworkModel` is the live :class:`NetworkModel` with its
device-channel code swapped for an unchanged copy of what the model
shipped before the per-destination rows became the only store: three
maps (a ``(src, dst)``-keyed channel matrix, an in-neighbor set per
device and the per-destination rows), all written by a per-pair
``connect_devices`` that builds a fresh ``Channel``, clears the
preference cache and bumps the topology version on every call; a
mesh that connects pair by pair; and a preference order sorted with
a ``(-bandwidth, name)`` key.  Registry channels, links, regions and
``transfer_path`` are inherited, so any divergence is the
device-channel store's.  It stays here as the oracle the live store
must match exactly.
"""

from typing import Dict, Iterable, Optional, Tuple

from repro.model.network import Channel, NetworkModel

_NO_NEIGHBOURS: frozenset = frozenset()
_NO_CHANNELS: Dict[str, Channel] = {}


class OracleNetworkModel(NetworkModel):
    """:class:`NetworkModel` on the frozen three-map, per-pair store."""

    def __init__(self) -> None:
        super().__init__()
        self._device_channels: Dict[Tuple[str, str], Channel] = {}
        self._in_neighbors: Dict[str, set] = {}

    def connect_devices(
        self,
        a: str,
        b: str,
        bandwidth_mbps: float,
        rtt_s: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        if a == b:
            raise ValueError(f"loopback channel on {a!r} is implicit")
        channel = Channel(bandwidth_mbps, rtt_s)
        self.topology_version += 1
        self._pref_cache.clear()
        self._device_channels[(a, b)] = channel
        self._in_neighbors.setdefault(b, set()).add(a)
        self._channels_into.setdefault(b, {})[a] = channel
        if symmetric:
            self._device_channels[(b, a)] = channel
            self._in_neighbors.setdefault(a, set()).add(b)
            self._channels_into.setdefault(a, {})[b] = channel

    def connect_device_mesh(
        self,
        names: Iterable[str],
        bandwidth_mbps: float,
        rtt_s: float = 0.0,
    ) -> None:
        members = list(names)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                self.connect_devices(a, b, bandwidth_mbps, rtt_s)

    def device_channel(self, src: str, dst: str) -> Optional[Channel]:
        if src == dst:
            return None
        try:
            return self._device_channels[(src, dst)]
        except KeyError:
            raise KeyError(
                f"no channel between devices {src!r} and {dst!r}"
            ) from None

    def has_device_channel(self, src: str, dst: str) -> bool:
        return (src, dst) in self._device_channels

    def channels_into(self, dst: str) -> Dict[str, Channel]:
        return self._channels_into.get(dst, _NO_CHANNELS)

    def device_in_neighbors(self, dst: str) -> frozenset:
        return self._in_neighbors.get(dst, _NO_NEIGHBOURS)

    def device_sources_by_preference(self, dst: str) -> Tuple[str, ...]:
        cached = self._pref_cache.get(dst)
        if cached is None:
            row = self._channels_into.get(dst, _NO_CHANNELS)
            cached = tuple(
                sorted(row, key=lambda src: (-row[src].bandwidth_mbps, src))
            )
            self._pref_cache[dst] = cached
        return cached
