"""Device-local image/layer cache with LRU eviction.

The paper's deployment-time term charges ``Size_mi / BW_gj`` only for
images "not already existing on a device".  :class:`ImageCache` tracks
what exists on a device:

* at **image** granularity (paper-faithful whole-image mode): a pulled
  image either is or is not fully present, and
* at **layer** granularity (the dedup extension, ablation A2): layers
  shared between images — e.g. the common ``python:3.9-slim`` base of
  the HA/LA variants — are transferred once.

Capacity is bounded by the device's storage; inserting past capacity
evicts least-recently-used entries, and an image is only *complete*
while every one of its layers survives.

A cache has at most one **observer**, called as ``observer(device,
digest, size_bytes, present)`` after every presence change.  Only the
P2P peer index sets it
(:meth:`repro.registry.p2p.PeerIndex.register_cache`), one observer
for every cache it tracks, and it forwards each change to the
discovery backend that needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..model.units import BYTES_PER_GB
from .manifest import ImageManifest


@dataclass(frozen=True)
class EvictionRecord:
    """One LRU eviction (digest and the bytes it freed)."""

    digest: str
    size_bytes: int


#: The reservations of a cache that holds none: shared and read-only.
_NO_RESERVATIONS: Mapping[str, int] = MappingProxyType({})


class CacheFull(RuntimeError):
    """Raised when a single item is larger than the whole cache."""


class ReservationError(RuntimeError):
    """Raised on conflicting or dangling reserve/commit calls."""


class ImageCache:
    """LRU cache of content-addressed entries on one device.

    Entries are layer digests plus manifest digests (a zero-byte marker
    recording that the full image was assembled).  Completeness of an
    image is always re-derived from layer presence, so layer evictions
    can never leave a stale "image present" claim behind.  Recency is
    a plain dict's insertion order, with no per-entry link nodes: a
    refresh pops an entry and reinserts it at the end, and eviction
    takes the first key.

    In-flight admission follows a **reserve → commit** protocol: a
    transfer that will land a layer first :meth:`reserve`\\ s its bytes
    (they count against capacity, evicting LRU entries if needed, but
    the digest is *not present* — the observer, the peer index, never
    sees it), then :meth:`commit`\\ s at transfer completion (the
    digest becomes an entry and the observer sees it arrive) or
    :meth:`release`\\ s on abort.  The analytic pull path
    keeps using :meth:`add`/:meth:`admit_image`, which admit instantly.
    A pull that finds a layer reserved waits for the reservation to
    settle (:meth:`when_settled`), whoever owns it.
    """

    #: Digest -> callbacks waiting for its reservation to settle.  Set
    #: on the first :meth:`when_settled`: almost no cache ever has a
    #: waiter, so none pays for an empty map.
    _waiters: Optional[Dict[str, List[Callable[[], None]]]] = None

    #: Called as ``observer(device, digest, size_bytes, present)``
    #: synchronously after a digest enters the cache (``present=True``)
    #: or leaves it (LRU eviction), with
    #: this cache's :attr:`device`, so one observer can serve many
    #: caches.  A refresh that keeps an entry's size calls nothing:
    #: recency is not presence.  An exception it raises propagates to
    #: the mutating call, after the cache's own state is updated.
    observer: Optional[Callable[[str, str, int, bool], None]] = None

    #: Digest -> bytes held for its in-flight transfer.  A dict of its
    #: own from the first :meth:`reserve` until the last reservation
    #: settles: most caches hold none most of the time.
    _reserved: Mapping[str, int] = _NO_RESERVATIONS

    def __init__(self, capacity_gb: float, device: str = "") -> None:
        if capacity_gb <= 0:
            raise ValueError(f"capacity_gb must be > 0, got {capacity_gb}")
        self.device = device
        self.capacity_bytes = int(capacity_gb * BYTES_PER_GB)
        # Digest -> size in recency order, least recently used first.
        self._entries: Dict[str, int] = {}
        self._used = 0
        self._reserved_total = 0

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes held by *committed* entries (reservations excluded)."""
        return self._used

    @property
    def reserved_bytes(self) -> int:
        """Bytes held for in-flight transfers (reserve → commit)."""
        return self._reserved_total

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used - self._reserved_total

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: object) -> bool:
        return digest in self._entries

    # ------------------------------------------------------------------
    # entry operations
    # ------------------------------------------------------------------
    def touch(self, digest: str) -> bool:
        """Mark ``digest`` most-recently-used; False if absent."""
        if digest not in self._entries:
            return False
        self._entries[digest] = self._entries.pop(digest)
        return True

    def add(self, digest: str, size_bytes: int) -> List[EvictionRecord]:
        """Insert (or refresh) an entry, evicting LRU entries as needed.

        Returns the evictions performed by this insertion.  Raises
        :class:`CacheFull` if the item alone exceeds capacity.
        """
        if size_bytes < 0:
            raise ValueError(f"negative entry size: {size_bytes}")
        if size_bytes > self.capacity_bytes:
            raise CacheFull(
                f"entry {digest} ({size_bytes} B) exceeds cache capacity "
                f"{self.capacity_bytes} B on {self.device or 'device'}"
            )
        # An instant insert absorbs any pending reservation for the
        # same digest: the bytes are now truly present, and the
        # in-flight transfer's eventual commit degrades to a refresh.
        self.release(digest)
        old_size = self._entries.get(digest)
        if old_size is not None:
            self._used -= self._entries.pop(digest)
        evicted: List[EvictionRecord] = []
        evicted.extend(self._evict_until_fits(size_bytes))
        self._entries[digest] = size_bytes
        self._used += size_bytes
        if old_size != size_bytes and self.observer is not None:
            self.observer(self.device, digest, size_bytes, True)
        return evicted

    def _evict_until_fits(self, size_bytes: int) -> List[EvictionRecord]:
        """Evict LRU entries until ``size_bytes`` more fit.

        Reserved bytes are untouchable (an in-flight transfer cannot be
        evicted — it isn't present yet), so when reservations plus the
        incoming size exceed capacity with no entries left to evict,
        the insert fails loudly instead of looping.
        """
        evicted: List[EvictionRecord] = []
        while (
            self._used + self._reserved_total + size_bytes > self.capacity_bytes
        ):
            if not self._entries:
                raise CacheFull(
                    f"cannot fit {size_bytes} B on {self.device or 'device'}: "
                    f"{self._reserved_total} B reserved by in-flight "
                    f"transfers and nothing left to evict"
                )
            victim = next(iter(self._entries))
            victim_size = self._entries.pop(victim)
            self._used -= victim_size
            evicted.append(EvictionRecord(victim, victim_size))
            if self.observer is not None:
                self.observer(self.device, victim, victim_size, False)
        return evicted

    # ------------------------------------------------------------------
    # reserve → commit admission (in-flight transfers)
    # ------------------------------------------------------------------
    def is_reserved(self, digest: str) -> bool:
        return digest in self._reserved

    def when_settled(self, digest: str, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, when ``digest``'s reservation settles.

        A reservation settles when it is committed, released or
        absorbed by an instant :meth:`add`.  Waiting on
        a digest that is not reserved is a :class:`ReservationError`:
        there is nothing in flight to wait for.
        """
        if digest not in self._reserved:
            raise ReservationError(
                f"{digest} is not reserved on {self.device or 'device'}"
            )
        if self._waiters is None:
            self._waiters = {}
        self._waiters.setdefault(digest, []).append(callback)

    def _settled(self, digest: str) -> None:
        waiters = self._waiters
        if waiters:
            for callback in waiters.pop(digest, ()):
                callback()

    def reserve(self, digest: str, size_bytes: int) -> List[EvictionRecord]:
        """Hold capacity for a transfer that will land ``digest``.

        The bytes count against capacity immediately (evicting LRU
        entries as needed) but the digest is **not present**: lookups
        miss it and the observer hears nothing until :meth:`commit`.
        Reserving an already-cached digest is a no-op refresh (returns
        no evictions); reserving a digest twice is a
        :class:`ReservationError` — two transfers racing for the same
        layer on one device is a planner bug, not a cache state.
        """
        if size_bytes < 0:
            raise ValueError(f"negative entry size: {size_bytes}")
        if digest in self._reserved:
            raise ReservationError(
                f"{digest} already reserved on {self.device or 'device'}"
            )
        if digest in self._entries:
            self._entries[digest] = self._entries.pop(digest)
            return []
        if size_bytes > self.capacity_bytes:
            raise CacheFull(
                f"entry {digest} ({size_bytes} B) exceeds cache capacity "
                f"{self.capacity_bytes} B on {self.device or 'device'}"
            )
        evicted = self._evict_until_fits(size_bytes)
        if self._reserved is _NO_RESERVATIONS:
            self._reserved = {}
        self._reserved[digest] = size_bytes
        self._reserved_total += size_bytes
        return evicted

    def _unreserve(self, digest: str) -> Optional[int]:
        """Drop ``digest``'s reservation: its bytes, or None if it had
        none.  The last one to go takes the cache's dict with it."""
        reserved = self._reserved
        if digest not in reserved:
            return None
        size = reserved.pop(digest)
        self._reserved_total -= size
        if not reserved:
            self._reserved = _NO_RESERVATIONS
        return size

    def commit(self, digest: str) -> bool:
        """Turn a reservation into a present entry (tells the observer).

        Returns True when a reservation was committed.  Committing a
        digest that was never reserved is allowed only when the digest
        is already present (the reserve was a no-op refresh): it
        refreshes recency and returns False.  Anything else is a
        :class:`ReservationError`.
        """
        size = self._unreserve(digest)
        if size is None:
            if digest in self._entries:
                self._entries[digest] = self._entries.pop(digest)
                return False
            raise ReservationError(
                f"commit of unreserved digest {digest} on "
                f"{self.device or 'device'}"
            )
        old_size = self._entries.pop(digest, None)
        if old_size is not None:
            self._used -= old_size
        self._entries[digest] = size
        self._used += size
        self._settled(digest)
        if old_size != size and self.observer is not None:
            self.observer(self.device, digest, size, True)
        return True

    def release(self, digest: str) -> bool:
        """Abort a reservation (transfer cancelled); True if one existed."""
        if self._unreserve(digest) is None:
            return False
        self._settled(digest)
        return True

    # ------------------------------------------------------------------
    # image-level queries
    # ------------------------------------------------------------------
    def has_image(self, manifest: ImageManifest) -> bool:
        """True iff *every* layer of ``manifest`` is still cached."""
        return all(d in self._entries for d in manifest.layer_digests())

    def missing_layers(self, manifest: ImageManifest) -> List[str]:
        """Layer digests that a pull of ``manifest`` must transfer."""
        return [d for d in manifest.layer_digests() if d not in self._entries]

    def admit_image(self, manifest: ImageManifest) -> List[EvictionRecord]:
        """Insert all layers of ``manifest`` (after a successful pull).

        Layers are admitted in manifest order; already-present layers
        are refreshed.  The returned evictions never include layers of
        the image being admitted (an image cannot evict itself —
        guaranteed because admission order refreshes recency).

        A layer present at the same size and not reserved is only
        moved to the most-recently-used end.  That is all :meth:`add`
        does for it: its ``release`` finds nothing, no eviction runs
        (``used + reserved <= capacity`` holds between calls, so the
        re-added bytes fit where they were) and the observer hears
        nothing, since the size did not change.  Every other layer
        goes through :meth:`add`.
        """
        entries = self._entries
        needed = sum(
            layer.size_bytes
            for layer in manifest.layers
            if layer.digest not in entries
        )
        if needed + self._reserved_total > self.capacity_bytes:
            raise CacheFull(
                f"image {manifest.digest} needs {needed} new bytes; cache "
                f"capacity is {self.capacity_bytes} B"
            )
        evicted: List[EvictionRecord] = []
        for layer in manifest.layers:
            digest, size = layer.digest, layer.size_bytes
            if entries.get(digest) == size and digest not in self._reserved:
                entries[digest] = entries.pop(digest)
            else:
                evicted.extend(self.add(digest, size))
        return evicted

    def entries(self) -> List[Tuple[str, int]]:
        """(digest, size) pairs from least- to most-recently used."""
        return list(self._entries.items())
