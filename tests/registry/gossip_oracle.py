"""Frozen reference for gossip discovery's merge path.

:class:`OracleGossipDiscovery` is the live :class:`GossipDiscovery`
with its merge path swapped for an unchanged copy of the code the
backend shipped before records became packed int keys: one
:class:`ViewRecord` object per record, a flat ``(holder, digest,
record)`` payload list, a pre-filtered list under digest-summary, a
merge that caps every touched digest, and a cap that sorts each class
with a key function.  Membership, partner choice, loss draws and
latency scheduling are inherited, so both classes consume the same RNG
stream and any divergence is the merge path's.  It stays here as the
oracle the live merge must match exactly.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.registry.discovery import GossipDiscovery


@dataclass(frozen=True)
class ViewRecord:
    """One gossip fact: holder × digest at a version."""

    incarnation: int
    seq: int
    present: bool

    @property
    def version(self) -> Tuple[int, int]:
        return (self.incarnation, self.seq)


def _newer(incoming: ViewRecord, current: Optional[ViewRecord]) -> bool:
    """Merge rule: strictly newer version wins; ties keep *absent*."""
    if current is None:
        return True
    if incoming.version != current.version:
        return incoming.version > current.version
    return current.present and not incoming.present


class OracleGossipDiscovery(GossipDiscovery):
    """:class:`GossipDiscovery` on the frozen record-object merge path."""

    def note(
        self, device: str, digest: str, size_bytes: int, present: bool
    ) -> None:
        self._clock[device] += 1
        self._firsthand[device][digest] = ViewRecord(
            self._incarnation[device], self._clock[device], present
        )
        if present:
            self._sizes[digest] = size_bytes

    def view(self, viewer: str, digest: str) -> FrozenSet[str]:
        records = self._views.get(viewer, {}).get(digest)
        if not records:
            return frozenset()
        return frozenset(h for h, r in records.items() if r.present)

    def record_miss(self, viewer: str, holder: str, digest: str) -> None:
        self.stale_misses += 1
        records = self._views.get(viewer, {}).get(digest)
        if records is None:
            return
        current = records.get(holder)
        if current is not None and current.present:
            records[holder] = ViewRecord(
                current.incarnation, current.seq, False
            )

    def _deliver(
        self, receiver: str, payload: List[Tuple[str, str, ViewRecord]]
    ) -> None:
        view = self._views.get(receiver)
        if view is None:
            return  # receiver departed before delivery
        if self.exchange == "digest-summary":
            payload = [
                (holder, digest, record)
                for holder, digest, record in payload
                if holder != receiver
                and _newer(record, view.get(digest, {}).get(holder))
            ]
        self.records_sent += len(payload)
        self._merge(receiver, payload)

    def _payload(self, name: str) -> List[Tuple[str, str, ViewRecord]]:
        out: List[Tuple[str, str, ViewRecord]] = []
        firsthand = self._firsthand.get(name)
        if firsthand is not None:
            for digest, record in firsthand.items():
                out.append((name, digest, record))
        for digest, records in self._views.get(name, {}).items():
            for holder, record in records.items():
                out.append((holder, digest, record))
        return out

    def _merge(
        self, viewer: str, payload: List[Tuple[str, str, ViewRecord]]
    ) -> None:
        view = self._views.get(viewer)
        if view is None:
            return  # viewer departed mid-round
        touched: Set[str] = set()
        for holder, digest, record in payload:
            if holder == viewer:
                continue  # self-knowledge is first-hand only
            records = view.setdefault(digest, {})
            if _newer(record, records.get(holder)):
                records[holder] = record
                touched.add(digest)
        for digest in sorted(touched):
            self._enforce_cap(view[digest])

    def _enforce_cap(self, records: Dict[str, ViewRecord]) -> None:
        for wanted in (True, False):
            matching = [
                (h, r) for h, r in records.items() if r.present is wanted
            ]
            if len(matching) <= self.view_cap:
                continue
            matching.sort(
                key=lambda item: (item[1].version, item[0]), reverse=True
            )
            for holder, _record in matching[self.view_cap:]:
                del records[holder]


def decoded_views(
    disc: GossipDiscovery,
) -> Dict[str, Dict[str, Dict[str, Tuple[int, int, bool]]]]:
    """Every view as ``viewer -> digest -> holder -> (incarnation, seq,
    present)``, read from either record format."""
    out: Dict[str, Dict[str, Dict[str, Tuple[int, int, bool]]]] = {}
    for viewer, view in disc._views.items():
        out[viewer] = {
            digest: {
                holder: _decode(record) for holder, record in records.items()
            }
            for digest, records in view.items()
        }
    return out


def _decode(record) -> Tuple[int, int, bool]:
    if isinstance(record, ViewRecord):
        return (record.incarnation, record.seq, record.present)
    version = record >> 1
    return (version >> 32, version & 0xFFFFFFFF, not record & 1)
