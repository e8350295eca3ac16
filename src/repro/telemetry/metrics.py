"""Sim-scheduled time-series metrics in tidy rows.

:class:`MetricsSampler` records ``(t_s, metric, scope, value)`` rows at
a configurable simulated period.  The sampling *loop* lives in
:class:`~repro.scenarios.session.SimulationSession` (it owns the DES
clock and is the only module that may schedule processes); this module
only reads.  Every probe is duck-typed attribute access — no imports
from the rest of the package — and strictly **observation-only**: a
sampled run's outcome is bit-identical to an unsampled one, which the
differential telemetry tests pin down.

Metrics sampled by :meth:`MetricsSampler.sample`:

* ``inflight_transfers`` (scope ``@all``) — transfers currently
  occupying links in the time-resolved engine;
* ``link_utilisation`` (scope = region shard, or ``@trunk``) — sum of
  currently allocated rates over the shard's materialised links divided
  by their total capacity: the per-region trunk-load signal;
* ``cache_used_bytes`` / ``cache_occupancy`` (scope ``@all``) — bytes
  resident across all device caches, and that as a fraction of total
  capacity;
* ``gossip_staleness`` (scope ``@all``) — ``1 - coverage``: the mean
  fraction of true replica holders *missing* from members' gossip
  views.  Coverage walks members × tracked digests, so on very large
  swarms prefer a long period (the cost is per *sample*, not per
  event).
"""

from __future__ import annotations

import csv
import io
from typing import Any, Dict, List, Optional, Tuple

#: Column order of the tidy rows (the CSV export prepends ``session``).
METRICS_SCHEMA = ("t_s", "metric", "scope", "value")

#: Scope label for swarm-wide (non-regional) series.
ALL_SCOPE = "@all"


class MetricsSampler:
    """Tidy time-series sink with engine/cache/gossip probes."""

    def __init__(self, period_s: float, label: str = "") -> None:
        if period_s <= 0:
            raise ValueError(f"period_s must be > 0, got {period_s}")
        self.period_s = period_s
        self.label = label
        self._rows: List[Tuple[float, str, str, float]] = []

    # -- recording ------------------------------------------------------
    def record(
        self, t_s: float, metric: str, scope: str, value: float
    ) -> None:
        self._rows.append((t_s, metric, scope, float(value)))

    def sample(
        self,
        t_s: float,
        engine: Any = None,
        caches: Optional[Dict[str, Any]] = None,
        discovery: Any = None,
        index: Any = None,
    ) -> None:
        """Take one snapshot of every probe whose subject is present."""
        if engine is not None:
            self.record(
                t_s, "inflight_transfers", ALL_SCOPE,
                len(engine.active_transfers),
            )
            rate_by_shard: Dict[str, float] = {}
            capacity_by_shard: Dict[str, float] = {}
            for link in engine.links():
                capacity_by_shard[link.shard] = (
                    capacity_by_shard.get(link.shard, 0.0)
                    + link.capacity_mbps
                )
                allocated = sum(
                    transfer.rate_mbps
                    for transfer in link.transfers.values()
                )
                rate_by_shard[link.shard] = (
                    rate_by_shard.get(link.shard, 0.0) + allocated
                )
            for shard in sorted(capacity_by_shard):
                self.record(
                    t_s, "link_utilisation", shard,
                    rate_by_shard[shard] / capacity_by_shard[shard],
                )
        if caches:
            used = sum(cache.used_bytes for cache in caches.values())
            capacity = sum(cache.capacity_bytes for cache in caches.values())
            self.record(t_s, "cache_used_bytes", ALL_SCOPE, used)
            if capacity > 0:
                self.record(
                    t_s, "cache_occupancy", ALL_SCOPE, used / capacity
                )
        if discovery is not None and index is not None:
            self.record(
                t_s, "gossip_staleness", ALL_SCOPE,
                1.0 - discovery.coverage(index),
            )

    # -- introspection / export ----------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> List[Dict[str, Any]]:
        """The tidy rows as dicts in :data:`METRICS_SCHEMA` order."""
        return [
            dict(zip(METRICS_SCHEMA, row)) for row in self._rows
        ]

    def series(self, metric: str, scope: str = ALL_SCOPE) -> List[
        Tuple[float, float]
    ]:
        """``(t_s, value)`` pairs of one metric/scope series."""
        return [
            (t, value)
            for t, name, s, value in self._rows
            if name == metric and s == scope
        ]


def merged_csv(samplers: List[MetricsSampler]) -> str:
    """CSV of any number of samplers (one session is the one-sampler
    case): a ``session`` column holding each sampler's label, then the
    :data:`METRICS_SCHEMA` columns."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(("session",) + METRICS_SCHEMA)
    for sampler in samplers:
        for row in sampler._rows:
            writer.writerow((sampler.label,) + row)
    return buffer.getvalue()
