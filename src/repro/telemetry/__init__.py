"""Opt-in observability: traces, time-series metrics, self-profiling.

The unified telemetry layer of the swarm stack.  Three sinks:

* :class:`TraceRecorder` — structured sim-time span/event records from
  the transfer engine, gossip, churn, the replicator, and the chunked
  endgame; exported as JSONL (:func:`merged_jsonl`) and Chrome
  trace-event JSON (:func:`chrome_trace`, Perfetto-viewable);
* :class:`MetricsSampler` — periodic tidy ``(t_s, metric, scope,
  value)`` rows: inflight transfers, per-region link utilisation,
  cache occupancy, gossip view staleness;
* :class:`EngineProfile` — wall-clock and work counters inside the
  transfer engine (per-recompute ns, dirty-closure size histogram,
  deadline-heap push/pop/invalidation counts).

Everything hangs off the ``telemetry`` section of a
:class:`~repro.scenarios.spec.ScenarioSpec` (default fully off —
bit-identical outcomes, enforced by differential tests) or off a
process-wide :class:`TelemetryCapture`, which turns every sink on for
every session assembled under it without touching any spec and writes
them all into one directory (the CLI's ``--telemetry-dir DIR``).

This package imports nothing from the rest of :mod:`repro`:
instrumented modules hold duck-typed ``Optional`` sinks, and only
:mod:`repro.scenarios.session` and :mod:`repro.cli` construct the
concrete classes — so the observability layer can never create an
import cycle or perturb what it observes.  See ``README.md`` here for
the record schema and the Chrome-trace mapping.
"""

from .capture import (
    DEFAULT_METRICS_PERIOD_S,
    TelemetryCapture,
    active_capture,
)
from .metrics import ALL_SCOPE, METRICS_SCHEMA, MetricsSampler, merged_csv
from .profile import DEADLINE_HEAP, EngineProfile
from .recorder import (
    TraceEvent,
    TraceRecorder,
    chrome_trace,
    merged_jsonl,
)

__all__ = [
    "ALL_SCOPE",
    "DEADLINE_HEAP",
    "DEFAULT_METRICS_PERIOD_S",
    "EngineProfile",
    "METRICS_SCHEMA",
    "MetricsSampler",
    "TelemetryCapture",
    "TraceEvent",
    "TraceRecorder",
    "active_capture",
    "chrome_trace",
    "merged_csv",
    "merged_jsonl",
]
