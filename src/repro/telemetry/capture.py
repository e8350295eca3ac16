"""Process-wide telemetry capture and its one artifact writer.

The experiment entry points (``repro p2p`` …) build their
:class:`~repro.scenarios.session.SimulationSession` objects internally
from default specs, so observing them cannot go through
``TelemetrySpec``.  :class:`TelemetryCapture` is the side channel: the
CLI's ``--telemetry-dir DIR`` activates one (``with
TelemetryCapture():``), and every session assembled while it is active
checks :func:`active_capture`, turns all three sinks on without
touching its spec, and registers them under a stable per-session
label (``s0``, ``s1``, …).  :meth:`TelemetryCapture.write` then puts
every session into one directory::

    trace.json    Chrome trace-event JSON, session-prefixed processes
    trace.jsonl   one event per line, with a ``session`` field
    metrics.csv   session,t_s,metric,scope,value
    profile.json  {session: engine profile summary}

Captures are observation-only like the rest of the package, so running
under one changes no outcome (pinned by the differential tests).
Nesting is rejected — two active captures would silently split the
registry.
"""

from __future__ import annotations

import json
import os
from typing import Any, List, Optional, Tuple

from .metrics import MetricsSampler, merged_csv
from .profile import EngineProfile
from .recorder import TraceRecorder, chrome_trace, merged_jsonl

#: Metrics sampling period of a captured session whose spec sets no
#: ``telemetry.metrics_period_s`` of its own.
DEFAULT_METRICS_PERIOD_S = 60.0

_ACTIVE: Optional["TelemetryCapture"] = None


def active_capture() -> Optional["TelemetryCapture"]:
    """The capture currently in scope, if any (sessions check this)."""
    return _ACTIVE


class TelemetryCapture:
    """One ``with``-scoped collection window over session telemetry."""

    def __init__(self) -> None:
        self.traces: List[TraceRecorder] = []
        self.samplers: List[MetricsSampler] = []
        self.profiles: List[Tuple[str, EngineProfile]] = []
        self._labels = 0

    # -- activation -----------------------------------------------------
    def __enter__(self) -> "TelemetryCapture":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a TelemetryCapture is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _ACTIVE
        _ACTIVE = None

    # -- session registration ------------------------------------------
    def next_label(self) -> str:
        label = f"s{self._labels}"
        self._labels += 1
        return label

    def adopt(
        self,
        trace: Optional[TraceRecorder],
        sampler: Optional[MetricsSampler],
        profile: Optional[EngineProfile],
        label: str,
    ) -> None:
        """Register one session's live recorders under its label."""
        if trace is not None:
            self.traces.append(trace)
        if sampler is not None:
            self.samplers.append(sampler)
        if profile is not None:
            self.profiles.append((label, profile))

    # -- the artifact directory -----------------------------------------
    def write(self, directory) -> None:
        """Write the four telemetry files into ``directory`` (created
        when missing), each merging every adopted session."""
        profiles = {label: prof.summary() for label, prof in self.profiles}
        files = {
            "trace.json": json.dumps(
                chrome_trace(self.traces), sort_keys=True
            ) + "\n",
            "trace.jsonl": merged_jsonl(self.traces),
            "metrics.csv": merged_csv(self.samplers),
            "profile.json": json.dumps(
                profiles, indent=2, sort_keys=True
            ) + "\n",
        }
        os.makedirs(directory, exist_ok=True)
        for name, text in files.items():
            path = os.path.join(directory, name)
            with open(path, "w", newline="") as handle:
                handle.write(text)
