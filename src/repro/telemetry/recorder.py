"""Structured, sim-time-stamped trace recording and export.

:class:`TraceRecorder` is the sink every instrumented component writes
to: the transfer engine (transfer lifecycle + fair-share reallocations),
gossip rounds, churn transitions, replicator cycles, and the chunked
endgame.  Components hold an ``Optional[TraceRecorder]`` and guard each
hook with ``if trace is not None`` — this module deliberately imports
nothing from the rest of the package, so instrumentation can never
create an import cycle.

Two exporters, each merging any number of recorders (one session is
the one-recorder case; :meth:`~repro.telemetry.TelemetryCapture.write`
puts both in the telemetry directory):

* :func:`merged_jsonl` — one event per line, ``{"t_s", "kind",
  "device", ...detail}`` plus the recorder's ``session`` label, the
  machine-readable archive format;
* :func:`chrome_trace` — ``{"traceEvents": [...]}``, loadable in
  Perfetto / ``chrome://tracing``: each device is a *process*, each
  transfer source a *track* (thread) inside its destination device, and
  matched ``transfer.start``/``transfer.finish|cancel`` pairs become
  complete ("X") spans.  Everything else renders as instant ("i")
  events.

Timestamps are **simulated seconds** throughout (microseconds in the
Chrome export, per the trace-event spec).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: Trace kinds whose start/end pair renders as a Chrome "X" span,
#: matched on ``detail["id"]``.
SPAN_START = "transfer.start"
SPAN_ENDS = ("transfer.finish", "transfer.cancel")

#: The synthetic Chrome process carrying device-less events (engine
#: reallocations, gossip rounds, replicator cycles).
_SIM_PROCESS = "@sim"


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record on the simulated clock.

    The recorder stores plain tuples on the hot path and materialises
    these objects lazily at read time, so event construction cost never
    lands inside the simulated run — part of the tracing overhead
    budget the overhead test pins.
    """

    t_s: float
    kind: str
    device: str
    detail: Mapping[str, Any] = field(default_factory=dict)


def _json_obj(row: Tuple[float, str, str, Dict[str, Any]]) -> Dict[str, Any]:
    data: Dict[str, Any] = {"t_s": row[0], "kind": row[1], "device": row[2]}
    data.update(row[3])
    return data


class TraceRecorder:
    """Append-only sink of trace records.

    ``label`` names the session the recorder belongs to; merged
    multi-session exports (see :mod:`repro.telemetry.capture`) prefix
    Chrome process names with it so sessions stay distinguishable.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        # (t_s, kind, device, detail) — a tuple append is the whole
        # per-event hot-path cost; TraceEvent wrappers are built lazily.
        self._raw: List[Tuple[float, str, str, Dict[str, Any]]] = []

    # -- recording ------------------------------------------------------
    def record(
        self, t_s: float, kind: str, device: str = "", **detail: Any
    ) -> None:
        """Append one event; ``detail`` must be JSON-safe."""
        self._raw.append((t_s, kind, device, detail))

    # -- introspection --------------------------------------------------
    def __len__(self) -> int:
        return len(self._raw)

    @property
    def events(self) -> List[TraceEvent]:
        return [TraceEvent(*row) for row in self._raw]


def chrome_trace(recorders: Sequence[TraceRecorder]) -> Dict[str, Any]:
    """Merge recorders into one Chrome trace-event JSON document.

    Mapping: each device of each recorder becomes a *process* (pid),
    named ``label/device`` when the recorder carries a label.  Inside a
    device, each transfer *source* becomes a thread (tid) — transfers
    from one seeder to one destination share a track, which is exactly
    the per-link view the engine schedules.  ``transfer.start`` events
    matched (by ``id``) with a ``transfer.finish`` / ``transfer.cancel``
    become complete "X" spans; unmatched starts close at the trace's
    last timestamp.  All other kinds render as instant "i" events on
    the device process (or the per-recorder ``@sim`` process for
    device-less records).  ``ts``/``dur`` are microseconds.
    """
    trace_events: List[Dict[str, Any]] = []
    pid_of: Dict[Tuple[str, str], int] = {}
    tid_of: Dict[Tuple[int, str], int] = {}

    def pid(label: str, device: str) -> int:
        key = (label, device or _SIM_PROCESS)
        if key not in pid_of:
            pid_of[key] = len(pid_of) + 1
            name = key[1] if not label else f"{label}/{key[1]}"
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid_of[key],
                "tid": 0, "args": {"name": name},
            })
        return pid_of[key]

    def tid(process: int, track: str) -> int:
        key = (process, track)
        if key not in tid_of:
            tid_of[key] = len([k for k in tid_of if k[0] == process]) + 1
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": process,
                "tid": tid_of[key], "args": {"name": track},
            })
        return tid_of[key]

    for recorder in recorders:
        events = recorder.events
        horizon_us = max((e.t_s for e in events), default=0.0) * 1e6
        open_spans: Dict[Any, Tuple[TraceEvent, Dict[str, Any]]] = {}
        for event in events:
            detail = dict(event.detail)
            if event.kind == SPAN_START:
                process = pid(recorder.label, event.device)
                track = str(detail.get("src", ""))
                span = {
                    "name": f"{track}->{event.device}",
                    "cat": "transfer",
                    "ph": "X",
                    "ts": event.t_s * 1e6,
                    "dur": 0.0,
                    "pid": process,
                    "tid": tid(process, track or "transfer"),
                    "args": detail,
                }
                trace_events.append(span)
                if "id" in detail:
                    open_spans[detail["id"]] = (event, span)
            elif event.kind in SPAN_ENDS:
                opened = open_spans.pop(detail.get("id"), None)
                if opened is not None:
                    start, span = opened
                    span["dur"] = (event.t_s - start.t_s) * 1e6
                    span["args"].update(detail)
                    if event.kind == "transfer.cancel":
                        span["args"]["cancelled"] = True
                else:
                    # An end without a recorded start (e.g. tracing was
                    # attached mid-run): keep it visible as an instant.
                    process = pid(recorder.label, event.device)
                    trace_events.append({
                        "name": event.kind, "cat": "transfer", "ph": "i",
                        "ts": event.t_s * 1e6, "pid": process, "tid": 0,
                        "s": "t", "args": detail,
                    })
            else:
                process = pid(recorder.label, event.device)
                trace_events.append({
                    "name": event.kind,
                    "cat": event.kind.split(".", 1)[0],
                    "ph": "i",
                    "ts": event.t_s * 1e6,
                    "pid": process,
                    "tid": 0,
                    "s": "t" if event.device else "g",
                    "args": detail,
                })
        # Spans the run's horizon cut off: close them at the last
        # timestamp so the viewer still shows the occupied track.
        for start, span in open_spans.values():
            span["dur"] = max(0.0, horizon_us - start.t_s * 1e6)
            span["args"]["unfinished"] = True
    return {"traceEvents": trace_events}


def merged_jsonl(recorders: Sequence[TraceRecorder]) -> str:
    """JSONL of several recorders, one newline-terminated line per
    event; each line carries its ``session`` label when the recorder
    has one."""
    lines: List[str] = []
    for recorder in recorders:
        for row in recorder._raw:
            obj = _json_obj(row)
            if recorder.label:
                obj["session"] = recorder.label
            lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines)
