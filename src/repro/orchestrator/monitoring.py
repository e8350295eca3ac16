"""Monitoring: the event log and metrics of Figure 1's monitor box.

"A monitoring system logs the service executions on the computing
devices" (Sec. III-F).  :class:`Monitor` collects timestamped events
(pod phase changes, pulls, stage barriers) and counter/gauge metrics,
and renders a human-readable execution log — the simulated analogue of
the paper's ``date``-stamped shell scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Event:
    """One timestamped log line."""

    t_s: float
    kind: str
    subject: str
    detail: str = ""


class Monitor:
    """Append-only event log plus simple counters and gauges."""

    def __init__(self) -> None:
        self._events: List[Event] = []
        # Per-kind index, maintained on append: events_of() is a hot
        # query in orchestration tests and dashboards, and the log can
        # hold one line per pod phase change on large runs.
        self._by_kind: Dict[str, List[Event]] = {}
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def log(self, t_s: float, kind: str, subject: str, detail: str = "") -> Event:
        if self._events and t_s < self._events[-1].t_s - 1e-9:
            raise ValueError(
                f"event at {t_s} precedes last event at {self._events[-1].t_s}"
            )
        event = Event(t_s=t_s, kind=kind, subject=subject, detail=detail)
        self._events.append(event)
        self._by_kind.setdefault(kind, []).append(event)
        return event

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def events_of(self, kind: str) -> List[Event]:
        """Events of one kind, in log (append) order — O(matches)."""
        return list(self._by_kind.get(kind, ()))

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def counters(self) -> Dict[str, float]:
        """All counters (e.g. ``bytes_pulled``, ``bytes_from.<registry>``)
        by name."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, limit: Optional[int] = None) -> str:
        """The execution log as text (most recent last)."""
        events = self._events if limit is None else self._events[-limit:]
        lines = [
            f"[{e.t_s:10.2f}s] {e.kind:<12} {e.subject:<24} {e.detail}"
            for e in events
        ]
        return "\n".join(lines)
