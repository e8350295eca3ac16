"""Monitoring: the event log and metrics of Figure 1's monitor box.

"A monitoring system logs the service executions on the computing
devices" (Sec. III-F).  :class:`Monitor` collects timestamped events
(pod phase changes, pulls, stage barriers) and renders them as a
human-readable execution log — the simulated analogue of the paper's
``date``-stamped shell scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass(frozen=True)
class Event:
    """One timestamped log line."""

    t_s: float
    kind: str
    subject: str
    detail: str = ""


class Monitor:
    """Append-only event log."""

    def __init__(self) -> None:
        self._events: List[Event] = []

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
        return event

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
