"""Deployment objects: the orchestrator's Kubernetes-flavoured nouns.

The paper couples DEEP "loosely … with Docker registries and an
orchestrator, such as the open-source Kubernetes" (Sec. III-F).  Our
stand-in models the part the evaluation needs: a *pod* per microservice
execution, with an image reference, a pinned node, a pull policy, and a
phase lifecycle that the monitoring component logs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..registry.base import ImageReference


class PodPhase(enum.Enum):
    """Lifecycle of one pod (subset of Kubernetes' phases + pulling)."""

    PENDING = "pending"
    PULLING = "pulling"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


_VALID_TRANSITIONS = {
    PodPhase.PENDING: {PodPhase.PULLING, PodPhase.FAILED},
    PodPhase.PULLING: {PodPhase.RUNNING, PodPhase.FAILED},
    PodPhase.RUNNING: {PodPhase.SUCCEEDED, PodPhase.FAILED},
    PodPhase.SUCCEEDED: set(),
    PodPhase.FAILED: set(),
}


@dataclass
class Pod:
    """One scheduled microservice execution.

    Attributes
    ----------
    name:
        Pod name (``<app>-<service>``).
    service:
        Microservice name this pod runs.
    image:
        Registry reference to pull.
    registry:
        Registry name serving the image.
    node:
        Device the pod is pinned to (DEEP schedules, the orchestrator
        obeys — like a pod with a fixed ``nodeName``).
    """

    name: str
    service: str
    image: ImageReference
    registry: str
    node: str
    phase: PodPhase = PodPhase.PENDING
    transitions: List[Tuple[float, PodPhase]] = field(default_factory=list)
    failure_reason: Optional[str] = None

    def transition(self, now_s: float, phase: PodPhase, reason: str = "") -> None:
        """Move to ``phase``; invalid transitions raise."""
        if phase not in _VALID_TRANSITIONS[self.phase]:
            raise ValueError(
                f"pod {self.name!r}: illegal transition "
                f"{self.phase.value} -> {phase.value}"
            )
        self.phase = phase
        self.transitions.append((now_s, phase))
        if phase is PodPhase.FAILED:
            self.failure_reason = reason or "unknown"
