"""Experiment plumbing: result structures, rendering, and rollout glue.

Every experiment module returns an :class:`ExperimentResult` — a typed
table with an id tying it back to the paper (``table2``, ``fig3b``, …)
— so the CLI, the pytest suite, and EXPERIMENTS.md all consume the same
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from ..core.placement import PlacementPlan
from ..model.application import Application
from ..orchestrator.cluster import Cluster
from ..orchestrator.controller import (
    ApplicationController,
    ExecutionMode,
    ExecutionReport,
)
from ..registry.client import PullPolicy
from ..workloads.testbed import Testbed


def _json_safe(value: Any) -> Any:
    """Coerce row cells (numpy scalars, bools, strs) to JSON types."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    for caster in (int, float):
        try:
            cast = caster(value)
        except (TypeError, ValueError):
            continue
        if cast == value:
            return cast
    return str(value)


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"row missing columns {missing}")
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict (the CLI's ``--json`` payload)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [
                {key: _json_safe(value) for key, value in row.items()}
                for row in self.rows
            ],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        """Render as an aligned text table (the CLI output)."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        headers = list(self.columns)
        body = [[fmt(row[c]) for c in headers] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [
            f"== {self.title} ({self.experiment_id}) ==",
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            sep,
        ]
        lines += [
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in body
        ]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def make_cluster(
    testbed: Testbed,
    pull_policy: PullPolicy = PullPolicy.WHOLE_IMAGE,
) -> Cluster:
    """A fresh cluster wired to the testbed's devices and registries."""
    cluster = Cluster(pull_policy=pull_policy, intensity=testbed.env.intensity)
    for device in testbed.devices():
        cluster.register_node(device, testbed.network)
    for registry in testbed.registries():
        cluster.register_registry(registry)
    return cluster


def deploy_and_run(
    testbed: Testbed,
    app: Application,
    plan: PlacementPlan,
    mode: ExecutionMode = ExecutionMode.SEQUENTIAL,
    pull_policy: PullPolicy = PullPolicy.WHOLE_IMAGE,
) -> ExecutionReport:
    """Execute ``plan`` on a fresh cluster (cold caches, t = 0)."""
    cluster = make_cluster(testbed, pull_policy)
    controller = ApplicationController(cluster)
    return controller.execute(app, plan, testbed.references, mode=mode)
