"""Experiment E5 (extension): cloud–edge scheduling.

The paper's future work: extend the energy-aware Nash model to
schedule between cloud and edge.  This experiment adds a cloud VM to
the calibrated testbed (fast, hub-adjacent, behind a WAN, with a
configurable attributed static power) and sweeps that static power,
reporting when DEEP offloads which services and what it buys.
"""

from __future__ import annotations

from typing import List, Optional

from ..workloads.apps import both_applications
from ..workloads.cloud import cloud_offload_report
from ..workloads.testbed import Testbed, build_testbed
from .runner import ExperimentResult

DEFAULT_GRID = [1.0, 5.0, 10.0, 15.0, 25.0, 40.0]


def run(
    testbed: Optional[Testbed] = None,
    static_watts_grid: Optional[List[float]] = None,
) -> ExperimentResult:
    """Offload crossover sweep for both applications."""
    tb = testbed or build_testbed()
    grid = static_watts_grid or DEFAULT_GRID
    result = ExperimentResult(
        experiment_id="cloud",
        title="E5 (extension): cloud-edge offloading vs attributed static power",
        columns=[
            "application",
            "cloud_static_w",
            "cloud_share",
            "energy_j",
            "edge_only_j",
            "saving_j",
        ],
    )
    for app in both_applications(tb.calibration):
        points = cloud_offload_report(tb, app, static_watts_grid=grid)
        for point in points:
            result.add_row(
                application=app.name,
                cloud_static_w=point.cloud_static_watts,
                cloud_share=point.cloud_share,
                energy_j=point.total_energy_j,
                edge_only_j=point.edge_only_energy_j,
                saving_j=point.edge_only_energy_j - point.total_energy_j,
            )
        offloading = [p for p in points if p.offloads]
        if offloading:
            result.note(
                f"{app.name}: offloads up to "
                f"{max(p.cloud_share for p in points):.0%} of services "
                f"while cloud static power <= "
                f"{max(p.cloud_static_watts for p in offloading):.0f} W"
            )
        else:
            result.note(f"{app.name}: never offloads on this grid")
    return result
