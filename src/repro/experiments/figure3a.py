"""Experiment E3: regenerate Figure 3a (energy per microservice).

Figure 3a plots the energy consumed by each microservice executed on
the edge device DEEP scheduled it to.  We run the DEEP plan through
the orchestrator and report per-service measured energy in kJ.  The
figure's qualitative claim — "HA and LA training microservices of both
applications consume more energy compared to other ones" — becomes the
experiment's acceptance check.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.scheduler import DeepScheduler
from ..model.units import j_to_kj
from ..orchestrator.controller import ExecutionMode
from ..workloads.apps import both_applications
from ..workloads.testbed import Testbed, build_testbed
from .runner import ExperimentResult, deploy_and_run


def run(testbed: Optional[Testbed] = None) -> ExperimentResult:
    """Per-microservice energy under the DEEP schedule (Fig. 3a)."""
    tb = testbed or build_testbed()
    result = ExperimentResult(
        experiment_id="fig3a",
        title="Figure 3a: energy per microservice under DEEP [kJ]",
        columns=[
            "application",
            "service",
            "device",
            "registry",
            "energy_kj",
            "is_training",
        ],
    )
    trainings_dominate = True
    for app in both_applications(tb.calibration):
        schedule = DeepScheduler().schedule(app, tb.env)
        report = deploy_and_run(
            tb, app, schedule.plan, mode=ExecutionMode.SEQUENTIAL
        )
        energies: Dict[str, float] = {}
        for record in report.records:
            energies[record.service] = record.energy_j
            result.add_row(
                application=app.name,
                service=record.service,
                device=record.device,
                registry=record.registry,
                energy_kj=j_to_kj(record.energy_j),
                is_training="train" in record.service,
            )
        max_train = max(
            v for k, v in energies.items() if "train" in k
        )
        max_other = max(
            v for k, v in energies.items() if "train" not in k
        )
        if max_train <= max_other:
            trainings_dominate = False
    result.note(
        "training microservices dominate per-service energy: "
        + ("yes (matches the paper's Fig. 3a reading)" if trainings_dominate else "NO")
    )
    return result
