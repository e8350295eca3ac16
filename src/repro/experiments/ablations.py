"""Ablations A1–A4: probing the design choices behind DEEP's numbers.

* **A1 bandwidth sweep** — scale the regional registry's bandwidth and
  watch the hybrid split and the savings move: where does exclusive-
  regional overtake exclusive-hub, and how does DEEP track the winner?
* **A2 cache & layer dedup** — warm-cache re-deployments and the
  layered pull policy vs the paper's whole-image model: how many bytes
  does content addressing save on the real image structure?
* **A3 solver choice** — do the four Nash solvers agree on the plan,
  and what do their equilibrium counts look like?
* **A4 scaling** — synthetic DAGs × fleets: DEEP vs greedy energy gap
  and plan agreement at sizes the paper never measured.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.baselines import FixedRegistryScheduler, GreedyEnergyScheduler
from ..core.scheduler import DeepScheduler, NashSolver
from ..orchestrator.controller import ExecutionMode
from ..registry.client import PullPolicy
from ..sim.rng import default_registry
from ..workloads.apps import both_applications, video_processing
from ..workloads.calibration import CalibrationConfig, calibrate
from ..workloads.synthetic import (
    SyntheticConfig,
    synthetic_application,
    synthetic_environment,
)
from ..workloads.testbed import HUB_NAME, REGIONAL_NAME, Testbed, build_testbed
from .runner import ExperimentResult, deploy_and_run, make_cluster


def bandwidth_sweep(
    multipliers: Optional[List[float]] = None,
) -> ExperimentResult:
    """A1: regional bandwidth multiplier vs energy and regional share."""
    factors = multipliers or [0.6, 0.8, 0.9, 1.0, 1.1, 1.3, 1.6]
    result = ExperimentResult(
        experiment_id="ablation-bandwidth",
        title="A1: regional-registry bandwidth sweep (text processing)",
        columns=[
            "bw_multiplier",
            "deep_j",
            "hub_j",
            "regional_j",
            "deep_regional_share",
            "winner",
        ],
    )
    for factor in factors:
        base = CalibrationConfig()
        cfg = CalibrationConfig(
            regional_bw_mbps={
                d: bw * factor for d, bw in base.regional_bw_mbps.items()
            }
        )
        tb = build_testbed(calibrate(cfg))
        _, text = both_applications(tb.calibration)
        energies: Dict[str, float] = {}
        share = 0.0
        for scheduler in (
            DeepScheduler(),
            FixedRegistryScheduler(HUB_NAME),
            FixedRegistryScheduler(REGIONAL_NAME),
        ):
            schedule = scheduler.schedule(text, tb.env)
            energies[scheduler.name] = schedule.total_energy_j
            if scheduler.name == "deep":
                share = schedule.plan.registry_share(REGIONAL_NAME)
        hub_j = energies[f"exclusively-{HUB_NAME}"]
        regional_j = energies[f"exclusively-{REGIONAL_NAME}"]
        result.add_row(
            bw_multiplier=factor,
            deep_j=energies["deep"],
            hub_j=hub_j,
            regional_j=regional_j,
            deep_regional_share=share,
            winner="regional" if regional_j < hub_j else "hub",
        )
    result.note(
        "DEEP's regional share should rise with regional bandwidth and "
        "its energy should track min(hub, regional) throughout."
    )
    return result


def cache_and_dedup(testbed: Optional[Testbed] = None) -> ExperimentResult:
    """A2: warm-cache redeployment and layered-pull byte savings."""
    tb = testbed or build_testbed()
    app = video_processing(tb.calibration)
    plan = DeepScheduler().schedule(app, tb.env).plan
    result = ExperimentResult(
        experiment_id="ablation-cache",
        title="A2: image cache and layer dedup (video processing)",
        columns=["scenario", "bytes_pulled_gb", "energy_j", "makespan_s"],
    )

    # Cold then warm on the same cluster (paper model: whole image).
    cluster = make_cluster(tb, PullPolicy.WHOLE_IMAGE)
    from ..orchestrator.controller import ApplicationController

    controller = ApplicationController(cluster)
    cold = controller.execute(app, plan, tb.references)
    warm = controller.execute(app, plan, tb.references)
    for label, report in (("whole-image cold", cold), ("whole-image warm", warm)):
        pulled = sum(r.pull.bytes_transferred for r in report.records)
        result.add_row(
            scenario=label,
            bytes_pulled_gb=pulled / 1e9,
            energy_j=report.total_energy_j,
            makespan_s=report.makespan_s,
        )

    # Layered cold: shared base layers are transferred once per device.
    layered = deploy_and_run(
        tb, app, plan, mode=ExecutionMode.SEQUENTIAL,
        pull_policy=PullPolicy.LAYERED,
    )
    pulled = sum(r.pull.bytes_transferred for r in layered.records)
    result.add_row(
        scenario="layered cold",
        bytes_pulled_gb=pulled / 1e9,
        energy_j=layered.total_energy_j,
        makespan_s=layered.makespan_s,
    )
    cold_pulled = sum(r.pull.bytes_transferred for r in cold.records)
    result.note(
        f"layer dedup saves "
        f"{(cold_pulled - pulled) / 1e9:.2f} GB of the "
        f"{cold_pulled / 1e9:.2f} GB whole-image cold traffic; warm "
        f"redeployment pulls nothing."
    )
    return result


def solver_comparison(testbed: Optional[Testbed] = None) -> ExperimentResult:
    """A3: do all Nash solvers produce the same deployment?"""
    tb = testbed or build_testbed()
    result = ExperimentResult(
        experiment_id="ablation-solver",
        title="A3: Nash solver choice",
        columns=["application", "solver", "energy_j", "plan_equals_support"],
    )
    for app in both_applications(tb.calibration):
        reference = DeepScheduler(NashSolver.SUPPORT_ENUMERATION).schedule(
            app, tb.env
        )
        ref_assignments = {
            a.service: (a.registry, a.device) for a in reference.plan
        }
        for solver in NashSolver:
            schedule = DeepScheduler(solver).schedule(app, tb.env)
            same = {
                a.service: (a.registry, a.device) for a in schedule.plan
            } == ref_assignments
            result.add_row(
                application=app.name,
                solver=solver.value,
                energy_j=schedule.total_energy_j,
                plan_equals_support=same,
            )
    return result


def scaling(
    sizes: Optional[List[int]] = None,
) -> ExperimentResult:
    """A4: DEEP vs greedy on synthetic instances."""
    dims = sizes or [2, 4, 6, 8]
    rng = default_registry()
    result = ExperimentResult(
        experiment_id="ablation-scale",
        title="A4: scaling on synthetic DAGs / fleets",
        columns=[
            "devices",
            "services",
            "deep_j",
            "greedy_j",
            "deep_within_greedy",
        ],
    )
    for n_devices in dims:
        env = synthetic_environment(n_devices, rng)
        app = synthetic_application(
            f"synthetic-{n_devices}",
            SyntheticConfig(layers=4, width=max(2, n_devices // 2)),
            rng,
        )
        deep = DeepScheduler().schedule(app, env)
        greedy = GreedyEnergyScheduler().schedule(app, env)
        result.add_row(
            devices=n_devices,
            services=len(app),
            deep_j=deep.total_energy_j,
            greedy_j=greedy.total_energy_j,
            # DEEP pays at most its penalty-induced detours over greedy.
            deep_within_greedy=deep.total_energy_j <= greedy.total_energy_j * 1.05,
        )
    result.note(
        "greedy is the cooperative optimum of DEEP's game; DEEP should "
        "stay within its penalty margin of greedy at every size."
    )
    return result


def run(testbed: Testbed) -> List[ExperimentResult]:
    """A1–A4 in order.  A1 and A4 build their own instances and A2 a
    fresh testbed; only A3 runs on ``testbed``."""
    return [
        bandwidth_sweep(),
        cache_and_dedup(),
        solver_comparison(testbed),
        scaling(),
    ]
