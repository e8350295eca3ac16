"""repro — reproduction of *DEEP: Edge-based Dataflow Processing with
Hybrid Docker Hub and Regional Registries* (IPPS 2025).

The package is layered bottom-up:

* :mod:`repro.model` — the paper's formal models (Sec. III);
* :mod:`repro.sim` — deterministic discrete-event simulation kernel;
* :mod:`repro.registry` — Docker Hub + MinIO-backed regional registry;
* :mod:`repro.devices` / :mod:`repro.energy` — the two-device testbed
  and its energy meters (pyRAPL / wall-plug stand-ins);
* :mod:`repro.game` — Nash solvers (the Nashpy replacement);
* :mod:`repro.core` — DEEP's scheduler and baselines;
* :mod:`repro.orchestrator` — Kubernetes-flavoured rollout;
* :mod:`repro.workloads` — Table II data, calibration, the case-study
  DAGs, and the wired testbed;
* :mod:`repro.experiments` — regeneration of every table and figure.

Quickstart::

    from repro.workloads import build_testbed, video_processing
    from repro.core import DeepScheduler

    tb = build_testbed()
    app = video_processing(tb.calibration)
    result = DeepScheduler().schedule(app, tb.env)
    print(result.plan.distribution_percent())
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
