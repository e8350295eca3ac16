"""End-to-end benchmark of the swarm simulator.

Four workloads, each one fixed batch: a scenario preset plus ``--set``
style overrides, run as a whole (neither an open nor a closed loop, so
throughput is reported at the stated input size).  Run from the
repository root::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR]

For each workload the script generates the scenario spec from the seed
(``--seed`` replaces the preset's seed, which drives the schedule,
churn, gossip and chunk tie-breaks; the default keeps the preset's)
and hands only that spec to ``worker.py``, in a fresh single-threaded
subprocess.  Workloads run one after another, never at the same time.
The worker builds and runs a fresh session of the spec again and again
until ``--seconds`` are used up; each host-cost metric is the median
over those sessions.  The simulated metrics (``sim_*``) come from one
extra session at the preset's own seed, so they read the same on every
run of a commit and move only when the model's results change.

``--trace 0`` (the default) reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced sessions and reports the
per-layer metrics of the traced ones and the tracing overhead;
``--trace-dir DIR`` also writes each workload's
spans as a Chrome trace-event file ``DIR/<workload>.json`` (opens in
Perfetto).

Every session's outcome is checked: no issued pull lost, complete cold
waves, no oversubscribed link, a coherent peer index, and the same
outcome digest in every session of the seed, traced or not.  The
script prints every metric by name with its unit, then one JSON result
line per workload, and exits 1 if any check failed or a worker
crashed.  ``README.md`` gives the
metrics' bounds and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from worker import LAYER_METRICS, SIM_METRICS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORKER = HERE / "worker.py"

#: How long a worker may run past its measuring time before it is killed.
WORKER_GRACE_S = 120.0

#: End-to-end metrics: (name, unit, which direction is better).
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("pulls_per_s", "pulls/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
) + tuple((name, unit, "lower") for name, unit in SIM_METRICS)


@dataclass(frozen=True)
class Workload:
    preset: str
    overrides: Dict[str, Any]
    #: Cold-wave schedules must finish every pull before the horizon.
    cold_wave: bool
    #: Replacement overrides for the harness tests' tiny sizes.
    tiny: Dict[str, Any]

    def spec(self, seed: Optional[int], tiny: bool = False):
        from repro import scenarios

        overrides = dict(self.overrides)
        if tiny:
            overrides.update(self.tiny)
        if seed is not None:
            overrides["seed"] = seed
        return scenarios.with_overrides(scenarios.get(self.preset), overrides)


#: The workloads; README.md says why each was chosen.
WORKLOADS: Dict[str, Workload] = {
    "wave-sharded": Workload(
        "p2p-swarm-100k",
        {
            "topology.n_devices": 2000,
            "topology.n_regions": 100,
            "workload.stagger_s": 0.05,
        },
        cold_wave=True,
        tiny={"topology.n_devices": 40, "topology.n_regions": 4},
    ),
    "chunked-contended": Workload(
        "p2p-chunked",
        {"topology.n_devices": 50},
        cold_wave=True,
        tiny={"topology.n_devices": 4},
    ),
    "gossip-churn": Workload(
        "p2p-gossip",
        {"topology.n_devices": 80, "topology.n_regions": 3},
        cold_wave=False,
        tiny={"topology.n_devices": 8},
    ),
    "zipf-analytic": Workload(
        "p2p",
        {"topology.n_devices": 3000, "topology.n_regions": 30},
        cold_wave=False,
        tiny={"topology.n_devices": 40, "topology.n_regions": 4},
    ),
}


class WorkerFailed(RuntimeError):
    """The worker subprocess crashed or overran."""


def run_worker(request: Dict[str, Any]) -> Dict[str, Any]:
    """Run ``worker.py`` on ``request`` and wait for its result."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    timeout_s = request["seconds"] + WORKER_GRACE_S
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(request),
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            timeout=timeout_s,
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker ran over {timeout_s:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker_request(
    name: str,
    spec,
    seconds: float,
    trace: bool,
    trace_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """The request ``worker.py`` reads: one workload's ``spec`` to measure."""
    from repro import scenarios

    workload = WORKLOADS[name]
    preset_seed = scenarios.get(workload.preset).seed
    request: Dict[str, Any] = {
        "spec": spec.to_dict(),
        "reference_spec": scenarios.with_overrides(
            spec, {"seed": preset_seed}
        ).to_dict(),
        "traced_spec": None,
        "cold_wave": workload.cold_wave,
        "seconds": seconds,
        "chrome_trace": None,
        "label": name,
    }
    if trace:
        # The engine self-profile feeds the virtual solve spans.
        request["traced_spec"] = scenarios.with_overrides(
            spec, {"telemetry.profile": True}
        ).to_dict()
        if trace_dir is not None:
            request["chrome_trace"] = str(trace_dir / f"{name}.json")
    return request


def summarise(name: str, spec, result: Dict[str, Any]) -> Dict[str, Any]:
    """Median metrics, pull accounting and checks over the sessions."""
    median = statistics.median
    reference, plain, traced = (
        result["reference"], result["plain"], result["traced"]
    )
    first = plain[0]
    sessions = plain + traced
    checks = sorted({
        check for run in [reference, *sessions] for check in run["checks"]
    })
    digests = sorted({run["digest"] for run in sessions})
    if len(digests) > 1:
        checks.append(
            f"outcome digest differs between sessions ({len(plain)} "
            f"untraced, {len(traced)} traced): {digests}"
        )
    e2e = {
        "setup_s": median(run["setup_s"] for run in plain),
        "pulls_per_s": median(run["pulls"] / run["run_s"] for run in plain),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    # The simulated outcome at the preset's seed is the same on every
    # run of a commit, whatever --seed is, so a change to the model's
    # results shows against a bound of float rounding.
    e2e.update(
        (metric, reference[metric]) for metric, _unit in SIM_METRICS
    )
    layers: Dict[str, float] = {}
    if traced:
        for metric, _unit in LAYER_METRICS:
            layers[metric] = median(run["layers"][metric] for run in traced)
        layers["trace.overhead_ratio"] = median(
            run["run_s"] for run in traced
        ) / median(run["run_s"] for run in plain)
    return {
        "workload": name,
        "spec": spec.to_dict(),
        "sessions": len(plain),
        "traced_sessions": len(traced),
        "e2e": e2e,
        "layers": layers,
        "pulls": {
            key: first[key]
            for key in ("scheduled", "pulls", "skipped", "unfinished")
        },
        "attempted": first["attempted"],
        "failed": first["failed"],
        "digest": digests[0],
        "reference_digest": reference["digest"],
        "checks": checks,
    }


def layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric ``--trace 1`` reports."""
    units = dict(LAYER_METRICS)
    units["trace.overhead_ratio"] = "ratio"
    return units


def result_line(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The machine-readable result: e2e metrics, or per-layer if traced."""
    if summary["traced_sessions"]:
        units = layer_units()
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in summary["layers"].items()
        }
    else:
        metrics = {
            name: {"value": summary["e2e"][name], "unit": unit}
            for name, unit, _better in E2E_METRICS
        }
    correct = not summary["checks"]
    attempted = max(1, summary["attempted"])
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": summary["failed"] if correct else attempted,
        "metrics": metrics,
    }


def failure_line(spec) -> Dict[str, Any]:
    """The result of a worker that crashed or overran: all pulls failed."""
    from repro.scenarios import build_swarm_scenario

    try:
        scheduled = len(build_swarm_scenario(spec).schedule)
    except Exception:  # the build may be what crashed the worker
        scheduled = 1
    attempted = max(1, scheduled)
    return {
        "correct": False,
        "attempted": attempted,
        "failed": attempted,
        "metrics": {},
    }


def report(summary: Dict[str, Any]) -> str:
    """Every metric by name, with its unit, as aligned text."""
    workload = WORKLOADS[summary["workload"]]
    spec = summary["spec"]
    lines = [
        f"== {summary['workload']}: preset {workload.preset}, "
        f"{spec['topology']['n_devices']} devices in "
        f"{spec['topology']['n_regions']} regions, seed {spec['seed']}; "
        f"{summary['sessions']} untraced "
        f"+ {summary['traced_sessions']} traced sessions",
    ]
    simulated = dict(SIM_METRICS)
    shown = E2E_METRICS
    if summary["traced_sessions"]:
        units = layer_units()
        for name, value in summary["layers"].items():
            lines.append(f"  {name:<32} {value:>16.6g} {units[name]}")
        shown = tuple(m for m in E2E_METRICS if m[0] in simulated)
    for name, unit, better in shown:
        note = " (simulated, preset seed)" if name in simulated else ""
        lines.append(
            f"  {name:<32} {summary['e2e'][name]:>16.10g} {unit:<8} "
            f"{better} is better{note}"
        )
    pulls = summary["pulls"]
    lines.append(
        f"  pulls: scheduled {pulls['scheduled']}, completed "
        f"{pulls['pulls']}, skipped by churn {pulls['skipped']}, "
        f"unfinished at horizon {pulls['unfinished']}; ops attempted "
        f"{summary['attempted']}, failed {summary['failed']}"
    )
    lines.append(f"  outcome sha256 {summary['digest']}")
    lines.append(
        f"  preset-seed outcome sha256 {summary['reference_digest']}"
    )
    if summary["checks"]:
        lines.extend(f"  CHECK FAILED: {check}" for check in summary["checks"])
    else:
        lines.append("  checks: ok")
    return "\n".join(lines)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the swarm simulator."
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all, in order)",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="scenario seed (default: each preset's own seed)",
    )
    # The benchmark contract passes BENCHMARK.json's run_seconds here.
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="measuring time per workload (at least one session)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: report per-layer metrics from traced sessions",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None,
        help="with --trace 1, write DIR/<workload>.json Chrome traces",
    )
    args = parser.parse_args(argv)
    if args.trace_dir is not None and not args.trace:
        parser.error("--trace-dir needs --trace 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"error: no repro sources at {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in args.workload or list(WORKLOADS):
        spec = WORKLOADS[name].spec(args.seed)
        request = worker_request(
            name, spec, args.seconds, bool(args.trace), args.trace_dir
        )
        try:
            summary = summarise(name, spec, run_worker(request))
        except WorkerFailed as exc:
            print(f"== {name}: {exc}", file=sys.stderr)
            print(json.dumps(failure_line(spec)), flush=True)
            status = 1
            continue
        line = result_line(summary)
        print(report(summary), flush=True)
        print(json.dumps(line), flush=True)
        if not line["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
