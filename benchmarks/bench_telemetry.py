"""Benchmark: telemetry overhead on the swarm-scale quick cell.

Measures what full observability (tracing + metrics + engine
profiling) costs on top of an untelemetered run of the
``p2p-swarm-scale`` preset, at a couple of swarm sizes.  The
acceptance bound itself lives in ``tests/telemetry/test_overhead.py``
(<= 25% on the 400-device quick cell); this script reports the actual
numbers per configuration so a creeping regression is visible as a
trend, not just as a test flip.

Run directly (``--quick`` keeps the smallest size only)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py [--quick]

Methodology matches the overhead test: off/on runs interleave, each
side keeps its minimum, and the cyclic GC is excluded from the timing
window (the retained trace events otherwise attract collector pauses
into the traced side).
"""

import argparse
import dataclasses
import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import scenarios  # noqa: E402
from repro.scenarios import TelemetrySpec  # noqa: E402

FULL = TelemetrySpec(trace=True, metrics_period_s=300.0, profile=True)

#: (label, TelemetrySpec) configurations reported per swarm size.
CONFIGS = (
    ("trace", TelemetrySpec(trace=True)),
    ("metrics", TelemetrySpec(metrics_period_s=300.0)),
    ("profile", TelemetrySpec(profile=True)),
    ("full", FULL),
)


def _cell(n_devices: int, n_regions: int):
    spec = scenarios.get("p2p-swarm-scale")
    return dataclasses.replace(
        spec,
        topology=dataclasses.replace(
            spec.topology, n_devices=n_devices, n_regions=n_regions
        ),
    )


def _timed_run(spec) -> float:
    gc.collect()
    t0 = time.perf_counter()
    scenarios.SimulationSession(spec).run()
    return time.perf_counter() - t0


def run_overhead_sweep(n_devices: int, n_regions: int, rounds: int):
    """Interleaved min-of-N wall times for every configuration."""
    base = _cell(n_devices, n_regions)
    specs = {"off": base}
    for label, telemetry in CONFIGS:
        specs[label] = dataclasses.replace(base, telemetry=telemetry)
    best = {label: float("inf") for label in specs}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            for label, spec in specs.items():
                best[label] = min(best[label], _timed_run(spec))
    finally:
        if gc_was_enabled:
            gc.enable()
    rows = []
    for label, _ in (("off", None),) + CONFIGS:
        rows.append({
            "devices": n_devices,
            "config": label,
            "wall_s": best[label],
            "ratio": best[label] / best["off"],
        })
    return rows


def check_overhead(rows) -> None:
    by_config = {row["config"]: row for row in rows}
    # The hard acceptance bound is pinned (with retries) by
    # tests/telemetry/test_overhead.py; here a loose 2x sanity rail
    # keeps the bench honest without making it flaky.
    assert by_config["full"]["ratio"] < 2.0, by_config["full"]
    # A traced run records real events (probes actually engaged).
    assert by_config["off"]["wall_s"] > 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="200 devices only, two rounds",
    )
    quick = parser.parse_args(argv).quick
    sizes = ((200, 8),) if quick else ((200, 8), (400, 10))
    rounds = 2 if quick else 5
    print("== telemetry overhead (p2p-swarm-scale quick cells) ==")
    print(f"{'devices':>8} {'config':>8} {'wall s':>8} {'ratio':>7}")
    for n_devices, n_regions in sizes:
        rows = run_overhead_sweep(n_devices, n_regions, rounds)
        for row in rows:
            print(
                f"{row['devices']:>8} {row['config']:>8} "
                f"{row['wall_s']:>8.3f} {row['ratio']:>7.3f}"
            )
        check_overhead(rows)
    print("telemetry bench OK: full-telemetry ratio within the sanity rail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
