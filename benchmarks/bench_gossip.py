"""Gossip-discovery benchmarks: fanout/period × churn sweeps.

Run directly for the discovery-realism sweep (``--quick`` shrinks it
to a 10-device swarm for the CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_gossip.py [--quick]

The grids are **sweep declarations** — one :class:`repro.sweep.SweepSpec`
whose variants cover the hybrid / omniscient / gossip comparison cells,
executed by :func:`repro.sweep.run_sweep` (worker pool, content-
addressed cell cache) — and the comparison rows are derived from the
sweep's tidy aggregate:

* **fanout × period grid** at a fixed churn rate — how much anti-
  entropy budget the views need before the swarm stops leaving peer
  bytes on the table;
* **churn-rate sweep** at fixed gossip parameters — how view staleness
  (metered as stale-miss fallbacks) grows with membership volatility,
  the axis the omniscient model hides entirely (it meters zero misses
  at any churn rate);
* **scale run** to 1000 devices (full mode only) — the anti-entropy
  loop must sustain four-digit swarms.

``--quick`` also re-runs the grid through a 2-process pool against a
fresh cache and asserts the parallel aggregate is byte-identical to
the serial one.  A full run's throughput lands in ``BENCH_sweep.json``
(:func:`repro.sweep.write_bench_record`).
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _p in (str(_HERE.parent / "src"), str(_HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from dataclasses import asdict, replace  # noqa: E402

from bench_p2p import _scenario_spec  # noqa: E402 - shared scaling rule
from repro.model.units import BYTES_PER_GB  # noqa: E402
from repro.scenarios import ChurnSpec  # noqa: E402
from repro.sweep import SweepSpec, run_sweep, write_bench_record  # noqa: E402

#: Churn regimes swept (label, spec).  min_online is scaled down for
#: --quick swarms in ``_churn_for``.
CHURN_RATES = (
    ("none", None),
    ("moderate", ChurnSpec(mean_uptime_s=1500.0, mean_downtime_s=300.0,
                           min_online=8)),
    ("heavy", ChurnSpec(mean_uptime_s=500.0, mean_downtime_s=300.0,
                        min_online=8)),
)

FANOUTS = (1, 2, 4)
PERIODS_S = (30.0, 120.0, 480.0)


def _churn_for(spec, n_devices: int):
    if spec is None:
        return None
    return replace(
        spec, min_online=min(spec.min_online, max(2, n_devices // 3))
    )


def _churn_value(spec, n_devices: int) -> dict:
    """The churn overrides a variant bundle carries.

    ``churn.<field>`` paths materialise a churn section on the
    churn-free base; ``churn=None`` keeps it churn-free.
    """
    scaled = _churn_for(spec, n_devices)
    if scaled is None:
        return {"churn": None}
    return {f"churn.{name}": value for name, value in asdict(scaled).items()}


def _gossip_bundle(churn: dict, fanout: int, period_s: float) -> dict:
    return dict(churn, **{
        "discovery.backend": "gossip",
        "discovery.gossip_fanout": fanout,
        "discovery.gossip_period_s": period_s,
    })


def realism_sweep(
    n_devices: int,
    grid: bool = True,
    churn_rates=CHURN_RATES,
    fanout: int = 2,
    period_s: float = 60.0,
) -> SweepSpec:
    """The discovery-realism matrix as one declarative sweep.

    Per churn regime: a ``hybrid`` baseline (no peer tier), an
    omniscient ``hybrid+p2p`` run, and one gossip run at the reference
    (fanout, period).  With ``grid=True`` the moderate-churn regime
    additionally gets every ``FANOUTS × PERIODS_S`` gossip cell.  The
    hybrid/omniscient baselines are *shared* between the grid and the
    churn sweep — the content-addressed cells make reuse free.
    """
    variants = {}
    for label, churn in churn_rates:
        value = _churn_value(churn, n_devices)
        variants[f"{label}/hybrid"] = dict(value, mode="hybrid")
        variants[f"{label}/omniscient"] = dict(value)
        variants[f"{label}/gossip-f{fanout}-p{period_s:g}"] = (
            _gossip_bundle(value, fanout, period_s)
        )
    if grid:
        moderate = _churn_value(dict(churn_rates)["moderate"], n_devices)
        for grid_fanout in FANOUTS:
            for grid_period in PERIODS_S:
                variants[f"moderate/gossip-f{grid_fanout}-p{grid_period:g}"] = (
                    _gossip_bundle(moderate, grid_fanout, grid_period)
                )
    base = _scenario_spec(n_devices)
    return SweepSpec(
        name=f"gossip-realism-{n_devices}",
        description=(
            "hybrid / omniscient / gossip origin traffic per churn "
            "regime, plus the fanout × period grid under moderate churn"
        ),
        base=base,
        variants=variants,
        seeds=(base.seed,),
    )


def _derive(by_variant: dict, n_devices: int, label: str,
            fanout: int, period_s: float) -> dict:
    """One comparison row (the bench's historical row shape) from the
    sweep aggregate's hybrid / omniscient / gossip variant rows."""
    hybrid = by_variant[f"{label}/hybrid"]
    omni = by_variant[f"{label}/omniscient"]
    gossip = by_variant[f"{label}/gossip-f{fanout}-p{period_s:g}"]
    origin = hybrid["origin_bytes"]
    return dict(
        churned=label != "none",
        churn=label,
        devices=n_devices,
        fanout=fanout,
        period_s=period_s,
        pulls=gossip["pulls"],
        skipped=gossip["skipped_pulls"],
        omni_saved_pct=100.0 * (origin - omni["origin_bytes"]) / origin,
        gossip_saved_pct=100.0 * (origin - gossip["origin_bytes"]) / origin,
        gap_gb=(gossip["origin_bytes"] - omni["origin_bytes"])
        / BYTES_PER_GB,
        stale_misses=gossip["stale_peer_misses"],
        omni_stale=omni["stale_peer_misses"],
        rounds=gossip["gossip_rounds"],
        departures=gossip["departures"],
    )


def derive_rows(result, n_devices: int, grid: bool = True,
                churn_rates=CHURN_RATES,
                fanout: int = 2, period_s: float = 60.0):
    """(grid_rows, churn_rows) derived from one realism-sweep result."""
    by_variant = {row["variant"]: row for row in result.rows}
    grid_rows = []
    if grid:
        for grid_fanout in FANOUTS:
            for grid_period in PERIODS_S:
                grid_rows.append(_derive(
                    by_variant, n_devices, "moderate",
                    grid_fanout, grid_period,
                ))
    churn_rows = [
        _derive(by_variant, n_devices, label, fanout, period_s)
        for label, _churn in churn_rates
    ]
    return grid_rows, churn_rows


def check_rows(rows) -> None:
    """Acceptance assertions over any finished sweep."""
    for row in rows:
        assert row["omni_stale"] == 0, (
            f"omniscient discovery metered stale misses: {row}"
        )
        # Partial views can only hide committed replicas, never invent
        # them, so gossip must not *beat* omniscient discovery by more
        # than incidental eviction-order noise.
        assert row["gossip_saved_pct"] <= row["omni_saved_pct"] + 5.0, (
            f"gossip savings exceed omniscient: {row}"
        )


def check_staleness_exercised(all_rows) -> None:
    """Across every churned cell of the run, somebody must have
    tripped over a stale entry — otherwise the axis this bench exists
    to measure silently stopped being exercised.  (Checked over the
    union, not per sweep: a single small low-churn grid can
    legitimately meter zero misses.)"""
    churned = [r for r in all_rows if r["churned"]]
    assert churned, "no churned cells in the run"
    assert sum(r["stale_misses"] for r in churned) > 0, (
        "churn produced no stale-view misses anywhere — staleness is "
        "not being exercised"
    )


def _print_rows(rows, extra=()) -> None:
    cols = ["devices", "fanout", "period_s", "pulls", "skipped",
            "omni_saved_pct", "gossip_saved_pct", "gap_gb",
            "stale_misses", "rounds", "departures"]
    cols = list(extra) + cols
    print(" ".join(f"{c:>12}" for c in cols))
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            cells.append(f"{v:>12.2f}" if isinstance(v, float) else f"{v:>12}")
        print(" ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="10-device grid plus the serial-vs-parallel determinism check",
    )
    quick = parser.parse_args(argv).quick
    grid_n = 10 if quick else 100
    global FANOUTS, PERIODS_S
    if quick:
        FANOUTS = (1, 2)
        PERIODS_S = (60.0, 480.0)
    # Quick mode runs serial first so the determinism check below is a
    # true serial-vs-parallel comparison; the full run uses the pool.
    workers = 1 if quick else min(4, os.cpu_count() or 1)

    sweep = realism_sweep(grid_n)
    with tempfile.TemporaryDirectory() as cache_dir:
        result = run_sweep(sweep, cache_dir=cache_dir, workers=workers)
    if not quick:
        record = write_bench_record(
            "bench_gossip", result.stats, devices=grid_n
        )
        print(f"sweep {sweep.name}: {record}")
    grid, churn_rows = derive_rows(result, grid_n)
    all_rows = []

    print(f"== gossip fanout × period grid ({grid_n} devices, "
          f"moderate churn) ==")
    all_rows += grid
    _print_rows(grid)
    check_rows(grid)
    # More anti-entropy budget must not hurt: the best-provisioned
    # cell's savings are at least the worst-provisioned cell's.
    best = max(r["gossip_saved_pct"] for r in grid)
    worst = min(r["gossip_saved_pct"] for r in grid)
    print(f"grid OK: gossip savings span {worst:.1f}%..{best:.1f}% "
          f"(omniscient {grid[0]['omni_saved_pct']:.1f}%)")

    print(f"== churn sweep ({grid_n} devices, fanout=2, period=60 s) ==")
    all_rows += churn_rows
    _print_rows(churn_rows, extra=("churn",))
    check_rows(churn_rows)
    print("churn sweep OK: omniscient meters zero misses at every rate; "
          "gossip misses are the realism gap")

    if not quick:
        print("== scale run (1000 devices, fanout=2, period=300 s, "
              "moderate churn) ==")
        moderate = (("moderate", CHURN_RATES[1][1]),)
        scale_sweep = realism_sweep(
            1000, grid=False, churn_rates=moderate,
            fanout=2, period_s=300.0,
        )
        scale_result = run_sweep(scale_sweep, workers=workers)
        write_bench_record(
            "bench_gossip_scale", scale_result.stats, devices=1000
        )
        _grid, scale = derive_rows(
            scale_result, 1000, grid=False, churn_rates=moderate,
            fanout=2, period_s=300.0,
        )
        all_rows += scale
        _print_rows(scale)
        check_rows(scale)
        print("scale OK: anti-entropy sustained a 1000-device swarm")

    check_staleness_exercised(all_rows)
    print("staleness OK: stale-view misses were metered under churn")

    if quick:
        # The sweep engine's determinism contract, proven on every CI
        # smoke run: a 2-process pool against a fresh cache produces
        # byte-for-byte the aggregate the serial run produced.
        with tempfile.TemporaryDirectory() as cache_dir:
            parallel = run_sweep(sweep, cache_dir=cache_dir, workers=2)
        assert parallel.aggregate_json() == result.aggregate_json(), (
            "parallel sweep aggregate diverged from the serial one"
        )
        print("determinism OK: 2-worker aggregate byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
