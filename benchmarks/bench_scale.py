"""Transfer-engine scaling: fleet-size sweeps and wall-guarded cold waves.

Run directly for the sweeps (``--quick`` shrinks them for the CI smoke
job)::

    PYTHONPATH=src python benchmarks/bench_scale.py [--quick]

Three sweeps run:

* a steady pull stream through the bare :class:`TransferEngine` over
  fleets of 10/100/1000 devices (bounded concurrency, as real arrival
  processes have), checking wall time stays **sub-quadratic** in fleet
  size,
* the ``p2p-swarm-scale`` preset's cold waves through the full
  scenario stack, sustaining a **10k-device** swarm interactively
  under a wall-time guard — the guard is what keeps the closure
  engine's scaling win from silently regressing in CI, and
* the ``p2p-swarm-100k`` preset's trunk-sliced cold waves through the
  closure engine: at 10k devices the trunk-sliced topology is compared
  against the same total registry egress served as one monolithic
  uplink (≥5× fewer recompute-visited transfers — the co-design win:
  slicing keeps every registry closure regional), and the full
  **100k-device** swarm runs interactively under its own wall guard.
  ``--quick`` runs a 25k-device trunk-sliced canary instead (the 100k
  build alone costs ~13 s; the wave ~190 s).
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import scenarios  # noqa: E402
from repro.model.network import NetworkModel  # noqa: E402
from repro.scenarios.session import SimulationSession  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.transfers import TransferEngine  # noqa: E402


# ----------------------------------------------------------------------
# time-resolved transfer engine: fleet-size scaling
# ----------------------------------------------------------------------
#: Per-device channel bandwidth and shared origin uplink: ten transfers
#: run at full speed concurrently, so steady-state concurrency is set
#: by arrival spacing, not fleet size.
_ENGINE_CHANNEL_MBPS = 100.0
_ENGINE_UPLINK_MBPS = 1000.0
_ENGINE_PAYLOAD_BYTES = 250_000_000  # 20 s at channel speed
_ENGINE_SPACING_S = 2.0


def _engine_run(n_devices: int) -> dict:
    """One steady pull stream through the engine; returns timings."""
    network = NetworkModel()
    for i in range(n_devices):
        name = f"edge-{i:04d}"
        network.connect_registry("origin", name, _ENGINE_CHANNEL_MBPS)
        network.set_downlink(name, _ENGINE_CHANNEL_MBPS * 2)
    network.set_uplink("origin", _ENGINE_UPLINK_MBPS)
    sim = Simulator()
    engine = TransferEngine(sim, network)

    def one(i: int, name: str):
        yield sim.timeout(i * _ENGINE_SPACING_S)
        transfer = engine.start(
            "origin", name, _ENGINE_PAYLOAD_BYTES, src_is_registry=True
        )
        yield transfer.done

    for i in range(n_devices):
        sim.process(one(i, f"edge-{i:04d}"))
    wall_start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - wall_start
    assert engine.completed == n_devices
    assert engine.peak_oversubscription() <= 1.0 + 1e-9
    return dict(
        devices=n_devices,
        wall_s=wall_s,
        recomputes=engine.recomputes,
        visited=engine.transfers_visited,
        sim_end_s=sim.now,
    )


def run_engine_sweep(sizes=(10, 100, 1000)) -> list:
    """Wall time of the engine across fleet sizes (steady concurrency)."""
    return [_engine_run(n) for n in sizes]


def check_engine_sweep(rows) -> None:
    """Sub-quadratic check between consecutive sweep sizes.

    With bounded concurrency the expected growth is linear; quadratic
    growth (ratio ≈ size-ratio²) means recomputation started touching
    idle state.  The threshold sits at ``ratio^1.5`` with a wall-clock
    noise floor so CI jitter on the small runs cannot fail the check.
    """
    for small, big in zip(rows, rows[1:]):
        size_ratio = big["devices"] / small["devices"]
        time_ratio = big["wall_s"] / max(small["wall_s"], 1e-3)
        assert time_ratio < size_ratio**1.5, (
            f"engine wall time grew {time_ratio:.1f}x from "
            f"{small['devices']} to {big['devices']} devices "
            f"(sub-quadratic bound: {size_ratio ** 1.5:.1f}x)"
        )


# ----------------------------------------------------------------------
# swarm-scale cold waves through the full scenario stack
# ----------------------------------------------------------------------
#: Wall-time guard per cold wave for the 10k-device cell.  Interactive
#: runs finish a wave in well under 10 s on a workstation; the guard
#: carries headroom for slower CI machines while still catching a
#: regression to re-solving every active transfer per event (which is
#: more than an order of magnitude off).
_SWARM_GUARD_WAVE_S = 45.0

#: The cold-waves workload schedules exactly two waves.
_SWARM_WAVES = 2


def _swarm_run(n_devices: int, n_regions: int, stagger_s: float) -> dict:
    """The ``p2p-swarm-scale`` preset resized; returns timings.

    ``n_regions`` grows with the fleet because regions are full-mesh
    LAN islands — region size sets the per-device degree (and the
    channel count), not the fleet size.
    """
    spec = scenarios.get("p2p-swarm-scale")
    spec = dataclasses.replace(
        spec,
        topology=dataclasses.replace(
            spec.topology, n_devices=n_devices, n_regions=n_regions
        ),
        workload=dataclasses.replace(spec.workload, stagger_s=stagger_s),
    )
    build_start = time.perf_counter()
    session = SimulationSession(spec)
    build_s = time.perf_counter() - build_start
    engine = session.engine
    wall_start = time.perf_counter()
    outcome = session.run()
    wall_s = time.perf_counter() - wall_start
    assert outcome.unfinished_pulls == 0
    assert engine.peak_oversubscription() <= 1.0 + 1e-9
    return dict(
        devices=n_devices,
        build_s=build_s,
        wall_s=wall_s,
        wave_s=wall_s / _SWARM_WAVES,
        recomputes=engine.recomputes,
        visited=engine.transfers_visited,
        makespan_s=outcome.makespan_s,
    )


def run_swarm_sweep() -> list:
    """Cold waves at 10k devices — the wall-guarded CI canary for the
    closure engine's scaling win."""
    return [_swarm_run(10_000, 100, 0.05)]


def check_swarm_sweep(rows) -> None:
    """Wall-time guard on every 10k-device cell."""
    for row in rows:
        if row["devices"] >= 10_000:
            assert row["wave_s"] < _SWARM_GUARD_WAVE_S, (
                f"10k-device cold wave took {row['wave_s']:.1f} s wall "
                f"(guard: {_SWARM_GUARD_WAVE_S:.0f} s) — closure-engine "
                f"scaling has regressed"
            )


# ----------------------------------------------------------------------
# closure engine on the trunk-sliced 100k preset
# ----------------------------------------------------------------------
#: Wall guard per wave for the --quick 25k-device trunk-sliced canary
#: (measured ~22 s/wave; headroom for slower CI machines).
_SHARD_QUICK_GUARD_WAVE_S = 120.0

#: Wall guard per wave for the full 100k-device run (measured
#: ~190 s/wave on a workstation).
_SHARD_100K_GUARD_WAVE_S = 600.0

#: Minimum monolithic/trunk-sliced ratio of recompute-visited
#: transfers at 10k devices.  The benchmark win is topology+engine
#: co-design — per-region trunk slices keep each registry closure
#: regional, where a monolithic uplink couples every in-flight
#: registry pull on the planet into one component.
_SHARD_VISITED_RATIO_MIN = 5.0


def _swarm100k_run(
    n_devices: int,
    n_regions: int,
    stagger_s: float,
    trunked: bool = True,
) -> dict:
    """The ``p2p-swarm-100k`` preset resized; returns timings.

    ``trunked=False`` replaces the per-region trunk slices with one
    monolithic egress link of the *same total capacity* per registry —
    the coupling baseline the sharded topology exists to avoid.
    """
    spec = scenarios.get("p2p-swarm-100k")
    topology = dataclasses.replace(
        spec.topology, n_devices=n_devices, n_regions=n_regions
    )
    if not trunked:
        topology = dataclasses.replace(
            topology,
            hub_trunk_mbps=None,
            regional_trunk_mbps=None,
            hub_egress_mbps=spec.topology.hub_trunk_mbps * n_regions,
            regional_egress_mbps=(
                spec.topology.regional_trunk_mbps * n_regions
            ),
        )
    spec = dataclasses.replace(
        spec,
        topology=topology,
        workload=dataclasses.replace(spec.workload, stagger_s=stagger_s),
    )
    build_start = time.perf_counter()
    session = SimulationSession(spec)
    build_s = time.perf_counter() - build_start
    engine = session.engine
    wall_start = time.perf_counter()
    outcome = session.run()
    wall_s = time.perf_counter() - wall_start
    assert outcome.unfinished_pulls == 0
    assert engine.peak_oversubscription() <= 1.0 + 1e-9
    return dict(
        devices=n_devices,
        trunked=trunked,
        build_s=build_s,
        wall_s=wall_s,
        wave_s=wall_s / _SWARM_WAVES,
        recomputes=engine.recomputes,
        visited=engine.transfers_visited,
        makespan_s=outcome.makespan_s,
        shards=len({link.shard for link in engine.links()}),
    )


def run_sharded_sweep(quick: bool) -> list:
    """Trunk-sliced cold waves; see the module docstring.

    ``--quick`` runs only the 25k-device trunk-sliced canary.  The full
    run adds the 10k trunked-vs-monolithic comparison (the monolithic
    cell alone costs ~3.5 min wall: that is the point) and the 100k
    swarm.
    """
    if quick:
        cells = [(25_000, 1250, 0.02, True)]
    else:
        cells = [
            (10_000, 500, 0.05, True),
            (10_000, 500, 0.05, False),
            (100_000, 5000, 0.01, True),
        ]
    return [_swarm100k_run(*cell) for cell in cells]


def check_sharded_sweep(rows) -> None:
    """Wall guards plus the trunk-sliced-vs-monolithic work ratio."""
    for row in rows:
        if not row["trunked"]:
            continue
        guard = (
            _SHARD_100K_GUARD_WAVE_S
            if row["devices"] >= 100_000
            else _SHARD_QUICK_GUARD_WAVE_S
        )
        assert row["wave_s"] < guard, (
            f"{row['devices']}-device trunk-sliced cold wave took "
            f"{row['wave_s']:.1f} s wall (guard: {guard:.0f} s) — "
            f"the closure engine no longer scales with per-region "
            f"components"
        )
        assert row["shards"] > 0
    by_trunking = {
        row["trunked"]: row for row in rows if row["devices"] == 10_000
    }
    if len(by_trunking) == 2:
        trunked, mono = by_trunking[True], by_trunking[False]
        ratio = mono["visited"] / max(trunked["visited"], 1)
        assert ratio >= _SHARD_VISITED_RATIO_MIN, (
            f"trunk-sliced sharding visited only {ratio:.1f}x fewer "
            f"transfers than the monolithic-egress baseline at 10k "
            f"devices (required: {_SHARD_VISITED_RATIO_MIN:.0f}x)"
        )


def _write_sharded_record(rows) -> None:
    """Land the sharded-swarm throughput in ``BENCH_sweep.json``."""
    from repro.sweep import SweepStats, write_bench_record

    stats = SweepStats(
        cells=len(rows),
        executed=len(rows),
        wall_s=sum(row["wall_s"] for row in rows),
    )
    by_trunking = {
        row["trunked"]: row for row in rows if row["devices"] == 10_000
    }
    extra = {
        "rows": [
            {
                key: row[key]
                for key in ("devices", "trunked", "build_s", "wall_s",
                            "wave_s", "visited", "makespan_s", "shards")
            }
            for row in rows
        ],
    }
    if len(by_trunking) == 2:
        extra["visited_ratio_10k"] = (
            by_trunking[False]["visited"] / by_trunking[True]["visited"]
        )
    record = write_bench_record(
        "bench_scale[swarm-sharded]", stats, **extra
    )
    print(f"sharded swarm record: {record}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="10/100-device engine sweep, 10k wave, 25k trunk-sliced canary",
    )
    quick = parser.parse_args(argv).quick
    sizes = (10, 100) if quick else (10, 100, 1000)
    print("== transfer-engine scaling (steady pull stream) ==")
    print(
        f"{'devices':>8} {'wall s':>8} {'recomputes':>11} "
        f"{'visited':>9} {'sim end s':>10}"
    )
    rows = run_engine_sweep(sizes)
    for row in rows:
        print(
            f"{row['devices']:>8} {row['wall_s']:>8.3f} "
            f"{row['recomputes']:>11} {row['visited']:>9} "
            f"{row['sim_end_s']:>10.1f}"
        )
    check_engine_sweep(rows)
    print("engine sweep OK: wall time is sub-quadratic in fleet size")
    print()
    print("== swarm-scale cold waves (p2p-swarm-scale preset) ==")
    swarm_rows = run_swarm_sweep()
    print(
        f"{'devices':>8} {'build s':>8} {'wall s':>8} {'s/wave':>7} "
        f"{'recomputes':>11} {'visited':>9} {'makespan':>9}"
    )
    for row in swarm_rows:
        print(
            f"{row['devices']:>8} {row['build_s']:>8.1f} "
            f"{row['wall_s']:>8.1f} {row['wave_s']:>7.1f} "
            f"{row['recomputes']:>11} {row['visited']:>9} "
            f"{row['makespan_s']:>9.1f}"
        )
    check_swarm_sweep(swarm_rows)
    print(
        f"swarm sweep OK: 10k-device waves under {_SWARM_GUARD_WAVE_S:.0f} s"
    )
    print()
    print("== trunk-sliced cold waves (p2p-swarm-100k preset) ==")
    sharded_rows = run_sharded_sweep(quick)
    print(
        f"{'devices':>8} {'trunked':>8} {'build s':>8} "
        f"{'wall s':>8} {'s/wave':>7} {'visited':>9} {'shards':>7} "
        f"{'makespan':>9}"
    )
    for row in sharded_rows:
        print(
            f"{row['devices']:>8} "
            f"{str(row['trunked']):>8} {row['build_s']:>8.1f} "
            f"{row['wall_s']:>8.1f} {row['wave_s']:>7.1f} "
            f"{row['visited']:>9} {row['shards']:>7} "
            f"{row['makespan_s']:>9.1f}"
        )
    check_sharded_sweep(sharded_rows)
    if quick:
        print(
            f"trunk-sliced sweep OK: 25k-device waves under "
            f"{_SHARD_QUICK_GUARD_WAVE_S:.0f} s"
        )
    else:
        _write_sharded_record(sharded_rows)
        print(
            f"trunk-sliced sweep OK: 100k-device waves under "
            f"{_SHARD_100K_GUARD_WAVE_S:.0f} s, trunk slicing visits "
            f">={_SHARD_VISITED_RATIO_MIN:.0f}x fewer transfers than "
            f"monolithic egress at 10k devices"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
