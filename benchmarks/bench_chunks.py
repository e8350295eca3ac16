"""Chunked-transfer benchmarks: chunk size × swarm size sweeps.

Run directly for the sweep (``--quick`` shrinks the grid but *keeps*
the 1000-device cell — sustaining four-digit swarms is the acceptance
criterion)::

    PYTHONPATH=src python benchmarks/bench_chunks.py [--quick]

Two parts:

* **chunk size × swarm size grid** — ``hybrid+p2p`` under the
  time-resolved engine, single-source vs chunked, on the standard
  layer-sharing workload.  The whole grid is ONE declarative
  :class:`repro.sweep.SweepSpec` — variant bundles carry the
  swarm-size scaling rule — executed by
  :func:`repro.sweep.run_sweep` through a worker pool with a fresh
  content-addressed cell cache; a full run's throughput lands in
  ``BENCH_sweep.json``.  Checks the chunked planner never pulls *more*
  origin bytes than single-source; small chunks × large swarms is
  where the engine's rate recomputation cost shows (the chunk-size
  floor at scale).
* **contended cold-wave makespan** — the headline effect: every device
  pulls the same image nearly at once; chunked rarest-first scheduling
  over full + partial holders must beat the single-source makespan.
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

from bench_p2p import _scenario_spec  # noqa: E402 - shared scaling rule
from repro.model.units import BYTES_PER_GB  # noqa: E402
from repro import scenarios  # noqa: E402
from repro.scenarios import TransferSpec  # noqa: E402
from repro.sweep import SweepSpec, run_sweep, write_bench_record  # noqa: E402

MB = 1_000_000

#: The grid.  --quick keeps 10 devices × two chunk sizes plus the
#: 1000-device cell at the coarsest chunking (the cheap end of the
#: engine's recompute cost — see the chunk-size-floor note below).
SWEEP_SIZES = (10, 100, 1000)
CHUNK_SIZES = (8 * MB, 32 * MB, 128 * MB)


def _variant_name(n: int, chunk_size) -> str:
    suffix = "single" if chunk_size is None else f"c{chunk_size // MB}"
    return f"n{n}/{suffix}"


def _variant_bundle(n: int, chunk_size) -> dict:
    """One grid cell as a dotted-override bundle.

    The swarm-size scaling rule (regions and catalogue growing with the
    swarm) is ``bench_p2p._scenario_spec``'s — re-read from it so the
    two benches can never drift apart.
    """
    sized = _scenario_spec(n)
    bundle = {
        "topology.n_devices": sized.topology.n_devices,
        "topology.n_regions": sized.topology.n_regions,
        "workload.n_images": sized.workload.n_images,
    }
    if chunk_size is not None:
        bundle["chunks.enabled"] = True
        bundle["chunks.size_bytes"] = chunk_size
    return bundle


def chunk_sweep(grid_sizes, grid_chunks, scale_chunks) -> SweepSpec:
    """The whole bench as one declarative sweep.

    Variants: per grid size, a single-source baseline plus one chunked
    cell per chunk size, and likewise the 1000-device scale cells.
    """
    variants = {}
    for n, chunks in [(n, grid_chunks) for n in grid_sizes] + [
        (1000, scale_chunks)
    ]:
        variants[_variant_name(n, None)] = _variant_bundle(n, None)
        for chunk_size in chunks:
            variants[_variant_name(n, chunk_size)] = (
                _variant_bundle(n, chunk_size)
            )
    base = _scenario_spec(
        grid_sizes[0],
        transfer=TransferSpec(model="time-resolved", upload_budget=4),
    )
    return SweepSpec(
        name="chunk-grid",
        description=(
            "single-source vs chunked origin traffic across chunk size "
            "× swarm size"
        ),
        base=base,
        variants=variants,
        seeds=(base.seed,),
    )


def derive_row(by_variant: dict, n: int, chunk_size: int) -> dict:
    """One single-vs-chunked comparison row off the sweep aggregate."""
    single = by_variant[_variant_name(n, None)]
    chunked = by_variant[_variant_name(n, chunk_size)]
    return dict(
        devices=n,
        chunk_mb=chunk_size // MB,
        pulls=chunked["pulls"],
        single_origin_gb=single["origin_bytes"] / BYTES_PER_GB,
        chunked_origin_gb=chunked["origin_bytes"] / BYTES_PER_GB,
        single_peer_gb=single["bytes_from_peers"] / BYTES_PER_GB,
        chunked_peer_gb=chunked["bytes_from_peers"] / BYTES_PER_GB,
        endgame_dupes=chunked["chunk_endgame_dupes"],
        wasted_mb=chunked["bytes_wasted"] / MB,
        visited=chunked["engine_transfers_visited"],
    )


def makespan_sweep(
    n_devices: int = 8, chunk_size_bytes: int = 16 * MB
) -> SweepSpec:
    """Contended cold wave: the makespan headline, as a 2-cell sweep.

    The base is the ``p2p-contended`` preset (time-resolved engine,
    upload budget 2, NIC/egress shaping) resized to ``n_devices``.
    """
    preset = scenarios.get("p2p-contended")
    return SweepSpec(
        name="chunk-makespan",
        description="single-source vs chunked cold-wave makespan",
        base=preset,
        variants={
            "single": {"topology.n_devices": n_devices},
            "chunked": {
                "topology.n_devices": n_devices,
                "chunks.enabled": True,
                "chunks.size_bytes": chunk_size_bytes,
            },
        },
        seeds=(preset.seed,),
    )


def derive_makespan(by_variant: dict, n_devices: int = 8) -> dict:
    single, chunked = by_variant["single"], by_variant["chunked"]
    return dict(
        devices=n_devices,
        single_makespan_s=single["longest_pull_s"],
        chunked_makespan_s=chunked["longest_pull_s"],
        speedup_pct=100.0
        * (1.0 - chunked["longest_pull_s"] / single["longest_pull_s"]),
        single_origin_gb=single["origin_bytes"] / BYTES_PER_GB,
        chunked_origin_gb=chunked["origin_bytes"] / BYTES_PER_GB,
    )


def check_grid(rows) -> None:
    """Acceptance assertions over any finished grid."""
    for row in rows:
        # Chunked scheduling draws on strictly more sources (partial
        # holders, per-chunk re-resolution), so it must never need
        # *more* origin bytes than single-source on the same workload
        # (2% tolerance for eviction-order noise at small scale).
        assert row["chunked_origin_gb"] <= row["single_origin_gb"] * 1.02, (
            f"chunked pulled more from the origin: {row}"
        )
        # every pull finished: wasted bytes only appear under churn,
        # and this grid runs churn-free
        assert row["wasted_mb"] == 0, f"waste without churn: {row}"


def check_makespan(row) -> None:
    assert row["chunked_makespan_s"] < row["single_makespan_s"], (
        f"chunked wave no faster than single-source: {row}"
    )


def _print_rows(rows) -> None:
    cols = list(rows[0])
    print(" ".join(f"{c:>17}" for c in cols))
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(f"{v:>17.2f}" if isinstance(v, float) else f"{v:>17}")
        print(" ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="10-device grid, two chunk sizes, one 1000-device cell",
    )
    quick = parser.parse_args(argv).quick
    if quick:
        grid_sizes = (10,)
        grid_chunks = (8 * MB, 32 * MB)
        scale_chunks = (128 * MB,)
    else:
        grid_sizes = (10, 100)
        grid_chunks = CHUNK_SIZES
        scale_chunks = CHUNK_SIZES
    workers = min(4, os.cpu_count() or 1)

    print("== contended cold wave: single-source vs chunked makespan ==")
    wave_result = run_sweep(makespan_sweep(), workers=workers)
    wave = derive_makespan(
        {row["variant"]: row for row in wave_result.rows}
    )
    _print_rows([wave])
    check_makespan(wave)
    print(f"makespan OK: chunked wave {wave['speedup_pct']:.1f}% faster")

    # One sweep covers the grid, the 1000-device scale cells (kept even
    # under --quick: sustaining four-digit swarms is the acceptance
    # criterion; only the coarsest chunking, whose engine cost is
    # lowest — finer chunks multiply transfer starts/finishes and the
    # fair-share recompute behind them, the chunk-size floor at scale).
    sweep = chunk_sweep(grid_sizes, grid_chunks, scale_chunks)
    with tempfile.TemporaryDirectory() as cache_dir:
        result = run_sweep(sweep, cache_dir=cache_dir, workers=workers)
    if not quick:
        record = write_bench_record("bench_chunks", result.stats)
        print(f"sweep {sweep.name}: {record}")
    by_variant = {row["variant"]: row for row in result.rows}

    print("== chunk size × swarm size grid ==")
    grid = [
        derive_row(by_variant, n, chunk_size)
        for n in grid_sizes for chunk_size in grid_chunks
    ]
    _print_rows(grid)
    check_grid(grid)
    print("grid OK: chunked origin traffic never exceeds single-source")

    print(f"== scale sweep (1000 devices × {len(scale_chunks)} chunk size(s)) ==")
    scale = [
        derive_row(by_variant, 1000, chunk_size)
        for chunk_size in scale_chunks
    ]
    _print_rows(scale)
    check_grid(scale)
    print("scale OK: chunked swarm scheduling sustained 1000 devices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
