"""P2P tier benchmark: the hybrid vs hybrid+P2P swarm-size sweep.

Run directly for the 10/100/1000-device sweep the acceptance criteria
ask for (``--quick`` shrinks it to 10 devices for the CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_p2p.py [--quick]

For every swarm size the sweep checks that hybrid+P2P pulls strictly
fewer bytes from hub+regional than plain hybrid on the layer-sharing
workload, and that in the 1000-device run the adaptive replicator
converges (its trailing cycles perform no actions, i.e. hot-layer
replica counts have stabilised).  The sweep then repeats with
``transfer.model="time-resolved"`` — every pull riding the shared-
bandwidth transfer engine — checking the peer tier still wins when
transfers contend for links and commit-at-completion hides in-flight
layers, and that the engine sustains the 1000-device run.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace  # noqa: E402

from repro.model.units import BYTES_PER_GB  # noqa: E402
from repro.scenarios import (  # noqa: E402
    ScenarioSpec,
    SimulationSession,
    TopologySpec,
    TransferSpec,
    WorkloadSpec,
)

#: The sweep the acceptance criteria name.
SWEEP_SIZES = (10, 100, 1000)


def _scenario_spec(
    n_devices: int,
    transfer_model: str = "analytic",
    **kwargs,
) -> ScenarioSpec:
    """The sweep's base spec: regions/catalogue scale with swarm size."""
    kwargs.setdefault("transfer", TransferSpec(model=transfer_model))
    return ScenarioSpec(
        mode="hybrid+p2p",
        topology=TopologySpec(
            n_devices=n_devices,
            n_regions=max(2, min(8, n_devices // 12)),
        ),
        workload=WorkloadSpec(
            kind="zipf",
            n_images=min(12, 4 + n_devices // 10),
            pulls_per_device=4,
        ),
        **kwargs,
    )


def run_sweep(sizes=SWEEP_SIZES, transfer_model="analytic") -> list:
    """hybrid vs hybrid+p2p origin traffic across swarm sizes."""
    rows = []
    for n in sizes:
        base = _scenario_spec(n, transfer_model)
        # Both sessions build the same scenario (same topology, workload
        # and seed), so their byte counts are directly comparable.
        hybrid = SimulationSession(replace(base, mode="hybrid")).run()
        p2p = SimulationSession(base).run()
        replicator = p2p.replicator
        rows.append(
            dict(
                devices=n,
                pulls=hybrid.pulls,
                hybrid_origin_gb=hybrid.origin_bytes / BYTES_PER_GB,
                p2p_origin_gb=p2p.origin_bytes / BYTES_PER_GB,
                saved_pct=100.0
                * (1.0 - p2p.origin_bytes / hybrid.origin_bytes),
                peer_gb=(p2p.bytes_from_peers + p2p.bytes_replicated)
                / BYTES_PER_GB,
                replica_copies=replicator["actions"],
                converged=replicator["converged"],
                unfinished=hybrid.unfinished_pulls + p2p.unfinished_pulls,
            )
        )
    return rows


def check_sweep(rows) -> None:
    """The acceptance assertions over a finished sweep."""
    for row in rows:
        assert row["p2p_origin_gb"] < row["hybrid_origin_gb"], (
            f"{row['devices']} devices: P2P did not reduce origin traffic "
            f"({row['p2p_origin_gb']:.2f} vs {row['hybrid_origin_gb']:.2f} GB)"
        )
    big = rows[-1]
    assert big["converged"], (
        "adaptive replicator did not converge in the largest run "
        f"({big['devices']} devices)"
    )


def _print_rows(rows) -> None:
    header = (
        f"{'devices':>8} {'pulls':>6} {'hybrid GB':>10} {'p2p GB':>8} "
        f"{'saved %':>8} {'peer GB':>8} {'copies':>7} {'converged':>9}"
    )
    print(header)
    for row in rows:
        print(
            f"{row['devices']:>8} {row['pulls']:>6} "
            f"{row['hybrid_origin_gb']:>10.2f} {row['p2p_origin_gb']:>8.2f} "
            f"{row['saved_pct']:>8.1f} {row['peer_gb']:>8.2f} "
            f"{row['replica_copies']:>7} {str(row['converged']):>9}"
        )
        if row["unfinished"]:
            # Horizon truncation is deliberate but must never be
            # silent: these pulls' bytes are missing from the row.
            print(
                f"{'':>8} WARNING: {row['unfinished']} pull(s) did not "
                f"finish by the horizon; byte counters under-report"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="10 devices only (CI smoke)"
    )
    quick = parser.parse_args(argv).quick
    sizes = (10,) if quick else SWEEP_SIZES
    rows = run_sweep(sizes)
    print("== P2P swarm-size sweep (origin = hub+regional bytes) ==")
    _print_rows(rows)
    check_sweep(rows)
    print("sweep OK: P2P strictly reduces origin traffic at every size; "
          "replicator converged in the largest run")

    tr_rows = run_sweep(sizes, transfer_model="time-resolved")
    print("== same sweep, time-resolved transfers "
          "(shared links, commit-at-completion) ==")
    _print_rows(tr_rows)
    for analytic, tr in zip(rows, tr_rows):
        assert tr["p2p_origin_gb"] < tr["hybrid_origin_gb"], (
            f"{tr['devices']} devices: P2P stopped paying off once "
            f"transfers were time-resolved"
        )
        # Commit-at-completion can only hide replicas, never invent
        # them: time-resolved savings must not exceed analytic ones.
        assert tr["saved_pct"] <= analytic["saved_pct"] + 1e-9, (
            f"{tr['devices']} devices: time-resolved savings "
            f"({tr['saved_pct']:.1f}%) exceed analytic "
            f"({analytic['saved_pct']:.1f}%)"
        )
    print("engine sweep OK: P2P still wins under contention, and "
          "time-resolved savings never exceed analytic ones")
    return 0


if __name__ == "__main__":
    sys.exit(main())
