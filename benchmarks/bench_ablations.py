"""Ablation studies run as sweep presets: replicator policy, gossip transport.

Run directly for the studies (``--quick`` shrinks each grid to a
2 × 2 × 1-seed corner for the CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_ablations.py [--quick]

* **replicator-policy** — demand-decay swept across two hotness-scope
  arms (global absolute threshold vs per-region auto-scaled
  ``hot_fraction``); the per-region arm must never replicate *more*
  bytes than global on the same cell (it only narrows where copies
  go).
* **gossip-transport** — per-pair metadata latency × exchange mode ×
  payload loss; the digest-summary exchange must reproduce the
  push-pull outcome *exactly* (it is a semantics-preserving delta
  encoding) while shipping strictly fewer view records over the wire,
  at every loss rate.

Both run through :func:`repro.sweep.run_sweep` (worker pool, fresh
content-addressed cache); a full run lands their throughput in
``BENCH_sweep.json``.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace  # noqa: E402

from repro.sweep import get_sweep, run_sweep, write_bench_record  # noqa: E402


def _cell_groups(rows, group_by, within):
    """rows → {group key: {within value: row}} for pairwise checks."""
    groups = {}
    for row in rows:
        key = tuple(row[column] for column in group_by)
        groups.setdefault(key, {})[row[within]] = row
    return groups


def check_replicator_policy(rows) -> None:
    """Per-region hotness only narrows *where* copies go, so on every
    (decay, seed) cell it must not replicate more bytes than global
    hotness — and somewhere on the grid it must replicate strictly
    fewer (otherwise the scope knob is dead).  The scopes ride the
    sweep's *variants* (each arm carries its own threshold knob:
    ``hot_threshold`` for global, auto-scaled ``hot_fraction`` for
    per-region), so rows are grouped by the ``variant`` column."""
    groups = _cell_groups(
        rows, ("replication.decay", "seed"), "variant"
    )
    strictly_fewer = 0
    for key, pair in groups.items():
        per_region = pair["per-region"]["bytes_replicated"]
        global_scope = pair["global"]["bytes_replicated"]
        assert per_region <= global_scope, (
            f"per-region hotness replicated more than global on {key}: "
            f"{per_region} > {global_scope}"
        )
        strictly_fewer += per_region < global_scope
    assert strictly_fewer > 0, (
        "per-region hotness never changed replication volume — the "
        "scope knob is not being exercised"
    )


def check_gossip_transport(rows) -> None:
    """Digest-summary is a delta encoding of the same anti-entropy
    exchange: on every (latency, loss, seed) cell its traffic outcome
    must match push-pull exactly while shipping strictly fewer
    records — payload loss drops the same seeded (receiver, sender)
    pairs in both modes, so it cannot perturb the equivalence."""
    groups = _cell_groups(
        rows,
        ("discovery.gossip_latency_s", "discovery.gossip_loss_rate",
         "seed"),
        "discovery.gossip_exchange",
    )
    for key, pair in groups.items():
        full, summary = pair["push-pull"], pair["digest-summary"]
        for column in ("pulls", "origin_bytes", "bytes_from_peers",
                       "stale_peer_misses", "makespan_s"):
            assert full[column] == summary[column], (
                f"digest-summary changed {column} on {key}: "
                f"{full[column]} vs {summary[column]}"
            )
        assert summary["gossip_records_sent"] < full["gossip_records_sent"], (
            f"digest-summary did not reduce wire records on {key}: "
            f"{summary['gossip_records_sent']} vs "
            f"{full['gossip_records_sent']}"
        )


def _shrink(sweep_spec):
    """The 2 × 2 × 1-seed corner of a study grid (--quick)."""
    axes = [
        (path, (values[0], values[-1]) if len(values) > 2 else values)
        for path, values in sweep_spec.axes
    ]
    return replace(sweep_spec, axes=axes, seeds=sweep_spec.seeds[:1])


def _print_rows(rows, columns) -> None:
    print(" ".join(f"{c:>26}" for c in columns))
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c, "")
            cells.append(f"{v:>26.2f}" if isinstance(v, float) else f"{v:>26}")
        print(" ".join(cells))


def run_study(name: str, quick: bool, workers: int):
    """One registered sweep preset, executed; a full run is recorded."""
    spec = get_sweep(name)
    if quick:
        spec = _shrink(spec)
    with tempfile.TemporaryDirectory() as cache_dir:
        result = run_sweep(spec, cache_dir=cache_dir, workers=workers)
    if not quick:
        record = write_bench_record(f"bench_ablations[{name}]", result.stats)
        print(f"sweep {name}: {record}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="each grid shrunk to its 2 x 2 x 1-seed corner",
    )
    quick = parser.parse_args(argv).quick
    workers = min(4, os.cpu_count() or 1)

    print("== replicator-policy study (demand-decay × hotness scope) ==")
    policy = run_study("replicator-policy", quick, workers)
    _print_rows(policy.rows, [
        "variant", "replication.decay", "seed",
        "origin_bytes", "bytes_replicated", "stale_peer_misses",
    ])
    check_replicator_policy(policy.rows)
    print("replicator-policy OK: per-region hotness only narrows "
          "replication, never inflates it")

    print("== gossip-transport study (metadata latency × exchange) ==")
    transport = run_study("gossip-transport", quick, workers)
    _print_rows(transport.rows, [
        "discovery.gossip_latency_s", "discovery.gossip_exchange",
        "discovery.gossip_loss_rate", "seed", "origin_bytes",
        "gossip_payloads_lost", "gossip_records_sent",
    ])
    check_gossip_transport(transport.rows)
    print("gossip-transport OK: digest-summary converges identically "
          "with strictly fewer wire records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
