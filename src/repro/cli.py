"""Command-line entry point: regenerate any table/figure of the paper.

Usage::

    python -m repro.cli table2      # Table II benchmarks
    python -m repro.cli table3      # Table III distribution
    python -m repro.cli fig3a       # Figure 3a per-service energy
    python -m repro.cli fig3b       # Figure 3b method comparison
    python -m repro.cli ablations   # A1–A4
    python -m repro.cli cloud       # cloud-edge offloading (extension)
    python -m repro.cli p2p         # three-tier registry comparison
    python -m repro.cli p2p-contended  # analytic vs time-resolved pulls
    python -m repro.cli p2p-gossip  # omniscient vs gossip discovery
    python -m repro.cli p2p-chunked # single-source vs chunked swarm pulls
    python -m repro.cli all         # everything above
    python -m repro.cli calibration # dump the fitted constants

    python -m repro.cli scenario --list          # named scenario presets
    python -m repro.cli scenario p2p-gossip \\
        --set transfer.model=time-resolved \\
        --set churn.mean_uptime_s=600             # one overridden session

    python -m repro.cli sweep --list             # named sweep matrices
    python -m repro.cli sweep gossip-transport \\
        --workers 4 --cache-dir .sweep-cache     # a registered study
    python -m repro.cli sweep p2p-gossip \\
        --axis discovery.gossip_fanout=1,2,4 \\
        --seeds 1,2 --workers 4                  # an ad-hoc grid
    python -m repro.cli sweep my-grid.json       # a SweepSpec document

    python -m repro.cli lint                     # determinism lint
    python -m repro.cli lint src/repro --json    # machine-readable
    python -m repro.cli lint --list              # rule catalogue

Each command is its own subparser and takes exactly the flags it reads
(``repro <command> --help`` lists them), written after the command; a
flag another command owns exits 2 instead of being silently ignored.
The targets and ``all`` take ``--seed``, which only the swarm
experiments read: the paper artefacts are deterministic.

``--json`` prints machine-readable structured results instead of text
tables.  Sweeps fan cells across a worker pool and resume from the
content-addressed results cache: re-running a finished sweep executes
zero cells, and editing one axis re-runs only the new cells.  A cell
whose session raises becomes an error row that is never cached; the
sweep still runs the rest of the grid, prints every row, names each
failed cell's cache key on stderr and exits 1.

Telemetry (see ``src/repro/telemetry/README.md``) hangs off one flag
of the targets, ``all`` and ``scenario``::

    python -m repro.cli p2p --telemetry-dir p2p-telemetry

The command's sessions run inside one
:class:`~repro.telemetry.TelemetryCapture`, and ``DIR`` (created when
missing) then holds ``trace.json`` (Chrome trace-event JSON),
``trace.jsonl``, ``metrics.csv`` and ``profile.json`` for every
session.  The flag is observation-only: it changes no spec, no result
and nothing printed.

The targets, their order in ``all`` and their runners come from one
table, :data:`repro.experiments.TARGETS`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace
from typing import Dict, Iterator, List, Optional

from . import scenarios, sweep, telemetry
from .experiments import TARGETS
from .sim.rng import DEFAULT_SEED
from .workloads.calibration import calibrate
from .workloads.testbed import build_testbed

def _telemetry_dir(path: str) -> str:
    """``--telemetry-dir``: refuse a path that cannot become the
    directory before anything runs."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(
            f"{path!r} exists and is not a directory"
        )
    return path


@contextlib.contextmanager
def _observed(directory: Optional[str]) -> Iterator[None]:
    """Run the block under one telemetry capture when ``directory`` is
    given, then write the capture's files into it."""
    if directory is None:
        yield
        return
    with telemetry.TelemetryCapture() as capture:
        yield
    capture.write(directory)


def _calibration_dict() -> dict:
    """The fitted constants as a JSON-safe structure (--json)."""
    cal = calibrate()
    return {
        "power": {
            device: {
                "static_watts": power.static_watts,
                "compute_watts": power.compute_watts,
                "pull_watts": power.pull_watts,
                "transfer_watts": power.transfer_watts,
                "fit_rms_j": cal.fit_residual_j[device],
            }
            for device, power in cal.power.items()
        },
        "network": {
            "hub_bw_mbps": dict(cal.config.hub_bw_mbps),
            "hub_startup_s": cal.config.hub_startup_s,
            "regional_bw_mbps": dict(cal.config.regional_bw_mbps),
            "regional_startup_s": cal.config.regional_startup_s,
        },
        "services": {
            name: {
                "cpu_mi": svc.cpu_mi,
                "input_mb": svc.input_mb,
                "warm_fraction": svc.warm_fraction,
            }
            for name, svc in cal.services.items()
        },
    }


def _run_calibration_dump() -> str:
    """Text rendering of :func:`_calibration_dict` — one traversal, so
    the text and --json forms cannot drift apart."""
    data = _calibration_dict()
    lines = ["== Calibrated constants =="]
    for device, power in data["power"].items():
        lines.append(
            f"{device}: static={power['static_watts']:.3f} W "
            f"compute={power['compute_watts']:.3f} W "
            f"pull={power['pull_watts']:.3f} W "
            f"transfer={power['transfer_watts']:.3f} W "
            f"(fit rms {power['fit_rms_j']:.1f} J)"
        )
    net = data["network"]
    lines.append(
        f"hub bw: {net['hub_bw_mbps']} Mbit/s, "
        f"startup {net['hub_startup_s']}s; regional bw: "
        f"{net['regional_bw_mbps']} Mbit/s, startup "
        f"{net['regional_startup_s']}s"
    )
    for name, svc in data["services"].items():
        lines.append(
            f"{name:16s} cpu={svc['cpu_mi']:10.0f} MI  "
            f"input={svc['input_mb']:8.1f} MB"
            f"  warm={svc['warm_fraction']:.2f}"
        )
    return "\n".join(lines)


def _scenario_list_text() -> str:
    lines = ["== Scenario presets =="]
    for preset in scenarios.entries():
        lines.append(f"{preset.name:16s} [{preset.family}] {preset.description}")
    lines.append(
        "run one with: repro scenario <preset> "
        "[--set section.field=value ...] [--json]"
    )
    return "\n".join(lines)


def _outcome_text(preset: str, spec, outcome) -> str:
    """A readable one-session summary (the text form of --json)."""
    gb = 1e9
    lines = [
        f"== Scenario {preset} (mode={spec.mode}, seed={spec.seed}) ==",
        f"pulls={outcome.pulls} cache_hits={outcome.cache_hits} "
        f"hit_ratio={outcome.hit_ratio:.2f} "
        f"skipped={outcome.skipped_pulls} unfinished={outcome.unfinished_pulls}",
        f"origin_gb={outcome.origin_bytes / gb:.2f} "
        f"peer_gb={outcome.bytes_from_peers / gb:.2f} "
        f"replicated_gb={outcome.bytes_replicated / gb:.2f} "
        f"wasted_mb={outcome.bytes_wasted / 1e6:.1f}",
        f"transfer_s={outcome.transfer_s:.1f} "
        f"makespan_s={outcome.makespan_s:.1f} "
        f"longest_pull_s={outcome.longest_pull_s:.1f}",
    ]
    for registry, count in sorted(outcome.bytes_by_registry.items()):
        lines.append(f"bytes_from.{registry} = {count}")
    if outcome.stale_peer_misses or outcome.gossip_rounds:
        lines.append(
            f"gossip_rounds={outcome.gossip_rounds} "
            f"stale_peer_misses={outcome.stale_peer_misses}"
        )
    if outcome.departures or outcome.rejoins:
        lines.append(
            f"departures={outcome.departures} rejoins={outcome.rejoins}"
        )
    replicator = outcome.replicator
    if replicator is not None:
        lines.append(
            f"replicator: {replicator['actions']} copies "
            f"({replicator['bytes_replicated'] / gb:.2f} GB), "
            f"converged={replicator['converged']}"
        )
    return "\n".join(lines)


def _run_scenario_command(args) -> int:
    if args.list:
        if args.preset or args.overrides:
            print(
                "--list does not take a preset or --set overrides",
                file=sys.stderr,
            )
            return 2
        if args.json:
            print(json.dumps([
                {
                    "name": preset.name,
                    "family": preset.family,
                    "description": preset.description,
                }
                for preset in scenarios.entries()
            ], indent=2))
        else:
            print(_scenario_list_text())
        return 0
    if not args.preset:
        print(
            "scenario needs a preset name (or --list); known presets: "
            + ", ".join(scenarios.names()),
            file=sys.stderr,
        )
        return 2
    try:
        spec = scenarios.get(args.preset)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    spec = replace(spec, seed=args.seed)
    try:
        overrides = scenarios.parse_set_flags(tuple(args.overrides))
        spec = scenarios.with_overrides(spec, overrides)
    except (TypeError, ValueError) as error:
        # TypeError: a value of the wrong JSON type reached a float
        # field's validation (e.g. --set topology.cache_gb=abc).
        print(f"bad override: {error}", file=sys.stderr)
        return 2
    with _observed(args.telemetry_dir):
        outcome = scenarios.SimulationSession(spec).run()
    if args.json:
        print(json.dumps(
            {
                "preset": args.preset,
                "spec": spec.to_dict(),
                "outcome": outcome.to_dict(),
            },
            indent=2,
        ))
    else:
        print(_outcome_text(args.preset, spec, outcome))
    return 0


def _sweep_list_text() -> str:
    lines = ["== Sweep presets =="]
    for preset in sweep.sweep_entries():
        lines.append(f"{preset.name:20s} {preset.description}")
    lines.append(
        "run one with: repro sweep <name> [--workers N] [--cache-dir DIR]; "
        "or build an ad-hoc grid from any scenario preset with "
        "--axis section.field=v1,v2 [--seeds 1,2]"
    )
    return "\n".join(lines)


def _sweep_text(result) -> str:
    """A readable aggregate table (the text form of --json)."""
    stats = result.stats
    lines = [
        f"== Sweep {result.sweep.name}: {stats.cells} cells "
        f"(executed {stats.executed}, cache hits {stats.cache_hits}, "
        f"deduped {stats.deduped}) "
        f"workers={stats.workers} wall={stats.wall_s:.1f}s "
        f"({stats.cells_per_s:.2f} cells/s) =="
    ]
    id_columns: List[str] = []
    # The empty-label variant is a hidden base bundle, not an identity.
    if any(label for label, _bundle in result.sweep.variants):
        id_columns.append("variant")
    id_columns.extend(path for path, _values in result.sweep.axes)
    id_columns.append("seed")
    headline = [
        "pulls", "hit_ratio", "origin_bytes", "bytes_from_peers",
        "makespan_s", "stale_peer_misses", "gossip_records_sent",
        "gossip_payloads_lost", "error_type",
    ]
    columns = id_columns + [
        name for name in headline if any(name in row for row in result.rows)
    ]

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:g}"
        return str(value)

    table = [columns] + [
        [fmt(row.get(column, "")) for column in columns]
        for row in result.rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
    for line in table:
        lines.append("  ".join(
            cell.rjust(width) for cell, width in zip(line, widths)
        ))
    return "\n".join(lines)


def _resolve_sweep_target(target: str) -> sweep.SweepSpec:
    """A sweep preset name, a scenario preset name, or a JSON file."""
    if target in sweep.sweep_names():
        return sweep.get_sweep(target)
    if target in scenarios.names():
        return sweep.SweepSpec(name=target, preset=target)
    if target.endswith(".json"):
        with open(target) as handle:
            return sweep.SweepSpec.from_dict(json.load(handle))
    raise KeyError(
        f"unknown sweep target {target!r}; known sweeps: "
        f"{', '.join(sweep.sweep_names())}; scenario presets: "
        f"{', '.join(scenarios.names())}; or a SweepSpec .json file"
    )


def _run_sweep_command(args) -> int:
    if args.list:
        if args.target:
            print("--list does not take a sweep name", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps([
                {"name": preset.name, "description": preset.description}
                for preset in sweep.sweep_entries()
            ], indent=2))
        else:
            print(_sweep_list_text())
        return 0
    if not args.target:
        print(
            "sweep needs a target (or --list); known sweeps: "
            + ", ".join(sweep.sweep_names()),
            file=sys.stderr,
        )
        return 2
    try:
        spec = _resolve_sweep_target(args.target)
        if args.axis:
            extra = sweep.parse_axis_flags(tuple(args.axis))
            spec = replace(spec, axes=tuple(spec.axes) + tuple(extra.items()))
        if args.seeds:
            spec = replace(spec, seeds=sweep.parse_seed_flag(args.seeds))
        result = sweep.run_sweep(
            spec, cache_dir=args.cache_dir, workers=args.workers
        )
    except (KeyError, ValueError, OSError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"sweep failed: {message}", file=sys.stderr)
        return 2
    if args.csv:
        result.to_csv(args.csv)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(_sweep_text(result))
    failed = {row["key"]: row for row in result.rows if "error_type" in row}
    for key, row in failed.items():
        print(
            f"sweep: cell {key} raised {row['error_type']}: "
            f"{row['error_message']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


def _run_calibration_command(args) -> int:
    if args.json:
        print(json.dumps(_calibration_dict(), indent=2))
    else:
        print(_run_calibration_dump())
    return 0


def _run_targets_command(args) -> int:
    testbed = build_testbed()
    selected = list(TARGETS) if args.command == "all" else [args.command]
    # Text output streams per experiment (an `all` run shows tables as
    # they finish); only --json buffers, to emit one valid document.
    json_payload: List[Dict] = []
    with _observed(args.telemetry_dir):
        for name in selected:
            for result in TARGETS[name](testbed, args.seed):
                if args.json:
                    json_payload.append(result.to_dict())
                else:
                    print(result.to_text())
                    print()
    if args.json:
        print(json.dumps(
            json_payload[0] if len(json_payload) == 1 else json_payload,
            indent=2,
        ))
    return 0


def _parser() -> argparse.ArgumentParser:
    """One subparser per command, declaring exactly the flags it reads.

    ``allow_abbrev=False`` everywhere: otherwise argparse would read
    ``sweep … --seed 5`` as ``--seeds 5``.
    """
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=(
            "root seed of the swarm experiments and scenario sessions; "
            "the paper artefacts are deterministic and ignore it"
        ),
    )
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable JSON instead of text tables",
    )
    observe = argparse.ArgumentParser(add_help=False)
    observe.add_argument(
        "--telemetry-dir",
        dest="telemetry_dir",
        type=_telemetry_dir,
        metavar="DIR",
        help=(
            "observe every session of the run and write trace.json "
            "(Chrome trace-event), trace.jsonl, metrics.csv and "
            "profile.json into DIR; changes nothing the run prints"
        ),
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the DEEP paper.",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="command"
    )

    def command(name, parents, run, help=None):
        sub = commands.add_parser(
            name, parents=parents, allow_abbrev=False, help=help
        )
        sub.set_defaults(run=run)
        return sub

    for name in [*TARGETS, "all"]:
        command(
            name, [seed, as_json, observe], _run_targets_command,
            "every target above, in order" if name == "all" else None,
        )
    command(
        "calibration", [as_json], _run_calibration_command,
        "dump the fitted constants",
    )

    scenario = command(
        "scenario", [seed, as_json, observe], _run_scenario_command,
        "run one scenario preset",
    )
    scenario.add_argument(
        "preset", nargs="?", help="preset name (see scenario --list)"
    )
    scenario.add_argument(
        "--list", action="store_true", help="list the presets and exit"
    )
    scenario.add_argument(
        "--set",
        action="append",
        dest="overrides",
        default=[],
        metavar="SECTION.FIELD=VALUE",
        help=(
            "override one spec field by dotted path (repeatable), e.g. "
            "--set churn.mean_uptime_s=600"
        ),
    )

    # No telemetry flag: sweep cells run in pool workers, which a
    # process-wide capture cannot see.
    grid = command(
        "sweep", [as_json], _run_sweep_command, "run an experiment matrix"
    )
    grid.add_argument(
        "target",
        nargs="?",
        help=(
            "a sweep preset, a scenario preset, or a SweepSpec .json "
            "file (see sweep --list)"
        ),
    )
    grid.add_argument(
        "--list", action="store_true", help="list the sweep presets and exit"
    )
    grid.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="SECTION.FIELD=V1,V2",
        help=(
            "add one grid axis by dotted path with a comma-separated "
            "value list (repeatable), e.g. --axis discovery.gossip_fanout=1,2"
        ),
    )
    grid.add_argument(
        "--seeds", metavar="S1,S2", help="replace the sweep's seed list"
    )
    grid.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker-process pool size (default 1: inline)",
    )
    grid.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="content-addressed results cache; re-runs load cells from it",
    )
    grid.add_argument(
        "--csv", metavar="FILE", help="also write the aggregate rows as CSV"
    )
    grid.add_argument(
        "--out", metavar="FILE", help="also write the JSON document to FILE"
    )

    # lint owns its own flag grammar (multiple path arguments,
    # repeatable --rule; see src/repro/analysis/cli.py), so main hands
    # `lint …` over before this parser runs.  The entry here lists it in
    # --help and rejects flags written before it.
    commands.add_parser(
        "lint", add_help=False, help="the static determinism analyzer"
    )
    return parser


def main(argv: List[str] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = _parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    try:
        status = main()
        # Flush here so a reader that closed the pipe early
        # (``repro all | head``) raises inside this block.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so
        # that flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)
