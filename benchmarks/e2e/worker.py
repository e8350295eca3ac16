"""The benchmark's worker: repeated sessions of one generated spec.

``run.py`` starts this script once per workload, in a fresh
single-threaded interpreter, and writes one JSON request to its
standard input::

    {"spec": <ScenarioSpec.to_dict()>, "reference_spec": <...>,
     "traced_spec": null, "cold_wave": true, "seconds": 25.0,
     "chrome_trace": null, "label": "wave-sharded"}

The worker first runs and checks one untimed session of
``reference_spec``, the workload at its preset's own seed, whose
simulated outcome must not depend on the seed being measured.  It then
repeats cycles until ``seconds`` are used up (at least one).  A cycle
builds a fresh session from ``spec``, runs it and checks the outcome;
with a ``traced_spec`` it then builds and runs that one too, with the
layer entry points wrapped by :class:`layer_trace.LayerTracer`, so
traced and untraced sessions alternate under the same machine
conditions.  ``chrome_trace`` names a file for the first traced
session's spans.  The worker prints one JSON line: the per-session
results and the peak RSS of the process after the reference session.

:func:`measure` (one session) and :func:`repeat` (one request) are
importable, which is how the harness tests run them in-process at tiny
sizes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from layer_trace import ROOT, SOLVE, LayerTracer, unrestored_targets  # noqa: E402

#: Simulated outcome metrics: (name, unit).  Deterministic for a seed.
SIM_METRICS = (
    ("sim_makespan_s", "sim_s"),
    ("sim_longest_pull_s", "sim_s"),
    ("sim_origin_gb", "GB"),
)

#: Per-layer metrics of a traced run, in print order: (name, unit).
#: ``run.py`` adds ``trace.overhead_ratio`` (it needs an untraced run).
LAYER_METRICS = (
    ("scenarios.build_s", "s"),
    ("scenarios.assemble_s", "s"),
    ("sim.events", "count"),
    ("sim.dispatch_self_s", "s"),
    ("transfers.start_calls", "count"),
    ("transfers.start_self_s", "s"),
    ("transfers.cancel_calls", "count"),
    ("transfers.cancel_self_s", "s"),
    ("transfers.heap_pushes", "count"),
    ("transfers.heap_pops", "count"),
    ("transfers.heap_invalidations", "count"),
    ("transfers.heap_useful_ratio", "ratio"),
    ("transfers.recomputes", "count"),
    ("transfers.solve_s", "s"),
    ("transfers.visited", "count"),
    ("transfers.rerated", "count"),
    ("p2p.pull_process_resumes", "count"),
    ("p2p.pull_process_self_s", "s"),
    ("p2p.pull_calls", "count"),
    ("p2p.pull_self_s", "s"),
    ("p2p.resolve_layer_calls", "count"),
    ("p2p.resolve_layer_self_s", "s"),
    ("p2p.best_peer_calls", "count"),
    ("p2p.best_peer_self_s", "s"),
    ("p2p.verify_ok_ratio", "ratio"),
    ("p2p.hit_ratio", "ratio"),
    ("p2p.replicator_cycles", "count"),
    ("p2p.replicator_self_s", "s"),
    ("p2p.replicator_actions", "count"),
    ("chunks.rarest_first_calls", "count"),
    ("chunks.rarest_first_self_s", "s"),
    ("chunks.fetch_layer_resumes", "count"),
    ("chunks.fetch_layer_self_s", "s"),
    ("chunks.endgame_dupes", "count"),
    ("chunks.useful_byte_ratio", "ratio"),
    ("discovery.rounds", "count"),
    ("discovery.round_self_s", "s"),
    ("discovery.records_sent", "count"),
    ("discovery.payloads_lost", "count"),
    ("discovery.stale_misses", "count"),
    ("cache.calls", "count"),
    ("cache.self_s", "s"),
    ("churn.departures", "count"),
    ("churn.rejoins", "count"),
    ("trace.run_s", "s"),
    ("trace.span_coverage", "ratio"),
)

#: Oversubscription tolerance: max-min fairness never allocates more
#: than a link's capacity, up to float rounding.
OVERSUBSCRIPTION_EPS = 1e-9


def _ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def outcome_digest(outcome) -> str:
    """SHA-256 of the outcome's canonical deterministic dict."""
    from repro.scenarios import canonical_json, deterministic_outcome_dict

    canonical = canonical_json(deterministic_outcome_dict(outcome.to_dict()))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def layer_metrics(tracer: LayerTracer, outcome, run_s: float) -> Dict[str, float]:
    """The traced run's per-layer metrics (see :data:`LAYER_METRICS`)."""
    calls, self_s = tracer.calls.get, tracer.self_s
    profile = outcome.engine_profile or {}
    heaps = profile.get("heaps", {}).values()
    pushes = sum(heap["pushes"] for heap in heaps)
    pops = sum(heap["pops"] for heap in heaps)
    invalidations = sum(heap["invalidations"] for heap in heaps)
    replicator = outcome.to_dict()["replicator"] or {}
    moved = outcome.origin_bytes + outcome.bytes_from_peers
    return {
        "scenarios.build_s": self_s("scenarios.build"),
        "scenarios.assemble_s": self_s("scenarios.assemble"),
        "sim.events": calls("sim.dispatch", 0),
        "sim.dispatch_self_s": self_s("sim.dispatch"),
        "transfers.start_calls": calls("transfers.start", 0),
        "transfers.start_self_s": self_s("transfers.start"),
        "transfers.cancel_calls": calls("transfers.cancel", 0),
        "transfers.cancel_self_s": self_s("transfers.cancel"),
        "transfers.heap_pushes": pushes,
        "transfers.heap_pops": pops,
        "transfers.heap_invalidations": invalidations,
        "transfers.heap_useful_ratio": _ratio(pops, pops + invalidations),
        "transfers.recomputes": profile.get("recomputes", 0),
        "transfers.solve_s": profile.get("recompute_ns_total", 0) / 1e9,
        "transfers.visited": outcome.engine_transfers_visited,
        "transfers.rerated": profile.get("transfers_rerated", 0),
        "p2p.pull_process_resumes": calls("p2p.pull_process", 0),
        "p2p.pull_process_self_s": self_s("p2p.pull_process"),
        "p2p.pull_calls": calls("p2p.pull", 0),
        "p2p.pull_self_s": self_s("p2p.pull"),
        "p2p.resolve_layer_calls": calls("p2p.resolve_layer", 0),
        "p2p.resolve_layer_self_s": self_s("p2p.resolve_layer"),
        "p2p.best_peer_calls": calls("p2p.best_peer", 0),
        "p2p.best_peer_self_s": self_s("p2p.best_peer"),
        "p2p.verify_ok_ratio": _ratio(
            tracer.verify_ok, calls("p2p.verify", 0)
        ),
        "p2p.hit_ratio": outcome.hit_ratio,
        "p2p.replicator_cycles": calls("p2p.replicator", 0),
        "p2p.replicator_self_s": self_s("p2p.replicator"),
        "p2p.replicator_actions": replicator.get("actions", 0),
        "chunks.rarest_first_calls": calls("chunks.rarest_first", 0),
        "chunks.rarest_first_self_s": self_s("chunks.rarest_first"),
        "chunks.fetch_layer_resumes": calls("chunks.fetch_layer", 0),
        "chunks.fetch_layer_self_s": self_s("chunks.fetch_layer"),
        "chunks.endgame_dupes": outcome.chunk_endgame_dupes,
        "chunks.useful_byte_ratio": _ratio(
            moved, moved + outcome.bytes_wasted
        ),
        "discovery.rounds": calls("discovery.round", 0),
        "discovery.round_self_s": self_s("discovery.round"),
        "discovery.records_sent": outcome.gossip_records_sent,
        "discovery.payloads_lost": outcome.gossip_payloads_lost,
        "discovery.stale_misses": outcome.stale_peer_misses,
        "cache.calls": calls("cache", 0),
        "cache.self_s": self_s("cache"),
        "churn.departures": outcome.departures,
        "churn.rejoins": outcome.rejoins,
        "trace.run_s": run_s,
        # Setup spans close before the run starts, and the root span's
        # self time is exactly the run wall no named layer claimed.
        "trace.span_coverage": _ratio(
            tracer.named_self_s()
            - self_s("scenarios.build")
            - self_s("scenarios.assemble"),
            run_s,
        ),
    }


def measure(
    spec_dict: Dict[str, Any],
    trace: bool = False,
    cold_wave: bool = False,
    chrome_trace: Optional[str] = None,
    label: str = "",
) -> Dict[str, Any]:
    """Build, run and check one session; the result as a JSON-safe dict."""
    from repro.scenarios import ScenarioSpec, SimulationSession

    spec = ScenarioSpec.from_dict(spec_dict)
    tracer = LayerTracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        gc.collect()
        session = SimulationSession(spec)
        if tracer is not None:
            tracer.solve_source = session.engine_profile
        gc.collect()
        if tracer is not None:
            tracer.enter(ROOT)
        try:
            outcome = session.run()
        finally:
            if tracer is not None:
                tracer.exit()
    finally:
        if tracer is not None:
            tracer.uninstall()

    scenario = session.scenario
    scheduled = len(scenario.schedule)
    # Pulls scheduled past the horizon are never issued and pulls of a
    # churned-out device are skipped by the model; every other pull was
    # asked of the registries.
    late = sum(1 for at_s, _dev, _ref in scenario.schedule
               if at_s > scenario.horizon_s)
    attempted = scheduled - late - outcome.skipped_pulls
    in_flight = outcome.unfinished_pulls - late
    checks: List[str] = []
    # Analytic admission accounts a pull the moment it is issued, so
    # only the engine path may leave issued pulls in flight.
    if in_flight < 0 or (session.engine is None and in_flight):
        checks.append(
            f"{outcome.unfinished_pulls} pulls unfinished, but {late} of "
            f"{scheduled} were scheduled past the horizon"
        )
    if cold_wave and outcome.unfinished_pulls != 0:
        checks.append(
            f"cold wave left {outcome.unfinished_pulls} pulls unfinished"
        )
    if session.engine is not None:
        peak = session.engine.peak_oversubscription()
        if peak > 1.0 + OVERSUBSCRIPTION_EPS:
            checks.append(f"link oversubscribed: peak {peak!r} > 1")
    violations = session.swarm.index.coherence_violations()
    if violations:
        checks.append(
            f"{len(violations)} peer-index coherence violations, first: "
            f"{violations[0]}"
        )
    run_s = outcome.wall_run_s
    result: Dict[str, Any] = {
        "setup_s": outcome.wall_build_s,
        "run_s": run_s,
        "scheduled": scheduled,
        "pulls": outcome.pulls,
        "skipped": outcome.skipped_pulls,
        "unfinished": outcome.unfinished_pulls,
        "attempted": attempted,
        "failed": in_flight,
        "sim_makespan_s": outcome.makespan_s,
        "sim_longest_pull_s": outcome.longest_pull_s,
        "sim_origin_gb": outcome.origin_bytes / 1e9,
        "digest": outcome_digest(outcome),
        "checks": checks,
    }
    if tracer is not None:
        leftover = unrestored_targets()
        if leftover:
            checks.append(f"tracer left wrappers installed: {leftover}")
        # A consistency assert on the tracer's own bookkeeping: the root
        # span absorbs any solve no child claimed, so this fails only if
        # a span was left open or closed out of order.
        solve_ns = (outcome.engine_profile or {}).get("recompute_ns_total", 0)
        if tracer.self_ns.get(SOLVE, 0) != solve_ns:
            checks.append(
                f"tracer attributed {tracer.self_ns.get(SOLVE, 0)} ns of "
                f"engine solve, the engine measured {solve_ns} ns"
            )
        result["layers"] = layer_metrics(tracer, outcome, run_s)
        if chrome_trace is not None:
            with open(chrome_trace, "w", encoding="utf-8") as fh:
                json.dump(tracer.chrome_trace(label), fh)
    return result


def repeat(request: Dict[str, Any]) -> Dict[str, Any]:
    """Cycles of :func:`measure` until the request's seconds are used."""
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    traced_spec = request["traced_spec"]
    start = perf_counter()
    # Untimed; it also warms the interpreter for the timed sessions.
    reference = measure(request["reference_spec"],
                        cold_wave=request["cold_wave"])
    # The first session's peak is what one run of the workload costs;
    # later sessions add allocator fragmentation on top.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while True:
        cycle_start = perf_counter()
        plain.append(measure(request["spec"], cold_wave=request["cold_wave"]))
        if traced_spec is not None:
            traced.append(measure(
                traced_spec,
                trace=True,
                cold_wave=request["cold_wave"],
                chrome_trace=None if traced else request["chrome_trace"],
                label=request["label"],
            ))
        cycle_s = perf_counter() - cycle_start
        if perf_counter() - start + cycle_s > request["seconds"]:
            break
    return {
        "reference": reference,
        "plain": plain,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> None:
    print(json.dumps(repeat(json.load(sys.stdin))))


if __name__ == "__main__":
    main()
