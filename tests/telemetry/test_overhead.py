"""Acceptance: full telemetry costs <= 25% wall time on the quick cell.

Timing methodology: wall-clock comparisons between separately-run
blocks are dominated by allocator and frequency noise, so the off/on
runs are *interleaved* and each side keeps its minimum — the minimum
is the least-noise estimate of the true cost.  The cyclic GC is
disabled inside the timing window (with an explicit collect between
runs): the ~16k retained trace events otherwise attract collector
pauses into the traced runs and the measurement becomes a GC
benchmark, not a telemetry one.  If an attempt lands over the bar the
measurement retries with more rounds before failing, which keeps the
test meaningful on loaded CI workers without letting a real regression
through.
"""

import dataclasses
import gc
import json
import time

from repro import scenarios
from repro.scenarios import TelemetrySpec
from repro.telemetry import chrome_trace

FULL_TELEMETRY = TelemetrySpec(trace=True, metrics_period_s=300.0, profile=True)

MAX_OVERHEAD = 0.25


def test_full_telemetry_overhead_within_bound(quick_swarm_spec):
    spec_on = dataclasses.replace(quick_swarm_spec, telemetry=FULL_TELEMETRY)
    best_off = best_on = float("inf")
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Minimums accumulate across attempts, so extra rounds can
        # only sharpen the estimate — a noisy early round never sticks.
        for rounds in (3, 4, 5):
            for _ in range(rounds):
                gc.collect()
                t0 = time.perf_counter()
                scenarios.SimulationSession(quick_swarm_spec).run()
                best_off = min(best_off, time.perf_counter() - t0)
                gc.collect()
                t0 = time.perf_counter()
                scenarios.SimulationSession(spec_on).run()
                best_on = min(best_on, time.perf_counter() - t0)
            ratio = best_on / best_off
            ratios.append(round(ratio, 3))
            if ratio <= 1.0 + MAX_OVERHEAD:
                return
    finally:
        if gc_was_enabled:
            gc.enable()
    raise AssertionError(
        f"telemetry overhead exceeded {MAX_OVERHEAD:.0%} after "
        f"{sum((3, 4, 5))} interleaved rounds: ratios={ratios}"
    )


def test_traced_quick_cell_yields_valid_chrome_trace(quick_swarm_spec):
    spec = dataclasses.replace(
        quick_swarm_spec, telemetry=TelemetrySpec(trace=True)
    )
    session = scenarios.SimulationSession(spec)
    session.run()
    # A round trip through JSON text, as a trace viewer reads it.
    doc = json.loads(json.dumps(chrome_trace([session.trace])))
    events = doc["traceEvents"]
    assert events, "traced quick cell produced an empty Chrome trace"
    for event in events:
        assert event["ph"] in {"X", "i", "M"}
        assert isinstance(event["pid"], int)
        if event["ph"] != "M":
            assert event["ts"] >= 0.0
        if event["ph"] == "X":
            assert event["dur"] >= 0.0

    spans = [e for e in events if e["ph"] == "X"]
    assert spans, "quick cell ran transfers, so spans must exist"
    process_names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    # Every span's pid resolves to a named device process.
    named_pids = {
        e["pid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert {s["pid"] for s in spans} <= named_pids
    assert "@sim" in process_names
