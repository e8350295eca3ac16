"""Harness tests for the end-to-end benchmark, at tiny sizes."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layer_trace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from layer_trace import SOLVE, LayerTracer  # noqa: E402


def _summary(name, seed=None, trace=False):
    """One workload measured in-process at tiny size: one cycle."""
    spec = run.WORKLOADS[name].spec(seed, tiny=True)
    request = run.worker_request(name, spec, seconds=0, trace=trace)
    return run.summarise(name, spec, worker.repeat(request))


def _printed_names(summary):
    return {line.split()[0] for line in run.report(summary).splitlines()}


def test_printed_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)

    summary = _summary("gossip-churn")
    result = run.result_line(summary)
    assert result["correct"] and result["failed"] == 0, summary["checks"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == e2e
    assert set(e2e) <= _printed_names(summary)

    for name in run.WORKLOADS:
        summary = _summary(name, trace=True)
        result = run.result_line(summary)
        assert result["correct"], summary["checks"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == (
            per_layer
        )
        assert set(per_layer) <= _printed_names(summary)


def test_self_time_arithmetic_on_a_nested_tree():
    now = [0]
    solve = SimpleNamespace(recompute_ns_total=0)
    tracer = LayerTracer(clock=lambda: now[0])
    tracer.solve_source = solve

    def leaf():
        now[0] += 1

    traced_leaf = tracer.wrap_call("leaf", leaf)

    def body():
        now[0] += 5
        try:
            yield "first"
        except KeyError:
            now[0] += 2
        yield "second"
        now[0] += 7
        traced_leaf()
        solve.recompute_ns_total += 2
        return "done"

    tracer.enter("outer")                  # t=0
    now[0] = 10
    tracer.enter("inner")                  # t=10
    solve.recompute_ns_total += 4
    now[0] = 30
    tracer.exit()                          # inner: 20 long, 4 of it solve
    solve.recompute_ns_total += 3          # solve in outer's own time
    gen = tracer.wrap_generator("gen", body, pull=True)()
    now[0] = 40
    assert next(gen) == "first"            # resume 40..45
    now[0] = 50
    assert gen.throw(KeyError()) == "second"   # resume 50..52
    now[0] = 60
    try:
        gen.send(None)                     # resume 60..68, leaf 67..68
    except StopIteration as stop:
        assert stop.value == "done"
    else:
        raise AssertionError("generator did not finish")
    now[0] = 100
    tracer.exit()                          # outer: 100 long

    assert tracer.calls == {"outer": 1, "inner": 1, "gen": 3, "leaf": 1}
    assert tracer.self_ns == {
        "inner": 16,
        "leaf": 1,
        "gen": 5 + 2 + (8 - 1 - 2),
        "outer": 100 - 20 - 5 - 2 - 8 - 3,
        SOLVE: 4 + 2 + 3,
    }
    assert sum(tracer.self_ns.values()) == 100
    pulls = {span[0]: span[3] for span in tracer.spans}
    assert pulls == {"outer": None, "inner": None, "gen": 0, "leaf": 0}
    trace = tracer.chrome_trace("synthetic")
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == [
        "outer", "inner", "gen", "gen", "gen", "leaf",
    ]


def test_patches_are_restored():
    targets = layer_trace.layer_targets()
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _name, _kind in targets}
    tracer = LayerTracer()
    tracer.install()
    try:
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, attr
        assert len(layer_trace.unrestored_targets()) == len(targets)
    finally:
        tracer.uninstall()
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, attr
    assert layer_trace.unrestored_targets() == []

    spec = run.WORKLOADS["chunked-contended"].spec(None, tiny=True)
    traced = worker.measure(spec.to_dict(), trace=True, cold_wave=True)
    assert traced["checks"] == []
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, attr
    plain = worker.measure(spec.to_dict(), cold_wave=True)
    assert traced["digest"] == plain["digest"]


def test_seed_changes_zipf_digest_but_not_metric_set():
    first, second = (
        _summary("zipf-analytic", seed, trace=True) for seed in (1, 2)
    )
    assert first["checks"] == [] and second["checks"] == []
    assert first["digest"] != second["digest"]
    assert first["e2e"].keys() == second["e2e"].keys()
    assert first["layers"].keys() == second["layers"].keys()
    # The simulated metrics come from the preset's seed, not --seed.
    assert first["reference_digest"] == second["reference_digest"]
    for name, _unit in worker.SIM_METRICS:
        assert first["e2e"][name] == second["e2e"][name]
