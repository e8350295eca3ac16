"""Unit behaviour of the metrics sampler, engine profile, and capture."""

import csv
import io
import json

import pytest

from repro.model.network import NetworkModel
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine
from repro.telemetry import (
    ALL_SCOPE,
    DEADLINE_HEAP,
    METRICS_SCHEMA,
    EngineProfile,
    MetricsSampler,
    TelemetryCapture,
    TraceRecorder,
    active_capture,
    closure_bucket,
    merged_csv,
)


class TestMetricsSampler:
    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            MetricsSampler(0.0)
        with pytest.raises(ValueError):
            MetricsSampler(-5.0)

    def test_rows_follow_schema(self):
        sampler = MetricsSampler(10.0)
        sampler.record(0.0, "inflight_transfers", ALL_SCOPE, 3)
        (row,) = sampler.rows()
        assert tuple(row) == METRICS_SCHEMA
        assert row["value"] == 3.0

    def test_cache_probe(self):
        class Cache:
            def __init__(self, used, cap):
                self.used_bytes = used
                self.capacity_bytes = cap

        sampler = MetricsSampler(10.0)
        sampler.sample(5.0, caches={"a": Cache(10, 100), "b": Cache(30, 100)})
        assert sampler.series("cache_used_bytes") == [(5.0, 40.0)]
        assert sampler.series("cache_occupancy") == [(5.0, 0.2)]

    def test_csv_header_is_schema(self):
        # One session is the one-sampler case of the merged export.
        sampler = MetricsSampler(10.0)
        sampler.record(0.0, "inflight_transfers", ALL_SCOPE, 1)
        rows = list(csv.reader(io.StringIO(merged_csv([sampler]))))
        assert rows[0] == ["session"] + list(METRICS_SCHEMA)
        assert rows[1] == ["", "0.0", "inflight_transfers", ALL_SCOPE, "1.0"]
        assert len(rows) == 2

    def test_merged_csv_adds_session_column(self):
        a, b = MetricsSampler(1.0, label="s0"), MetricsSampler(1.0, label="s1")
        a.record(0.0, "m", ALL_SCOPE, 1)
        b.record(0.0, "m", ALL_SCOPE, 2)
        rows = list(csv.reader(io.StringIO(merged_csv([a, b]))))
        assert rows[0] == ["session"] + list(METRICS_SCHEMA)
        assert [row[0] for row in rows[1:]] == ["s0", "s1"]


class TestEngineProfile:
    def test_closure_bucket_powers_of_two(self):
        assert closure_bucket(0) == "0"
        assert closure_bucket(1) == "1"
        assert closure_bucket(3) == "4"
        assert closure_bucket(4) == "4"
        assert closure_bucket(5) == "8"
        assert closure_bucket(1000) == "1024"

    def test_recompute_accounting(self):
        prof = EngineProfile()
        prof.note_recompute(100, 3)
        prof.note_recompute(300, 5)
        summary = prof.summary()
        assert summary["recomputes"] == 2
        assert summary["recompute_ns_total"] == 400
        assert summary["recompute_ns_max"] == 300
        assert summary["transfers_rerated"] == 8
        assert summary["closure_size_hist"] == {"4": 1, "8": 1}

    def test_heap_counters_per_shard(self):
        """Counters are keyed by the heap label the caller passes."""
        prof = EngineProfile()
        prof.heap_push(DEADLINE_HEAP)
        prof.heap_push("@other")
        prof.heap_pop("@other")
        prof.heap_invalidate(DEADLINE_HEAP)
        heaps = prof.summary()["heaps"]
        assert heaps[DEADLINE_HEAP] == {
            "pushes": 1, "pops": 0, "invalidations": 1,
        }
        assert heaps["@other"]["pops"] == 1

    def test_closure_engine_reports_one_deadline_heap(self):
        """The engine counts its heap work under
        :data:`DEADLINE_HEAP`, one entry per solved component: two
        pulls sharing one egress are one component, a third pull on
        its own link is another."""
        network = NetworkModel()
        for name in ("d0", "d1", "d2"):
            network.connect_registry("origin", name, 90.0)
        network.set_uplink("origin", 100.0)
        network.connect_registry("mirror", "d2", 50.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        engine.profile = prof = EngineProfile()
        engine.start("origin", "d0", 10_000_000, src_is_registry=True)
        engine.start("origin", "d1", 20_000_000, src_is_registry=True)
        engine.start("mirror", "d2", 10_000_000, src_is_registry=True)
        sim.run()
        assert engine.completed == 3
        heaps = prof.summary()["heaps"]
        assert set(heaps) == {DEADLINE_HEAP}
        counters = heaps[DEADLINE_HEAP]
        assert counters["pushes"] == (
            counters["pops"] + counters["invalidations"]
        )
        # one push per activation solve, one per solve after d0 finishes
        assert counters["pushes"] == 4


class TestTelemetryCapture:
    def test_activation_scope(self):
        assert active_capture() is None
        with TelemetryCapture() as capture:
            assert active_capture() is capture
        assert active_capture() is None

    def test_nesting_rejected(self):
        with TelemetryCapture():
            with pytest.raises(RuntimeError):
                TelemetryCapture().__enter__()

    def test_labels_and_adoption(self, tmp_path):
        with TelemetryCapture() as capture:
            assert capture.next_label() == "s0"
            assert capture.next_label() == "s1"
            trace = TraceRecorder(label="s0")
            prof = EngineProfile()
            prof.note_recompute(100, 3)
            capture.adopt(trace, None, prof, "s0")
        assert capture.traces == [trace]
        assert capture.samplers == []
        capture.write(tmp_path)
        profiles = json.loads((tmp_path / "profile.json").read_text())
        assert profiles == {"s0": prof.summary()}
        # A sink nobody adopted still gets its (empty) file.
        with open(tmp_path / "metrics.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["session"] + list(METRICS_SCHEMA)]
