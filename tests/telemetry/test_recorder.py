"""Unit behaviour of the trace recorder and its exports."""

import json

import pytest

from repro.telemetry import (
    TelemetryCapture,
    TraceRecorder,
    chrome_trace,
    merged_jsonl,
)


def _spanful_recorder(label: str = "") -> TraceRecorder:
    trace = TraceRecorder(label=label)
    trace.record(
        0.0, "transfer.start", "dev-a",
        id=1, src="registry:hub", size_bytes=100, digest="sha:1",
        registry=True,
    )
    trace.record(
        1.0, "transfer.start", "dev-b",
        id=2, src="dev-a", size_bytes=50, digest="sha:1", registry=False,
    )
    trace.record(2.5, "transfer.finish", "dev-a", id=1, duration_s=2.5)
    trace.record(
        3.0, "transfer.cancel", "dev-b", id=2, reason="seeder departed",
        moved_bytes=10,
    )
    trace.record(4.0, "gossip.round", "", round=1, records_sent=8)
    return trace


class TestTraceRecorder:
    def test_records_accumulate_in_order(self):
        trace = _spanful_recorder()
        assert [e.kind for e in trace.events] == [
            "transfer.start", "transfer.start", "transfer.finish",
            "transfer.cancel", "gossip.round",
        ]
        assert trace.events_of("transfer.start")[0].detail["id"] == 1
        assert trace.devices() == ["dev-a", "dev-b"]

    def test_jsonl_round_trips(self):
        trace = _spanful_recorder()
        text = merged_jsonl([trace])
        lines = [json.loads(line) for line in text.splitlines()]
        assert len(lines) == len(trace.events)
        assert lines[0]["kind"] == "transfer.start"
        assert lines[0]["t_s"] == 0.0
        assert lines[0]["device"] == "dev-a"
        assert lines[0]["registry"] is True
        # An unlabelled recorder's lines carry no session field.
        assert "session" not in lines[0]

    def test_write_exports(self, tmp_path):
        # The capture's writer is the one way traces reach disk.
        trace = _spanful_recorder("s0")
        capture = TelemetryCapture()
        capture.adopt(trace, None, None, "s0")
        capture.write(tmp_path / "telemetry")
        jsonl = (tmp_path / "telemetry" / "trace.jsonl").read_text()
        assert len(jsonl.splitlines()) == len(trace.events)
        assert jsonl.endswith("\n")
        doc = json.loads((tmp_path / "telemetry" / "trace.json").read_text())
        assert isinstance(doc["traceEvents"], list)


class TestChromeTrace:
    def test_matched_spans_become_complete_events(self):
        doc = chrome_trace([_spanful_recorder()])
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        finished = next(s for s in spans if not s["args"].get("cancelled"))
        # ts/dur are microseconds of the sim clock.
        assert finished["ts"] == 0.0
        assert finished["dur"] == pytest.approx(2.5e6)
        cancelled = next(s for s in spans if s["args"].get("cancelled"))
        assert cancelled["dur"] == pytest.approx(2.0e6)

    def test_devices_are_processes_with_metadata(self):
        doc = chrome_trace([_spanful_recorder()])
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        # Device processes plus the synthetic process for device-less
        # records (the gossip round).
        assert {"dev-a", "dev-b", "@sim"} <= names

    def test_unmatched_start_closes_at_horizon_as_unfinished(self):
        trace = TraceRecorder()
        trace.record(
            0.0, "transfer.start", "dev-a",
            id=7, src="hub", size_bytes=1, digest="d", registry=True,
        )
        trace.record(9.0, "gossip.round", "", round=1)
        doc = chrome_trace([trace])
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert span["args"]["unfinished"] is True
        assert span["dur"] == pytest.approx(9.0e6)

    def test_non_span_kinds_become_instants(self):
        doc = chrome_trace([_spanful_recorder()])
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["name"] == "gossip.round" for e in instants)

    def test_merged_trace_prefixes_session_labels(self):
        doc = chrome_trace([_spanful_recorder("s0"), _spanful_recorder("s1")])
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"s0/dev-a", "s1/dev-a"} <= names


def test_merged_jsonl_carries_session_field():
    text = merged_jsonl([_spanful_recorder("s0"), _spanful_recorder("s1")])
    sessions = {json.loads(line)["session"] for line in text.splitlines()}
    assert sessions == {"s0", "s1"}
