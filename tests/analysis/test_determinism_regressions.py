"""Regression tests for hazards fixed by ``repro lint``'s first sweep.

Each test pins the determinism contract of one site the static
analysis flagged (unordered set iteration feeding an outcome, or a
JSON export without canonical key order): the observable result must
be bit-for-bit identical regardless of set/dict construction order,
i.e. independent of the interpreter's hash seed.
"""

import json
from types import SimpleNamespace

from repro.registry.discovery import GossipDiscovery, _version_key
from repro.registry.p2p import AdaptiveReplicator, PeerIndex
from repro.sweep.runner import _cache_path, _store_cached
from repro.telemetry import TelemetryCapture, TraceRecorder


class _StubChurn:
    """availability() with values whose sum exposes non-associativity."""

    def __init__(self, table):
        self.table = table

    def availability(self, device):
        return self.table[device]


def test_effective_replicas_is_order_independent():
    # Availabilities chosen so that float summation order matters:
    # (a + b) + c != a + (b + c) for these magnitudes.
    table = {
        f"dev-{i:03d}": 0.1 + (1e16 if i == 7 else 0.0) * 1e-16
        for i in range(50)
    }
    stub = SimpleNamespace(churn=_StubChurn(table))
    holders_fwd = set(sorted(table))
    holders_rev = set(sorted(table, reverse=True))
    a = AdaptiveReplicator._effective_replicas(stub, holders_fwd)
    b = AdaptiveReplicator._effective_replicas(stub, holders_rev)
    assert a == b
    # The contract: summation happens in sorted-holder order.
    assert a == sum(table[h] for h in sorted(table))


def test_effective_replicas_without_churn_counts_faces():
    stub = SimpleNamespace(churn=None)
    assert AdaptiveReplicator._effective_replicas(stub, {"a", "b"}) == 2.0


class _FakeCache:
    def __init__(self, digests):
        self._digests = list(digests)

    def entries(self):
        return [(d, 1) for d in self._digests]


def test_coherence_violations_report_in_sorted_digest_order():
    index = PeerIndex()
    # Bypass register_cache: build an intentionally incoherent state.
    index._caches = {"dev": _FakeCache(["sha:c", "sha:a", "sha:b"])}
    index._holders = {f"sha:{x}": {"dev"} for x in "zyx"}
    problems = index.coherence_violations()
    cached = [p for p in problems if "cached but not indexed" in p]
    indexed = [p for p in problems if "indexed but not cached" in p]
    assert cached == sorted(cached) and len(cached) == 3
    assert indexed == sorted(indexed) and len(indexed) == 3


def test_gossip_merge_cap_is_payload_order_independent():
    def key(seq):
        return _version_key(1, seq, True)

    def run(groups, prefill):
        g = GossipDiscovery(view_cap=2)
        viewer = g.observer
        if prefill:
            # A full present class at seq 2/3: a floor exists, so part
            # of each group ranks below it and is deferred.
            g._deliver(viewer, ({
                digest: [("holder-8", key(2)), ("holder-9", key(3))]
                for digest in groups
            }, 0))
        g._deliver(viewer, (groups, 0))
        return g._views[viewer]

    groups = {
        f"sha:{d}": [(f"holder-{i}", key(i)) for i in range(6)]
        for d in "ab"
    }
    backwards = {
        digest: list(reversed(group))
        for digest, group in reversed(list(groups.items()))
    }
    for prefill in (False, True):
        assert run(groups, prefill) == run(backwards, prefill)
    # The cap kept the freshest entries, not an arbitrary subset.
    for prefill in (False, True):
        view = run(groups, prefill)
        for digest in ("sha:a", "sha:b"):
            assert sorted(view[digest]) == ["holder-4", "holder-5"]


def test_sweep_cache_export_is_key_order_independent(tmp_path):
    outcome_a = {"zeta": 1, "alpha": 2}
    outcome_b = {"alpha": 2, "zeta": 1}
    texts = []
    for i, outcome in enumerate((outcome_a, outcome_b)):
        cache_dir = tmp_path / f"c{i}"
        cache_dir.mkdir()
        _store_cached(cache_dir, "key", {"b": 1, "a": 2}, outcome, 3.0)
        texts.append(_cache_path(cache_dir, "key").read_text())
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["outcome"] == outcome_a


def test_chrome_trace_export_is_detail_order_independent(tmp_path):
    texts = []
    for i, detail in enumerate(({"z": 1, "a": 2}, {"a": 2, "z": 1})):
        rec = TraceRecorder()
        rec.record(0.5, "x", "dev", **detail)
        capture = TelemetryCapture()
        capture.adopt(rec, None, None, "")
        capture.write(tmp_path / f"telemetry{i}")
        texts.append((tmp_path / f"telemetry{i}" / "trace.json").read_text())
    assert texts[0] == texts[1]
    json.loads(texts[0])  # stays a valid JSON document
