"""Regression tests for hazards fixed by ``repro lint``'s first sweep.

Each test pins the determinism contract of one site the static
analysis flagged (unordered set iteration feeding an outcome, or a
JSON export without canonical key order): the observable result must
be bit-for-bit identical regardless of set/dict construction order,
i.e. independent of the interpreter's hash seed.
"""

import json
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel
from repro.registry.discovery import GossipDiscovery, _version_key
from repro.registry.p2p import AdaptiveReplicator, PeerIndex, PeerSwarm
from repro.scenarios import DiscoverySpec, ReplicationSpec
from repro.sim.engine import Simulator
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


_DEVICES = [f"dev-{i:02d}" for i in range(10)]
_FILLERS = [f"filler-{i}" for i in range(64)]


def _some(draw, names):
    """A drawn list of distinct ``names`` (empty when there are none)."""
    if not names:
        return []
    return draw(st.lists(st.sampled_from(names), unique=True))


@st.composite
def _members_and_view(draw):
    """A region's members and a management view, as name lists: empty,
    disjoint, nested (either way), equal, or arbitrary."""
    members = _some(draw, _DEVICES)
    others = [d for d in _DEVICES if d not in members]
    shape = draw(st.sampled_from(
        ("empty", "disjoint", "view-inside", "members-inside", "equal", "any")
    ))
    if shape == "empty":
        view = []
    elif shape == "disjoint":
        view = _some(draw, others)
    elif shape == "view-inside":
        view = _some(draw, members)
    elif shape == "members-inside":
        view = members + _some(draw, others)
    elif shape == "equal":
        view = list(members)
    else:
        view = _some(draw, _DEVICES)
    return members, view


def _built(names, fillers):
    """The set of ``names``, inserted in their order; with ``fillers``
    its table first grew for 64 more names, so it iterates in another
    order."""
    out = set(_FILLERS) if fillers else set()
    out.update(names)
    out.difference_update(_FILLERS)
    return out


@settings(max_examples=200, deadline=None)
@given(
    sets=_members_and_view(),
    target=st.integers(min_value=1, max_value=4),
    # Availabilities of 0.5 and 1.0 sum to the target exactly.
    weights=st.lists(
        st.one_of(
            st.sampled_from((0.5, 1.0)),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=len(_DEVICES), max_size=len(_DEVICES),
    ),
    data=st.data(),
)
def test_provisioned_is_a_threshold_on_the_replicas_found(
    sets, target, weights, data
):
    members, view = sets
    plain, weighted = (
        AdaptiveReplicator(
            Simulator(), PeerSwarm(NetworkModel()),
            ReplicationSpec(target_replicas=target), churn=churn,
        )
        for churn in (None, _StubChurn(dict(zip(_DEVICES, weights))))
    )
    member_set, view_set = set(members), frozenset(view)
    found = member_set & view_set
    for replicator, answer in (
        (plain, len(found) >= target),
        (weighted, weighted._effective_replicas(found) >= target),
    ):
        assert replicator._provisioned(member_set, view_set) is answer
        # The same sets built in another order give the same answer.
        reordered = (
            _built(data.draw(st.permutations(members)), data.draw(st.booleans())),
            frozenset(
                _built(data.draw(st.permutations(view)), data.draw(st.booleans()))
            ),
        )
        assert replicator._provisioned(*reordered) is answer


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
        g = GossipDiscovery(
            Simulator(), DiscoverySpec(backend="gossip", gossip_view_cap=2)
        )
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
