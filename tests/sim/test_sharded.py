"""Differential tests for the closure engine's region-sharded index.

``incremental=True`` keeps the closure-local rate solve and shards the
*deadline index*: per-region heaps under a lazy shard-front heap, one
global wake armed at the minimum front.  Its contract against the
single global heap it replaced (kept frozen in ``index_oracle.py``) is
that the event sequence — every wake instant, every settle, every
recompute — is **bit-identical** on the same trace, because the front
heap's minimum valid deadline always equals the single heap's.  The
tests here assert exact (``==``, not approx) end times and exact
``transfers_visited`` equality against that oracle, plus the usual
self-checked rate identity against the full solve.

Cross-shard transfers (paths mixing links owned by different regions
and the trunk) need no special merge machinery — the dirty-closure
walk already crosses shard boundaries by following the shared links —
so the traces here deliberately route traffic across regions.
"""

import hashlib
import json
import math

import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from index_oracle import SingleHeapEngine
from test_transfers import MB, run_transfer, star_network

from repro import scenarios
from repro.model.network import TRUNK, NetworkModel
from repro.scenarios import SimulationSession
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine


# ----------------------------------------------------------------------
# a regioned topology: LAN islands + per-region trunk slices
# ----------------------------------------------------------------------
def regioned_network(
    n_regions: int = 3,
    per_region: int = 2,
    trunk_mbps: float = 120.0,
    cross_mbps: float = 60.0,
) -> NetworkModel:
    """``origin`` fanned out over ``n_regions`` LAN islands.

    Devices are ``r{R}d{i}``; each island is a full LAN mesh, the
    registry reaches every device through that region's trunk slice
    (``up:origin@R*``), and every cross-region device pair is bridged
    by a slower WAN channel — a trunk-shard link — so traces can
    route transfers whose paths mix shard owners.
    """
    network = NetworkModel()
    regions = [f"R{r}" for r in range(n_regions)]
    members = {}
    for region in regions:
        names = [f"{region.lower()}d{i}" for i in range(per_region)]
        members[region] = names
        for name in names:
            network.set_region(name, region)
            network.connect_registry("origin", name, 90.0, rtt_s=0.01)
        network.connect_device_mesh(names, 400.0)
        network.set_regional_uplink("origin", region, trunk_mbps)
    for r, region in enumerate(regions):
        for other in regions[r + 1:]:
            for here in members[region]:
                for there in members[other]:
                    network.connect_devices(here, there, cross_mbps)
    return network


def _device_names(n_regions=3, per_region=2):
    return [
        f"r{r}d{i}" for r in range(n_regions) for i in range(per_region)
    ]


#: (source index, destination index, size, start) over the regioned
#: device list — index collisions mean "pull from the registry", like
#: the incremental suite, so registry trunk slices stay exercised.
region_trace_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=400 * MB),
        st.floats(min_value=0.0, max_value=25.0),
    ),
    min_size=1,
    max_size=14,
)

cancel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=13),
        st.floats(min_value=0.1, max_value=40.0),
        st.booleans(),
    ),
    max_size=4,
)


def _run_regioned_trace(
    specs, cancels, engine_cls=TransferEngine, **engine_kw
):
    """Replay one start/cancel trace over the regioned topology."""
    network = regioned_network()
    names = _device_names()
    sim = Simulator()
    engine = engine_cls(sim, network, **engine_kw)
    runs = []

    def launch(at_s, src, dst, size):
        yield sim.timeout(at_s)
        record = run_transfer(
            sim, engine, src, dst, size, src_is_registry=(src == "origin")
        )
        record["requested"] = sim.now
        runs.append(record)

    def axe(at_s, index, many):
        yield sim.timeout(at_s)
        if index >= len(runs):
            return
        victim = runs[index].get("transfer")
        if victim is None:
            return
        if many:
            engine.cancel_many([victim], "trace")
        else:
            engine.cancel(victim, "trace")

    for src_i, dst_i, size, at_s in specs:
        src = "origin" if src_i == dst_i else names[src_i]
        sim.process(launch(at_s, src, names[dst_i], size))
    for index, at_s, many in cancels:
        sim.process(axe(at_s, index, many))
    sim.run()
    return engine, runs


# ----------------------------------------------------------------------
# the differential properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(specs=region_trace_specs)
def test_sharded_rates_match_full_on_cross_region_traces(specs):
    """self_check re-solves the whole system after every recompute and
    asserts rate-for-rate equality — including closures that span
    several region shards plus the trunk."""
    engine, _ = _run_regioned_trace(
        specs, [], incremental=True, self_check=True
    )
    assert engine.completed == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(specs=region_trace_specs, cancels=cancel_specs)
def test_sharded_rates_match_full_under_churn_cancellation(specs, cancels):
    engine, _ = _run_regioned_trace(
        specs, cancels, incremental=True, self_check=True
    )
    assert engine.completed + engine.cancellations == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(specs=region_trace_specs, cancels=cancel_specs)
def test_sharded_is_bit_identical_to_incremental(specs, cancels):
    """The index contract: the same trace through the sharded index
    and the frozen single heap must give *exactly* equal completion
    instants (no approx — the sharded wake fires at the same instants,
    settling the same chunkings) and exactly equal recompute work."""
    inc, inc_runs = _run_regioned_trace(
        specs, cancels, engine_cls=SingleHeapEngine
    )
    sh, sh_runs = _run_regioned_trace(specs, cancels, incremental=True)
    assert sh.completed == inc.completed
    assert sh.cancellations == inc.cancellations
    assert sh.transfers_visited == inc.transfers_visited
    for a, b in zip(inc_runs, sh_runs):
        assert a["requested"] == b["requested"]
        assert b["end"] == a["end"]  # exact, not approx
        assert b["ok"] == a["ok"]


@settings(max_examples=40, deadline=None)
@given(specs=region_trace_specs)
def test_full_and_sharded_timelines_agree(specs):
    """Against the full engine the usual settling-noise tolerance
    applies (different chunking), like the incremental suite."""
    full, full_runs = _run_regioned_trace(specs, [])
    sh, sh_runs = _run_regioned_trace(specs, [], incremental=True)
    assert full.completed == sh.completed == len(specs)
    assert sh.transfers_visited <= full.transfers_visited
    for a, b in zip(full_runs, sh_runs):
        assert b["end"] == pytest.approx(a["end"], rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(  # duplicate-heavy endgame: many pulls of one size
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.floats(min_value=0.0, max_value=2.0),
        ),
        min_size=2,
        max_size=10,
    ),
)
def test_endgame_duplicate_finishes_stay_identical(specs):
    """Same-size transfers finishing at the same instant exercise the
    multi-finish wake path (ties broken by transfer id in both
    indexes); the traces must still agree exactly."""
    trace = [(s, d, 64 * MB, at) for s, d, at in specs]
    inc, inc_runs = _run_regioned_trace(
        trace, [], engine_cls=SingleHeapEngine
    )
    sh, sh_runs = _run_regioned_trace(trace, [], incremental=True)
    assert sh.completed == inc.completed == len(trace)
    assert sh.transfers_visited == inc.transfers_visited
    for a, b in zip(inc_runs, sh_runs):
        assert b["end"] == a["end"]


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=1, max_value=400 * MB),
            st.floats(min_value=0.0, max_value=25.0),
        ),
        min_size=1,
        max_size=14,
    ),
    uplink=st.sampled_from([None, 60.0, 150.0]),
)
def test_sharded_on_unsharded_topology_matches_incremental(specs, uplink):
    """A topology with no regions at all degenerates to one trunk
    shard; the engine must still replay the single-heap traces
    exactly (the star network is the incremental suite's fixture)."""
    def run(engine_cls, **kw):
        network = star_network(n_devices=5, uplink_mbps=uplink)
        sim = Simulator()
        engine = engine_cls(sim, network, **kw)
        runs = []

        def launch(at_s, src, dst, size):
            yield sim.timeout(at_s)
            runs.append(run_transfer(
                sim, engine, src, dst, size,
                src_is_registry=(src == "origin"),
            ))

        for src_i, dst_i, size, at_s in specs:
            src = "origin" if src_i == dst_i else f"d{src_i}"
            sim.process(launch(at_s, src, f"d{dst_i}", size))
        sim.run()
        return engine, runs

    inc, inc_runs = run(SingleHeapEngine)
    sh, sh_runs = run(TransferEngine, incremental=True)
    assert sh.completed == inc.completed == len(specs)
    assert sh.transfers_visited == inc.transfers_visited
    assert set(sh.shard_fronts()) <= {TRUNK}
    for a, b in zip(inc_runs, sh_runs):
        assert b["end"] == a["end"]


# ----------------------------------------------------------------------
# shard bookkeeping
# ----------------------------------------------------------------------
class TestShardIndex:
    def test_shards_materialise_per_region_plus_trunk(self):
        network = regioned_network(n_regions=3)
        names = _device_names()
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=True)
        # registry pull into each region + one cross-region pull
        for name in names:
            run_transfer(
                sim, engine, "origin", name, 64 * MB, src_is_registry=True
            )
        run_transfer(sim, engine, "r0d1", "r1d0", 64 * MB)
        fronts = {}

        def probe():
            # past the handshake RTT, before anything completes: every
            # transfer is active and indexed.
            yield sim.timeout(0.1)
            fronts.update(engine.shard_fronts())

        sim.process(probe())
        sim.run()
        assert {"R0", "R1", "R2"} <= set(fronts)
        # the cross-region pull's path is all trunk-owned (WAN channel,
        # no region in common), so a trunk heap exists with a live
        # front at probe time.
        assert TRUNK in fronts
        assert all(front < math.inf for front in fronts.values())
        assert engine.completed == len(names) + 1
        assert all(
            front == math.inf for front in engine.shard_fronts().values()
        )

    def test_link_shard_reassignment_is_loud(self):
        network = regioned_network()
        sim = Simulator()
        engine = TransferEngine(sim, network, incremental=True)
        engine._link("up:origin@R0", 120.0, shard="R0")
        with pytest.raises(ValueError, match="shard"):
            engine._link("up:origin@R0", 120.0, shard="R1")


# ----------------------------------------------------------------------
# preset-level outcome identity: both spec names pin one outcome
# ----------------------------------------------------------------------
_TIME_RESOLVED_PRESETS = [
    name
    for name in scenarios.names()
    if scenarios.get(name).transfer.model.value == "time-resolved"
]

#: Outcome digests of the time-resolved presets (swarm presets shrunk
#: to 120 devices in at most 6 regions) on the closure engine, as
#: pinned when ``"incremental"`` still ran a single global deadline
#: heap: the first 8 hex digits of the sha256 of the sorted-key JSON of
#: the deterministic outcome dict.
_PRESET_DIGESTS = {
    "p2p-chunked": "6659e5ec",
    "p2p-contended": "a5a733bf",
    "p2p-swarm-scale": "d900a02d",
    "p2p-swarm-100k": "23b18a5f",
}


def _outcome_digest(outcome) -> str:
    deterministic = scenarios.deterministic_outcome_dict(outcome.to_dict())
    blob = json.dumps(deterministic, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:8]


@pytest.mark.parametrize("preset", _TIME_RESOLVED_PRESETS)
def test_preset_outcomes_match_incremental_engine(preset):
    """Every registered time-resolved preset replayed through the
    closure engine under either spec name must reproduce its pinned
    outcome digest *exactly* — including ``engine_transfers_visited``
    (the swarm presets are downsized so the run stays test-sized)."""
    assert preset in _PRESET_DIGESTS, f"pin a digest for {preset!r}"
    base = scenarios.get(preset)
    if base.topology.n_devices > 200:
        base = replace(
            base,
            topology=replace(
                base.topology,
                n_devices=120,
                n_regions=min(base.topology.n_regions, 6),
            ),
        )
    for recompute in ("incremental", "sharded"):
        spec = replace(
            base, transfer=replace(base.transfer, recompute=recompute)
        )
        session = SimulationSession(spec)
        assert session.engine.incremental
        session.engine.self_check = True
        digest = _outcome_digest(session.run())
        assert digest == _PRESET_DIGESTS[preset], recompute
