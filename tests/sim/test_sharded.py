"""Differential tests for the engine's component deadline index.

The engine indexes predicted completions with one lazy heap entry per
solved connected component, keyed by its earliest member deadline,
under one armed wake.  Its contract against the per-transfer single
global heap it replaced (kept frozen in ``index_oracle.py``) is that
the event sequence — every wake instant, every settle, every
recompute — is **bit-identical** on the same trace, because the
minimum over live component entries always equals the single heap's
minimum valid deadline.  The tests here assert exact (``==``, not
approx) end times and exact ``transfers_visited`` equality against
that oracle, plus the usual self-checked rate identity against the
full solve.  Every oracle run also asserts that the live component
heap stayed empty, so a live method shadowing the oracle's frozen one
cannot turn a comparison into the engine against itself.

The traces deliberately route traffic across regions (paths mixing
links owned by different regions and the trunk), so one closure often
spans several components and one component often spans several
regions.
"""

import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from full_oracle import FullModeEngine
from index_oracle import SingleHeapEngine
from test_transfers import MB, run_transfer, star_network

from repro import scenarios
from repro.model.network import NetworkModel
from repro.scenarios import SimulationSession
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine
from repro.telemetry import DEADLINE_HEAP, EngineProfile


def _assert_live_index_unused(oracle) -> None:
    """The oracle ran its own frozen index: the live component heap
    stayed empty for the whole run (each push onto it draws one
    sequence number)."""
    assert not oracle._deadlines
    assert next(oracle._deadline_seq) == 0


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
    engine, _ = _run_regioned_trace(specs, [], self_check=True)
    assert engine.completed == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(specs=region_trace_specs, cancels=cancel_specs)
def test_sharded_rates_match_full_under_churn_cancellation(specs, cancels):
    engine, _ = _run_regioned_trace(specs, cancels, self_check=True)
    assert engine.completed + engine.cancellations == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=50, deadline=None)
@given(specs=region_trace_specs, cancels=cancel_specs)
def test_sharded_is_bit_identical_to_incremental(specs, cancels):
    """The index contract: the same trace through the component index
    and the frozen single heap must give *exactly* equal completion
    instants (no approx — the component wake fires at the same
    instants, settling the same chunkings) and exactly equal recompute
    work."""
    inc, inc_runs = _run_regioned_trace(
        specs, cancels, engine_cls=SingleHeapEngine
    )
    _assert_live_index_unused(inc)
    sh, sh_runs = _run_regioned_trace(specs, cancels)
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
    """Against the frozen full-mode engine the usual settling-noise
    tolerance applies (different chunking), like the
    ``test_incremental`` suite."""
    full, full_runs = _run_regioned_trace(
        specs, [], engine_cls=FullModeEngine
    )
    _assert_live_index_unused(full)
    sh, sh_runs = _run_regioned_trace(specs, [])
    assert full.completed == sh.completed == len(specs)
    assert sh.transfers_visited <= full.transfers_visited
    for a, b in zip(full_runs, sh_runs):
        assert b["end"] == pytest.approx(a["end"], rel=1e-12)


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
    _assert_live_index_unused(inc)
    sh, sh_runs = _run_regioned_trace(trace, [])
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
    """A topology with no regions at all (every link on the trunk,
    shared registry egress coupling the pulls) must still replay the
    single-heap traces exactly (the star network is the incremental
    suite's fixture)."""
    def run(engine_cls):
        network = star_network(n_devices=5, uplink_mbps=uplink)
        sim = Simulator()
        engine = engine_cls(sim, network)
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
    _assert_live_index_unused(inc)
    sh, sh_runs = run(TransferEngine)
    assert sh.completed == inc.completed == len(specs)
    assert sh.transfers_visited == inc.transfers_visited
    for a, b in zip(inc_runs, sh_runs):
        assert b["end"] == a["end"]


# ----------------------------------------------------------------------
# index bookkeeping
# ----------------------------------------------------------------------
def _replay_registry_pulls(engine_cls, pulls, churn, **engine_kw):
    """Registry pulls ``(dst, size)`` over two regions, plus a
    ``churn(sim, engine, runs)`` process; returns engine and runs."""
    network = regioned_network(n_regions=2)
    sim = Simulator()
    engine = engine_cls(sim, network, **engine_kw)
    runs = {
        dst: run_transfer(
            sim, engine, "origin", dst, size, src_is_registry=True
        )
        for dst, size in pulls
    }
    sim.process(churn(sim, engine, runs))
    sim.run()
    return engine, runs


def _assert_matches_oracle(pulls, churn):
    oracle, oracle_runs = _replay_registry_pulls(
        SingleHeapEngine, pulls, churn
    )
    _assert_live_index_unused(oracle)
    engine, runs = _replay_registry_pulls(
        TransferEngine, pulls, churn, self_check=True
    )
    assert engine.completed == oracle.completed
    assert engine.cancellations == oracle.cancellations
    assert engine.transfers_visited == oracle.transfers_visited
    assert not engine.active_transfers
    for name, record in runs.items():
        assert record["end"] == oracle_runs[name]["end"], name
        assert record["ok"] == oracle_runs[name]["ok"], name
    return engine


class TestComponentIndex:
    def test_closure_spanning_two_components_keeps_both_deadlines(self):
        """One batch cancel leaves a closure of two disjoint components
        (R0's and R1's surviving pulls); re-solving R0 alone later must
        not drop R1's deadline.  Indexing the closure as one entry
        would retire R1's survivor along with R0's."""
        def churn(sim, engine, runs):
            yield sim.timeout(1.0)
            engine.cancel_many(
                [runs["r0d0"]["transfer"], runs["r1d0"]["transfer"]],
                "trace",
            )
            yield sim.timeout(1.0)
            runs["again"] = run_transfer(
                sim, engine, "origin", "r0d0", 64 * MB, src_is_registry=True
            )

        pulls = [(dst, 64 * MB) for dst in ("r0d0", "r0d1", "r1d0", "r1d1")]
        engine = _assert_matches_oracle(pulls, churn)
        assert engine.completed == 3
        assert engine.cancellations == 2

    def test_cancelling_a_lone_transfer_retires_its_deadline(self):
        """A cancelled transfer alone in its component leaves an empty
        closure, so only ``_detach`` can retire its heap entry; a live
        stale entry would later "finish" the cancelled transfer."""
        def churn(sim, engine, runs):
            yield sim.timeout(1.0)
            engine.cancel(runs["r0d0"]["transfer"], "trace")

        pulls = [("r0d0", 64 * MB), ("r1d0", 640 * MB)]
        engine = _assert_matches_oracle(pulls, churn)
        assert engine.completed == 1
        assert engine.cancellations == 1


class TestShardIndex:
    def test_link_shard_reassignment_is_loud(self):
        network = regioned_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        engine._link("up:origin@R0", 120.0, shard="R0")
        with pytest.raises(ValueError, match="shard"):
            engine._link("up:origin@R0", 120.0, shard="R1")


# ----------------------------------------------------------------------
# preset-level outcome identity
# ----------------------------------------------------------------------
_TIME_RESOLVED_PRESETS = [
    name
    for name in scenarios.names()
    if scenarios.get(name).transfer.time_resolved
]

#: The engine's work counters on the same runs: recomputes, then the
#: deadline heap's pushes, pops and invalidations.  The golden outcome
#: covers ``engine_transfers_visited`` but none of these, so a change
#: that only makes the engine faster must leave them equal too; one
#: that moves them updates the pin and says why.  Batching co-started
#: handshakes took p2p-chunked from (853, 809, 326, 483), the swarm
#: presets' recomputes from 2627 and 2639.
_PRESET_WORK = {
    "p2p-chunked": (614, 570, 326, 244),
    "p2p-contended": (176, 152, 88, 64),
    "p2p-swarm-scale": (2620, 1709, 1319, 390),
    "p2p-swarm-100k": (2638, 2621, 1320, 1301),
}


@pytest.mark.parametrize("preset", _TIME_RESOLVED_PRESETS)
def test_preset_outcomes_match_incremental_engine(golden, preset):
    """Every registered time-resolved preset replayed through the
    engine must reproduce its golden outcome *exactly* — including
    ``engine_transfers_visited`` — and its pinned work counters (the
    swarm presets are downsized so the run stays test-sized).  A preset
    that runs at full size shares its golden file with
    ``TestPresetOutcomes``."""
    assert preset in _PRESET_WORK, f"pin the work counters of {preset!r}"
    base = scenarios.get(preset)
    name = f"presets/{preset}.json"
    if base.topology.n_devices > 200:
        name = f"sharded/{preset}-120-devices.json"
        base = replace(
            base,
            topology=replace(
                base.topology,
                n_devices=120,
                n_regions=min(base.topology.n_regions, 6),
            ),
        )
    session = SimulationSession(base)
    session.engine.self_check = True
    profile = session.engine.profile = EngineProfile()
    outcome = session.run()
    golden(name, scenarios.deterministic_outcome_dict(outcome.to_dict()))
    heap = profile.summary()["heaps"][DEADLINE_HEAP]
    assert (
        session.engine.recomputes,
        heap["pushes"],
        heap["pops"],
        heap["invalidations"],
    ) == _PRESET_WORK[preset]
