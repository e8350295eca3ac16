"""Differential tests for the engine's dirty-closure recompute.

The engine's contract is **bit-identical rates**: on every
start/finish/cancel it re-solves only the dirty closure — the
connected component(s) of the transfer–link graph the event perturbed
— and because max-min fairness decomposes exactly over components,
the closure solution must equal the full solve.  ``self_check=True``
re-derives the full scalar solution after every recompute and raises
on any mismatch, so the Hypothesis traces here fail loudly on the
first divergent rate instead of on a downstream timing drift.

Whole timelines are compared against :class:`FullModeEngine`
(``full_oracle.py``), a frozen copy of the full mode that re-solved
every active transfer on every event.  Completion *times* are compared
with a tight relative tolerance, not exactly: the two settle progress
in different chunkings (full mode advances every active transfer at
every event, the closure engine advances a transfer only when its
closure is touched), so the accumulated ``remaining_mb`` values can
differ by float rounding even though every instantaneous rate is
identical.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fill_oracle import reference_fill
from full_oracle import FullModeEngine
from test_transfers import MB, run_transfer, star_network

from repro import scenarios
from repro.scenarios import SimulationSession
from repro.sim.engine import Simulator
from repro.sim.transfers import TransferEngine


# ----------------------------------------------------------------------
# trace machinery
# ----------------------------------------------------------------------
trace_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),  # source device index
        st.integers(min_value=0, max_value=4),  # destination device index
        st.integers(min_value=1, max_value=400 * MB),  # size
        st.floats(min_value=0.0, max_value=25.0),  # start time
    ),
    min_size=1,
    max_size=14,
)

#: (victim index into the started list, cancel time, use cancel_many)
cancel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=13),
        st.floats(min_value=0.1, max_value=40.0),
        st.booleans(),
    ),
    max_size=4,
)


def _run_trace(
    specs, cancels, uplink, downlink, engine_cls=TransferEngine, **engine_kw
):
    """Replay one start/cancel trace; returns (engine, run records)."""
    network = star_network(
        n_devices=5, uplink_mbps=uplink, downlink_mbps=downlink
    )
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
        # A launch resumed at this same instant has appended its record
        # but its transfer process hasn't called start() yet — nothing
        # to cancel, skip (deterministically: event order is seeded).
        victim = runs[index].get("transfer")
        if victim is None:
            return
        if many:
            engine.cancel_many([victim], "trace")
        else:
            engine.cancel(victim, "trace")

    for src_i, dst_i, size, at_s in specs:
        src = "origin" if src_i == dst_i else f"d{src_i}"
        sim.process(launch(at_s, src, f"d{dst_i}", size))
    for index, at_s, many in cancels:
        sim.process(axe(at_s, index, many))
    sim.run()
    return engine, runs


# ----------------------------------------------------------------------
# the differential properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    specs=trace_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_incremental_rates_match_full_on_random_traces(
    specs, uplink, downlink
):
    """self_check re-solves the whole system after every closure
    recompute and asserts rate-for-rate equality."""
    engine, runs = _run_trace(
        specs, [], uplink, downlink, self_check=True
    )
    assert engine.completed == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    specs=trace_specs,
    cancels=cancel_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
)
def test_incremental_rates_match_full_under_cancellation(
    specs, cancels, uplink
):
    engine, runs = _run_trace(
        specs, cancels, uplink, None, self_check=True
    )
    assert engine.completed + engine.cancellations == len(specs)
    assert not engine.active_transfers
    assert engine.peak_oversubscription() <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_full_and_incremental_timelines_agree(specs, uplink, downlink):
    """Same trace through the full-mode oracle and the closure engine:
    every transfer completes at the same instant up to settling-order
    float noise."""
    full, full_runs = _run_trace(
        specs, [], uplink, downlink, engine_cls=FullModeEngine
    )
    inc, inc_runs = _run_trace(specs, [], uplink, downlink)
    assert full.completed == inc.completed == len(specs)
    for a, b in zip(full_runs, inc_runs):
        assert a["requested"] == b["requested"]
        assert b["end"] == pytest.approx(a["end"], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    specs=trace_specs,
    uplink=st.sampled_from([60.0, 150.0]),
)
def test_incremental_never_visits_more_transfers(specs, uplink):
    """The dirty closure is a subset of the active set, so the visited
    counter — the work metric the scale benchmarks compare — can never
    exceed full mode's on the same trace."""
    full, _ = _run_trace(specs, [], uplink, None, engine_cls=FullModeEngine)
    inc, _ = _run_trace(specs, [], uplink, None)
    assert inc.transfers_visited <= full.transfers_visited


def test_independent_components_stay_untouched():
    """Three disjoint peer pairs: each event's closure is exactly one
    transfer, so closure work stays linear while full mode re-rates
    every active transfer per event."""
    def build(engine_cls):
        network = star_network(n_devices=6)
        sim = Simulator()
        engine = engine_cls(sim, network)
        runs = []

        def launch(at_s, src, dst):
            yield sim.timeout(at_s)
            runs.append(run_transfer(sim, engine, src, dst, 100 * MB))

        for i, (src, dst) in enumerate(
            [("d0", "d1"), ("d2", "d3"), ("d4", "d5")]
        ):
            sim.process(launch(0.5 * i, src, dst))
        sim.run()
        return engine, runs

    full, full_runs = build(FullModeEngine)
    inc, inc_runs = build(TransferEngine)
    assert full.completed == inc.completed == 3
    for a, b in zip(full_runs, inc_runs):
        assert b["end"] == pytest.approx(a["end"], rel=1e-12)
    # Each start re-rates exactly the new singleton; each finish
    # leaves an *empty* closure (the component dies with the
    # transfer), so only 3 visits total.  Full mode re-rates the
    # whole active set on every one of the 6 events.
    assert inc.transfers_visited == 3
    assert full.transfers_visited > inc.transfers_visited


# ----------------------------------------------------------------------
# pinned timelines: the exact numbers of the test_transfers unit tests
# ----------------------------------------------------------------------
class TestKnownTimelines:
    def test_late_arrival_shares_then_survivor_speeds_up(self):
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(
            sim, engine, "origin", "d0", 100 * MB, src_is_registry=True
        )
        b = {}

        def late():
            yield sim.timeout(5.0)
            transfer = engine.start(
                "origin", "d1", 100 * MB, src_is_registry=True
            )
            yield transfer.done
            b["end"] = sim.now

        sim.process(late())
        sim.run()
        assert a["end"] == pytest.approx(13.0)
        assert b["end"] == pytest.approx(18.0)

    def test_cancel_releases_bandwidth_immediately(self):
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(
            sim, engine, "origin", "d0", 100 * MB, src_is_registry=True
        )
        b = run_transfer(
            sim, engine, "origin", "d1", 100 * MB, src_is_registry=True
        )

        def axe():
            yield sim.timeout(4.0)
            engine.cancel(b["transfer"], "test")

        sim.process(axe())
        sim.run()
        assert b["ok"] is False and b["end"] == pytest.approx(4.0)
        assert a["end"] == pytest.approx(11.5)

    def test_cancel_does_not_drag_the_clock_to_the_stale_prediction(self):
        from repro.model.network import NetworkModel

        network = NetworkModel()
        network.connect_registry("origin", "d0", 1.0)  # finish at t=800
        sim = Simulator()
        engine = TransferEngine(sim, network)
        r = run_transfer(
            sim, engine, "origin", "d0", 100 * MB, src_is_registry=True
        )

        def axe():
            yield sim.timeout(1.0)
            engine.cancel(r["transfer"], "churn")

        sim.process(axe())
        end = sim.run()
        assert end == pytest.approx(1.0)  # not 800.0

    def test_zero_size_and_rtt_unchanged(self):
        network = star_network(rtt_s=1.5)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        zero = run_transfer(
            sim, engine, "origin", "d0", 0, src_is_registry=True
        )
        payload = run_transfer(
            sim, engine, "origin", "d1", 100 * MB, src_is_registry=True
        )
        sim.run()
        assert zero["end"] == pytest.approx(1.5)
        assert payload["end"] == pytest.approx(11.5)  # 1.5 rtt + 10 s


# ----------------------------------------------------------------------
# the fill kernel is pinned against a frozen copy of the old one
# ----------------------------------------------------------------------
class OracleEngine(TransferEngine):
    """Rates from the frozen reference fill instead of the live kernel
    (same bookkeeping otherwise), so a trace replayed through it is the
    pre-rewrite engine's timeline."""

    def _fill(self, transfers, record=None):
        assert record is None  # replayed without self_check
        rates = reference_fill(transfers)
        for tid, transfer in transfers.items():
            transfer.rate_mbps = rates[tid]
        self.transfers_visited += len(transfers)
        self._record_peaks(
            {link: None for t in transfers.values() for link in t.links}
        )


class CheckedEngine(TransferEngine):
    """The live kernel, compared with the frozen reference after every
    fill: exact rate equality per recompute."""

    def _fill(self, transfers, record=None):
        super()._fill(transfers, record)
        if record is None:
            actual = {tid: t.rate_mbps for tid, t in transfers.items()}
            assert actual == reference_fill(transfers), self.sim.now


#: Traces dense enough that fills take several bottleneck rounds:
#: payloads big enough to overlap, starts packed into a few seconds.
overlapping_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=20 * MB, max_value=400 * MB),
        st.floats(min_value=0.0, max_value=8.0),
    ),
    min_size=2,
    max_size=14,
)


@settings(max_examples=60, deadline=None)
@given(
    specs=overlapping_specs,
    cancels=cancel_specs,
    uplink=st.sampled_from([60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_fill_kernel_matches_frozen_reference(
    specs, cancels, uplink, downlink
):
    """Shared registry egress (``uplink`` shapes the origin too) and
    random cancellations: every fill's rates equal the frozen
    reference's exactly, and so every end time equals the reference
    engine's exactly."""
    checked, checked_runs = _run_trace(
        specs, cancels, uplink, downlink, engine_cls=CheckedEngine
    )
    oracle, oracle_runs = _run_trace(
        specs, cancels, uplink, downlink, engine_cls=OracleEngine
    )
    assert checked.recomputes == oracle.recomputes
    assert checked.transfers_visited == oracle.transfers_visited
    assert [r["end"] for r in checked_runs] == [r["end"] for r in oracle_runs]
    assert [r["ok"] for r in checked_runs] == [r["ok"] for r in oracle_runs]


# ----------------------------------------------------------------------
# late simulated times: sub-ulp residues must finish, not livelock
# ----------------------------------------------------------------------
class BoundedEngine(TransferEngine):
    """Raises instead of spinning when recomputes run away."""

    def _recompute(self, seeds):
        if self.recomputes > 100:
            raise RuntimeError(f"recompute livelock at t={self.sim.now}")
        super()._recompute(seeds)


@pytest.mark.parametrize("sizes", [
    (72136255, 305589002, 33880219),
    (30360788, 49169211, 45565308),
    (127756288, 318171667, 292180842),
])
def test_late_transfers_finish_without_livelock(sizes):
    """Three registry pulls on their own 1 Gbit/s channels, started at
    t=1e6 s, where one ulp of the clock is ~1e-10 s.  Settling leaves a
    residue above the finish threshold whose predicted completion
    rounds back to ``now``; without the force-finish rule the wake
    would re-arm at ``now`` forever."""
    from repro.model.network import NetworkModel

    network = NetworkModel()
    for i in range(len(sizes)):
        network.connect_registry("origin", f"d{i}", 1000.0)
    sim = Simulator()
    engine = BoundedEngine(sim, network)
    ends = {}

    def launch(i, size):
        yield sim.timeout(1e6)
        transfer = engine.start("origin", f"d{i}", size, src_is_registry=True)
        yield transfer.done
        ends[i] = sim.now

    for i, size in enumerate(sizes):
        sim.process(launch(i, size))
    sim.run()
    assert engine.completed == len(sizes)
    for i, size in enumerate(sizes):
        assert ends[i] == pytest.approx(1e6 + size * 8 / 1e9, abs=1e-6)


# ----------------------------------------------------------------------
# the experiment presets match the frozen full-mode engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preset", ["p2p-contended", "p2p-chunked"])
def test_preset_outcomes_match_full_engine(preset, monkeypatch):
    """The two time-resolved experiment presets through the closure
    engine (with self_check on) must reproduce the frozen full-mode
    engine's outcomes: counts and byte totals exactly, clock-derived
    floats to within settling noise."""
    base = scenarios.get(preset)
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.scenarios.session.TransferEngine", FullModeEngine
        )
        reference_session = SimulationSession(base)
    assert type(reference_session.engine) is FullModeEngine
    full = reference_session.run()
    session = SimulationSession(base)
    session.engine.self_check = True
    inc = session.run()
    # Compare the deterministic surface; wall-clock fields differ
    # between any two runs by nature.
    reference = scenarios.deterministic_outcome_dict(full.to_dict())
    candidate = scenarios.deterministic_outcome_dict(inc.to_dict())
    assert set(reference) == set(candidate)
    for key, expected in reference.items():
        actual = candidate[key]
        if key == "engine_transfers_visited":
            # The one field the two *must* disagree on: both presets
            # couple their pulls through shared egress, where visiting
            # fewer transfers per event is the closure engine's reason
            # to exist.  Equal counts would mean the oracle no longer
            # runs full mode and the comparison is vacuous.
            assert 0 < actual < expected, key
        elif isinstance(expected, float):
            assert actual == pytest.approx(expected, rel=1e-12), key
        else:
            assert actual == expected, key
