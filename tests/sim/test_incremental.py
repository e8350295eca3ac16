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
from repro.model.network import NetworkModel
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
# the fill kernel is pinned against a frozen copy of the old one
# ----------------------------------------------------------------------
class OracleEngine(TransferEngine):
    """Rates from the frozen reference fill instead of the live kernel
    (same bookkeeping otherwise), so a trace replayed through it is the
    pre-rewrite engine's timeline."""

    def _fill(self, transfers, links, record=None):
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
    fill: exact rate equality per recompute.  The link table the fill
    is handed is checked first: it lists every link the fill's
    transfers cross, each seeded at its capacity and occupancy; every
    occupant of a listed link is in the fill; and a listed link no fill
    transfer crosses is empty.  ``tables`` keeps each closure fill's
    table as handed in, keyed by link name."""

    def __init__(self, sim, network, **kwargs):
        super().__init__(sim, network, **kwargs)
        self.tables = []

    def _fill(self, transfers, links, record=None):
        involved = {link for t in transfers.values() for link in t.links}
        assert involved <= links.keys(), self.sim.now
        for link, (capacity, count) in links.items():
            assert capacity == link.capacity_mbps, link.name
            assert count == len(link.transfers), link.name
            assert link.transfers.keys() <= transfers.keys(), link.name
            assert link in involved or count == 0, link.name
        if record is None:
            self.tables.append(
                {link.name: list(state) for link, state in links.items()}
            )
        super()._fill(transfers, links, record)
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


class TestFillRules:
    """Hand-solved fills for the kernel's two shortcuts: the closure
    walk hands the fill its link table, and the round whose bottleneck
    carries every unfrozen transfer is the last.  Each runs on
    :class:`CheckedEngine`, so every fill also matches the frozen
    reference exactly."""

    def test_first_bottleneck_short_of_the_component_is_not_last(self):
        """Three pulls share a 100 Mbit/s registry uplink; d0's own
        channel (20) is the first bottleneck but carries one of the
        three.  The uplink then splits its remaining 80 between the
        other two, and the last round must leave d0's 20 alone."""
        network = NetworkModel()
        for device, mbps in (("d0", 20.0), ("d1", 80.0), ("d2", 80.0)):
            network.connect_registry("origin", device, mbps)
        network.set_uplink("origin", 100.0)
        engine = CheckedEngine(Simulator(), network)
        pulls = [
            engine.start("origin", device, 400 * MB, src_is_registry=True)
            for device in ("d0", "d1", "d2")
        ]
        assert [t.rate_mbps for t in pulls] == [20.0, 40.0, 40.0]
        table = engine.tables[-1]
        assert table["up:origin"] == [100.0, 3]
        assert table["chan:origin->d0"] == [20.0, 1]

    def test_closure_of_two_components(self):
        """A batch cancel on two separate seeders re-solves both
        components in one closure, whose table also holds the two
        channels the victims emptied.  d3's uplink (60 over two) is the
        first bottleneck; d0's (100 over two) carries what is left."""
        network = NetworkModel()
        devices = [f"d{i}" for i in range(6)]
        network.connect_device_mesh(devices, 800.0)
        network.set_uplink("d0", 100.0)
        network.set_uplink("d3", 60.0)
        sim = Simulator()
        engine = CheckedEngine(sim, network)
        runs = [
            run_transfer(sim, engine, src, dst, 400 * MB)
            for src, dst in (
                ("d0", "d1"), ("d0", "d2"), ("d0", "d5"),
                ("d3", "d4"), ("d3", "d5"), ("d3", "d2"),
            )
        ]
        sim.run(until=1.0)
        x1, x2, x_victim, y1, y2, y_victim = (r["transfer"] for r in runs)
        fills = len(engine.tables)
        assert engine.cancel_many([x_victim, y_victim], "test") == 2
        assert len(engine.tables) == fills + 1  # one fill for both
        assert [t.rate_mbps for t in (x1, x2, y1, y2)] == [
            50.0, 50.0, 30.0, 30.0
        ]
        table = engine.tables[-1]
        assert table["up:d0"] == [100.0, 2]
        assert table["up:d3"] == [60.0, 2]
        assert table["chan:d0->d5"] == [800.0, 0]
        assert table["chan:d3->d2"] == [800.0, 0]
        # One deadline entry per component, not one for the closure.
        assert x1.component is x2.component
        assert y1.component is y2.component
        assert x1.component is not y1.component
        sim.run()
        assert engine.completed == 4
        assert [r["ok"] for r in runs] == [True, True, False] * 2

    def test_finish_that_empties_a_seed_link(self):
        """d0's short push to d1 finishes first and leaves its channel
        empty: the re-solve's table lists that channel first, with no
        occupant, and the fill skips it.  The registry pull stays at its
        30 Mbit/s channel and the other push takes the downlink's
        remaining 70."""
        network = NetworkModel()
        network.connect_device_mesh(["d0", "d1", "d2"], 800.0)
        network.connect_registry("origin", "d1", 30.0)
        network.set_downlink("d1", 100.0)
        sim = Simulator()
        engine = CheckedEngine(sim, network)
        short = engine.start("d0", "d1", 10 * MB)
        pull = engine.start("origin", "d1", 400 * MB, src_is_registry=True)
        push = engine.start("d2", "d1", 400 * MB)
        assert [t.rate_mbps for t in (short, pull, push)] == [
            35.0, 30.0, 35.0
        ]
        sim.run(until=3.0)
        assert short.completed_s == pytest.approx(80.0 / 35.0)
        table = engine.tables[-1]
        assert next(iter(table)) == "chan:d0->d1"
        assert table["chan:d0->d1"] == [800.0, 0]
        assert table["down:d1"] == [100.0, 2]
        assert [pull.rate_mbps, push.rate_mbps] == [30.0, 70.0]
        sim.run()
        assert engine.completed == 3


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
