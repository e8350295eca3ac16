"""Unit and property tests for the time-resolved transfer engine.

The Hypothesis invariants here are the acceptance bar of the engine:

(a) the sum of fair-share rates on any link never exceeds its
    capacity (max-min fairness never oversubscribes),
(b) no transfer completes faster than its uncontended ``size/BW``
    lower bound over the narrowest link of its path (plus RTT),
(c) cancelling a transfer releases its bandwidth immediately — the
    survivors speed up exactly as if the victim had never competed
    from that instant on.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel
from repro.model.units import MBIT_PER_MB, bytes_to_mb
from repro.scenarios import TRANSFER_MODELS, TransferSpec
from repro.sim.engine import Simulator
from repro.sim.transfers import (
    TransferCancelled,
    TransferEngine,
    UploadBudgetExceeded,
)

MB = 1_000_000


def star_network(
    n_devices: int = 4,
    channel_mbps: float = 80.0,
    uplink_mbps: float = None,
    downlink_mbps: float = None,
    rtt_s: float = 0.0,
) -> NetworkModel:
    """``origin`` registry fanned out to ``d0..dN`` plus a device mesh."""
    network = NetworkModel()
    names = [f"d{i}" for i in range(n_devices)]
    for name in names:
        network.connect_registry("origin", name, channel_mbps, rtt_s=rtt_s)
        if downlink_mbps is not None:
            network.set_downlink(name, downlink_mbps)
        if uplink_mbps is not None:
            network.set_uplink(name, uplink_mbps)
    network.connect_device_mesh(names, 800.0)
    if uplink_mbps is not None:
        network.set_uplink("origin", uplink_mbps)
    return network


def run_transfer(sim, engine, src, dst, size, **kw):
    """Start a transfer inside a process; record (end_time, ok)."""
    result = {}

    def proc():
        transfer = engine.start(src, dst, size, **kw)
        result["transfer"] = transfer
        try:
            yield transfer.done
            result["end"] = sim.now
            result["ok"] = True
        except TransferCancelled as exc:
            result["end"] = sim.now
            result["ok"] = False
            result["reason"] = exc.reason

    sim.process(proc())
    return result


class TestTransferModel:
    def test_two_models_exist(self):
        assert TRANSFER_MODELS == ("analytic", "time-resolved")
        # Only the time-resolved model routes pulls through this engine.
        assert [TransferSpec(model=m).time_resolved
                for m in TRANSFER_MODELS] == [False, True]


class TestSingleTransfer:
    def test_uncontended_matches_analytic_time(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        r = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)
        sim.run()
        # 100 MB over 80 Mbit/s = 10 s, same as the analytic model.
        assert r["end"] == pytest.approx(10.0)
        t = r["transfer"]
        assert t.completed_s - t.requested_s == pytest.approx(10.0)

    def test_rtt_charged_once(self):
        network = star_network(rtt_s=2.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        r = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)
        sim.run()
        assert r["end"] == pytest.approx(12.0)

    def test_zero_size_completes_after_latency_only(self):
        # Alone, and beside a 100 MB transfer it must not delay
        # (1.5 s RTT + 100 MB at 80 Mbit/s = 11.5 s).
        for with_payload in (False, True):
            network = star_network(rtt_s=1.5)
            sim = Simulator()
            engine = TransferEngine(sim, network)
            r = run_transfer(sim, engine, "origin", "d0", 0, src_is_registry=True)
            if with_payload:
                payload = run_transfer(
                    sim, engine, "origin", "d1", 100 * MB, src_is_registry=True
                )
            sim.run()
            assert r["end"] == pytest.approx(1.5)
            assert engine.completed == 1 + with_payload
            if with_payload:
                assert payload["end"] == pytest.approx(11.5)

    def test_loopback_is_instant(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        r = run_transfer(sim, engine, "d0", "d0", 100 * MB)
        sim.run()
        assert r["end"] == 0.0

    def test_negative_size_rejected(self):
        network = star_network()
        engine = TransferEngine(Simulator(), network)
        with pytest.raises(ValueError):
            engine.start("origin", "d0", -1, src_is_registry=True)


class TestFairSharing:
    def test_two_equal_transfers_halve_the_shared_uplink(self):
        # Channels are 80 apiece but the shared origin uplink is 100:
        # two concurrent transfers get 50 each, not 80.
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)
        b = run_transfer(sim, engine, "origin", "d1", 100 * MB, src_is_registry=True)
        sim.run()
        assert a["end"] == pytest.approx(16.0)
        assert b["end"] == pytest.approx(16.0)

    def test_late_arrival_shares_then_survivor_speeds_up(self):
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)
        b = {}

        def late():
            yield sim.timeout(5.0)
            transfer = engine.start("origin", "d1", 100 * MB, src_is_registry=True)
            yield transfer.done
            b["end"] = sim.now

        sim.process(late())
        sim.run()
        # a: 5 s alone at 80 (channel-limited; 50 MB), then shares the
        # uplink at 50 → 8 s more.  b: 8 s at 50 (50 MB), then alone at
        # 80 for the rest.
        assert a["end"] == pytest.approx(13.0)
        assert b["end"] == pytest.approx(18.0)

    def test_bottleneck_is_max_min_not_equal_split(self):
        # d0's private channel (20) is tighter than its uplink share:
        # max-min gives the other transfer the leftover 80, an equal
        # split would waste 30.
        network = NetworkModel()
        network.connect_registry("origin", "slow", 20.0)
        network.connect_registry("origin", "fast", 200.0)
        network.set_uplink("origin", 100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        slow = run_transfer(
            sim, engine, "origin", "slow", 100 * MB, src_is_registry=True
        )
        fast = run_transfer(
            sim, engine, "origin", "fast", 100 * MB, src_is_registry=True
        )
        sim.run()
        assert slow["end"] == pytest.approx(40.0)  # 20 Mbit/s throughout
        assert fast["end"] == pytest.approx(10.0)  # leftover 80 Mbit/s

    def test_downlink_contention_between_different_sources(self):
        network = star_network(downlink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)
        b = run_transfer(sim, engine, "d1", "d0", 100 * MB)
        sim.run()
        # Peer channel is 800 but d0's NIC admits 100 total: the
        # registry pull is channel-limited at 80 for a while, the peer
        # transfer takes what the NIC leaves.
        assert engine.peak_oversubscription() <= 1.0 + 1e-9
        assert max(a["end"], b["end"]) >= 16.0  # 200 MB through a 100 NIC


class TestRemainingPayload:
    def test_remaining_mb_projects_progress_to_now(self):
        """Regression: the engine's old default mode answered
        ``remaining_mb()`` as of its last event, so a lone transfer
        still showed its whole payload halfway through.  The chunk
        endgame's straggler check reads it mid-flight."""
        network = NetworkModel()
        network.connect_registry("origin", "d0", 800.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        transfer = engine.start(
            "origin", "d0", 1000 * MB, src_is_registry=True
        )
        seen = {}

        def probe():
            yield sim.timeout(5.0)
            settled = transfer.remaining_mb
            seen["now"] = engine.remaining_mb(transfer)
            # Querying never settles: the engine's own accounting is
            # untouched.
            seen["untouched"] = transfer.remaining_mb == settled

        sim.process(probe())
        sim.run()
        # 1000 MB at 800 Mbit/s is 10 s; half of it is left at t = 5 s.
        assert seen == {"now": pytest.approx(500.0), "untouched": True}
        assert transfer.completed_s == pytest.approx(10.0)
        assert engine.remaining_mb(transfer) == 0.0


class TestEstimatedTransfer:
    """``estimated_transfer_s`` prices the chunk endgame's registry
    fetch: latency plus payload at the equal split of each path link
    among its occupants and the newcomer."""

    @staticmethod
    def engine(rtt_s=0.0):
        network = NetworkModel()
        network.connect_devices("medium", "small", 800.0, rtt_s=rtt_s)
        network.connect_registry("hub", "small", 80.0)
        return TransferEngine(Simulator(), network)

    def test_idle_path_takes_latency_plus_size_over_capacity(self):
        engine = self.engine(rtt_s=0.5)
        # 0.5 s RTT + 1000 MB * 8 / 800 Mbit/s.
        assert engine.estimated_transfer_s(
            "medium", "small", 1000.0
        ) == pytest.approx(10.5)

    def test_each_occupant_halves_the_newcomers_share(self):
        engine = self.engine()
        engine.start("medium", "small", 500 * MB)
        assert engine.estimated_transfer_s(
            "medium", "small", 1000.0
        ) == pytest.approx(1000.0 * 8 / 400.0)
        engine.start("medium", "small", 500 * MB)
        assert engine.estimated_transfer_s(
            "medium", "small", 1000.0
        ) == pytest.approx(1000.0 * 8 / (800.0 / 3))

    def test_loopback_and_empty_transfers_are_free(self):
        engine = self.engine()
        assert engine.estimated_transfer_s("small", "small", 1000.0) == 0.0
        assert engine.estimated_transfer_s("medium", "small", 0.0) == 0.0

    def test_registry_paths_are_estimated_too(self):
        engine = self.engine()
        assert engine.estimated_transfer_s(
            "hub", "small", 1000.0, src_is_registry=True
        ) == pytest.approx(100.0)
        engine.start("hub", "small", 500 * MB, src_is_registry=True)
        assert engine.estimated_transfer_s(
            "hub", "small", 1000.0, src_is_registry=True
        ) == pytest.approx(200.0)

    def test_estimating_an_unstarted_pair_creates_no_link(self):
        engine = self.engine()
        engine.start("medium", "small", 500 * MB)
        before = engine.links()
        assert engine.estimated_transfer_s(
            "hub", "small", 1000.0, src_is_registry=True
        ) == pytest.approx(100.0)
        assert engine.links() == before


class TestPathCache:
    """The engine resolves each pair's path once, into its live links,
    and resolves it again after any topology change."""

    def test_a_pair_reuses_its_resolved_links(self):
        engine = TransferEngine(Simulator(), star_network())
        first = engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        second = engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        assert second.links is first.links

    def test_topology_change_reaches_the_next_transfer(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        first = engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        assert [link.name for link in first.links] == ["chan:origin->d0"]
        assert first.rate_mbps == 80.0
        sim.run()
        network.set_downlink("d0", 40.0)
        second = engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        assert [link.name for link in second.links] == [
            "chan:origin->d0", "down:d0"
        ]
        assert second.links[0] is first.links[0]
        assert second.rate_mbps == 40.0
        assert engine.estimated_transfer_s(
            "origin", "d0", 100.0, src_is_registry=True
        ) == pytest.approx(100.0 * 8 / 20.0)

    def test_a_changed_live_link_still_fails_loudly(self):
        network = star_network(downlink_mbps=40.0)
        engine = TransferEngine(Simulator(), network)
        engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        network.set_downlink("d0", 60.0)
        with pytest.raises(ValueError, match="capacity changed"):
            engine.start("origin", "d0", 10 * MB, src_is_registry=True)


class TestUploadBudgets:
    def test_budget_exhaustion_raises_and_slot_frees_on_completion(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network, upload_budget=1)
        t = engine.start("d0", "d1", 10 * MB)
        assert not engine.can_upload("d0")
        with pytest.raises(UploadBudgetExceeded):
            engine.start("d0", "d2", 10 * MB)
        sim.run()
        assert t.completed_s is not None
        assert engine.can_upload("d0")
        engine.start("d0", "d2", 10 * MB)  # slot is free again

    def test_a_budget_of_two_admits_two_concurrent_uploads(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network, upload_budget=2)
        engine.start("d0", "d1", 10 * MB)
        engine.start("d0", "d2", 10 * MB)
        with pytest.raises(UploadBudgetExceeded):
            engine.start("d0", "d3", 10 * MB)

    def test_registries_are_exempt(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network, upload_budget=1)
        engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        engine.start("origin", "d1", 10 * MB, src_is_registry=True)
        sim.run()
        assert engine.completed == 2

    def test_slot_freed_fires_once_at_the_first_free_slot(self):
        # d0 and d1 each seed one upload; a waiter on both wakes when
        # the shorter one ends, whether it finishes or is cancelled.
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network, upload_budget=1)
        short = engine.start("d0", "d2", 10 * MB)
        engine.start("d1", "d3", 40 * MB)
        woke = []

        def waiter():
            yield engine.upload_slot_freed(("d1", "d0"))
            woke.append(sim.now)
            assert engine.can_upload("d0")

        sim.process(waiter())
        sim.run()
        assert woke == [pytest.approx(short.completed_s)]

    def test_slot_freed_fires_at_once_for_a_free_slot(self):
        # d0's only upload ended while its waiter was busy elsewhere.
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network, upload_budget=1)
        engine.start("d0", "d1", 10 * MB)
        sim.run()
        assert engine.upload_slot_freed(("d0",)).triggered


class TestIdleTables:
    def test_an_idle_engine_frees_its_grown_tables(self):
        # A dict keeps its grown table after its last pop; once the
        # last transfer leaves, the active table and every link's
        # occupant table are cleared back to an empty dict's size.
        network = star_network(n_devices=40, uplink_mbps=400.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        for i in range(40):
            run_transfer(
                sim, engine, "origin", f"d{i}", (i + 1) * MB,
                src_is_registry=True,
            )
        sim.run(until=0.5)
        assert len(engine.active_transfers) == 40
        sim.run()
        empty = sys.getsizeof({})
        assert sys.getsizeof(engine._active) == empty
        assert all(
            sys.getsizeof(link.transfers) == empty for link in engine.links()
        )


class TestPeakAccounting:
    def test_peak_reflects_allocated_rate_sum(self):
        """Regression: link utilisation was derived from the fill's
        ``capacity_left`` residue, whose ``max(0.0, ...)`` clamp made
        ``peak_oversubscription() <= 1.0`` true by construction — a
        broken fill could never be flagged.  Utilisation is now the sum
        of allocated rates over the link's transfers, so an
        over-allocation is visible."""
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        engine.start("origin", "d0", 100 * MB, src_is_registry=True)
        engine.start("origin", "d1", 100 * MB, src_is_registry=True)
        uplink = engine._links["up:origin"]
        # The correct fill halves the shared uplink: utilisation 100.
        assert uplink.peak_utilisation_mbps == pytest.approx(100.0)
        assert engine.peak_oversubscription() <= 1.0 + 1e-9
        # A (deliberately broken) allocation handing both transfers the
        # full capacity must now register as 2x oversubscription.
        for transfer in engine.active_transfers:
            transfer.rate_mbps = 100.0
        engine._record_peaks([uplink])
        assert engine.peak_oversubscription() == pytest.approx(2.0)


class TestCancellation:
    def test_cancel_fails_waiter_and_survivor_speeds_up(self):
        network = star_network(uplink_mbps=100.0)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)
        b = run_transfer(sim, engine, "origin", "d1", 100 * MB, src_is_registry=True)

        def axe():
            yield sim.timeout(4.0)
            engine.cancel(b["transfer"], "test")

        sim.process(axe())
        sim.run()
        assert b["ok"] is False and b["reason"] == "test"
        assert b["end"] == pytest.approx(4.0)
        # a: 4 s at 50 (25 MB), then alone at 80: 75 MB → 7.5 s more.
        assert a["end"] == pytest.approx(11.5)

    def test_cancel_after_completion_is_noop(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        r = run_transfer(sim, engine, "origin", "d0", 10 * MB, src_is_registry=True)
        sim.run()
        assert engine.cancel(r["transfer"]) is False

    def test_cancel_does_not_drag_the_clock_to_the_stale_prediction(self):
        """Regression: the wake-up armed for the old completion time
        must be retracted, not merely ignored — otherwise sim.run()
        advances the clock to a prediction that no longer exists and
        every sim.now-derived metric (makespan!) is inflated."""
        network = NetworkModel()
        network.connect_registry("origin", "d0", 1.0)  # finish at t=800
        sim = Simulator()
        engine = TransferEngine(sim, network)
        r = run_transfer(sim, engine, "origin", "d0", 100 * MB, src_is_registry=True)

        def axe():
            yield sim.timeout(1.0)
            engine.cancel(r["transfer"], "churn")

        sim.process(axe())
        end = sim.run()
        assert end == pytest.approx(1.0)  # not 800.0

    def test_cancel_uploads_from_device(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        a = run_transfer(sim, engine, "d0", "d1", 100 * MB)
        b = run_transfer(sim, engine, "d0", "d2", 100 * MB)
        c = run_transfer(sim, engine, "d1", "d3", 1 * MB)

        def axe():
            yield sim.timeout(0.1)
            assert engine.cancel_uploads_from("d0", "churn") == 2

        sim.process(axe())
        sim.run()
        assert a["ok"] is False and b["ok"] is False
        assert c["ok"] is True

    def test_cancel_many_skips_finished_and_counts_the_rest(self):
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        fast = run_transfer(
            sim, engine, "origin", "d0", 1 * MB, src_is_registry=True
        )
        slow_a = run_transfer(
            sim, engine, "origin", "d1", 500 * MB, src_is_registry=True
        )
        slow_b = run_transfer(sim, engine, "d2", "d3", 500 * MB)

        def axe():
            yield sim.timeout(5.0)  # fast finished long ago (0.1 s)
            n = engine.cancel_many(
                [t["transfer"] for t in (fast, slow_a, slow_b)], "batch"
            )
            assert n == 2

        sim.process(axe())
        sim.run()
        assert fast["ok"] is True
        assert slow_a["ok"] is False and slow_a["reason"] == "batch"
        assert slow_b["ok"] is False
        assert slow_a["end"] == pytest.approx(5.0)

    def test_cancel_many_cancels_a_repeated_transfer_once(self):
        """Regression: a transfer listed twice in one batch was counted
        twice, and its second ``done.fail`` raised mid-batch after the
        engine state had already changed."""
        network = star_network()
        sim = Simulator()
        engine = TransferEngine(sim, network)
        transfer = engine.start(
            "origin", "d0", 500 * MB, src_is_registry=True
        )
        caught = []
        result = {}

        def waiter():
            try:
                yield transfer.done
            except TransferCancelled as exc:
                caught.append(exc)

        def axe():
            yield sim.timeout(1.0)
            before = engine.recomputes
            result["n"] = engine.cancel_many([transfer, transfer], "dup")
            result["recomputes"] = engine.recomputes - before

        sim.process(waiter())
        sim.process(axe())
        sim.run()
        assert result == {"n": 1, "recomputes": 1}
        assert engine.cancellations == 1
        assert [exc.reason for exc in caught] == ["dup"]
        assert not engine.active_transfers

    def test_cancel_uploads_from_batches_into_one_recompute(self):
        """Regression: a departing seeder with k uploads used to run
        the settle + detach + recompute cycle k times.  The batch must
        recompute exactly once — and the survivors' timelines must be
        indistinguishable from the old sequential path (the cancels
        all land at one instant, so no progress accrues between them).
        """
        def build():
            network = star_network(n_devices=6, uplink_mbps=100.0)
            sim = Simulator()
            engine = TransferEngine(sim, network)
            runs = [
                run_transfer(sim, engine, "d0", "d1", 50 * MB),
                run_transfer(sim, engine, "d0", "d2", 80 * MB),
                run_transfer(sim, engine, "d0", "d3", 120 * MB),
                run_transfer(
                    sim, engine, "origin", "d1", 100 * MB,
                    src_is_registry=True,
                ),
                run_transfer(sim, engine, "d4", "d5", 90 * MB),
            ]
            return sim, engine, runs

        sim_a, engine_a, runs_a = build()

        def axe_batched():
            yield sim_a.timeout(2.0)
            before = engine_a.recomputes
            assert engine_a.cancel_uploads_from("d0", "churn") == 3
            assert engine_a.recomputes == before + 1

        sim_a.process(axe_batched())
        sim_a.run()

        sim_b, engine_b, runs_b = build()

        def axe_sequential():
            yield sim_b.timeout(2.0)
            before = engine_b.recomputes
            for record in runs_b[:3]:
                assert engine_b.cancel(record["transfer"], "churn")
            assert engine_b.recomputes == before + 3

        sim_b.process(axe_sequential())
        sim_b.run()

        for batched, sequential in zip(runs_a, runs_b):
            assert batched["ok"] == sequential["ok"]
            assert batched["end"] == sequential["end"]


# ----------------------------------------------------------------------
# Hypothesis invariants (satellite: engine property tests)
# ----------------------------------------------------------------------
transfer_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # source device index
        st.integers(min_value=0, max_value=3),  # destination device index
        st.integers(min_value=1, max_value=500 * MB),  # size
        st.floats(min_value=0.0, max_value=30.0),  # start time
    ),
    min_size=1,
    max_size=12,
)


def _topology_and_runs(specs, uplink, downlink):
    network = star_network(
        n_devices=4, uplink_mbps=uplink, downlink_mbps=downlink
    )
    sim = Simulator()
    engine = TransferEngine(sim, network)
    runs = []

    def launch(at_s, src, dst, size):
        yield sim.timeout(at_s)
        record = run_transfer(
            sim, engine, src, dst, size, src_is_registry=(src == "origin")
        )
        record["requested"] = sim.now
        runs.append(record)

    for src_i, dst_i, size, at_s in specs:
        src = "origin" if src_i == dst_i else f"d{src_i}"
        sim.process(launch(at_s, src, f"d{dst_i}", size))
    sim.run()
    return engine, runs


@settings(max_examples=60, deadline=None)
@given(
    specs=transfer_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_fair_shares_never_oversubscribe_any_link(specs, uplink, downlink):
    engine, runs = _topology_and_runs(specs, uplink, downlink)
    assert engine.peak_oversubscription() <= 1.0 + 1e-9
    assert len(runs) == len(specs)
    assert engine.completed == len(specs)


@settings(max_examples=60, deadline=None)
@given(
    specs=transfer_specs,
    uplink=st.sampled_from([None, 60.0, 150.0]),
    downlink=st.sampled_from([None, 90.0, 300.0]),
)
def test_completion_never_beats_uncontended_lower_bound(specs, uplink, downlink):
    _engine, runs = _topology_and_runs(specs, uplink, downlink)
    for record in runs:
        transfer = record["transfer"]
        elapsed = record["end"] - record["requested"]
        # Relative tolerance for settling drift plus an absolute one:
        # `end - requested` is a difference of O(10 s) clock readings,
        # so its ulp noise (~1e-15 s) can exceed the *relative* bound
        # of a near-instant transfer (a 1-byte payload's bound is 1e-7 s).
        assert elapsed >= transfer.lower_bound_s * (1.0 - 1e-9) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    size_a=st.integers(min_value=10 * MB, max_value=400 * MB),
    size_b=st.integers(min_value=10 * MB, max_value=400 * MB),
    cancel_frac=st.floats(min_value=0.05, max_value=0.9),
    uplink=st.sampled_from([50.0, 100.0, 120.0]),
)
def test_cancellation_releases_bandwidth_immediately(
    size_a, size_b, cancel_frac, uplink
):
    """After the cancel, the survivor finishes exactly when a fresh
    uncontended transfer of its settled remainder would."""
    network = star_network(uplink_mbps=uplink)
    channel = 80.0
    shared = min(channel, uplink / 2.0)
    solo = min(channel, uplink)
    # Cancel somewhere strictly inside the contended phase.
    contended_end = min(
        size_a, size_b
    ) / MB * MBIT_PER_MB / shared
    cancel_at = cancel_frac * contended_end
    sim = Simulator()
    engine = TransferEngine(sim, network)
    a = run_transfer(sim, engine, "origin", "d0", size_a, src_is_registry=True)
    b = run_transfer(sim, engine, "origin", "d1", size_b, src_is_registry=True)

    def axe():
        yield sim.timeout(cancel_at)
        engine.cancel(b["transfer"])

    sim.process(axe())
    sim.run()
    moved_mb = shared / MBIT_PER_MB * cancel_at
    left_mb = bytes_to_mb(size_a) - moved_mb
    expected = cancel_at + left_mb * MBIT_PER_MB / solo
    assert a["end"] == pytest.approx(expected, rel=1e-9)
    assert b["end"] == pytest.approx(cancel_at)
