"""Co-started transfers' latency handshakes: one activation per batch.

A transfer joins its links once its path latency has elapsed.  When
the kernel would process several such handshakes back to back (due at
the same float instant, with nothing scheduled between their starts),
the engine queues one event for the batch and activates its transfers
together under a single recompute.  Nothing can run between those
handshakes, so rates, settles, deadlines and end times are exactly the
ones separate handshakes give; only the work counters move.  These
tests pin that equivalence, the batch-membership rule, and the
kernel accessor the rule reads (``Simulator.last_scheduled``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from test_transfers import MB, star_network

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue, Timeout
from repro.sim.transfers import TransferEngine

#: Path latency of every registry channel below (the channel RTT).
RTT_S = 0.5


def shared_egress(n_devices: int = 4, rtt_s: float = RTT_S):
    """``origin`` fans out to ``d0..dN`` over 80 Mbit/s channels that
    all cross its 100 Mbit/s egress."""
    return star_network(
        n_devices=n_devices, channel_mbps=80.0, uplink_mbps=100.0,
        rtt_s=rtt_s,
    )


def co_start(sizes, apart=False, cancel=(), network=None):
    """Start one registry transfer per size at t = 0, in one process.

    With ``apart``, an unrelated event is scheduled between every two
    starts (and voided, so it never runs), which keeps each handshake
    in its own event: today's path for transfers that do not share an
    instant.  Indices in ``cancel`` are cancelled before their latency
    elapses.  Returns the engine, its transfers, each transfer's end
    time and whether it finished, and the recomputes the activations
    ran.
    """
    sim = Simulator()
    engine = TransferEngine(
        sim, network or shared_egress(len(sizes)), self_check=True
    )
    transfers, ends = [], {}

    def note(i):
        def done(event):
            ends[i] = (sim.now, event.ok)
            if not event.ok:
                event.mark_consumed()
        return done

    for i, size in enumerate(sizes):
        if apart and i:
            sim.timeout(1e6).void()
        transfer = engine.start(
            "origin", f"d{i}", size, src_is_registry=True
        )
        transfer.done.add_callback(note(i))
        transfers.append(transfer)
    for i in cancel:
        engine.cancel(transfers[i], reason="gone")
    sim.run(until=RTT_S)
    activation_recomputes = engine.recomputes
    sim.run()
    return engine, transfers, ends, activation_recomputes


class TestOneActivation:
    def test_co_started_transfers_activate_with_one_recompute(self):
        sizes = [10 * MB, 20 * MB, 30 * MB, 40 * MB]
        batched, _, batched_ends, batched_solves = co_start(sizes)
        apart, _, apart_ends, apart_solves = co_start(sizes, apart=True)
        # Four handshakes due at one instant: one solve of all four
        # instead of a solve of 1, 2, 3 and then 4 transfers.
        assert batched_solves == 1
        assert apart_solves == 4
        assert batched_ends == apart_ends
        assert all(ok for _end, ok in batched_ends.values())
        assert batched.transfers_visited < apart.transfers_visited
        assert batched.peak_oversubscription() <= 1.0 + 1e-12

    def test_a_cancelled_member_is_skipped(self):
        sizes = [10 * MB, 20 * MB, 30 * MB]
        engine, transfers, ends, solves = co_start(sizes, cancel=(1,))
        _, _, apart_ends, _ = co_start(sizes, apart=True, cancel=(1,))
        victim = transfers[1]
        assert victim.cancelled and not victim.active
        assert victim.moved_bytes == 0
        assert ends[1] == (0.0, False)
        assert solves == 1
        assert ends == apart_ends
        # The two survivors split the 100 Mbit/s egress.
        assert ends[0][0] == RTT_S + 10 * 8 / 50.0
        assert engine.started == engine.completed + engine.cancellations

    def test_a_zero_byte_member_finishes_at_the_handshake(self):
        sizes = [10 * MB, 0, 30 * MB]
        engine, transfers, ends, solves = co_start(sizes)
        _, _, apart_ends, _ = co_start(sizes, apart=True)
        assert ends[1] == (RTT_S, True)
        assert transfers[1].completed_s - transfers[1].requested_s == RTT_S
        assert ends == apart_ends
        assert engine.completed == 3
        # The member joined before it is solved first, so its finish
        # follows that solve's wake as with separate handshakes.
        assert solves == 2

    def test_every_member_cancelled_activates_nothing(self):
        engine, transfers, ends, solves = co_start(
            [10 * MB, 20 * MB], cancel=(0, 1)
        )
        assert solves == 0
        assert not engine.active_transfers
        assert all(not ok for _end, ok in ends.values())


class TestMembership:
    def test_a_different_latency_never_joins(self):
        network = shared_egress(3)
        network.connect_registry("origin", "d2", 80.0, rtt_s=2 * RTT_S)
        engine, _, ends, solves = co_start(
            [10 * MB, 10 * MB, 10 * MB], network=network
        )
        # d0 and d1 share the first instant; d2 is due later.
        assert solves == 1
        assert engine.recomputes > 1
        _, _, apart_ends, _ = co_start(
            [10 * MB, 10 * MB, 10 * MB], apart=True, network=network
        )
        assert ends == apart_ends

    def test_a_different_due_instant_never_joins(self):
        # Same latency, started 0.1 s apart: the second is due later.
        sim = Simulator()
        engine = TransferEngine(sim, shared_egress(2))
        engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        sim.timeout(0.1).add_callback(
            lambda _e: engine.start(
                "origin", "d1", 10 * MB, src_is_registry=True
            )
        )
        sim.run(until=RTT_S)
        assert engine.recomputes == 1
        assert len(engine.active_transfers) == 1
        sim.run(until=RTT_S + 0.1)
        assert engine.recomputes == 2

    def test_the_same_due_float_from_a_later_start_joins(self):
        # A start at 0.25 s with a 0.25 s latency is due at the same
        # float as one at 0 s with 0.5 s; the event that made the
        # second start was queued before the first handshake, so the
        # queue scheduled nothing between the two: they would run back
        # to back, and they share one activation.
        network = shared_egress(2)
        network.connect_registry("origin", "d1", 80.0, rtt_s=RTT_S / 2)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        sim.timeout(RTT_S / 2).add_callback(
            lambda _e: engine.start(
                "origin", "d1", 10 * MB, src_is_registry=True
            )
        )
        engine.start("origin", "d0", 10 * MB, src_is_registry=True)
        sim.run(until=RTT_S)
        assert RTT_S / 2 + RTT_S / 2 == RTT_S
        assert engine.recomputes == 1
        assert len(engine.active_transfers) == 2

    def test_an_observer_event_between_starts_keeps_the_batch(self):
        for observer in (True, False):
            sim = Simulator()
            engine = TransferEngine(sim, shared_egress(2))
            engine.start("origin", "d0", 10 * MB, src_is_registry=True)
            sim.timeout(3.0, daemon=True, observer=observer)
            engine.start("origin", "d1", 10 * MB, src_is_registry=True)
            sim.run(until=RTT_S)
            assert engine.recomputes == (1 if observer else 2)

    def test_a_batch_being_processed_takes_no_new_member(self):
        # At t = 1e6 s a 1e-11 s latency is below half an ulp, so a
        # transfer started while a batch is being processed is due at
        # the batch's own instant.  The batch's only member starts a
        # component of its own whose deadline lies past the one the
        # wake is armed at, so the activation schedules nothing and the
        # batch's event is still the last one scheduled.  The late
        # transfer must get a handshake of its own, not join a batch
        # that already ran.
        network = star_network(n_devices=3, channel_mbps=80.0)
        for device in ("d1", "d2"):
            network.connect_registry("origin", device, 80.0, rtt_s=1e-11)
        sim = Simulator()
        engine = TransferEngine(sim, network)
        late = []

        def begin(_event):
            engine.start("origin", "d0", 1 * MB, src_is_registry=True)
            engine.start("origin", "d1", 100 * MB, src_is_registry=True)
            handshake = sim.last_scheduled()
            handshake.add_callback(
                lambda _e: late.append(
                    engine.start(
                        "origin", "d2", 1 * MB, src_is_registry=True
                    )
                )
            )

        sim.timeout(1e6).add_callback(begin)
        sim.run()
        assert 1e6 + 1e-11 == 1e6
        assert late[0].completed_s is not None
        assert engine.completed == 3


class TestLastScheduled:
    def test_schedule_sets_it_and_reserve_clears_it(self):
        queue = EventQueue()
        assert queue.last_scheduled() is None
        first = Timeout(queue, 1.0)
        assert queue.last_scheduled() is first
        Timeout(queue, 2.0, daemon=True, observer=True)
        assert queue.last_scheduled() is first
        queue.reserve(3)
        assert queue.last_scheduled() is None

    def test_schedule_at_leaves_it_alone(self):
        # An event queued under a number reserved earlier sorts before
        # every event scheduled since, so it cannot come between them.
        queue = EventQueue()
        seq = queue.reserve(1)
        timeout = Timeout(queue, 1.0)
        entry = Event(queue)
        entry._triggered = True
        queue.schedule_at(entry, 1.0, seq)
        assert queue.last_scheduled() is timeout
        assert queue.step() is entry


# ----------------------------------------------------------------------
# property: batching changes no end time
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=60 * MB), min_size=1, max_size=6
    ),
    cancel=st.sets(st.integers(min_value=0, max_value=5), max_size=3),
    late=st.lists(
        st.integers(min_value=1, max_value=60 * MB), max_size=3
    ),
)
def test_batched_and_separate_handshakes_end_identically(sizes, cancel, late):
    """Random co-started batches (zero-byte members, cancellations in
    the latency window, later starts that share the egress) end at
    exactly the times separate handshakes give, and never solve more."""

    def run(apart):
        n = len(sizes) + len(late)
        network = shared_egress(n)
        sim = Simulator()
        engine = TransferEngine(sim, network, self_check=True)
        ends = {}

        def note(key):
            def done(event):
                ends[key] = (sim.now, event.ok)
                if not event.ok:
                    event.mark_consumed()
            return done

        transfers = []
        for i, size in enumerate(sizes):
            if apart and i:
                sim.timeout(1e6).void()
            transfer = engine.start(
                "origin", f"d{i}", size, src_is_registry=True
            )
            transfer.done.add_callback(note(i))
            transfers.append(transfer)
        for i in sorted(cancel):
            if i < len(transfers):
                engine.cancel(transfers[i])

        def later():
            yield sim.timeout(RTT_S / 3)
            for j, size in enumerate(late):
                if apart and j:
                    sim.timeout(1e6).void()
                transfer = engine.start(
                    "origin", f"d{len(sizes) + j}", size,
                    src_is_registry=True,
                )
                transfer.done.add_callback(note(len(sizes) + j))

        sim.process(later())
        sim.run()
        return ends, engine

    batched, batched_engine = run(apart=False)
    apart, apart_engine = run(apart=True)
    assert batched == apart
    assert batched_engine.recomputes <= apart_engine.recomputes
    assert batched_engine.transfers_visited <= apart_engine.transfers_visited
    assert batched_engine.started == (
        batched_engine.completed + batched_engine.cancellations
    )
