"""SimulationSession: assembly, the outcome dict, and every preset's
pinned outcome.

The headline guarantee: each preset, run at its own seed, reproduces
its golden outcome dict exactly, so a change that moves any outcome of
any preset fails here, naming every field that moved.
"""

import gc
import inspect
import weakref
from pathlib import Path

import pytest

from repro import scenarios
from repro.scenarios import (
    ChurnSpec,
    DiscoverySpec,
    ScenarioSpec,
    SimulationSession,
    TopologySpec,
    TransferSpec,
    WorkloadSpec,
    build_swarm_scenario,
)
from repro.sim.transfers import TransferEngine

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def _small_spec(**kwargs) -> ScenarioSpec:
    kwargs.setdefault("topology", TopologySpec(n_devices=6, n_regions=2))
    kwargs.setdefault(
        "workload", WorkloadSpec(kind="zipf", n_images=4, pulls_per_device=3)
    )
    return ScenarioSpec(**kwargs)


def _deterministic_outcome(spec) -> dict:
    outcome = SimulationSession(spec).run()
    return scenarios.deterministic_outcome_dict(outcome.to_dict())


class TestAssembly:
    def test_components_exposed_after_construction(self):
        session = SimulationSession(_small_spec(
            transfer=TransferSpec(model="time-resolved"),
            discovery=DiscoverySpec(backend="gossip"),
            churn=ChurnSpec(),
        ))
        assert session.engine is not None
        assert session.discovery is not None
        assert session.churn_process is not None
        assert session.replicator is not None
        assert set(session.caches) == {
            dev.name for dev in session.scenario.devices
        }
        assert session.facade.name == "hybrid+p2p"

    def test_peerless_modes_carry_no_replicator(self):
        session = SimulationSession(_small_spec(mode="hybrid"))
        assert session.replicator is None
        assert session.facade.planner.use_peers is False

    def test_hub_only_chain_is_single_tier(self):
        session = SimulationSession(_small_spec(mode="hub-only"))
        assert [r.name for r in session.facade.planner.registries] == [
            "docker-hub"
        ]

    def test_sessions_are_single_use(self):
        session = SimulationSession(_small_spec())
        session.run()
        with pytest.raises(RuntimeError, match="single-use"):
            session.run()


class TestSharedTopology:
    """A region's topology is stored once, not once per device."""

    def test_regions_share_rows_orders_and_registry_channels(self):
        spec = scenarios.with_overrides(scenarios.get("p2p"), {
            "topology.n_devices": 300, "topology.n_regions": 3,
        })
        session = SimulationSession(spec)
        network, swarm = session.scenario.network, session.swarm
        names = [dev.name for dev in session.scenario.devices]
        # One shared row per region, plus a private row for each
        # region's gateway, which also carries the WAN channels.
        rows = {id(network.channels_into(d)) for d in names}
        orders = {id(network.device_sources_by_preference(d)) for d in names}
        assert len(rows) <= 6
        assert len(orders) <= 6
        # One frozen registry channel per (bandwidth, RTT) value.
        registry_channels = [
            network.registry_channel(registry, d)
            for registry in ("docker-hub", "regional")
            for d in names
        ]
        assert len({id(c) for c in registry_channels}) == len(
            set(registry_channels)
        ) == 5
        for d in names:
            assert network.device_channel(d, d) is None
        # edge-0003 reads region-0's shared row, which names it.
        lone, peer = "edge-0003", "edge-0006"
        assert lone in network.channels_into(lone)
        session.caches[lone].add("sha256:lone", 10)
        assert swarm.best_peer("sha256:lone", lone) is None
        assert swarm.best_peer("sha256:lone", peer) == lone
        assert swarm.fastest_verified(
            {lone}, lone, "sha256:lone", lone
        ) == (None, 0)


class TestModeOutcomeDict:
    def test_to_dict_is_json_safe_and_complete(self):
        import json

        outcome = SimulationSession(_small_spec()).run()
        data = outcome.to_dict()
        json.dumps(data)
        assert data["pulls"] == outcome.pulls
        assert data["origin_bytes"] == outcome.origin_bytes
        assert data["hit_ratio"] == outcome.hit_ratio
        assert data["replicator"]["converged"] in (True, False)

    def test_outcome_reports_wall_clock_split(self):
        session = SimulationSession(_small_spec())
        outcome = session.run()
        data = outcome.to_dict()
        # Assembly and run are timed separately: both phases take
        # measurably nonzero wall time even on a tiny spec.
        assert data["wall_build_s"] > 0.0
        assert data["wall_run_s"] > 0.0
        # Telemetry defaults off, so no profile rides along.
        assert data["engine_profile"] is None

    def test_peerless_outcome_reports_null_replicator(self):
        outcome = SimulationSession(_small_spec(mode="hybrid")).run()
        assert outcome.to_dict()["replicator"] is None


class TestPresetSessions:
    def test_preset_variant_runs_end_to_end(self):
        # A preset shrunk via overrides must assemble and run whole.
        spec = scenarios.with_overrides(scenarios.get("p2p-gossip"), {
            "topology.n_devices": 6,
            "topology.n_regions": 2,
            "workload.n_images": 3,
            "workload.pulls_per_device": 2,
            "churn.min_online": 2,
        })
        outcome = SimulationSession(spec).run()
        assert outcome.pulls + outcome.skipped_pulls == 12
        assert outcome.gossip_rounds > 0


class TestPresetOutcomes:
    """Every preset at its own seed against its golden deterministic
    outcome dict, ``tests/golden/presets/<preset>.json``.
    ``p2p-swarm-100k`` runs at 2,000 devices in 100 regions, as the
    reach check runs it."""

    SIZED = {
        "p2p-swarm-100k": {
            "topology.n_devices": 2000, "topology.n_regions": 100,
        },
    }
    #: Replicator decision paths no preset runs, each at its preset's
    #: seed: the per-region hotness arm of the ``replicator-policy``
    #: sweep (62 copies) and the churn-aware replica weighting (23).
    VARIANTS = {
        "per-region-hot-fraction": (
            "p2p",
            {"replication.hotness": "per-region",
             "replication.hot_fraction": 0.6},
        ),
        "churn-aware-replicas": (
            "p2p-gossip",
            {"replication.churn_aware": True},
        ),
    }

    def test_every_preset_is_pinned(self):
        # ...and no golden file outlives its preset.
        pinned = (GOLDEN / "presets").glob("*.json")
        assert sorted(p.stem for p in pinned) == sorted(scenarios.names())

    @pytest.mark.parametrize("preset", sorted(scenarios.names()))
    def test_preset_outcome_matches_its_pin(self, golden, preset):
        spec = scenarios.with_overrides(
            scenarios.get(preset), self.SIZED.get(preset, {})
        )
        golden(f"presets/{preset}.json", _deterministic_outcome(spec))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_replicator_variant_matches_its_pin(self, golden, variant):
        preset, overrides = self.VARIANTS[variant]
        spec = scenarios.with_overrides(scenarios.get(preset), overrides)
        golden(f"variants/{variant}.json", _deterministic_outcome(spec))


class TestRunMemory:
    """What ``run()`` keeps alive: pulls exist only from their arrival
    on, and finished transfers are freed by reference counting."""

    @pytest.mark.parametrize("model", scenarios.TRANSFER_MODELS)
    def test_no_pull_generator_exists_before_its_arrival(self, model):
        session = SimulationSession(
            _small_spec(transfer=TransferSpec(model=model))
        )
        sim = session.sim
        arrivals = sorted({at_s for at_s, _, _ in session.scenario.schedule})
        assert arrivals[0] > 0.0
        probes = [0.0] + [(a + b) / 2 for a, b in zip(arrivals, arrivals[1:])]
        live_counts = []
        busy_counts = []

        def probe():
            for at in probes:
                yield sim.timeout(at - sim.now)
                live = [
                    gen.gi_frame.f_locals["at_s"]
                    for gen in gc.get_objects()
                    if inspect.isgenerator(gen)
                    and gen.gi_code.co_name == "one_pull"
                    and gen.gi_frame is not None
                    and gen.gi_frame.f_locals.get("sim") is sim
                ]
                assert all(at_s <= sim.now for at_s in live), (sim.now, live)
                live_counts.append(len(live))
                busy_counts.append(sum(session._busy.values()))

        sim.process(probe())
        session.run()
        assert len(live_counts) == len(probes)
        if model == "analytic":
            # An analytic pull is a plain call at its arrival: a pull
            # still sleeping out its transfer time holds a busy count
            # and a timeout, never a generator.
            assert max(live_counts) == 0
            # The probe is not vacuous: it saw pulls in flight.
            assert max(busy_counts) > 0
        else:
            # The probe is not vacuous: it saw pulls in flight.
            assert max(live_counts) > 0

    def test_overlapping_cold_waves_start_in_arrival_order(self):
        # A first wave longer than half the horizon overlaps the second;
        # the schedule merges them in arrival order, which process_at
        # requires, and a tie keeps the first wave's pull first.
        spec = scenarios.with_overrides(scenarios.get("p2p-swarm-scale"), {
            "topology.n_devices": 40,
            "topology.n_regions": 4,
            "workload.horizon_s": 10.0,
        })
        schedule = build_swarm_scenario(spec).schedule
        times = [at_s for at_s, _, _ in schedule]
        assert times == sorted(times)
        tied = [(device, ref.repository) for at_s, device, ref in schedule
                if at_s == 5.0]
        assert tied == [
            ("edge-0020", "swarm/app0"), ("edge-0000", "swarm/app1")
        ]
        outcome = SimulationSession(spec).run()
        assert outcome.pulls + outcome.unfinished_pulls == len(schedule)

    def test_an_outcome_keeps_no_swarm_alive(self):
        # The outcome holds the replicator's summary, not the
        # replicator, so it outlives its session without keeping the
        # swarm, its caches and its network reachable.
        session = SimulationSession(scenarios.get("p2p"))
        outcome = session.run()
        swarm = weakref.ref(session.swarm)
        del session
        gc.collect()
        assert swarm() is None
        assert outcome.replicator == outcome.to_dict()["replicator"]
        assert outcome.replicator["actions"] > 0

    def test_a_run_leaves_no_cyclic_garbage(self):
        # A finished transfer's ``done`` event must not carry the
        # transfer as its value: that makes every finished transfer a
        # Transfer -> Event -> Transfer cycle (264 objects here).  The
        # session itself still holds cycles (the replicator process
        # pending at the horizon), so collect before dropping it.
        session = SimulationSession(scenarios.get("p2p-contended"))
        gc.collect()
        gc.disable()
        try:
            session.run()
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "preset",
        ["p2p-contended", "p2p-chunked", "p2p-swarm-scale", "p2p-gossip"],
    )
    def test_a_dropped_swarm_is_freed_by_reference_counting(self, preset):
        # A device cache's observer holds the peer index's tables, not
        # the index, the churn process's busy probe holds the pull
        # counts, not the session, and the gossip daemon starts when
        # the session runs, so nothing the scenario points to points
        # back at it: dropping a built session frees it without the
        # cyclic collector (8,003 objects on p2p-swarm-scale when the
        # observer closed over the index, 690 on p2p-gossip when the
        # probe closed over the session, 10 when the daemon started at
        # the first join).
        spec = scenarios.get(preset)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            session = SimulationSession(spec)
            assert session.swarm.index.devices()
            del session
            gc.collect()
            collected = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            del gc.garbage[:]
            gc.enable()
        assert not collected, collected


class TestAnalyticSleep:
    """An analytic pull admits its layers at arrival and then sleeps
    out its modelled transfer time; its device stays busy until then."""

    def test_churn_does_not_depart_a_device_whose_pull_sleeps(self):
        session = SimulationSession(_small_spec(
            churn=ChurnSpec(
                mean_uptime_s=60.0, mean_downtime_s=30.0, min_online=1
            ),
        ))
        sim, facade, churn = session.sim, session.facade, session.churn_process
        sleeps = []
        blocked = []
        pull, is_busy = facade.pull, churn.is_busy

        def recording_pull(ref, arch, device, cache, now_s=0.0):
            result = pull(ref, arch, device, cache, now_s=now_s)
            if result.seconds > 0:
                sleeps.append((device, sim.now, sim.now + result.seconds))
            return result

        def recording_is_busy(device):
            busy = is_busy(device)
            if busy:
                blocked.append((sim.now, device))
            return busy

        facade.pull = recording_pull
        churn.is_busy = recording_is_busy
        session.run()
        # Not vacuous: departures happened, and sleeping pulls blocked
        # some.
        assert churn.departures > 0
        assert blocked
        for t, device in blocked:
            assert any(
                d == device and start <= t <= end
                for d, start, end in sleeps
            )
        for event in churn.events:
            if event.kind == "depart":
                assert not any(
                    d == event.device and start <= event.time_s < end
                    for d, start, end in sleeps
                ), event


class TestHorizonCut:
    """A horizon that cuts pulls off mid-fetch.  Once every outcome
    counter is read, ``run()`` closes the in-flight pulls in schedule
    order, so their transfers are cancelled and their reservations
    released inside the run, not by the cyclic collector."""

    #: (preset, horizon), each with its golden deterministic outcome
    #: dict in ``tests/golden/horizon-cut/``.  Closing the cut pulls
    #: changes no outcome field.  At 7 s the chunked wave has handshake
    #: batches of four pending.
    CUTS = [
        ("p2p-chunked", 30.0),
        ("p2p-chunked", 7.0),
        ("p2p-contended", 10.0),
    ]

    @pytest.mark.parametrize("preset, horizon_s", CUTS)
    def test_run_aborts_the_pulls_the_horizon_cut_off(
        self, monkeypatch, golden, preset, horizon_s
    ):
        victims = []
        cancel_batch = TransferEngine._cancel_batch

        def counting_cancel_batch(engine, transfers, reason):
            transfers = list(transfers)
            waiting = sum(
                1 for t in transfers
                if not (t.active or t.cancelled or t.completed_s is not None)
            )
            victims.append((cancel_batch(engine, transfers, reason), waiting))
            return victims[-1][0]

        monkeypatch.setattr(
            TransferEngine, "_cancel_batch", counting_cancel_batch
        )
        spec = scenarios.with_overrides(
            scenarios.get(preset), {"workload.horizon_s": horizon_s}
        )
        session = SimulationSession(spec)
        outcome = session.run()
        golden(
            f"horizon-cut/{preset}-{horizon_s:g}s.json",
            scenarios.deterministic_outcome_dict(outcome.to_dict()),
        )
        assert outcome.unfinished_pulls > 0
        engine = session.engine
        assert not engine.active_transfers
        # Nothing is left in its latency window either: every transfer
        # the run started finished or was cancelled.
        assert engine.started == engine.completed + engine.cancellations
        assert not any(engine.uploads_in_flight(d) for d in session.caches)
        assert all(c.reserved_bytes == 0 for c in session.caches.values())
        assert victims and sum(n for n, _ in victims) > 0
        if horizon_s == 7.0:
            assert sum(waiting for _, waiting in victims) >= 4
        # The collector finds nothing left to abort.
        aborted = len(victims)
        del session, engine, outcome
        gc.collect()
        assert len(victims) == aborted
