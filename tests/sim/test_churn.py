"""The stochastic churn process: seeded, idle-only, floor-respecting."""

import pytest

from repro.model.network import NetworkModel
from repro.model.units import BYTES_PER_GB
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.p2p import PeerSwarm
from repro.sim.churn import ChurnProcess, ChurnSpec
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

D = digest_text("churn-layer")


def build(n=6, seed=11, config=None, is_busy=None):
    sim = Simulator()
    network = NetworkModel()
    names = [f"d{i}" for i in range(n)]
    network.connect_device_mesh(names, 800.0)
    swarm = PeerSwarm(network)
    caches = {}
    for name in names:
        caches[name] = ImageCache(1000 / BYTES_PER_GB, name)
        swarm.add_device(name, caches[name], region="r0")
    churn = ChurnProcess(
        sim,
        swarm,
        RngRegistry(seed),
        config=config or ChurnSpec(mean_uptime_s=100.0, mean_downtime_s=50.0),
        is_busy=is_busy,
    )
    return sim, swarm, caches, churn


class TestChurnConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(mean_uptime_s=0.0)
        with pytest.raises(ValueError):
            ChurnSpec(mean_downtime_s=-1.0)
        with pytest.raises(ValueError):
            ChurnSpec(min_online=0)


class TestChurnProcess:
    def test_devices_depart_and_rejoin(self):
        sim, swarm, _caches, churn = build()
        churn.start()
        sim.run(until=2000.0)
        assert churn.departures > 0
        assert churn.rejoins > 0
        assert churn.departures - churn.rejoins == len(churn.offline_devices())
        # Event log is time-ordered and alternates per device.
        last_kind = {}
        for event in churn.events:
            assert event.kind != last_kind.get(event.device)
            last_kind[event.device] = event.kind

    def test_same_seed_same_timeline(self):
        events_a = []
        events_b = []
        for bucket in (events_a, events_b):
            sim, _swarm, _caches, churn = build(seed=23)
            churn.start()
            sim.run(until=1500.0)
            bucket.extend(churn.events)
        assert events_a == events_b

    def test_different_seed_different_timeline(self):
        timelines = []
        for seed in (1, 2):
            sim, _swarm, _caches, churn = build(seed=seed)
            churn.start()
            sim.run(until=1500.0)
            timelines.append(churn.events)
        assert timelines[0] != timelines[1]

    def test_min_online_floor_is_respected(self):
        config = ChurnSpec(
            mean_uptime_s=20.0, mean_downtime_s=500.0, min_online=3
        )
        sim, swarm, _caches, churn = build(n=5, config=config)
        churn.start()
        # Step through the whole run and check the floor at every event.
        for horizon in range(100, 3001, 100):
            sim.run(until=float(horizon))
            assert len(swarm.devices()) >= 3
        assert churn.departures > 0

    def test_busy_devices_do_not_depart(self):
        sim, _swarm, _caches, churn = build(is_busy=lambda device: True)
        churn.start()
        sim.run(until=3000.0)
        assert churn.departures == 0
        assert churn.blocked_departures > 0

    def test_rejoin_restores_the_stale_cache(self):
        sim, swarm, caches, churn = build(seed=5)
        caches["d0"].add(D, 10)
        churn.start()
        # Run until d0 has departed and rejoined at least once.
        while not any(
            e.kind == "rejoin" and e.device == "d0" for e in churn.events
        ):
            if sim.run(until=sim.now + 500.0) > 50_000:
                pytest.fail("d0 never cycled")
        while not churn.is_online("d0"):  # it may have departed again
            sim.run(until=sim.now + 100.0)
        assert "d0" in swarm.devices()
        # The cache object (and its contents) survived the offline gap.
        assert swarm.index.cache_of("d0") is caches["d0"]
        assert swarm.index.holds("d0", D)

    def test_double_start_rejected(self):
        _sim, _swarm, _caches, churn = build()
        churn.start()
        with pytest.raises(RuntimeError):
            churn.start()


class TestSessionStatistics:
    def test_session_lengths_match_the_event_log(self):
        sim, _swarm, _caches, churn = build(seed=11)
        churn.start()
        sim.run(until=3000.0)
        assert churn.departures > 0
        for device in {e.device for e in churn.events}:
            events = [e for e in churn.events if e.device == device]
            # reconstruct completed online sessions from the log
            expected = []
            online_since = 0.0
            for event in events:
                if event.kind == "depart":
                    expected.append(event.time_s - online_since)
                else:
                    online_since = event.time_s
            assert churn.session_lengths(device) == pytest.approx(expected)

    def test_availability_defaults_to_one_without_observations(self):
        _sim, _swarm, _caches, churn = build()
        assert churn.availability("d0") == 1.0
        assert churn.mean_session_s("d0") is None

    def test_availability_reflects_observed_uptime_fraction(self):
        config = ChurnSpec(mean_uptime_s=100.0, mean_downtime_s=100.0)
        sim, _swarm, _caches, churn = build(seed=3, config=config)
        churn.start()
        sim.run(until=20_000.0)
        cycled = [
            d for d in (f"d{i}" for i in range(6))
            if churn.mean_session_s(d) is not None
            and churn.mean_downtime_s(d) is not None
        ]
        assert cycled
        for device in cycled:
            up = churn.mean_session_s(device)
            down = churn.mean_downtime_s(device)
            assert churn.availability(device) == pytest.approx(up / (up + down))
            assert 0.0 < churn.availability(device) < 1.0
