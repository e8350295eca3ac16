"""Counted resources and seeded RNG streams."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Resource, RngRegistry, Simulator, default_registry


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), 0)

    def test_grant_when_available(self):
        sim = Simulator()
        res = Resource(sim, 2)
        log = []

        def proc():
            yield res.request(2)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [0.0]

    def test_fifo_queueing(self):
        sim = Simulator()
        res = Resource(sim, 1)
        log = []

        def holder():
            yield res.request()
            yield sim.timeout(5.0)
            res.release()

        def waiter(name):
            yield res.request()
            log.append((name, sim.now))
            res.release()

        sim.process(holder())
        sim.process(waiter("a"))
        sim.process(waiter("b"))
        sim.run()
        assert log == [("a", 5.0), ("b", 5.0)]

    def test_head_of_line_blocking(self):
        """A big request at the head blocks later small ones (no starvation)."""
        sim = Simulator()
        res = Resource(sim, 2)
        log = []

        def holder():
            yield res.request(2)
            yield sim.timeout(3.0)
            res.release(2)

        def big():
            yield res.request(2)
            log.append(("big", sim.now))
            res.release(2)

        def small():
            yield res.request(1)
            log.append(("small", sim.now))
            res.release(1)

        sim.process(holder())
        sim.process(big())
        sim.process(small())
        sim.run()
        assert log[0][0] == "big"

    def test_over_capacity_request_rejected(self):
        sim = Simulator()
        res = Resource(sim, 2)
        with pytest.raises(ValueError):
            res.request(3)

    def test_over_release_rejected(self):
        sim = Simulator()
        res = Resource(sim, 2)
        with pytest.raises(RuntimeError):
            res.release(1)


class TestRng:
    def test_same_name_same_stream(self):
        reg = RngRegistry(7)
        assert reg.stream("a") is reg.stream("a")

    def test_deterministic_across_registries(self):
        a = RngRegistry(7).stream("x").integers(0, 1_000_000, 10)
        b = RngRegistry(7).stream("x").integers(0, 1_000_000, 10)
        assert list(a) == list(b)

    def test_different_names_independent(self):
        reg = RngRegistry(7)
        a = reg.stream("a").integers(0, 1_000_000, 10)
        b = reg.stream("b").integers(0, 1_000_000, 10)
        assert list(a) != list(b)

    def test_adding_stream_does_not_perturb_existing(self):
        reg1 = RngRegistry(7)
        first = list(reg1.stream("x").integers(0, 10**6, 5))
        reg2 = RngRegistry(7)
        reg2.stream("unrelated")  # extra consumer
        second = list(reg2.stream("x").integers(0, 10**6, 5))
        assert first == second

    def test_fork_independent(self):
        reg = RngRegistry(7)
        fork = reg.fork("child")
        a = list(reg.stream("x").integers(0, 10**6, 5))
        b = list(fork.stream("x").integers(0, 10**6, 5))
        assert a != b

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngRegistry(-1)

    def test_default_registry_stable(self):
        assert default_registry().derive_seed("x") == default_registry().derive_seed("x")

    @given(seed=st.integers(0, 2**32), name=st.text(min_size=1, max_size=20))
    def test_derive_seed_in_64_bit_range(self, seed, name):
        derived = RngRegistry(seed).derive_seed(name)
        assert 0 <= derived < 2**64
