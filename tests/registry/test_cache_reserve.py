"""Reserve → commit admission protocol and the cache's one observer.

The protocol backs the time-resolved pull path: in-flight bytes hold
capacity without being *present*, so the observer (the peer index) only
ever sees layers that have fully landed.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model.units import BYTES_PER_GB
from repro.registry.cache import (
    CacheFull,
    ImageCache,
    ReservationError,
)
from repro.registry.digest import digest_text
from repro.registry.p2p import PeerIndex

D = [digest_text(f"layer-{i}") for i in range(8)]

CAPACITY = 100


def make_cache() -> ImageCache:
    return ImageCache(CAPACITY / BYTES_PER_GB, device="edge-r")


class TestReserveCommit:
    def test_reserved_digest_is_not_present_until_commit(self):
        cache = make_cache()
        events = []
        cache.observer = lambda device, digest, size, present: (
            events.append((present, digest))
        )
        cache.reserve(D[0], 40)
        assert D[0] not in cache
        assert cache.reserved_bytes == 40
        assert cache.used_bytes == 0
        assert cache.free_bytes == 60
        assert events == []  # nothing announced while in flight
        assert cache.commit(D[0]) is True
        assert D[0] in cache
        assert cache.reserved_bytes == 0
        assert cache.used_bytes == 40
        assert events == [(True, D[0])]

    def test_release_frees_without_event(self):
        cache = make_cache()
        events = []
        cache.observer = lambda device, digest, size, present: (
            events.append(present)
        )
        cache.reserve(D[0], 40)
        assert cache.release(D[0]) is True
        assert cache.release(D[0]) is False
        assert cache.reserved_bytes == 0
        assert cache.free_bytes == CAPACITY
        assert events == []

    def test_double_reserve_rejected(self):
        cache = make_cache()
        cache.reserve(D[0], 10)
        with pytest.raises(ReservationError):
            cache.reserve(D[0], 10)

    def test_a_reservation_map_lives_only_while_a_reservation_does(self):
        first, second = make_cache(), make_cache()
        idle = second._reserved  # the shared empty default
        first.reserve(D[0], 10)
        first.reserve(D[1], 20)
        assert first._reserved is not idle
        assert not second.is_reserved(D[0]) and not idle
        assert first.commit(D[0]) is True
        assert first.is_reserved(D[1])
        assert first.release(D[1]) is True
        assert first._reserved is idle
        assert first.reserved_bytes == 0
        first.reserve(D[2], 30)
        assert first.reserved_bytes == 30
        assert first.evictions == [] and second.evictions == []

    def test_reserve_of_present_digest_is_refresh(self):
        cache = make_cache()
        cache.add(D[0], 30)
        cache.add(D[1], 30)
        assert cache.reserve(D[0], 30) == []
        assert cache.reserved_bytes == 0
        # The refresh bumped recency: D[1] is now the LRU victim.
        cache.add(D[2], 60)
        assert D[0] in cache and D[1] not in cache
        # Its commit is a plain recency touch.
        assert cache.commit(D[0]) is False

    def test_commit_of_unknown_digest_raises(self):
        cache = make_cache()
        with pytest.raises(ReservationError):
            cache.commit(D[0])

    def test_reserve_evicts_lru_entries(self):
        cache = make_cache()
        cache.add(D[0], 50)
        cache.add(D[1], 40)
        evicted = cache.reserve(D[2], 60)
        assert [e.digest for e in evicted] == [D[0]]
        assert D[0] not in cache and D[1] in cache

    def test_reservations_are_not_evictable(self):
        cache = make_cache()
        cache.reserve(D[0], 60)
        cache.reserve(D[1], 30)
        with pytest.raises(CacheFull):
            cache.add(D[2], 20)  # only 10 free and nothing to evict
        with pytest.raises(CacheFull):
            cache.reserve(D[3], 20)

    def test_oversized_reservation_rejected(self):
        cache = make_cache()
        with pytest.raises(CacheFull):
            cache.reserve(D[0], CAPACITY + 1)

    def test_clear_drops_reservations(self):
        cache = make_cache()
        cache.reserve(D[0], 40)
        cache.clear()
        assert cache.reserved_bytes == 0
        with pytest.raises(ReservationError):
            cache.commit(D[0])

    def test_add_can_still_fill_capacity_alongside_reservations(self):
        cache = make_cache()
        cache.reserve(D[0], 30)
        cache.add(D[1], 50)
        cache.add(D[2], 20)
        assert cache.used_bytes == 70 and cache.reserved_bytes == 30
        # Next insert must evict committed entries, never the reservation.
        cache.add(D[3], 50)
        assert cache.reserved_bytes == 30
        assert cache.used_bytes + cache.reserved_bytes <= CAPACITY


#: One reservation of D[0] with a settle waiter, then each way it can
#: settle: commit, release, clear() and an absorbing add().  The last
#: route reserves D[0] again and settles it again, which must not call
#: the first waiter a second time.
_SETTLE_ROUTES = [
    [("reserve", D[0], 10), ("when_settled", D[0], 0), (op, D[0], 10)]
    for op in ("commit", "release", "clear", "add")
] + [
    [
        ("reserve", D[0], 10), ("when_settled", D[0], 0),
        ("release", D[0], 0), ("reserve", D[0], 10), ("commit", D[0], 0),
    ]
]


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                [
                    "add", "reserve", "commit", "release", "remove", "clear",
                    "when_settled",
                ]
            ),
            st.sampled_from(D),
            st.integers(min_value=0, max_value=60),
        ),
        max_size=40,
    )
)
@example(ops=_SETTLE_ROUTES[0])
@example(ops=_SETTLE_ROUTES[1])
@example(ops=_SETTLE_ROUTES[2])
@example(ops=_SETTLE_ROUTES[3])
@example(ops=_SETTLE_ROUTES[4])
def test_capacity_invariant_under_mixed_operations(ops):
    cache = make_cache()
    # Settle waiters: digest -> ids still waiting; fired[id] counts calls.
    waiting = {}
    fired = []
    for op, digest, size in ops:
        try:
            if op == "add":
                cache.add(digest, size)
            elif op == "reserve":
                cache.reserve(digest, size)
            elif op == "commit":
                cache.commit(digest)
            elif op == "release":
                cache.release(digest)
            elif op == "clear":
                cache.clear()
            elif op == "when_settled":
                if not cache.is_reserved(digest):
                    with pytest.raises(ReservationError):
                        cache.when_settled(digest, lambda: None)
                    continue
                waiter = len(fired)
                fired.append(0)
                waiting.setdefault(digest, []).append(waiter)

                def settle(waiter=waiter):
                    fired[waiter] += 1

                cache.when_settled(digest, settle)
            else:
                cache.remove(digest)
        except (CacheFull, ReservationError):
            pass
        assert 0 <= cache.used_bytes + cache.reserved_bytes <= CAPACITY
        assert cache.used_bytes == sum(s for _, s in cache.entries())
        assert cache.free_bytes == (
            CAPACITY - cache.used_bytes - cache.reserved_bytes
        )
        # A digest is never both present and reserved... unless add()
        # raced a reservation, which reserve() itself forbids.
        for d, _ in cache.entries():
            if cache.is_reserved(d):
                pytest.fail(f"{d} both present and reserved")
        # A waiter fires exactly once, as soon as its reservation
        # settles (no operation both settles and re-reserves a digest).
        for d in list(waiting):
            if cache.is_reserved(d):
                assert all(fired[w] == 0 for w in waiting[d])
            else:
                del waiting[d]
        assert all(
            count == 1
            for w, count in enumerate(fired)
            if not any(w in ids for ids in waiting.values())
        )


class TestObserver:
    """A cache has one observer, which only the peer index sets."""

    def test_second_registration_of_an_observed_cache_raises(self):
        cache = make_cache()
        PeerIndex().register_cache("edge-r", cache)
        observer = cache.observer
        with pytest.raises(ValueError, match="already has an observer"):
            PeerIndex().register_cache("edge-r", cache)
        # The first index keeps observing, undisturbed.
        assert cache.observer is observer

    def test_unregistering_frees_the_slot(self):
        cache = make_cache()
        first = PeerIndex()
        first.register_cache("edge-r", cache)
        first.unregister_cache("edge-r")
        assert cache.observer is None
        second = PeerIndex()
        second.register_cache("edge-r", cache)
        cache.add(D[0], 10)
        assert second.holders(D[0]) == {"edge-r"}
        assert first.holders(D[0]) == frozenset()

    @pytest.mark.parametrize("op", ["add", "evict", "commit", "remove", "clear"])
    def test_observer_exception_propagates_after_the_state_change(self, op):
        cache = make_cache()
        cache.add(D[0], 60)
        if op == "commit":
            cache.reserve(D[1], 30)
        seen = []

        def broken(device, digest, size, present):
            seen.append((digest, present))
            raise RuntimeError("observer bug")

        cache.observer = broken
        with pytest.raises(RuntimeError, match="observer bug"):
            if op == "add":
                cache.add(D[1], 30)
            elif op == "evict":
                cache.add(D[1], 50)  # D[0] is the LRU victim
            elif op == "commit":
                cache.commit(D[1])
            elif op == "remove":
                cache.remove(D[0])
            else:
                cache.clear()
        # The change the observer heard of is applied and accounted (an
        # insert whose eviction raised is not made), and nothing else
        # was announced.
        expected = {
            "add": ({D[0]: 60, D[1]: 30}, (D[1], True)),
            "evict": ({}, (D[0], False)),
            "commit": ({D[0]: 60, D[1]: 30}, (D[1], True)),
            "remove": ({}, (D[0], False)),
            "clear": ({}, (D[0], False)),
        }[op]
        assert dict(cache.entries()) == expected[0]
        assert seen == [expected[1]]
        assert cache.used_bytes == sum(expected[0].values())
        assert cache.reserved_bytes == 0
        assert not cache.is_reserved(D[1])
