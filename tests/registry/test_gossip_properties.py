"""Hypothesis properties of gossip discovery.

Two load-bearing invariants:

* **Bounded convergence** — absent churn, every member's view of every
  digest converges to the committed replica set within a bounded
  number of anti-entropy rounds (bound ``3·n`` is generous: push-pull
  gossip disseminates in ``O(log n)`` rounds with overwhelming
  probability, and the draws here are seeded).
* **Monotone staleness** — a device's local view never reports a
  ``(holder, digest)`` entry it has itself observed dropped: once a
  drop is known at some version, merging any record at or below that
  version cannot resurrect the entry.  (A *strictly newer* presence —
  a re-add or a new incarnation — legitimately revives it.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel
from repro.model.units import BYTES_PER_GB
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.discovery import GossipDiscovery, _version_key
from repro.registry.p2p import PeerSwarm
from repro.scenarios import DiscoverySpec
from repro.sim.engine import Simulator

DIGESTS = [digest_text(f"gossip-prop-{i}") for i in range(4)]


def evict_everything(cache: ImageCache) -> None:
    """Drop every entry the way a run does: admit one that fills the
    cache, so LRU eviction takes all the others."""
    cache.add(digest_text(f"filler-{cache.device}"), cache.capacity_bytes)


def build_swarm(n: int, fanout: int, seed: int):
    network = NetworkModel()
    names = [f"d{i}" for i in range(n)]
    network.connect_device_mesh(names, 800.0)
    # view_cap >= n so convergence can be *exact* (partiality off).
    discovery = GossipDiscovery(
        Simulator(),
        DiscoverySpec(
            backend="gossip", gossip_fanout=fanout, gossip_view_cap=n
        ),
        seed=seed,
    )
    swarm = PeerSwarm(network, discovery=discovery)
    caches = {}
    for name in names:
        caches[name] = ImageCache(1000 / BYTES_PER_GB, name)
        swarm.add_device(name, caches[name], region="r0")
    return swarm, caches, discovery


def fully_converged(swarm, discovery) -> bool:
    for viewer in swarm.devices():
        for digest in DIGESTS:
            truth = swarm.index.holders(digest) - {viewer}
            if discovery.view(viewer, digest) != truth:
                return False
    return True


class TestBoundedConvergence:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=10),
        fanout=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        placement=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),
                st.sampled_from(DIGESTS),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_views_converge_within_3n_rounds(self, n, fanout, seed, placement):
        swarm, caches, discovery = build_swarm(n, fanout, seed)
        for device_idx, digest in placement:
            caches[f"d{device_idx % n}"].add(digest, 10)
        rounds = 0
        while not fully_converged(swarm, discovery):
            discovery.run_round()
            rounds += 1
            assert rounds <= 3 * n, (
                f"views not converged after {rounds} rounds "
                f"(n={n}, fanout={fanout}, seed={seed})"
            )
        # And convergence is stable: more rounds change nothing.
        discovery.run_round()
        assert fully_converged(swarm, discovery)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_drops_also_converge(self, n, seed):
        swarm, caches, discovery = build_swarm(n, fanout=2, seed=seed)
        for name in list(caches)[: max(2, n // 2)]:
            caches[name].add(DIGESTS[0], 10)
        for _ in range(3 * n):
            discovery.run_round()
        evict_everything(caches["d0"])
        rounds = 0
        while not fully_converged(swarm, discovery):
            discovery.run_round()
            rounds += 1
            assert rounds <= 3 * n
        for viewer in swarm.devices():
            assert "d0" not in discovery.view(viewer, DIGESTS[0])


#: Version-ordered events a viewer can observe about one (holder,
#: digest) pair, as (incarnation, seq, present) triples.
records = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
)


def offer(discovery, viewer, holder, digest, record):
    """Deliver a one-record payload about ``holder`` to ``viewer``."""
    discovery._deliver(
        viewer, ({digest: [(holder, _version_key(*record))]}, 1)
    )


class TestMonotoneStaleness:
    @settings(max_examples=100, deadline=None)
    @given(
        drop=st.tuples(
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=0, max_value=6),
        ),
        merges=st.lists(records, max_size=12),
    )
    def test_observed_drop_is_never_resurrected_by_older_records(
        self, drop, merges
    ):
        """After observing holder h drop a digest at version v, no
        sequence of merges with records of version <= v makes the view
        report h again."""
        swarm, caches, discovery = build_swarm(3, fanout=1, seed=0)
        holder, viewer, digest = "d1", "d0", DIGESTS[0]
        offer(discovery, viewer, holder, digest, (*drop, False))
        assert holder not in discovery.view(viewer, digest)
        for record in merges:
            offer(discovery, viewer, holder, digest, record)
        reported = holder in discovery.view(viewer, digest)
        # The entry may only be reported if some merged record was a
        # *strictly newer* presence than the observed drop.
        legitimately_revived = any(
            present and (inc, seq) > drop for inc, seq, present in merges
        )
        if not legitimately_revived:
            assert not reported

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_record_miss_suppression_survives_equal_version_gossip(
        self, seed
    ):
        """A stale-miss suppression is not undone by re-hearing the
        same (equal-version) rumour from another peer."""
        swarm, caches, discovery = build_swarm(4, fanout=2, seed=seed)
        caches["d1"].add(DIGESTS[0], 10)
        for _ in range(12):
            discovery.run_round()
        assert "d1" in discovery.view("d0", DIGESTS[0])
        evict_everything(caches["d1"])
        # d0 trips over the stale entry before gossip spreads the drop;
        # re-merge every *other* participant's (old) knowledge at d0.
        discovery.record_miss("d0", "d1", DIGESTS[0])
        for other in ("d2", "d3"):
            discovery._deliver("d0", discovery._payload(other))
        assert "d1" not in discovery.view("d0", DIGESTS[0])
