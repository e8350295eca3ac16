"""Hypothesis properties of one :class:`AdaptiveReplicator` cycle.

The decision rule, checked against a snapshot taken before the cycle:
a (digest, region) pair receives a copy only when the region held
fewer than ``target_replicas`` replicas, at most one copy per pair and
at most ``max_actions_per_cycle`` per cycle, always onto a member of
the region that did not hold the layer.  When the cap is not reached
the rule is also complete: every hot pair that has a holder to copy
from, is below target, and has a non-holder member gets exactly one
copy.  That completeness is what pins any shortcut the sweep takes
before copying holders.  Every device has a channel to every other and
caches never fill, so no copy is ever skipped for lack of a route or
of room.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.network import NetworkModel
from repro.model.units import BYTES_PER_GB
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.p2p import AdaptiveReplicator, PeerSwarm
from repro.sim.engine import Simulator

DIGESTS = [digest_text(f"replicator-prop-{i}") for i in range(4)]
HOT_THRESHOLD = 3.0
#: Room for every digest at once (at most 4 x 100 B): no copy evicts.
CACHE_BYTES = 1000


@st.composite
def cycles(draw):
    region_sizes = draw(
        st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4)
    )
    devices = [
        (f"r{r}-d{i}", f"r{r}")
        for r, size in enumerate(region_sizes)
        for i in range(size)
    ]
    names = [name for name, _region in devices]
    digests = DIGESTS[: draw(st.integers(min_value=1, max_value=len(DIGESTS)))]
    seeded = {
        digest: (
            draw(st.integers(min_value=1, max_value=100)),
            draw(st.sets(st.sampled_from(names))),
        )
        for digest in digests
    }
    demand = draw(
        st.lists(
            st.tuples(
                st.sampled_from(digests),
                st.sampled_from(names),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=24,
        )
    )
    knobs = dict(
        target_replicas=draw(st.integers(min_value=1, max_value=3)),
        hotness=draw(st.sampled_from(["global", "per-region"])),
        max_actions_per_cycle=draw(st.integers(min_value=1, max_value=8)),
    )
    return devices, seeded, demand, knobs


def build(devices, seeded):
    network = NetworkModel()
    network.connect_device_mesh([name for name, _region in devices], 800.0)
    swarm = PeerSwarm(network)
    for name, region in devices:
        swarm.add_device(
            name, ImageCache(CACHE_BYTES / BYTES_PER_GB, name), region=region
        )
    for digest, (size, holders) in seeded.items():
        for name in sorted(holders):
            swarm.index.cache_of(name).add(digest, size)
    return swarm


@settings(max_examples=60, deadline=None)
@given(case=cycles())
def test_one_cycle_follows_the_decision_rule(case):
    devices, seeded, demand, knobs = case
    swarm = build(devices, seeded)
    replicator = AdaptiveReplicator(
        Simulator(), swarm, interval_s=10.0, hot_threshold=HOT_THRESHOLD,
        **knobs,
    )
    scores = {}
    for digest, name, count in demand:
        for _ in range(count):
            swarm.record_demand(digest, name)
        key = (digest, swarm.region_of(name))
        scores[key] = scores.get(key, 0) + count

    regions = swarm.regions()
    members = {region: frozenset(swarm.members(region)) for region in regions}
    before = {digest: swarm.index.holders(digest) for digest in seeded}
    if knobs["hotness"] == "global":
        totals = {}
        for (digest, _region), score in scores.items():
            totals[digest] = totals.get(digest, 0) + score
        hot_pairs = {
            (digest, region)
            for digest, total in totals.items()
            if total >= HOT_THRESHOLD
            for region in regions
        }
    else:
        hot_pairs = {
            key for key, score in scores.items() if score >= HOT_THRESHOLD
        }

    cycle = replicator.run_cycle()
    actions = cycle.actions

    assert set(cycle.hot_digests) == {digest for digest, _r in hot_pairs}
    assert len(actions) <= knobs["max_actions_per_cycle"]
    acted = [(action.digest, action.region) for action in actions]
    assert len(acted) == len(set(acted))
    target = knobs["target_replicas"]
    for action in actions:
        key = (action.digest, action.region)
        assert key in hot_pairs
        assert action.target in members[action.region]
        assert action.target not in before[action.digest]
        assert swarm.index.holds(action.target, action.digest)
        assert swarm.index.holds(action.source, action.digest)
        assert len(before[action.digest] & members[action.region]) < target
    if len(actions) < knobs["max_actions_per_cycle"]:
        for digest, region in sorted(hot_pairs):
            holders = before[digest]
            expected = (
                bool(holders)
                and len(holders & members[region]) < target
                and bool(members[region] - holders)
            )
            assert ((digest, region) in acted) == expected, (digest, region)

    for digest, holders in before.items():
        assert holders <= swarm.index.holders(digest)  # nothing evicted
    assert {region: swarm.members(region) for region in regions} == members
    assert swarm.index.coherence_violations() == []
    assert replicator.bytes_replicated == sum(a.size_bytes for a in actions)
