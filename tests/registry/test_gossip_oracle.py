"""Differential tests: the packed-key merge path against its frozen
reference (:mod:`gossip_oracle`).

Both backends share membership, partner choice, loss draws and latency
scheduling, so the same operations must leave the same views and the
same wire, loss and stale-miss counters — after every operation of a
random sequence, and at the end of whole simulated sessions.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.session as session_module
from repro.model.units import BYTES_PER_GB
from repro.registry.cache import ImageCache
from repro.registry.digest import digest_text
from repro.registry.discovery import GossipDiscovery
from repro.registry.p2p import PeerIndex
from repro.scenarios import SimulationSession, get, with_overrides
from repro.scenarios.session import deterministic_outcome_dict

from gossip_oracle import OracleGossipDiscovery, decoded_views

DEVICES = [f"d{i}" for i in range(6)]
DIGESTS = [digest_text(f"gossip-oracle-{i}") for i in range(3)]

device_idx = st.integers(0, len(DEVICES) - 1)
digest_idx = st.integers(0, len(DIGESTS) - 1)

#: One operation on the swarm, as indices into DEVICES / DIGESTS
#: (taken modulo the swarm size).  Rounds, adds and removes are listed
#: more than once so they make up a larger share.  ``miss`` picks a viewer (the last index is the
#: management observer), a digest, and an index into that viewer's
#: current view of it, so suppressions hit entries that exist.
operations = st.one_of(
    st.tuples(st.just("round")),
    st.tuples(st.just("round")),
    st.tuples(st.just("round")),
    st.tuples(st.just("add"), device_idx, digest_idx),
    st.tuples(st.just("add"), device_idx, digest_idx),
    st.tuples(st.just("remove"), device_idx, digest_idx),
    st.tuples(st.just("remove"), device_idx, digest_idx),
    st.tuples(st.just("leave"), device_idx),
    st.tuples(st.just("join"), device_idx),
    st.tuples(
        st.just("miss"), st.integers(0, len(DEVICES)), digest_idx,
        st.integers(0, 7),
    ),
)


class _World:
    """One backend plus the caches that feed it first-hand events, each
    through the peer index that observes it (as in a swarm)."""

    def __init__(self, cls, n, placement, **knobs):
        self.disc = cls(**knobs)
        self.index = PeerIndex()
        self.index.forward = self.disc.note
        self.names = DEVICES[:n]
        # Two 10-byte layers fit: a third add evicts the LRU one.
        self.caches = {
            name: ImageCache(20 / BYTES_PER_GB, name) for name in self.names
        }
        for dev, digest in placement:
            self.caches[self.names[dev % n]].add(DIGESTS[digest], 10)
        self.online = set()
        for name in self.names:
            self.join(name)

    def join(self, name):
        self.disc.on_join(name)
        self.index.register_cache(name, self.caches[name])
        self.online.add(name)

    def apply(self, op):
        kind, args = op[0], op[1:]
        if kind == "round":
            self.disc.run_round()
            return
        if kind == "miss":
            viewer_idx, digest, pick = args
            viewer = (
                self.disc.observer
                if viewer_idx >= len(self.names)
                else self.names[viewer_idx]
            )
            seen = sorted(self.disc.view(viewer, DIGESTS[digest]))
            holder = seen[pick % len(seen)] if seen else self.names[0]
            self.disc.record_miss(viewer, holder, DIGESTS[digest])
            return
        name = self.names[args[0] % len(self.names)]
        if kind == "add":
            self.caches[name].add(DIGESTS[args[1]], 10)
        elif kind == "remove":
            self.caches[name].remove(DIGESTS[args[1]])
        elif kind == "leave":
            # Offline caches keep changing unseen: a re-join brings a
            # stale cache back under a new incarnation.
            if name in self.online and len(self.online) > 2:
                self.disc.on_leave(name)
                self.index.unregister_cache(name)
                self.online.discard(name)
        elif kind == "join":
            if name not in self.online:
                self.join(name)

    def state(self):
        disc = self.disc
        return (
            decoded_views(disc),
            disc.records_sent,
            disc.payloads_lost,
            disc.stale_misses,
            disc.rounds,
            disc.exchanges,
        )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=len(DEVICES)),
    fanout=st.integers(min_value=1, max_value=3),
    view_cap=st.integers(min_value=1, max_value=4),
    exchange=st.sampled_from(["push-pull", "digest-summary"]),
    loss_rate=st.sampled_from([0.0, 0.3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    placement=st.lists(st.tuples(device_idx, digest_idx), max_size=12),
    ops=st.lists(operations, min_size=1, max_size=80),
)
def test_operation_sequences_match_the_frozen_merge(
    n, fanout, view_cap, exchange, loss_rate, seed, placement, ops
):
    knobs = dict(
        fanout=fanout,
        view_cap=view_cap,
        exchange=exchange,
        loss_rate=loss_rate,
        seed=seed,
    )
    live = _World(GossipDiscovery, n, placement, **knobs)
    oracle = _World(OracleGossipDiscovery, n, placement, **knobs)
    assert live.state() == oracle.state()
    for step, op in enumerate(ops):
        live.apply(op)
        oracle.apply(op)
        assert live.state() == oracle.state(), (step, op)


#: p2p-gossip preset variants covering each transport knob.
SESSION_VARIANTS = [
    {},
    {"discovery.gossip_exchange": "digest-summary"},
    {"discovery.gossip_loss_rate": 0.3, "discovery.gossip_view_cap": 2},
    {"discovery.gossip_latency_s": 30, "discovery.gossip_fanout": 3},
]


def test_whole_sessions_match_the_frozen_merge(monkeypatch):
    def outcomes():
        return [
            deterministic_outcome_dict(
                SimulationSession(
                    with_overrides(get("p2p-gossip"), variant)
                ).run().to_dict()
            )
            for variant in SESSION_VARIANTS
        ]

    live = outcomes()
    monkeypatch.setattr(
        session_module, "GossipDiscovery", OracleGossipDiscovery
    )
    frozen = outcomes()
    assert live == frozen
    # Every variant actually gossiped (and the lossy one lost payloads).
    assert all(o["gossip_rounds"] > 0 for o in live)
    assert live[2]["gossip_payloads_lost"] > 0
