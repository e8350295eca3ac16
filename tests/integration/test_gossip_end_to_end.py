"""End-to-end: gossip discovery and churn on the full pull stack.

Covers the two integration seams the discovery refactor touches:
scenario sessions (gossip + churn specs through ``SimulationSession``)
and the headline ``p2p-gossip`` experiment (omniscient must never
*understate* savings relative to gossip by more than noise).
"""

import dataclasses
import hashlib

import pytest

from repro import scenarios
from repro.experiments import p2p
from repro.registry import ImageCache
from repro.scenarios import (
    ChurnSpec,
    DiscoverySpec,
    ScenarioSpec,
    SimulationSession,
    TopologySpec,
    WorkloadSpec,
)
from repro.sim.rng import DEFAULT_SEED


class TestGossipAndChurnSessions:
    """Gossip discovery and churn described as specs and run through
    ``SimulationSession`` on the full pull stack."""

    @pytest.fixture(scope="class")
    def base(self):
        return ScenarioSpec(
            mode="hybrid+p2p",
            topology=TopologySpec(n_devices=10, n_regions=2),
            workload=WorkloadSpec(n_images=4, pulls_per_device=3),
        )

    def test_gossip_never_beats_omniscient_origin_traffic(self, base):
        omni = SimulationSession(base).run()
        gossip = SimulationSession(
            dataclasses.replace(
                base,
                discovery=DiscoverySpec(
                    backend="gossip", gossip_period_s=120.0
                ),
            )
        ).run()
        assert gossip.pulls == omni.pulls
        # Partial views can only hide committed replicas, never invent
        # them: gossip peer traffic is bounded by omniscient's and the
        # origin picks up the difference (small eviction-order noise
        # aside, which this seeded scenario does not exhibit).
        assert gossip.origin_bytes >= omni.origin_bytes
        assert omni.stale_peer_misses == 0
        assert omni.gossip_rounds == 0
        assert gossip.gossip_rounds > 0

    def test_churn_skips_offline_pulls_and_counts_them(self, base):
        churn = ChurnSpec(
            mean_uptime_s=400.0, mean_downtime_s=200.0, min_online=3
        )
        session = SimulationSession(dataclasses.replace(base, churn=churn))
        outcome = session.run()
        assert outcome.departures > 0
        assert outcome.pulls + outcome.skipped_pulls == len(
            session.scenario.schedule
        )
        assert outcome.unfinished_pulls == 0

    def test_gossip_plus_churn_meters_stale_misses(self, base):
        spec = dataclasses.replace(
            base,
            discovery=DiscoverySpec(backend="gossip", gossip_period_s=60.0),
            churn=ChurnSpec(
                mean_uptime_s=300.0, mean_downtime_s=300.0, min_online=3
            ),
        )
        outcome = SimulationSession(spec).run()
        # Departed holders linger in partial views until tripped over.
        assert outcome.stale_peer_misses > 0

    def test_unknown_discovery_rejected(self):
        with pytest.raises(ValueError, match="discovery"):
            DiscoverySpec(backend="psychic")


class TestGossipExperiment:
    def test_run_gossip_reports_the_savings_gap(self):
        result = p2p.run_gossip(seed=DEFAULT_SEED)
        assert result.experiment_id == "p2p-gossip"
        assert len(result.rows) == 2 * len(p2p.CHURN_REGIMES)
        by_key = {(r["churn"], r["discovery"]): r for r in result.rows}
        for label, _cfg in p2p.CHURN_REGIMES:
            omni = by_key[(label, "omniscient")]
            gossip = by_key[(label, "gossip")]
            assert omni["stale_misses"] == 0
            assert gossip["saved_pct"] <= omni["saved_pct"] + 5.0
            # Churn draws are seeded per device, but blocked-departure
            # redraws depend on pull timing (which differs per
            # backend), so only the schedule total is invariant.
            assert gossip["pulls"] + gossip["skipped"] == (
                omni["pulls"] + omni["skipped"]
            )
        assert any("overstates" in note for note in result.notes)


#: Time-resolved gossip sessions pinned by outcome digest: no preset
#: runs gossip discovery through the transfer engine, yet only such
#: runs make a pull wait on a concurrent reservation (``when_settled``)
#: or commit a stale-view replicator copy onto a device that already
#: holds the layer (``commit``'s refresh branch).  The last row pins
#: time-resolved Zipf pulls under an upload budget.  Batching co-started
#: handshakes moved the chunked row (223e7898…, 82d3e37c…) through
#: ``engine_transfers_visited`` alone: 1,808 -> 1,217 and 2,105 -> 1,441.
_TIME_RESOLVED = {"transfer.model": "time-resolved"}
GOSSIP_PINS = [
    ("p2p-gossip", _TIME_RESOLVED, True, {
        1: "f185eaf6df9774e469c5b7006677cdc4f3e47d85bbc4d18d35e28d130b9c8254",
        2: "af37ab3a965288e7fe1483d51ab80f1fe8e9139915c9d9abefa2fcac62ebd40e",
    }),
    ("p2p-gossip", dict(
        _TIME_RESOLVED,
        **{"chunks.enabled": True, "transfer.upload_budget": 2},
    ), True, {
        1: "41ca5a13bc31cd81b69a2b61b0787a9f9ce8fd1be39d24fa407e887bef5e9e4b",
        2: "959f86dc8d51a9c7e47675a7eda54192b9ea28defe2202a5ef8ab186c671e391",
    }),
    ("p2p-gossip", dict(
        _TIME_RESOLVED,
        **{
            "discovery.gossip_latency_s": 30,
            "discovery.gossip_loss_rate": 0.1,
            "replication.churn_aware": True,
        },
    ), True, {
        1: "7d8e5907bcae61c3fc6db0189f334d23b591113464d67c3b8db269811755af91",
        2: "24afea315cdab83f447de4d16f1e290c541014208f68b5d7514273b848789fe7",
    }),
    ("p2p", dict(_TIME_RESOLVED, **{"transfer.upload_budget": 1}), False, {
        1: "f34dab661eebdd9c260f2f38c19116e7c16939da4f30d3e88c900f4be3cc62ab",
        2: "d188ffb6a2c62c0402cb4031e9d8ff4abe00ca26ab69d071b430871562ef962d",
    }),
]


@pytest.mark.parametrize(
    "preset, overrides, reaches_both_paths, digests",
    GOSSIP_PINS,
    ids=["gossip", "gossip-chunked", "gossip-lossy", "zipf-budget"],
)
def test_time_resolved_gossip_outcome_is_pinned(
    monkeypatch, preset, overrides, reaches_both_paths, digests
):
    calls = {"when_settled": 0, "refresh": 0}
    when_settled = ImageCache.when_settled
    commit = ImageCache.commit

    def counting_when_settled(self, *args):
        calls["when_settled"] += 1
        return when_settled(self, *args)

    def counting_commit(self, digest):
        committed = commit(self, digest)
        calls["refresh"] += not committed
        return committed

    monkeypatch.setattr(ImageCache, "when_settled", counting_when_settled)
    monkeypatch.setattr(ImageCache, "commit", counting_commit)
    seen = {}
    for seed in digests:
        spec = scenarios.with_overrides(
            scenarios.get(preset), dict(overrides, seed=seed)
        )
        outcome = SimulationSession(spec).run()
        canonical = scenarios.canonical_json(
            scenarios.deterministic_outcome_dict(outcome.to_dict())
        )
        seen[seed] = hashlib.sha256(canonical.encode("ascii")).hexdigest()
    assert seen == digests
    # Across its seeds each gossip row covers both presence paths; the
    # Zipf row neither.
    assert bool(calls["when_settled"]) is reaches_both_paths
    assert bool(calls["refresh"]) is reaches_both_paths
