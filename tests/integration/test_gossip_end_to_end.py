"""End-to-end: gossip discovery and churn on the full pull stack.

Covers the two integration seams the discovery refactor touches:
scenario sessions (gossip + churn specs through ``SimulationSession``)
and the headline ``p2p-gossip`` experiment (omniscient must never
*understate* savings relative to gossip by more than noise).
"""

import dataclasses

import pytest

from repro.experiments import p2p
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
