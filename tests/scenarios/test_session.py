"""SimulationSession: assembly, scenario reuse, and the outcome dict.

The headline guarantee: a session run on a scenario that an earlier
session already ran equals a session that builds its own, on every
configuration axis (transfer model, discovery, churn, chunking) — the
experiments share one scenario across the modes they compare.
"""

import dataclasses

import pytest

from repro import scenarios
from repro.scenarios import (
    ChunkSpec,
    ChurnSpec,
    DiscoverySpec,
    ScenarioSpec,
    SimulationSession,
    TopologySpec,
    TransferSpec,
    WorkloadSpec,
    build_swarm_scenario,
)
from repro.sim.transfers import TransferModel


def _small_spec(**kwargs) -> ScenarioSpec:
    kwargs.setdefault("topology", TopologySpec(n_devices=6, n_regions=2))
    kwargs.setdefault(
        "workload", WorkloadSpec(kind="zipf", n_images=4, pulls_per_device=3)
    )
    return ScenarioSpec(**kwargs)


class TestAssembly:
    def test_components_exposed_after_construction(self):
        session = SimulationSession(_small_spec(
            transfer=TransferSpec(model=TransferModel.TIME_RESOLVED),
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
        assert [r.name for r in session.facade.registries] == ["docker-hub"]

    def test_sessions_are_single_use(self):
        session = SimulationSession(_small_spec())
        session.run()
        with pytest.raises(RuntimeError, match="single-use"):
            session.run()

    def test_prebuilt_scenario_seed_must_match(self):
        spec = _small_spec(seed=3)
        scenario = build_swarm_scenario(spec)
        with pytest.raises(ValueError, match="seed"):
            SimulationSession(
                dataclasses.replace(spec, seed=4), scenario=scenario
            )


class TestScenarioReuse:
    """``run``, ``run_contended`` and ``run_gossip`` run every mode they
    compare on one built scenario, so a run must leave nothing in it
    that changes the next run."""

    CASES = {
        "analytic-omniscient": dict(),
        "time-resolved": dict(
            transfer=TransferSpec(
                model=TransferModel.TIME_RESOLVED, upload_budget=2
            ),
        ),
        "gossip-churn": dict(
            discovery=DiscoverySpec(backend="gossip", gossip_period_s=120.0),
            churn=ChurnSpec(
                mean_uptime_s=400.0, mean_downtime_s=200.0, min_online=3
            ),
        ),
        "chunked": dict(
            transfer=TransferSpec(
                model=TransferModel.TIME_RESOLVED, upload_budget=2
            ),
            chunks=ChunkSpec(enabled=True, size_bytes=16_000_000),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reused_scenario_matches_fresh_build(self, case):
        spec = _small_spec(**self.CASES[case])
        scenario = build_swarm_scenario(spec)
        SimulationSession(
            dataclasses.replace(spec, mode="hybrid"), scenario=scenario
        ).run()
        reused = SimulationSession(spec, scenario=scenario).run()
        fresh = SimulationSession(spec).run()
        # Wall-clock (and profile) fields differ between any two runs;
        # equivalence is over the deterministic surface only.
        assert scenarios.deterministic_outcome_dict(
            reused.to_dict()
        ) == scenarios.deterministic_outcome_dict(fresh.to_dict())


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
