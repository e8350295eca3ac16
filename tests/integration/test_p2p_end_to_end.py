"""End-to-end: the P2P tier on a layer-sharing workload.

Runs the full three-mode experiment on a small swarm and checks the
headline claim — hybrid+P2P moves strictly fewer bytes out of the
hub+regional origin tiers than plain hybrid.
"""

from dataclasses import replace

import pytest

from repro import scenarios
from repro.experiments import p2p
from repro.scenarios import SimulationSession, TransferSpec
from repro.sim.rng import DEFAULT_SEED


@pytest.fixture(scope="module")
def sessions():
    return {
        mode: SimulationSession(replace(scenarios.get("p2p"), mode=mode))
        for mode in p2p.MODES
    }


@pytest.fixture(scope="module")
def outcomes(sessions):
    return {mode: session.run() for mode, session in sessions.items()}


def test_p2p_strictly_lowers_origin_bytes_vs_hybrid(outcomes):
    hybrid = outcomes["hybrid"]
    swarm = outcomes["hybrid+p2p"]
    assert swarm.origin_bytes < hybrid.origin_bytes
    # And the savings are served by peers, not skipped.
    assert swarm.bytes_from_peers > 0
    # Every mode executed the identical pull schedule.
    assert swarm.pulls == hybrid.pulls == outcomes["hub-only"].pulls


def test_hybrid_offloads_hub_and_p2p_offloads_origin(outcomes):
    hub_only = outcomes["hub-only"]
    hybrid = outcomes["hybrid"]
    swarm = outcomes["hybrid+p2p"]
    assert hub_only.bytes_by_registry.get("regional", 0) == 0
    assert hybrid.bytes_by_registry.get("docker-hub", 0) < hub_only.bytes_by_registry["docker-hub"]
    # Pull-delivered bytes can only shrink under P2P: replication
    # pre-places layers, turning some misses into pure local hits.
    def delivered(outcome):
        return outcome.origin_bytes + outcome.bytes_from_peers

    assert delivered(swarm) <= delivered(hybrid)


def test_p2p_transfer_time_beats_hybrid(outcomes):
    # Peer channels are LAN-fast, so the wall-clock transfer estimate
    # drops along with origin traffic.
    assert outcomes["hybrid+p2p"].transfer_s < outcomes["hybrid"].transfer_s


def test_replicator_converged_and_acted(sessions, outcomes):
    assert outcomes["hybrid+p2p"].replicator["converged"]
    replicator = sessions["hybrid+p2p"].replicator
    assert replicator.swarm.index.coherence_violations() == []


@pytest.mark.parametrize("preset, seed", [
    ("p2p", 1), ("p2p", 2), ("p2p", 3), ("p2p-gossip", 1), ("p2p-gossip", 2),
])
def test_peers_reroute_origin_bytes_and_add_none(preset, seed):
    # An analytic pull admits its whole manifest whatever served each
    # layer, so without churn and without replicator copies (a hot
    # threshold no demand score reaches) the three modes hold the same
    # layers at every instant.  The analytic p2p* presets differ only
    # in mode, so `p2p` stands for all three.
    spec = scenarios.with_overrides(scenarios.get(preset), {
        "seed": seed, "churn": "none", "replication.hot_threshold": 1e12,
    })
    runs = [
        SimulationSession(replace(spec, mode=mode)).run()
        for mode in scenarios.MODES
    ]
    counts = {
        (run.pulls, run.cache_hits, run.skipped_pulls, run.unfinished_pulls)
        for run in runs
    }
    assert len(counts) == 1, counts
    hub_only, hybrid, swarm = runs
    assert swarm.replicator["actions"] == 0
    assert swarm.bytes_from_peers > 0
    assert (
        hub_only.origin_bytes
        == hybrid.origin_bytes
        == swarm.origin_bytes + swarm.bytes_from_peers
    )


def test_experiment_table_renders(outcomes):
    result = p2p.run(seed=DEFAULT_SEED)
    assert [row["mode"] for row in result.rows] == list(p2p.MODES)
    text = result.to_text()
    assert "hybrid+p2p" in text
    assert any("less from" in note for note in result.notes)


class TestContendedOverlap:
    """Acceptance: analytic admission overstates P2P savings under
    overlapping pulls; time-resolved mode is strictly more pessimistic."""

    @pytest.fixture(scope="class")
    def contended(self):
        out = {}
        for model in scenarios.TRANSFER_MODELS:
            spec = replace(
                scenarios.get("p2p-contended"),
                transfer=TransferSpec(
                    model=model,
                    upload_budget=2 if model == "time-resolved" else None,
                ),
            )
            hybrid = SimulationSession(replace(spec, mode="hybrid")).run()
            swarm = SimulationSession(spec).run()
            out[model] = (hybrid, swarm)
        return out

    def test_savings_strictly_lower_when_time_resolved(self, contended):
        saving = {
            model: hybrid.origin_bytes - swarm.origin_bytes
            for model, (hybrid, swarm) in contended.items()
        }
        assert saving["analytic"] > 0
        assert saving["time-resolved"] < saving["analytic"]

    def test_hybrid_baseline_bytes_are_model_independent(self, contended):
        # Without peers there is nothing to mis-attribute: both models
        # move the same bytes, only on different clocks.
        origins = {
            hybrid.origin_bytes for hybrid, _swarm in contended.values()
        }
        assert len(origins) == 1

    def test_contention_slows_transfers_down(self, contended):
        _, analytic_swarm = contended["analytic"]
        _, resolved_swarm = contended["time-resolved"]
        assert resolved_swarm.transfer_s > analytic_swarm.transfer_s

    def test_contended_experiment_table_renders(self):
        result = p2p.run_contended(seed=DEFAULT_SEED)
        assert [row["model"] for row in result.rows] == [
            "analytic", "time-resolved",
        ]
        assert any("overstates" in note for note in result.notes)
