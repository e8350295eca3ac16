"""Chunked swarm pulls end to end: experiment driver, CLI surface.

The acceptance criteria of the chunking subsystem, pinned as tests:
with chunking off the experiment code behaves exactly as before
(covered by the bit-for-bit suite elsewhere); with chunking on a
contended cold-start wave completes measurably faster than
single-source pulls, origin traffic drops, and mid-wave seeder
departures waste chunk-sized — not layer-sized — byte counts.
"""

from dataclasses import replace

import pytest

from repro import scenarios
from repro.experiments import p2p
from repro.scenarios import (
    ChurnSpec,
    ReplicationSpec,
    SimulationSession,
    TransferSpec,
)


def _chunked_spec(chunked: bool, **changes):
    """The ``p2p-chunked`` preset with chunking switched on or off."""
    preset = scenarios.get("p2p-chunked")
    return replace(
        preset, chunks=replace(preset.chunks, enabled=chunked), **changes
    )


@pytest.fixture(scope="module")
def wave_outcomes():
    """The cold contended wave under both planners (no churn)."""
    return {
        chunked: SimulationSession(_chunked_spec(chunked)).run()
        for chunked in (False, True)
    }


class TestChunkedWave:
    def test_chunked_reduces_cold_start_makespan(self, wave_outcomes):
        single, chunked = wave_outcomes[False], wave_outcomes[True]
        assert single.pulls == chunked.pulls
        assert chunked.longest_pull_s < single.longest_pull_s
        # "measurable": at least 5% on this deliberately contended wave
        assert chunked.longest_pull_s < 0.95 * single.longest_pull_s

    def test_chunked_offloads_the_origin_on_a_cold_wave(self, wave_outcomes):
        single, chunked = wave_outcomes[False], wave_outcomes[True]
        assert chunked.origin_bytes < single.origin_bytes
        assert chunked.bytes_from_peers > single.bytes_from_peers

    def test_no_waste_without_churn(self, wave_outcomes):
        for outcome in wave_outcomes.values():
            assert outcome.bytes_wasted == 0

    def test_all_pulls_account_identical_totals(self, wave_outcomes):
        single, chunked = wave_outcomes[False], wave_outcomes[True]
        single_total = single.origin_bytes + single.bytes_from_peers
        chunked_total = chunked.origin_bytes + chunked.bytes_from_peers
        # same workload, same bytes landed — only the sources differ
        # (replicator copies are metered separately in both runs)
        assert single_total == chunked_total


class TestChunkedUnderChurn:
    def test_seeder_churn_wastes_less_with_chunking(self):
        workload = replace(
            scenarios.get("p2p-chunked").workload, stagger_s=10.0
        )
        churn = ChurnSpec(
            mean_uptime_s=25.0, mean_downtime_s=100.0, min_online=2
        )
        outcomes = {
            chunked: SimulationSession(_chunked_spec(
                chunked,
                workload=workload,
                churn=churn,
                replication=ReplicationSpec(churn_aware=chunked),
            )).run()
            for chunked in (False, True)
        }
        single, chunked_out = outcomes[False], outcomes[True]
        # the flaky regime must actually exercise mid-flight fallback
        assert single.bytes_wasted > 0
        # whole-layer restarts waste more than chunk re-resolution
        assert chunked_out.bytes_wasted < single.bytes_wasted


class TestChunkedExperiment:
    def test_run_chunked_renders_and_reports_the_reduction(self):
        result = p2p.run_chunked(seed=3)
        text = result.to_text()
        assert "single-source" in text
        assert "chunked" in text
        assert "wave makespan" in text
        rows = {
            (row["churn"], row["planner"]): row for row in result.rows
        }
        cold_single = rows[("cold-wave", "single-source")]
        cold_chunked = rows[("cold-wave", "chunked")]
        assert cold_chunked["wave_makespan_s"] < cold_single["wave_makespan_s"]
        flaky_single = rows[("seeder-flaky", "single-source")]
        flaky_chunked = rows[("seeder-flaky", "chunked")]
        assert flaky_chunked["wasted_mb"] <= flaky_single["wasted_mb"]


class TestPeerlessModesStayPeerless:
    def test_chunked_hybrid_never_uses_peers(self):
        # A chunked spec may name any mode; the peer-less tiers must
        # stay peer-less when chunked (use_peers gates chunks too)
        preset = scenarios.get("p2p-chunked")
        session = SimulationSession(_chunked_spec(
            True,
            mode="hybrid",
            topology=replace(preset.topology, n_devices=6),
            transfer=TransferSpec(model="time-resolved"),
        ))
        outcome = session.run()
        assert outcome.bytes_from_peers == 0
        assert outcome.pulls == len(session.scenario.schedule)
