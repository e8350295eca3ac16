"""CLI entry point: every subcommand renders sound output."""

import json

import pytest

from repro import scenarios
from repro.cli import PAPER_TARGETS, all_targets, main


class TestCli:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "83.33" in out
        assert "5/5 distribution cells match" in out

    def test_calibration_dump(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "Calibrated constants" in out
        assert "vp-ha-train" in out
        assert "medium:" in out and "small:" in out

    def test_fig3b(self, capsys):
        assert main(["fig3b"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3b" in out
        assert "exclusively-docker-hub" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_p2p_accepts_seed(self, capsys):
        assert main(["p2p", "--seed", "7"]) == 0
        seeded = capsys.readouterr().out
        assert "P2P tier" in seeded
        assert main(["p2p"]) == 0
        default = capsys.readouterr().out
        # A different seed is a different workload realisation.
        assert seeded != default

    def test_p2p_gossip(self, capsys):
        assert main(["p2p-gossip"]) == 0
        out = capsys.readouterr().out
        assert "discovery" in out
        assert "omniscient" in out and "gossip" in out
        assert "overstates" in out

    def test_p2p_chunked_accepts_seed(self, capsys):
        assert main(["p2p-chunked", "--seed", "7"]) == 0
        seeded = capsys.readouterr().out
        assert "Chunked multi-source" in seeded
        assert "single-source" in seeded and "chunked" in seeded
        assert "wave makespan" in seeded
        assert main(["p2p-chunked"]) == 0
        default = capsys.readouterr().out
        # A different seed is a different workload/churn realisation.
        assert seeded != default

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SystemExit):
            main(["p2p", "--seed", "lots"])

    def test_json_flag_prints_structured_result(self, capsys):
        assert main(["table3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "table3"
        assert payload["columns"]
        assert len(payload["rows"]) > 0
        assert all(set(payload["columns"]) <= set(row)
                   for row in payload["rows"])

    def test_calibration_json_parses(self, capsys):
        assert main(["calibration", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"power", "network", "services"}
        assert "vp-ha-train" in payload["services"]

    def test_preset_argument_rejected_outside_scenario(self, capsys):
        assert main(["table3", "p2p"]) == 2
        assert "scenario/sweep subcommands" in capsys.readouterr().err

    def test_set_rejected_outside_scenario(self, capsys):
        assert main(["table3", "--set", "mode=hybrid"]) == 2
        assert "scenario" in capsys.readouterr().err


class TestAllTarget:
    def test_all_derives_swarm_experiments_from_the_registry(self):
        # The historical bug: `all` hard-coded its run list and silently
        # dropped p2p-contended/p2p-gossip/p2p-chunked.  The list is now
        # derived from the scenario experiment registry.
        targets = all_targets()
        for name in scenarios.experiment_names():
            assert name in targets
        assert {"p2p", "p2p-contended", "p2p-gossip", "p2p-chunked"} <= set(
            targets
        )
        for name in PAPER_TARGETS:
            assert name in targets


class TestScenarioSubcommand:
    def test_list_names_every_preset(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenarios.names():
            assert name in out

    def test_list_json_parses(self, capsys):
        assert main(["scenario", "--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(scenarios.names())

    def test_runs_a_preset_with_overrides(self, capsys):
        assert main([
            "scenario", "p2p",
            "--set", "topology.n_devices=6",
            "--set", "workload.n_images=3",
            "--set", "workload.pulls_per_device=2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Scenario p2p" in out
        assert "pulls=12" in out

    def test_json_payload_carries_spec_and_outcome(self, capsys):
        assert main([
            "scenario", "p2p-hybrid",
            "--set", "topology.n_devices=6",
            "--set", "workload.n_images=3",
            "--set", "workload.pulls_per_device=2",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["preset"] == "p2p-hybrid"
        assert payload["spec"]["mode"] == "hybrid"
        assert payload["spec"]["topology"]["n_devices"] == 6
        assert payload["outcome"]["pulls"] == 12
        assert payload["outcome"]["replicator"] is None

    def test_unknown_preset_fails_cleanly(self, capsys):
        assert main(["scenario", "nonsense"]) == 2
        assert "unknown scenario preset" in capsys.readouterr().err

    def test_bad_override_fails_cleanly(self, capsys):
        assert main([
            "scenario", "p2p", "--set", "chunks.enabled=true",
        ]) == 2
        assert "TIME_RESOLVED" in capsys.readouterr().err

    def test_wrongly_typed_override_fails_cleanly(self, capsys):
        # A value of the wrong JSON type must hit the same clean error
        # path as a cross-field violation, not a TypeError traceback.
        assert main([
            "scenario", "p2p", "--set", "topology.n_devices=abc",
        ]) == 2
        assert "bad override" in capsys.readouterr().err

    def test_non_finite_override_fails_cleanly(self, capsys):
        assert main([
            "scenario", "p2p-gossip",
            "--set", "discovery.gossip_period_s=NaN", "--json",
        ]) == 2
        err = capsys.readouterr().err
        assert "gossip_period_s must be finite" in err

    def test_missing_preset_fails_cleanly(self, capsys):
        assert main(["scenario"]) == 2
        assert "preset" in capsys.readouterr().err
