"""CLI entry point: every subcommand renders sound output."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import scenarios
from repro.cli import main
from repro.experiments import TARGETS
from repro.scenarios import deterministic_outcome_dict


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
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", "p2p"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: p2p" in capsys.readouterr().err

    def test_set_rejected_outside_scenario(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", "--set", "mode=hybrid"])
        assert exit_info.value.code == 2
        assert "--set" in capsys.readouterr().err


def test_reader_closing_early_gets_no_traceback():
    # `repro table3 | head -3`: the reader is gone before the table is
    # printed, so the print raises BrokenPipeError.  The entry point
    # exits 1 quietly instead of printing a traceback.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "table3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err, err


class TestGrammar:
    """Each command declares exactly the flags it reads: a flag another
    command owns is rejected (exit 2), never silently ignored."""

    @pytest.mark.parametrize("argv, offending", [
        (["scenario", "p2p", "--axis", "topology.n_devices=4,6"], "--axis"),
        (["scenario", "p2p", "--workers", "4"], "--workers"),
        (["sweep", "p2p", "--set", "topology.n_devices=4"], "--set"),
        # Without allow_abbrev=False argparse reads --seed as --seeds.
        (["sweep", "p2p", "--seed", "5"], "--seed"),
        (["calibration", "--seed", "3"], "--seed"),
        # Flags follow the command; lint dispatches on argv[0] only.
        (["--json", "lint"], "--json"),
    ])
    def test_misplaced_flag_exits_two(self, capsys, argv, offending):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert offending in err
        assert "Traceback" not in err


class TestAllTarget:
    SWARM_FAMILIES = {"p2p", "p2p-contended", "p2p-gossip", "p2p-chunked"}

    def test_all_derives_swarm_experiments_from_the_registry(self):
        # The historical bug: `all` hard-coded its run list and silently
        # dropped p2p-contended/p2p-gossip/p2p-chunked.  One table now
        # names every target, in `all` order.
        assert list(TARGETS) == [
            "table2", "table3", "fig3a", "fig3b", "ablations", "cloud",
            "p2p", "p2p-chunked", "p2p-contended", "p2p-gossip",
        ]
        assert self.SWARM_FAMILIES <= set(TARGETS)

    def test_output_matches_its_golden_text(self, capsys, golden):
        # Every target prints deterministic tables, so the whole of
        # `repro all` is pinned; CI diffs it against the same file, with
        # and without --telemetry-dir.
        assert main(["all"]) == 0
        golden("repro-all.txt", capsys.readouterr().out)

    def test_every_swarm_target_is_a_preset(self):
        # Each swarm experiment runs the preset of its own name.
        paper = {"table2", "table3", "fig3a", "fig3b", "ablations", "cloud"}
        swarm = set(TARGETS) - paper
        assert swarm == self.SWARM_FAMILIES
        assert swarm <= set(scenarios.names())


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
        assert "transfer.model='time-resolved'" in capsys.readouterr().err

    def test_underscore_transfer_model_fails_cleanly(self, capsys):
        assert main([
            "scenario", "p2p", "--set", "transfer.model=time_resolved",
        ]) == 2
        assert "('analytic', 'time-resolved')" in capsys.readouterr().err

    def test_wrongly_typed_override_fails_cleanly(self, capsys):
        # A value of the wrong JSON type must hit the same clean error
        # path as a cross-field violation, not a TypeError traceback.
        assert main([
            "scenario", "p2p", "--set", "topology.n_devices=abc",
        ]) == 2
        assert "bad override" in capsys.readouterr().err

    @pytest.mark.parametrize("assignment", [
        "topology.cache_gb=true", "workload.horizon_s=true",
        "topology.cache_gb=abc", "replication.decay=abc",
    ])
    def test_non_number_quantity_fails_naming_its_field(
        self, capsys, assignment
    ):
        # ``true`` must not run as 1.0 (a 1 GB cache then overflows
        # mid-run), and neither value may fail without the field's name.
        field = assignment.partition("=")[0].rpartition(".")[2]
        assert main(["scenario", "p2p", "--set", assignment]) == 2
        assert f"{field} must be a number" in capsys.readouterr().err

    def test_churn_floor_at_the_device_count_fails_cleanly(self, capsys):
        # 16 devices that must all stay online can never churn: the run
        # is refused, not reported with 0 departures.
        assert main([
            "scenario", "p2p-gossip", "--set", "churn.min_online=16",
        ]) == 2
        err = capsys.readouterr().err
        assert "churn.min_online (16)" in err
        assert "topology.n_devices (16)" in err

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


class TestSweepSubcommand:
    def test_a_failing_cell_prints_the_grid_and_exits_one(self, capsys):
        status = main(["sweep", "p2p", "--axis", "topology.cache_gb=12,0.1"])
        captured = capsys.readouterr()
        assert status == 1
        # The table holds both cells; the healthy one has its outcome.
        rows = captured.out.splitlines()[2:]
        assert len(rows) == 2
        assert "CacheFull" not in rows[0] and "CacheFull" in rows[1]
        spec = scenarios.with_overrides(
            scenarios.get("p2p"), {"topology.cache_gb": 0.1}
        )
        assert f"cell {spec.cache_key()} raised CacheFull: " in captured.err


class TestTelemetryDir:
    """``--telemetry-dir DIR`` observes every session of a run and
    writes four files into DIR, changing nothing the run prints."""

    def check_directory(self, directory):
        assert sorted(path.name for path in directory.iterdir()) == [
            "metrics.csv", "profile.json", "trace.json", "trace.jsonl",
        ]
        chrome = json.loads((directory / "trace.json").read_text())
        assert any(event["ph"] == "X" for event in chrome["traceEvents"])
        events = [
            json.loads(line)
            for line in (directory / "trace.jsonl").read_text().splitlines()
        ]
        with open(directory / "metrics.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["session", "t_s", "metric", "scope", "value"]
        assert len(rows) > 1
        profiles = json.loads((directory / "profile.json").read_text())
        # Every session that moved bytes through the transfer engine
        # has its profile, and every profile counts its recomputes.
        engine_sessions = {
            event["session"]
            for event in events
            if event["kind"] == "transfer.start"
        }
        assert engine_sessions
        assert engine_sessions <= set(profiles)
        assert all(
            profile["recomputes"] > 0 for profile in profiles.values()
        )

    def test_target(self, capsys, tmp_path):
        assert main(["p2p-contended"]) == 0
        plain = capsys.readouterr().out
        directory = tmp_path / "telemetry"
        assert main(["p2p-contended", "--telemetry-dir", str(directory)]) == 0
        assert capsys.readouterr().out == plain
        self.check_directory(directory)

    def test_scenario(self, capsys, tmp_path):
        argv = ["scenario", "p2p-contended"]
        assert main(argv) == 0
        plain_text = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(argv + ["--telemetry-dir", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().out == plain_text
        directory = tmp_path / "b"
        assert main(argv + ["--json", "--telemetry-dir", str(directory)]) == 0
        observed = json.loads(capsys.readouterr().out)
        # Observing a run never changes its spec (nor its cache key).
        assert observed["spec"] == plain["spec"]
        assert deterministic_outcome_dict(
            observed["outcome"]
        ) == deterministic_outcome_dict(plain["outcome"])
        self.check_directory(directory)

    @pytest.mark.parametrize("command", [["p2p"], ["scenario", "p2p"]])
    @pytest.mark.parametrize("flag", [
        ["--trace", "trace.json"], ["--metrics-out", "metrics.csv"],
        ["--profile"],
    ])
    def test_removed_flags_exit_two(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(command + flag)
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["p2p"], ["scenario", "p2p"]])
    def test_a_file_is_not_a_directory(self, capsys, tmp_path, command):
        path = tmp_path / "taken"
        path.write_text("keep")
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--telemetry-dir", str(path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--telemetry-dir" in err
        assert "is not a directory" in err
        assert path.read_text() == "keep"
