"""CLI contract: exit codes, --json schema, did-you-mean, self-clean."""

import json
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def test_clean_file_exits_zero(capsys):
    assert main([str(FIXTURES / "wall_clock_silent.py")]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_findings_exit_one(capsys):
    assert main([str(FIXTURES / "wall_clock_fires.py")]) == 1
    out = capsys.readouterr().out
    assert "wall-clock-in-sim" in out


def test_unknown_rule_exits_two_with_suggestion(capsys):
    code = main(
        [str(FIXTURES / "wall_clock_silent.py"), "--rule", "wall-clok-in-sim"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "did you mean 'wall-clock-in-sim'" in err


def test_unknown_suppression_rule_exits_two_with_suggestion(capsys):
    code = main([str(FIXTURES / "bad" / "unknown_suppression.py")])
    assert code == 2
    err = capsys.readouterr().err
    assert "wall-clok-in-sim" in err
    assert "did you mean 'wall-clock-in-sim'" in err


def test_non_python_file_exits_two(tmp_path, capsys):
    target = tmp_path / "data.json"
    target.write_text("{}")
    assert main([str(target)]) == 2
    assert "not a Python file" in capsys.readouterr().err


def test_missing_path_exits_two(capsys):
    assert main([str(FIXTURES / "does_not_exist.py")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_json_document_schema(capsys):
    assert main([str(FIXTURES / "export_fires.py"), "--json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["files"] == 1
    assert set(document["suppressions"]) == {"total", "used", "entries"}
    for finding in document["findings"]:
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "naked-dict-order-export"


def test_list_prints_catalogue(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "wall-clock-in-sim" in out
    assert "naked-dict-order-export" in out
    assert "repro-lint: disable=" in out


def test_baseline_within_budget_passes(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"suppressions": 5}')
    code = main(
        [str(FIXTURES / "suppressed.py"), "--rule", "wall-clock-in-sim",
         "--baseline", str(baseline)]
    )
    assert code == 0


def test_baseline_exceeded_fails(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"suppressions": 0}')
    code = main(
        [str(FIXTURES / "suppressed.py"), "--rule", "wall-clock-in-sim",
         "--baseline", str(baseline)]
    )
    assert code == 1
    assert "suppression count grew" in capsys.readouterr().err


def test_baseline_missing_file_exits_two(capsys):
    code = main(
        [str(FIXTURES / "wall_clock_silent.py"), "--baseline",
         str(FIXTURES / "nope.json")]
    )
    assert code == 2
    assert "baseline file not found" in capsys.readouterr().err


def test_repro_cli_dispatches_lint(capsys):
    from repro.cli import main as repro_main

    code = repro_main(["lint", str(FIXTURES / "wall_clock_silent.py")])
    assert code == 0


def test_source_tree_is_self_clean(capsys):
    """The linter's own verdict on src/repro: zero findings, and every
    inline suppression in the tree is actually silencing something."""
    src = REPO_ROOT / "src" / "repro"
    assert main([str(src), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["findings"] == []
    assert document["suppressions"]["used"] == (
        document["suppressions"]["total"]
    )
    assert len(document["rules"]) >= 8


def test_checked_in_baseline_matches_tree(capsys):
    """.repro-lint-baseline.json stays in lockstep with the tree."""
    src = REPO_ROOT / "src" / "repro"
    baseline_path = REPO_ROOT / ".repro-lint-baseline.json"
    baseline = json.loads(baseline_path.read_text())
    assert main([str(src), "--baseline", str(baseline_path)]) == 0
    capsys.readouterr()
    assert main([str(src), "--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["suppressions"]["total"] == baseline["suppressions"]
