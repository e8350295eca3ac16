"""The root ``conftest.py``, in a fresh pytest run.

The root conftest turns every ``DeprecationWarning`` into an error.
A failing Hypothesis test must still be reported with its falsifying
example: where libcst is installed, Hypothesis's reporter imports it
to propose a patch, and libcst raises a deprecation warning of its own
at import.  It also owns the ``golden`` fixture and the
``--update-golden`` flag.  Each run here copies the root conftest next
to a throwaway test module, so it sees what the suite does.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT_CONFTEST = Path(__file__).resolve().parents[1] / "conftest.py"

THROWAWAY_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_falsified(x):
    assert x != x


def test_deprecated_call():
    warnings.warn("a deprecated path", DeprecationWarning)
'''

GOLDEN_TESTS = '''
import json
from pathlib import Path


def test_outcome(golden):
    golden("run.json", json.loads(Path("actual.json").read_text()))


def test_stdout(golden):
    golden("stdout.txt", Path("actual.txt").read_text())
'''


#: The golden runs need no plugin; loading none keeps each to a quarter
#: of a second.
NO_PLUGINS = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")


def _pytest(tmp_path, tests, *args, env=None):
    """Exit status and output of pytest on ``tests`` under the root
    conftest, in ``tmp_path``."""
    shutil.copy(ROOT_CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_throwaway.py").write_text(tests)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "test_throwaway.py", *args,
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return result.returncode, result.stdout + result.stderr


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """Exit 1 (test failures, not an internal error), the falsifying
    example printed, and every other deprecation warning still an
    error."""
    status, output = _pytest(tmp_path, THROWAWAY_TESTS)
    assert status == 1, output
    assert "Falsifying example" in output, output
    assert "FAILED test_throwaway.py::test_falsified" in output, output
    assert "FAILED test_throwaway.py::test_deprecated_call" in output, output


def test_golden_names_every_moved_field_and_update_rewrites(tmp_path):
    def run(*args):
        return _pytest(tmp_path, GOLDEN_TESTS, *args, env=NO_PLUGINS)

    golden = tmp_path / "tests" / "golden"
    actual = {
        "pulls": 54, "makespan_s": 0.1 + 0.2,
        "replicator": {"actions": 9, "converged": True},
    }
    (tmp_path / "actual.json").write_text(json.dumps(actual))
    (tmp_path / "actual.txt").write_text("a\nb\n")

    status, output = run()
    assert status == 1, output
    assert "tests/golden/run.json is missing" in output, output

    status, output = run("--update-golden")
    assert status == 0, output
    assert (golden / "run.json").read_text() == (
        json.dumps(actual, sort_keys=True, indent=1) + "\n"
    )
    assert (golden / "stdout.txt").read_text() == "a\nb\n"
    assert run()[0] == 0

    # A float one ulp off, a nested field and a new key all move; the
    # files stay as they were.
    moved = dict(
        actual, makespan_s=0.3, extra=1,
        replicator={"actions": 3, "converged": True},
    )
    (tmp_path / "actual.json").write_text(json.dumps(moved))
    (tmp_path / "actual.txt").write_text("a\nc\n")
    stored = {path: path.read_bytes() for path in golden.iterdir()}
    status, output = run()
    assert status == 1, output
    assert "tests/golden/run.json: 3 fields moved" in output, output
    assert "  extra: (absent) -> 1\n" in output, output
    assert "  makespan_s: 0.30000000000000004 -> 0.3\n" in output, output
    assert "  replicator.actions: 9 -> 3\n" in output, output
    assert "-b\n+c\n" in output, output
    assert {path: path.read_bytes() for path in golden.iterdir()} == stored

    assert run("--update-golden")[0] == 0
    assert json.loads((golden / "run.json").read_text()) == moved
    assert run()[0] == 0
