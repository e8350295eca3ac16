"""The root ``conftest.py``'s warning filters, in a fresh pytest run.

The root conftest turns every ``DeprecationWarning`` into an error.
A failing Hypothesis test must still be reported with its falsifying
example: where libcst is installed, Hypothesis's reporter imports it
to propose a patch, and libcst raises a deprecation warning of its own
at import.  The run here copies the root conftest next to a throwaway
test module, so it sees the same filters the suite does.
"""

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


def test_failing_property_reports_its_falsifying_example(tmp_path):
    """Exit 1 (test failures, not an internal error), the falsifying
    example printed, and every other deprecation warning still an
    error."""
    shutil.copy(ROOT_CONFTEST, tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY_TESTS)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output, output
    assert "FAILED test_throwaway.py::test_falsified" in output, output
    assert "FAILED test_throwaway.py::test_deprecated_call" in output, output
