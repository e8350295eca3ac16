"""Repo-root pytest configuration.

Guarantees ``import repro`` resolves to ``src/repro`` even when the
package is not installed (the offline CI box cannot run PEP-517
editable installs because the ``wheel`` package is absent).
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def pytest_configure(config):
    # A deprecated path that something calls again fails the suite
    # instead of printing a warning nobody reads.
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    # Except one third-party warning (later lines take precedence): when
    # a Hypothesis test fails, its reporter imports libcst to propose a
    # patch, and libcst subclasses the deprecated
    # ``mypy_extensions.TypedDict``.  As an error, that warning crashes
    # pytest (INTERNALERROR) before the falsifying example is printed.
    config.addinivalue_line(
        "filterwarnings",
        r"ignore:mypy_extensions\.TypedDict is deprecated"
        r":DeprecationWarning:libcst\.",
    )
