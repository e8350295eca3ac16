"""Repo-root pytest configuration.

Guarantees ``import repro`` resolves to ``src/repro`` even when the
package is not installed (the offline CI box cannot run PEP-517
editable installs because the ``wheel`` package is absent).

Also owns the suite's one encoding for pinned outcomes: the ``golden``
fixture compares a run with its file under ``tests/golden/``, and
``pytest --update-golden`` rewrites the files instead of comparing.
"""

import difflib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GOLDEN = ROOT / "tests" / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        help="rewrite the tests/golden files the selected tests compare "
        "with, instead of comparing",
    )


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


def _flatten(value, prefix=""):
    """``{dotted.path: leaf}`` of a nested dict (an empty dict is a leaf)."""
    if not isinstance(value, dict) or not value:
        return {prefix: value}
    flat = {}
    for key, item in value.items():
        flat.update(_flatten(item, f"{prefix}.{key}" if prefix else key))
    return flat


class _Absent:
    def __repr__(self):
        return "(absent)"


def _moved_fields(golden, actual):
    """One ``path: golden -> actual`` line per dotted field that differs."""
    old, new = _flatten(golden), _flatten(actual)
    absent = _Absent()
    return [
        f"  {path}: {old.get(path, absent)!r} -> {new.get(path, absent)!r}"
        for path in sorted(old.keys() | new.keys())
        if old.get(path, absent) != new.get(path, absent)
    ]


@pytest.fixture
def golden(request):
    """``golden(name, actual)`` compares ``actual`` with
    ``tests/golden/<name>``.

    A ``str`` is stored as it is and compared byte for byte; anything
    else is a JSON-safe value stored with sorted keys, one per line,
    and compared parsed, with ``==``, so floats compare exactly.  A
    mismatch fails with every dotted field that moved and both of its
    values (a unified diff for text).  Under ``--update-golden`` a file
    whose content would change is rewritten and nothing is compared.
    """
    update = request.config.getoption("--update-golden")

    def compare(name, actual):
        path = GOLDEN / name
        text = (
            actual if isinstance(actual, str)
            else json.dumps(actual, sort_keys=True, indent=1) + "\n"
        )
        stored = path.read_bytes().decode("utf-8") if path.exists() else None
        if update:
            if stored != text:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(text.encode("utf-8"))
            return
        where = path.relative_to(ROOT)
        if stored is None:
            problem = f"{where} is missing"
        elif isinstance(actual, str):
            if stored == actual:
                return
            problem = "".join(difflib.unified_diff(
                stored.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"{where} (golden)",
                tofile="actual",
            ))
        else:
            expected, got = json.loads(stored), json.loads(text)
            if expected == got:
                return
            moved = _moved_fields(expected, got)
            problem = (
                f"{where}: {len(moved)} fields moved (golden -> actual)\n"
                + "\n".join(moved)
            )
        pytest.fail(
            f"{problem}\nrerun with --update-golden to rewrite it, review "
            "`git diff tests/golden` and say why in CHANGES.md",
            pytrace=False,
        )

    return compare
