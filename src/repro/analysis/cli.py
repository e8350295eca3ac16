"""The ``repro lint`` subcommand.

Usage::

    repro lint [paths ...] [--rule NAME ...] [--json] [--list]
               [--baseline FILE]

* default path: ``src/repro`` (resolved against the current directory);
* ``--rule`` restricts to named rules (repeatable; unknown names exit 2
  with a did-you-mean suggestion);
* ``--list`` prints the rule catalogue and exits 0;
* ``--json`` emits the machine-readable document
  (:meth:`~repro.analysis.runner.LintResult.to_dict`);
* ``--baseline FILE`` additionally fails (exit 1) when the suppression
  count exceeds the checked-in baseline — CI's ratchet against
  suppression growth.

Exit codes: 0 clean, 1 findings (or baseline exceeded), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .findings import LintConfig
from .registry import UnknownRuleError, all_rules
from .runner import LintResult, LintUsageError, lint_paths

#: The default lint target when no path argument is given.
DEFAULT_TARGET = "src/repro"


def _rule_catalogue() -> str:
    lines = ["== repro lint rules =="]
    for rule in all_rules():
        lines.append(f"{rule.name:26s} {rule.summary}")
    lines.append(
        "suppress one finding with '# repro-lint: disable=<rule>' on its "
        "line (metered; see src/repro/analysis/README.md)"
    )
    return "\n".join(lines)


def _check_baseline(path: str, result: LintResult) -> Optional[str]:
    """An error message when suppressions exceed the baseline, else None."""
    try:
        with open(path) as handle:
            baseline = json.load(handle)
    except FileNotFoundError:
        raise LintUsageError(f"baseline file not found: {path}") from None
    except ValueError as error:
        raise LintUsageError(
            f"baseline file {path} is not valid JSON: {error}"
        ) from None
    allowed = int(baseline.get("suppressions", 0))
    current = len(result.suppressions)
    if current > allowed:
        return (
            f"suppression count grew: {current} > baseline {allowed} "
            f"({path}); fix the finding instead, or deliberately bump "
            f"the baseline in the same commit"
        )
    return None


def main(
    argv: Optional[List[str]] = None, config: Optional[LintConfig] = None
) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "static determinism & purity analysis over the repro package"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        default=[],
        metavar="NAME",
        help="run only this rule (repeatable; see --list)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable findings document",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "fail when the suppression count exceeds this checked-in "
            "baseline JSON ({\"suppressions\": N})"
        ),
    )
    args = parser.parse_args(argv)

    if args.list:
        print(_rule_catalogue())
        return 0

    paths = args.paths or [DEFAULT_TARGET]
    if not args.paths and not Path(DEFAULT_TARGET).exists():
        print(
            f"default target {DEFAULT_TARGET!r} does not exist here; "
            f"pass explicit paths",
            file=sys.stderr,
        )
        return 2

    try:
        result = lint_paths(paths, tuple(args.rules), config=config)
        baseline_error = (
            _check_baseline(args.baseline, result)
            if args.baseline
            else None
        )
    except (UnknownRuleError, LintUsageError) as error:
        print(str(error), file=sys.stderr)
        return 2

    if args.json:
        document = result.to_dict()
        if baseline_error is not None:
            document["baseline_error"] = baseline_error
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(result.render_text())
        if baseline_error is not None:
            print(baseline_error, file=sys.stderr)
    if baseline_error is not None:
        return 1
    return 0 if result.clean else 1


if __name__ == "__main__":
    sys.exit(main())
