"""Which functions under ``src/repro`` do the runs users start enter?

Run from anywhere (about 47 s on a 2-vCPU VM)::

    PYTHONPATH=src python tests/reach/reach.py

The command runs a fixed entry set in-process under
:func:`sys.setprofile`, starting from the usage block of
``repro/cli.py``: ``all`` (plain, ``--json`` and ``--telemetry-dir``),
a single target with ``--json``, ``calibration``, ``scenario --list``,
the overridden ``p2p-gossip`` session and a ``--telemetry-dir``
session, every scenario preset with ``--json`` (``p2p-swarm-100k`` at
2,000 devices), both sweep presets at their first seed, an ad-hoc axis
sweep through a two-worker pool, a SweepSpec JSON document with
``--csv`` and ``--out`` and the same document with ``--cache-dir``
twice (the second run loads every cell from the cache), the ``lint``
invocations CI makes, and the six ``examples/``.  Importing the
package (which registers the presets and lint rules) is traced too.
It then lists every ``def`` under ``src/repro`` with :mod:`ast` and
prints the functions no run entered, each with the category and reason
its ``allowlist.json`` entry gives.

Dunder methods are counted but not checked: Python calls them through
protocols (``repr`` in an error message, ``hash`` in a set), and a
run that never needs one says nothing about whether it is dead.  Cells
that a sweep runs in pool workers are not traced; the same cell bodies
run inline in the other sweeps.

It exits 1 when

* a function was never entered and has no allowlist entry (give it a
  caller, delete it, or add an entry with a reason);
* an allowlist entry names a function that was entered, or that no
  longer exists (delete the entry);
* an entry-point run raised or returned nonzero (its label is printed).

Allowlist categories, one per entry:

``benchmark``
    named by a script under ``benchmarks/`` or by a CI step;
``probe``
    an invariant check a run-level audit is to call;
``oracle``
    a reference implementation that tests compare against;
``robustness``
    a path only hand-built tests reach (a fuzzer's target);
``error``
    runs only on bad input or after a failure;
``protocol``
    an abstract base method.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).resolve().with_name("allowlist.json")
CATEGORIES = (
    "benchmark", "probe", "oracle", "robustness", "error", "protocol",
)

#: (file, first line of the code object, function name) -> qualified name.
Site = Tuple[str, int, str]


def list_functions(src: Path = SRC) -> Dict[Site, str]:
    """Every ``def`` under ``src/repro``, keyed by the code-object site.

    The name is ``module:qualname`` with the qualname's ``<locals>``
    left out (``repro.cli:_parser.command``).  A second ``def`` of the
    same name in one scope (a property setter, a branch-local helper)
    gets ``#2``.  The line is the one CPython 3.11 records as the code
    object's first line: the first decorator's line for a decorated
    ``def``.
    """
    functions: Dict[Site, str] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        filename = str(path)
        seen: Dict[str, int] = {}

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    seen[qualname] = seen.get(qualname, 0) + 1
                    name = f"{module}:{qualname}"
                    if seen[qualname] > 1:
                        name += f"#{seen[qualname]}"
                    first = min(
                        [child.lineno]
                        + [d.lineno for d in child.decorator_list]
                    )
                    functions[(filename, first, child.name)] = name
                    walk(child, qualname + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), filename), "")
    return functions


def is_dunder(name: str) -> bool:
    short = name.rsplit(".", 1)[-1].rsplit(":", 1)[-1].split("#")[0]
    return short.startswith("__") and short.endswith("__")


def load_allowlist(path: Path = ALLOWLIST) -> List[Dict[str, str]]:
    """The committed entries: ``function``, ``category``, ``reason``."""
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# the entry set
# ----------------------------------------------------------------------
Entry = Tuple[str, Callable[[], int]]

#: A SweepSpec document, run as ``repro sweep <file>.json``.
_GRID = {
    "name": "reach-grid",
    "preset": "p2p",
    "variants": {"hub-only": {"mode": "hub-only"}, "p2p": {}},
    "axes": {"workload.pulls_per_device": [2, 3]},
    "seeds": [1],
}


def _cli(*argv: str) -> Entry:
    def run() -> int:
        from repro.cli import main

        try:
            return main(list(argv))
        except SystemExit as stop:
            code = stop.code
            return code if isinstance(code, int) else 1

    return "repro " + " ".join(argv), run


def _example(path: Path) -> Entry:
    def run() -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0

    return f"examples/{path.name}", run


def entry_set(workdir: Path) -> List[Entry]:
    """The runs users start, in the order the trace runs them."""
    from repro import scenarios
    from repro.sim.rng import DEFAULT_SEED
    from repro.sweep import sweep_names

    grid = workdir / "grid.json"
    grid.write_text(json.dumps(_GRID))
    cache = str(workdir / "sweep-cache")
    entries: List[Entry] = [
        _cli("table2", "--json"),
        _cli("all"),
        _cli("all", "--json"),
        _cli("all", "--telemetry-dir", str(workdir / "all-telemetry")),
        _cli("calibration"),
        _cli("calibration", "--json"),
        _cli("scenario", "--list"),
        _cli("scenario", "--list", "--json"),
        _cli(
            "scenario", "p2p-gossip",
            "--set", "transfer.model=time-resolved",
            "--set", "churn.mean_uptime_s=600",
        ),
        _cli(
            "scenario", "p2p-contended",
            "--telemetry-dir", str(workdir / "scenario-telemetry"),
        ),
    ]
    for preset in scenarios.names():
        sized = (
            ("--set", "topology.n_devices=2000",
             "--set", "topology.n_regions=100")
            if preset == "p2p-swarm-100k" else ()
        )
        entries.append(_cli("scenario", preset, *sized, "--json"))
    entries += [_cli("sweep", "--list"), _cli("sweep", "--list", "--json")]
    # One seed of each preset grid: every cell body and axis value, half
    # the cells.
    entries += [
        _cli("sweep", name, "--seeds", str(DEFAULT_SEED))
        for name in sweep_names()
    ]
    entries += [
        _cli(
            "sweep", "p2p-gossip",
            "--axis", "discovery.gossip_fanout=1,2,4",
            "--seeds", "1,2", "--workers", "2",
        ),
        _cli(
            "sweep", str(grid), "--json",
            "--csv", str(workdir / "grid.csv"),
            "--out", str(workdir / "grid-out.json"),
        ),
        _cli("sweep", str(grid), "--cache-dir", cache),
        _cli("sweep", str(grid), "--cache-dir", cache),
        _cli(
            "lint", "src/repro", "--json",
            "--baseline", ".repro-lint-baseline.json",
        ),
        _cli("lint", "--rule", "unseeded-rng"),
        _cli("lint", "--list"),
    ]
    entries += [
        _example(path) for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    return entries


# ----------------------------------------------------------------------
# the trace
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _profiled(codes: Set) -> Iterator[None]:
    """Record the code object of every frame that runs in the block.

    A profile hook sees ``call``, ``return`` and the C-call events of
    frames that already run, so recording every event's frame records
    exactly the frames entered.
    """
    add = codes.add

    def hook(frame, _event, _arg) -> None:
        add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(previous)


def trace(workdir: Path) -> Tuple[int, Set[Site], List[str]]:
    """Run the entry set; how many runs, the sites entered, the failures.

    The package is imported under the profile hook too: importing it
    registers the presets and lint rules, as it does in every run.
    """
    codes: Set = set()
    with _profiled(codes):
        entries = entry_set(workdir)
    failures: List[str] = []
    for label, run in entries:
        sink = io.StringIO()
        try:
            with _profiled(codes), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                status = run()
        except Exception as error:
            failures.append(
                f"{label}: raised {type(error).__name__}: {error}\n"
                + "".join(traceback.format_exception(error)[-3:])
            )
            continue
        if status != 0:
            tail = sink.getvalue().strip().splitlines()[-3:]
            failures.append(
                f"{label}: exited {status}" + "".join(
                    f"\n    {line}" for line in tail
                )
            )
    entered = {
        (os.path.abspath(code.co_filename), code.co_firstlineno, code.co_name)
        for code in codes
    }
    return len(entries), entered, failures


def check(
    functions: Dict[Site, str],
    entered: Set[Site],
    allowlist: Sequence[Dict[str, str]],
) -> Tuple[List[str], Dict[str, Dict[str, str]], List[str]]:
    """The never-entered names, their entries, and what is wrong.

    Dunders are left out of the never-entered list (module docstring).
    """
    never = sorted(
        name for site, name in functions.items()
        if site not in entered and not is_dunder(name)
    )
    entries = {entry["function"]: entry for entry in allowlist}
    problems: List[str] = []
    known = set(functions.values())
    unreached = set(never)
    for name in never:
        if name not in entries:
            problems.append(f"never entered, no allowlist entry: {name}")
    for name in sorted(entries):
        if name not in known:
            problems.append(f"allowlisted but not defined: {name}")
        elif name not in unreached:
            problems.append(f"allowlisted but entered: {name}")
    return never, entries, problems


def main() -> int:
    os.chdir(ROOT)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    functions = list_functions()
    allowlist = load_allowlist()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        runs, entered, failures = trace(Path(workdir))
    never, listed, problems = check(functions, entered, allowlist)
    dunders = sum(
        1 for site, name in functions.items()
        if site not in entered and is_dunder(name)
    )
    print(
        f"reach: {runs} entry-point runs entered "
        f"{sum(1 for site in functions if site in entered)} of "
        f"{len(functions)} functions under src/repro; "
        f"{len(never)} never entered, besides {dunders} dunders"
    )
    for name in never:
        entry = listed.get(name)
        if entry is not None:
            print(f"  {entry['category']:10s} {name}: {entry['reason']}")
    problems += [f"entry-point run failed: {failure}" for failure in failures]
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
