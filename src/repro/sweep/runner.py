"""Parallel, resumable, content-addressed sweep execution.

:func:`run_sweep` turns a :class:`~repro.sweep.spec.SweepSpec` into an
aggregate:

* cells whose content hash already has a JSON document in the results
  cache are **cache hits** — loaded, never re-run; everything else is
  executed, across a ``multiprocessing`` pool when ``workers > 1``
  (one fresh :class:`~repro.scenarios.SimulationSession` per cell
  inside a worker process, chunked dispatch to amortise fork cost);
* every completed cell is persisted immediately (atomic
  write-then-rename), so a killed sweep resumes with only the missing
  cells re-executed, and editing one grid axis re-runs only the new
  cells;
* a cell whose session raises becomes an **error row** (its identity
  columns, ``error_type`` and ``error_message``) that is never cached:
  the rest of the grid still runs, and a re-run retries only it;
* the aggregate is built in **cell order**, not completion order —
  serial and parallel runs of the same sweep produce byte-identical
  aggregates (cells are independent seeded simulations; asserted in
  tests and the bench smoke).

Rows are tidy and flat: the cell's identity columns (variant, one
column per axis path, seed, key) followed by the flattened
:meth:`~repro.scenarios.ModeOutcome.to_dict` counters.  ``to_csv``
writes the same rows as CSV; :func:`write_bench_record` appends a
machine-readable perf record (cells/sec, worker count, cache hits) to
``BENCH_sweep.json`` so the perf trajectory is comparable across PRs.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..scenarios import (
    NONDETERMINISTIC_OUTCOME_KEYS,
    ScenarioSpec,
    SimulationSession,
    canonical_json,
)
from .spec import SweepCell, SweepSpec

#: Filename of the cross-PR perf trajectory record.
BENCH_SWEEP_JSON = "BENCH_sweep.json"

#: Row columns excluded from :meth:`SweepResult.aggregate_json`: the
#: per-cell wall time plus the outcome's own wall-clock keys.  Columns
#: flattened *out of* ``engine_profile`` (``engine_profile.*``) are
#: excluded by prefix in :func:`_deterministic_row`.
NONDETERMINISTIC_ROW_COLUMNS = ("wall_ms",) + NONDETERMINISTIC_OUTCOME_KEYS


def _deterministic_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """One aggregate row minus its wall-clock-dependent columns."""
    return {
        key: value
        for key, value in row.items()
        if key not in NONDETERMINISTIC_ROW_COLUMNS
        and not key.startswith("engine_profile.")
    }


def _flatten(prefix: str, value: Any, row: Dict[str, Any]) -> None:
    """Tidy a nested outcome value into dotted flat columns."""
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}", value[key], row)
    else:
        row[prefix] = value


def cell_row(
    cell: SweepCell, outcome: Dict[str, Any], wall_ms: float = 0.0
) -> Dict[str, Any]:
    """One tidy aggregate row: identity columns + flat outcome +
    per-cell wall time (excluded from the byte-identity surface —
    cached cells report their *stored* execution time, so resumed rows
    equal fresh rows)."""
    row = cell.row_id()
    for key, value in outcome.items():
        _flatten(key, value, row)
    row["wall_ms"] = wall_ms
    return row


def _execute_cell(
    payload: Tuple[str, Dict[str, Any], Optional[str]],
) -> Tuple[str, Dict[str, Any], float, bool]:
    """Worker body: one cell, one fresh session, one outcome dict.

    Runs inside a pool process (or inline when ``workers == 1``).  The
    optional marker directory receives an (empty) file per *executed*
    cell — the observable tests and CI use to prove that resumed
    sweeps only run what the cache is missing.

    A cell whose session raises returns ``error_type`` and
    ``error_message`` in place of its outcome, and False: one failing
    cell must not abort the grid, and its row names what failed.
    """
    key, spec_dict, marker_dir = payload
    if marker_dir is not None:
        (Path(marker_dir) / key).touch()
    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        started = time.perf_counter()
        outcome = SimulationSession(spec).run()
    except Exception as error:
        failure = {
            "error_type": type(error).__name__,
            "error_message": str(error),
        }
        return key, failure, 0.0, False
    wall_ms = (time.perf_counter() - started) * 1000.0
    return key, outcome.to_dict(), wall_ms, True


def _cache_path(cache_dir: Path, key: str) -> Path:
    return cache_dir / f"{key}.json"


def _load_cached(
    cache_dir: Path, key: str
) -> Optional[Tuple[Dict[str, Any], float]]:
    path = _cache_path(cache_dir, key)
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None
    except (ValueError, OSError) as error:
        raise ValueError(
            f"corrupt sweep cache entry {path} ({error}); delete it to "
            f"re-run the cell"
        ) from error
    if not isinstance(document, dict):
        problem = "not a JSON object"
    elif document.get("key") != key:
        problem = f"holds key {document.get('key')!r}"
    elif not isinstance(document.get("outcome"), dict):
        problem = "no outcome object"
    elif type(document.get("wall_ms", 0.0)) not in (int, float):
        # Entries written before per-cell timing existed carry no
        # wall_ms; a present one must be a number (a bool is not).
        problem = f"wall_ms {document['wall_ms']!r} is not a number"
    else:
        return document["outcome"], float(document.get("wall_ms", 0.0))
    raise ValueError(
        f"corrupt sweep cache entry {path} ({problem}); delete it to "
        f"re-run the cell"
    )

def _store_cached(
    cache_dir: Path, key: str, spec_dict: Dict[str, Any],
    outcome: Dict[str, Any], wall_ms: float,
) -> None:
    """Persist one completed cell atomically (write, then rename).

    A sweep killed mid-write can never leave a truncated cell behind:
    the rename is atomic, so the cache only ever holds complete
    documents.
    """
    path = _cache_path(cache_dir, key)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    document = {
        "key": key, "spec": spec_dict, "outcome": outcome,
        "wall_ms": wall_ms,
    }
    with open(tmp, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


@dataclass
class SweepStats:
    """Execution accounting of one :func:`run_sweep` call.

    ``cells`` counts the grid's declared cells; each is then exactly
    one of **executed** (ran this call), a **cache hit** (loaded from
    the on-disk results cache), or **deduped** (its content hash
    matched an earlier cell of the same grid — identical spec, one
    run, shared row).  The three are reported separately because a
    resume log that folds dedups into cache hits reads as if the disk
    cache served cells it never held.
    """

    cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    workers: int = 1
    wall_s: float = 0.0

    @property
    def cells_per_s(self) -> float:
        return self.executed / self.wall_s if self.wall_s > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cells": self.cells,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
            "workers": self.workers,
            "wall_s": self.wall_s,
            "cells_per_s": self.cells_per_s,
        }


@dataclass
class SweepResult:
    """The aggregate of one sweep run: tidy rows plus run accounting."""

    sweep: SweepSpec
    rows: List[Dict[str, Any]] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def aggregate_json(self) -> str:
        """Canonical JSON of the rows' deterministic columns.

        This is the determinism surface: serial and parallel runs —
        and cached re-runs — of the same sweep must produce the same
        bytes here.  Stats (wall time, worker count) live outside it,
        and the wall-clock row columns (``wall_ms``, ``wall_build_s``,
        ``wall_run_s``, ``engine_profile.*``) are stripped — they stay
        in :attr:`rows` and the CSV, but can never perturb identity.
        """
        return canonical_json([_deterministic_row(row) for row in self.rows])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": self.sweep.to_dict(),
            "stats": self.stats.to_dict(),
            "rows": self.rows,
        }

    def to_csv(self, path: os.PathLike) -> None:
        """The rows as CSV (column order: first appearance)."""
        columns: List[str] = []
        for row in self.rows:
            for column in row:
                if column not in columns:
                    columns.append(column)
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(self.rows)


def run_sweep(
    sweep: SweepSpec,
    cache_dir: Optional[os.PathLike] = None,
    workers: int = 1,
    marker_dir: Optional[os.PathLike] = None,
) -> SweepResult:
    """Execute (or resume) a sweep; see the module docstring.

    ``cache_dir=None`` runs everything in memory (no resume).
    ``workers`` caps the pool size; 1 executes inline in this process
    — bit-identically, which is asserted by the determinism tests.
    Pool dispatch hands every worker ~4 chunks, amortising fork/IPC
    cost over short cells.
    ``marker_dir`` makes execution observable (one file per executed
    cell).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    started = time.perf_counter()
    cells = sweep.cells()
    cache: Optional[Path] = None
    if cache_dir is not None:
        cache = Path(cache_dir)
        cache.mkdir(parents=True, exist_ok=True)
    if marker_dir is not None:
        Path(marker_dir).mkdir(parents=True, exist_ok=True)
        marker_dir = str(marker_dir)

    # key -> (outcome dict, wall_ms of the run that produced it).
    outcomes: Dict[str, Tuple[Dict[str, Any], float]] = {}
    pending: List[SweepCell] = []
    claimed: set = set()
    for cell in cells:
        if cell.key in claimed:
            continue  # an identical cell already accounted for
        claimed.add(cell.key)
        cached = _load_cached(cache, cell.key) if cache is not None else None
        if cached is not None:
            outcomes[cell.key] = cached
        else:
            pending.append(cell)

    payloads = [
        (cell.key, cell.spec.to_dict(), marker_dir) for cell in pending
    ]
    spec_dicts = {key: spec_dict for key, spec_dict, _marker in payloads}

    def settle(
        key: str, outcome: Dict[str, Any], wall_ms: float, ok: bool
    ) -> None:
        outcomes[key] = (outcome, wall_ms)
        # A failed cell is never cached, so a re-run retries it.
        if ok and cache is not None:
            _store_cached(cache, key, spec_dicts[key], outcome, wall_ms)

    n_workers = min(workers, len(payloads))
    if n_workers > 1:
        chunksize = max(1, len(payloads) // (n_workers * 4))
        with multiprocessing.Pool(processes=n_workers) as pool:
            # Unordered: each cell is cached the moment it completes,
            # so a kill at any point loses at most the in-flight cells.
            for executed in pool.imap_unordered(
                _execute_cell, payloads, chunksize=chunksize
            ):
                settle(*executed)
    else:
        for payload in payloads:
            settle(*_execute_cell(payload))

    result = SweepResult(sweep=sweep)
    result.rows = [cell_row(cell, *outcomes[cell.key]) for cell in cells]
    result.stats = SweepStats(
        cells=len(cells),
        executed=len(payloads),
        # Distinct claimed cells the disk cache served vs duplicate
        # cells collapsed by the claimed-set dedup — folding the two
        # together used to make fresh runs of duplicate-bearing grids
        # report phantom cache hits.
        cache_hits=len(claimed) - len(payloads),
        deduped=len(cells) - len(claimed),
        workers=workers,
        wall_s=time.perf_counter() - started,
    )
    return result


def write_bench_record(
    name: str, stats: SweepStats, path: os.PathLike = BENCH_SWEEP_JSON,
    **extra: Any,
) -> Dict[str, Any]:
    """Merge one benchmark's sweep perf record into ``BENCH_sweep.json``.

    The file maps benchmark name → its latest record; existing entries
    for other benchmarks survive, so one file carries the whole perf
    trajectory across PRs.
    """
    path = Path(path)
    try:
        with open(path) as handle:
            document = json.load(handle)
        if not isinstance(document, dict):
            document = {}
    except (FileNotFoundError, ValueError):
        document = {}
    record = dict(stats.to_dict(), **extra)
    document[name] = record
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return record
