"""run_sweep: caching, resume, parallel determinism, aggregation."""

import json
import os

import pytest

from repro.scenarios import ScenarioSpec, with_overrides
from repro.sweep import (
    NONDETERMINISTIC_ROW_COLUMNS,
    SweepSpec,
    cell_row,
    run_sweep,
    write_bench_record,
)

#: A cheap base: every cell simulates in ~15 ms.
BASE = with_overrides(
    ScenarioSpec(),
    {"topology.n_devices": 6, "workload.pulls_per_device": 2},
)


def small_sweep(**kwargs) -> SweepSpec:
    kwargs.setdefault("base", BASE)
    kwargs.setdefault("axes", {"replication.decay": (0.0, 0.5)})
    kwargs.setdefault("seeds", (1, 2))
    return SweepSpec(**kwargs)


def executed_markers(marker_dir) -> set:
    return {p.name for p in marker_dir.iterdir()}


class TestExecution:
    def test_rows_follow_cell_order_and_shape(self):
        sweep = small_sweep()
        result = run_sweep(sweep)
        cells = sweep.cells()
        assert len(result.rows) == len(cells)
        for row, cell in zip(result.rows, cells):
            assert row["key"] == cell.key
            assert row["seed"] == cell.seed
            assert row["replication.decay"] == cell.spec.replication.decay
            assert row["pulls"] > 0
            # nested outcome dicts are flattened to dotted columns
            assert any(c.startswith("bytes_by_registry.") for c in row)

    def test_stats_account_for_every_cell(self, tmp_path):
        result = run_sweep(small_sweep(), cache_dir=tmp_path / "cache")
        assert result.stats.cells == 4
        assert result.stats.executed == 4
        assert result.stats.cache_hits == 0
        assert result.stats.wall_s > 0
        assert result.stats.cells_per_s > 0

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(small_sweep(), workers=0)

    def test_identical_cells_execute_once(self, tmp_path):
        sweep = small_sweep(variants={"a": {}, "b": {}})
        marker_dir = tmp_path / "markers"
        result = run_sweep(sweep, marker_dir=marker_dir)
        assert result.stats.cells == 8
        assert result.stats.executed == 4  # deduplicated by content
        assert len(executed_markers(marker_dir)) == 4
        half = len(result.rows) // 2
        for a_row, b_row in zip(result.rows[:half], result.rows[half:]):
            assert a_row["key"] == b_row["key"]
            assert a_row["pulls"] == b_row["pulls"]


class TestDeterminism:
    def test_parallel_aggregate_byte_identical_to_serial(self, tmp_path):
        sweep = small_sweep(
            axes={"replication.decay": (0.0, 0.3, 0.6)}, seeds=(1, 2)
        )
        serial = run_sweep(sweep, cache_dir=tmp_path / "serial", workers=1)
        parallel = run_sweep(
            sweep, cache_dir=tmp_path / "parallel", workers=2
        )
        assert serial.aggregate_json() == parallel.aggregate_json()
        # and a cached re-read reproduces the same bytes again
        cached = run_sweep(sweep, cache_dir=tmp_path / "serial", workers=2)
        assert cached.stats.executed == 0
        assert cached.aggregate_json() == serial.aggregate_json()

    def test_uncached_run_matches_cached_rows(self, tmp_path):
        sweep = small_sweep()
        assert (
            run_sweep(sweep).aggregate_json()
            == run_sweep(sweep, cache_dir=tmp_path).aggregate_json()
        )


class TestResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        # The CI sweep-smoke contract: a 2x2x2 grid, twice, through a
        # 2-process pool; the second run executes nothing.
        sweep = small_sweep(
            axes={"replication.decay": (0.0, 0.5),
                  "workload.pulls_per_device": (2, 3)},
            seeds=(1, 2),
        )
        cache = tmp_path / "cache"
        first = run_sweep(sweep, cache_dir=cache, workers=2)
        assert (first.stats.executed, first.stats.cache_hits) == (8, 0)
        second = run_sweep(sweep, cache_dir=cache, workers=2)
        assert (second.stats.executed, second.stats.cache_hits) == (0, 8)
        assert second.aggregate_json() == first.aggregate_json()

    def test_only_missing_cells_re_execute(self, tmp_path):
        sweep = small_sweep(
            axes={"replication.decay": (0.0, 0.3, 0.6)}, seeds=(1, 2)
        )
        cache = tmp_path / "cache"
        first = run_sweep(
            sweep, cache_dir=cache, marker_dir=tmp_path / "m1"
        )
        keys = [cell.key for cell in sweep.cells()]
        assert executed_markers(tmp_path / "m1") == set(keys)

        # kill half the cache: the resumed run must execute exactly
        # the deleted cells (observed via the worker-side markers) and
        # still aggregate to the same bytes
        deleted = keys[::2]
        for key in deleted:
            (cache / f"{key}.json").unlink()
        second = run_sweep(
            sweep, cache_dir=cache, marker_dir=tmp_path / "m2", workers=2
        )
        assert executed_markers(tmp_path / "m2") == set(deleted)
        assert second.stats.executed == len(deleted)
        assert second.stats.cache_hits == len(keys) - len(deleted)
        assert second.aggregate_json() == first.aggregate_json()

    def test_growing_an_axis_runs_only_new_cells(self, tmp_path):
        cache = tmp_path / "cache"
        run_sweep(
            small_sweep(axes={"replication.decay": (0.0, 0.5)}),
            cache_dir=cache,
        )
        grown = run_sweep(
            small_sweep(axes={"replication.decay": (0.0, 0.5, 0.9)}),
            cache_dir=cache,
            marker_dir=tmp_path / "markers",
        )
        assert grown.stats.cache_hits == 4
        assert grown.stats.executed == 2
        new_keys = {
            c.key for c in grown.sweep.cells()
            if c.spec.replication.decay == 0.9
        }
        assert executed_markers(tmp_path / "markers") == new_keys

    @pytest.mark.parametrize(
        "body",
        ["{ truncated", "[]", "null", '{"key": "<key>"}']
        + [
            '{"key": "<key>", "outcome": {}, "wall_ms": %s}' % wall_ms
            for wall_ms in ('"x"', "{}", "null", "[1]", "true")
        ],
        ids=[
            "truncated", "list", "null", "no-outcome", "wall-ms-string",
            "wall-ms-object", "wall-ms-null", "wall-ms-list", "wall-ms-bool",
        ],
    )
    def test_corrupt_cache_entry_is_loud(self, tmp_path, body):
        # Valid JSON that is not an entry object with an object outcome
        # and a numeric wall_ms (when present) fails like a truncated
        # file, not with an AttributeError, KeyError or TypeError from
        # inside the loader.
        sweep = small_sweep(axes={}, seeds=(1,))
        run_sweep(sweep, cache_dir=tmp_path)
        (cell,) = sweep.cells()
        path = tmp_path / f"{cell.key}.json"
        path.write_text(body.replace("<key>", cell.key))
        with pytest.raises(ValueError, match="corrupt sweep cache"):
            run_sweep(sweep, cache_dir=tmp_path)

    def test_mismatched_cache_key_is_loud(self, tmp_path):
        sweep = small_sweep(axes={}, seeds=(1,))
        run_sweep(sweep, cache_dir=tmp_path)
        (cell,) = sweep.cells()
        path = tmp_path / f"{cell.key}.json"
        document = json.loads(path.read_text())
        document["key"] = "0" * 64
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="holds key"):
            run_sweep(sweep, cache_dir=tmp_path)


#: One healthy cell and one whose session raises: no image fits in
#: a 0.1 GB cache.
FAILING = {"axes": {"topology.cache_gb": (12.0, 0.1)}, "seeds": (1,)}


class TestFailingCells:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_cell_becomes_an_uncached_error_row(
        self, tmp_path, workers
    ):
        sweep = small_sweep(**FAILING)
        healthy, failing = sweep.cells()
        cache = tmp_path / "cache"
        result = run_sweep(sweep, cache_dir=cache, workers=workers)
        ok, error = result.rows
        assert ok["key"] == healthy.key and ok["pulls"] > 0
        assert "error_type" not in ok
        assert error["key"] == failing.key
        assert error["error_type"] == "CacheFull"
        assert "cache capacity" in error["error_message"]
        assert "pulls" not in error
        assert result.stats.executed == 2
        assert [p.name for p in cache.iterdir()] == [f"{healthy.key}.json"]

    def test_error_rows_match_inline_and_pooled(self):
        sweep = small_sweep(**FAILING)
        inline = run_sweep(sweep)
        pooled = run_sweep(sweep, workers=2)
        assert pooled.aggregate_json() == inline.aggregate_json()

    def test_a_rerun_executes_only_the_failed_cell(self, tmp_path):
        sweep = small_sweep(**FAILING)
        healthy, failing = sweep.cells()
        cache = tmp_path / "cache"
        first = run_sweep(sweep, cache_dir=cache, marker_dir=tmp_path / "m1")
        assert executed_markers(tmp_path / "m1") == {healthy.key, failing.key}
        again = run_sweep(sweep, cache_dir=cache, marker_dir=tmp_path / "m2")
        assert executed_markers(tmp_path / "m2") == {failing.key}
        assert again.stats.cache_hits == 1
        assert again.aggregate_json() == first.aggregate_json()


class TestAggregate:
    def test_to_csv_emits_every_row(self, tmp_path):
        result = run_sweep(small_sweep())
        path = tmp_path / "rows.csv"
        result.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + len(result.rows)
        header = lines[0].split(",")
        assert header[:3] == ["replication.decay", "seed", "key"]

    def test_cell_row_flattens_nested_outcomes(self):
        (cell, *_rest) = small_sweep().cells()
        row = cell_row(cell, {"pulls": 3, "bytes": {"hub": 1, "edge": 2}})
        assert row["pulls"] == 3
        assert row["bytes.hub"] == 1
        assert row["bytes.edge"] == 2

    def test_rows_carry_wall_ms_outside_identity_surface(self, tmp_path):
        result = run_sweep(small_sweep(), cache_dir=tmp_path)
        # Every executed row carries its wall-clock cost...
        assert all(row["wall_ms"] > 0 for row in result.rows)
        # ...but no nondeterministic column reaches the byte-identity
        # surface the determinism and resume contracts compare.
        for row in json.loads(result.aggregate_json()):
            overlap = set(row) & set(NONDETERMINISTIC_ROW_COLUMNS)
            assert not overlap, f"nondeterministic columns leaked: {overlap}"
            assert not any(key.startswith("engine_profile.") for key in row)

    def test_resumed_rows_carry_cached_wall_ms(self, tmp_path):
        sweep = small_sweep()
        first = run_sweep(sweep, cache_dir=tmp_path)
        resumed = run_sweep(sweep, cache_dir=tmp_path)
        assert resumed.stats.executed == 0
        # Cached documents store the original wall_ms, so a resumed
        # row equals its freshly-executed counterpart column-for-column.
        assert resumed.rows == first.rows

    def test_write_bench_record_merges(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        first = run_sweep(small_sweep())
        write_bench_record("one", first.stats, path=path)
        write_bench_record("two", first.stats, path=path, devices=6)
        document = json.loads(path.read_text())
        assert set(document) == {"one", "two"}
        assert document["two"]["devices"] == 6
        assert document["one"]["cells"] == 4
        assert document["one"]["workers"] == 1


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the speedup acceptance needs >= 4 CPU cores",
)
def test_four_workers_beat_serial_by_2_5x(tmp_path):
    """The issue's acceptance bar: a 2-seed x 3-override gossip sweep
    on 4 workers completes >= 2.5x faster than the same sweep serial,
    a re-run completes with zero cells executed, and the aggregates
    are byte-identical."""
    sweep = SweepSpec(
        name="speedup",
        preset="p2p-gossip",
        axes={"discovery.gossip_fanout": (1, 2, 4)},
        seeds=(1, 2),
    )
    serial = run_sweep(sweep, cache_dir=tmp_path / "serial", workers=1)
    parallel = run_sweep(sweep, cache_dir=tmp_path / "parallel", workers=4)
    assert parallel.aggregate_json() == serial.aggregate_json()
    rerun = run_sweep(sweep, cache_dir=tmp_path / "parallel", workers=4)
    assert rerun.stats.executed == 0
    assert rerun.aggregate_json() == serial.aggregate_json()
    speedup = serial.stats.wall_s / parallel.stats.wall_s
    assert speedup >= 2.5, (
        f"4-worker sweep only {speedup:.2f}x faster than serial"
    )
