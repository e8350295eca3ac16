"""Experiment harness: each table/figure module produces sound results."""

import pytest

from repro.experiments import ablations, figure3a, figure3b, table2, table3
from repro.experiments.runner import ExperimentResult


class TestRunner:
    def test_row_columns_enforced(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(a=1)

    def test_to_text_renders_all_rows(self):
        result = ExperimentResult("x", "t", ["a", "b"])
        result.add_row(a=1, b=2.5)
        result.add_row(a=10, b=0.25)
        result.note("hello")
        text = result.to_text()
        assert "2.50" in text and "10" in text and "note: hello" in text

    def test_column_extraction(self):
        result = ExperimentResult("x", "t", ["a"])
        result.add_row(a=1)
        result.add_row(a=2)
        assert result.column("a") == [1, 2]


class TestTable2Experiment:
    def test_all_cells_in_range(self, testbed):
        result = table2.run(testbed)
        assert len(result.rows) == 24  # 12 services x 2 devices
        assert all(row["in_range"] for row in result.rows), [
            (r["service"], r["device"]) for r in result.rows if not r["in_range"]
        ]

    def test_tp_reported_only_on_bench_device(self, testbed):
        result = table2.run(testbed)
        video_rows = [r for r in result.rows if r["service"].startswith("vp-")]
        for row in video_rows:
            if row["device"] == "medium":
                assert row["tp_paper"] != "-"
            else:
                assert row["tp_paper"] == "-"


class TestTable3Experiment:
    def test_distribution_matches_paper(self, testbed):
        result = table3.run(testbed)
        assert all(row["match"] for row in result.rows), result.to_text()

    def test_five_paper_cells_present(self, testbed):
        result = table3.run(testbed)
        nonzero_paper = [r for r in result.rows if r["paper_percent"] > 0]
        assert len(nonzero_paper) == 5


class TestFigure3a:
    def test_training_dominates(self, testbed):
        result = figure3a.run(testbed)
        assert "yes" in result.notes[0]

    def test_twelve_bars(self, testbed):
        result = figure3a.run(testbed)
        assert len(result.rows) == 12

    def test_energies_positive_kj(self, testbed):
        result = figure3a.run(testbed)
        assert all(0 < row["energy_kj"] < 10 for row in result.rows)


class TestFigure3b:
    def test_deep_never_loses(self, testbed):
        result = figure3b.run(testbed)
        for row in result.rows:
            assert row["delta_vs_deep_j"] >= -1e-6, row

    def test_savings_are_subpercent_scale(self, testbed):
        """Paper's key reading: registry choice matters little (<1%)."""
        result = figure3b.run(testbed)
        for row in result.rows:
            if row["method"] == "deep":
                continue
            energy_j = row["energy_kj"] * 1000.0
            assert row["delta_vs_deep_j"] / energy_j < 0.01

    def test_six_rows(self, testbed):
        result = figure3b.run(testbed)
        assert len(result.rows) == 6  # 2 apps x 3 methods


class TestAblations:
    def test_cache_and_dedup(self, testbed):
        result = ablations.cache_and_dedup(testbed)
        by_name = {row["scenario"]: row for row in result.rows}
        assert by_name["whole-image warm"]["bytes_pulled_gb"] == 0.0
        assert (
            by_name["layered cold"]["bytes_pulled_gb"]
            < by_name["whole-image cold"]["bytes_pulled_gb"]
        )

    def test_solver_comparison_all_agree(self, testbed):
        result = ablations.solver_comparison(testbed)
        assert all(row["plan_equals_support"] for row in result.rows), (
            result.to_text()
        )

    def test_scaling_deep_tracks_greedy(self):
        result = ablations.scaling(sizes=[2, 4])
        assert all(row["deep_within_greedy"] for row in result.rows)

    def test_bandwidth_sweep_monotone_share(self):
        result = ablations.bandwidth_sweep(multipliers=[0.6, 1.0, 1.6])
        assert result.column("bw_multiplier") == [0.6, 1.0, 1.6]
        shares = result.column("deep_regional_share")
        assert shares[0] <= shares[-1]
        # At very poor regional bandwidth the hub wins; at very good,
        # the regional registry wins.
        assert result.rows[0]["winner"] == "hub"
        assert result.rows[-1]["winner"] == "regional"

    def test_bandwidth_sweep_deep_tracks_best(self):
        result = ablations.bandwidth_sweep(multipliers=[0.6, 1.6])
        for row in result.rows:
            best = min(row["hub_j"], row["regional_j"])
            assert row["deep_j"] <= best * 1.001
