"""SweepSpec: expansion, identity hashing, validation, serialisation."""

import dataclasses

import pytest

from repro.scenarios import ScenarioSpec, canonical_hash
from repro.sweep import SweepSpec, parse_axis_flags, parse_seed_flag

BASE = ScenarioSpec()


def small_sweep(**kwargs) -> SweepSpec:
    kwargs.setdefault("base", BASE)
    kwargs.setdefault("axes", {"replication.decay": (0.0, 0.5)})
    kwargs.setdefault("seeds", (1, 2))
    return SweepSpec(**kwargs)


class TestExpansion:
    def test_cross_product_size_and_order(self):
        sweep = small_sweep(
            variants={"a": {}, "b": {"mode": "hybrid"}},
            axes={"replication.decay": (0.0, 0.5),
                  "workload.pulls_per_device": (2, 3)},
        )
        cells = sweep.cells()
        assert len(cells) == 2 * 2 * 2 * 2
        # variants outermost, axes as nested loops, seeds innermost
        assert [c.variant for c in cells[:8]] == ["a"] * 8
        assert cells[0].axis_values == (
            ("replication.decay", 0.0), ("workload.pulls_per_device", 2),
        )
        assert [c.seed for c in cells[:4]] == [1, 2, 1, 2]
        assert [c.index for c in cells] == list(range(len(cells)))

    def test_cells_carry_applied_overrides(self):
        cells = small_sweep().cells()
        assert cells[0].spec.replication.decay == 0.0
        assert cells[0].spec.seed == 1
        assert cells[-1].spec.replication.decay == 0.5
        assert cells[-1].spec.seed == 2

    def test_key_is_the_spec_content_hash(self):
        for cell in small_sweep().cells():
            assert cell.key == cell.spec.cache_key()
            assert cell.key == canonical_hash(cell.spec.to_dict())

    def test_keys_unique_across_distinct_cells(self):
        cells = small_sweep().cells()
        assert len({c.key for c in cells}) == len(cells)

    def test_identical_cells_share_a_key(self):
        # Two variants with the same (empty) bundle describe the same
        # runs — content addressing makes the collision visible.
        sweep = small_sweep(variants={"a": {}, "b": {}})
        cells = sweep.cells()
        half = len(cells) // 2
        assert [c.key for c in cells[:half]] == [c.key for c in cells[half:]]

    def test_preset_base_resolves_at_expansion(self):
        sweep = SweepSpec(preset="p2p", seeds=(9,))
        (cell,) = sweep.cells()
        assert cell.spec.seed == 9
        assert cell.spec.mode == "hybrid+p2p"

    def test_row_id_columns(self):
        (first, *_rest) = small_sweep(variants={"v": {}}).cells()
        row = first.row_id()
        assert row == {
            "variant": "v", "replication.decay": 0.0,
            "seed": 1, "key": first.key,
        }
        # no variants declared -> no variant column
        (first, *_rest) = small_sweep().cells()
        assert "variant" not in first.row_id()

    def test_invalid_combination_fails_with_cell_context(self):
        sweep = small_sweep(axes={"discovery.gossip_fanout": (1, 2)})
        with pytest.raises(ValueError, match="gossip_fanout"):
            sweep.cells()  # gossip knob under omniscient discovery


class TestValidation:
    def test_needs_exactly_one_of_preset_and_base(self):
        with pytest.raises(ValueError, match="exactly one"):
            SweepSpec()
        with pytest.raises(ValueError, match="exactly one"):
            SweepSpec(preset="p2p", base=BASE)

    def test_unknown_preset_fails_at_construction(self):
        with pytest.raises(KeyError, match="nonsense"):
            SweepSpec(preset="nonsense")

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="declared twice"):
            small_sweep(axes=[("mode", ("hybrid",)), ("mode", ("p2p",))])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            small_sweep(axes={"replication.decay": ()})

    def test_repeated_axis_value_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            small_sweep(axes={"replication.decay": (0.5, 0.5)})

    def test_duplicate_variant_rejected(self):
        with pytest.raises(ValueError, match="declared twice"):
            small_sweep(variants=[("a", {}), ("a", {})])

    def test_duplicate_override_path_in_bundle_rejected(self):
        with pytest.raises(ValueError, match="given twice"):
            small_sweep(variants=[("a", [("mode", "hybrid"),
                                         ("mode", "p2p")])])

    def test_seeds_validated(self):
        with pytest.raises(ValueError, match="at least one seed"):
            small_sweep(seeds=())
        with pytest.raises(ValueError, match="repeat"):
            small_sweep(seeds=(1, 1))
        with pytest.raises(ValueError, match=">= 0"):
            small_sweep(seeds=(-1,))


class TestSerialisation:
    def test_round_trip_identity(self):
        sweep = small_sweep(
            name="rt", description="d",
            variants={"v": {"mode": "hybrid"}},
        )
        clone = SweepSpec.from_dict(sweep.to_dict())
        assert clone == sweep
        assert clone.to_dict() == sweep.to_dict()
        assert [c.key for c in clone.cells()] == [
            c.key for c in sweep.cells()
        ]

    def test_preset_round_trip(self):
        sweep = SweepSpec(preset="p2p", axes={"replication.decay": (0.1,)})
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown SweepSpec keys"):
            SweepSpec.from_dict({"preset": "p2p", "gird": []})


class TestCliParsing:
    def test_parse_axis_flags_types_values(self):
        axes = parse_axis_flags([
            "discovery.gossip_fanout=1,2,4",
            "transfer.model=analytic,time-resolved",
            "churn=none",
        ])
        assert axes["discovery.gossip_fanout"] == (1, 2, 4)
        assert axes["transfer.model"] == ("analytic", "time-resolved")
        assert axes["churn"] == (None,)

    def test_parse_axis_flags_rejects_malformed(self):
        for bad in ("no-equals", "=1,2", "path="):
            with pytest.raises(ValueError, match="bad --axis"):
                parse_axis_flags([bad])

    def test_parse_seed_flag(self):
        assert parse_seed_flag("1,2,3") == (1, 2, 3)
        with pytest.raises(ValueError, match="bad --seeds"):
            parse_seed_flag("1,x")


class TestFrozen:
    def test_replace_revalidates(self):
        sweep = small_sweep()
        widened = dataclasses.replace(sweep, seeds=(1, 2, 3))
        assert len(widened.cells()) == 6
        with pytest.raises(ValueError, match="repeat"):
            dataclasses.replace(sweep, seeds=(1, 1))
