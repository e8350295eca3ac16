"""Declarative experiment matrices over :class:`ScenarioSpec`.

Every result in this reproduction comes from running grids of closely
related scenarios — fanout × period, chunk size × swarm size, policy ×
seed.  A :class:`SweepSpec` declares such a grid as data:

* a **base** scenario — either an inline :class:`ScenarioSpec` or the
  name of a registered scenario preset,
* optional named **variants** — labelled override *bundles* for grid
  dimensions whose fields move together (e.g. a swarm-size scaling
  rule that adjusts ``n_devices``, ``n_regions`` and ``n_images`` at
  once, or a ``mode`` baseline),
* **axes** — independent dotted-path overrides, each with a value
  list, crossed with each other (the ``with_overrides`` seam),
* a **seed** list.

:meth:`SweepSpec.cells` expands ``variants × axes-product × seeds``
into concrete :class:`SweepCell`\\ s, each carrying a fully validated
:class:`ScenarioSpec` and its canonical content hash
(:meth:`ScenarioSpec.cache_key`) — the identity the runner's on-disk
results cache is addressed by.  Sweeps serialise losslessly through
:meth:`to_dict` / :meth:`from_dict`, so a grid is a JSON document the
CLI can run directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import scenarios
from ..scenarios import ScenarioSpec, with_overrides
from ..scenarios.spec import _parse_override_value
from ..sim.rng import DEFAULT_SEED

#: One variant: (label, overrides as an ordered tuple of (path, value)).
Variant = Tuple[str, Tuple[Tuple[str, Any], ...]]

#: One axis: (dotted path, value tuple).
Axis = Tuple[str, Tuple[Any, ...]]


def _freeze_overrides(overrides: Any) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a mapping / pair sequence to an ordered pair tuple."""
    if isinstance(overrides, Mapping):
        items = list(overrides.items())
    else:
        items = [(str(path), value) for path, value in overrides]
    seen = set()
    for path, _value in items:
        if path in seen:
            raise ValueError(f"override path {path!r} given twice")
        seen.add(path)
    return tuple((str(path), value) for path, value in items)


def _freeze_axes(axes: Any) -> Tuple[Axis, ...]:
    if isinstance(axes, Mapping):
        items = list(axes.items())
    else:
        items = list(axes)
    out: List[Axis] = []
    seen = set()
    for path, values in items:
        path = str(path)
        if path in seen:
            raise ValueError(f"axis {path!r} declared twice")
        seen.add(path)
        values = tuple(values)
        if not values:
            raise ValueError(f"axis {path!r} has no values")
        if len(set(map(repr, values))) != len(values):
            raise ValueError(f"axis {path!r} repeats a value: {values}")
        out.append((path, values))
    return tuple(out)


def _freeze_variants(variants: Any) -> Tuple[Variant, ...]:
    if isinstance(variants, Mapping):
        items = list(variants.items())
    else:
        items = list(variants)
    out: List[Variant] = []
    seen = set()
    for label, overrides in items:
        label = str(label)
        if label in seen:
            raise ValueError(f"variant {label!r} declared twice")
        seen.add(label)
        out.append((label, _freeze_overrides(overrides)))
    return tuple(out)


def parse_axis_flags(flags: Sequence[str]) -> Dict[str, Tuple[Any, ...]]:
    """Split CLI ``--axis path=v1,v2,...`` strings into an axes mapping.

    Values get the same scalar coercion as ``--set`` (``"600"`` → 600,
    ``"true"`` → True, …), so the aggregate's identity columns carry
    typed values, not strings.
    """
    axes: Dict[str, Tuple[Any, ...]] = {}
    for flag in flags:
        path, eq, raw = flag.partition("=")
        if not eq or not path.strip() or not raw.strip():
            raise ValueError(
                f"bad --axis {flag!r}; expected section.field=v1,v2,..."
            )
        axes[path.strip()] = tuple(
            _parse_override_value(part) for part in raw.split(",")
        )
    return axes


def parse_seed_flag(flag: str) -> Tuple[int, ...]:
    """``"1,2,3"`` → ``(1, 2, 3)`` (the CLI's ``--seeds`` value)."""
    try:
        return tuple(int(part) for part in flag.split(","))
    except ValueError:
        raise ValueError(
            f"bad --seeds {flag!r}; expected a comma-separated int list"
        ) from None


@dataclass(frozen=True)
class SweepCell:
    """One concrete run of a sweep: a spec, its seed, and its identity.

    ``key`` is the canonical content hash of the *spec* (seed
    included), so the same configuration reached through different
    sweeps — or through a hand-edited grid — shares one cache entry.
    """

    index: int
    variant: str
    axis_values: Tuple[Tuple[str, Any], ...]
    seed: int
    spec: ScenarioSpec
    key: str

    def row_id(self) -> Dict[str, Any]:
        """The identity columns of this cell's aggregate row."""
        row: Dict[str, Any] = {}
        if self.variant:
            row["variant"] = self.variant
        row.update(self.axis_values)
        row["seed"] = self.seed
        row["key"] = self.key
        return row


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment matrix (see the module docstring).

    Exactly one of ``preset`` (a registered scenario preset name,
    resolved freshly at expansion) and ``base`` (an inline spec) must
    be given.  ``axes`` / ``variants`` accept mappings or pair
    sequences and are frozen to tuples; ``seeds`` defaults to the
    repo's root seed.
    """

    name: str = "sweep"
    description: str = ""
    preset: Optional[str] = None
    base: Optional[ScenarioSpec] = None
    variants: Any = ()
    axes: Any = ()
    seeds: Sequence[int] = (DEFAULT_SEED,)

    def __post_init__(self) -> None:
        if (self.preset is None) == (self.base is None):
            raise ValueError(
                "a SweepSpec needs exactly one of preset= (a scenario "
                "preset name) and base= (an inline ScenarioSpec)"
            )
        if self.preset is not None:
            scenarios.get(self.preset)  # unknown preset fails here, early
        object.__setattr__(self, "variants", _freeze_variants(self.variants))
        object.__setattr__(self, "axes", _freeze_axes(self.axes))
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("a sweep needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds repeat: {seeds}")
        if any(s < 0 for s in seeds):
            raise ValueError(f"seeds must be >= 0, got {seeds}")
        object.__setattr__(self, "seeds", seeds)

    # -- expansion -------------------------------------------------------
    def base_spec(self) -> ScenarioSpec:
        if self.preset:
            return scenarios.get(self.preset)
        assert self.base is not None  # __post_init__: exactly one is set
        return self.base

    def cells(self) -> Tuple[SweepCell, ...]:
        """The cross-product, expanded and validated.

        Order is deterministic — variants in declaration order, axes as
        nested loops (first axis outermost), seeds innermost — and is
        the aggregate's row order, independent of execution order.
        Every cell's spec passes the full :class:`ScenarioSpec`
        validation; a grid that contains one invalid combination fails
        *here*, before anything runs.
        """
        base = self.base_spec()
        variants = self.variants or (("", ()),)
        axis_paths = [path for path, _values in self.axes]
        axis_value_lists = [values for _path, values in self.axes]
        cells: List[SweepCell] = []
        for label, bundle in variants:
            for combo in product(*axis_value_lists):
                overrides = dict(bundle)
                overrides.update(zip(axis_paths, combo))
                try:
                    spec = with_overrides(base, overrides)
                except ValueError as error:
                    raise ValueError(
                        f"sweep {self.name!r} cell "
                        f"(variant={label!r}, {dict(zip(axis_paths, combo))}) "
                        f"is invalid: {error}"
                    ) from error
                for seed in self.seeds:
                    seeded = replace(spec, seed=seed)
                    cells.append(SweepCell(
                        index=len(cells),
                        variant=label,
                        axis_values=tuple(zip(axis_paths, combo)),
                        seed=seed,
                        spec=seeded,
                        key=seeded.cache_key(),
                    ))
        return tuple(cells)

    # -- serialisation ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON-safe dict that :meth:`from_dict` inverts."""
        return {
            "name": self.name,
            "description": self.description,
            "preset": self.preset,
            "base": None if self.base is None else self.base.to_dict(),
            "variants": [
                [label, dict(bundle)] for label, bundle in self.variants
            ],
            "axes": [[path, list(values)] for path, values in self.axes],
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        known = {
            "name", "description", "preset", "base", "variants", "axes",
            "seeds",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SweepSpec keys {sorted(unknown)}")
        kwargs: Dict[str, Any] = {
            key: data[key]
            for key in ("name", "description", "preset", "variants",
                        "axes", "seeds")
            if key in data and data[key] is not None
        }
        base = data.get("base")
        if base is not None:
            kwargs["base"] = ScenarioSpec.from_dict(base)
        return cls(**kwargs)
