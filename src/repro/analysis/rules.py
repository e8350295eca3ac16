"""The determinism & purity rules of ``repro lint``.

Every rule here is grounded in a hazard class this repo has actually
hit (or exists to prevent) across PRs 1-9: wall time feeding sim state,
unseeded randomness, hash-order-dependent iteration, ``id()`` ordering,
frozen-spec mutation, impure telemetry, spec fields that silently skip
serialisation, and exports whose byte identity depends on dict build
order.  Each rule's docstring is its catalogue entry (rendered by
``repro lint --list`` and the package README).

Static analysis is heuristic by design: a rule prefers a rare,
silenceable false positive over missing a nondeterminism hazard.  The
escape hatches are, in order of preference: fix the code, add an inline
``# repro-lint: disable=<rule>`` (metered against the baseline), or
allowlist the file in :class:`~repro.analysis.findings.LintConfig`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .astutil import (
    ModuleContext,
    dotted_name,
    function_scopes,
    is_set_expr,
    set_typed_locals,
    walk_scope,
)
from .findings import Finding, path_matches
from .registry import rule

# ----------------------------------------------------------------------
# 1. wall-clock-in-sim
# ----------------------------------------------------------------------
#: Host-clock reads (canonical dotted names after import resolution).
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@rule(
    "wall-clock-in-sim",
    "host-clock reads outside the wall-timing allowlist",
)
def check_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    """Simulation state must be a function of the simulated clock only.

    ``time.time`` / ``perf_counter`` / ``datetime.now`` anywhere in the
    simulator can leak host timing into outcomes, silently breaking the
    bit-for-bit invariant every differential test depends on.  Only the
    dedicated wall-timing sites (telemetry profiling, sweep wall
    accounting, the session's ``wall_build_s``/``wall_run_s`` fields —
    ``LintConfig.wall_clock_allow``) may read the host clock, and those
    values are excluded from every identity surface.
    """
    if path_matches(ctx.path, ctx.config.wall_clock_allow):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.resolve_call_target(node.func)
        if target in _WALL_CLOCK_CALLS:
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule="wall-clock-in-sim",
                message=(
                    f"host-clock read {target}() outside the wall-timing "
                    f"allowlist; sim logic must use the simulated clock"
                ),
            )


# ----------------------------------------------------------------------
# 2. unseeded-rng
# ----------------------------------------------------------------------
#: numpy.random constructors that are fine *with* an explicit seed.
_NP_SEEDABLE = frozenset({
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
})


@rule("unseeded-rng", "global or seedless random number generation")
def check_unseeded_rng(ctx: ModuleContext) -> Iterator[Finding]:
    """All randomness must flow from an explicitly seeded generator.

    Module-level ``random.*`` / ``np.random.*`` calls draw from global
    process state that any import or test-ordering change perturbs, and
    ``Random()`` / ``default_rng()`` without a seed argument draw from
    the OS.  The repo's discipline is ``np.random.default_rng(seed)``
    streams derived from the root seed (see ``sim/rng.py``); this rule
    makes the discipline mechanical.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.resolve_call_target(node.func)
        if target is None:
            continue
        seedless = not node.args and not any(
            kw.arg in ("seed", "x") for kw in node.keywords
        )
        if target in _NP_SEEDABLE or target == "random.Random":
            if seedless:
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="unseeded-rng",
                    message=(
                        f"{target}() constructed without an explicit seed "
                        f"expression; derive it from the scenario seed"
                    ),
                )
        elif target == "random.SystemRandom" or (
            target.startswith(("random.", "numpy.random."))
            and "." not in target.split("random.", 1)[1]
        ):
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule="unseeded-rng",
                message=(
                    f"{target}() uses global/OS random state; use an "
                    f"explicitly seeded generator stream instead"
                ),
            )


# ----------------------------------------------------------------------
# 3. unordered-set-iteration
# ----------------------------------------------------------------------
#: Builtins whose result (or side-effect order) depends on the
#: iteration order of their iterable argument.  ``sorted`` is the
#: sanctioned fix and is deliberately absent.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"sum", "min", "max", "list", "tuple", "next"}
)


@rule(
    "unordered-set-iteration",
    "iterating a set where order can reach sim state",
)
def check_unordered_set_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    """Set iteration order is hash-order: stable nowhere you need it.

    In the sim/registry/scenarios/sweep modules
    (``LintConfig.ordered_iteration_scope``), a ``for`` loop, list/dict
    comprehension, or ``sum``/``min``/``max``/``list``/``tuple`` call
    directly over a set-typed expression lets PYTHONHASHSEED pick
    tie-breaks and event order — exactly the lockstep/tie-break bug
    class of PRs 4 and 6.  Iterate ``sorted(the_set)`` (every in-repo
    fix uses it), or restructure to an ordered container.  Set
    comprehensions over sets are exempt: the result is again unordered,
    so no order leaks.
    """
    if not path_matches(ctx.path, ctx.config.ordered_iteration_scope):
        return
    for scope in function_scopes(ctx.tree):
        set_names = set_typed_locals(scope)

        def offending(iterable: ast.AST) -> bool:
            return is_set_expr(iterable, set_names)

        for node in walk_scope(scope):
            if isinstance(node, ast.For) and offending(node.iter):
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="unordered-set-iteration",
                    message=(
                        "for-loop over a set-typed expression; iterate "
                        "sorted(...) so order cannot depend on hashing"
                    ),
                )
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    if offending(gen.iter):
                        yield Finding(
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule="unordered-set-iteration",
                            message=(
                                "comprehension over a set-typed "
                                "expression builds an ordered result "
                                "from unordered input; iterate "
                                "sorted(...)"
                            ),
                        )
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                first = node.args[0] if node.args else None
                if (
                    name in _ORDER_SENSITIVE_CALLS
                    and first is not None
                    and offending(first)
                ):
                    yield Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="unordered-set-iteration",
                        message=(
                            f"{name}() over a set-typed expression is "
                            f"iteration-order dependent; pass sorted(...)"
                        ),
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and first is not None
                    and offending(first)
                ):
                    yield Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="unordered-set-iteration",
                        message=(
                            "str.join over a set-typed expression; join "
                            "sorted(...) instead"
                        ),
                    )


# ----------------------------------------------------------------------
# 4. id-ordering
# ----------------------------------------------------------------------
@rule("id-ordering", "id() used inside sort keys or comparisons")
def check_id_ordering(ctx: ModuleContext) -> Iterator[Finding]:
    """``id()`` is an address: it orders objects by allocator accident.

    A sort key, ``min``/``max`` argument, or comparison built on
    ``id(...)`` produces an ordering that changes run to run even under
    a fixed seed.  Break ties on a stable domain key (name, index,
    digest) instead — every engine tie-break does (e.g. the
    ``(-bw, name)`` peer ordering).
    """
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            continue
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, ast.keyword) and ancestor.arg == "key":
                reason = "inside a key= sort function"
            elif isinstance(ancestor, ast.Call) and dotted_name(
                ancestor.func
            ) in ("sorted", "min", "max"):
                reason = f"inside a {dotted_name(ancestor.func)}() argument"
            elif isinstance(ancestor, ast.Compare):
                reason = "inside a comparison"
            else:
                continue
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule="id-ordering",
                message=(
                    f"id() {reason} orders objects by memory address; "
                    f"use a stable domain key"
                ),
            )
            break


# ----------------------------------------------------------------------
# 5. frozen-spec-mutation
# ----------------------------------------------------------------------
#: Methods in which spec self-initialisation is legitimate.
_SPEC_INIT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "with_overrides"}
)


def _spec_typed_names(ctx: ModuleContext, scope: ast.AST) -> Set[str]:
    """Names statically known (or conventionally named) to hold specs."""
    names: Set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            annotation = arg.annotation
            if isinstance(annotation, ast.Subscript):  # Optional[FooSpec]
                annotation = annotation.slice
            name = dotted_name(annotation) if annotation is not None else None
            if name is not None and name.split(".")[-1].endswith("Spec"):
                names.add(arg.arg)
    for node in walk_scope(scope):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            callee = ctx.resolve_call_target(node.value.func)
            if callee is not None and callee.split(".")[-1].endswith("Spec"):
                names.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
    return names


@rule("frozen-spec-mutation", "attribute assignment on a *Spec object")
def check_frozen_spec_mutation(ctx: ModuleContext) -> Iterator[Finding]:
    """Specs are frozen value objects; mutation breaks their identity.

    A ``ScenarioSpec`` (or any ``*Spec`` section) is hashed into cache
    keys and compared across processes — mutating one after
    construction desynchronises the object from its content address.
    Assignment to a spec attribute, and ``object.__setattr__`` outside
    ``__init__``/``__post_init__``/``with_overrides``, are flagged;
    derive variants with ``dataclasses.replace`` or ``with_overrides``.
    """
    for scope in function_scopes(ctx.tree):
        in_init = isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef)
        ) and scope.name in _SPEC_INIT_METHODS
        if in_init:
            continue
        spec_names = _spec_typed_names(ctx, scope)
        spec_names.add("spec")  # the conventional name is always a spec
        for node in walk_scope(scope):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                ):
                    continue
                base = target.value.id
                if base in spec_names or base.endswith("_spec"):
                    yield Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="frozen-spec-mutation",
                        message=(
                            f"attribute assignment on spec object "
                            f"{base!r}; use dataclasses.replace / "
                            f"with_overrides to derive a new spec"
                        ),
                    )
            if isinstance(node, ast.Call):
                if ctx.resolve_call_target(node.func) == "object.__setattr__":
                    yield Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="frozen-spec-mutation",
                        message=(
                            "object.__setattr__ outside __init__/"
                            "__post_init__/with_overrides defeats frozen "
                            "dataclass protection"
                        ),
                    )


# ----------------------------------------------------------------------
# 6. telemetry-purity
# ----------------------------------------------------------------------
def _guarded(
    ctx: ModuleContext, node: ast.AST, receiver: str
) -> bool:
    """Whether ``node`` sits under an ``<receiver> is not None`` guard."""

    def test_checks(test: ast.AST, want_not_none: bool) -> bool:
        for sub in ast.walk(test):
            if not isinstance(sub, ast.Compare) or len(sub.ops) != 1:
                continue
            op = sub.ops[0]
            comparand = sub.comparators[0]
            if not (
                isinstance(comparand, ast.Constant)
                and comparand.value is None
            ):
                continue
            if dotted_name(sub.left) != receiver:
                continue
            if want_not_none and isinstance(op, ast.IsNot):
                return True
            if not want_not_none and isinstance(op, ast.Is):
                return True
        return False

    child = node
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.If):
            in_body = any(
                child is stmt or _contains(stmt, child)
                for stmt in ancestor.body
            )
            if test_checks(ancestor.test, want_not_none=in_body):
                return True
        elif isinstance(ancestor, ast.IfExp):
            in_body = ancestor.body is child or _contains(
                ancestor.body, child
            )
            if test_checks(ancestor.test, want_not_none=in_body):
                return True
        child = ancestor
    return False


def _contains(tree: ast.AST, node: ast.AST) -> bool:
    return any(sub is node for sub in ast.walk(tree))


@rule(
    "telemetry-purity",
    "telemetry must observe, never mutate; emission must be guarded",
)
def check_telemetry_purity(ctx: ModuleContext) -> Iterator[Finding]:
    """Telemetry is observation-only, and free when off.

    Inside ``src/repro/telemetry/`` (``LintConfig.telemetry_scope``):
    no imports from the rest of the package (instrumentation reaches
    telemetry through duck-typed slots, never the reverse) and no calls
    to mutating engine/registry APIs
    (``LintConfig.mutating_methods``) — a trace that replicates or
    cancels anything is a simulation bug wearing a telemetry hat.

    Outside it: every hot-path emission on a ``.trace`` / ``.profile``
    slot (``.record`` / ``.note_recompute`` / ``heap_*``) must sit
    under an ``is not None`` guard on that slot (or a local alias of
    it), preserving the telemetry-off fast path — one pointer check,
    zero allocations.
    """
    in_telemetry = path_matches(ctx.path, ctx.config.telemetry_scope)
    if in_telemetry:
        yield from _check_telemetry_package(ctx)
        return
    emission = set(ctx.config.emission_methods)
    optional_slot_classes = _optional_slot_classes(ctx)
    for scope in function_scopes(ctx.tree):
        # local aliases of telemetry slots: prof = self.profile
        aliases: Dict[str, str] = {}
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                source = dotted_name(node.value)
                if (
                    isinstance(target, ast.Name)
                    and source is not None
                    and source.split(".")[-1] in ("trace", "profile")
                ):
                    aliases[target.id] = source
        for node in walk_scope(scope):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in emission
            ):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None:
                continue
            is_slot = receiver.split(".")[-1] in ("trace", "profile")
            is_alias = receiver in aliases
            if not (is_slot or is_alias):
                continue
            if receiver.startswith("self.") or aliases.get(
                receiver, ""
            ).startswith("self."):
                # A self-owned slot is only *optional* telemetry when
                # the class can hold None there (e.g. ``self.trace =
                # None`` in __init__).  Always-constructed attributes
                # that happen to be called "trace" (the executor's
                # PowerTrace) are core accounting, not telemetry.
                owner = ctx.enclosing_class(node)
                if owner is None or owner.name not in optional_slot_classes:
                    continue
            if not _guarded(ctx, node, receiver):
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="telemetry-purity",
                    message=(
                        f"telemetry emission {receiver}."
                        f"{node.func.attr}(...) without an "
                        f"'{receiver} is not None' guard; the off path "
                        f"must stay one pointer check"
                    ),
                )


def _optional_slot_classes(ctx: ModuleContext) -> Set[str]:
    """Classes that ever assign ``self.trace``/``self.profile`` = None.

    Only these hold *optional* telemetry slots; in them, every emission
    must be guarded.  A class that always constructs its ``trace``
    attribute is using the name for something mandatory.
    """
    out: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in ("trace", "profile")
                    and isinstance(sub.value, ast.Constant)
                    and sub.value.value is None
                ):
                    out.add(node.name)
    return out


def _check_telemetry_package(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            outside = (node.level >= 2) or (
                node.level == 0
                and module.split(".")[0] == "repro"
                and not module.startswith("repro.telemetry")
                and module != "repro.util"
            )
            if outside:
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="telemetry-purity",
                    message=(
                        "telemetry imports from the rest of the package; "
                        "instrumentation must reach telemetry through "
                        "duck-typed slots, never the reverse"
                    ),
                )
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in ctx.config.mutating_methods:
                receiver = dotted_name(node.func.value) or "<expr>"
                if receiver.split(".")[0] in ("self", "cls"):
                    continue  # telemetry's own state is its own business
                yield Finding(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="telemetry-purity",
                    message=(
                        f"telemetry calls mutating API "
                        f"{receiver}.{node.func.attr}(...); observation "
                        f"code may read sim state but never change it"
                    ),
                )


# ----------------------------------------------------------------------
# 7. spec-roundtrip-coverage
# ----------------------------------------------------------------------
def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else (
            decorator
        )
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return True
    return False


def _string_constants(tree: ast.AST) -> Set[str]:
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def _referenced_names(tree: ast.AST) -> Set[str]:
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }


def _module_dict_keys(ctx: ModuleContext) -> Dict[str, Set[str]]:
    """Module-level ``NAME = {...}`` dict literals -> their string keys."""
    out: Dict[str, Set[str]] = {}
    for node in ctx.tree.body:
        target: Optional[str] = None
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            if isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            target = node.target.id
            value = node.value
        if target is None or not isinstance(value, ast.Dict):
            continue
        keys = {
            key.value
            for key in value.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        out[target] = keys
    return out


@rule(
    "spec-roundtrip-coverage",
    "every spec field must appear in to_dict AND from_dict",
)
def check_spec_roundtrip(ctx: ModuleContext) -> Iterator[Finding]:
    """A spec field that skips serialisation silently corrupts caching.

    For every dataclass that hand-writes ``to_dict``/``from_dict``
    (``ScenarioSpec``, ``SweepSpec``), each field name must appear as a
    string constant in *both* method bodies — directly, or as a key of
    a module-level registry dict the bodies reference (``_SECTIONS``).
    A field added without serialisation support round-trips to its
    default: two different scenarios then share one cache key, and the
    sweep cache silently serves the wrong outcome.
    """
    registries = _module_dict_keys(ctx)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_dataclass_decorated(node):
            continue
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
            and stmt.name in ("to_dict", "from_dict")
        }
        if len(methods) < 2:
            continue
        field_names = []
        for stmt in node.body:
            if not (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ):
                continue
            annotation = stmt.annotation
            if isinstance(annotation, ast.Subscript):  # ClassVar[...]
                annotation = annotation.value
            name = dotted_name(annotation)
            if name is not None and name.split(".")[-1] == "ClassVar":
                continue
            field_names.append(stmt.target.id)
        for method_name, method in methods.items():
            covered = _string_constants(method)
            for referenced in _referenced_names(method):
                covered |= registries.get(referenced, set())
            for field_name in field_names:
                if field_name not in covered:
                    yield Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="spec-roundtrip-coverage",
                        message=(
                            f"{node.name}.{field_name} does not appear in "
                            f"{method_name}(); the field will silently "
                            f"skip (de)serialisation and corrupt cache "
                            f"identity"
                        ),
                    )


# ----------------------------------------------------------------------
# 8. naked-dict-order-export
# ----------------------------------------------------------------------
@rule(
    "naked-dict-order-export",
    "json.dump(s) without sort_keys=True on an export path",
)
def check_naked_export(ctx: ModuleContext) -> Iterator[Finding]:
    """Export bytes must not depend on dict construction order.

    ``json.dump``/``json.dumps`` without ``sort_keys=True`` serialises
    in insertion order — two structurally equal payloads built along
    different code paths produce different bytes, which is exactly how
    cache documents, JSONL traces, and aggregate files drift.  Use
    ``canonical_json`` (hash surfaces) or pass ``sort_keys=True``.
    Human-facing presentation output (``LintConfig.export_allow``) is
    exempt: its key order is deliberate and every consumer parses.
    """
    if path_matches(ctx.path, ctx.config.export_allow):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = ctx.resolve_call_target(node.func)
        if target not in ("json.dump", "json.dumps"):
            continue
        sorted_keys = any(
            kw.arg == "sort_keys"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
        if not sorted_keys:
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule="naked-dict-order-export",
                message=(
                    f"{target}(...) without sort_keys=True lets dict "
                    f"build order reach the exported bytes; use "
                    f"canonical_json or sort_keys=True"
                ),
            )
