"""Shared AST plumbing for the lint rules.

One parse per module, one import-resolution pass, and the handful of
tree queries several rules need (dotted-name rendering, parent links,
enclosing-function lookup, local set-typed-name inference).  Rules stay
small because everything generic lives here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from .findings import LintConfig


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None.

    ``self.trace`` renders as ``"self.trace"``; call results and
    subscripts in the chain yield None (not a static name).
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Yield ``scope``'s nodes without descending into nested functions.

    Class bodies *are* descended into (their statements run in the
    enclosing scope at definition time); function/lambda bodies are not
    — each function is analysed as its own scope.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def function_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """The module scope plus every (nested) function scope."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@dataclass
class ModuleContext:
    """Everything a rule may ask about one parsed module."""

    path: str
    source: str
    tree: ast.Module
    config: LintConfig
    #: local alias -> canonical dotted origin, from import statements:
    #: ``import numpy as np`` -> {"np": "numpy"}; ``from time import
    #: perf_counter as pc`` -> {"pc": "time.perf_counter"}.
    imports: Dict[str, str] = field(default_factory=dict)
    #: child node -> parent node, for upward walks (guard detection).
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    lines: List[str] = field(default_factory=list)

    @classmethod
    def parse(
        cls, path: str, source: str, config: LintConfig
    ) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, source=source, tree=tree, config=config)
        ctx.lines = source.splitlines()
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                ctx.parents[child] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    origin = alias.name if alias.asname else local
                    ctx.imports[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import: record the tail only
                    module = node.module
                else:
                    module = node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    ctx.imports[local] = f"{module}.{alias.name}"
        return ctx

    # -- name resolution -----------------------------------------------
    def resolve_call_target(self, func: ast.AST) -> Optional[str]:
        """The canonical dotted name a call resolves to, import-aware.

        ``pc()`` after ``from time import perf_counter as pc`` resolves
        to ``"time.perf_counter"``; ``np.random.rand`` after ``import
        numpy as np`` resolves to ``"numpy.random.rand"``.
        """
        name = dotted_name(func)
        if name is None:
            return None
        head, _, tail = name.partition(".")
        origin = self.imports.get(head)
        if origin is None:
            return name
        return f"{origin}.{tail}" if tail else origin

    # -- structural queries ---------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None


# ----------------------------------------------------------------------
# set-typed expression inference (unordered-set-iteration)
# ----------------------------------------------------------------------
_SET_CALLS = ("set", "frozenset")
_SET_ANNOTATIONS = ("set", "frozenset", "Set", "FrozenSet", "MutableSet")


def _annotation_is_set(annotation: ast.AST) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):  # Set[str], set[int]
        target = target.value
    name = dotted_name(target)
    if name is None:
        return False
    return name.split(".")[-1] in _SET_ANNOTATIONS


def set_typed_locals(scope: ast.AST) -> Set[str]:
    """Names bound to set-typed values inside one function/module scope.

    Deliberately shallow (no dataflow): a name counts when *any*
    binding in the scope is a set literal, ``set(...)``/
    ``frozenset(...)`` call, set comprehension, set-typed annotation,
    or a union/intersection of two such names.  Rebinding to a list
    later does not clear it — the rule prefers a rare false positive
    (silenceable inline) over missing a nondeterministic iteration.
    """
    names: Set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        all_args = (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
        for arg in all_args:
            if arg.annotation is not None and _annotation_is_set(
                arg.annotation
            ):
                names.add(arg.arg)
    grew = True
    while grew:  # fixed point over `a = b | c` style propagation
        grew = False
        for node in walk_scope(scope):
            target_names: List[str] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                target_names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                value = node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    if _annotation_is_set(node.annotation):
                        if node.target.id not in names:
                            names.add(node.target.id)
                            grew = True
                    target_names = [node.target.id]
                    value = node.value
            if value is None or not target_names:
                continue
            if is_set_expr(value, names):
                for name in target_names:
                    if name not in names:
                        names.add(name)
                        grew = True
    return names


def is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether an expression is statically known to be a set."""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in _SET_CALLS:
            return True
        # dict.keys() views are insertion-ordered, so they are *not*
        # flagged here; set.union/.intersection/... of a known set are.
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
            "copy",
        ):
            return is_set_expr(node.func.value, set_names)
        return False
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return is_set_expr(node.left, set_names) or is_set_expr(
            node.right, set_names
        )
    return False
