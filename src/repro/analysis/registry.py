"""The lint rule registry.

Rules self-register via the :func:`rule` decorator; the CLI, the
suppression parser, and the docs all read the same registry, so a new
rule file only has to be imported to exist everywhere (``rules.py``
imports are the single wiring point).  Rule names are the stable public
identifiers used by ``--rule`` selection and ``# repro-lint:
disable=<name>`` comments — kebab-case, never renamed once shipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from ..util import did_you_mean
from .findings import Finding

#: A rule body: (module context) -> findings.
RuleFn = Callable[["ModuleContext"], Iterator[Finding]]  # noqa: F821


class UnknownRuleError(ValueError):
    """An unknown rule name reached ``--rule`` or a suppression comment.

    Carries a ready-to-print message with a difflib did-you-mean
    suggestion; the CLI reports it and exits 2 (usage error).
    """


@dataclass(frozen=True)
class Rule:
    """One registered rule: name, one-line summary, full rationale."""

    name: str
    summary: str
    rationale: str
    fn: RuleFn


_RULES: Dict[str, Rule] = {}


def rule(name: str, summary: str) -> Callable[[RuleFn], RuleFn]:
    """Register ``fn`` as the body of rule ``name``.

    The decorated function's docstring becomes the rule's rationale in
    ``repro lint --list`` and the README catalogue.
    """

    def decorate(fn: RuleFn) -> RuleFn:
        if name in _RULES:
            raise ValueError(f"rule {name!r} registered twice")
        _RULES[name] = Rule(
            name=name,
            summary=summary,
            rationale=(fn.__doc__ or "").strip(),
            fn=fn,
        )
        return fn

    return decorate


def rule_names() -> List[str]:
    """All registered rule names, sorted (the stable public order)."""
    _ensure_loaded()
    return sorted(_RULES)


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return [_RULES[name] for name in sorted(_RULES)]


def get_rule(name: str) -> Rule:
    _ensure_loaded()
    try:
        return _RULES[name]
    except KeyError:
        raise UnknownRuleError(
            f"unknown rule {name!r}{did_you_mean(name, sorted(_RULES))}; "
            f"known rules: {', '.join(sorted(_RULES))}"
        ) from None


def resolve_rules(names: Tuple[str, ...]) -> List[Rule]:
    """``--rule`` selection: the named rules, or all when empty."""
    if not names:
        return all_rules()
    return [get_rule(name) for name in names]


def _ensure_loaded() -> None:
    # Import the rule definitions exactly once, on first registry read;
    # the import populates _RULES via the decorator.
    from . import rules  # noqa: F401


__all__ = [
    "Rule",
    "UnknownRuleError",
    "rule",
    "rule_names",
    "all_rules",
    "get_rule",
    "resolve_rules",
]
