"""The rule registry.

A rule is a class with:

* ``rule_id`` — ``"BGL0XX"``, unique;
* ``name`` — short kebab-case label for reports;
* ``rationale`` — one line tying the rule to the postmortem it encodes;
* ``applies_to(path)`` — whether a (posix, repo-relative) path is in
  the rule's scope;
* ``check(tree, source, path)`` — return a list of
  :class:`~bingolint.finding.Finding` for one parsed module.

Rules register themselves with the :func:`register` decorator at import
time; :mod:`bingolint.rules` imports every rule module.
"""

from __future__ import annotations

import ast

from bingolint.finding import Finding

_REGISTRY: dict[str, type[Rule]] = {}


class Rule:
    """Base class for bingolint rules."""

    rule_id: str = ""
    name: str = ""
    rationale: str = ""

    def applies_to(self, path: str) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def check(
        self, tree: ast.Module, source: str, path: str
    ) -> list[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # helpers shared by the visitors
    # ------------------------------------------------------------------ #
    def finding(
        self, path: str, node: ast.AST, message: str, source_lines: list[str]
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(source_lines):
            snippet = source_lines[line - 1].strip()
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=line,
            col=col,
            message=message,
            snippet=snippet,
        )


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """Every registered rule, keyed by id, import-side-effect complete."""
    import bingolint.rules  # noqa: F401 - registers on import

    return dict(sorted(_REGISTRY.items()))


def get_rule(rule_id: str) -> type[Rule]:
    rules = all_rules()
    if rule_id not in rules:
        raise KeyError(f"unknown rule {rule_id!r}; known: {', '.join(rules)}")
    return rules[rule_id]
