"""BGL010 — the package and the examples never import the test tree.

The oracles the equivalence suites compare against (the per-vertex Bingo
build, the per-edge batch path) live under ``tests/`` so that nothing
served or measured can run them.  ``tests``, ``benchmarks`` and
``perfbench`` are not installed with the package either, so an import of
them from ``src/repro`` or ``examples/`` works only from a checkout.
"""

from __future__ import annotations

import ast

from bingolint.finding import Finding
from bingolint.registry import Rule, register

#: Top-level packages of the test and benchmark trees.
_TEST_TREES = {"tests", "benchmarks", "perfbench"}


@register
class TestTreeImportRule(Rule):
    rule_id = "BGL010"
    name = "src-imports-test-tree"
    rationale = (
        "src/repro and examples/ must not import tests, benchmarks or "
        "perfbench: oracles stay out of the served and measured code"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith(("src/repro/", "examples/"))

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        lines = source.splitlines()
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in _TEST_TREES:
                    findings.append(
                        self.finding(
                            path,
                            node,
                            f"{module!r} is test-tree code; the package and "
                            "the examples must not import it",
                            lines,
                        )
                    )
        return findings
