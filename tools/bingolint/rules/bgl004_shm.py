"""BGL004 — SharedMemory creation needs finally-protected cleanup.

PR 7 and PR 9 both fixed ``/dev/shm`` leaks where a crash path skipped
``close()``/``unlink()`` because the cleanup sat on the happy path
instead of a ``finally``.  This rule flags any
``SharedMemory(create=True, ...)`` in a function unless

* the function contains a ``try``/``finally`` whose ``finally`` body
  calls ``.close()`` or ``.unlink()`` (the cleanup survives any crash
  path), or
* the created block escapes through a ``return`` (a factory like
  ``_publish_blob`` transfers ownership to its caller, which is then
  the one this rule holds to the finally discipline).
"""

from __future__ import annotations

import ast

from bingolint.astutil import call_name, functions_in, get_keyword
from bingolint.finding import Finding
from bingolint.registry import Rule, register


def _is_creation(call: ast.Call) -> bool:
    dotted = call_name(call)
    if dotted is None or dotted.split(".")[-1] != "SharedMemory":
        return False
    create = get_keyword(call, "create")
    if create is not None:
        return isinstance(create, ast.Constant) and bool(create.value)
    # Positional form SharedMemory(name, create, ...).
    if len(call.args) >= 2:
        arg = call.args[1]
        return isinstance(arg, ast.Constant) and bool(arg.value)
    return False


def _finally_has_cleanup(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Try) and node.finalbody:
            for stmt in node.finalbody:
                for inner in ast.walk(stmt):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr in ("close", "unlink")
                    ):
                        return True
    return False


def _bound_names(func: ast.FunctionDef, creations: list[ast.Call]) -> set[str]:
    """Variable names the creation calls are assigned to."""
    names: set[str] = set()
    creation_set = set(map(id, creations))
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and id(node.value) in creation_set:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _returns_any(func: ast.FunctionDef, names: set[str]) -> bool:
    if not names:
        return False
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            for inner in ast.walk(node.value):
                if isinstance(inner, ast.Name) and inner.id in names:
                    return True
    return False


@register
class SharedMemoryLifetimeRule(Rule):
    rule_id = "BGL004"
    name = "shm-without-finally-cleanup"
    rationale = (
        "SharedMemory(create=True) must be released in a finally (or "
        "returned to a caller that does) — PR 7/9 /dev/shm leak class"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, tree: ast.Module, source: str, path: str) -> list[Finding]:
        lines = source.splitlines()
        findings: list[Finding] = []
        in_function: set[int] = set()
        for func in functions_in(tree):
            creations = [
                node
                for node in ast.walk(func)
                if isinstance(node, ast.Call) and _is_creation(node)
            ]
            in_function.update(map(id, creations))
            if not creations:
                continue
            if _finally_has_cleanup(func):
                continue
            if _returns_any(func, _bound_names(func, creations)):
                continue
            for creation in creations:
                findings.append(
                    self.finding(
                        path,
                        creation,
                        "shared-memory segment created without a matching "
                        "close()/unlink() in a finally block (leaks "
                        "/dev/shm on any crash path); wrap the lifetime in "
                        "try/finally or return the block to the owner",
                        lines,
                    )
                )
        # Module-level creations have no function-scoped finally at all.
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _is_creation(node)
                and id(node) not in in_function
            ):
                findings.append(
                    self.finding(
                        path,
                        node,
                        "module-level SharedMemory(create=True) has no "
                        "crash-safe cleanup path; create it inside a "
                        "function with try/finally",
                        lines,
                    )
                )
        return findings
