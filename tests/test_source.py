"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "matchrobust").glob("*.py"))


def _traced_targets() -> dict:
    """The ``TARGETS`` literal of the benchmark's span tracer, read without
    importing the tracer."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/tracer.py defines no TARGETS")


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips assert statements, so runtime invariants must
    # raise explicit errors instead.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _import_time_modules(tree: ast.Module) -> list[tuple[str, int]]:
    """Modules imported, with line numbers, when the module itself is
    imported: every import outside a function body."""
    found, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_networkx_import(path):
    # networkx costs most of the CLI's start-up; planarity imports it inside
    # the one branch that needs it, so no other command pays for it.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [
        line
        for name, line in _import_time_modules(tree)
        if name == "networkx" or name.startswith("networkx.")
    ]
    assert lines == [], f"{path.name}: module-level networkx imports at lines {lines}"


@pytest.mark.parametrize(
    "module, target",
    [(m, t) for m, targets in _traced_targets().items() for t in targets],
    ids=lambda v: v,
)
def test_traced_targets_resolve(module, target):
    # The tracer wraps a module function, or a method found in its class's
    # own __dict__; an entry that no longer resolves breaks the traced run.
    mod = importlib.import_module(f"matchrobust.{module}")
    owner, _, method = target.rpartition(".")
    if owner:
        assert method in vars(getattr(mod, owner))
    else:
        assert callable(getattr(mod, target))
