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
