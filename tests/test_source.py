"""Checks on the package source itself."""

import ast
import importlib
import subprocess
import sys
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


def _package_namespaces() -> dict:
    """Every imported ``matchrobust`` module by name, ``cli`` included."""
    importlib.import_module("matchrobust.cli")
    return {k: m for k, m in sys.modules.items() if k == "matchrobust" or k.startswith("matchrobust.")}


def test_no_module_holds_a_numpy_array():
    # perfbench/tests checks ``original not in vars(m).values()`` over every
    # matchrobust module; ``in`` falls back to ``==``, which raises on a
    # numpy array of more than one element.
    import numpy as np

    arrays = [
        f"{name}.{key}"
        for name, module in _package_namespaces().items()
        for key, value in vars(module).items()
        if isinstance(value, np.ndarray)
    ]
    assert arrays == [], f"module-level numpy arrays break perfbench/tests: {arrays}"


def test_flagged_extraction_bound_in_three_namespaces():
    # perfbench/tests asserts that at least three matchrobust namespaces
    # hold ``ordinal_from_utility_flagged`` before its tracer rebinds them.
    original = importlib.import_module("matchrobust.ordinal").ordinal_from_utility_flagged
    holders = sorted(
        name
        for name, module in _package_namespaces().items()
        if any(value is original for value in vars(module).values())
    )
    assert {"matchrobust", "matchrobust.markets", "matchrobust.ordinal"} <= set(holders), (
        f"perfbench/tests needs ordinal_from_utility_flagged in at least 3 namespaces: {holders}"
    )


def test_robustness_routes_stay_independent():
    # The ratio formula and the bisection search cross-check each other, so
    # neither may call into the other: they share only the stacked tables
    # and the deferred-acceptance check of a witness.
    tree = ast.parse((ROOT / "src" / "matchrobust" / "robustness.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("is_c_robust", "robustness", "adversarial_witness", "_first_hit", "_consecutive"):
        names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert not names & {"_first_break", "_breakable"}, name
    # Block sizing uses integer ``//``; a true division would be a ratio.
    divisions = [
        node.lineno
        for node in ast.walk(functions["_first_break"])
        if isinstance(getattr(node, "op", None), ast.Div)
    ]
    assert divisions == [], f"_first_break divides at lines {divisions}"


def test_one_deferred_acceptance_check_of_a_break():
    # A witness and a bisection level are both confirmed by the same two
    # proposal chains; robustness.py runs no whole deferred acceptance.
    path = ROOT / "src" / "matchrobust" / "robustness.py"
    tree = ast.parse(path.read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not (imported | _names_and_attributes(tree)) & {"phi", "StablePair", "deferred_acceptance"}
    functions = _functions(path)
    for name in ("_build_witness", "_breakable"):
        assert "_confirm_break" in _names_and_attributes(functions[name]), name


def _functions(path: Path) -> dict:
    tree = ast.parse(path.read_text())
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _names_and_attributes(node: ast.AST) -> set:
    nodes = list(ast.walk(node))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def test_one_proposal_chain():
    # Deferred acceptance runs as one McVitie-Wilson chain in src/, shared by
    # ``deferred_acceptance`` and the Monte Carlo block path; the test
    # oracle ``reference_deferred_acceptance`` stays its own route.
    chains = [
        (path.name, node.name)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and "next_choice" in _names_and_attributes(node)
    ]
    assert chains == [("ordinal.py", "_proposal_chain")]
    ordinal = _functions(ROOT / "src" / "matchrobust" / "ordinal.py")
    robustness = _functions(ROOT / "src" / "matchrobust" / "robustness.py")
    assert "_proposal_chain" in _names_and_attributes(ordinal["deferred_acceptance"])
    assert "_proposal_chain" in _names_and_attributes(robustness["preservation_probability"])
    for name in ("preservation_probability", "rank_slot_factor_stats", "_trial_blocks"):
        assert "sample" not in _names_and_attributes(robustness[name]), name
    reference = _functions(ROOT / "tests" / "conftest.py")["reference_deferred_acceptance"]
    used = _names_and_attributes(reference)
    assert not used & {"deferred_acceptance", "_proposal_chain", "phi", "ordinal"}


def test_stable_enumeration_stays_independent():
    # ``enumerate_stable`` is the route from the definition that deferred
    # acceptance is checked against, so neither it, its nested search, nor
    # any ordinal.py function or method it calls may reach deferred
    # acceptance. It must not call itself by name either: the benchmark's
    # tracer rebinds that name and would record one span per level.
    functions = {}
    for node in ast.parse((ROOT / "src" / "matchrobust" / "ordinal.py").read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        functions.update((f.name, f) for f in members if isinstance(f, ast.FunctionDef))
    assert "enumerate_stable" not in _names_and_attributes(functions["enumerate_stable"])
    used, todo = set(), ["enumerate_stable"]
    while todo:
        name = todo.pop()
        names = _names_and_attributes(functions[name])
        todo += [n for n in names & functions.keys() if n not in used and n != name]
        used |= names | {name}
    assert "position_table" in used
    assert not used & {"deferred_acceptance", "phi", "_proposal_chain"}


def test_mutation_probe_lists_its_sites(capsys):
    # tests/mutants.py runs by hand; listing its sites, without running a
    # mutant, keeps it from rotting. Every site of every module holds the
    # operator it names, ordinal.py's mutants still parse, and a sample is
    # repeatable.
    import mutants

    for path in SOURCES:
        source = path.read_text()
        for site in mutants.sites(source):
            mutated = mutants.mutate(source, site)
            if path.name == "ordinal.py":
                ast.parse(mutated)
    ordinal = str(ROOT / "src" / "matchrobust" / "ordinal.py")
    pruning = [s for s in mutants.sites(Path(ordinal).read_text()) if s.function == "enumerate_stable.extend"]
    assert [s.old for s in pruning].count("<") == 4
    listings = []
    for _ in range(2):
        assert mutants.main([ordinal, "--list", "--sample", "10"]) == 0
        listings.append(capsys.readouterr().out)
    assert listings[0] == listings[1]
    assert len(listings[0].splitlines()) == 10


def test_distance_routes_stay_independent():
    # The all-sources array kernel and the per-source heap Dijkstra check
    # each other byte for byte, so the kernel may not reach the heap route.
    tree = ast.parse((ROOT / "src" / "matchrobust" / "metric.py").read_text())
    (kernel,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_all_sources_dijkstra"
    )
    nodes = list(ast.walk(kernel))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert not names & {"_dijkstra", "dist_row", "MetricSpace", "heapq"}
    assert not attributes & {"_dijkstra", "dist_row", "dist", "_adj"}


def test_heap_search_keeps_no_predecessors():
    # Distances are all the package reads from a search; no path is rebuilt.
    metric = _names_and_attributes(ast.parse((ROOT / "src" / "matchrobust" / "metric.py").read_text()))
    assert "pred" not in metric


def test_code_line_count_runs():
    # tests/code_lines.py runs by hand and in CI; one run here keeps it from
    # rotting. It lists every source file and a total that is their sum.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "code_lines.py")],
        capture_output=True, text=True, check=True,
    )
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [name for _count, name in rows] == [p.name for p in SOURCES] + ["total"]
    counts = [int(count) for count, _name in rows]
    assert 0 < counts[-1] == sum(counts[:-1])


def test_banach_reference_stays_independent():
    # ``reference_banach_climb`` recomputes every distance on each
    # evaluation and checks the library's distance-table climb, so neither
    # it nor a conftest helper it calls may reach a function of embedding.py
    # or the table's cell constants.
    conftest = _functions(ROOT / "tests" / "conftest.py")
    embedding = _functions(ROOT / "src" / "matchrobust" / "embedding.py")
    used, todo = set(), ["reference_banach_climb"]
    while todo:
        name = todo.pop()
        names = _names_and_attributes(conftest[name])
        todo += [n for n in names & conftest.keys() if n not in used and n != name]
        used |= names | {name}
    assert "_reference_cyclic_value" in used
    assert not used & (embedding.keys() | {"_CYCLIC_CELLS", "_MOVED_CELLS"})


def test_nine_agent_cells_reference_stays_independent():
    # ``reference_matches_nine_agent_cells`` checks the library's per-agent
    # cell test, so it writes the cells out itself and reaches no function
    # or cell constant of planar.py.
    reference = _functions(ROOT / "tests" / "conftest.py")["reference_matches_nine_agent_cells"]
    planar = _functions(ROOT / "src" / "matchrobust" / "planar.py")
    used = _names_and_attributes(reference)
    assert "NINE_AGENT_PREFIXES" in used
    assert not used & (planar.keys() | {"_NINE_TOPS", "_NINE_SECONDS", "_NINE_THIRDS"})


def test_bourgain_reference_stays_independent():
    # ``reference_bourgain_embed`` takes one subset's minima at a time and
    # checks the library's batched scales, so neither it nor a conftest
    # helper it calls may reach a function or constant of embedding.py.
    conftest = _functions(ROOT / "tests" / "conftest.py")
    embedding = _functions(ROOT / "src" / "matchrobust" / "embedding.py")
    used, todo = set(), ["reference_bourgain_embed"]
    while todo:
        name = todo.pop()
        names = _names_and_attributes(conftest[name])
        todo += [n for n in names & conftest.keys() if n not in used and n != name]
        used |= names | {name}
    assert "distance_matrix" in used
    assert not used & (embedding.keys() | {"embedding", "_SUBSET_BLOCK_ELEMENTS"})


def test_json_writer_stays_independent():
    # ``cli._json_text`` writes every JSON output by hand and
    # ``reference_json_text`` checks it byte for byte through the standard
    # encoder, so cli.py may not call that encoder and the reference may not
    # reach the writer.
    cli = _names_and_attributes(ast.parse((ROOT / "src" / "matchrobust" / "cli.py").read_text()))
    assert not cli & {"dumps", "dump", "JSONEncoder"}
    conftest = _functions(ROOT / "tests" / "conftest.py")
    used = _names_and_attributes(conftest["reference_json_text"])
    used |= _names_and_attributes(conftest["_reference_json_value"])
    assert "dumps" in used
    assert not used & {"cli", "_json_text", "_json_lines", "_encode_str", "encode_basestring_ascii"}
