"""Operator-swap mutation probe for one module of ``src/matchrobust``.

Run by hand from the repository root; pytest does not collect this file::

    python tests/mutants.py src/matchrobust/ordinal.py --sample 25 \\
        tests/test_ordinal.py tests/test_cli.py
    python tests/mutants.py src/matchrobust/ordinal.py --list

Each mutant swaps one operator at one site: ``<``/``<=``, ``>``/``>=``,
``==``/``!=``, ``+``/``-`` (binary only) or ``and``/``or``. ``--sample K``
draws K sites with ``random.Random(SEED)``; without it every site runs. The
mutant is written into a temporary copy of ``src/``, never into the
checkout, and the given test paths (default: ``tests``) run against that
copy in one ``pytest -x`` subprocess at a time. Each run passes
``--hypothesis-seed`` with ``SEED``, so the unmutated run and every mutant
draw the same examples; a mutant that only some draws kill needs an
``@example``. The unmutated copy runs
first, with no time limit, and the probe refuses to go on if it fails. Each
mutant's run is then stopped after ``TIMEOUT_FACTOR`` times the unmutated
run's wall time, or ``TIMEOUT_FLOOR`` seconds if that is longer, so a
mutant that loops forever costs minutes, not the whole probe. Each mutant is
reported as killed, survived or timed out.

A survivor is a test gap unless it is an equivalent mutant: one that no
input can tell from the original. The known equivalent mutants are below;
do not write tests for them.

- ``ordinal.py``, ``_proposal_chain``: ``resp_pos[target][p] <
  resp_pos[target][holder]`` to ``<=``. Distinct proposers hold distinct
  positions, so the two are never equal.
- ``ordinal.py``, ``_first_flip``: ``prime_pos[x] < above`` to ``<=``, for
  the same reason.
- ``ordinal.py``, ``enumerate_stable``: ``<`` to ``<=`` in any of the four
  position comparisons of the pruning test. Distinct agents and distinct
  alternatives hold distinct positions.
- ``metric.py``, ``MetricSpace.__init__``: ``w < best[key]`` to ``<=``. An
  equal weight replaces an equal weight.
- ``metric.py``, ``build_generating_space``: ``>`` to ``>=``. Every realized
  distance equals its edge weight exactly, so the error is 0 and never meets
  the positive bound.
- ``metric.py``, ``_all_sources_dijkstra``: ``low + _RELAX_BLOCK_ELEMENTS`` to
  ``-``. Every block then holds one settled entry, which relaxes to the same
  distances, only more slowly.
- ``embedding.py``, ``bourgain_embed``: ``2 * size <= v_count`` to ``<``. A
  subset of exactly half the vertices then takes its coordinates from the
  rows of the vertices outside it, not from its own rows; both give the same
  bytes.
- ``embedding.py``, ``measure_distortion``: ``originals > 0.0`` to ``>=``.
  Distinct vertices of a ``MetricSpace`` are at positive distance, since
  zero-weight edges are merged.
- ``embedding.py``, ``maximize_euclidean_robustness``: ``evals < iters`` to
  ``<=`` in the ``while`` test. At ``evals == iters`` the inner loop breaks
  before any evaluation, so the extra sweeps only halve a step that is not
  returned.
- ``embedding.py``, ``maximize_euclidean_robustness``: ``step > 1e-12`` to
  ``>=``. The step is 0.5 times a power of two and never equals 1e-12.
- ``markets.py``, ``_json_entry_arrays``: ``n < 1 or type(entries) is not
  list`` to ``and``. An integer n below 1 never matches the entries' shape
  check, since a JSON rank matrix has at least two dimensions per entry, so
  the bulk read returns None and the entry-by-entry reader raises as before.
- ``markets.py``, ``_json_entry_arrays``: ``type(entries) is not list or
  not entries`` to ``and``. Entries that are not a list fail inside the
  ``try`` (iterating them, or indexing a key string), and an empty list
  fails the shape check; either way the bulk read returns None.
- ``planar.py``, ``_by_edge_count``: ``e_count <= 8`` to ``< 8``. Every
  graph of 8 edges is planar, and the rules after it or networkx say so.
- ``planar.py``, ``_reduce``: ``a < b`` to ``<=``. Neighbour sets hold no
  self-loops, so ``a`` never equals ``b``.
- ``communication.py``, ``decay_inverse``: ``y <= d.infimum()`` to ``<``.
  Only the exponential family has a positive infimum, its scale; at y
  equal to it the closed form gives ``math.log(1.0) / exponent``, which is
  0.0, the clamped value.
- ``robustness.py``, ``critical_market``: ``not v < ru[i + 1]`` to ``<=``.
  A spiked utility equal to the next rank's is also caught by ``v in ru``.
- ``jsonvalues.py``, ``json_rows``: ``floats and not -_INF < v < _INF`` to
  ``floats or ...``. Every float entry then goes through ``_require``, which
  checks it again and raises exactly when the fast test would have sent it
  there; an int compares as finite, so integer rows are unchanged.

Three survivors are not equivalent, but no portable test can pin them:

- ``communication.py``, ``admissibility_report``: ``slope > 0.25`` to
  ``>=``. It differs only where numpy's least-squares fit returns exactly
  0.25 with growth at most 1.05. One numpy build does so for ratios 1, r, 1
  at n = 2, 3, 4 and a single r near 4.685, but which r, if any, depends on
  the LAPACK build. (``growth > 1.05`` is a plain quotient and has a test.)
- ``embedding.py``, ``_feasible_start``: ``attempt < 40`` to ``<=``. It
  differs only after 40 jittered templates in a row fail. Failures about
  halve with each attempt: over 3200 restarts (dims 2, 3, 5 and 10, seeds
  0-199, restarts 0-3) no restart needed more than 13 attempts.
- ``embedding.py``, ``maximize_euclidean_robustness``: ``value >
  best_value`` to ``>=``. It differs only when two restarts end at exactly
  the same float value.

No known mutant times out. Every search loop runs within a budget and
raises ``RuntimeError`` past it, so a mutant that would loop forever, such
as ``d + w`` to ``d - w`` or ``nd < dist[v]`` to ``<=`` in
``MetricSpace.dist_row``, fails in seconds.

The probe mutates only ``src/``. One test generator has the same kind of
mutant, should anyone swap its operators by hand:

- ``tests/conftest.py``, ``_random_strict_rows``: ``draws[i + 1]`` to
  ``draws[i - 1]``. A sorted row of three or more distinct draws then always
  fails ``draws[1] < draws[0]``, so no row is ever accepted.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import io
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0  # of the --sample draw and of every run's hypothesis examples
TIMEOUT_FACTOR = 10.0  # a mutant's time limit, in unmutated run times
TIMEOUT_FLOOR = 60.0  # seconds; the least time limit a mutant gets

SWAP = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "and": "or", "or": "and",
}
_OPERATOR = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}


@dataclass(frozen=True, order=True)
class Site:
    """One swappable operator token: 1-based line, 0-based character column."""

    line: int
    col: int
    old: str
    function: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col} {self.function}: {self.old} -> {SWAP[self.old]}"


def _operand_gaps(tree: ast.Module):
    """Yield (left operand, right operand, operator, enclosing function) for
    every compare, binary and boolean operator the probe can swap."""
    stack = [(tree, "<module>")]
    while stack:
        node, where = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                yield left, right, _OPERATOR.get(type(op)), where
        elif isinstance(node, ast.BinOp):
            yield node.left, node.right, _OPERATOR.get(type(node.op)), where
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                yield left, right, _OPERATOR[type(node.op)], where
        stack.extend((child, where) for child in ast.iter_child_nodes(node))


def sites(source: str) -> list[Site]:
    """Every swappable operator of ``source``, in source order."""
    lines = source.splitlines(keepends=True)

    def position(line: int, byte_col: int) -> tuple[int, int]:
        # ast columns count UTF-8 bytes; tokenize columns count characters.
        return line, len(lines[line - 1].encode()[:byte_col].decode())

    tokens = [
        (tok.start, tok.string)
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type in (tokenize.OP, tokenize.NAME)
    ]
    starts = [pos for pos, _ in tokens]
    found = set()
    for left, right, op, where in _operand_gaps(ast.parse(source)):
        if op is None:
            continue
        start = position(left.end_lineno, left.end_col_offset)
        end = position(right.lineno, right.col_offset)
        gap = tokens[bisect.bisect_left(starts, start) : bisect.bisect_left(starts, end)]
        at = next((pos for pos, text in gap if text == op), None)
        if at is not None:  # None inside an f-string, which tokenizes as one string
            found.add(Site(*at, op, where))
    return sorted(found)


def mutate(source: str, site: Site) -> str:
    """``source`` with the operator at ``site`` swapped."""
    lines = source.splitlines(keepends=True)
    text = lines[site.line - 1]
    if text[site.col : site.col + len(site.old)] != site.old:
        raise ValueError(f"no {site.old!r} at {site.line}:{site.col}")
    lines[site.line - 1] = text[: site.col] + SWAP[site.old] + text[site.col + len(site.old) :]
    return "".join(lines)


def _run_tests(src_copy: Path, tests: list[str], timeout: float | None) -> str:
    # No bytecode cache: a mutant of the same size written within the same
    # second as the last one would otherwise load the last one's .pyc.
    env = {**os.environ, "PYTHONPATH": str(src_copy), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        f"--hypothesis-seed={SEED}", *tests,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a file under src/matchrobust")
    parser.add_argument("tests", nargs="*", default=["tests"], help="pytest paths (default: tests)")
    parser.add_argument("--sample", type=int, help="number of sites to draw (default: all)")
    parser.add_argument("--list", action="store_true", help="print the chosen sites and stop")
    args = parser.parse_intermixed_args(argv)

    module = Path(args.module).resolve()
    relative = module.relative_to(ROOT / "src")
    source = module.read_text()
    chosen = sites(source)
    if args.sample is not None and args.sample < len(chosen):
        chosen = sorted(random.Random(SEED).sample(chosen, args.sample))
    if args.list:
        for site in chosen:
            print(site)
        return 0

    counts = {"killed": 0, "survived": 0, "timeout": 0}
    with tempfile.TemporaryDirectory() as scratch:
        src_copy = Path(scratch) / "src"
        shutil.copytree(ROOT / "src", src_copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = src_copy / relative
        started = time.monotonic()
        if _run_tests(src_copy, args.tests, None) != "survived":
            print("the unmutated copy fails; no mutant run", file=sys.stderr)
            return 1
        unmutated = time.monotonic() - started
        timeout = max(TIMEOUT_FLOOR, TIMEOUT_FACTOR * unmutated)
        print(f"unmutated run {unmutated:.1f} s; each mutant stops after {timeout:.0f} s", flush=True)
        for site in chosen:
            target.write_text(mutate(source, site))
            started = time.monotonic()
            outcome = _run_tests(src_copy, args.tests, timeout)
            counts[outcome] += 1
            print(f"{outcome:8} {site}  ({time.monotonic() - started:.1f} s)", flush=True)
    print(", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
