"""Planarity, genus lower bounds, and the nine-agent nonplanar profile.

Planarity is decided on the unweighted simple support graph (weights,
self-loops and repeated edges do not affect genus). The test delegates to
networkx's left-right planarity algorithm behind a fast edge-count
rejection.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .markets import UtilityProfile, rank_scatter
from .metric import (
    MetricSpace,
    Placement,
    component_labels,
    random_connected_space,
    utilities_from_space,
)
from .ordinal import OrdinalProfile, TieError, TiePolicy, ordinal_from_utility
from .seeding import rng_for

# Constrained cells of the nine-agent profile whose every geometric
# realization contains a K_{3,3} minor: tops, second choices, and the third
# choices of the last three agents.
_NINE_TOPS = tuple(range(9))
_NINE_SECONDS = (3, 4, 5, 1, 2, 0, 3, 4, 5)
_NINE_THIRDS = {6: 2, 7: 0, 8: 1}


def _support(space_or_edges) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of the simple support graph: self-loops and
    repeated edges are dropped, so E counts as it does in a MetricSpace."""
    if isinstance(space_or_edges, MetricSpace):
        return space_or_edges.n_vertices, space_or_edges.support_edges()
    vertex_count, edges = space_or_edges
    return vertex_count, list(dict.fromkeys((min(a, b), max(a, b)) for a, b in edges if a != b))


def is_planar(space_or_edges) -> bool:
    """Planarity of the support graph (genus 0).

    Accepts a :class:`MetricSpace` or a ``(vertex_count, edges)`` pair.
    Dense graphs are rejected by the Euler edge bound E <= 3V - 6 before the
    full test runs.
    """
    vertex_count, edges = _support(space_or_edges)
    if vertex_count >= 3 and len(edges) > 3 * vertex_count - 6:
        return False
    # Isolated vertices do not affect planarity.
    return nx.check_planarity(nx.Graph(edges), counterexample=False)[0]


def genus_lower_bound(space_or_edges) -> int:
    """Euler-formula lower bound on orientable genus, summed per component.

    Planar components contribute 0. Nonplanar components contribute the
    best of: 1 (nonplanarity itself), ceil((E - 3V + 6) / 6), and for
    bipartite components the sharper ceil((E - 2V + 4) / 4) coming from the
    absence of triangles.
    """
    vertex_count, edges = _support(space_or_edges)
    label, parity = component_labels(vertex_count, edges)
    sizes = Counter(label)
    comp_edges: dict[int, list[tuple[int, int]]] = {}
    for a, b in edges:
        comp_edges.setdefault(label[a], []).append((a, b))
    total = 0
    for root, es in comp_edges.items():
        v_count = sizes[root]
        # es keeps global vertex ids; is_planar uses the count only for its
        # Euler edge bound.
        if is_planar((v_count, es)):
            continue
        e_count = len(es)
        bound = max(1, math.ceil((e_count - 3 * v_count + 6) / 6))
        if all(parity[a] != parity[b] for a, b in es):
            bound = max(bound, math.ceil((e_count - 2 * v_count + 4) / 4))
        total += bound
    return total


def nonplanar_profile(n: int) -> OrdinalProfile:
    """The nine-agent profile with no planar geometric realization.

    The first nine agents' top choices are the matching alternatives, their
    second choices follow the fixed pattern (3,4,5,1,2,0,3,4,5) and agents
    6, 7, 8 additionally pin their third choices to (2, 0, 1). All
    unconstrained slots, and all agents beyond the ninth, are filled in
    ascending unused-index order; any completion has the same property, so
    callers must not depend on this one.
    """
    if n < 9:
        raise ValueError("profile requires n >= 9")
    rows = []
    for a in range(n):
        if a < 9:
            prefix = [_NINE_TOPS[a], _NINE_SECONDS[a]]
            if a in _NINE_THIRDS:
                prefix.append(_NINE_THIRDS[a])
        else:
            prefix = []
        used = set(prefix)
        rows.append(tuple(prefix + [x for x in range(n) if x not in used]))
    return OrdinalProfile(n, tuple(rows))


def matches_nine_agent_cells(profile: OrdinalProfile) -> bool:
    """True iff the profile agrees with every constrained nine-agent cell."""
    if profile.n < 9:
        return False
    for a in range(9):
        row = profile.ranks[a]
        if row[0] != _NINE_TOPS[a] or row[1] != _NINE_SECONDS[a]:
            return False
        if a in _NINE_THIRDS and row[2] != _NINE_THIRDS[a]:
            return False
    return True


@dataclass(frozen=True)
class RepresentationCandidate:
    space: MetricSpace
    placement: Placement
    utilities: UtilityProfile


def search_planar_representation(
    candidates: int = 10_000, seed: int = 0
) -> RepresentationCandidate | None:
    """Randomized refutation search for a planar realization of the
    nine-agent profile.

    Two candidate families are drawn: sparsified versions of the bipartite
    realization (random edge subsets below the planar edge budget, with
    weights taken from a geometric rank profile realizing the target
    rankings), and fully random small weighted graphs with random agent and
    alternative placements. A candidate refutes the nonplanarity claim only
    if its induced rankings match every constrained cell AND its support is
    planar. Returns the first refutation found, or None (the expected
    outcome, since no planar realization exists).
    """
    profile = nonplanar_profile(9)
    n = 9
    base_weights = rank_scatter(profile.ranks, 2.0 ** np.arange(n)).tolist()
    full_edges = [(a, n + x, base_weights[a][x]) for a in range(n) for x in range(n)]

    for t in range(candidates):
        rng = rng_for(seed, t)
        if t % 2 == 0:
            keep = int(rng.integers(17, 49))  # at most the planar budget 3V-6=48
            idx = rng.choice(len(full_edges), size=keep, replace=False)
            edges = [full_edges[int(i)] for i in idx]
            space = MetricSpace(2 * n, edges)
            qm = space.quotient_map
            placement = Placement(
                tuple(qm[a] for a in range(n)), tuple(qm[n + x] for x in range(n))
            )
        else:
            v = int(rng.integers(4, 15))
            extra = int(rng.integers(0, 2 * v))
            space = random_connected_space(v, extra, rng, 0.2, 4.0)
            placement = Placement(
                tuple(int(rng.integers(0, space.n_vertices)) for _ in range(n)),
                tuple(int(rng.integers(0, space.n_vertices)) for _ in range(n)),
            )
        try:
            induced = utilities_from_space(space, placement, n)
            extracted = ordinal_from_utility(induced, TiePolicy.STRICT)
        except (ValueError, TieError):
            continue
        if matches_nine_agent_cells(extracted) and is_planar(space):
            return RepresentationCandidate(space, placement, induced)
    return None
