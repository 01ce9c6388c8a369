"""Planarity, genus lower bounds, and the nine-agent nonplanar profile.

Planarity is decided on a MetricSpace's unweighted simple support graph
(weights, self-loops and repeated edges do not affect genus), one connected
component at a time, since a graph is planar exactly when each component
is. Each component goes through theorem-backed rules first:

1. At most 8 edges: planar (K_{3,3} has 9 edges and K_5 has 10, so by
   Kuratowski's theorem a smaller graph has neither as a subdivision).
2. More than 3V - 6 edges, or a bipartite component with more than 2V - 4
   edges: nonplanar (Euler's formula; a bipartite graph has no triangles).
3. Delete vertices of degree 0 or 1 and smooth out vertices of degree 2
   until none is left, dropping an edge the smoothing would repeat; this
   keeps planarity either way. Then rules 1 and 2 again.

Only what the rules leave goes to networkx's left-right planarity test, and
networkx is imported then, not with this module.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .markets import rank_scatter
from .metric import MetricSpace, Placement, component_labels
from .ordinal import OrdinalProfile
from .seeding import rng_for

# Constrained cells of the nine-agent profile whose every geometric
# realization contains a K_{3,3} minor: tops, second choices, and the third
# choices of the last three agents.
_NINE_TOPS = tuple(range(9))
_NINE_SECONDS = (3, 4, 5, 1, 2, 0, 3, 4, 5)
_NINE_THIRDS = {6: 2, 7: 0, 8: 1}


def _components(space: MetricSpace):
    """``(V, edges, bipartite)`` of each component of the space's support
    graph that has an edge; the edges keep the space's vertex ids."""
    edges = space.support_edges()
    label, parity = component_labels(space.n_vertices, edges)
    sizes = Counter(label)
    comp_edges: dict[int, list[tuple[int, int]]] = {}
    for a, b in edges:
        comp_edges.setdefault(label[a], []).append((a, b))
    for root, es in comp_edges.items():
        yield sizes[root], es, all(parity[a] != parity[b] for a, b in es)


def _by_edge_count(v_count: int, e_count: int, bipartite: bool) -> bool | None:
    """Rules 1 and 2 on a connected simple graph; None when neither decides."""
    if e_count <= 8:
        return True
    if e_count > 3 * v_count - 6 or (bipartite and e_count > 2 * v_count - 4):
        return False
    return None


def _reduce(edges: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    """Rule 3: the simple graph left once degree-0 and degree-1 vertices are
    deleted and degree-2 vertices smoothed out, relabelled to 0..V-1.

    Every vertex left has degree at least 3, and a connected graph stays
    connected.
    """
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    stack = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while stack:
        v = stack.pop()
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        del adj[v]
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            u, w = nbrs
            if w not in adj[u]:
                # The new edge u-w keeps both degrees as they were.
                adj[u].add(w)
                adj[w].add(u)
                continue
        stack.extend(nbrs)
    index = {v: i for i, v in enumerate(adj)}
    return len(index), [(index[a], index[b]) for a in adj for b in adj[a] if a < b]


def _component_planar(v_count: int, edges: list[tuple[int, int]], bipartite: bool) -> bool:
    """Planarity of one connected component of a simple graph."""
    verdict = _by_edge_count(v_count, len(edges), bipartite)
    if verdict is not None:
        return verdict
    v_count, edges = _reduce(edges)
    # Smoothing changes cycle lengths, so the reduced graph has its own parity.
    _, parity = component_labels(v_count, edges)
    verdict = _by_edge_count(v_count, len(edges), all(parity[a] != parity[b] for a, b in edges))
    if verdict is not None:
        return verdict
    import networkx as nx

    return nx.check_planarity(nx.Graph(edges), counterexample=False)[0]


def is_planar(space: MetricSpace) -> bool:
    """Planarity of the space's support graph (genus 0).

    The graph is ``space.support_edges()`` on ``space.n_vertices`` vertices,
    as the constructor validated and simplified it. Each component is
    decided by the edge-count rules of the module docstring, before and
    after reduction, and only what they leave by networkx.
    """
    return all(_component_planar(*comp) for comp in _components(space))


def genus_lower_bound(space: MetricSpace) -> int:
    """Euler-formula lower bound on orientable genus of the space's support
    graph, summed per component.

    Planar components contribute 0. Nonplanar components contribute the
    best of: 1 (nonplanarity itself), ceil((E - 3V + 6) / 6), and for
    bipartite components the sharper ceil((E - 2V + 4) / 4) coming from the
    absence of triangles.
    """
    total = 0
    for v_count, es, bipartite in _components(space):
        if _component_planar(v_count, es, bipartite):
            continue
        e_count = len(es)
        bound = max(1, math.ceil((e_count - 3 * v_count + 6) / 6))
        if bipartite:
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


def _agent_matches_cells(a: int, row) -> bool:
    """True iff ranking ``row`` agrees with agent ``a``'s constrained cells."""
    if row[0] != _NINE_TOPS[a] or row[1] != _NINE_SECONDS[a]:
        return False
    return a not in _NINE_THIRDS or row[2] == _NINE_THIRDS[a]


@dataclass(frozen=True)
class RepresentationCandidate:
    space: MetricSpace
    placement: Placement


def _biclique_edges(profile: OrdinalProfile) -> list[tuple[int, int, float]]:
    """Every agent-alternative edge of the bipartite realization of
    ``profile``, weighted ``2 ** position`` by the agent's rank of the
    alternative. Shortest paths through the whole biclique can tie."""
    n = profile.n
    weights = rank_scatter(profile.ranks, 2.0 ** np.arange(n)).tolist()
    return [(a, n + x, weights[a][x]) for a in range(n) for x in range(n)]


def _candidate(seed: int, t: int, biclique: MetricSpace) -> MetricSpace:
    """Candidate ``t`` of the refutation search: a random subset of 17 to 48
    (the planar budget 3V - 6) of the edges of ``biclique``, as its
    sub-space."""
    rng = rng_for(seed, t)
    keep = int(rng.integers(17, 49))
    idx = rng.choice(len(biclique.edges), size=keep, replace=False)
    return biclique._edge_subspace(idx.tolist())


def _strict_ranking(d: list[float]) -> list[int] | None:
    """Indices of ``d`` from the smallest value up, or None when two values
    are equal: the ranking and tie test of a stable argsort, without numpy."""
    if len(set(d)) < len(d):
        return None
    return sorted(range(len(d)), key=d.__getitem__)


def _realizes_nine_agent_cells(space: MetricSpace, placement: Placement) -> bool:
    """True iff the placement's induced rankings are strict and match every
    constrained nine-agent cell, checked agent by agent.

    Each agent reads one ``dist_row`` and fails, ending the check, when an
    alternative is unreachable, when its row has a tie (the strict
    extraction's rule), or when its ranking misses the agent's cells. The
    verdict is the conjunction over agents, so it equals extracting the
    whole induced profile strictly and then matching the cells.
    """
    for a, v in enumerate(placement.alpha):
        row = space.dist_row(v)
        d = [row[w] for w in placement.beta]
        if math.inf in d:
            return False
        order = _strict_ranking(d)
        if order is None or not _agent_matches_cells(a, order):
            return False
    return True


def search_planar_representation(
    candidates: int = 10_000, seed: int = 0
) -> RepresentationCandidate | None:
    """Randomized refutation search for a planar realization of the
    nine-agent profile.

    Each candidate (see :func:`_candidate`) is a sparsified bipartite
    realization: a random edge subset within the planar edge budget, each
    edge weighted by the agent's geometric rank utility of its alternative,
    with the agents on vertices 0-8 and the alternatives on 9-17. The
    biclique is validated once, by the ``MetricSpace`` constructor, and
    every candidate is a sub-space of it whose edges are not checked again.
    A candidate refutes the nonplanarity claim only if its induced rankings
    match every constrained cell AND its support is planar. Agents are
    checked in order and a candidate is rejected at the first that fails
    (:func:`_realizes_nine_agent_cells`); the planarity test comes only
    after every agent passed. Returns the first refutation found, with its
    space and placement (``utilities_from_space(space, placement, 9)`` gives
    its utilities), or None (the expected outcome, since no planar
    realization exists).

    In practice the search exercises the cell check, not planarity: of the
    10 000 candidates at seed 910 none passes every agent, so
    :func:`is_planar` is never reached. 9162 fail at agent 0, 766 at agent
    1, 65 at agent 2, 5 at agent 3 and 2 at agent 4; over all agents, 4255
    fail on a tie, 3646 on a missed cell and 2099 on an unreachable
    alternative. A negative ``candidates`` raises ValueError.
    """
    if candidates < 0:
        raise ValueError("candidates >= 0 required")
    biclique = MetricSpace(18, _biclique_edges(nonplanar_profile(9)))
    placement = biclique.place(range(9), range(9, 18))
    for t in range(candidates):
        space = _candidate(seed, t, biclique)
        if _realizes_nine_agent_cells(space, placement) and is_planar(space):
            return RepresentationCandidate(space, placement)
    return None
