"""Finite metric spaces as weighted graphs, polarity, and generating spaces.

A polarized utility profile is one where a strong preference by one agent
between two alternatives forces every other agent to strongly dislike at
least one of the two. Exactly these profiles can be realized geometrically:
agents and alternatives become vertices of a weighted graph and utility is
the negative shortest-path distance. The realization used here is a
complete bipartite graph whose edge weights are the utility magnitudes;
polarity is precisely what makes every direct edge a shortest path.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .jsonvalues import json_array, json_int, json_number
from .markets import UtilityProfile, _require

_REL_TOL = 1e-9

#: Relative slack of the polarity inequality; it absorbs floating-point
#: error in distance sums.
_POLARITY_TOL = 1e-12

#: Fewest vertices for which ``distance_matrix`` runs the all-sources array
#: kernel. Each of its rounds costs some thirty numpy calls whatever the
#: graph's size, so on small spaces V heap searches are cheaper. The two
#: meet at about 16 vertices on complete graphs, 18 on complete bipartite
#: ones, 26 on stars and on random trees with as many chords as vertices,
#: and 150 on paths (table in BENCH_27.json).
_ARRAY_KERNEL_MIN_VERTICES = 32

#: Candidates per relaxation block of the all-sources kernel (512 KiB of
#: float64 per temporary).
_RELAX_BLOCK_ELEMENTS = 1 << 16


class NotPolarized(ValueError):
    """Raised when a generating-space construction is attempted on a
    non-polarized utility profile; carries the witness quadruple."""

    def __init__(self, violation: tuple[int, int, int, int]):
        a, a_prime, x, x_prime = violation
        super().__init__(
            f"utilities violate polarity at (a={a}, a'={a_prime}, x={x}, x'={x_prime})"
        )
        self.violation = violation


@dataclass(frozen=True)
class PolarityCheck:
    ok: bool
    violation: tuple[int, int, int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_polarized(u: UtilityProfile) -> PolarityCheck:
    """Check the polarity inequality over all (a, a', x, x') quadruples.

    The condition: u(a,x') - u(a,x) <= -(u(a',x) + u(a',x')), with slack
    ``_POLARITY_TOL * max(1, |lhs|, |rhs|)``.

    The right-hand sides form one (a', x, x') array, built once; each agent
    a is then checked as one (n, n, n) block with the same IEEE operations
    as the scalar inequality, so memory stays O(n^3). The first violation
    in lexicographic (a, a', x, x') order is reported, as a scalar scan in
    that order would find it. Overflowing sums and ``-inf`` utilities give
    ``inf`` and NaN intermediates whose comparisons are false, exactly as
    for Python floats; numpy's warnings about them are silenced.
    """
    v = u.values
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = -(v[:, :, None] + v[:, None, :])
        abs_rhs = np.abs(rhs)
        for a in range(u.n):
            lhs = v[a][None, :] - v[a][:, None]
            slack = _POLARITY_TOL * np.maximum(np.maximum(1.0, np.abs(lhs)), abs_rhs)
            broken = lhs > rhs + slack
            if broken.any():
                a_prime, x, x_prime = np.unravel_index(int(broken.argmax()), broken.shape)
                return PolarityCheck(False, (a, int(a_prime), int(x), int(x_prime)))
    return PolarityCheck(True)


def component_labels(
    vertex_count: int, edges: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """Connected components and a 2-colouring of an undirected graph.

    ``label[v]`` is the smallest vertex of v's component. ``parity[v]`` is
    the parity of v's depth in the search tree of that component, so a
    component is bipartite iff every one of its edges joins opposite
    parities. A search that pops more than ``vertex_count`` vertices raises
    RuntimeError.
    """
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * vertex_count
    parity = [0] * vertex_count
    pops = vertex_count  # each vertex is pushed, so popped, once
    for start in range(vertex_count):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            pops -= 1
            if pops < 0:
                raise RuntimeError("component search popped a vertex twice; this is a bug")
            u = stack.pop()
            for v in adj[u]:
                if label[v] < 0:
                    label[v] = start
                    parity[v] = parity[u] ^ 1
                    stack.append(v)
    return label, parity


def _adjacency(
    n_vertices: int, edges: Iterable[tuple[int, int, float]]
) -> list[list[tuple[int, float]]]:
    """Each vertex's ``(neighbour, weight)`` pairs, in the order of ``edges``."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n_vertices)]
    for a, b, w in edges:
        adj[a].append((b, w))
        adj[b].append((a, w))
    return adj


def _all_sources_dijkstra(n_vertices: int, edges: Sequence[tuple[int, int, float]]) -> np.ndarray:
    """Shortest-path distances from every source, by label setting from all
    sources at once over a CSR adjacency of ``edges``.

    ``dist[s, v]`` holds the tentative, then final, distance. ``pending``
    flags the entries improved and not yet relaxed, at first the diagonal.
    Each round lists them by flat index, takes each source's least pending
    value ``m`` and settles every pending entry of that source whose value
    is at most ``m + lightest``, ``lightest`` being the smallest edge weight
    (positive, since ``MetricSpace`` merges zero-weight edges):
    delta-stepping with delta = ``lightest``. A settled entry is final:
    every later candidate adds a weight of at least ``lightest`` to a value
    of at least ``m``, and rounding is monotone, so the candidate is at
    least ``fl(m + lightest)`` and never strictly below the entry. The
    kernel relies on this: a settled entry is relaxed with its value at the
    start of the round, and its flag is cleared only after the round. The
    settled entries are relaxed through their vertices' neighbour slices,
    in blocks of at most ``_RELAX_BLOCK_ELEMENTS`` candidates (or one
    vertex's slice); a cell hit twice keeps the smaller candidate, and a
    strictly improved cell is flagged. So each (source, vertex) entry is
    relaxed at most once, and each round settles at least one entry of
    every source with one pending, which bounds the rounds by V. Sums past
    the float range give ``inf``, which is never an improvement.
    """
    size = n_vertices
    ends = np.array([(a, b) for a, b, _w in edges], dtype=np.intp).reshape(-1, 2)
    tails = np.concatenate((ends[:, 0], ends[:, 1]))
    order = tails.argsort(kind="stable")
    neighbours = np.concatenate((ends[:, 1], ends[:, 0]))[order]
    weights = np.array([w for _a, _b, w in edges] * 2, dtype=float)[order]
    degrees = np.bincount(tails, minlength=size)
    firsts = np.cumsum(degrees) - degrees
    lightest = weights.min(initial=np.inf)

    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    flat_dist = dist.reshape(-1)
    pending = np.zeros(size * size, dtype=bool)
    pending[:: size + 1] = True
    with np.errstate(over="ignore"):
        for _ in range(size):
            act = np.flatnonzero(pending)
            if act.size == 0:
                break
            values = flat_dist[act]
            sources = act // size
            least = np.full(size, np.inf)
            np.minimum.at(least, sources, values)
            settle = values <= least[sources] + lightest
            done, reach = act[settle], values[settle]
            row = sources[settle] * size
            vertex = done - row
            degree = degrees[vertex]
            reached = np.cumsum(degree)
            # Candidate k of the round relaxes CSR slot k + shift[entry].
            shift = firsts[vertex] - (reached - degree)
            first = 0
            while first < done.size:
                low = reached[first] - degree[first]
                stop = max(first + 1, int(np.searchsorted(reached, low + _RELAX_BLOCK_ELEMENTS, "right")))
                block = degree[first:stop]
                slot = np.repeat(shift[first:stop], block)
                slot += np.arange(low, reached[stop - 1])
                candidate = np.repeat(reach[first:stop], block)
                candidate += weights[slot]
                cells = np.repeat(row[first:stop], block)
                cells += neighbours[slot]
                better = np.flatnonzero(candidate < flat_dist[cells])
                cells = cells[better]
                np.minimum.at(flat_dist, cells, candidate[better])
                pending[cells] = True
                first = stop
            pending[done] = False
    return dist


class MetricSpace:
    """Weighted undirected graph with shortest-path distances.

    Zero-weight edges would break the axiom that distinct points have
    positive distance, so their endpoints are merged at construction (the
    standard pseudometric quotient; shortest paths are unchanged).
    ``quotient_map`` records where each original vertex ended up, and
    :meth:`place` maps a placement on the original vertices through it.
    ``_edge_subspace`` builds a space from some of a validated space's edges
    without checking them again; its precondition is that the chosen edge
    indices are distinct.

    Distances come by two independent routes. ``dist_row`` runs a heap
    Dijkstra from one source on each call. ``distance_matrix`` runs one array
    label-setting search from every source at once (on spaces of at least
    ``_ARRAY_KERNEL_MIN_VERTICES`` vertices) and caches the whole matrix. That
    cache is written once, after which the object is effectively immutable
    and safe to read concurrently.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, float]]):
        if vertex_count < 1:
            raise ValueError("vertex_count >= 1 required")
        edges = [(operator.index(a), operator.index(b), float(w)) for a, b, w in edges]
        for a, b, w in edges:
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge ({a},{b}) out of range")
            if not 0 <= w < math.inf:
                raise ValueError(f"negative, infinite or NaN weight on edge ({a},{b})")
            if a == b and w > 0:
                raise ValueError(f"positive self-loop on vertex {a}")

        label, _ = component_labels(vertex_count, ((a, b) for a, b, w in edges if w == 0.0))
        new_id: dict[int, int] = {}
        qmap = [new_id.setdefault(root, len(new_id)) for root in label]
        self.quotient_map: tuple[int, ...] = tuple(qmap)
        self.n_vertices: int = len(new_id)

        best: dict[tuple[int, int], float] = {}
        for a, b, w in edges:
            if w == 0.0:
                continue
            qa, qb = qmap[a], qmap[b]
            if qa == qb:
                continue
            key = (min(qa, qb), max(qa, qb))
            if key not in best or w < best[key]:
                best[key] = w
        self.edges: tuple[tuple[int, int, float], ...] = tuple(
            (a, b, w) for (a, b), w in sorted(best.items())
        )
        self._adj = _adjacency(self.n_vertices, self.edges)
        self._dist_matrix: np.ndarray | None = None

    def _edge_subspace(self, indices: Iterable[int]) -> MetricSpace:
        """The space on the same vertices with only the edges at ``indices``
        of ``self.edges``, which must be distinct.

        Equal to ``MetricSpace(self.n_vertices, [self.edges[i] for i in
        indices])``, built without its checks: the edges are already in
        range, positive, finite and distinct, and kept in sorted order, so
        no vertex is merged and the quotient map is the identity.
        """
        sub = object.__new__(MetricSpace)
        sub.quotient_map = tuple(range(self.n_vertices))
        sub.n_vertices = self.n_vertices
        sub.edges = tuple(map(self.edges.__getitem__, sorted(indices)))
        sub._adj = _adjacency(sub.n_vertices, sub.edges)
        sub._dist_matrix = None
        return sub

    def place(self, alpha: Sequence[int], beta: Sequence[int]) -> Placement:
        """The placement of agents at original vertices ``alpha`` and
        alternatives at ``beta``, each mapped through the quotient. A vertex
        outside the original ``0..vertex_count-1`` raises ValueError."""
        qm = self.quotient_map
        for v in (*alpha, *beta):
            if not 0 <= v < len(qm):
                raise ValueError(f"placement vertex {v} out of range")
        return Placement(tuple(qm[v] for v in alpha), tuple(qm[v] for v in beta))

    def dist_row(self, source: int) -> tuple[float, ...]:
        dist = [math.inf] * self.n_vertices
        dist[source] = 0.0
        heap = [(0.0, source)]
        # Each edge pushes at most once: when its second endpoint is settled,
        # the first is already at a distance no greater. With the source's
        # push, the heap is empty after at most len(edges) + 1 pops.
        for _ in range(len(self.edges) + 2):
            if not heap:
                return tuple(dist)
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        raise RuntimeError("distance search pushed an edge twice; this is a bug")

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances as a read-only (V, V) array.

        Computed on first call and cached; later calls return the same
        object. From ``_ARRAY_KERNEL_MIN_VERTICES`` vertices up it comes from
        :func:`_all_sources_dijkstra`, which settles every source's safe
        entries together, round by round; smaller spaces stack their
        ``dist_row`` heap rows. Either way entry (s, v) equals
        ``dist_row(s)[v]`` byte for byte: any correct label-setting search
        returns, for each pair, the minimum over walks from s to v of the
        walk's left-to-right float sum (adding a nonnegative weight is
        monotone and never decreases a sum), and the order in which entries
        are settled does not change that minimum.
        Unreachable pairs are ``inf``.
        """
        if self._dist_matrix is None:
            if self.n_vertices < _ARRAY_KERNEL_MIN_VERTICES:
                dist = np.array([self.dist_row(s) for s in range(self.n_vertices)])
            else:
                dist = _all_sources_dijkstra(self.n_vertices, self.edges)
            dist.flags.writeable = False
            self._dist_matrix = dist
        return self._dist_matrix

    def components(self) -> list[list[int]]:
        label, _ = component_labels(self.n_vertices, self.support_edges())
        comps: dict[int, list[int]] = {}
        for v, root in enumerate(label):
            comps.setdefault(root, []).append(v)
        return list(comps.values())

    def support_edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b, _w in self.edges]

    def to_dot(self) -> str:
        lines = ["graph metricspace {"]
        for v in range(self.n_vertices):
            lines.append(f"  v{v};")
        for a, b, w in self.edges:
            lines.append(f'  v{a} -- v{b} [label="{w:g}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Placement:
    """Maps agent index -> vertex (alpha) and alternative index -> vertex (beta)."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(map(operator.index, self.alpha)))
        object.__setattr__(self, "beta", tuple(map(operator.index, self.beta)))


def space_to_json_dict(space: MetricSpace, placement: Placement | None = None) -> dict:
    data = {
        "vertices": space.n_vertices,
        "edges": [[a, b, w] for a, b, w in space.edges],
    }
    if placement is not None:
        data["alpha"] = list(placement.alpha)
        data["beta"] = list(placement.beta)
    return data


def space_from_json_dict(data: dict) -> tuple[MetricSpace, Placement | None]:
    edges = [
        (json_int(a, "edge endpoint"), json_int(b, "edge endpoint"), json_number(w, "edge weight"))
        for a, b, w in json_array(data["edges"], "edges")
    ]
    space = MetricSpace(json_int(data["vertices"], "vertices"), edges)
    placement = None
    if "alpha" in data or "beta" in data:  # a placement needs both
        alpha, beta = data["alpha"], data["beta"]  # KeyError names a missing one
        placement = space.place(
            [json_int(v, "placement vertex") for v in json_array(alpha, "alpha")],
            [json_int(v, "placement vertex") for v in json_array(beta, "beta")],
        )
    return space, placement


def build_generating_space(u: UtilityProfile) -> tuple[MetricSpace, Placement]:
    """Complete bipartite realization of a polarized utility profile.

    The one-block case of :func:`union_generating_space`: vertices 0..n-1
    host the agents, n..2n-1 the alternatives, and the (a, x) edge carries
    weight -u(a, x). Polarity makes every direct edge a shortest path, which
    is verified before returning. Zero-utility pairs collapse agent and
    alternative into one vertex via the quotient.
    """
    space, (placement,) = union_generating_space([u])
    got = utilities_from_space(space, placement, u.n).values
    off = np.abs(got - u.values) > _REL_TOL * np.maximum(1.0, -u.values)
    if off.any():
        a, x = divmod(int(off.argmax()), u.n)
        raise RuntimeError(f"direct edge ({a},{x}) is not a shortest path; this is a bug")
    return space, placement


def union_generating_space(
    profiles: Sequence[UtilityProfile],
) -> tuple[MetricSpace, list[Placement]]:
    """Disjoint union of the bipartite realizations of several profiles.

    Each profile must have finite utilities (ValueError otherwise) and be
    polarized (:class:`NotPolarized` otherwise). With strictly negative
    utilities each block contributes 2n vertices, so the union has
    2n * len(profiles) vertices; zero utilities shrink their block through
    the quotient.
    """
    if not profiles:
        raise ValueError("need at least one profile")
    edges = []
    offsets = []
    offset = 0
    for u in profiles:
        n = u.n
        _require(np.isfinite(u.values), u.values, "utility", "has no finite distance to realize it")
        check = is_polarized(u)
        if not check:
            raise NotPolarized(check.violation)
        offsets.append((offset, n))
        for a, row in enumerate((-u.values).tolist()):
            edges += [(offset + a, offset + n + x, w) for x, w in enumerate(row)]
        offset += 2 * n
    space = MetricSpace(offset, edges)
    placements = [space.place(range(off, off + n), range(off + n, off + 2 * n)) for off, n in offsets]
    return space, placements


def utilities_from_space(space: MetricSpace, placement: Placement, n: int) -> UtilityProfile:
    """Utility profile induced by a placement: u(a, x) = -d(alpha(a), beta(x)).

    Rows are read one agent at a time, so a placement whose first agent is
    cut off from an alternative fails before the other agents' shortest
    paths are computed.
    """
    if len(placement.alpha) != n or len(placement.beta) != n:
        raise ValueError("placement does not cover n agents and n alternatives")
    for v in placement.alpha + placement.beta:
        if not (0 <= v < space.n_vertices):
            raise ValueError(f"placement vertex {v} out of range")
    d = []
    for a, v in enumerate(placement.alpha):
        row = space.dist_row(v)
        d.append([row[w] for w in placement.beta])
        if math.inf in d[a]:
            x = d[a].index(math.inf)
            raise ValueError(f"agent {a} and alternative {x} lie in different components")
    return UtilityProfile(n, -np.array(d))


def verify_generating(
    space: MetricSpace, placement: Placement, u: UtilityProfile, tol: float
) -> bool:
    """True iff max |u(a,x) + d(alpha(a), beta(x))| <= tol. Structural
    mismatches (wrong sizes, bad indices, disconnected pairs) yield False."""
    try:
        induced = utilities_from_space(space, placement, u.n)
    except ValueError:
        return False
    return bool(np.abs(u.values - induced.values).max() <= tol)


def random_connected_space(vertices: int, extra_edges: int, rng: np.random.Generator) -> MetricSpace:
    """Random connected weighted graph: a random spanning tree plus extras.

    Extra edges come from at most ``50 * (extra_edges + 1)`` draws, each of
    two endpoints, keeping a new pair, and stop once ``extra_edges`` are
    kept. Every weight is drawn from ``uniform(0.5, 3.0)``.
    """
    if vertices < 1:
        raise ValueError("vertices >= 1 required")
    edges = []
    seen_pairs = set()
    order = [int(v) for v in rng.permutation(vertices)]
    for i in range(1, vertices):
        a = order[i]
        b = order[int(rng.integers(0, i))]
        edges.append((a, b, float(rng.uniform(0.5, 3.0))))
        seen_pairs.add((min(a, b), max(a, b)))
    for _ in range(50 * (extra_edges + 1)):
        if len(edges) >= vertices - 1 + extra_edges:
            break
        a, b = int(rng.integers(0, vertices)), int(rng.integers(0, vertices))
        if a == b or (min(a, b), max(a, b)) in seen_pairs:
            continue
        edges.append((a, b, float(rng.uniform(0.5, 3.0))))
        seen_pairs.add((min(a, b), max(a, b)))
    return MetricSpace(vertices, edges)
