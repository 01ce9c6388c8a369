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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .jsonvalues import json_int, json_number
from .markets import UtilityProfile, _require
from .ordinal import OrdinalProfile, TiePolicy, ordinal_from_utility

_REL_TOL = 1e-9

#: Fewest vertices for which ``distance_matrix`` runs the all-sources array
#: kernel. Each of its V steps costs some twenty numpy calls whatever the
#: graph's size, so below this size V heap searches are cheaper. The two
#: meet at about 32 vertices on random trees with chords and on stars,
#: about 20 on complete graphs and about 64 on paths.
_LOCK_STEP_MIN_VERTICES = 32


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


def is_polarized(u: UtilityProfile, tol: float = 1e-12) -> PolarityCheck:
    """Check the polarity inequality over all (a, a', x, x') quadruples.

    The condition: u(a,x') - u(a,x) <= -(u(a',x) + u(a',x')), with slack
    ``tol * max(1, |lhs|, |rhs|)``; the tolerance absorbs floating-point
    error in distance sums, pass 0 for an exact check.

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
            slack = tol * np.maximum(np.maximum(1.0, np.abs(lhs)), abs_rhs)
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
    parities.
    """
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * vertex_count
    parity = [0] * vertex_count
    for start in range(vertex_count):
        if label[start] >= 0:
            continue
        label[start] = start
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if label[v] < 0:
                    label[v] = start
                    parity[v] = parity[u] ^ 1
                    stack.append(v)
    return label, parity


def _all_sources_dijkstra(n_vertices: int, edges: Sequence[tuple[int, int, float]]) -> np.ndarray:
    """Shortest-path distances from every source, by Dijkstra run from all
    sources in lock step over a CSR adjacency of ``edges``.

    ``dist[s, v]`` holds the tentative, then final, distance; ``keys`` the
    same for unsettled vertices and ``inf`` for settled ones. Each step,
    every source settles its nearest unsettled vertex (a row argmin of
    ``keys``) and relaxes that vertex's neighbour slice through flat
    indices. Within one step each source relaxes one vertex's distinct
    neighbours, so no flat index is written twice. A source whose nearest
    key is ``inf`` has settled all it can reach; its relaxations add to
    ``inf`` and change nothing, and the loop ends when every source is
    there. Sums past the float range give ``inf``, which is never an
    improvement.
    """
    size = n_vertices
    ends = np.array([(a, b) for a, b, _w in edges], dtype=np.intp).reshape(-1, 2)
    tails = np.concatenate((ends[:, 0], ends[:, 1]))
    order = tails.argsort(kind="stable")
    neighbours = np.concatenate((ends[:, 1], ends[:, 0]))[order]
    weights = np.array([w for _a, _b, w in edges] * 2, dtype=float)[order]
    degrees = np.bincount(tails, minlength=size)
    firsts = np.cumsum(degrees) - degrees

    dist = np.full((size, size), np.inf)
    np.fill_diagonal(dist, 0.0)
    flat_dist = dist.reshape(-1)
    keys = dist.copy()
    flat_keys = keys.reshape(-1)
    rows = np.arange(size)
    base = rows * size
    with np.errstate(over="ignore"):
        for _ in range(size):
            nearest = keys.argmin(axis=1)
            settled = base + nearest
            reach = flat_keys[settled]
            if reach.min() == np.inf:
                break
            flat_keys[settled] = np.inf
            degree = degrees[nearest]
            owner = np.repeat(rows, degree)
            slot = np.arange(owner.size) + (firsts[nearest] - np.cumsum(degree) + degree)[owner]
            candidate = reach[owner] + weights[slot]
            cells = base[owner] + neighbours[slot]
            better = candidate < flat_dist[cells]
            cells, candidate = cells[better], candidate[better]
            flat_dist[cells] = candidate
            flat_keys[cells] = candidate
    return dist


class MetricSpace:
    """Weighted undirected graph with shortest-path distances.

    Zero-weight edges would break the axiom that distinct points have
    positive distance, so their endpoints are merged at construction (the
    standard pseudometric quotient; shortest paths are unchanged).
    ``quotient_map`` records where each original vertex ended up.

    Distances come by two independent routes. ``dist_row`` runs a heap
    Dijkstra from one source and caches the row; ``shortest_path`` uses the
    same heap search for its predecessors. ``distance_matrix`` runs one
    array Dijkstra from every source at once (on spaces of at least
    ``_LOCK_STEP_MIN_VERTICES`` vertices) and caches the whole matrix.
    Each cache is written once, after which the object is effectively
    immutable and safe to read concurrently.
    """

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int, float]]):
        if vertex_count < 1:
            raise ValueError("vertex_count >= 1 required")
        edges = [(int(a), int(b), float(w)) for a, b, w in edges]
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
        self._adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_vertices)]
        for a, b, w in self.edges:
            self._adj[a].append((b, w))
            self._adj[b].append((a, w))
        self._dist_rows: dict[int, tuple[float, ...]] = {}
        self._dist_matrix: np.ndarray | None = None

    def _dijkstra(self, source: int) -> tuple[list[float], list[int]]:
        dist = [math.inf] * self.n_vertices
        pred = [-1] * self.n_vertices
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    pred[v] = u
                    heapq.heappush(heap, (nd, v))
        return dist, pred

    def dist_row(self, source: int) -> tuple[float, ...]:
        if source not in self._dist_rows:
            self._dist_rows[source] = tuple(self._dijkstra(source)[0])
        return self._dist_rows[source]

    def dist(self, u: int, v: int) -> float:
        return self.dist_row(u)[v]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances as a read-only (V, V) array.

        Computed on first call and cached; later calls return the same
        object. From ``_LOCK_STEP_MIN_VERTICES`` vertices up it comes from
        :func:`_all_sources_dijkstra`, which runs Dijkstra from every source
        in lock step; smaller spaces stack their ``dist_row`` heap rows.
        Either way entry (s, v) equals ``dist_row(s)[v]`` byte for byte:
        any correct Dijkstra returns, for each pair, the minimum over walks
        from s to v of the walk's left-to-right float sum (adding a
        nonnegative weight is monotone and never decreases a sum), and the
        order in which vertices are settled does not change that minimum.
        Unreachable pairs are ``inf``.
        """
        if self._dist_matrix is None:
            if self.n_vertices < _LOCK_STEP_MIN_VERTICES:
                dist = np.array([self.dist_row(s) for s in range(self.n_vertices)])
            else:
                dist = _all_sources_dijkstra(self.n_vertices, self.edges)
            dist.flags.writeable = False
            self._dist_matrix = dist
        return self._dist_matrix

    def shortest_path(self, source: int, target: int) -> tuple[int, ...]:
        """One canonical shortest path (deterministic tie-breaking)."""
        dist, pred = self._dijkstra(source)
        if math.isinf(dist[target]):
            raise ValueError(f"vertices {source} and {target} are disconnected")
        path = [target]
        while path[-1] != source:
            path.append(pred[path[-1]])
        return tuple(reversed(path))

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
        object.__setattr__(self, "alpha", tuple(int(v) for v in self.alpha))
        object.__setattr__(self, "beta", tuple(int(v) for v in self.beta))


def space_to_json_dict(space: MetricSpace, placement: Placement | None = None) -> dict:
    data = {
        "schema": 1,
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
        for a, b, w in data["edges"]
    ]
    space = MetricSpace(json_int(data["vertices"], "vertices"), edges)
    placement = None
    if "alpha" in data and "beta" in data:
        qm = space.quotient_map

        def vertex(v) -> int:
            v = json_int(v, "placement vertex")
            if not 0 <= v < len(qm):
                raise ValueError(f"placement vertex {v} out of range")
            return qm[v]

        placement = Placement(
            tuple(vertex(v) for v in data["alpha"]),
            tuple(vertex(v) for v in data["beta"]),
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
    qm = space.quotient_map
    placements = [
        Placement(
            tuple(qm[off + a] for a in range(n)),
            tuple(qm[off + n + x] for x in range(n)),
        )
        for off, n in offsets
    ]
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


@dataclass(frozen=True)
class PathAgreementResult:
    ok: bool
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


#: Quadruples the path agreement check samples when there are more, and the
#: seed of that sample.
_PATH_CHECK_SAMPLES = 500
_PATH_CHECK_SEED = 0


def path_preference_agreement_check(
    space: MetricSpace, placement: Placement, profile: OrdinalProfile
) -> PathAgreementResult:
    """Agreement property of intersecting shortest paths.

    For agents a, a' and alternatives x, x', if some shortest path from
    alpha(a) to beta(x) meets some shortest path from alpha(a') to beta(x')
    at a vertex, the two agents cannot both strictly prefer their own path's
    destination: a preferring x over x' forces a' to prefer x over x' as
    well. (The symmetric orientation, where each agent prefers the other's
    destination, is geometrically possible and is not flagged.) The check
    samples pairs of canonical shortest paths and returns a witness if the
    impossible pattern ever shows up, which would indicate a shortest-path
    bug rather than a property of the input.
    """
    n = profile.n
    induced = utilities_from_space(space, placement, n)
    extracted = ordinal_from_utility(induced, TiePolicy.STRICT)
    if extracted != profile:
        raise ValueError("placement does not represent the given ordinal profile")

    path_sets: dict[tuple[int, int], frozenset[int]] = {}
    for a in range(n):
        for x in range(n):
            path_sets[(a, x)] = frozenset(
                space.shortest_path(placement.alpha[a], placement.beta[x])
            )

    candidates = [
        (a, x, ap, xp)
        for a in range(n)
        for ap in range(a + 1, n)
        for x in range(n)
        for xp in range(n)
        if x != xp
    ]
    if len(candidates) > _PATH_CHECK_SAMPLES:
        rng = np.random.default_rng(_PATH_CHECK_SEED)
        idx = rng.choice(len(candidates), size=_PATH_CHECK_SAMPLES, replace=False)
        candidates = [candidates[int(i)] for i in idx]

    pos = profile.position_table()
    for a, x, ap, xp in candidates:
        meet = path_sets[(a, x)] & path_sets[(ap, xp)]
        if not meet:
            continue
        if pos[a][x] < pos[a][xp] and pos[ap][xp] < pos[ap][x]:
            return PathAgreementResult(False, (a, x, ap, xp, min(meet)))
    return PathAgreementResult(True)


def random_connected_space(
    vertices: int,
    extra_edges: int,
    rng: np.random.Generator,
    weight_low: float = 0.5,
    weight_high: float = 3.0,
) -> MetricSpace:
    """Random connected weighted graph: a random spanning tree plus extras."""
    if vertices < 1:
        raise ValueError("vertices >= 1 required")
    edges = []
    seen_pairs = set()
    order = [int(v) for v in rng.permutation(vertices)]
    for i in range(1, vertices):
        a = order[i]
        b = order[int(rng.integers(0, i))]
        w = float(rng.uniform(weight_low, weight_high))
        edges.append((a, b, w))
        seen_pairs.add((min(a, b), max(a, b)))
    tries = 0
    while len(edges) < vertices - 1 + extra_edges and tries < 50 * (extra_edges + 1):
        tries += 1
        a, b = int(rng.integers(0, vertices)), int(rng.integers(0, vertices))
        if a == b or (min(a, b), max(a, b)) in seen_pairs:
            continue
        edges.append((a, b, float(rng.uniform(weight_low, weight_high))))
        seen_pairs.add((min(a, b), max(a, b)))
    return MetricSpace(vertices, edges)
