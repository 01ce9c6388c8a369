"""Euclidean embeddings of finite metric spaces and the robustness caps
they induce.

The embedding is the standard constructive Frechet variant: coordinates are
distances to random vertex subsets at geometrically growing sizes. Its
worst-case multiplicative distortion is logarithmic in the number of
vertices, which caps the robustness of any market realized in the space.
Markets realized directly in a normed vector space are capped at 3, probed
here by a multistart local search over placements of the cyclic three-agent
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import sub

import numpy as np

from .metric import MetricSpace, component_labels
from .seeding import rng_for

#: The cyclic three-agent profile used for the Euclidean cap: agent i's
#: ranking starts at alternative i and cycles upward.
_CONDORCET_RANKS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

#: Largest point dimension :func:`euclidean_profile_robustness` accepts.
_MAX_POINT_DIM = 16

#: Gathered distances per block of :func:`bourgain_embed`'s subset minima
#: (2 MiB of float64).
_SUBSET_BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True, eq=False)
class EuclideanPlacement:
    """One point per vertex, as the rows of a 2-D float array; ``dim`` is
    the number of columns."""

    points: np.ndarray  # shape (vertices, dim)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 2:
            raise ValueError("points must be a (vertices, dim) array")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DistortionReport:
    """Distortion of an embedding after non-contractive normalization.

    ``scale`` is the smallest embedded/original distance ratio. Dividing
    every embedded distance by it makes the embedding non-contractive, so
    each normalized ratio is >= 1 and ``max_expansion`` (the largest
    normalized ratio) is the distortion. ``max_contraction`` records how
    much the raw embedding shrank its worst pair before normalization.
    """

    max_expansion: float
    max_contraction: float
    scale: float


def _connected_distances(space: MetricSpace) -> np.ndarray:
    """The space's distance matrix; ValueError when some pair is disconnected,
    or connected at a distance past the float range."""
    dmat = space.distance_matrix()
    if not np.isfinite(dmat).all():
        label, _ = component_labels(space.n_vertices, space.support_edges())
        if max(label) > 0:
            raise ValueError("space must be connected (finite distances)")
        raise ValueError("space is connected, but some distance overflows the float range")
    return dmat


def bourgain_embed(space: MetricSpace, quality: int = 10, seed: int = 0) -> EuclideanPlacement:
    """Distance-to-random-subset embedding into Euclidean space.

    For each scale i = 1..floor(log2 V) and each of q = quality * ceil(ln V)
    repetitions, one coordinate maps v to its distance to a uniformly drawn
    vertex subset of size min(2^i, V - 1); the cap at V - 1 keeps the top
    scale informative (distance to the full vertex set is identically
    zero). Coordinates are divided by sqrt(dim) so the map is non-expansive
    up to that factor; reporting normalizes scale away regardless.
    Deterministic for a fixed seed.

    A scale's q subsets are drawn first, in order. While a subset holds at
    most half the vertices, its coordinates are the column minima of its
    rows of distances, taken for several subsets at once in blocks of at
    most ``_SUBSET_BLOCK_ELEMENTS`` gathered distances (or one subset's). A
    larger subset (only ever at the top scale) gives each member exactly
    +0.0, its own diagonal distance, every other distance being positive;
    so only the vertices outside it take a minimum, over their rows with
    the entries outside the subset set to ``inf``.
    """
    v_count = space.n_vertices
    if v_count < 2:
        raise ValueError("need at least 2 vertices")
    if quality < 1:
        raise ValueError("quality >= 1 required")
    dmat = _connected_distances(space)
    levels = int(math.floor(math.log2(v_count)))
    reps = quality * int(math.ceil(math.log(v_count)))
    rng = rng_for(seed)
    # Row t of by_target holds every vertex's distance to t, so a subset's
    # minima reduce contiguous rows rather than gathering scattered columns.
    by_target = np.ascontiguousarray(dmat.T)
    columns = np.empty((levels * reps, v_count))
    for i in range(1, levels + 1):
        size = min(2**i, v_count - 1)
        subsets = np.array([rng.choice(v_count, size=size, replace=False) for _ in range(reps)])
        level = columns[(i - 1) * reps : i * reps]
        if 2 * size <= v_count:
            block = max(1, _SUBSET_BLOCK_ELEMENTS // (size * v_count))
            for start in range(0, reps, block):
                by_target[subsets[start : start + block]].min(axis=1, out=level[start : start + block])
        else:
            level.fill(0.0)
            for column, subset in zip(level, subsets):
                outside = np.ones(v_count, dtype=bool)
                outside[subset] = False
                others = np.flatnonzero(outside)
                # Whole rows with the non-members masked copy faster than a
                # gather of the member columns, dmat[np.ix_(others, subset)].
                rows = dmat[others]
                rows[:, others] = np.inf
                column[others] = rows.min(axis=1)
    # Points are rows of a C-ordered array, the layout measure_distortion's
    # sums and products were pinned on.
    coords = np.ascontiguousarray(columns.T)
    coords /= math.sqrt(coords.shape[1])
    return EuclideanPlacement(coords)


def measure_distortion(space: MetricSpace, placement: EuclideanPlacement) -> DistortionReport:
    """All-pairs ratio report for an embedding of a connected space."""
    v_count = space.n_vertices
    if placement.points.shape[0] != v_count:
        raise ValueError("placement does not cover all vertices")
    dmat = _connected_distances(space)
    pts = placement.points
    sq = np.sum(pts**2, axis=1)
    gram = pts @ pts.T
    emb_sq = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
    emb = np.sqrt(emb_sq)
    iu = np.triu_indices(v_count, k=1)
    originals = dmat[iu]
    embedded = emb[iu]
    if np.any((embedded == 0.0) & (originals > 0.0)):
        raise ValueError("distinct vertices embedded to coincident points")
    ratios = embedded / originals
    scale = float(ratios.min())
    max_ratio = float(ratios.max())
    return DistortionReport(
        max_expansion=max_ratio / scale,
        max_contraction=max(1.0, 1.0 / scale),
        scale=scale,
    )


def _squares(p, q):
    """Each coordinate's squared difference ``float.__pow__(x - y, 2)`` of
    two float rows, lazily and without a generator."""
    return map(pow, map(sub, p, q), repeat(2))


#: The cyclic profile's ranking read from a flat distance table, where cell
#: 3 * a + b holds agent a's distance to alternative b: each agent's three
#: cells, best first.
_CYCLIC_CELLS = tuple(
    tuple(3 * a + b for b in order) for a, order in enumerate(_CONDORCET_RANKS)
)

#: The table cells whose distances change when one of the six rows moves,
#: as (cell, agent row, alternative row): an agent's row of cells, or an
#: alternative's column.
_MOVED_CELLS = tuple(
    tuple((3 * a + b, a, 3 + b) for a in range(3) for b in range(3) if moved in (a, 3 + b))
    for moved in range(6)
)

#: The agents ranking those cells: a moved agent alone, or all three.
_MOVED_AGENTS = tuple(sorted({a for _, a, _ in cells}) for cells in _MOVED_CELLS)


def _agent_value(table: list[float], a: int) -> float | None:
    """The smaller of agent ``a``'s two consecutive distance ratios, read
    from its cyclic cells of the distance table; None unless it ranks them
    strictly at nonzero distance."""
    i0, i1, i2 = _CYCLIC_CELLS[a]
    d0, d1, d2 = table[i0], table[i1], table[i2]
    if not 0.0 < d0 < d1 < d2:
        return None
    return min(d1 / d0, d2 / d1)


def _retable(terms: list[list[float]], table: list[float], points, cells, c: int) -> None:
    """Recompute coordinate ``c``'s squared difference in each of ``cells``
    from the rows as they stand, then the cell's distance from its terms."""
    for k, a, b in cells:
        squares = terms[k]
        squares[c] = (points[a][c] - points[b][c]) ** 2
        table[k] = math.sqrt(sum(squares))


#: A climb's ``(terms, table, ratios)``; see :func:`_climb_state`.
_ClimbState = tuple[list[list[float]], list[float], list[float | None]]


def _climb_state(points) -> _ClimbState:
    """What a climb keeps for six float rows (three agents, then three
    alternatives): ``terms[k]``, cell k's squared differences; ``table[k]``,
    the ``sqrt`` of their sum, added left to right from 0 as in
    ``sum((x - y) ** 2 for x, y in zip(p, q))``; and each agent's
    :func:`_agent_value`. The cyclic profile's value is None if any agent's
    is, else their min."""
    terms = [list(_squares(agent, alt)) for agent in points[:3] for alt in points[3:]]
    table = [math.sqrt(sum(squares)) for squares in terms]
    return terms, table, [_agent_value(table, a) for a in range(3)]


def euclidean_profile_robustness(points_alpha, points_beta) -> float:
    """Inner ratio minimum of the cyclic profile for a Euclidean placement.

    ``points_alpha`` are the three agents, ``points_beta`` the three
    alternatives. The placement must realize the cyclic profile strictly
    (agent i closest to alternative i, then i+1, then i+2, indices mod 3).
    The value is invariant under translation, rotation and positive scaling
    of all six points, and never exceeds 3.
    """
    if len(points_alpha) != 3 or len(points_beta) != 3:
        raise ValueError("need exactly three agent and three alternative points")
    dims = {len(p) for p in points_alpha} | {len(p) for p in points_beta}
    if len(dims) != 1:
        raise ValueError("all points must share one dimension")
    if dims.pop() > _MAX_POINT_DIM:
        raise ValueError(f"dimension exceeds cap {_MAX_POINT_DIM}")
    rows = [[float(v) for v in p] for p in (*points_alpha, *points_beta)]
    _, table, ratios = _climb_state(rows)
    if None in ratios:
        if any(table[k] == 0.0 for cells in _CYCLIC_CELLS for k in cells[:2]):
            raise ValueError("coincident agent/alternative points (zero denominator)")
        raise ValueError("placement does not realize the cyclic profile strictly")
    return min(ratios)


@dataclass(frozen=True)
class BanachSearchResult:
    best_value: float
    alpha: tuple[tuple[float, ...], ...] | None
    beta: tuple[tuple[float, ...], ...] | None
    feasible_restarts: int
    dim: int
    restarts: int
    iters: int
    seed: int


# Feasible two-dimensional template: three agents, each pulled a quarter of
# the way toward the next alternative in the cycle, then three on a triangle.
_TRIANGLE = ((1.0, 0.0), (-0.5, math.sqrt(3.0) / 2.0), (-0.5, -math.sqrt(3.0) / 2.0))
_TEMPLATE = tuple(
    tuple(0.75 * x + 0.25 * y for x, y in zip(b, b_next))
    for b, b_next in zip(_TRIANGLE, _TRIANGLE[1:] + _TRIANGLE[:1])
) + _TRIANGLE


def _feasible_start(dim: int, rng: np.random.Generator) -> tuple[list[list[float]], _ClimbState] | None:
    """The first of up to 40 jittered templates, then up to 60 Gaussian
    draws, that realizes the cyclic profile, as float rows with their
    :func:`_climb_state`; None when every draw fails."""
    for attempt in range(100):
        if attempt < 40:
            cand = np.zeros((6, dim))
            cand[:, :2] = _TEMPLATE
            cand += rng.uniform(0.02, 0.35) * rng.standard_normal((6, dim))
        else:
            cand = rng.standard_normal((6, dim))
        rows = cand.tolist()
        state = _climb_state(rows)
        if None not in state[2]:
            return rows, state
    return None


def maximize_euclidean_robustness(
    dim: int, restarts: int, iters: int, seed: int
) -> BanachSearchResult:
    """Multistart coordinate search for the most robust Euclidean placement
    of the cyclic profile.

    Each restart draws an initial placement (see :func:`_feasible_start`)
    and then hill-climbs: single-coordinate moves of +-step are accepted
    when they stay feasible and improve the ratio minimum, and the step is
    halved after any full sweep without improvement. ``iters`` counts
    candidate evaluations per restart, so doubling it extends each
    trajectory and can only improve the result.

    Each restart keeps its start's :func:`_climb_state`: per
    agent-alternative cell, the squared coordinate differences; the nine
    distances, in a table; and each agent's ratio minimum
    (:func:`_agent_value`, None when its ranking fails). Moving coordinate
    ``c`` of a point changes three cells, the moved agent's row or the
    moved alternative's column. Each gets its new square at ``c`` and the
    ``sqrt`` of its sum in a copy of the table, and then its old square
    back; only the agents ranking those cells, the moved agent or all three,
    are judged again. The candidate's value is None if any agent's is, else
    their min. An accepted move writes its squares and distances into what
    the restart keeps. A rejected one is undone with ``row[c] -= move``;
    since ``(x + m) - m`` need not equal ``x``, when the coordinate did not
    come back exactly its cells and agents are recomputed from the rows as
    they now stand, and the value stays the last accepted one. So
    everything kept equals :func:`_climb_state` of the current rows, each
    evaluation's value is the one that state gives, and a square past the
    float range raises OverflowError at the same evaluation.

    One dimension is decided without drawing: on a line every ranking by
    distance is single-peaked, so the middle alternative is never last,
    while the cyclic profile ranks each alternative last for some agent.
    """
    if not (1 <= dim <= 10):
        raise ValueError("dim must lie in 1..10")
    if restarts < 1 or iters < 0:
        raise ValueError("need restarts >= 1 and iters >= 0")
    best_value = -math.inf
    best_points = None
    feasible_restarts = 0
    for r in range(restarts if dim >= 2 else 0):  # dim 1: no feasible restart
        start = _feasible_start(dim, rng_for(seed, r))
        if start is None:
            continue
        points, (terms, table, ratios) = start
        value = min(ratios)
        feasible_restarts += 1
        step = 0.5
        evals = 0
        while evals < iters and step > 1e-12:
            improved = False
            moves = [(c, move) for c in range(dim) for move in (step, -step)]
            for row, cells, agents in zip(points, _MOVED_CELLS, _MOVED_AGENTS):
                # The first improving move of a point is kept, then the
                # climb goes on to the next point.
                for c, move in moves:
                    if evals >= iters:
                        break
                    evals += 1
                    old = row[c]
                    row[c] += move
                    # A moved cell's old square goes back once its distance is read.
                    cand = table.copy()
                    for k, a, b in cells:
                        squares = terms[k]
                        square = squares[c]
                        squares[c] = (points[a][c] - points[b][c]) ** 2
                        cand[k] = math.sqrt(sum(squares))
                        squares[c] = square
                    cand_ratios = ratios.copy()
                    for a in agents:
                        cand_ratios[a] = _agent_value(cand, a)
                    if None not in cand_ratios and min(cand_ratios) > value:
                        _retable(terms, table, points, cells, c)
                        ratios, value = cand_ratios, min(cand_ratios)
                        improved = True
                        break
                    row[c] -= move
                    if row[c] != old:
                        _retable(terms, table, points, cells, c)
                        for a in agents:
                            ratios[a] = _agent_value(table, a)
            if not improved:
                step *= 0.5
        if value > best_value:
            best_value = value
            best_points = points
    if best_points is None:
        return BanachSearchResult(-math.inf, None, None, 0, dim, restarts, iters, seed)
    alpha = tuple(map(tuple, best_points[:3]))
    beta = tuple(map(tuple, best_points[3:]))
    return BanachSearchResult(
        best_value, alpha, beta, feasible_restarts, dim, restarts, iters, seed
    )


def generating_space_size(n: int) -> int:
    """Vertex count of the full bipartite union realization: 2n(n!)^n."""
    return 2 * n * math.factorial(n) ** n


def log_size_robustness_cap(space_size: int, calibration_constant: float) -> float:
    """Logarithmic robustness cap from the space size: c * ln|X|.

    The constant is an empirical calibration value, not a derived one.
    """
    if space_size < 2:
        raise ValueError("space_size >= 2 required")
    return calibration_constant * math.log(space_size)


def log_genus_robustness_cap(genus: int, calibration_constant: float) -> float:
    """Probabilistic robustness cap from the genus: c * ln(1 + g).

    The 1 + g convention keeps the bound defined at genus 1; it is a
    convention of this implementation.
    """
    if genus < 1:
        raise ValueError("genus >= 1 required")
    return calibration_constant * math.log(1 + genus)
