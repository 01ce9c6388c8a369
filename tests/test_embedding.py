import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchrobust import (
    EuclideanPlacement,
    MetricSpace,
    bourgain_embed,
    log_size_robustness_cap,
    maximize_euclidean_robustness,
    measure_distortion,
    random_connected_space,
    log_genus_robustness_cap,
)
from matchrobust import embedding
from matchrobust.embedding import BanachSearchResult
from matchrobust.seeding import rng_for

from conftest import (
    _reference_cyclic_value,
    reference_banach_climb,
    reference_bourgain_embed,
    reference_cyclic_ratio,
    reference_dist,
    reference_line_placements,
)


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
#: The cyclic profile's robustness in any inner-product space is at most the
#: golden ratio (Ptolemy's inequality); this allows float rounding above it.
GOLDEN_CAP = GOLDEN * (1.0 + 1e-12)


def path_graph(v, w=1.0):
    return MetricSpace(v, [(i, i + 1, w) for i in range(v - 1)])


class TestBourgainEmbed:
    def test_two_point_space(self):
        space = MetricSpace(2, [(0, 1, 4.0)])
        placement = bourgain_embed(space, quality=5, seed=1)
        report = measure_distortion(space, placement)
        assert report.max_expansion == 1.0  # single pair: no spread after scaling
        assert report.scale > 0

    def test_path_graph_distortion_bound(self):
        space = path_graph(8)
        bound = 10 * math.log(8)
        hits = sum(
            measure_distortion(space, bourgain_embed(space, quality=10, seed=s)).max_expansion
            <= bound
            for s in range(100)
        )
        assert hits >= 95  # 95 percent of seeds

    def test_uniform_metric_embeds_well(self):
        edges = [(a, b, 1.0) for a in range(16) for b in range(a + 1, 16)]
        space = MetricSpace(16, edges)
        report = measure_distortion(space, bourgain_embed(space, quality=10, seed=2))
        assert report.max_expansion <= 2.0

    def test_distortion_battery_wide(self):
        # 20 graphs x 20 seeds per size; at least 95 percent of runs land
        # under the frozen constant from the calibration script.
        constant = 2.0
        runs = 0
        over = 0
        for size in (8, 16, 32, 64):
            bound = constant * math.log(size)
            for g in range(20):
                rng = rng_for(31400, size, g)
                space = random_connected_space(size, int(rng.integers(0, 2 * size)), rng)
                for s in range(20):
                    report = measure_distortion(
                        space, bourgain_embed(space, quality=10, seed=s)
                    )
                    runs += 1
                    if report.max_expansion > bound:
                        over += 1
        assert over <= math.floor(0.05 * runs)

    def test_deterministic_given_seed(self):
        space = path_graph(6)
        a = bourgain_embed(space, quality=4, seed=9)
        b = bourgain_embed(space, quality=4, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_disconnected_rejected(self):
        space = MetricSpace(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            bourgain_embed(space)

    def test_dimension_formula(self):
        space = path_graph(8)
        placement = bourgain_embed(space, quality=3, seed=0)
        levels = int(math.floor(math.log2(8)))
        reps = 3 * int(math.ceil(math.log(8)))
        assert placement.dim == levels * reps


class TestBourgainReference:
    """``bourgain_embed`` against ``reference_bourgain_embed``, byte for byte.

    At a power of two the top scale's subsets hold V - 1 vertices, so one
    vertex takes a minimum, and the scale below holds exactly half. One past
    a power of two also leaves one vertex outside the top subsets, and one
    short of the next leaves nearly half. A block bound of one element puts
    every subset of a batched scale in a block of its own."""

    @settings(max_examples=120)
    @given(
        vertices=st.one_of(
            st.integers(2, 80),
            st.sampled_from((2, 4, 8, 16, 32, 64, 3, 5, 9, 17, 33, 65, 7, 15, 31, 63)),
        ),
        quality=st.integers(1, 3),
        seed=st.integers(0, 2**63 - 1),
        graph_seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from((1, embedding._SUBSET_BLOCK_ELEMENTS)),
    )
    @example(vertices=64, quality=3, seed=0, graph_seed=0, block=1)
    @example(vertices=63, quality=3, seed=0, graph_seed=0, block=1)
    def test_matches_reference_bytes(self, vertices, quality, seed, graph_seed, block):
        rng = np.random.default_rng(graph_seed)
        space = random_connected_space(vertices, int(rng.integers(0, 2 * vertices)), rng)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_SUBSET_BLOCK_ELEMENTS", block)
            points = bourgain_embed(space, quality=quality, seed=seed).points
        assert points.flags.c_contiguous
        assert points.tobytes() == reference_bourgain_embed(space, quality, seed).tobytes()


class TestMeasureDistortion:
    def test_isometric_line_placement(self):
        space = path_graph(5, w=2.0)
        pts = np.array([[2.0 * i] for i in range(5)])
        report = measure_distortion(space, EuclideanPlacement(pts))
        assert math.isclose(report.max_expansion, 1.0)
        assert math.isclose(report.scale, 1.0)

    def test_rotation_invariance(self):
        space = path_graph(6)
        placement = bourgain_embed(space, quality=6, seed=4)
        base = measure_distortion(space, placement)
        # Rotate in the first two coordinates.
        theta = 0.7
        rot = np.eye(placement.dim)
        rot[0, 0] = rot[1, 1] = math.cos(theta)
        rot[0, 1] = -math.sin(theta)
        rot[1, 0] = math.sin(theta)
        rotated = measure_distortion(space, EuclideanPlacement(placement.points @ rot))
        assert math.isclose(base.max_expansion, rotated.max_expansion, rel_tol=1e-9)

    def test_coincident_points_rejected(self):
        space = path_graph(3)
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            measure_distortion(space, EuclideanPlacement(pts))

    def test_normalized_ratios_non_contractive(self, rng):
        space = random_connected_space(12, 10, rng)
        placement = bourgain_embed(space, quality=8, seed=11)
        report = measure_distortion(space, placement)
        d = space.distance_matrix()
        pts = placement.points
        worst = math.inf
        for a in range(space.n_vertices):
            for b in range(a + 1, space.n_vertices):
                emb = float(np.linalg.norm(pts[a] - pts[b])) / report.scale
                worst = min(worst, emb / d[a][b])
        assert worst >= 1.0 - 1e-12


def feasible_template(scale=1.0, shift=(0.0, 0.0)):
    tri = [(1.0, 0.0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)]
    beta = [tuple(scale * c + s for c, s in zip(p, shift)) for p in tri]
    alpha = [
        tuple(
            scale * (0.75 * b1 + 0.25 * b2) + s
            for b1, b2, s in zip(tri[i], tri[(i + 1) % 3], shift)
        )
        for i in range(3)
    ]
    return alpha, beta


def _library_cyclic_value(alpha, beta):
    """The cyclic profile's value as the climb keeps it: None if any agent's
    ratio minimum is, else their min."""
    ratios = embedding._climb_state([[float(v) for v in p] for p in (*alpha, *beta)])[2]
    return None if None in ratios else min(ratios)


class TestCyclicValue:
    """The cyclic profile's ratio minimum of six points, as the climb keeps
    it and as the reference recomputes it."""

    def test_scaling_invariance(self):
        alpha, beta = feasible_template()
        v1 = _reference_cyclic_value([*alpha, *beta])
        alpha2, beta2 = feasible_template(scale=17.0)
        assert math.isclose(v1, _reference_cyclic_value([*alpha2, *beta2]), rel_tol=1e-12)

    def test_translation_invariance(self):
        alpha, beta = feasible_template()
        alpha2, beta2 = feasible_template(shift=(4.0, -9.0))
        assert math.isclose(
            _reference_cyclic_value([*alpha, *beta]),
            _reference_cyclic_value([*alpha2, *beta2]),
            rel_tol=1e-9,
        )

    def test_rotation_invariance(self):
        alpha, beta = feasible_template()
        theta = 1.1
        cos_t, sin_t = math.cos(theta), math.sin(theta)

        def rot(p):
            return (cos_t * p[0] - sin_t * p[1], sin_t * p[0] + cos_t * p[1])

        base = _reference_cyclic_value([*alpha, *beta])
        rotated = _reference_cyclic_value([rot(p) for p in (*alpha, *beta)])
        assert abs(base - rotated) <= 1e-9

    def test_cap_of_three_random(self):
        for t in range(500):
            rng = rng_for(64, t)
            pts = rng.standard_normal((6, 3)).tolist()
            v = _reference_cyclic_value(pts)
            assert v == _library_cyclic_value(pts[:3], pts[3:])
            assert v is None or 1.0 <= v <= 3.0 + 1e-9

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (list(reversed(feasible_template()[0])), feasible_template()[1]),
            # Agent 0 is exactly as far from two of its alternatives, and
            # every other comparison of the cyclic profile holds strictly.
            ([(0.5, 0.5), (-0.6, 0.5), (-0.5, -1.0)], [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)]),
            ([(0.5, 0.0), (-0.6, 0.4), (0.3, -0.6)], [(1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]),
            # Agent 0 sits on alternative 0, a zero first distance.
            ([(1.0, 0.0), (0.0, 0.4), (0.0, -0.4)], [(1.0, 0.0), (-0.5, 0.8), (-0.5, -0.9)]),
        ],
        ids=["wrong-order", "first-two-tie", "last-two-tie", "coincident"],
    )
    def test_not_strictly_cyclic(self, alpha, beta):
        assert _reference_cyclic_value([*alpha, *beta]) is None
        assert _library_cyclic_value(alpha, beta) is None


class TestPinnedSearchResults:
    """sha256 of ``repr(maximize_euclidean_robustness(dim, 60, iters, 606))``,
    recorded while the climb still moved coordinates of a numpy array.
    Dim 1 has no feasible restart, iters 0 runs no climb and dim 10 is the
    largest dim accepted; a rewrite of the climb must keep these bytes."""

    @pytest.mark.parametrize(
        "dim, iters, expected",
        [
            (1, 0, "d4a4fc265ffdfb1e251790f23cf5a1c83e1c493e0e682cfa1afdef6a82e791d3"),
            (1, 7, "d8dfa99c4e0ebc15e4dc28d0c65f2a3b52a17d24970bb941bf6b3ac3b3e2d3bb"),
            (1, 500, "a657ee9307efd0df02f04899a706e3ad0012495d1329699ffd43e8192b5fceee"),
            (2, 0, "55fff392b62755003956d32e313f668c705b7e6c6b3357b3eb7a1a91d01eaab6"),
            (2, 7, "3537d343628f43660df9fa649e1f5006bdd5aae38992b81609110b85c0664e16"),
            (2, 500, "ea1afdad133385fc6eaa306e189bbcbef609116855b842c8887cf3727662da1b"),
            (5, 0, "98b6919489fadcafb3b4e9599a3d8282a34de29d705015260f6c7c7e3e06ea68"),
            (5, 7, "674eef4ea2edcf6547f8e818175a9e6d83851e8c6482aeed9baeea83e2637943"),
            (5, 500, "30513c7941da602d776437d2092df9c06bff998a717d90a025bc06ec56bfc598"),
            (10, 0, "497a95dbbb96b8c1673d668ef58f46742f5d22572101c84490ca53ca55b1795c"),
            (10, 7, "c15482defe3f44e33e0db24f1cbd21ad6c446c58b9fdb5da7fdc3f6215d25627"),
            (10, 500, "213e8a759b3d100b09f754498d57fbf4f39b94b28741bcee502ace2c76ad77b7"),
        ],
    )
    def test_result_digest(self, dim, iters, expected):
        result = maximize_euclidean_robustness(dim, 60, iters, seed=606)
        assert hashlib.sha256(repr(result).encode()).hexdigest() == expected


def _cell_distance(p, q) -> float:
    """Every cell of ``_climb_state`` with agents at ``p`` and alternatives
    at ``q`` holds their distance; this reads cell 0's."""
    return embedding._climb_state([p] * 3 + [q] * 3)[1][0]


def _dist_outcome(dist, p, q) -> str:
    try:
        return repr(dist(p, q))
    except OverflowError:
        return "OverflowError"


#: Two float rows of one dimension from 1 to 16.
_ROW_PAIRS = st.integers(1, 16).flatmap(
    lambda dim: st.tuples(
        *[st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim)] * 2
    )
)


class TestDist:
    """``_climb_state`` keeps each cell's squares, ``pow`` mapped over the
    coordinate differences, and the ``sqrt`` of their sum; the reference
    squares them in a generator. Both give the same bytes, and both raise
    OverflowError when a square leaves the float range."""

    @pytest.mark.parametrize(
        "p, q, expected",
        [
            ([-0.0], [0.0], "0.0"),
            ([-0.0, 0.0, -0.0], [0.0, -0.0, -0.0], "0.0"),
            ([5e-324], [-5e-324], "0.0"),  # the square of 1e-323 underflows
            ([1e-160, 0.0], [0.0, -1e-160], "1.4142056902605667e-160"),  # subnormal squares
            ([3.0, 0.0], [0.0, 4.0], "5.0"),
            ([1e200], [-1e200], "OverflowError"),
            ([0.0] * 15 + [1e155], [0.0] * 16, "OverflowError"),
            ([1.7e308], [-1.7e308], "inf"),  # the difference, not the square, is inf
            ([1e154] * 16, [0.0] * 16, "inf"),  # the sum leaves the range
        ],
    )
    def test_edge_values(self, p, q, expected):
        assert _dist_outcome(_cell_distance, p, q) == _dist_outcome(reference_dist, p, q) == expected

    @settings(max_examples=400)
    @given(_ROW_PAIRS)
    def test_matches_generator_form(self, rows):
        p, q = rows
        assert _dist_outcome(_cell_distance, p, q) == _dist_outcome(reference_dist, p, q)


class TestDistanceTableClimb:
    """The climb keeps each cell's squared differences, a distance table and
    each agent's ratio minimum, and a move recomputes only what it changes;
    the reference recomputes all nine distances on every evaluation, so
    equal ``repr`` means nothing kept went stale, after accepted moves and
    after inexact undos alike."""

    @given(
        st.integers(2, 10),
        st.integers(1, 6),
        st.integers(0, 300),
        st.integers(0, 2**64 - 1),
    )
    @example(3, 4, 300, 606)
    # The step halves down to its 1e-12 floor well before 5000 evaluations,
    # so the climb must stop there with evaluations left.
    @example(2, 1, 5000, 0)
    # An undo here leaves a coordinate off by one rounding, and a table not
    # recomputed after it changes a later comparison.
    @example(2, 1, 300, 7)
    # Every inexact undo here is of an alternative's coordinate, so a climb
    # that recomputed only a moved agent's cells would go stale.
    @example(2, 1, 60, 96)
    # Ten squared differences per cell, the longest kept, and inexact undos
    # of every one of the six points.
    @example(10, 1, 500, 8)
    def test_matches_full_recompute(self, dim, restarts, iters, seed):
        result = maximize_euclidean_robustness(dim, restarts, iters, seed)
        assert repr(result) == repr(reference_banach_climb(dim, restarts, iters, seed))


#: One distance: a small integer (ties and zeros), any nonnegative float, or
#: inf, which a sum of squares past the float range gives.
_DISTANCES = st.integers(0, 3).map(float) | st.floats(0.0, allow_nan=False)


@st.composite
def _distance_tables(draw):
    """A flat table, cell 3 * a + b holding agent a's distance to b. Each
    agent's three distances are sorted into its cyclic order, alternative a
    first, half of the time, so every agent often realizes its ranking."""
    table = [0.0] * 9
    for a in range(3):
        row = draw(st.lists(_DISTANCES, min_size=3, max_size=3))
        if draw(st.booleans()):
            row.sort()
        for k, d in enumerate(row):
            table[3 * a + (a + k) % 3] = d
    return table


class TestAgentValue:
    """The climb keeps one ratio minimum per agent, or None, and its value
    is None when any agent's is, else their min."""

    @given(_distance_tables())
    @example([1.0, 2.0, 4.0, 8.0, 1.0, 3.0, 3.0, 5.0, 1.0])
    @example([1.0, 2.0, 4.0, 8.0, 1.0, 3.0, 3.0, 5.0, 0.0])
    def test_agents_combine_to_the_cyclic_value(self, table):
        values = [embedding._agent_value(table, a) for a in range(3)]
        combined = None if None in values else min(values)
        expected = reference_cyclic_ratio([table[3 * a : 3 * a + 3] for a in range(3)])
        assert combined == expected


class TestFeasibleStart:
    @pytest.mark.parametrize("dim", [2, 3, 10])
    def test_state_is_the_climb_state_of_its_rows(self, dim):
        starts = [embedding._feasible_start(dim, rng_for(5, r)) for r in range(20)]
        assert all(starts)
        for rows, state in starts:
            assert None not in state[2]
            assert state == embedding._climb_state(rows)


class TestMaximize:
    def test_dim_guard(self):
        with pytest.raises(ValueError):
            maximize_euclidean_robustness(0, 1, 1, 0)
        with pytest.raises(ValueError):
            maximize_euclidean_robustness(11, 1, 1, 0)

    def test_dim_one_infeasible(self):
        result = maximize_euclidean_robustness(1, 200, 50, seed=5)
        assert result.feasible_restarts == 0
        assert result.best_value == -math.inf
        assert result.alpha is None

    def test_dim_one_draws_nothing(self, monkeypatch):
        def no_draws(*_key):
            raise AssertionError("dim 1 drew a start")

        monkeypatch.setattr(embedding, "rng_for", no_draws)
        result = maximize_euclidean_robustness(1, 1000, 500, seed=606)
        assert result == BanachSearchResult(-math.inf, None, None, 0, 1, 1000, 500, 606)

    @given(st.integers(0, 2**64 - 1))
    def test_dim_one_rejection_draws_stay_empty(self, seed):
        # The draws the search skips in one dimension never held a start.
        assert reference_line_placements(seed, restarts=20) == []

    def test_feasible_value_at_least_one(self):
        result = maximize_euclidean_robustness(2, 30, 100, seed=5)
        assert result.feasible_restarts > 0
        assert 1.0 <= result.best_value <= GOLDEN_CAP

    def test_doubling_iters_monotone(self):
        a = maximize_euclidean_robustness(3, 20, 80, seed=12).best_value
        b = maximize_euclidean_robustness(3, 20, 160, seed=12).best_value
        assert a <= b <= GOLDEN_CAP

    def test_best_placement_reproduces_value(self):
        result = maximize_euclidean_robustness(2, 30, 120, seed=3)
        v = _reference_cyclic_value([*result.alpha, *result.beta])
        assert math.isclose(v, result.best_value, rel_tol=1e-12)
        assert v <= GOLDEN_CAP


class TestRobustnessBounds:
    """The cyclic profile's robustness: at most phi in inner-product spaces,
    attained on the unit circle, and at most 2 in any metric space."""

    def test_phi_witness_attains_golden_ratio(self, phi_witness):
        alpha, beta = phi_witness
        value = _reference_cyclic_value([*alpha, *beta])
        assert math.isclose(value, GOLDEN, rel_tol=1e-14, abs_tol=0.0)

    @settings(max_examples=200)
    @given(
        st.sampled_from((2, 3, 4)),
        st.lists(st.floats(-0.4, 0.4), min_size=24, max_size=24),
        st.floats(0.1, 10.0),
    )
    def test_strict_placements_stay_below_golden_ratio(self, dim, offsets, scale):
        alpha, beta = feasible_template(scale=scale)
        points = [list(p) + [0.0] * (dim - 2) for p in alpha + beta]
        for k, p in enumerate(points):
            for c in range(dim):
                p[c] += scale * offsets[k * 4 + c]
        value = _reference_cyclic_value(points)
        if value is None:  # the offsets broke the strict cyclic order
            return
        assert 1.0 <= value <= GOLDEN_CAP

    def test_graph_metrics_stay_below_two(self):
        # Shortest-path metrics of random graphs on the six points: agent i
        # reaches alternatives i, i+1, i+2 at increasing weights, and random
        # same-side edges add shortcuts. Triangle inequalities alone cap the
        # ratio at 2, and graph metrics do pass phi.
        values = []
        for t in range(600):
            rng = rng_for(2, t)
            edges = []
            for i in range(3):
                w = float(rng.uniform(0.5, 2.0))
                for k in range(3):
                    edges.append((i, 3 + (i + k) % 3, w))
                    w *= float(rng.uniform(1.0, 3.0))
            for p in range(6):
                for q in range(p + 1, 6):
                    if (p < 3) == (q < 3) and rng.random() < 0.7:
                        edges.append((p, q, float(rng.uniform(0.5, 10.0))))
            space = MetricSpace(6, edges)
            value = reference_cyclic_ratio([[space.dist_row(a)[3 + b] for b in range(3)] for a in range(3)])
            if value is not None:
                values.append(value)
        assert len(values) > 100
        assert GOLDEN < max(values) <= 2.0 * (1.0 + 1e-12)


class TestBoundFormulas:
    def test_log_size_robustness_caps(self):
        assert math.isclose(log_size_robustness_cap(16, 2.5), 2.5 * math.log(16))
        assert log_size_robustness_cap(32, 1.0) > log_size_robustness_cap(16, 1.0)
        assert log_size_robustness_cap(2, 1.0) == math.log(2)  # the smallest size

    def test_size_cap_guard(self):
        with pytest.raises(ValueError):
            log_size_robustness_cap(1, 1.0)

    def test_genus_cap(self):
        assert math.isclose(log_genus_robustness_cap(1, 3.0), 3.0 * math.log(2))
        assert log_genus_robustness_cap(5, 1.0) > log_genus_robustness_cap(2, 1.0)
        with pytest.raises(ValueError):
            log_genus_robustness_cap(0, 1.0)
