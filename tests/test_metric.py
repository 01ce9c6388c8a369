import math
import tracemalloc
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchrobust import (
    MetricSpace,
    NotPolarized,
    OrdinalProfile,
    Placement,
    UtilityProfile,
    build_generating_space,
    geometric_market,
    is_polarized,
    ordinal_from_utility_flagged,
    random_connected_space,
    union_generating_space,
    utilities_from_space,
    verify_generating,
)
from matchrobust import metric
from matchrobust.metric import (
    _ARRAY_KERNEL_MIN_VERTICES,
    _all_sources_dijkstra,
    component_labels,
    space_from_json_dict,
    space_to_json_dict,
)
from matchrobust.seeding import rng_for

from conftest import (
    all_profiles,
    band_utup,
    path_preference_agreement_check,
    reference_is_polarized,
    reference_random_connected_space,
)

#: Utilities at the edges of the float range: signed zeros, the smallest
#: subnormal and normal, values whose pairwise sums overflow, and -inf.
EDGE_UTILITIES = (
    0.0,
    -0.0,
    -5e-324,
    -2.2250738585072014e-308,
    -1.0,
    -2.0,
    -1e308,
    -1.7e308,
    -math.inf,
)


@st.composite
def polarity_profiles(draw):
    """Euclidean-realised (polarized), band (polarized), lattice (ties and
    coincident points) and random (mostly non-polarized) profiles with
    n = 1..7, scaled toward the float range edges, and with some entries
    overwritten by edge values."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(("euclidean", "lattice", "band", "random")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("euclidean", "lattice"):
        dim = int(rng.integers(1, 4))
        if kind == "euclidean":
            agents, alternatives = rng.normal(size=(n, dim)), rng.normal(size=(n, dim))
        else:
            agents, alternatives = rng.integers(-2, 3, (n, dim)), rng.integers(-2, 3, (n, dim))
        vals = -np.linalg.norm(agents[:, None, :] - alternatives[None, :, :], axis=2)
    elif kind == "band":
        vals = rng.uniform(-2.0, -1.0, (n, n))
    else:
        vals = rng.uniform(-10.0, -0.01, (n, n))
    vals = (vals * draw(st.sampled_from((1.0, 1e-300, 1e300, 1e307)))).tolist()
    edits = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from(EDGE_UTILITIES) | st.floats(max_value=0.0, allow_nan=False),
            ),
            max_size=n * n,
        )
    )
    for a, x, value in edits:
        vals[a][x] = value
    return UtilityProfile(n, vals)


class TestPolarity:
    def test_flat_columns_polarized(self):
        u = UtilityProfile(2, ((0.0, -10.0), (0.0, -10.0)))
        assert bool(is_polarized(u)) is True

    def test_violation_with_quadruple(self):
        u = UtilityProfile(2, ((-1.0, -10.0), (0.0, 0.0)))
        check = is_polarized(u)
        assert not check
        assert check.violation == (0, 1, 1, 0)

    def test_band_profiles_always_polarized(self, rng):
        for _ in range(50):
            assert bool(is_polarized(band_utup(3, rng)))

    @settings(max_examples=400)
    @given(polarity_profiles())
    def test_matches_scalar_reference(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check = is_polarized(u)
        assert (check.ok, check.violation) == reference_is_polarized(u)

    def test_edge_values_emit_no_warning(self):
        # -inf - -inf and -1.7e308 + -1.7e308 both occur in this profile;
        # each would raise a RuntimeWarning unless silenced.
        n = len(EDGE_UTILITIES)
        vals = [[EDGE_UTILITIES[(a + x) % n] for x in range(n)] for a in range(n)]
        u = UtilityProfile(n, vals)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            check = is_polarized(u)
        assert (check.ok, check.violation) == reference_is_polarized(u)


class TestMetricSpace:
    def test_quotients_zero_edges(self):
        space = MetricSpace(3, [(0, 1, 0.0), (1, 2, 2.0)])
        assert space.n_vertices == 2
        assert space.quotient_map[0] == space.quotient_map[1]
        assert space.dist_row(space.quotient_map[0])[space.quotient_map[2]] == 2.0

    def test_parallel_edges_keep_minimum(self):
        space = MetricSpace(2, [(0, 1, 5.0), (1, 0, 2.0)])
        assert space.dist_row(0)[1] == 2.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            MetricSpace(2, [(0, 1, -1.0)])

    def test_rejects_infinite_weight(self):
        # An infinite edge would join a component whose distances are infinite.
        with pytest.raises(ValueError, match="infinite"):
            MetricSpace(2, [(0, 1, math.inf)])

    @pytest.mark.parametrize(
        "edge", [(0, 3, 1.0), (3, 0, 1.0), (-1, 0, 1.0), (0, -1, 1.0), (0, 7, 1.0), (-1, -1, 0.0)]
    )
    def test_rejects_endpoint_out_of_range(self, edge):
        # Vertex 3 of a 3-vertex space is one past the last.
        with pytest.raises(ValueError, match="out of range"):
            MetricSpace(3, [edge])

    @pytest.mark.parametrize("edge", [(0, 1.7, 1.0), (1.0, 2, 1.0), (0, "1", 1.0)])
    def test_rejects_endpoint_that_is_not_an_integer(self, edge):
        # int() would read 1.7 as vertex 1 and "1" as vertex 1.
        with pytest.raises(TypeError):
            MetricSpace(3, [edge])

    @pytest.mark.parametrize("alpha, beta", [((0.9, 1), (2,)), ((0,), (2.2,)), (("0",), (1,))])
    def test_placement_rejects_vertex_that_is_not_an_integer(self, alpha, beta):
        with pytest.raises(TypeError):
            Placement(alpha, beta)

    def test_edge_subspace_equals_checked_construction(self, rng):
        # Distinct edge indices in any order, of a space whose zero-weight
        # edges merged vertices, give what the checked constructor builds
        # from the same edges.
        for _ in range(100):
            v = int(rng.integers(2, 40))
            base = random_connected_space(v, int(rng.integers(0, v)), rng)
            merged = [(int(a), int(b), 0.0) for a, b in rng.integers(0, v, size=(3, 2))]
            parent = MetricSpace(v, [*base.edges, *merged])
            idx = rng.permutation(len(parent.edges))[: int(rng.integers(0, len(parent.edges) + 1))].tolist()
            sub = parent._edge_subspace(idx)
            expected = MetricSpace(parent.n_vertices, [parent.edges[i] for i in idx])
            assert sub.n_vertices == expected.n_vertices == parent.n_vertices
            assert sub.quotient_map == expected.quotient_map == tuple(range(parent.n_vertices))
            assert sub.edges == expected.edges
            assert sub._adj == expected._adj
            assert sub.distance_matrix().tobytes() == expected.distance_matrix().tobytes()

    def test_tree_search_spends_its_whole_pop_budget(self):
        # On a tree every edge pushes once, which is the whole budget of
        # one pop per edge plus the source's, and the search finishes.
        space = MetricSpace(5, [(0, 1, 1.0), (1, 2, 1.0), (1, 3, 2.0), (3, 4, 1.0)])
        assert space.dist_row(2) == (2.0, 1.0, 0.0, 3.0, 4.0)

    def test_heap_search_past_its_pop_budget_raises(self):
        # A negative weight, which the constructor rejects, would make two
        # vertices push each other forever.
        space = MetricSpace(2, [(0, 1, 1.0)])
        space._adj = metric._adjacency(2, [(0, 1, -1.0)])
        with pytest.raises(RuntimeError, match="pushed an edge twice"):
            space.dist_row(0)

    def test_numpy_integers_read_as_ints(self):
        space = MetricSpace(3, [(np.int64(0), np.int32(1), np.float64(2.0)), (np.intp(1), 2, 1)])
        assert space.edges == ((0, 1, 2.0), (1, 2, 1.0))
        assert {type(v) for edge in space.edges for v in edge} == {int, float}
        placement = Placement(np.arange(2), (np.int32(3),))
        assert placement == Placement((0, 1), (3,))
        assert {type(v) for v in placement.alpha + placement.beta} == {int}

    @pytest.mark.parametrize("alpha, beta", [((3,), (0,)), ((0,), (3,)), ((-1,), (0,))])
    def test_place_rejects_vertex_out_of_range(self, alpha, beta):
        # Placements index the original vertices, three here, not the two
        # left after the zero edge is merged.
        space = MetricSpace(3, [(0, 1, 0.0), (1, 2, 1.0)])
        assert space.place((2,), (0,)) == Placement((1,), (0,))
        with pytest.raises(ValueError, match="out of range"):
            space.place(alpha, beta)

    def test_disconnected_distance_infinite(self):
        space = MetricSpace(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert math.isinf(space.dist_row(0)[2])
        assert len(space.components()) == 2

    def test_quotient_and_components_match_reference(self, rng):
        # networkx is the independent route: zero-weight classes numbered by
        # their smallest vertex, and components of the full support graph
        # seen through the quotient.
        for _ in range(200):
            v = int(rng.integers(1, 12))
            edges = []
            for _ in range(int(rng.integers(0, 2 * v))):
                a, b = int(rng.integers(0, v)), int(rng.integers(0, v))
                w = 0.0 if rng.random() < 0.4 else float(rng.uniform(0.5, 2.0))
                if a != b or w == 0.0:
                    edges.append((a, b, w))
            space = MetricSpace(v, edges)

            zero = nx.Graph()
            zero.add_nodes_from(range(v))
            zero.add_edges_from((a, b) for a, b, w in edges if w == 0.0)
            expected_qmap = [0] * v
            for i, cls in enumerate(sorted(nx.connected_components(zero), key=min)):
                for x in cls:
                    expected_qmap[x] = i
            assert space.quotient_map == tuple(expected_qmap)

            full = nx.Graph()
            full.add_nodes_from(range(v))
            full.add_edges_from((a, b) for a, b, _w in edges)
            expected = sorted(
                sorted({space.quotient_map[x] for x in comp})
                for comp in nx.connected_components(full)
            )
            assert space.components() == expected
            assert np.isfinite(space.distance_matrix()).all() == (len(expected) == 1)


    def test_triangle_inequality_random(self, rng):
        for _ in range(20):
            space = random_connected_space(8, 6, rng)
            d = space.distance_matrix()
            n = space.n_vertices
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert d[a][c] <= d[a][b] + d[b][c] + 1e-9

    def test_json_round_trip(self):
        space = MetricSpace(3, [(0, 1, 1.5), (1, 2, 2.5)])
        placement = Placement((0,), (2,))
        data = space_to_json_dict(space, placement)
        space2, placement2 = space_from_json_dict(data)
        assert space2.edges == space.edges
        assert placement2 == placement

    def test_dot_output(self):
        space = MetricSpace(2, [(0, 1, 1.0)])
        dot = space.to_dot()
        assert dot.startswith("graph") and "v0 -- v1" in dot


#: Edge weights for the distance kernels: integer ties, zero weights (merged
#: at construction), weights a sum of 1.0 absorbs, and weights whose sums
#: overflow to inf.
WEIGHT_PALETTES = {
    "uniform": None,
    "integer": (1.0, 2.0, 3.0),
    "zero": (0.0, 0.0, 1.0, 2.0),
    "absorbed": (1e-320, 3e-16, 1.0),
    "overflow": (1.7e308, 1.7e308, 1.0),
}


def _shape_edges(shape: str, v: int, rng: np.random.Generator) -> tuple[int, list]:
    """Vertex count and unweighted edges of a graph of the given shape."""
    if shape == "grid":
        side = max(1, round(math.sqrt(v)))
        edges = [
            (r * side + c, r * side + c + step)
            for r in range(side)
            for c in range(side)
            for step, fits in ((1, c + 1 < side), (side, r + 1 < side))
            if fits
        ]
        return side * side, edges
    if shape == "path":
        return v, [(i, i + 1) for i in range(v - 1)]
    if shape == "star":
        return v, [(0, i) for i in range(1, v)]
    if shape == "edgeless":
        return v, []
    if shape == "complete":
        return v, [(a, b) for a in range(v) for b in range(a + 1, v)]
    if shape == "biclique":
        half = v // 2
        return v, [(a, b) for a in range(half) for b in range(half, v)]
    if shape == "connected":
        order = rng.permutation(v).tolist()
        tree = [(order[i], order[int(rng.integers(0, i))]) for i in range(1, v)]
        return v, tree + [tuple(e) for e in rng.integers(0, v, (v, 2)).tolist()]
    return v, [tuple(e) for e in rng.integers(0, v, (int(rng.integers(0, v + 1)), 2)).tolist()]


@st.composite
def weighted_graphs(draw):
    """Random connected and disconnected graphs, paths, stars, grids,
    complete and complete bipartite graphs and edgeless graphs with 1..40
    vertices, under one weight palette each."""
    shape = draw(
        st.sampled_from(
            ("connected", "random", "path", "star", "grid", "complete", "biclique", "edgeless")
        )
    )
    palette = WEIGHT_PALETTES[draw(st.sampled_from(tuple(WEIGHT_PALETTES)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, pairs = _shape_edges(shape, draw(st.integers(1, 40)), rng)
    if palette is None:
        weights = rng.uniform(0.5, 3.0, len(pairs)).tolist()
    else:
        weights = [palette[int(i)] for i in rng.integers(0, len(palette), len(pairs))]
    return MetricSpace(v, [(a, b, w if a != b else 0.0) for (a, b), w in zip(pairs, weights)])


def _heap_rows(space: MetricSpace) -> np.ndarray:
    return np.array([space.dist_row(s) for s in range(space.n_vertices)])


def _kernel(space: MetricSpace) -> np.ndarray:
    return _all_sources_dijkstra(space.n_vertices, space.edges)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDistanceMatrix:
    """The all-sources array kernel against one heap Dijkstra per source:
    the same bytes, with no RuntimeWarning from sums that overflow. On
    complete and complete bipartite graphs one round settles many vertices
    per source."""

    @settings(max_examples=300)
    @given(weighted_graphs())
    def test_matches_heap_rows_byte_for_byte(self, space):
        assert _kernel(space).tobytes() == _heap_rows(space).tobytes()

    @pytest.mark.parametrize(
        "shape", ["connected", "random", "path", "star", "grid", "complete", "biclique"]
    )
    @pytest.mark.parametrize("palette", list(WEIGHT_PALETTES))
    def test_larger_shapes_match_heap_rows(self, shape, palette):
        rng = np.random.default_rng(7)
        v, pairs = _shape_edges(shape, 150, rng)
        weights = WEIGHT_PALETTES[palette] or (0.5, 1.25, 2.75)
        edges = [(a, b, weights[i % len(weights)] if a != b else 0.0) for i, (a, b) in enumerate(pairs)]
        space = MetricSpace(v, edges)
        assert _kernel(space).tobytes() == _heap_rows(space).tobytes()

    @pytest.mark.parametrize(
        "v, edges, expected",
        [
            (1, [], [[0.0]]),
            (2, [], [[0.0, math.inf], [math.inf, 0.0]]),
            (3, [(0, 1, 1.7e308), (1, 2, 1.7e308)],
             [[0.0, 1.7e308, math.inf], [1.7e308, 0.0, 1.7e308], [math.inf, 1.7e308, 0.0]]),
            (3, [(0, 1, 1.0), (1, 2, 1e-320), (0, 2, 2.0)],
             [[0.0, 1.0, 1.0], [1.0, 0.0, 1e-320], [1.0, 1e-320, 0.0]]),
            (3, [(0, 1, 1.0), (1, 2, 3e-16), (0, 2, 1.0 + 4e-16)],
             [[0.0, 1.0, 1.0 + 3e-16], [1.0, 0.0, 3e-16], [3e-16 + 1.0, 3e-16, 0.0]]),
            # Settling vertex 2 of source 0 in the round that settles vertex
            # 1 (a bound of twice the lightest weight) would relax it at 1.9
            # before 1's edge brings it down to 1.5, leaving vertex 3 at 2.4.
            (4, [(0, 1, 1.0), (0, 2, 1.9), (1, 2, 0.5), (2, 3, 0.5)],
             [[0.0, 1.0, 1.5, 2.0], [1.0, 0.0, 0.5, 1.0], [1.5, 0.5, 0.0, 0.5], [2.0, 1.0, 0.5, 0.0]]),
        ],
        ids=["single-vertex", "edgeless", "overflow", "absorbed", "rounded", "settle-bound"],
    )
    def test_small_cases(self, v, edges, expected):
        assert _kernel(MetricSpace(v, edges)).tolist() == expected

    def test_complete_space_peak_memory(self):
        # Each round relaxes its settled entries in bounded blocks; relaxing
        # a round's candidates at once peaks near 200 MiB here.
        v = 200
        weights = np.random.default_rng(v).uniform(0.5, 3.0, (v, v))
        space = MetricSpace(v, [(a, b, weights[a, b]) for a in range(v) for b in range(a + 1, v)])
        tracemalloc.start()
        try:
            space.distance_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("shape", ["connected", "grid", "star", "complete", "biclique"])
    def test_small_relaxation_blocks_match_heap_rows(self, shape, block, monkeypatch):
        # A bound of one candidate relaxes each settled entry on its own; a
        # bound of 7 groups a few, never splitting one vertex's slice.
        monkeypatch.setattr(metric, "_RELAX_BLOCK_ELEMENTS", block)
        v, pairs = _shape_edges(shape, 40, np.random.default_rng(3))
        weights = np.random.default_rng(4).uniform(0.5, 3.0, len(pairs)).tolist()
        space = MetricSpace(v, [(a, b, w if a != b else 0.0) for (a, b), w in zip(pairs, weights)])
        assert _kernel(space).tobytes() == _heap_rows(space).tobytes()

    @pytest.mark.parametrize(
        "vertices", [_ARRAY_KERNEL_MIN_VERTICES - 1, _ARRAY_KERNEL_MIN_VERTICES, 150]
    )
    def test_cached_read_only_on_either_route(self, vertices, monkeypatch):
        space = random_connected_space(vertices, vertices // 2, np.random.default_rng(vertices))
        kernel_calls = []
        monkeypatch.setattr(
            metric,
            "_all_sources_dijkstra",
            lambda *args: kernel_calls.append(args) or _all_sources_dijkstra(*args),
        )
        d = space.distance_matrix()
        assert space.distance_matrix() is d
        # Only spaces of _ARRAY_KERNEL_MIN_VERTICES and more take the array
        # kernel, and the cached matrix is not computed again.
        assert len(kernel_calls) == (vertices >= _ARRAY_KERNEL_MIN_VERTICES)
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 1] = 0.0
        assert d.tobytes() == _heap_rows(space).tobytes()


class TestComponentLabels:
    def test_labels_are_smallest_vertex(self):
        label, parity = component_labels(6, [(3, 1), (1, 4), (5, 5)])
        assert label == [0, 1, 2, 1, 1, 5]
        assert parity[3] != parity[1] and parity[4] != parity[1]

    def test_parity_detects_bipartite_components(self, rng):
        for _ in range(200):
            v = int(rng.integers(1, 10))
            edges = [
                (int(rng.integers(0, v)), int(rng.integers(0, v)))
                for _ in range(int(rng.integers(0, 2 * v)))
            ]
            label, parity = component_labels(v, edges)
            g = nx.Graph()
            g.add_nodes_from(range(v))
            g.add_edges_from(edges)
            for comp in nx.connected_components(g):
                assert {label[x] for x in comp} == {min(comp)}
                proper = all(parity[a] != parity[b] for a, b in edges if a in comp)
                assert proper == nx.is_bipartite(g.subgraph(comp))


class TestBuildGeneratingSpace:
    def test_single_pair(self):
        u = UtilityProfile(1, ((-5.0,),))
        space, placement = build_generating_space(u)
        assert space.n_vertices == 2
        assert space.dist_row(placement.alpha[0])[placement.beta[0]] == 5.0

    def test_n2_direct_edges_are_shortest(self, rng):
        u = band_utup(2, rng)
        space, placement = build_generating_space(u)
        assert space.n_vertices == 4
        for a in range(2):
            for x in range(2):
                assert math.isclose(
                    space.dist_row(placement.alpha[a])[placement.beta[x]], -u.values[a][x]
                )

    def test_not_polarized_raises_with_witness(self):
        u = UtilityProfile(2, ((-1.0, -10.0), (0.0, 0.0)))
        with pytest.raises(NotPolarized) as err:
            build_generating_space(u)
        assert err.value.violation == (0, 1, 1, 0)

    def test_zero_utility_merges_vertices(self):
        u = UtilityProfile(2, ((0.0, -10.0), (0.0, -10.0)))
        space, placement = build_generating_space(u)
        assert placement.alpha[0] == placement.beta[0] == placement.alpha[1]
        assert space.dist_row(placement.alpha[0])[placement.beta[1]] == 10.0


class TestUnionGeneratingSpace:
    def test_single_profile_matches_build(self, rng):
        u = band_utup(3, rng)
        space1, placement1 = build_generating_space(u)
        space2, placements2 = union_generating_space([u])
        assert space2.n_vertices == space1.n_vertices
        assert placements2[0] == placement1

    def test_full_n2_size(self):
        market = geometric_market(2, 2.0)
        profs = [market.men.utilities(r) for r in all_profiles(2)]
        space, placements = union_generating_space(profs)
        assert space.n_vertices == 16 == 2 * 2 * math.factorial(2) ** 2
        assert len(placements) == 4
        assert len(space.components()) == 4

    def test_full_n3_size(self):
        market = geometric_market(3, 2.0)
        profs = [market.men.utilities(r) for r in all_profiles(3)]
        space, placements = union_generating_space(profs)
        assert space.n_vertices == 1296 == 2 * 3 * math.factorial(3) ** 3
        assert len(placements) == 216

    def test_rejects_infinite_utility(self, rng):
        # No finite distance realizes -inf, so the space would not generate u.
        u = UtilityProfile(2, ((-1.0, -math.inf), (-1.0, -1.0)))
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            union_generating_space([band_utup(2, rng), u])
        with pytest.raises(ValueError, match=r"\(0,1\)"):
            build_generating_space(u)

    def test_component_not_polarized_rejected(self, rng):
        good = band_utup(2, rng)
        bad = UtilityProfile(2, ((-1.0, -10.0), (0.0, 0.0)))
        with pytest.raises(NotPolarized):
            union_generating_space([good, bad])


class TestUtilitiesFromSpace:
    def test_round_trip(self, rng):
        u = band_utup(3, rng)
        space, placement = build_generating_space(u)
        assert np.array_equal(utilities_from_space(space, placement, 3).values, u.values)

    def test_coincident_placement_zero_utility(self, rng):
        space = random_connected_space(5, 3, rng)
        placement = Placement((0, 1), (0, 2))
        u = utilities_from_space(space, placement, 2)
        assert u.values[0][0] == 0.0

    def test_always_polarized_random(self, rng):
        for _ in range(200):
            v = int(rng.integers(3, 9))
            space = random_connected_space(v, int(rng.integers(0, 6)), rng)
            n = int(rng.integers(2, 4))
            placement = Placement(
                tuple(int(rng.integers(0, space.n_vertices)) for _ in range(n)),
                tuple(int(rng.integers(0, space.n_vertices)) for _ in range(n)),
            )
            assert bool(is_polarized(utilities_from_space(space, placement, n)))

    def test_index_out_of_range(self):
        space = MetricSpace(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            utilities_from_space(space, Placement((0, 5), (0, 1)), 2)

    def test_disconnected_pair_rejected(self):
        space = MetricSpace(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError):
            utilities_from_space(space, Placement((0,), (2,)), 1)

    @pytest.mark.parametrize("alpha, beta", [((0, 1), (2,)), ((0,), (1, 2))])
    def test_either_side_of_the_wrong_size_rejected(self, alpha, beta):
        space = MetricSpace(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError, match="does not cover"):
            utilities_from_space(space, Placement(alpha, beta), 2)

    @pytest.mark.parametrize("alpha, beta", [((2,), (0,)), ((0,), (2,))])
    def test_vertex_one_past_the_last_rejected(self, alpha, beta):
        space = MetricSpace(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError, match="out of range"):
            utilities_from_space(space, Placement(alpha, beta), 1)


class TestVerifyGenerating:
    def test_round_trip_true(self, rng):
        u = band_utup(3, rng)
        space, placement = build_generating_space(u)
        assert verify_generating(space, placement, u, tol=1e-9)

    def test_exact_realization_at_zero_tolerance(self, rng):
        # Every direct edge is the shortest path, so each distance is the
        # edge weight exactly and the largest error is 0.0.
        u = band_utup(3, rng)
        space, placement = build_generating_space(u)
        assert verify_generating(space, placement, u, tol=0.0)

    def test_perturbed_distance_false(self, rng):
        u = band_utup(2, rng)
        space, placement = build_generating_space(u)
        tol = 1e-6
        bumped = UtilityProfile(
            2,
            tuple(
                tuple(v - (2 * tol if (a, x) == (0, 0) else 0.0) for x, v in enumerate(row))
                for a, row in enumerate(u.values)
            ),
        )
        assert not verify_generating(space, placement, bumped, tol=tol)

    def test_mismatched_n_false(self, rng):
        u = band_utup(2, rng)
        space, placement = build_generating_space(u)
        bigger = band_utup(3, rng)
        assert not verify_generating(space, placement, bigger, tol=1e-9)


class TestPathAgreement:
    def test_disjoint_union_vacuous(self, rng):
        u = band_utup(2, rng)
        profiles = [u, band_utup(2, rng)]
        space, placements = union_generating_space(profiles)
        r = ordinal_from_utility_flagged(u)[0]
        assert bool(path_preference_agreement_check(space, placements[0], r))

    def test_bipartite_construction_direct_edges(self, rng):
        for _ in range(20):
            u = band_utup(3, rng)
            space, placement = build_generating_space(u)
            r = ordinal_from_utility_flagged(u)[0]
            assert bool(path_preference_agreement_check(space, placement, r))

    def test_random_spaces_never_violate(self, rng):
        checked = 0
        for _ in range(500):
            v = int(rng.integers(4, 10))
            space = random_connected_space(v, int(rng.integers(0, 8)), rng)
            placement = Placement(
                tuple(int(rng.integers(0, space.n_vertices)) for _ in range(3)),
                tuple(int(rng.integers(0, space.n_vertices)) for _ in range(3)),
            )
            u = utilities_from_space(space, placement, 3)
            try:
                r = ordinal_from_utility_flagged(u)[0]
            except Exception:
                continue  # ties: placement does not represent a strict profile
            checked += 1
            assert bool(path_preference_agreement_check(space, placement, r))
        assert checked > 200

    def test_seven_agents_check_every_quadruple(self, rng):
        # 21 agent pairs x 42 ordered alternative pairs = 882 quadruples.
        u = band_utup(7, rng)
        space, placement = build_generating_space(u)
        result = path_preference_agreement_check(space, placement, ordinal_from_utility_flagged(u)[0])
        assert result.ok and result.checked == 882

    def test_representation_mismatch_rejected(self, rng):
        u = band_utup(3, rng)
        space, placement = build_generating_space(u)
        r = ordinal_from_utility_flagged(u)[0]
        wrong = OrdinalProfile(3, tuple(tuple(reversed(row)) for row in r.ranks))
        with pytest.raises(ValueError):
            path_preference_agreement_check(space, placement, wrong)


class _CountingGenerator:
    """A generator that records the ``size`` of each ``integers`` call. When
    ``stuck``, its scalar draws all return ``low``: the spanning tree is a
    star and every extra-edge try is a self-loop."""

    def __init__(self, seed, stuck=False):
        self._rng, self._stuck, self.sizes = rng_for(seed), stuck, []

    def integers(self, low, high=None, size=None):
        self.sizes.append(size)
        draw = self._rng.integers(low, high, size=size)
        return low if self._stuck and size is None else draw

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _next_draws(rng):
    return rng.integers(0, 7, size=3).tolist(), rng.uniform(), int(rng.integers(0, 5))


class TestRandomConnectedSpace:
    @pytest.mark.parametrize("vertices", range(1, 9))
    def test_stream_matches_try_by_try_draws(self, vertices):
        # The edges, the generator's state (buffered 32-bit half included)
        # and its next draws must be what the try-by-try reference leaves,
        # whether or not the budget runs out: spaces drawn for the CLI's
        # pinned outputs depend on both.
        exhausted = 0
        for extra in range(2 * vertices + 3):
            for seed in range(50):
                lib_rng, ref_rng = rng_for(seed), rng_for(seed)
                space = random_connected_space(vertices, extra, lib_rng)
                edges = reference_random_connected_space(vertices, extra, ref_rng)
                assert space.edges == MetricSpace(vertices, edges).edges
                assert lib_rng.bit_generator.state == ref_rng.bit_generator.state
                assert _next_draws(lib_rng) == _next_draws(ref_rng)
                exhausted += len(edges) < vertices - 1 + extra
        # The tree and the most extras asked for outnumber the pairs.
        if 3 * vertices + 1 > vertices * (vertices - 1) // 2:
            assert exhausted > 0

    def test_tries_stop_at_the_budget(self):
        # A star on 4 vertices never completes, so all 50 * (2 + 1) tries
        # run, two scalar draws each, after one draw per tree edge.
        rng = _CountingGenerator(0, stuck=True)
        space = random_connected_space(4, 2, rng)
        assert len(space.edges) == 3
        assert rng.sizes == [None] * (3 + 2 * 150)

    @pytest.mark.parametrize("vertices", [1, 2, 3, 4])
    def test_complete_graph_runs_every_try(self, vertices):
        # 20 extras never fit, so the graph completes and every one of the
        # 50 * 21 tries still draws its two endpoints one at a time, after
        # one draw per tree edge.
        rng = _CountingGenerator(vertices)
        space = random_connected_space(vertices, 20, rng)
        assert len(space.edges) == vertices * (vertices - 1) // 2
        assert rng.sizes == [None] * (vertices - 1 + 2 * 50 * 21)
