import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchrobust import (
    UtilityProfile,
    build_generating_space,
    genus_lower_bound,
    is_planar,
    nonplanar_profile,
    search_planar_representation,
)
from matchrobust.planar import matches_nine_agent_cells

from conftest import petersen, planar_by_kuratowski, subdivided


def complete_graph(v):
    return v, [(a, b) for a, b in itertools.combinations(range(v), 2)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


class TestIsPlanar:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4)) is True

    def test_k5_not_planar(self):
        assert is_planar(complete_graph(5)) is False

    def test_k33_not_planar(self):
        assert is_planar(complete_bipartite(3, 3)) is False

    def test_knn_not_planar_from_three(self):
        for n in (3, 4, 5, 9):
            assert is_planar(complete_bipartite(n, n)) is False

    def test_k22_planar(self):
        assert is_planar(complete_bipartite(2, 2)) is True

    def test_repeated_edges_and_self_loops_ignored(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        assert is_planar((3, triangle * 3)) is True
        assert is_planar((3, triangle + [(1, 0), (2, 2)])) is True

    def test_matches_reference_on_random_graphs(self, rng):
        for _ in range(300):
            v = int(rng.integers(3, 8))
            pairs = list(itertools.combinations(range(v), 2))
            mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
            edges = [p for p, keep in zip(pairs, mask) if keep]
            assert is_planar((v, edges)) == planar_by_kuratowski(v, edges)

    def test_reference_cap(self):
        with pytest.raises(ValueError):
            planar_by_kuratowski(9, [])

    @pytest.mark.parametrize("edge", [(0, 7), (0, -1), (3, 0), (-1, -1)])
    @pytest.mark.parametrize("function", [is_planar, genus_lower_bound])
    def test_out_of_range_endpoint_rejected(self, function, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\)"):
            function((3, [(0, 1), edge, (1, 2)]))


def disjoint_union(*graphs):
    offset, edges = 0, []
    for v, es in graphs:
        edges += [(a + offset, b + offset) for a, b in es]
        offset += v
    return offset, edges


KURATOWSKI = [complete_graph(5), complete_bipartite(3, 3)]


def nx_planar(vertex_count, edges):
    g = nx.Graph()
    g.add_nodes_from(range(vertex_count))
    g.add_edges_from((a, b) for a, b in edges if a != b)
    return nx.check_planarity(g, counterexample=False)[0]


@st.composite
def _dense_core(draw):
    v = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(v), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return v, [p for i, p in enumerate(pairs) if mask >> i & 1]


@st.composite
def _bipartite_core(draw):
    # Edge count one under, at, or one over the bipartite planar bound 2V - 4.
    a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    pairs = draw(st.permutations(complete_bipartite(a, b)[1]))
    count = 2 * (a + b) - 4 + draw(st.sampled_from([-1, 0, 1]))
    return a + b, pairs[: max(0, count)]


@st.composite
def multigraphs(draw, max_vertices):
    """A multigraph of at most ``max_vertices`` vertices: disjoint small
    cores with edges subdivided into degree-2 chains, pendant trees,
    isolated vertices, self-loops and repeated edges, shuffled."""
    named = [g for g in KURATOWSKI + [petersen()] if g[0] <= max_vertices]
    core = st.one_of(_dense_core(), _bipartite_core(), st.sampled_from(named))
    v, edges = 0, []
    for _ in range(draw(st.integers(1, 3))):
        core_v, core_edges = draw(core)
        if v and v + core_v > max_vertices:
            break
        v, edges = disjoint_union((v, edges), (core_v, core_edges))
    for index, length in draw(st.lists(st.tuples(st.integers(0), st.integers(1, 4)), max_size=4)):
        if edges and v + length <= max_vertices:
            a, b = edges.pop(index % len(edges))
            chain = [a, *range(v, v + length), b]
            v += length
            edges += zip(chain, chain[1:])
    for anchor in draw(st.lists(st.integers(0), max_size=5)):
        if v < max_vertices:
            edges.append((anchor % v, v))
            v += 1
    v = min(max_vertices, v + draw(st.integers(0, 2)))
    edges += [(x % v, x % v) for x in draw(st.lists(st.integers(0), max_size=2))]
    if edges:
        edges += [edges[i % len(edges)][::-1] for i in draw(st.lists(st.integers(0), max_size=3))]
    perm = draw(st.permutations(range(v)))
    return v, [(perm[a], perm[b]) for a, b in edges]


class TestPlanarityRules:
    @settings(max_examples=300)
    @given(multigraphs(max_vertices=40))
    def test_matches_networkx(self, graph):
        planar = nx_planar(*graph)
        assert is_planar(graph) is planar
        assert (genus_lower_bound(graph) == 0) is planar

    @settings(max_examples=100)
    @given(multigraphs(max_vertices=8))
    def test_matches_kuratowski_search(self, graph):
        assert is_planar(graph) is planar_by_kuratowski(*graph)


class TestDecidedWithoutNetworkx:
    @pytest.fixture(autouse=True)
    def refuse_networkx(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise RuntimeError("networkx.check_planarity called")

        monkeypatch.setattr(nx, "check_planarity", refuse)

    @pytest.mark.parametrize(
        "graph, planar",
        [
            # At most 8 edges.
            ((6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)]), True),
            ((6, complete_bipartite(3, 3)[1][:-1]), True),
            (complete_graph(4), True),
            ((12, complete_graph(4)[1] * 3), True),
            # Euler bound.
            (complete_graph(5), False),
            (complete_graph(7), False),
            # Bipartite bound.
            (complete_bipartite(3, 3), False),
            (complete_bipartite(4, 4), False),
            (complete_bipartite(3, 5), False),
            # Settled once degree-2 chains and pendant trees are reduced.
            (subdivided(complete_graph(5), 2), False),
            (subdivided(complete_bipartite(3, 3), 1), False),
            (subdivided(complete_graph(4), 3), True),
            ((40, [(i, i + 1) for i in range(39)] + [(0, 39), (5, 20)]), True),
            # Twelve triangles around a ring: smoothing each apex repeats a
            # ring edge, and only dropping it lets the ring collapse too.
            (
                (24, [e for i in range(12)
                      for e in ((i, 12 + i), (12 + i, (i + 1) % 12), (i, (i + 1) % 12))]),
                True,
            ),
        ],
    )
    def test_rules_decide(self, graph, planar):
        assert is_planar(graph) is planar
        assert (genus_lower_bound(graph) == 0) is planar

    def test_k33_union(self):
        union = disjoint_union(*[complete_bipartite(3, 3)] * 96)
        assert is_planar(union) is False
        assert genus_lower_bound(union) == 96

    def test_rules_leave_petersen_graph(self):
        with pytest.raises(RuntimeError, match="check_planarity"):
            is_planar(petersen())


class TestGenusLowerBound:
    def test_k4_zero(self):
        assert genus_lower_bound(complete_graph(4)) == 0

    def test_k33_at_least_one(self):
        # Known genus of this graph is exactly 1; the bipartite Euler bound
        # must reach it.
        assert genus_lower_bound(complete_bipartite(3, 3)) == 1

    def test_k7_at_least_one(self):
        # Known genus of the 7-clique is exactly 1.
        assert genus_lower_bound(complete_graph(7)) == 1

    def test_zero_for_planar_graphs(self, rng):
        for _ in range(100):
            v = int(rng.integers(2, 8))
            pairs = list(itertools.combinations(range(v), 2))
            mask = rng.random(len(pairs)) < 0.4
            edges = [p for p, keep in zip(pairs, mask) if keep]
            if is_planar((v, edges)):
                assert genus_lower_bound((v, edges)) == 0

    def test_sums_over_components(self, rng):
        # Two disjoint 3,3-bicliques.
        assert genus_lower_bound(disjoint_union(*[complete_bipartite(3, 3)] * 2)) == 2

        # Bipartite and non-bipartite nonplanar blocks, a planar block and an
        # isolated vertex, under a shuffled vertex numbering. Per block:
        # K_{3,3} 1, K_8 2, K_{5,5} 3 (bipartite bound), K_5 1, K_4 0.
        blocks = [
            complete_bipartite(3, 3),
            complete_graph(8),
            complete_bipartite(5, 5),
            complete_graph(5),
            complete_graph(4),
            (1, []),
        ]
        assert [genus_lower_bound(b) for b in blocks] == [1, 2, 3, 1, 0, 0]
        offset, edges = disjoint_union(*blocks)
        perm = [int(x) for x in rng.permutation(offset)]
        shuffled = [(perm[a], perm[b]) for a, b in edges]
        assert genus_lower_bound((offset, shuffled)) == 7

    def test_repeated_edges_and_self_loops_ignored(self):
        v, k33 = complete_bipartite(3, 3)
        assert genus_lower_bound((v, k33 * 2)) == 1
        assert genus_lower_bound((v, k33 + [(0, 0), (4, 4)])) == 1

    def test_large_bipartite_bound(self):
        # 9,9-biclique: bipartite Euler bound gives ceil((81 - 36 + 4)/4).
        assert genus_lower_bound(complete_bipartite(9, 9)) >= 13


class TestNineAgentProfile:
    def test_constrained_cells(self):
        p = nonplanar_profile(9)
        assert p.ranks[6][:3] == (6, 3, 2)
        assert p.ranks[0][:2] == (0, 3)
        assert [p.ranks[a][0] for a in range(9)] == list(range(9))
        assert [p.ranks[a][1] for a in range(9)] == [3, 4, 5, 1, 2, 0, 3, 4, 5]
        assert [p.ranks[a][2] for a in (6, 7, 8)] == [2, 0, 1]

    def test_requires_nine(self):
        with pytest.raises(ValueError):
            nonplanar_profile(8)

    def test_larger_sizes_extend_ascending(self):
        p = nonplanar_profile(11)
        assert p.ranks[9] == tuple(range(11))
        assert matches_nine_agent_cells(p)

    def test_generating_space_nonplanar(self):
        # Any bipartite realization of the profile is a 9,9-biclique.
        p = nonplanar_profile(9)
        values = [[0.0] * 9 for _ in range(9)]
        for a in range(9):
            for pos, x in enumerate(p.ranks[a]):
                values[a][x] = -(1.0 + 0.05 * pos)  # band keeps it polarized
        u = UtilityProfile(9, tuple(tuple(row) for row in values))
        space, _placement = build_generating_space(u)
        assert is_planar(space) is False
        assert genus_lower_bound(space) >= 1

    def test_refutation_search_finds_nothing_small(self):
        assert search_planar_representation(candidates=500, seed=3) is None
