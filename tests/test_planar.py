import itertools

import pytest

from matchrobust import (
    UtilityProfile,
    build_generating_space,
    genus_lower_bound,
    is_planar,
    nonplanar_profile,
    search_planar_representation,
)
from matchrobust.planar import matches_nine_agent_cells

from conftest import planar_by_kuratowski


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
        v1, e1 = complete_bipartite(3, 3)
        edges = e1 + [(a + 6, b + 6) for a, b in e1]
        assert genus_lower_bound((12, edges)) == 2

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
        offset, edges = 0, []
        for v, block_edges in blocks:
            edges += [(a + offset, b + offset) for a, b in block_edges]
            offset += v
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
