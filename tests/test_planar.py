import hashlib
import itertools
import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchrobust import (
    MetricSpace,
    OrdinalProfile,
    Placement,
    UtilityProfile,
    build_generating_space,
    genus_lower_bound,
    is_planar,
    nonplanar_profile,
    search_planar_representation,
)
from matchrobust import planar
from matchrobust.metric import utilities_from_space
from matchrobust.ordinal import TieError, TiePolicy, _stable_ranking, ordinal_from_utility_flagged
from matchrobust.seeding import rng_for

from conftest import (
    NINE_AGENT_PREFIXES,
    petersen,
    planar_by_kuratowski,
    reference_matches_nine_agent_cells,
    subdivided,
    support_space,
)


def complete_graph(v):
    return v, [(a, b) for a, b in itertools.combinations(range(v), 2)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


class TestIsPlanar:
    def test_k4_planar(self):
        assert is_planar(support_space(complete_graph(4))) is True

    def test_k5_not_planar(self):
        assert is_planar(support_space(complete_graph(5))) is False

    def test_k33_not_planar(self):
        assert is_planar(support_space(complete_bipartite(3, 3))) is False

    def test_knn_not_planar_from_three(self):
        for n in (3, 4, 5, 9):
            assert is_planar(support_space(complete_bipartite(n, n))) is False

    def test_k22_planar(self):
        assert is_planar(support_space(complete_bipartite(2, 2))) is True

    def test_repeated_edges_and_self_loops_ignored(self):
        triangle = [(0, 1), (1, 2), (0, 2)]
        assert is_planar(support_space((3, triangle * 3))) is True
        assert is_planar(support_space((3, triangle + [(1, 0), (2, 2)]))) is True

    def test_cube_at_the_bipartite_bound_is_planar(self):
        # The 3-cube is bipartite with exactly 2V - 4 = 12 edges, the most a
        # planar bipartite graph on 8 vertices can have.
        cube = support_space((8, [(a, a ^ bit) for a in range(8) for bit in (1, 2, 4) if a < a ^ bit]))
        assert len(cube.edges) == 12
        assert is_planar(cube) is True
        assert genus_lower_bound(cube) == 0

    def test_matches_reference_on_random_graphs(self, rng):
        for _ in range(300):
            v = int(rng.integers(3, 8))
            pairs = list(itertools.combinations(range(v), 2))
            mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
            edges = [p for p, keep in zip(pairs, mask) if keep]
            assert is_planar(support_space((v, edges))) == planar_by_kuratowski(v, edges)

    def test_reference_cap(self):
        with pytest.raises(ValueError):
            planar_by_kuratowski(9, [])


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
        space = support_space(graph)
        assert is_planar(space) is planar
        assert (genus_lower_bound(space) == 0) is planar

    @settings(max_examples=100)
    @given(multigraphs(max_vertices=8))
    def test_matches_kuratowski_search(self, graph):
        assert is_planar(support_space(graph)) is planar_by_kuratowski(*graph)


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
        space = support_space(graph)
        assert is_planar(space) is planar
        assert (genus_lower_bound(space) == 0) is planar

    def test_k33_union(self):
        union = support_space(disjoint_union(*[complete_bipartite(3, 3)] * 96))
        assert is_planar(union) is False
        assert genus_lower_bound(union) == 96

    def test_rules_leave_petersen_graph(self):
        with pytest.raises(RuntimeError, match="check_planarity"):
            is_planar(support_space(petersen()))


class TestGenusLowerBound:
    def test_k4_zero(self):
        assert genus_lower_bound(support_space(complete_graph(4))) == 0

    def test_k33_at_least_one(self):
        # Known genus of this graph is exactly 1; the bipartite Euler bound
        # must reach it.
        assert genus_lower_bound(support_space(complete_bipartite(3, 3))) == 1

    def test_k7_at_least_one(self):
        # Known genus of the 7-clique is exactly 1.
        assert genus_lower_bound(support_space(complete_graph(7))) == 1

    def test_zero_for_planar_graphs(self, rng):
        for _ in range(100):
            v = int(rng.integers(2, 8))
            pairs = list(itertools.combinations(range(v), 2))
            mask = rng.random(len(pairs)) < 0.4
            edges = [p for p, keep in zip(pairs, mask) if keep]
            space = support_space((v, edges))
            if is_planar(space):
                assert genus_lower_bound(space) == 0

    def test_sums_over_components(self, rng):
        # Two disjoint 3,3-bicliques.
        assert genus_lower_bound(support_space(disjoint_union(*[complete_bipartite(3, 3)] * 2))) == 2

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
        assert [genus_lower_bound(support_space(b)) for b in blocks] == [1, 2, 3, 1, 0, 0]
        offset, edges = disjoint_union(*blocks)
        perm = [int(x) for x in rng.permutation(offset)]
        shuffled = [(perm[a], perm[b]) for a, b in edges]
        assert genus_lower_bound(support_space((offset, shuffled))) == 7

    def test_repeated_edges_and_self_loops_ignored(self):
        v, k33 = complete_bipartite(3, 3)
        assert genus_lower_bound(support_space((v, k33 * 2))) == 1
        assert genus_lower_bound(support_space((v, k33 + [(0, 0), (4, 4)]))) == 1

    def test_large_bipartite_bound(self):
        # 9,9-biclique: bipartite Euler bound gives ceil((81 - 36 + 4)/4).
        assert genus_lower_bound(support_space(complete_bipartite(9, 9))) >= 13


class TestNineAgentProfile:
    def test_constrained_cells(self):
        p = nonplanar_profile(9)
        assert p.ranks[6][:3] == (6, 3, 2)
        assert p.ranks[0][:2] == (0, 3)
        assert [p.ranks[a][0] for a in range(9)] == list(range(9))
        assert [p.ranks[a][1] for a in range(9)] == [3, 4, 5, 1, 2, 0, 3, 4, 5]
        assert [p.ranks[a][2] for a in (6, 7, 8)] == [2, 0, 1]

    def test_every_constrained_cell_is_checked(self):
        base = nonplanar_profile(9).ranks
        for a in range(9):
            assert planar._agent_matches_cells(a, base[a])
            for pos in range(3 if a >= 6 else 2):
                row = list(base[a])
                row[pos], row[-1] = row[-1], row[pos]
                rows = base[:a] + (tuple(row),) + base[a + 1 :]
                assert not reference_matches_nine_agent_cells(OrdinalProfile(9, rows)), (a, pos)
                assert not planar._agent_matches_cells(a, row), (a, pos)

    def test_requires_nine(self):
        with pytest.raises(ValueError):
            nonplanar_profile(8)

    def test_larger_sizes_extend_ascending(self):
        p = nonplanar_profile(11)
        assert p.ranks[9] == tuple(range(11))
        assert reference_matches_nine_agent_cells(p)

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


def _full_route(space, placement) -> bool | str:
    """The nine-agent cell check through the whole induced profile: strict
    extraction, then every cell. A disconnected pair or a tie rejects, and
    the error's name is returned in place of False."""
    try:
        induced = utilities_from_space(space, placement, 9)
        return reference_matches_nine_agent_cells(ordinal_from_utility_flagged(induced, TiePolicy.STRICT)[0])
    except (ValueError, TieError) as exc:
        return type(exc).__name__


def _biclique() -> MetricSpace:
    return MetricSpace(18, planar._biclique_edges(nonplanar_profile(9)))


class TestCandidateFamily:
    def test_every_candidate_is_a_sparsified_biclique(self):
        # Agents on vertices 0-8, alternatives on 9-17, and 17 to 48 of the
        # 81 rank-weighted biclique edges. The even candidates' edges are
        # the ones drawn when every other candidate was a random graph.
        biclique = _biclique()
        allowed = set(biclique.edges)
        even = hashlib.sha256()
        for seed in (3, 910):
            for t in range(400):
                space = planar._candidate(seed, t, biclique)
                assert space.n_vertices == 18
                placement = space.place(range(9), range(9, 18))
                assert placement == Placement(tuple(range(9)), tuple(range(9, 18)))
                assert 17 <= len(space.edges) <= 48
                assert set(space.edges) <= allowed
                if t % 2 == 0:
                    even.update(repr(space.edges).encode())
        assert even.hexdigest() == "777f36d190cf009b8efd8e72901c5239ce888c693b95d9836bb6b32acd5be028"

    @settings(max_examples=60)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
    def test_sub_space_equals_checked_construction(self, seed, t):
        # The same draws through the checked constructor give the same
        # space, down to its adjacency and every distance row.
        full_edges = planar._biclique_edges(nonplanar_profile(9))
        rng = rng_for(seed, t)
        keep = int(rng.integers(17, 49))
        idx = rng.choice(81, size=keep, replace=False)
        expected = MetricSpace(18, [full_edges[i] for i in idx])
        space = planar._candidate(seed, t, _biclique())
        assert space.n_vertices == expected.n_vertices == 18
        assert space.quotient_map == expected.quotient_map == tuple(range(18))
        assert space.edges == expected.edges
        assert space._adj == expected._adj
        for v in range(18):
            assert space.dist_row(v) == expected.dist_row(v)

    def test_search_validates_the_biclique_once(self, monkeypatch):
        built = []
        original = MetricSpace.__init__

        def counting(self, vertex_count, edges):
            built.append(vertex_count)
            original(self, vertex_count, edges)

        monkeypatch.setattr(MetricSpace, "__init__", counting)
        assert search_planar_representation(candidates=50, seed=3) is None
        assert built == [18]


class TestSearchArguments:
    def test_negative_candidates_raise(self):
        with pytest.raises(ValueError, match="candidates >= 0"):
            search_planar_representation(candidates=-1)

    def test_zero_candidates_find_nothing(self):
        assert search_planar_representation(candidates=0, seed=910) is None


class TestSeed910Failures:
    def test_docstring_counts(self):
        # The counts quoted in search_planar_representation's docstring:
        # each candidate's first failing agent, and why it fails there.
        # Each agent's row is read from its own vertex's distances; the
        # unreachable test comes first, then ties, then the cells.
        biclique = _biclique()
        by_agent, by_cause = Counter(), Counter()
        for t in range(10_000):
            space = planar._candidate(910, t, biclique)
            for a, prefix in enumerate(NINE_AGENT_PREFIXES):
                d = space.dist_row(a)[9:]
                if math.inf in d:
                    cause = "unreachable"
                elif len(set(d)) < 9:
                    cause = "tie"
                elif tuple(sorted(range(9), key=d.__getitem__)[: len(prefix)]) != prefix:
                    cause = "missed cell"
                else:
                    continue
                by_agent[a] += 1
                by_cause[cause] += 1
                break
        assert by_agent == {0: 9162, 1: 766, 2: 65, 3: 5, 4: 2}
        assert by_cause == {"tie": 4255, "missed cell": 3646, "unreachable": 2099}


#: Nine distances drawn from a few values, so that ties, and the tie of 0.0
#: with -0.0, are common, or from every non-NaN float.
_NINE_DISTANCES = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(allow_nan=False), min_size=9, max_size=9
)


class TestStrictRanking:
    @given(_NINE_DISTANCES)
    @example([2.5, 1.0, 0.0, 3.0, 4.0, 5.0, 6.0, 7.0, -0.0])
    @example([8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
    def test_matches_stable_ranking(self, d):
        # The ranking the numpy route gave: a stable argsort of the
        # distances, and None when sorted neighbours are equal.
        order, ties = _stable_ranking(-np.array(d))
        assert planar._strict_ranking(d) == (None if ties.any() else order.tolist())


class TestRefutationPredicate:
    """The search rejects a candidate at its first failing agent; the
    verdict must be the full route's on every candidate."""

    @pytest.mark.parametrize("seed", [3, 910])
    def test_per_agent_check_matches_full_route(self, seed):
        biclique = _biclique()
        outcomes = set()
        for t in range(1200):
            space = planar._candidate(seed, t, biclique)
            placement = space.place(range(9), range(9, 18))
            full = _full_route(space, placement)
            assert planar._realizes_nine_agent_cells(space, placement) is (full is True), t
            outcomes.add(full)
        # The sparsified bicliques miss a cell, hit ties and cut agents off
        # from alternatives.
        assert {False, "ValueError", "TieError"} <= outcomes

    def test_band_biclique_variants_match_full_route(self, rng):
        # Candidates drawn by the search mostly fail at agent 0. These
        # variants of a realizing biclique (weights jittered, one ranking
        # given a tie, edges dropped, one vertex cut off) fail at any agent,
        # or pass.
        profile = nonplanar_profile(9)
        outcomes = set()
        for _ in range(400):
            w = 1.0 + 0.05 * np.arange(9) + rng.choice([0.0, 0.01, 0.03]) * rng.standard_normal((9, 9))
            if rng.random() < 0.2:
                a, pos = rng.integers(0, 9), rng.integers(0, 8)
                w[a, pos + 1] = w[a, pos]
            edges = [(a, 9 + x, w[a, pos]) for a in range(9) for pos, x in enumerate(profile.ranks[a])]
            drop = set(rng.choice(81, size=int(rng.integers(0, 3)), replace=False).tolist())
            if rng.random() < 0.1:
                cut = int(rng.integers(0, 18))
                drop |= {i for i, (a, x, _w) in enumerate(edges) if cut in (a, x)}
            space = MetricSpace(18, [e for i, e in enumerate(edges) if i not in drop])
            placement = space.place(range(9), range(9, 18))
            full = _full_route(space, placement)
            assert planar._realizes_nine_agent_cells(space, placement) is (full is True)
            outcomes.add(full)
        assert outcomes == {True, False, "ValueError", "TieError"}

    def test_base_weight_biclique_ties(self):
        # Shortest paths through the biclique's geometric rank weights tie
        # (agent 0 reaches alternatives 2, 4 and 7 at distance 6), so even
        # the unsparsified family member is rejected.
        space = _biclique()
        placement = space.place(range(9), range(9, 18))
        assert _full_route(space, placement) == "TieError"
        assert not planar._realizes_nine_agent_cells(space, placement)

    def test_band_biclique_passes_every_agent_and_is_nonplanar(self, monkeypatch):
        # Weights in [1, 1.4] make every detour (three edges or more) longer
        # than a direct edge, so the biclique realizes the profile.
        profile = nonplanar_profile(9)
        edges = [(a, 9 + x, 1.0 + 0.05 * pos) for a in range(9) for pos, x in enumerate(profile.ranks[a])]
        space = MetricSpace(18, edges)
        placement = space.place(range(9), range(9, 18))
        assert len(space.edges) == 81
        assert planar._realizes_nine_agent_cells(space, placement)
        assert _full_route(space, placement) is True
        assert is_planar(space) is False
        # Were it planar, the search would return it.
        monkeypatch.setattr(planar, "_candidate", lambda seed, t, biclique: space)
        monkeypatch.setattr(planar, "is_planar", lambda space: True)
        found = search_planar_representation(candidates=3, seed=0)
        assert found == (space, placement)
