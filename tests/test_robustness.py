import hashlib
import importlib
import itertools
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matchrobust import (
    CriticalSpikeSampler,
    distinguishing_profile,
    DivisionByZeroUtility,
    ExtensionalProfile,
    IidUniformFactorSampler,
    MatchingMarket,
    OrdinalProfile,
    Perturbation,
    PerturbationSample,
    RankBasedProfile,
    UtilityProfile,
    adversarial_witness,
    spike_factor,
    apply_perturbation,
    critical_consecutive_ratio,
    critical_market,
    geometric_market,
    ordinal_from_utility_flagged,
    preservation_probability,
    rank_slot_factor_stats,
    robustness,
    robustness_by_search,
    sufficient_robustness_level,
    uniform_profile,
)
from matchrobust.markets import rank_scatter
from matchrobust.ordinal import TiePolicy, _distinguishing_rows, phi
from matchrobust.robustness import _FULL_SCAN, _breakable, _build_witness, _first_hit, _scan, _trial_blocks
from matchrobust.seeding import rng_for

from conftest import (
    random_extensional_market,
    random_extensional_profile,
    reference_bisection,
    reference_consecutive_pairs,
    reference_breaks,
    reference_first_break,
    reference_spike_flips,
    reference_witness,
    witness_pairs,
)

# The package re-exports the function ``robustness`` under the module's name.
robustness_module = importlib.import_module("matchrobust.robustness")
ordinal_module = importlib.import_module("matchrobust.ordinal")


class TestWitnessVerdict:
    def test_geometric_below_ratio(self):
        assert adversarial_witness(geometric_market(3, 2.0), 1.9) is None

    def test_geometric_at_ratio_strict_fails(self):
        assert adversarial_witness(geometric_market(3, 2.0), 2.0) is not None

    def test_level_one_always_robust(self, rng):
        for _ in range(5):
            market = random_extensional_market(2, rng)
            assert adversarial_witness(market, 1.0) is None

    def test_rejects_sub_one_level(self):
        with pytest.raises(ValueError):
            adversarial_witness(geometric_market(2, 2.0), 0.5)

    def test_rejects_nan_level(self):
        for c in (math.nan, math.inf):
            with pytest.raises(ValueError):
                adversarial_witness(geometric_market(2, 2.0), c)


class TestRobustnessFormula:
    def test_geometric_exact(self):
        assert robustness(geometric_market(3, 2.0)) == 2.0
        assert robustness(geometric_market(4, 3.0)) == 3.0

    def test_single_tight_ratio_caps(self):
        men = RankBasedProfile(3, (-1.0, -1.5, -30.0))
        women = RankBasedProfile(3, (-1.0, -4.0, -16.0))
        assert robustness(MatchingMarket(men, women)) == 1.5

    def test_n1_infinite_sentinel(self):
        market = MatchingMarket(RankBasedProfile(1, (-1.0,)), RankBasedProfile(1, (-1.0,)))
        assert math.isinf(robustness(market))

    def test_zero_denominator_reported(self):
        men = RankBasedProfile(2, (0.0, -2.0))
        market = MatchingMarket(men, men)
        with pytest.raises(DivisionByZeroUtility) as err:
            robustness(market)
        assert err.value.agent == 0
        assert err.value.profile is not None

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_symmetric_collapse_matches_every_profile(self, rng, n):
        # The ratio minimum over all (n!)^n profiles of each side, computed
        # here, equals the one the representative profile gives.
        perms = list(itertools.permutations(range(n)))
        for _ in range(3):
            sides = [
                RankBasedProfile(n, tuple(sorted(-rng.uniform(0.1, 10.0, size=n), reverse=True)))
                for _ in range(2)
            ]
            best = math.inf
            for side in sides:
                for rows in itertools.product(perms, repeat=n):
                    r = OrdinalProfile(n, rows)
                    u = side.utilities(r).values
                    for a in range(n):
                        for i in range(n - 1):
                            best = min(best, u[a][rows[a][i + 1]] / u[a][rows[a][i]])
            assert robustness(MatchingMarket(*sides)) == best

    def test_supremum_characterization(self, rng):
        # robustness() is the threshold of the witness search.
        for _ in range(5):
            market = random_extensional_market(3, rng)
            xi = robustness(market)
            assert adversarial_witness(market, xi * (1 - 1e-9)) is None
            assert adversarial_witness(market, xi) is not None


class TestBisectionOracle:
    def test_geometric_bases(self):
        for base in (2.0, 3.0):
            got = robustness_by_search(geometric_market(3, base), tol=1e-6)
            assert abs(got - base) <= 1e-5

    def test_agrees_with_formula_on_random_markets(self, rng):
        for _ in range(20):
            market = random_extensional_market(3, rng)
            xi = robustness(market)
            got = robustness_by_search(market, tol=1e-5)
            assert abs(got - xi) <= 1e-4

    def test_n1_infinite(self):
        market = MatchingMarket(RankBasedProfile(1, (-1.0,)), RankBasedProfile(1, (-1.0,)))
        assert math.isinf(robustness_by_search(market))

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1e-300])
    def test_tol_below_float_spacing_stops_at_resolution(self, tol):
        # The bracket closes on the float boundary at the ratio 2.
        assert robustness_by_search(geometric_market(3, 2.0), tol=tol) == 2.0

    def test_bracket_as_wide_as_tol_stops(self):
        # [1, 2] breaks at 1.5 and closes to [1, 1.5], exactly tol wide.
        assert robustness_by_search(geometric_market(3, 1.3), tol=0.5) == 1.25

    def test_rejects_nan_tol(self):
        for tol in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                robustness_by_search(geometric_market(3, 2.0), tol=tol)

    @given(
        st.one_of(
            st.floats(1.0, 1e300, exclude_min=True),
            st.floats(0.0, 300.0).map(lambda e: 10.0**e),
        ),
        st.integers(2, 3),
    )
    def test_agrees_with_formula_up_to_huge_bases(self, base, n):
        # The bracket keeps doubling far beyond any fixed cap.
        assume(base > 1.0 and (n == 2 or base < 1e150))  # base ** (n - 1) stays finite
        market = geometric_market(n, base)
        xi = robustness(market)
        assert abs(robustness_by_search(market) - xi) <= 1e-6 + 4 * math.ulp(xi)

    @pytest.mark.parametrize(
        "ru, expected",
        [
            ((-1.0, -1.7e308), 1.7e308),
            ((-1.0, -sys.float_info.max), math.nextafter(sys.float_info.max, 0.0)),
            ((-1.0, -math.inf), math.inf),
            ((-1e-300, -1e300), math.inf),
        ],
    )
    def test_bracket_reaches_the_largest_float(self, ru, expected):
        market = _rank_market(ru, ru)
        assert robustness_by_search(market) == expected
        assert robustness(market) >= expected


_TOP = sys.float_info.max


class TestBisectionBudget:
    """The halving loop stops after at most 64 halvings. A break threshold
    ``t`` stands in for the level scan: every level at or above it breaks."""

    @pytest.mark.parametrize(
        "threshold",
        [
            1.0, math.nextafter(1.0, 2.0), 1.0 + 3 * 2.0**-52, math.nextafter(2.0, 1.0), 2.0, 3.0,
            math.nextafter(2.0**1023, 0.0), 2.0**1023, math.nextafter(2.0**1023, math.inf),
            math.nextafter(_TOP, 0.0), _TOP, math.inf,
        ],
    )
    @pytest.mark.parametrize("tol", [0.0, -1.0, 5e-324, 1e-6, 1.0, 1e300])
    def test_float_edges_match_the_unbudgeted_loop(self, threshold, tol, monkeypatch):
        levels = []

        def breaks(level, market, positions):
            levels.append(level)
            return level >= threshold

        monkeypatch.setattr(robustness_module, "_breakable", breaks)
        got = robustness_by_search(geometric_market(2, 2.0), tol=tol)
        assert got == reference_bisection(lambda level: level >= threshold, tol)
        # Every level scanned after the first that breaks is a halving.
        first = next((i for i, level in enumerate(levels) if level >= threshold), len(levels) - 1)
        assert len(levels) - 1 - first <= 53

    def test_running_out_of_halvings_raises(self, monkeypatch):
        # A scan that first breaks at 2**1023 and then at every level would
        # halve the bracket [1, 2**1023] down to 1 some thousand times.
        levels = []

        def breaks(level, market, positions):
            levels.append(level)
            return len(levels) >= 1023

        monkeypatch.setattr(robustness_module, "_breakable", breaks)
        with pytest.raises(RuntimeError, match="64 halvings"):
            robustness_by_search(geometric_market(2, 2.0))
        assert levels[1022] == 2.0**1023 and len(levels) == 1023 + 64


# Utilities at the edges: signed zeros, subnormals, and values that
# overflow to -inf under any level above 1.8.
_EDGE_UTILITIES = (0.0, -0.0, -5e-324, -1e-308, -0.5, -1.0, -2.0, -3.0, -1e300, -1e308, -math.inf)
_EDGE_POOL = st.one_of(st.sampled_from(_EDGE_UTILITIES), st.floats(-1e308, 0.0))


def _levels(values):
    """Levels at, just below and just above every ratio of two utilities in
    ``values``, plus 1 and 2 (which sends -1e308 to -inf)."""
    levels = {1.0, 2.0}
    for den in values:
        for num in values:
            if den == 0.0 or not math.isfinite(den):
                continue
            ratio = num / den
            for c in (ratio, math.nextafter(ratio, 0.0), math.nextafter(ratio, math.inf)):
                if 1.0 <= c < math.inf:
                    levels.add(c)
    return sorted(levels)


def _rows(profiles, utilities):
    return [
        (ranks, row)
        for r, u in zip(profiles, utilities)
        for ranks, row in zip(r.ranks, u.values.tolist())
    ]


def _stack(side, profiles):
    """``(utilities, ranks, values)`` of ``side`` at ``profiles``, stacked
    as agent rows: row ``k * n + a`` holds agent ``a`` at ``profiles[k]``."""
    utilities = [side.utilities(r) for r in profiles]
    ranks = np.array([r.ranks for r in profiles], dtype=np.intp).reshape(-1, side.n)
    return utilities, ranks, np.concatenate([u.values for u in utilities])


@st.composite
def rank_scan_case(draw):
    n = draw(st.integers(2, 8))
    ru = sorted(draw(st.lists(_EDGE_POOL, min_size=n, max_size=n, unique=True)), reverse=True)
    ranking = st.permutations(range(n)).map(tuple)
    profiles = draw(
        st.lists(
            st.lists(ranking, min_size=n, max_size=n).map(lambda rows: OrdinalProfile(n, tuple(rows))),
            min_size=1,
            max_size=3,
        )
    )
    return RankBasedProfile(n, ru), profiles


@st.composite
def extensional_scan_case(draw, n=None):
    """An extensional side storing 1-3 profiles, each agent's utilities drawn
    apart (edge values included) and scattered by its ranking; n is drawn
    from 2-6 unless given."""
    n = draw(st.integers(2, 6)) if n is None else n
    ranking = st.permutations(range(n)).map(tuple)
    profile = st.lists(ranking, min_size=n, max_size=n).map(lambda rows: OrdinalProfile(n, tuple(rows)))
    table = {}
    for r in draw(st.lists(profile, min_size=1, max_size=3, unique=True)):
        rows = [
            sorted(draw(st.lists(_EDGE_POOL, min_size=n, max_size=n, unique=True)), reverse=True)
            for _ in range(n)
        ]
        table[r] = UtilityProfile(n, rank_scatter(r.ranks, rows))
    return ExtensionalProfile(n, table)


def _table_rows(side):
    return list(zip(map(tuple, side.table_ranks.tolist()), side.table_values.tolist()))


def _first_break(ranks, values, c):
    """``(row, position)`` of the first break of a scan of every
    perturbation, or None."""
    found = _scan(ranks, values, c)
    return None if found is None else divmod(int(found[0][0]), ranks.shape[1])


class TestLevelScan:
    """The batched level scan against the per-entry reference re-extraction."""

    @given(st.one_of(rank_scan_case().map(lambda case: case[0]), extensional_scan_case()), st.data())
    def test_blocks_that_split_rows_match_reference(self, side, data):
        # Blocks of 1, 7 and n - 1 perturbations end inside a row.
        rows = _table_rows(side)
        row = data.draw(st.integers(0, len(rows) - 1))
        for elements in (1, 7, side.n - 1):
            with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements):
                for c in _levels(rows[row][1]):
                    got = _first_break(side.table_ranks, side.table_values, c)
                    assert got == reference_first_break(rows, c)

    @given(
        st.one_of(
            rank_scan_case().map(lambda case: case[0]),
            extensional_scan_case(),
            st.integers(0, 2**32 - 1).map(
                lambda seed: random_extensional_market(3, np.random.default_rng(seed)).men
            ),
        )
    )
    @example(RankBasedProfile(3, (0.0, -5e-324, -math.inf)))
    @example(RankBasedProfile(2, (-5e-324, -math.inf)))
    def test_level_one_never_breaks(self, side):
        # robustness_by_search never scans the lower end 1 of its bracket.
        assert not _breakable(1.0, MatchingMarket(side, side), {})

    @given(rank_scan_case())
    def test_rank_markets_match_reference(self, case):
        side, profiles = case
        utilities, ranks, values = _stack(side, profiles)
        rows = _rows(profiles, utilities)
        for c in _levels(side.rank_utilities):
            assert _first_break(ranks, values, c) == reference_first_break(rows, c)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 647), st.booleans())
    def test_extensional_markets_match_reference(self, seed, row, one_row_blocks):
        market = random_extensional_market(3, np.random.default_rng(seed))
        profiles = list(market.women.table_profiles)
        utilities, ranks, values = _stack(market.women, profiles)
        rows = _rows(profiles, utilities)
        elements = 1 if one_row_blocks else robustness_module._SCAN_BLOCK_ELEMENTS
        with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements):
            for c in _levels(rows[row][1]):
                assert _first_break(ranks, values, c) == reference_first_break(rows, c)

    @given(
        st.integers(2, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from(_EDGE_UTILITIES[:8]), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_tied_rows_match_reference(self, values):
        # Rows with exact ties, each ranked by (-utility, index).
        n = len(values[0])
        ranks = [tuple(sorted(range(n), key=lambda x: (-row[x], x))) for row in values]
        rows = list(zip(ranks, values))
        got_ranks = np.array(ranks, dtype=np.intp)
        got_values = np.array(values, dtype=float)
        for c in _levels([v for row in values for v in row]):
            assert _first_break(got_ranks, got_values, c) == reference_first_break(rows, c)

    def test_blocks_report_global_row(self):
        side = RankBasedProfile(3, (-1.0, -2.0, -8.0))
        profiles = [OrdinalProfile(3, ((0, 1, 2),) * 3)] * 4
        _utilities, ranks, values = _stack(side, profiles)
        values[7, 1] = -1.5  # agent 1 at the third profile: ratio 1.5
        with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", 9 * 2):
            assert _first_break(ranks, values, 1.6) == (7, 0)
            assert _first_break(ranks, values, 1.4) is None

    @given(
        st.one_of(rank_scan_case().map(lambda case: case[0]), extensional_scan_case()),
        st.sampled_from((1, 7, 1 << 18)),
        st.data(),
    )
    def test_breaks_of_the_first_breaking_block(self, side, elements, data):
        # The scan returns every break of the block that holds the first
        # break, and the first flat index past that block.
        rows = _table_rows(side)
        n, size = side.n, len(rows) * side.n
        block = max(1, elements // n)
        row = data.draw(st.integers(0, len(rows) - 1))
        with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements):
            for c in _levels(rows[row][1]):
                expected = [r * n + i for r, i in reference_breaks(rows, c)]
                found = _scan(side.table_ranks, side.table_values, c)
                if not expected:
                    assert found is None
                    continue
                start = expected[0] // block * block
                broken, reached = found
                assert reached == min(start + block, size)
                assert broken.tolist() == [k for k in expected if k < reached]

    @given(
        st.one_of(rank_scan_case().map(lambda case: case[0]), extensional_scan_case()),
        st.sampled_from((1, 7, 1 << 18)),
        st.data(),
    )
    def test_candidates_then_tail(self, side, elements, data):
        # A carried scan walks the given candidates as one block, then the
        # tail from its start, and finds the first break among them alone.
        rows = _table_rows(side)
        n, size = side.n, len(rows) * side.n
        block = max(1, elements // n)
        tail = data.draw(st.integers(0, size))
        candidates = sorted(data.draw(st.sets(st.integers(0, max(tail - 1, 0)), max_size=min(tail, block))))
        carried = (np.array(candidates, dtype=np.intp) if candidates else None, tail)
        row = data.draw(st.integers(0, len(rows) - 1))
        with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements):
            for c in _levels(rows[row][1]):
                breaks = {r * n + i for r, i in reference_breaks(rows, c)}
                found = _scan(side.table_ranks, side.table_values, c, carried)
                in_candidates = [k for k in candidates if k in breaks]
                if in_candidates:
                    assert found[0].tolist() == in_candidates and found[1] == tail
                    continue
                in_tail = sorted(k for k in breaks if k >= tail)
                if not in_tail:
                    assert found is None
                    continue
                start = tail + (in_tail[0] - tail) // block * block
                reached = min(start + block, size)
                assert found[1] == reached
                assert found[0].tolist() == [k for k in in_tail if k < reached]


@st.composite
def scan_market(draw, hows=("same", "copy", "apart")):
    """A market of two rank-based or extensional sides of one n, and how the
    women's side relates to the men's, drawn from ``hows``: the "same"
    object, an equal "copy", or drawn "apart"."""
    n = draw(st.integers(2, 5))

    def side():
        if draw(st.booleans()):
            ru = sorted(draw(st.lists(_EDGE_POOL, min_size=n, max_size=n, unique=True)), reverse=True)
            return lambda: RankBasedProfile(n, ru)
        stored = draw(extensional_scan_case(n))
        table = {r: stored.utilities(r) for r in stored.table_profiles}
        return lambda: ExtensionalProfile(n, table)

    men = side()
    how = draw(st.sampled_from(hows))
    first = men()
    women = first if how == "same" else men() if how == "copy" else side()()
    return MatchingMarket(first, women), how


class TestCarriedScan:
    """The bisection carries each side's breaking perturbations down the
    bracket; every level still reads as a scan of every perturbation."""

    @staticmethod
    def _run(market, elements=robustness_module._SCAN_BLOCK_ELEMENTS):
        """``(levels, confirmed, scans)`` of one search: each level with its
        verdict, each confirmation's side, row, position and level, and each
        scan's side, carried state and rows re-extracted."""
        levels, confirmed, scans = [], [], []
        breakable, confirm, scan = (
            robustness_module._breakable, robustness_module._confirm_break, robustness_module._scan
        )
        ranking = robustness_module._stable_ranking

        def recording_breakable(c, m, positions):
            verdict = breakable(c, m, positions)
            levels.append((c, verdict))
            return verdict

        def recording_confirm(side, row, position, c, positions):
            confirmed.append((side, row, position, c))
            return confirm(side, row, position, c, positions)

        def recording_scan(ranks, values, c, carried):
            scans.append([ranks, carried, 0])
            return scan(ranks, values, c, carried)

        def counting_ranking(perturbed):
            if perturbed.ndim == 2:  # a scan's block; a confirmation sorts one row
                scans[-1][2] += len(perturbed)
            return ranking(perturbed)

        with mock.patch.object(robustness_module, "_breakable", recording_breakable), \
                mock.patch.object(robustness_module, "_confirm_break", recording_confirm), \
                mock.patch.object(robustness_module, "_scan", recording_scan), \
                mock.patch.object(robustness_module, "_stable_ranking", counting_ranking), \
                mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements):
            robustness_by_search(market)
        return levels, confirmed, scans

    @settings(max_examples=60)
    @given(scan_market(), st.sampled_from((1, 7, 1 << 18)))
    def test_levels_match_full_reference_scans(self, case, elements):
        market, _how = case
        levels, confirmed, _scans = self._run(market, elements)
        sides = (market.men, market.women)
        tables = [_table_rows(side) for side in sides]
        expected = []
        for c, verdict in levels:
            for side, rows in zip(sides, tables):
                hit = reference_first_break(rows, c)
                if hit is not None:
                    expected.append((side, *hit, c))
                    break
            assert verdict == (hit is not None)
        assert [(id(side), *rest) for side, *rest in confirmed] == [
            (id(side), *rest) for side, *rest in expected
        ]

    @settings(max_examples=30)
    @given(scan_market(hows=("copy",)))
    def test_equal_women_are_never_scanned(self, case):
        market, _how = case
        levels, _confirmed, scans = self._run(market)
        assert all(ranks is market.men.table_ranks for ranks, _carried, _rows in scans)
        assert len(scans) == len(levels)

    def test_geometric_women_are_never_scanned(self):
        market = geometric_market(8, 1.3)
        levels, _confirmed, scans = self._run(market)
        assert market.women is not market.men
        assert all(ranks is market.men.table_ranks for ranks, _carried, _rows in scans)
        assert len(scans) == len(levels)

    @pytest.mark.parametrize("seed", [22, 23, 24])
    @pytest.mark.parametrize("elements", [7, 300, 1 << 18])
    def test_extensional_levels_rescan_only_what_can_break(self, seed, elements):
        market = random_extensional_market(3, rng_for(seed))
        levels, confirmed, scans = self._run(market, elements)
        size = market.men.table_ranks.size
        assert confirmed and len(scans) >= len(levels)
        for _ranks, carried, rows in scans:
            if carried is not _FULL_SCAN:  # after the side's first break
                candidates, tail = carried
                assert rows <= (0 if candidates is None else candidates.size) + size - tail
        assert sum(rows for _ranks, _carried, rows in scans) < len(levels) * size // 2

    @pytest.mark.parametrize(
        "market, elements, count, digest",
        [
            (geometric_market(6, 1.7), None, 10,
             "aa2e4a423624f1301565521547d8f814b6ad24423c6007cee4e8e669bdfa6ec4"),
            (random_extensional_market(3, rng_for(22)), None, 18,
             "ec54b6b4874e4483958f226fa182dc22bcd4a6583ef5d371b30264341c86f31c"),
            (random_extensional_market(3, rng_for(23)), 7, 19,
             "dadd3177b0d633feb7212d109f11ac3343eaf3f571e77c96e726d4d7c84fec1f"),
            (MatchingMarket(
                RankBasedProfile(40, [-(1.02**i) for i in range(40)]),
                RankBasedProfile(40, [-(1.015**i) for i in range(40)]),
            ), None, 13, "ac76b7e275b65eae64d776db642a7dc34a9e29dd69eab807ad0c859f37638eaa"),
        ],
        ids=["geometric", "extensional", "extensional-small-blocks", "women-first"],
    )
    def test_confirmations_match_full_scans(self, market, elements, count, digest):
        # Recorded when every level scanned every perturbation of both sides:
        # the (side, row, position, level.hex()) of each confirmation.
        _levels, confirmed, _scans = self._run(market, elements or robustness_module._SCAN_BLOCK_ELEMENTS)
        calls = [
            ("men" if side is market.men else "women", row, position, c.hex())
            for side, row, position, c in confirmed
        ]
        assert len(calls) == count
        assert hashlib.sha256(repr(calls).encode()).hexdigest() == digest


def _rank_market(men, women) -> MatchingMarket:
    return MatchingMarket(RankBasedProfile(len(men), men), RankBasedProfile(len(women), women))


def _extensional(*matrices) -> ExtensionalProfile:
    """A side storing each utility matrix at the profile it induces."""
    table = {}
    for rows in matrices:
        u = UtilityProfile(len(rows), rows)
        table[ordinal_from_utility_flagged(u, TiePolicy.STRICT)[0]] = u
    return ExtensionalProfile(len(matrices[0]), table)


# Agent 1's top utility is 0 at the second stored profile only, so the first
# zero denominator lies past the first profile and the first agent.
_LATE_ZERO = MatchingMarket(
    RankBasedProfile(3, (-1.0, -2.0, -4.0)),
    _extensional(
        [[-1.0, -2.0, -3.0], [-2.0, -1.0, -3.0], [-3.0, -2.0, -1.0]],
        [[-1.0, -2.0, -3.0], [-2.0, -3.0, 0.0], [-3.0, -2.0, -1.0]],
    ),
)


@st.composite
def formula_case(draw):
    """A random extensional n = 3 market, or a rank market of n = 1..5 with
    utilities from the edge pool, and levels at, just below and just above
    a few of its consecutive ratios."""
    if draw(st.booleans()):
        market = random_extensional_market(3, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        n = draw(st.integers(1, 5))
        pool = st.one_of(st.sampled_from(_EDGE_UTILITIES), st.floats(-1e308, 0.0))
        side = st.lists(pool, min_size=n, max_size=n, unique=True).map(
            lambda ru: sorted(ru, reverse=True)
        )
        market = _rank_market(draw(side), draw(side))
    pairs = list(reference_consecutive_pairs(market))
    picked = draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return market, _levels([v for *_, upper, lower in picked for v in (upper, lower)])


def _formula_outcomes(market):
    """``robustness`` or the fields of its DivisionByZeroUtility."""
    try:
        return robustness(market)
    except DivisionByZeroUtility as exc:
        return exc.side, exc.profile, exc.agent, exc.alternative


def _reference_formula_outcomes(market):
    best = math.inf
    for name, r, a, i, upper, lower in reference_consecutive_pairs(market):
        if upper == 0.0:
            return name, r, a, r.ranks[a][i]
        best = min(best, lower / upper)
    return best


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFormulaMatchesScalarWalk:
    """The array formula route against the scalar walk over consecutive
    pairs it replaced: same value bit for bit, same first zero denominator,
    same robustness verdicts and the same first witness. Runtime warnings
    are errors, so the array code must not let an overflow or a NaN product
    reach stderr."""

    def check(self, market, levels):
        assert repr(_formula_outcomes(market)) == repr(_reference_formula_outcomes(market))
        pairs = list(reference_consecutive_pairs(market))
        for c in levels:
            hit = next((p for p in pairs if c * p[4] <= p[5]), None)
            witness = adversarial_witness(market, c)
            if hit is None:
                assert witness is None
                continue
            name, r, a, i, _upper, _lower = hit
            single = Perturbation.single_entry(market.n, a, r.ranks[a][i], c)
            assert (witness.side, witness.profile) == (name, r)
            assert np.array_equal(witness.perturbation.factors, single.factors)

    @given(formula_case())
    def test_random_markets(self, case):
        self.check(*case)

    @pytest.mark.parametrize(
        "market, levels",
        [
            (_rank_market([-1.0, -2.0, -4.0], [0.0, -3.0, -9.0]), [1.0, 2.0, 4.0]),
            (_rank_market([-1.0, -2.0, -math.inf], [-1.0, -3.0, -9.0]), [1.5, 2.0, 3.0]),
            (_rank_market([-1.7e308, -1.75e308], [-1.0, -3.0]), [1.01, 2.0]),
            (_rank_market([-0.0, -1.0], [-1.0, -2.0]), [1.0, 2.0]),
            (_rank_market([-1.0, -2.0], [-5e-324, -1e308]), [1.5, 2.0]),
            (_rank_market([-1.0], [-2.0]), [1.0, 2.0]),
            (_LATE_ZERO, [1.0, 1.5, 2.0, 3.0]),
        ],
        ids=["zero-top-women", "neg-inf-last", "huge-c2", "neg-zero-top-men", "ratio-overflow", "n1",
             "late-zero"],
    )
    def test_edge_markets(self, market, levels):
        self.check(market, levels)


class TestRoutesReadStoredTables:
    """The routes scan each side's table stored at construction, and so does
    every witness they build: no route ever looks utilities up."""

    @pytest.fixture
    def counted(self):
        # "witnesses" counts built witnesses, "confirmed" the checks of a
        # break through deferred acceptance, the search's and each witness's.
        calls = {"utilities": 0, "witnesses": 0, "confirmed": 0}
        utilities = ExtensionalProfile.utilities
        build, confirm = robustness_module._build_witness, robustness_module._confirm_break

        def counting_utilities(side, profile):
            calls["utilities"] += 1
            return utilities(side, profile)

        def counting(function, key):
            def counted_call(*args):
                calls[key] += 1
                return function(*args)

            return counted_call

        with mock.patch.object(ExtensionalProfile, "utilities", counting_utilities), \
                mock.patch.object(robustness_module, "_build_witness", counting(build, "witnesses")), \
                mock.patch.object(robustness_module, "_confirm_break", counting(confirm, "confirmed")):
            yield calls

    def test_formula_route_reads_no_utilities(self, counted):
        market = random_extensional_market(3, rng_for(21))
        xi = robustness(market)
        assert adversarial_witness(market, xi * (1 - 1e-9)) is None
        assert counted == {"utilities": 0, "witnesses": 0, "confirmed": 0}
        assert adversarial_witness(market, xi) is not None
        assert counted == {"utilities": 0, "witnesses": 1, "confirmed": 1}

    def test_search_reads_utilities_only_to_confirm_witnesses(self, counted):
        robustness_by_search(random_extensional_market(3, rng_for(22)))
        assert counted["witnesses"] == 0 and counted["confirmed"] > 0
        assert counted["utilities"] == 0


class TestSearchConfirmsWithoutWitnesses:
    """The bisection confirms each break with two proposal chains against
    position tables it builds once per search: no witness, no perturbation
    matrix and no ``phi``."""

    @staticmethod
    def _recorded(market):
        tabled, confirmed = [], []
        position_table, confirm = OrdinalProfile.position_table, robustness_module._confirm_break

        def recording_table(profile):
            tabled.append(profile)
            return position_table(profile)

        def recording_confirm(*args):
            confirmed.append(args[:2])
            return confirm(*args)

        with mock.patch.object(OrdinalProfile, "position_table", recording_table), \
                mock.patch.object(robustness_module, "_confirm_break", recording_confirm):
            robustness_by_search(market)
        return tabled, confirmed

    @pytest.mark.parametrize("seed", [22, 23, 24])
    def test_one_position_table_per_stored_profile(self, seed):
        market = random_extensional_market(3, rng_for(seed))
        tabled, confirmed = self._recorded(market)
        # Each stored profile that a confirmed break hits, built once.
        stored = {id(side.table_profiles[row // side.n]) for side, row in confirmed}
        assert sorted(map(id, tabled)) == sorted(stored)

    def test_rank_market_builds_one_table(self):
        market = geometric_market(6, 1.7)
        tabled, confirmed = self._recorded(market)
        assert len(confirmed) > 5
        assert list(map(id, tabled)) == [id(market.men.table_profiles[0])]

    def test_no_perturbation_or_stable_pair_is_built(self):
        # A search builds no perturbation matrix and a witness one; neither
        # runs phi or a whole deferred acceptance, only proposal chains.
        built = {"perturbations": 0, "pairs": 0}
        post_init = Perturbation.__post_init__

        def counting_post_init(delta):
            built["perturbations"] += 1
            post_init(delta)

        def counting(function):
            def wrapper(*args):
                built["pairs"] += 1
                return function(*args)

            return wrapper

        with mock.patch.object(Perturbation, "__post_init__", counting_post_init), \
                mock.patch.object(ordinal_module, "phi", counting(ordinal_module.phi)), \
                mock.patch.object(
                    ordinal_module, "deferred_acceptance", counting(ordinal_module.deferred_acceptance)
                ):
            for market in (geometric_market(6, 1.5), random_extensional_market(3, rng_for(22))):
                robustness_by_search(market)
            assert built == {"perturbations": 0, "pairs": 0}
            adversarial_witness(geometric_market(6, 1.5), 1.5)
            assert built == {"perturbations": 1, "pairs": 0}


def _witness_fields(w):
    """Every field of a witness, the factor matrix as its shape and bytes."""
    return (
        w.side,
        w.profile,
        w.perturbation.factors.shape,
        w.perturbation.factors.tobytes(),
        w.perturbed_profile,
        w.distinguishing,
        *witness_pairs(w),
        w.tie_created,
    )


def _distinguishing_side_moves(w) -> bool:
    """Whether the outcome proposed by the distinguishing profile's side
    differs before and after the flip: women propose against a men-side
    witness, men against a women-side one. The hinged alternatives both
    rank the flipping agent first and every other alternative holds its own
    spare agent, so that proposal hinges on the flipped pair alone."""
    outcome = "female_optimal" if w.side == "men" else "male_optimal"
    before, after = witness_pairs(w)
    return getattr(before, outcome) != getattr(after, outcome)


#: Levels at which scaled edge-pool utilities overflow to -inf.
_HUGE_LEVELS = (1e300, 1e308, sys.float_info.max)


def _row_breaks(side, rows, c):
    """``(row, position)`` of the first break at level ``c`` of each table
    row in ``rows``."""
    for row in rows:
        hit = _first_break(side.table_ranks[row : row + 1], side.table_values[row : row + 1], c)
        if hit is not None:
            yield row, hit[1]


#: Last-rank utilities at the edges of the float range and of zero.
_LAST_RANK_EDGES = (0.0, -0.0, -5e-324, -math.inf, -1.7e308)


@st.composite
def last_rank_edge_side(draw):
    n = draw(st.integers(1, 6))
    pool = st.one_of(st.sampled_from(_LAST_RANK_EDGES), st.floats(-1e308, 0.0))
    ru = sorted(draw(st.lists(pool, min_size=n, max_size=n, unique=True)), reverse=True)
    return RankBasedProfile(n, ru)


def _scanned_side():
    return st.one_of(
        rank_scan_case().map(lambda case: case[0]),
        last_rank_edge_side(),
        extensional_scan_case(),
        st.integers(0, 2**32 - 1).map(
            lambda seed: random_extensional_profile(3, np.random.default_rng(seed))
        ),
    )


class TestWitnessMatchesWholeProfileRoute:
    """``_build_witness`` reads and re-extracts only the table row it
    perturbs; ``reference_witness`` rebuilds the whole profile. Both give the
    same witness, field for field, at the formula route's first hit, at the
    level scan's first break and at the first break of the given rows,
    built as either side's witness. No hit is at the last position: scaling
    the last-ranked utility leaves it the row's strict minimum, so a witness
    always has an alternative ranked below the one it sinks."""

    def check(self, side, rows, levels):
        market = MatchingMarket(side, side)
        for c in levels:
            hits = list(_row_breaks(side, rows, c))
            for first in (
                _first_hit(market, c),
                _first_break(side.table_ranks, side.table_values, c),
            ):
                if first is not None:
                    hits.append(first[-2:])
            for row, position in hits:
                assert position < side.n - 1
                for name in ("men", "women"):
                    got = _build_witness(name, side, row, position, c)
                    expected = reference_witness(name, side, row, position, c)
                    assert _witness_fields(got) == _witness_fields(expected)
                    assert _distinguishing_side_moves(got)

    @given(_scanned_side(), st.data())
    def test_random_sides(self, side, data):
        row = data.draw(st.integers(0, len(side.table_values) - 1))
        self.check(side, [row], [*_levels(side.table_values[row].tolist()), *_HUGE_LEVELS])

    @pytest.mark.parametrize(
        "side",
        [
            RankBasedProfile(3, (0.0, -1.0, -2.0)),
            RankBasedProfile(3, (-0.0, -1.0, -3.0)),
            RankBasedProfile(3, (-1.0, -2.0, -math.inf)),
            RankBasedProfile(3, (-5e-324, -1.7e308, -math.inf)),
            RankBasedProfile(2, (-1.7e308, -1.75e308)),
            RankBasedProfile(4, (-1.0, -2.0, -2.0000000000000004, -4.0)),
            _extensional([[0.0, -2.0, -3.0], [-0.0, -1.0, -math.inf], [-3.0, -2.0, -1.0]]),
            RankBasedProfile(2, (-1.7e308, -math.inf)),
            RankBasedProfile(2, (0.0, -5e-324)),
            RankBasedProfile(2, (-0.0, -1.7e308)),
        ],
        ids=["zero-top", "neg-zero-top", "neg-inf-last", "subnormal-top", "overflow", "near-tie",
             "extensional-edges", "huge-over-neg-inf", "zero-over-subnormal", "neg-zero-over-huge"],
    )
    def test_edge_sides(self, side):
        rows = range(len(side.table_values))
        self.check(side, rows, [*_levels(side.table_values.ravel().tolist()), *_HUGE_LEVELS])


class TestConfirmBreak:
    """``_confirm_break`` accepts every break the level scan reports, on the
    random sides and levels the witness route is checked on, with one table
    dict shared across all of a side's confirmations."""

    def check(self, side, rows, levels):
        positions = {}
        for c in levels:
            hits = list(_row_breaks(side, rows, c))
            first = _first_break(side.table_ranks, side.table_values, c)
            for row, position in hits + ([first] if first is not None else []):
                robustness_module._confirm_break(side, row, position, c, positions)

    @settings(max_examples=100)
    @given(_scanned_side(), st.data())
    def test_random_sides(self, side, data):
        row = data.draw(st.integers(0, len(side.table_values) - 1))
        self.check(side, [row], [*_levels(side.table_values[row].tolist()), *_HUGE_LEVELS])


class TestPinnedSearchOutputs:
    """Exact outputs of the bisection cross-check, recorded before the level
    scan was batched; any change to the scan must keep them bit for bit."""

    @pytest.mark.parametrize(
        "n, base, expected",
        [
            (40, 1.01, "1.0099997520446777"),
            (44, 1.5, "1.4999995231628418"),
            (44, 2.0, "1.9999995231628418"),
        ],
    )
    def test_geometric(self, n, base, expected):
        assert repr(robustness_by_search(geometric_market(n, base))) == expected

    @pytest.mark.parametrize(
        "seed, expected", [(7, "1.0003418922424316"), (2024, "1.0001769065856934")]
    )
    def test_random_extensional(self, seed, expected):
        market = random_extensional_market(3, np.random.default_rng(seed))
        assert repr(robustness_by_search(market)) == expected


class TestPinnedMonteCarloOutputs:
    """Exact Monte Carlo outputs, recorded while utilities and factors were
    still tuples of Python floats; the array representation must keep them
    bit for bit."""

    @pytest.mark.parametrize(
        "make_sampler, draws, seed, expected",
        [
            (
                lambda: IidUniformFactorSampler(4, 2.5),
                500,
                3,
                "7fc139dfe2ff0615686c319ecd7541d6f2bc87752d8546013aa89564419e45eb",
            ),
            (
                lambda: IidUniformFactorSampler(2, 1.0),
                50,
                4,
                "7559012cb25316ff8189a650a4682019422044477245151fd48f7ec8d18536b9",
            ),
            (
                lambda: CriticalSpikeSampler(4, 1.2, 0.3),
                500,
                5,
                "1cc8c051527362365c2848ee08a869d51c9088007716cc79f6644760ba29a9d9",
            ),
        ],
        ids=["iid", "iid-level-one", "critical"],
    )
    def test_factor_stats_bytes(self, make_sampler, draws, seed, expected):
        means, errs = rank_slot_factor_stats(make_sampler(), draws, seed)
        digest = hashlib.sha256(means.tobytes() + errs.tobytes()).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize(
        "make_market, level, trials, seed, expected",
        [
            (lambda: geometric_market(4, 1.3), 1.6, 400, 6, "0.6325"),
            (lambda: random_extensional_market(3, rng_for(8)), 1.5, 300, 7, "0.7433333333333333"),
        ],
        ids=["geometric", "random-extensional"],
    )
    def test_preservation_repr(self, make_market, level, trials, seed, expected):
        market = make_market()
        sampler = IidUniformFactorSampler(market.n, level)
        assert repr(preservation_probability(market, sampler, trials, seed)) == expected


class TestAdversarialWitness:
    def test_witness_above_threshold_verifies(self):
        w = adversarial_witness(geometric_market(3, 2.0), 2.5)
        assert w is not None
        assert _distinguishing_side_moves(w)
        assert w.perturbation.factors.max() == 2.5

    def test_none_below_threshold(self):
        assert adversarial_witness(geometric_market(3, 2.0), 1.5) is None

    @pytest.mark.parametrize("c", [math.inf, math.nan, 0.5])
    def test_rejects_infinite_nan_or_low_level(self, c):
        with pytest.raises(ValueError, match="finite and >= 1"):
            adversarial_witness(geometric_market(3, 2.0), c)

    def test_none_at_level_one(self, rng):
        market = random_extensional_market(2, rng)
        assert adversarial_witness(market, 1.0) is None

    def test_exact_tie_level_still_witnessed(self):
        # At exactly the consecutive ratio the perturbation creates a tie;
        # ties count as a preference change and the witness must verify.
        w = adversarial_witness(geometric_market(3, 2.0), 2.0)
        assert w is not None
        assert w.tie_created
        assert _distinguishing_side_moves(w)

    @pytest.mark.parametrize("side", ["men", "women"])
    @pytest.mark.parametrize("tie", [True, False])
    def test_pairs_come_from_the_witness_side(self, side, tie):
        # The outcome proposed by the distinguishing side moves, with the
        # witness side's profile as the men's argument of phi on the men side
        # and the women's on the women side. At this seed that outcome stays
        # put when phi's arguments swap, so a witness built with the sides
        # swapped fails.
        random_side = random_extensional_profile(3, rng_for(2))
        steep = RankBasedProfile(3, (-1.0, -100.0, -10000.0))
        sides = (random_side, steep) if side == "men" else (steep, random_side)
        market = MatchingMarket(*sides)
        xi = robustness(market)
        w = adversarial_witness(market, xi if tie else xi * 1.001)
        assert (w.side, w.tie_created) == (side, tie)
        assert _distinguishing_side_moves(w)

    def test_equivalence_both_directions(self, rng):
        for _ in range(5):
            market = random_extensional_market(3, rng)
            xi = robustness(market)
            for c in (max(1.0, xi - 0.01), xi + 0.01):
                assert (c < xi) == (adversarial_witness(market, c) is None)

    def test_extremal_single_entry_sufficiency(self, rng):
        # Whenever an arbitrary factor matrix at level c flips a comparison,
        # the single-entry matrix with c at the flipped slot does too.
        market = random_extensional_market(3, rng)
        profiles = list(market.men.table_profiles)
        flips_seen = 0
        for t in range(400):
            trng = rng_for(88, t)
            r = profiles[int(trng.integers(len(profiles)))]
            u = market.men.utilities(r)
            c = float(trng.uniform(1.0, 6.0))
            factors = trng.uniform(1.0, c, size=(3, 3))
            delta = Perturbation(3, tuple(tuple(float(v) for v in row) for row in factors))
            perturbed = apply_perturbation(delta, u)
            extracted, ties = ordinal_from_utility_flagged(perturbed, TiePolicy.INDEX)
            if extracted == r and not ties:
                continue
            flips_seen += 1
            # find a flipped adjacent pair and re-test with the extremal matrix
            found = False
            for a in range(3):
                for i in range(2):
                    cur, nxt = r.ranks[a][i], r.ranks[a][i + 1]
                    if c * u.values[a][cur] <= u.values[a][nxt]:
                        found = True
            assert found
        assert flips_seen > 0


class TestSufficiencyLevels:
    def test_values(self):
        assert sufficient_robustness_level(3, 1.5) == 7.0
        assert sufficient_robustness_level(2, 2.0) == 5.0
        assert sufficient_robustness_level(5, 1.0) == 1.0

    def test_one_agent_needs_level_one(self):
        # One agent per side has no comparable pair: level 1 at any c.
        assert sufficient_robustness_level(1, 3.0) == 1.0

    def test_critical_ratio_and_spike(self):
        assert math.isclose(critical_consecutive_ratio(3, 1.5, 0.2), 8.8)
        assert math.isclose(spike_factor(3, 1.5, 0.2), 10.6)

    def test_ratio_tends_to_theorem_level(self):
        for eps in (1e-3, 1e-6):
            assert math.isclose(
                critical_consecutive_ratio(3, 1.5, eps), sufficient_robustness_level(3, 1.5), rel_tol=1e-2
            )

    def test_spike_strictly_between_ratio_and_square(self):
        for n in (2, 3, 4):
            for c in (1.0, 1.5, 3.0):
                for eps in (0.05, 0.2, 1.0):
                    rho = critical_consecutive_ratio(n, c, eps)
                    spike = spike_factor(n, c, eps)
                    assert rho < spike < rho * rho


# n, c and eps where rounding decides whether the spike flips one pair:
# eps within a few ulps of c's float spacing, at c = 1, next to 1 and 1.5.
SPIKE_ROUNDING_GRID = [
    (n, c, float(eps))
    for n in (2, 3, 4)
    for c in (1.0, 1.0 + 2.0**-52, 1.5)
    for eps in np.geomspace(1e-17, 1e-13, 40)
]


class TestCriticalMarket:
    def test_construction(self):
        market = critical_market(3, 1.5, 0.2)
        r = OrdinalProfile(3, ((0, 1, 2),) * 3)
        u = market.men.utilities(r)
        assert u.values[0][0] == -1.0
        assert math.isclose(u.values[0][1] / u.values[0][0], 8.8)

    def test_robust_at_theorem_level(self):
        market = critical_market(3, 1.5, 0.2)
        assert adversarial_witness(market, sufficient_robustness_level(3, 1.5) - 1e-9) is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            critical_market(1, 1.5, 0.2)
        with pytest.raises(ValueError):
            critical_market(3, 0.5, 0.2)
        with pytest.raises(ValueError):
            critical_market(3, 1.5, 0.0)
        with pytest.raises(ValueError):
            critical_market(3, 1.5, math.nan)
        for c, eps in ((math.inf, 0.2), (1.5, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                critical_market(2, c, eps)
        with pytest.raises(ValueError, match="rank utilities overflow"):
            critical_market(40, 1e10, 0.2)
        # The consecutive ratio 1.76e308 is finite, the spike factor is not.
        with pytest.raises(ValueError, match="spike factor overflows"):
            critical_market(2, 4e307, 0.2)

    def test_zero_eps_fails_the_eps_check(self):
        # eps = 0 would fail the rounding check too: the spike then ties the next rank.
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            critical_market(3, 1.5, 0.0)

    def test_accepts_exactly_where_every_spike_flips(self):
        accepted = 0
        for n, c, eps in SPIKE_ROUNDING_GRID:
            try:
                critical_market(n, c, eps)
            except ValueError as exc:
                assert "eps" in str(exc) and "base" not in str(exc)
                assert not reference_spike_flips(n, c, eps), (n, c, eps)
            else:
                assert reference_spike_flips(n, c, eps), (n, c, eps)
                accepted += 1
        assert accepted == 197


class TestSpikeSampler:
    def test_builds_the_critical_market(self):
        for n, c, eps in ((2, 1.5, 0.2), (3, 1.25, 0.1), (4, 2.0, 1.0)):
            sampler = CriticalSpikeSampler(n, c, eps)
            expected = critical_market(n, c, eps)
            for side in ("men", "women"):
                got = getattr(sampler.market, side).rank_utilities
                assert got == getattr(expected, side).rank_utilities

    @pytest.mark.parametrize("n, c, eps", [(1, 1.5, 0.2), (3, 0.5, 0.2), (3, 1.5, 0.0)])
    def test_rejects_what_critical_market_rejects(self, n, c, eps):
        with pytest.raises(ValueError):
            CriticalSpikeSampler(n, c, eps)

    def test_spike_value(self):
        sampler = CriticalSpikeSampler(3, 1.5, 0.2)
        assert math.isclose(sampler.spike, 10.6)
        assert math.isclose(sampler.level, 1.8)

    def test_every_factor_at_least_one(self):
        sampler = CriticalSpikeSampler(2, 1.5, 0.2)
        for t in range(100):
            s = sampler.sample(rng_for(17, t))
            for mat in (s.men_factors, s.women_factors):
                assert min(min(row) for row in mat.factors) >= 1.0

    def test_perturbed_side_is_adjacent_swap(self):
        sampler = CriticalSpikeSampler(3, 1.5, 0.2)
        market = sampler.market
        for t in range(50):
            s = sampler.sample(rng_for(23, t))
            spiked = "women" if np.array_equal(s.men_factors.factors, np.ones((3, 3))) else "men"
            r = s.men_profile if spiked == "men" else s.women_profile
            u = getattr(market, spiked).utilities(r)
            factors = s.men_factors if spiked == "men" else s.women_factors
            perturbed, ties = ordinal_from_utility_flagged(
                apply_perturbation(factors, u), TiePolicy.INDEX
            )
            assert not ties
            diffs = [a for a in range(3) if perturbed.ranks[a] != r.ranks[a]]
            assert len(diffs) == 1

    def test_distinguishing_profile_matches_reextraction(self):
        # At the grid points where rounding sinks the spiked alternative
        # more than one place, the first flipped pair is still the adjacent
        # one, so the sampler's distinguishing profile is unchanged.
        for n, c, eps in SPIKE_ROUNDING_GRID:
            if not reference_spike_flips(n, c, eps):
                continue
            sampler = CriticalSpikeSampler(n, c, eps)
            for t in range(10):
                s = sampler.sample(rng_for(41, t))
                unspiked_men = np.array_equal(s.men_factors.factors, np.ones((n, n)))
                spiked = "women" if unspiked_men else "men"
                r = s.men_profile if spiked == "men" else s.women_profile
                factors = s.men_factors if spiked == "men" else s.women_factors
                u = getattr(sampler.market, spiked).utilities(r)
                r_tilde, _ties = ordinal_from_utility_flagged(
                    apply_perturbation(factors, u), TiePolicy.INDEX
                )
                other = s.women_profile if spiked == "men" else s.men_profile
                assert distinguishing_profile(r, r_tilde) == other

    def test_factor_means_small_scale(self):
        sampler = CriticalSpikeSampler(3, 1.5, 0.2)
        means, errs = rank_slot_factor_stats(sampler, draws=4000, seed=5)
        assert means.shape == (6, 2)
        for a in range(6):
            for i in range(2):
                assert abs(means[a, i] - 1.8) <= 4 * errs[a, i]

    def test_kill_law_on_the_whole_support_at_n_three(self):
        # Criterion 04 samples the kill law at (c, eps) = (1.5, 0.2). At
        # n = 3 its support is 2 sides x 3 agents x 2 non-last slots x 216
        # spiked-side profiles = 2592 points, so each is built here without
        # ``draw``: the spike re-extracts without a tie, and against the
        # opposite side's hinge profile it moves the stable pair.
        n = 3
        sampler = CriticalSpikeSampler(n, 1.5, 0.2)
        rows = list(itertools.permutations(range(n)))
        points = 0
        for side in ("men", "women"):
            for agent in range(n):
                for slot in range(n - 1):
                    for ranks in itertools.product(rows, repeat=n):
                        r = OrdinalProfile(n, ranks)
                        b1, b2 = ranks[agent][slot : slot + 2]
                        factors = np.ones((n, n))
                        factors[agent, b1] = sampler.spike
                        u = getattr(sampler.market, side).utilities(r)
                        r_tilde, ties = ordinal_from_utility_flagged(
                            apply_perturbation(Perturbation(n, factors), u), TiePolicy.INDEX
                        )
                        assert not ties
                        other = OrdinalProfile(n, _distinguishing_rows(n, agent, b1, b2))
                        if side == "men":
                            assert phi(r, other) != phi(r_tilde, other)
                        else:
                            assert phi(other, r) != phi(other, r_tilde)
                        points += 1
        assert points == 2592


class TestPreservationProbability:
    def test_level_one_iid_sampler_draws_all_ones(self):
        for n in (2, 3, 5):
            ones = np.ones((n, n))
            for t in range(50):
                s = IidUniformFactorSampler(n, 1.0).sample(rng_for(9, t))
                assert np.array_equal(s.men_factors.factors, ones)
                assert np.array_equal(s.women_factors.factors, ones)

    def test_all_ones_sampler_preserves(self):
        market = geometric_market(3, 2.0)
        assert preservation_probability(market, IidUniformFactorSampler(3, 1.0), 300, 9) == 1.0

    def test_kill_property_exact_zero(self):
        for n in (2, 3):
            sampler = CriticalSpikeSampler(n, 1.5, 0.2)
            assert preservation_probability(sampler.market, sampler, 10_000, 4) == 0.0

    def test_non_flipping_spike_preserves(self):
        # Deterministic single spike at the theorem level never reaches the
        # consecutive ratio, so ordinals are untouched.
        n, c, eps = 3, 1.5, 0.2
        market = critical_market(n, c, eps)
        level = sufficient_robustness_level(n, c)
        assert level < critical_consecutive_ratio(n, c, eps)

        class FixedSpikeSampler:
            def __init__(self):
                self.n = n
                self.level = level

            def draw(self, rng, ranks, factors):
                for side in ranks:
                    side[:] = uniform_profile(n, rng).ranks
                factors.fill(1.0)
                factors[0, 0, ranks[0, 0, 0]] = level

        assert preservation_probability(market, FixedSpikeSampler(), 300, 2) == 1.0

    def test_exact_tie_is_not_preserved(self):
        # Doubling the top utility of geometric_market(3, 2.0) ties it with
        # the second one in every trial. Where index tie-breaking keeps the
        # ranking the stable pair cannot move, yet a tie never counts as
        # preserved.
        class TopTieSampler:
            n = 3

            def draw(self, rng, ranks, factors):
                for side in ranks:
                    side[:] = uniform_profile(3, rng).ranks
                factors.fill(1.0)
                factors[0, 0, ranks[0, 0, 0]] = 2.0

        market = geometric_market(3, 2.0)
        assert preservation_probability(market, TopTieSampler(), 200, 3) == 0.0

    def test_sandwich_bounded_sampler_never_fails(self, rng):
        # Factors almost surely below the robustness leave every trial intact.
        market = geometric_market(3, 3.0)
        sampler = IidUniformFactorSampler(3, level=2.0)
        assert preservation_probability(market, sampler, 300, 31) == 1.0

    def test_trials_validation(self):
        market = geometric_market(2, 2.0)
        with pytest.raises(ValueError):
            preservation_probability(market, IidUniformFactorSampler(2, 1.0), 0, 1)

    def test_single_trial(self):
        market = geometric_market(2, 2.0)
        assert preservation_probability(market, IidUniformFactorSampler(2, 1.0), 1, 1) == 1.0


class TestMonteCarloInputs:
    @pytest.mark.parametrize("level", [0.5, math.inf, math.nan])
    def test_iid_sampler_rejects_level(self, level):
        with pytest.raises(ValueError, match="level"):
            IidUniformFactorSampler(3, level)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_factor_stats_rejects_draws_below_one(self, draws):
        with pytest.raises(ValueError, match="draws"):
            rank_slot_factor_stats(IidUniformFactorSampler(3, 2.0), draws, 1)

    def test_factor_stats_of_one_draw(self):
        # One draw: the means are that draw's slot factors, with no spread.
        sampler = IidUniformFactorSampler(3, 2.0)
        means, errs = rank_slot_factor_stats(sampler, 1, 7)
        ranks, factors = np.empty((2, 3, 3), dtype=np.intp), np.empty((2, 3, 3))
        sampler.draw(rng_for(7, 0), ranks, factors)
        expected = np.take_along_axis(factors, ranks[..., :-1], axis=-1).reshape(6, 2)
        assert means.tobytes() == expected.tobytes()
        assert not errs.any()


class TestSamplerLevels:
    def test_iid_sampler_mean_below_level(self):
        sampler = IidUniformFactorSampler(2, level=3.0)
        means, errs = rank_slot_factor_stats(sampler, draws=3000, seed=8)
        for a in range(4):
            for i in range(1):
                assert means[a, i] - 3 * errs[a, i] <= 3.0


def _sample_as_before(sampler, rng) -> PerturbationSample:
    """Reference draw from profile and perturbation objects, one
    ``rng.permutation`` per row and one ``uniform`` call per side: the
    stream each sampler's ``draw`` must reproduce."""
    n = sampler.n
    if isinstance(sampler, IidUniformFactorSampler):
        men, women = uniform_profile(n, rng), uniform_profile(n, rng)
        factors = [Perturbation(n, rng.uniform(1.0, sampler.level, size=(n, n))) for _ in "mw"]
        return PerturbationSample(men, women, *factors)
    a_star = int(rng.integers(0, 2 * n))
    i_star = int(rng.integers(0, n - 1))
    agent = a_star % n
    r = uniform_profile(n, rng)
    delta = Perturbation.single_entry(n, agent, r.ranks[agent][i_star], sampler.spike)
    rows = [list(row) for row in r.ranks]
    rows[agent][i_star : i_star + 2] = rows[agent][i_star + 1], rows[agent][i_star]
    other = distinguishing_profile(r, OrdinalProfile(n, rows))
    ones = Perturbation(n, np.ones((n, n)))
    if a_star < n:
        return PerturbationSample(r, other, delta, ones)
    return PerturbationSample(other, r, ones, delta)


def _same_sample(got: PerturbationSample, expected: PerturbationSample) -> bool:
    return (
        got.men_profile == expected.men_profile
        and got.women_profile == expected.women_profile
        and got.men_factors.factors.tobytes() == expected.men_factors.factors.tobytes()
        and got.women_factors.factors.tobytes() == expected.women_factors.factors.tobytes()
    )


def _accepted_grid_samplers():
    return [
        CriticalSpikeSampler(n, c, eps)
        for n, c, eps in SPIKE_ROUNDING_GRID
        if reference_spike_flips(n, c, eps)
    ]


def _samplers_n2_to_6():
    return [
        sampler
        for n in range(2, 7)
        for sampler in (IidUniformFactorSampler(n, 1.7), CriticalSpikeSampler(n, 1.5, 0.2))
    ]


class TestTrialBlocks:
    """The block path against one ``sample`` per trial."""

    def test_draw_reproduces_the_reference_stream(self):
        for sampler in _samplers_n2_to_6() + _accepted_grid_samplers()[::7]:
            for t in range(8):
                got = sampler.sample(rng_for(3, t))
                assert _same_sample(got, _sample_as_before(sampler, rng_for(3, t)))

    @pytest.mark.parametrize("grid", [False, True], ids=["n2-6", "rounding-grid"])
    def test_block_rows_are_samples(self, monkeypatch, grid):
        # A bound of 5 trials per block spreads the 12 trials over three blocks.
        samplers = _accepted_grid_samplers() if grid else _samplers_n2_to_6()
        assert len(samplers) == (197 if grid else 10)
        for sampler in samplers:
            n = sampler.n
            monkeypatch.setattr(robustness_module, "_SCAN_BLOCK_ELEMENTS", 5 * 2 * n * n)
            blocks = list(_trial_blocks(sampler, 12, 29))
            assert [len(ranks) for ranks, _ in blocks] == [5, 5, 2]
            rows = [(r, f) for ranks, factors in blocks for r, f in zip(ranks, factors)]
            for t, (ranks, factors) in enumerate(rows):
                s = sampler.sample(rng_for(29, t))
                profiles = (s.men_profile, s.women_profile)
                assert ranks.tolist() == [list(map(list, p.ranks)) for p in profiles]
                assert factors[0].tobytes() == s.men_factors.factors.tobytes()
                assert factors[1].tobytes() == s.women_factors.factors.tobytes()

    @pytest.mark.parametrize("trials_per_block", [1, 7])
    def test_block_bound_moves_no_output(self, monkeypatch, trials_per_block):
        # The pinned Monte Carlo cases and three spike runs, at the default
        # bound and at a bound of 1 or 7 trials per block.
        preservation = [
            (lambda: geometric_market(4, 1.3), 1.6, 400, 6),
            (lambda: random_extensional_market(3, rng_for(8)), 1.5, 300, 7),
        ]
        stats = [
            (lambda: IidUniformFactorSampler(4, 2.5), 500, 3),
            (lambda: IidUniformFactorSampler(2, 1.0), 50, 4),
            (lambda: CriticalSpikeSampler(4, 1.2, 0.3), 500, 5),
        ]

        def outputs(bound):
            out = []
            for make_market, level, trials, seed in preservation:
                market = make_market()
                bound(market.n)
                sampler = IidUniformFactorSampler(market.n, level)
                out.append(repr(preservation_probability(market, sampler, trials, seed)))
            for make_sampler, draws, seed in stats:
                sampler = make_sampler()
                bound(sampler.n)
                means, errs = rank_slot_factor_stats(sampler, draws, seed)
                out.append(means.tobytes() + errs.tobytes())
            for n in (2, 3, 5):
                sampler = CriticalSpikeSampler(n, 1.5, 0.2)
                bound(n)
                out.append(repr(preservation_probability(sampler.market, sampler, 60, n)))
            return out

        def patched(n):
            elements = trials_per_block * 2 * n * n
            monkeypatch.setattr(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements)
            sampler = IidUniformFactorSampler(n, 1.5)
            assert len(next(_trial_blocks(sampler, 100, 0))[0]) == trials_per_block

        expected = outputs(lambda n: None)
        assert expected[:2] == ["0.6325", "0.7433333333333333"]
        assert outputs(patched) == expected

    def test_spike_slot_means_follow_from_the_slot_law(self):
        # The spike lands on the alternative at slot (a*, i*) whatever the
        # drawn profile, so each draw's gathered factors are the spike at
        # that slot and 1 elsewhere: the slot means follow from the first
        # two draws of each trial alone.
        for n, draws, seed in ((2, 300, 1), (3, 2000, 405), (5, 700, 2)):
            sampler = CriticalSpikeSampler(n, 1.5, 0.2)
            hits = np.zeros((2 * n, n - 1))
            for t in range(draws):
                rng = rng_for(seed, t)
                hits[int(rng.integers(0, 2 * n)), int(rng.integers(0, n - 1))] += 1
            means, _errs = rank_slot_factor_stats(sampler, draws, seed)
            expected = 1.0 + (sampler.spike - 1.0) * hits / draws
            np.testing.assert_allclose(means, expected, rtol=1e-12)

    class _BrokenSampler:
        def __init__(self, fault):
            self.n = 3
            self.fault = fault

        def draw(self, rng, ranks, factors):
            IidUniformFactorSampler(3, 2.0).draw(rng, ranks, factors)
            if self.fault == "factor below 1":
                factors[1, 2, 0] = 0.5
            elif self.fault == "nan factor":
                factors[0, 0, 0] = math.nan
            elif self.fault == "infinite factor":
                factors[0, 1, 1] = math.inf
            elif self.fault == "repeated alternative":
                ranks[1, 0] = (0, 0, 2)
            else:
                ranks[0, 2] = (0, 1, 3)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("factor below 1", r"trial 0: women factor \(2,0\) = 0.5 is below 1"),
            ("nan factor", r"trial 0: men factor \(0,0\) = nan is below 1, infinite or NaN"),
            ("infinite factor", r"trial 0: men factor \(1,1\) = inf is below 1, infinite"),
            ("repeated alternative", r"trial 0: women row 0 is not a permutation of 0..2"),
            ("alternative out of range", r"trial 0: men row 2 is not a permutation of 0..2"),
        ],
    )
    def test_bad_draws_are_rejected(self, fault, message):
        sampler = self._BrokenSampler(fault)
        market = geometric_market(3, 2.0)
        with pytest.raises(ValueError, match=message):
            preservation_probability(market, sampler, 20, 1)
        with pytest.raises(ValueError, match=message):
            rank_slot_factor_stats(sampler, 20, 1)
        with pytest.raises(ValueError):  # a single sample checks through its constructors
            robustness_module._sample_of(sampler, rng_for(1, 0))

    class _LateBrokenSampler:
        """Draws as the iid sampler does, with ``fault`` in the draw number
        ``bad``; blocks draw their trials in order."""

        def __init__(self, fault, bad):
            self.n = 3
            self.fault = fault
            self.bad = bad
            self.drawn = 0

        def draw(self, rng, ranks, factors):
            IidUniformFactorSampler(3, 2.0).draw(rng, ranks, factors)
            if self.drawn == self.bad:
                if self.fault == "factor below 1":
                    factors[1, 2, 0] = 0.5
                else:
                    ranks[0, 2] = (0, 1, 3)
            self.drawn += 1

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("factor below 1", r"trial 5: women factor \(2,0\) = 0.5 is below 1"),
            ("alternative out of range", r"trial 5: men row 2 is not a permutation of 0..2"),
        ],
    )
    def test_bad_draws_in_a_later_block_report_their_trial(self, monkeypatch, fault, message):
        # Blocks of two trials put trial 5 second in the third block.
        monkeypatch.setattr(robustness_module, "_SCAN_BLOCK_ELEMENTS", 2 * 2 * 3 * 3)
        with pytest.raises(ValueError, match=message):
            list(_trial_blocks(self._LateBrokenSampler(fault, 5), 20, 1))

    def test_iid_sampler_at_n_one(self):
        sample = IidUniformFactorSampler(1, 2.0).sample(rng_for(4, 0))
        assert sample.men_profile.ranks == sample.women_profile.ranks == ((0,),)
        for factors in (sample.men_factors, sample.women_factors):
            assert factors.n == 1 and 1.0 <= factors.factors[0, 0] <= 2.0

    def test_sampler_and_market_sizes_must_agree(self):
        with pytest.raises(ValueError, match="size mismatch"):
            preservation_probability(geometric_market(3, 2.0), IidUniformFactorSampler(4, 1.5), 5, 1)

    def test_iid_sampler_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n >= 1"):
            IidUniformFactorSampler(0, 1.5)

    def test_unrepresented_profile_is_rejected(self):
        market = random_extensional_market(2, rng_for(3))
        side = market.men
        first = side.table_profiles[0]
        partial = MatchingMarket(ExtensionalProfile(2, {first: side.utilities(first)}), market.women)
        with pytest.raises(ValueError, match="not represented"):
            preservation_probability(partial, IidUniformFactorSampler(2, 1.5), 50, 1)
