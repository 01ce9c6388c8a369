import hashlib
import importlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
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
    is_c_robust,
    ordinal_from_utility_flagged,
    preservation_probability,
    random_extensional_market,
    rank_slot_factor_stats,
    robustness,
    robustness_by_search,
    sufficient_robustness_level,
    uniform_profile,
)
from matchrobust.ordinal import TiePolicy
from matchrobust.robustness import _first_break, _scan_side
from matchrobust.seeding import rng_for

from conftest import reference_consecutive_pairs, reference_first_break, reference_spike_flips

# The package re-exports the function ``robustness`` under the module's name.
robustness_module = importlib.import_module("matchrobust.robustness")


class TestIsCRobust:
    def test_geometric_below_ratio(self):
        assert is_c_robust(geometric_market(3, 2.0), 1.9) is True

    def test_geometric_at_ratio_strict_fails(self):
        assert is_c_robust(geometric_market(3, 2.0), 2.0) is False

    def test_level_one_always_robust(self, rng):
        for _ in range(5):
            market = random_extensional_market(2, rng)
            assert is_c_robust(market, 1.0) is True

    def test_rejects_sub_one_level(self):
        with pytest.raises(ValueError):
            is_c_robust(geometric_market(2, 2.0), 0.5)

    def test_rejects_nan_level(self):
        with pytest.raises(ValueError):
            is_c_robust(geometric_market(2, 2.0), math.nan)
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
        # robustness() is the threshold of is_c_robust.
        for _ in range(5):
            market = random_extensional_market(3, rng)
            xi = robustness(market)
            assert is_c_robust(market, xi * (1 - 1e-9)) is True
            assert is_c_robust(market, xi) is False


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

    def test_rejects_nan_tol(self):
        for tol in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                robustness_by_search(geometric_market(3, 2.0), tol=tol)


# Utilities at the edges: signed zeros, subnormals, and values that
# overflow to -inf under any level above 1.8.
_EDGE_UTILITIES = (0.0, -0.0, -5e-324, -1e-308, -0.5, -1.0, -2.0, -3.0, -1e300, -1e308, -math.inf)


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


@st.composite
def rank_scan_case(draw):
    n = draw(st.integers(2, 8))
    pool = st.one_of(st.sampled_from(_EDGE_UTILITIES), st.floats(-1e308, 0.0))
    ru = sorted(draw(st.lists(pool, min_size=n, max_size=n, unique=True)), reverse=True)
    ranking = st.permutations(range(n)).map(tuple)
    profiles = draw(
        st.lists(
            st.lists(ranking, min_size=n, max_size=n).map(lambda rows: OrdinalProfile(n, tuple(rows))),
            min_size=1,
            max_size=3,
        )
    )
    return RankBasedProfile(n, ru), profiles


class TestLevelScan:
    """The batched level scan against the per-entry reference re-extraction."""

    @given(rank_scan_case())
    def test_rank_markets_match_reference(self, case):
        side, profiles = case
        scan = _scan_side("men", side, profiles)
        rows = _rows(scan.profiles, scan.utilities)
        for c in _levels(side.rank_utilities):
            assert _first_break(scan.ranks, scan.values, c) == reference_first_break(rows, c)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 647), st.booleans())
    def test_extensional_markets_match_reference(self, seed, row, one_row_blocks):
        market = random_extensional_market(3, np.random.default_rng(seed))
        scan = _scan_side("women", market.women, market.women.representable_profiles())
        rows = _rows(scan.profiles, scan.utilities)
        elements = 1 if one_row_blocks else robustness_module._SCAN_BLOCK_ELEMENTS
        with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", elements):
            for c in _levels(rows[row][1]):
                assert _first_break(scan.ranks, scan.values, c) == reference_first_break(rows, c)

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
        scan = _scan_side("men", side, profiles)
        scan.values[7, 1] = -1.5  # agent 1 at the third profile: ratio 1.5
        with mock.patch.object(robustness_module, "_SCAN_BLOCK_ELEMENTS", 9 * 2):
            assert _first_break(scan.ranks, scan.values, 1.6) == (7, 0)
            assert _first_break(scan.ranks, scan.values, 1.4) is None


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
            assert is_c_robust(market, c) is all(c * upper > lower for *_, upper, lower in pairs)
            if c == math.inf:
                continue
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
            (_rank_market([-1.0, -2.0, -4.0], [0.0, -3.0, -9.0]), [1.0, 2.0, 4.0, math.inf]),
            (_rank_market([-1.0, -2.0, -math.inf], [-1.0, -3.0, -9.0]), [1.5, 2.0, 3.0, math.inf]),
            (_rank_market([-1.7e308, -1.75e308], [-1.0, -3.0]), [1.01, 2.0, math.inf]),
            (_rank_market([-0.0, -1.0], [-1.0, -2.0]), [1.0, 2.0, math.inf]),
            (_rank_market([-1.0, -2.0], [-5e-324, -1e308]), [1.5, 2.0, math.inf]),
            (_rank_market([-1.0], [-2.0]), [1.0, 2.0, math.inf]),
            (_LATE_ZERO, [1.0, 1.5, 2.0, 3.0, math.inf]),
        ],
        ids=["zero-top-women", "neg-inf-last", "huge-c2", "neg-zero-top-men", "ratio-overflow", "n1",
             "late-zero"],
    )
    def test_edge_markets(self, market, levels):
        self.check(market, levels)


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
        assert w.original_pair != w.perturbed_pair
        assert w.perturbation.level() == 2.5

    def test_none_below_threshold(self):
        assert adversarial_witness(geometric_market(3, 2.0), 1.5) is None

    def test_none_at_level_one(self, rng):
        market = random_extensional_market(2, rng)
        assert adversarial_witness(market, 1.0) is None

    def test_exact_tie_level_still_witnessed(self):
        # At exactly the consecutive ratio the perturbation creates a tie;
        # ties count as a preference change and the witness must verify.
        w = adversarial_witness(geometric_market(3, 2.0), 2.0)
        assert w is not None
        assert w.tie_created
        assert w.original_pair != w.perturbed_pair

    def test_equivalence_both_directions(self, rng):
        for _ in range(5):
            market = random_extensional_market(3, rng)
            xi = robustness(market)
            for c in (max(1.0, xi - 0.01), xi + 0.01):
                robust = is_c_robust(market, c)
                witness = adversarial_witness(market, c)
                assert robust == (witness is None)

    def test_extremal_single_entry_sufficiency(self, rng):
        # Whenever an arbitrary factor matrix at level c flips a comparison,
        # the single-entry matrix with c at the flipped slot does too.
        market = random_extensional_market(3, rng)
        profiles = list(market.men.representable_profiles())
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
        assert is_c_robust(market, sufficient_robustness_level(3, 1.5) - 1e-9) is True

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
                got = sampler.market.side(side).rank_utilities
                assert got == expected.side(side).rank_utilities

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
            u = market.side(spiked).utilities(r)
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
                u = sampler.market.side(spiked).utilities(r)
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


class TestPreservationProbability:
    def test_level_one_iid_sampler_draws_all_ones(self):
        for n in (2, 3, 5):
            ones = Perturbation.ones(n)
            for t in range(50):
                s = IidUniformFactorSampler(n, 1.0).sample(rng_for(9, t))
                assert np.array_equal(s.men_factors.factors, ones.factors)
                assert np.array_equal(s.women_factors.factors, ones.factors)

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

            def sample(self, rng):
                r_m = uniform_profile(n, rng)
                r_w = uniform_profile(n, rng)
                delta = Perturbation.single_entry(n, 0, r_m.ranks[0][0], level)
                return PerturbationSample(r_m, r_w, delta, Perturbation.ones(n))

        assert preservation_probability(market, FixedSpikeSampler(), 300, 2) == 1.0

    def test_sandwich_bounded_sampler_never_fails(self, rng):
        # Factors almost surely below the robustness leave every trial intact.
        market = geometric_market(3, 3.0)
        sampler = IidUniformFactorSampler(3, level=2.0)
        assert preservation_probability(market, sampler, 300, 31) == 1.0

    def test_trials_validation(self):
        market = geometric_market(2, 2.0)
        with pytest.raises(ValueError):
            preservation_probability(market, IidUniformFactorSampler(2, 1.0), 0, 1)


class TestMonteCarloInputs:
    @pytest.mark.parametrize("level", [0.5, math.inf, math.nan])
    def test_iid_sampler_rejects_level(self, level):
        with pytest.raises(ValueError, match="level"):
            IidUniformFactorSampler(3, level)

    @pytest.mark.parametrize("draws", [0, -1])
    def test_factor_stats_rejects_draws_below_one(self, draws):
        with pytest.raises(ValueError, match="draws"):
            rank_slot_factor_stats(IidUniformFactorSampler(3, 2.0), draws, 1)


class TestSamplerLevels:
    def test_iid_sampler_mean_below_level(self):
        sampler = IidUniformFactorSampler(2, level=3.0)
        means, errs = rank_slot_factor_stats(sampler, draws=3000, seed=8)
        for a in range(4):
            for i in range(1):
                assert means[a, i] - 3 * errs[a, i] <= 3.0
