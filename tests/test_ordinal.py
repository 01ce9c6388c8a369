import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchrobust import (
    Assignment,
    OrdinalProfile,
    Side,
    TieError,
    TiePolicy,
    UtilityProfile,
    deferred_acceptance,
    distinguishing_profile,
    enumerate_stable,
    ordinal_from_utility,
    ordinal_from_utility_flagged,
    phi,
)
from matchrobust.ordinal import (
    STABLE_ENUM_CAP,
    _distinguishing_rows,
    _first_flip,
    uniform_profile,
)
from matchrobust.seeding import rng_for

from conftest import (
    oracle_female_optimal,
    oracle_is_stable,
    oracle_male_optimal,
    oracle_stable_set,
    reference_ordinal_from_utility,
    random_profile,
    reference_deferred_acceptance,
    reference_first_flip,
)


def profiles_strategy(min_n=1, max_n=4):
    def build(n, seed):
        rng = np.random.default_rng(seed)
        return random_profile(n, rng)

    return st.builds(
        build, st.integers(min_n, max_n), st.integers(0, 2**32 - 1)
    )


def paired_profiles(min_n=1, max_n=4):
    def build(n, seed):
        rng = np.random.default_rng(seed)
        return random_profile(n, rng), random_profile(n, rng)

    return st.builds(build, st.integers(min_n, max_n), st.integers(0, 2**32 - 1))


@st.composite
def differing_profiles(draw, min_n=2, max_n=9):
    """Two distinct profiles of one size that differ in one or several rows."""
    n = draw(st.integers(min_n, max_n))
    rows = st.permutations(range(n))
    r = draw(st.lists(rows, min_size=n, max_size=n))
    changed = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    r_prime = list(r)
    for a in changed:
        r_prime[a] = draw(rows.filter(lambda row, a=a: row != r[a]))
    return OrdinalProfile(n, r), OrdinalProfile(n, r_prime)


def da_markets(max_n=30):
    """Markets for the deferred-acceptance reference check. An identical
    side is the worst case as proposers (every proposer chases the same
    responders) and a single shared ranking as responders."""

    def build(n, seed, kind):
        rng = np.random.default_rng(seed)
        men, women = random_profile(n, rng), random_profile(n, rng)
        shared = OrdinalProfile(n, (tuple(int(v) for v in rng.permutation(n)),) * n)
        if kind in ("identical men", "both identical"):
            men = shared
        if kind in ("identical women", "both identical"):
            women = shared
        return men, women

    return st.builds(
        build,
        st.integers(1, max_n),
        st.integers(0, 2**32 - 1),
        st.sampled_from(("random", "identical men", "identical women", "both identical")),
    )


class TestProfileValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            OrdinalProfile(2, ((0, 0), (0, 1)))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            OrdinalProfile(3, ((0, 1, 2), (1, 2, 0)))

    def test_json_round_trip(self):
        p = OrdinalProfile(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        assert OrdinalProfile.from_json_dict(p.to_json_dict()) == p

    @pytest.mark.parametrize(
        "ranks",
        [
            ((0, 1, 2), (1, 1, 2), (2, 0, 1)),
            ((0, 1, 2), (1, 2, 3), (2, 0, 1)),
            ((0, 1, 2), (1, 2), (2, 0, 1)),
            ((0, 1, 2), (1, 2, 0, 0), (2, 0, 1)),
            ((0, 1, 2), (-1, 0, 1), (2, 0, 1)),
        ],
        ids=["repeat", "out-of-range", "short", "long", "negative"],
    )
    def test_both_boundaries_reject_non_permutations(self, ranks):
        # Internal builders skip this check on rows that are permutations by
        # construction; the public constructor and the JSON reader keep it.
        with pytest.raises(ValueError, match="not a permutation"):
            OrdinalProfile(3, ranks)
        with pytest.raises(ValueError, match="not a permutation"):
            OrdinalProfile.from_json_dict({"n": 3, "ranks": [list(row) for row in ranks]})

    def test_uniform_profile_rejects_empty(self):
        with pytest.raises(ValueError, match="n >= 1"):
            uniform_profile(0, rng_for(0))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_unchecked_builders_match_checked_constructor(self, n):
        rng = rng_for(n)
        extracted = ordinal_from_utility(UtilityProfile(n, -rng.permutation(n * n).reshape(n, n)))
        for profile in (uniform_profile(n, rng), extracted):
            checked = OrdinalProfile(n, [list(row) for row in profile.ranks])
            assert profile == checked and hash(profile) == hash(checked)
            assert all(type(x) is int for row in profile.ranks for x in row)


class TestDeferredAcceptance:
    def test_n1_trivial(self):
        p = OrdinalProfile(1, ((0,),))
        assert deferred_acceptance(p, p).pairing == (0,)

    def test_n2_contested(self):
        # Both men want w0; woman 0 prefers man 1, woman 1 prefers man 0.
        men = OrdinalProfile(2, ((0, 1), (0, 1)))
        women = OrdinalProfile(2, ((1, 0), (0, 1)))
        got = deferred_acceptance(men, women, Side.MEN).pairing
        assert got == (1, 0)
        # Independent route: enumerate both bijections and pick the stable one
        # every man weakly prefers.
        assert got == oracle_male_optimal(men, women)

    def test_contested_top_choice_resolution(self):
        # Women 0 and 1 rank man 0 then man 1; woman 2 ranks man 2 first.
        # Whenever man 0 ranks w0 above w1 his woman-proposing partner is w0.
        women = OrdinalProfile(3, ((0, 1, 2), (0, 1, 2), (2, 0, 1)))
        for ranks0 in itertools.permutations(range(3)):
            if ranks0.index(0) > ranks0.index(1):
                continue
            men = OrdinalProfile(3, (ranks0, (0, 1, 2), (0, 1, 2)))
            mu = deferred_acceptance(men, women, Side.WOMEN)
            assert mu.pairing[0] == 0
            assert mu.pairing[2] == 2  # uncontested top choice

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            deferred_acceptance(
                OrdinalProfile(1, ((0,),)), OrdinalProfile(2, ((0, 1), (0, 1)))
            )

    @pytest.mark.parametrize("side", [Side.MEN, Side.WOMEN])
    @pytest.mark.parametrize("men_n, women_n", [(2, 3), (3, 2)])
    def test_size_mismatch_names_both_sizes(self, side, men_n, women_n):
        men = OrdinalProfile(men_n, (tuple(range(men_n)),) * men_n)
        women = OrdinalProfile(women_n, (tuple(range(women_n)),) * women_n)
        with pytest.raises(ValueError, match=f"size mismatch: men n={men_n}, women n={women_n}"):
            deferred_acceptance(men, women, side)

    @settings(max_examples=200)
    @given(da_markets())
    def test_matches_min_free_reference(self, market):
        men, women = market
        for side in (Side.MEN, Side.WOMEN):
            got = deferred_acceptance(men, women, side)
            assert got == reference_deferred_acceptance(men, women, side)

    @given(paired_profiles(2, 4))
    def test_outputs_are_stable(self, pair):
        men, women = pair
        for side in (Side.MEN, Side.WOMEN):
            mu = deferred_acceptance(men, women, side)
            assert oracle_is_stable(men, women, mu.pairing)

    @given(paired_profiles(2, 4))
    def test_proposing_side_optimality(self, pair):
        men, women = pair
        assert deferred_acceptance(men, women, Side.MEN).pairing == oracle_male_optimal(men, women)
        assert deferred_acceptance(men, women, Side.WOMEN).pairing == oracle_female_optimal(men, women)


class TestPhi:
    def test_n1(self):
        p = OrdinalProfile(1, ((0,),))
        pair = phi(p, p)
        assert pair.male_optimal.pairing == pair.female_optimal.pairing == (0,)

    def test_mutual_first_choice_identity(self):
        men = OrdinalProfile(3, ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
        women = OrdinalProfile(3, ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
        pair = phi(men, women)
        assert pair.male_optimal.pairing == (0, 1, 2)
        assert pair.female_optimal.pairing == (0, 1, 2)

    def test_latin_square_splits(self):
        men = OrdinalProfile(3, tuple(tuple((i + k) % 3 for k in range(3)) for i in range(3)))
        women = OrdinalProfile(3, tuple(tuple((j + 1 + k) % 3 for k in range(3)) for j in range(3)))
        pair = phi(men, women)
        assert pair.male_optimal != pair.female_optimal
        stable = {a.pairing for a in enumerate_stable(men, women)}
        assert pair.male_optimal.pairing in stable
        assert pair.female_optimal.pairing in stable


class TestAssignment:
    @pytest.mark.parametrize("pairing", [(0, 0, 2), (0, 1, 3), (2, 2, 2), (0, 1), (0, 1, 2, 3)])
    def test_non_bijection_raises(self, pairing):
        with pytest.raises(ValueError, match="not a bijection"):
            Assignment(3, pairing)


class TestBlockingPairs:
    # The two fixed markets below reach the two clauses of enumerate_stable's
    # pruning test: (1, 0) is blocked by a later man with an earlier wife in
    # the first, and by an earlier man with a later wife in the second.
    def test_mutual_first_choices_stable(self):
        men = OrdinalProfile(2, ((0, 1), (1, 0)))
        women = OrdinalProfile(2, ((0, 1), (1, 0)))
        assert oracle_is_stable(men, women, (0, 1))
        assert not oracle_is_stable(men, women, (1, 0))
        assert {a.pairing for a in enumerate_stable(men, women)} == {(0, 1)}
        pair = phi(men, women)
        assert pair.male_optimal.pairing == pair.female_optimal.pairing == (0, 1)

    def test_unmatched_mutual_favorites_block(self):
        men = OrdinalProfile(2, ((0, 1), (0, 1)))
        women = OrdinalProfile(2, ((0, 1), (0, 1)))
        assert not oracle_is_stable(men, women, (1, 0))
        assert {a.pairing for a in enumerate_stable(men, women)} == {(0, 1)}
        pair = phi(men, women)
        assert pair.male_optimal.pairing == pair.female_optimal.pairing == (0, 1)

    def test_da_never_blocked_random(self):
        for t in range(1000):
            rng = rng_for(42, t)
            men, women = random_profile(5, rng), random_profile(5, rng)
            mu = deferred_acceptance(men, women)
            assert oracle_is_stable(men, women, mu.pairing)


class TestEnumerateStable:
    def test_n1(self):
        p = OrdinalProfile(1, ((0,),))
        assert {a.pairing for a in enumerate_stable(p, p)} == {(0,)}

    def test_mutual_first_choice_unique(self):
        men = OrdinalProfile(3, ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
        women = OrdinalProfile(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        assert {a.pairing for a in enumerate_stable(men, women)} == {(0, 1, 2)}

    def test_cap(self):
        n = STABLE_ENUM_CAP + 1
        men = OrdinalProfile(n, (tuple(range(n)),) * n)
        with pytest.raises(ValueError, match="exceeds brute-force cap"):
            enumerate_stable(men, men)

    @given(paired_profiles(1, STABLE_ENUM_CAP))
    def test_matches_definition_oracle(self, pair):
        men, women = pair
        got = {a.pairing for a in enumerate_stable(men, women)}
        assert got == oracle_stable_set(men, women)

    @pytest.mark.parametrize("n", range(1, STABLE_ENUM_CAP + 1))
    @pytest.mark.parametrize("men_reversed", [False, True])
    @pytest.mark.parametrize("women_reversed", [False, True])
    def test_shared_rankings_give_the_serial_dictatorship(self, n, men_reversed, women_reversed):
        # When every agent on a side holds one ranking, the only stable
        # match pairs the k-th most wanted man with the k-th most wanted
        # woman.
        men_order = tuple(range(n))[::-1] if men_reversed else tuple(range(n))
        women_order = tuple(range(n))[::-1] if women_reversed else tuple(range(n))
        men, women = OrdinalProfile(n, (men_order,) * n), OrdinalProfile(n, (women_order,) * n)
        expected = [0] * n
        for m, w in zip(women_order, men_order):
            expected[m] = w
        got = {a.pairing for a in enumerate_stable(men, women)}
        assert got == {tuple(expected)} == oracle_stable_set(men, women)

    @pytest.mark.parametrize("n", range(3, STABLE_ENUM_CAP + 1))
    def test_cyclic_market_has_n_stable_matches(self, n):
        # Man i ranks i, i+1, ...; woman j ranks j+1, j+2, ... (mod n). Each
        # rotation of the wives is stable, and no other bijection is.
        men = OrdinalProfile(n, tuple(tuple((i + k) % n for k in range(n)) for i in range(n)))
        women = OrdinalProfile(n, tuple(tuple((j + 1 + k) % n for k in range(n)) for j in range(n)))
        got = {a.pairing for a in enumerate_stable(men, women)}
        assert got == {tuple((m + k) % n for m in range(n)) for k in range(n)}
        assert got == oracle_stable_set(men, women)

    def test_never_calls_deferred_acceptance(self, monkeypatch, rng):
        # The enumeration is the independent route that deferred acceptance
        # is checked against, so it must not lean on it.
        import matchrobust.ordinal as ordinal

        def forbidden(*args, **kwargs):
            raise AssertionError("enumerate_stable called deferred_acceptance")

        monkeypatch.setattr(ordinal, "deferred_acceptance", forbidden)
        monkeypatch.setattr(ordinal, "phi", forbidden)
        men, women = random_profile(5, rng), random_profile(5, rng)
        assert enumerate_stable(men, women)


class TestDistinguishingProfile:
    def test_n2_example(self):
        r = OrdinalProfile(2, ((0, 1), (0, 1)))
        r_prime = OrdinalProfile(2, ((1, 0), (0, 1)))
        rw = distinguishing_profile(r, r_prime)
        assert phi(r, rw) != phi(r_prime, rw)

    def test_identical_profiles_rejected(self):
        r = OrdinalProfile(2, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            distinguishing_profile(r, r)

    def test_differs_only_in_last_agent(self):
        # 500 sampled n=3 pairs differing only in agent 2's ranking.
        perms = list(itertools.permutations(range(3)))
        rng = rng_for(7)
        count = 0
        while count < 500:
            base = tuple(perms[int(rng.integers(6))] for _ in range(3))
            other_last = perms[int(rng.integers(6))]
            if other_last == base[2]:
                continue
            r = OrdinalProfile(3, base)
            r_prime = OrdinalProfile(3, base[:2] + (other_last,))
            rw = distinguishing_profile(r, r_prime)
            assert phi(r, rw) != phi(r_prime, rw)
            count += 1

    @given(paired_profiles(2, 4))
    def test_distinguishes_random_pairs(self, pair):
        r, r_prime = pair
        if r == r_prime:
            return
        rw = distinguishing_profile(r, r_prime)
        assert phi(r, rw) != phi(r_prime, rw)

    @settings(max_examples=300)
    @given(differing_profiles())
    def test_first_flip_matches_exhaustive_scan(self, pair):
        r, r_prime = pair
        assert _first_flip(r, r_prime) == reference_first_flip(r, r_prime)
        a, b1, b2 = _first_flip(r, r_prime)
        row, prime_row = r.ranks[a], r_prime.ranks[a]
        assert row.index(b1) < row.index(b2) and prime_row.index(b2) < prime_row.index(b1)

    def test_works_as_mirrored_construction(self):
        # Feeding women's profiles yields a men's profile separating them
        # through the man-proposing direction.
        rng = rng_for(99)
        for _ in range(200):
            r, r_prime = random_profile(3, rng), random_profile(3, rng)
            if r == r_prime:
                continue
            rm = distinguishing_profile(r, r_prime)
            assert phi(rm, r) != phi(rm, r_prime)


class TestSharedIndexInts:
    """Python interns only the ints up to 256, so at large n a table whose
    rows draw fresh ints holds about n * n of them; these tables hold n."""

    N = 600

    @staticmethod
    def _distinct_ints(rows) -> int:
        return len({id(v) for row in rows for v in row})

    def test_position_table_rows_share_ints(self):
        profile = uniform_profile(self.N, rng_for(600))
        table = profile.position_table()
        assert all([row[i] for i in pos] == list(range(self.N)) for row, pos in zip(profile.ranks, table))
        assert self._distinct_ints(table) == self.N

    def test_distinguishing_rows_share_ints(self):
        a1, b1, b2 = 400, 500, 300
        rows = _distinguishing_rows(self.N, a1, b1, b2)
        assert all(sorted(row) == list(range(self.N)) for row in rows)
        assert rows[b1][:2] == rows[b2][:2] == (a1, 0)
        assert self._distinct_ints(rows) == self.N


class TestOrdinalFromUtility:
    def test_sorted_row(self):
        u = UtilityProfile(3, ((-1.0, -2.0, -4.0),) * 3)
        assert ordinal_from_utility(u).ranks[0] == (0, 1, 2)

    def test_strict_tie_error(self):
        u = UtilityProfile(3, ((-2.0, -2.0, -3.0), (-1.0, -2.0, -3.0), (-1.0, -2.0, -3.0)))
        with pytest.raises(TieError):
            ordinal_from_utility(u)

    def test_index_policy_breaks_ties(self):
        u = UtilityProfile(2, ((-2.0, -2.0), (-1.0, -2.0)))
        profile, had_ties = ordinal_from_utility_flagged(u, TiePolicy.INDEX)
        assert had_ties and profile.ranks[0] == (0, 1)

    def test_round_trip_random(self):
        # Extract an order, realize it with fresh utilities, re-extract.
        rng = rng_for(5)
        for t in range(1000):
            n = int(rng.integers(2, 5))
            vals = rng.uniform(-9.0, -0.1, size=(n, n))
            flat = vals.flatten()
            if len(set(flat.tolist())) < len(flat):
                continue
            u = UtilityProfile(n, tuple(tuple(float(v) for v in r) for r in vals))
            order = ordinal_from_utility(u)
            fresh = [[0.0] * n for _ in range(n)]
            for a in range(n):
                levels = sorted(rng.uniform(-9.0, -0.1, size=n), reverse=True)
                for pos, x in enumerate(order.ranks[a]):
                    fresh[a][x] = float(levels[pos])
            u2 = UtilityProfile(n, tuple(tuple(r) for r in fresh))
            assert ordinal_from_utility(u2) == order

    @given(st.integers(0, 2**32 - 1))
    def test_invariant_under_order_preserving_scaling(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        vals = rng.uniform(-9.0, -0.1, size=(n, n))
        u = UtilityProfile(n, tuple(tuple(float(v) for v in r) for r in vals))
        order = ordinal_from_utility(u)
        # Per-entry positive scaling that preserves each row's strict order.
        scaled = []
        for a in range(n):
            row = sorted(range(n), key=lambda x: -vals[a][x])
            mult = sorted(rng.uniform(1.0, 2.0, size=n))
            new = [0.0] * n
            for pos, x in enumerate(row):
                new[x] = float(vals[a][x] * mult[pos])
            scaled.append(tuple(new))
        assert ordinal_from_utility(UtilityProfile(n, tuple(scaled))) == order


# Few distinct values, so rows tie often, plus both signed zeros, -inf and
# the smallest subnormal.
_TIE_PRONE = st.sampled_from((0.0, -0.0, -5e-324, -1.0, -2.0, -1e308, -float("inf")))


@st.composite
def tie_prone_utilities(draw):
    n = draw(st.integers(1, 6))
    entry = _TIE_PRONE | st.floats(max_value=0.0, allow_nan=False)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return UtilityProfile(n, rows)


class TestOrdinalFromUtilityReference:
    """The array extraction against the scalar per-row sort."""

    @given(tie_prone_utilities(), st.sampled_from(TiePolicy))
    def test_matches_scalar_extraction(self, u, policy):
        try:
            want = reference_ordinal_from_utility(u, policy)
        except TieError as exc:
            with pytest.raises(TieError) as got:
                ordinal_from_utility_flagged(u, policy)
            assert (got.value.agent, got.value.alternatives) == (exc.agent, exc.alternatives)
            assert str(got.value) == str(exc)
        else:
            got = ordinal_from_utility_flagged(u, policy)
            assert got == want and type(got[1]) is bool
