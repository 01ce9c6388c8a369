import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchrobust import (
    ExtensionalProfile,
    MatchingMarket,
    OrdinalProfile,
    Perturbation,
    RankBasedProfile,
    UtilityProfile,
    all_profiles,
    apply_perturbation,
    geometric_market,
    ordinal_from_utility,
)
from matchrobust.markets import _json_entry_arrays
from matchrobust.seeding import rng_for

from conftest import (
    _random_strict_rows,
    random_extensional_market,
    reference_extensional_check,
    reference_extensional_side,
)


class TestUtilityProfile:
    def test_rejects_positive_entries(self):
        with pytest.raises(ValueError):
            UtilityProfile(2, ((0.0, 1.0), (-1.0, -2.0)))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            UtilityProfile(2, ((0.0,), (-1.0, -2.0)))

    def test_json_round_trip(self):
        u = UtilityProfile(2, ((-0.0, -1.5), (-1.7e308, -5e-324)))
        data = json.loads(json.dumps(u.to_json_dict()))
        assert data == {"n": 2, "values": [[-0.0, -1.5], [-1.7e308, -5e-324]]}
        back = UtilityProfile.from_json_dict(data)
        assert back.n == 2 and back.values.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize("slot", [(0, 0), (1, 1)])
    def test_rejects_nan(self, slot):
        rows = [[-1.0, -2.0], [-3.0, -4.0]]
        rows[slot[0]][slot[1]] = math.nan
        with pytest.raises(ValueError, match="NaN"):
            UtilityProfile(2, tuple(tuple(r) for r in rows))

    def test_accepts_signed_zero_and_minus_inf(self):
        u = UtilityProfile(2, ((-0.0, 0.0), (-math.inf, -1e308)))
        assert u.values[1][0] == -math.inf


class TestPerturbation:
    def test_rejects_nan_factor(self):
        with pytest.raises(ValueError, match="NaN"):
            Perturbation(2, ((1.0, math.nan), (1.0, 1.0)))

    def test_rejects_factor_below_one(self):
        with pytest.raises(ValueError):
            Perturbation(2, ((1.0, 0.5), (1.0, 1.0)))

    @pytest.mark.parametrize("factor", [math.inf, -math.inf])
    def test_rejects_infinite_factor(self, factor):
        # An infinite factor would turn a zero utility into NaN.
        with pytest.raises(ValueError, match=rf"factor \(1,0\) = {factor}"):
            Perturbation(2, ((1.0, 2.0), (factor, 1.0)))
        with pytest.raises(ValueError, match="factor"):
            Perturbation.single_entry(2, 1, 0, factor)

    def test_single_entry(self):
        d = Perturbation.single_entry(2, 0, 1, 3.0)
        assert np.array_equal(d.factors, ((1.0, 3.0), (1.0, 1.0)))


class TestMatrices:
    def test_error_names_first_bad_entry_in_row_major_order(self):
        with pytest.raises(ValueError, match=r"utility \(0,1\) = 1.0"):
            UtilityProfile(2, ((-1.0, 1.0), (2.0, -1.0)))
        with pytest.raises(ValueError, match=r"factor \(1,0\) = 0.5"):
            Perturbation(2, ((1.0, 1.0), (0.5, 0.0)))

    @pytest.mark.parametrize(
        "n, rows",
        [(0, ()), (2, ((1.0, 1.0),)), (1, ((1.0, 1.0),)), (2, ((1.0,), (1.0, 1.0)))],
        ids=["empty", "too-few-rows", "too-many-columns", "ragged"],
    )
    def test_rejects_wrong_shape(self, n, rows):
        # 1.0 is a valid factor and -1.0 a valid utility: only the shape fails.
        with pytest.raises(ValueError, match="n x n|n >= 1"):
            Perturbation(n, rows)
        with pytest.raises(ValueError, match="n x n|n >= 1"):
            UtilityProfile(n, [[-v for v in row] for row in rows])

    def test_values_and_factors_are_read_only_float64(self):
        u = UtilityProfile(2, ((-1, -2), (-3, -4)))
        d = Perturbation(2, np.ones((2, 2)))
        for m in (u.values, d.factors, apply_perturbation(d, u).values):
            assert m.dtype == np.float64 and m.shape == (2, 2)
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = -5.0

    def test_constructor_copies_its_input(self):
        rows = np.array([[-1.0, -2.0], [-3.0, -4.0]])
        u = UtilityProfile(2, rows)
        rows[0, 0] = -9.0
        assert u.values[0, 0] == -1.0 and rows.flags.writeable


class TestApplyPerturbation:
    def test_all_ones_identity(self):
        u = UtilityProfile(2, ((-1.0, -2.0), (0.0, -3.0)))
        ones = Perturbation(2, np.ones((2, 2)))
        assert np.array_equal(apply_perturbation(ones, u).values, u.values)

    def test_arithmetic(self):
        u = UtilityProfile(2, ((-1.0, -2.0), (-1.0, -2.0)))
        d = Perturbation(2, ((3.0, 1.0), (1.0, 1.0)))
        assert np.array_equal(apply_perturbation(d, u).values[0], (-3.0, -2.0))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            apply_perturbation(
                Perturbation(3, np.ones((3, 3))), UtilityProfile(2, ((-1.0, -2.0),) * 2)
            )

    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 5.0))
    def test_output_bracketed_by_level(self, seed, level):
        rng = np.random.default_rng(seed)
        n = 3
        vals = rng.uniform(-5.0, 0.0, size=(n, n))
        u = UtilityProfile(n, tuple(tuple(float(v) for v in r) for r in vals))
        factors = rng.uniform(1.0, level, size=(n, n))
        d = Perturbation(n, tuple(tuple(float(v) for v in r) for r in factors))
        out = apply_perturbation(d, u)
        for a in range(n):
            for x in range(n):
                assert level * u.values[a][x] - 1e-12 <= out.values[a][x] <= u.values[a][x]
                if u.values[a][x] == 0.0:
                    assert out.values[a][x] == 0.0

    def test_preserves_zeros_never_raises_entries(self, rng):
        u = UtilityProfile(2, ((0.0, -2.0), (-1.0, 0.0)))
        out = apply_perturbation(Perturbation(2, ((7.0, 7.0), (7.0, 7.0))), u)
        assert out.values[0][0] == 0.0 and out.values[1][1] == 0.0
        assert out.values[0][1] <= u.values[0][1]


class TestMarketProfiles:
    def test_rank_based_requires_strict_decrease(self):
        with pytest.raises(ValueError):
            RankBasedProfile(2, (-1.0, -1.0))

    @pytest.mark.parametrize(
        "ru", [(math.nan, -1.0, -3.0), (-1.0, math.nan, -3.0), (-1.0, -2.0, math.nan)]
    )
    def test_rank_based_rejects_nan(self, ru):
        with pytest.raises(ValueError):
            RankBasedProfile(3, ru)

    def test_geometric_market_rejects_nan_base(self):
        with pytest.raises(ValueError):
            geometric_market(3, math.nan)

    @pytest.mark.parametrize("n", [1, 3])
    def test_geometric_market_rejects_base_one(self, n):
        # At n = 1 a base of 1 gives one valid rank utility, and at n = 3 a
        # tied row, so only the base check names the fault.
        with pytest.raises(ValueError, match="base must exceed 1"):
            geometric_market(n, 1.0)

    @pytest.mark.parametrize("n, base", [(2000, 2.0), (3, 1e200), (2, math.inf)])
    def test_geometric_market_rejects_overflowing_utilities(self, n, base):
        with pytest.raises(ValueError, match="overflow"):
            geometric_market(n, base)
        assert geometric_market(1, base).men.rank_utilities == (-1.0,)

    def test_rank_based_consistency(self):
        side = RankBasedProfile(3, (-1.0, -2.0, -4.0))
        for t in range(20):
            r = list(all_profiles(3))[t * 10]
            assert ordinal_from_utility(side.utilities(r)) == r

    def test_extensional_rejects_inconsistent_entry(self):
        r = OrdinalProfile(2, ((0, 1), (0, 1)))
        bad = UtilityProfile(2, ((-2.0, -1.0), (-1.0, -2.0)))  # induces (1,0) for agent 0
        with pytest.raises(ValueError):
            ExtensionalProfile(2, {r: bad})

    def test_extensional_missing_profile(self):
        r = OrdinalProfile(2, ((0, 1), (0, 1)))
        u = UtilityProfile(2, ((-1.0, -2.0), (-1.0, -2.0)))
        side = ExtensionalProfile(2, {r: u})
        other = OrdinalProfile(2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            side.utilities(other)

    def test_market_sides_must_agree(self):
        with pytest.raises(ValueError):
            MatchingMarket(RankBasedProfile(2, (-1.0, -2.0)), RankBasedProfile(3, (-1.0, -2.0, -4.0)))

    def test_geometric_market_utilities(self):
        m = geometric_market(3, 2.0)
        r = OrdinalProfile(3, ((0, 1, 2),) * 3)
        u = m.men.utilities(r)
        assert np.array_equal(u.values[0], (-1.0, -2.0, -4.0))

    def test_random_strict_rows_draws_a_tied_row_again(self):
        class Scripted:
            def __init__(self, draws):
                self.draws = list(draws)

            def uniform(self, lo, hi, size):
                return np.array(self.draws.pop(0))

        rng = Scripted([
            [-1.0, -2.0, -1.0],  # tied, so agent 0 draws again
            [-3.0, -1.0, -2.0],
            [-4.0, -5.0, -6.0],
            [-9.0, -8.0, -7.0],
        ])
        rows = _random_strict_rows(3, rng)
        assert rows == [[-1.0, -2.0, -3.0], [-4.0, -5.0, -6.0], [-7.0, -8.0, -9.0]]
        assert rng.draws == []

    def test_random_extensional_market_consistent(self):
        market = random_extensional_market(2, rng_for(3))
        for r in market.men.representable_profiles():
            assert ordinal_from_utility(market.men.utilities(r)) == r


class TestSideTables:
    def test_rank_based_table_is_the_identity_profile(self):
        side = RankBasedProfile(3, (-1.0, -2.0, -4.0))
        (r,) = side.table_profiles
        assert r == OrdinalProfile(3, ((0, 1, 2),) * 3)
        # Every agent holds the same row, so agent 0's stands for them all.
        assert side.table_ranks.dtype == np.intp
        assert np.array_equal(side.table_ranks, [[0, 1, 2]])
        assert side.table_values.tobytes() == side.utilities(r).values[:1].tobytes()

    def test_extensional_table_stacks_entries_in_table_order(self):
        side = random_extensional_market(3, rng_for(4)).men
        profiles = list(side.representable_profiles())
        assert side.table_profiles == tuple(profiles)
        ranks = np.array([r.ranks for r in profiles]).reshape(-1, 3)
        values = np.concatenate([side.utilities(r).values for r in profiles])
        assert side.table_ranks.dtype == np.intp and side.table_values.dtype == np.float64
        assert np.array_equal(side.table_ranks, ranks)
        assert side.table_values.tobytes() == values.tobytes()

    def test_extensional_utilities_copy_their_block(self):
        side = random_extensional_market(3, rng_for(4)).men
        for k, r in enumerate(side.table_profiles):
            values = side.utilities(r).values
            assert values.dtype == np.float64 and not values.flags.writeable
            assert not np.shares_memory(values, side.table_values)
            assert values.tobytes() == side.table_values[3 * k : 3 * k + 3].tobytes()

    @pytest.mark.parametrize("kind", ["rank", "extensional"])
    def test_tables_are_read_only(self, kind):
        market = geometric_market(3, 2.0) if kind == "rank" else random_extensional_market(2, rng_for(5))
        for table in (market.men.table_ranks, market.men.table_values):
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_extensional_rejects_size_mismatch(self):
        r = OrdinalProfile(2, ((0, 1), (0, 1)))
        u = UtilityProfile(3, [[-1.0, -2.0, -3.0]] * 3)
        with pytest.raises(ValueError, match="size mismatch"):
            ExtensionalProfile(2, {r: u})


# Utilities that a consistent row may hold, signed zeros and -inf included.
_ROW_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, -math.inf, -1e-320, -1.7e308]), st.floats(-1e308, 0.0)
)

# Value pairs that make a tie: equal finite values, 0.0 beside -0.0, two -inf.
_TIE_PAIRS = st.one_of(
    st.floats(-1e308, 0.0).map(lambda v: (v, v)),
    st.just((0.0, -0.0)),
    st.just((-0.0, 0.0)),
    st.just((-math.inf, -math.inf)),
)


@st.composite
def extensional_table(draw):
    """A table over distinct profiles whose entries induce their profiles,
    except for up to two bad entries at random positions: a swapped pair of
    values (a mismatch) or an exact tie."""
    n = draw(st.integers(1, 3))
    profiles = list(all_profiles(n))
    keys = draw(st.lists(st.sampled_from(profiles), min_size=1, max_size=8, unique=True))
    bad = draw(st.lists(st.integers(0, len(keys) - 1), max_size=2, unique=True))
    table = {}
    for k, r in enumerate(keys):
        rows = []
        for ranking in r.ranks:
            best_first = sorted(draw(st.lists(_ROW_VALUES, min_size=n, max_size=n, unique=True)), reverse=True)
            row = [0.0] * n
            for position, x in enumerate(ranking):
                row[x] = best_first[position]
            rows.append(row)
        if k in bad and n > 1:
            a = draw(st.integers(0, n - 1))
            x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            if draw(st.booleans()):
                rows[a][x], rows[a][y] = rows[a][y], rows[a][x]
            else:
                rows[a][x], rows[a][y] = draw(_TIE_PAIRS)
        table[r] = UtilityProfile(n, rows)
    return n, table


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


class TestExtensionalCheckMatchesPerEntryOracle:
    @given(extensional_table())
    def test_same_exception_as_oracle(self, case):
        n, table = case
        expected = _outcome(reference_extensional_check, n, table)
        assert _outcome(ExtensionalProfile, n, table) == expected


def _json_side(n: int, table, integral: bool) -> dict:
    """``table`` as a JSON extensional side, read back through ``json``;
    with ``integral``, every integral finite utility is written as a JSON
    integer."""
    def number(v):
        return int(v) if integral and math.isfinite(v) and v == int(v) else v

    entries = [
        {"ranks": [list(row) for row in r.ranks], "values": [[number(v) for v in row] for row in u.values.tolist()]}
        for r, u in table.items()
    ]
    return json.loads(json.dumps({"kind": "extensional", "n": n, "entries": entries}))


class TestJsonSideMatchesPerEntryReader:
    """``ExtensionalProfile.from_json_dict`` checks a side as a whole; the
    per-entry reader builds the same side, or raises the same error."""

    @settings(max_examples=200)
    @given(extensional_table(), st.booleans())
    def test_same_side_or_error(self, case, integral):
        n, table = case
        data = _json_side(n, table, integral)
        expected = _outcome(reference_extensional_side, data)
        assert _outcome(ExtensionalProfile.from_json_dict, data) == expected
        if expected is not None:
            return
        # A valid side is read by the bulk route alone.
        assert _json_entry_arrays(data) is not None
        got, reference = ExtensionalProfile.from_json_dict(data), reference_extensional_side(data)
        assert got.table_profiles == reference.table_profiles
        for name in ("table_ranks", "table_values"):
            a, b = getattr(got, name), getattr(reference, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
            assert not a.flags.writeable
        for r in reference.representable_profiles():
            assert got.utilities(r).values.tobytes() == reference.utilities(r).values.tobytes()
