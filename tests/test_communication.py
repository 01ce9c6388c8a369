import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matchrobust import (
    DecayFunction,
    HardnessFunction,
    admissibility_report,
    bound_table,
    communication_requirement,
    decay_inverse,
)
from matchrobust.communication import BoundConstants, functions_from_config, parse_config

from conftest import reference_decay_inverse


def decay_strategy():
    return st.builds(
        DecayFunction,
        family=st.sampled_from(("linear", "power", "logarithmic", "exponential")),
        scale=st.floats(0.1, 10.0),
        exponent=st.floats(0.2, 3.0),
    )


class TestDecayInverse:
    def test_linear_slope_one(self):
        assert decay_inverse(DecayFunction("linear"), 7.0) == 7.0

    def test_power_square(self):
        assert math.isclose(decay_inverse(DecayFunction("power", exponent=2.0), 9.0), 3.0)

    def test_exponential_clamps_below_infimum(self):
        d = DecayFunction("exponential", scale=2.0, exponent=1.0)
        assert decay_inverse(d, 1.0) == 0.0  # below D(0) = 2

    @given(decay_strategy(), st.floats(0.5, 1e6))
    def test_round_trip(self, d, y):
        t = decay_inverse(d, y)
        if y <= d.infimum():
            assert t == 0.0
        elif math.isinf(t):
            assert d.value(1e300) < y  # inverse genuinely beyond float range
        else:
            assert math.isclose(d.value(t), y, rel_tol=1e-9)

    @given(decay_strategy(), st.floats(0.5, 1e4))
    @example(DecayFunction("logarithmic", 9.5), 6559.0)  # root 7.0e299
    @example(DecayFunction("logarithmic", 10.0), 7095.0)  # root 1.4e308
    def test_bisection_matches_closed_form(self, d, y):
        if y <= d.infimum():
            return
        closed = decay_inverse(d, y)
        numeric = reference_decay_inverse(d, y)
        if math.isinf(closed):
            assert math.isinf(numeric)
        else:
            assert math.isclose(closed, numeric, rel_tol=1e-7, abs_tol=1e-9)

    @pytest.mark.parametrize(
        "d, y",
        [
            (DecayFunction("exponential", 1.0, 1.0), 1e300),  # root 690.78
            (DecayFunction("exponential", 2.0, 0.5), 1.7e308),  # root 1418.6
            (DecayFunction("power", 1.0, 3.0), 1e308),  # root 4.6e102
            (DecayFunction("power", 4.0, 2.0), 1.7e308),  # root 6.5e153
        ],
    )
    def test_bisection_reads_overflow_as_above_target(self, d, y):
        # The bracket passes points where D(t) overflows before it covers
        # the root; those points lie above any finite target.
        closed = decay_inverse(d, y)
        assert math.isfinite(closed)
        numeric = reference_decay_inverse(d, y)
        assert math.isclose(numeric, closed, rel_tol=1e-10)

    @given(
        st.sampled_from(("power", "exponential")),
        st.floats(1.0, 10.0),
        st.floats(0.2, 3.0),
        st.floats(1e200, 1.7e308),
    )
    def test_bisection_matches_closed_form_at_huge_targets(self, family, scale, exponent, y):
        d = DecayFunction(family, scale, exponent)
        closed = decay_inverse(d, y)
        numeric = reference_decay_inverse(d, y)
        if math.isinf(closed):
            assert math.isinf(numeric)
        else:
            assert math.isclose(numeric, closed, rel_tol=1e-10)

    @pytest.mark.parametrize(
        "d, y, root",
        [
            (DecayFunction("exponential", 1e-300, 0.01), 1e300, 6e4 * math.log(10)),
            (DecayFunction("exponential", 0.5, 1.0), 1.7e308, math.log(1.7e308) + math.log(2)),
            (DecayFunction("power", 1e-300, 2.0), 1e300, 1e300),
            (DecayFunction("power", 1e-8, 4.0), 1e308, 1e79),
        ],
    )
    def test_scale_below_one_near_float_maximum(self, d, y, root):
        # y / scale and the unscaled D(t) overflow although the root is finite.
        assert math.isclose(decay_inverse(d, y), root, rel_tol=1e-10)
        assert math.isclose(reference_decay_inverse(d, y), root, rel_tol=1e-10)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            decay_inverse(DecayFunction("linear"), 0.0)
        with pytest.raises(ValueError):
            decay_inverse(DecayFunction("linear"), math.nan)

    @pytest.mark.parametrize(
        "scale, exponent", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_rejects_nan_parameters(self, scale, exponent):
        with pytest.raises(ValueError):
            DecayFunction("power", scale, exponent)

    @pytest.mark.parametrize("scale, exponent", [(0.0, 1.0), (1.0, 0.0), (-0.0, 1.0)])
    def test_rejects_zero_parameters(self, scale, exponent):
        with pytest.raises(ValueError, match="positive"):
            DecayFunction("power", scale, exponent)

    @pytest.mark.parametrize(
        "family, expected", [("linear", 0.0), ("power", 0.0), ("logarithmic", 0.0), ("exponential", 2.0)]
    )
    def test_value_at_zero(self, family, expected):
        assert DecayFunction(family, scale=2.0, exponent=1.5).value(0) == expected

    def test_exponential_clamps_at_its_infimum(self):
        # y equal to D(0) = scale clamps, although log(y / scale) = 0 is a root.
        assert decay_inverse(DecayFunction("exponential", scale=2.0, exponent=1.0), 2.0) == 0.0


class TestHardness:
    def test_families(self):
        assert HardnessFunction("constant", scale=4.0).value(10) == 4.0
        assert HardnessFunction("polynomial", exponent=2.0).value(3) == 9.0
        assert math.isclose(HardnessFunction("log").value(9), math.log(10))
        assert math.isclose(
            HardnessFunction("quadratic_log").value(4), 16 * math.log(5)
        )

    def test_nondecreasing(self):
        for fam in ("constant", "log", "polynomial", "quadratic_log"):
            h = HardnessFunction(fam, scale=2.0, exponent=1.5)
            values = [h.value(n) for n in range(1, 40)]
            assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            HardnessFunction("cubic")

    def test_rejects_nan_scale(self):
        for scale in (math.nan, math.inf):
            with pytest.raises(ValueError):
                HardnessFunction("constant", scale=scale)

    def test_rejects_zero_scale(self):
        with pytest.raises(ValueError, match="scale"):
            HardnessFunction("constant", scale=0.0)

    @pytest.mark.parametrize("exponent", [-1.0, -1e-300, -math.inf, math.nan, math.inf])
    def test_rejects_negative_or_nan_exponent(self, exponent):
        with pytest.raises(ValueError, match="exponent"):
            HardnessFunction("polynomial", exponent=exponent)

    def test_zero_exponent_is_constant(self):
        h = HardnessFunction("polynomial", scale=2.0, exponent=0.0)
        assert [h.value(n) for n in (1, 5, 50)] == [2.0, 2.0, 2.0]


    def test_past_the_float_range_is_inf(self):
        assert HardnessFunction("polynomial", exponent=400.0).value(10) == math.inf
        assert HardnessFunction("quadratic_log", scale=1e308).value(10) == math.inf

    @pytest.mark.parametrize("family", ["constant", "log", "polynomial", "quadratic_log"])
    def test_rejects_n_beyond_the_float_range(self, family):
        with pytest.raises(ValueError, match="n is too large for a float"):
            HardnessFunction(family).value(10**400)


class TestCommunicationRequirement:
    def test_closed_form_example(self):
        h = HardnessFunction("polynomial", exponent=1.0)  # H(n) = n
        d = DecayFunction("linear")
        assert communication_requirement(2.0, h, d, 10) == 5.0

    def test_infinite_xi_sentinel(self):
        h = HardnessFunction("polynomial")
        d = DecayFunction("linear")
        assert communication_requirement(math.inf, h, d, 10) == 0.0

    def test_monotone_nonincreasing_in_xi(self):
        h = HardnessFunction("log", scale=3.0)
        d = DecayFunction("power", exponent=1.5)
        values = [communication_requirement(xi, h, d, 50) for xi in (1.0, 1.5, 2.0, 4.0, 16.0)]
        assert all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))

    def test_rejects_nan_xi(self):
        with pytest.raises(ValueError):
            communication_requirement(math.nan, HardnessFunction("constant"), DecayFunction("linear"), 3)

    def test_clamped_to_zero(self):
        h = HardnessFunction("constant", scale=1.0)
        d = DecayFunction("exponential", scale=5.0)  # infimum 5 > H(n)/xi
        assert communication_requirement(1.0, h, d, 3) == 0.0


class TestAdmissibilityReport:
    def test_constant_sequence_bounded(self):
        seq = [(n, 2.0) for n in (2, 4, 8, 16)]
        rep = admissibility_report(seq, HardnessFunction("constant"), DecayFunction("linear"))
        assert rep.classification == "bounded"
        ts = [row[4] for row in rep.rows]
        assert all(math.isclose(t, ts[0]) for t in ts)

    def test_euclidean_cap_with_log_hardness_grows(self):
        seq = [(n, 3.0) for n in (4, 8, 16, 32, 64, 128)]
        rep = admissibility_report(seq, HardnessFunction("log"), DecayFunction("linear"))
        assert rep.classification == "growing"

    def test_matched_quadratic_log_bounded(self):
        seq = [(n, 0.7 * n * n * math.log1p(n)) for n in (4, 8, 16, 32, 64)]
        rep = admissibility_report(seq, HardnessFunction("quadratic_log"), DecayFunction("linear"))
        assert rep.classification == "bounded"

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            admissibility_report([(2, 1.0), (4, 1.0)], HardnessFunction("constant"), DecayFunction("linear"))

    def test_infinite_xi_is_left_out_of_the_fit(self):
        # The infinite xi has ratio 0 and no logarithm; the other two points
        # still fit: ratios 1 and 4 from n = 2 to n = 4, slope 2.
        seq = [(2, 4.0), (3, math.inf), (4, 1.0)]
        rep = admissibility_report(seq, HardnessFunction("constant", scale=4.0), DecayFunction("linear"))
        assert rep.growth_factor == 4.0
        assert math.isclose(rep.fitted_exponent, 2.0)
        assert rep.classification == "growing"

    def test_growth_at_the_threshold_is_bounded(self):
        # Ratios 1, 1, 1.05 exactly: growth equals the 5 percent threshold
        # and the slope stays below 0.25, so the trend is bounded.
        seq = [(1, 1.05), (2, 1.05), (3, 1.0)]
        rep = admissibility_report(seq, HardnessFunction("constant", scale=1.05), DecayFunction("linear"))
        assert rep.growth_factor == 1.05 and rep.fitted_exponent < 0.25
        assert rep.classification == "bounded"

    @pytest.mark.parametrize(
        "seq, growing_by",
        [
            # Ratios 1, 1, 1.25: growth 1.25, slope 0.18.
            ([(1, 10.0), (2, 10.0), (3, 8.0)], "growth"),
            # Ratios 1, 10, 1: growth 1, slope 0.36.
            ([(1, 10.0), (2, 1.0), (3, 10.0)], "slope"),
        ],
    )
    def test_either_test_alone_makes_it_growing(self, seq, growing_by):
        rep = admissibility_report(seq, HardnessFunction("constant", scale=10.0), DecayFunction("linear"))
        assert (rep.growth_factor > 1.05) is (growing_by == "growth")
        assert (rep.fitted_exponent > 0.25) is (growing_by == "slope")
        assert rep.classification == "growing"

    def test_caveat_present(self):
        seq = [(n, 2.0) for n in (2, 4, 8)]
        rep = admissibility_report(seq, HardnessFunction("constant"), DecayFunction("linear"))
        assert "finite-range trend, not a limit statement" in rep.to_text()


class TestBoundTable:
    def _table(self, n=4, size=100, genus=3, hfam="log"):
        return bound_table(n, size, genus, HardnessFunction(hfam), DecayFunction("linear"))

    def test_probabilistic_genus_drops_n2(self):
        t = self._table()
        h = HardnessFunction("log").value(4)
        det_expected = h / (4 * 4 * math.log(1 + 3))
        prob_expected = h / math.log(1 + 3)
        assert math.isclose(t.deterministic[1], det_expected)
        assert math.isclose(t.probabilistic[1], prob_expected)
        assert t.probabilistic[1] >= t.deterministic[1]

    def test_size_column_identical_between_rows(self):
        t = self._table()
        assert t.deterministic[0] == t.probabilistic[0]
        assert t.deterministic[2] == t.probabilistic[2]

    def test_flat_column_when_ratio_constant(self):
        # Constant hardness and a fixed space size: the size column does not
        # move with n.
        tables = [bound_table(n, 64, 2, HardnessFunction("constant"), DecayFunction("linear")) for n in (2, 4, 8)]
        sizes = [t.deterministic[0] for t in tables]
        assert all(math.isclose(s, sizes[0]) for s in sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._table(n=1)
        with pytest.raises(ValueError):
            bound_table(3, 1, 1, HardnessFunction("log"), DecayFunction("linear"))

    @pytest.mark.parametrize("n, size, genus", [(1, 100, 3), (4, 1, 3), (4, 100, 0)])
    def test_each_parameter_below_its_minimum(self, n, size, genus):
        with pytest.raises(ValueError, match="need n >= 2"):
            self._table(n=n, size=size, genus=genus)

    def test_smallest_valid_table(self):
        t = self._table(n=2, size=2, genus=1)
        assert all(v >= 0.0 for v in (*t.deterministic, *t.probabilistic))

    @pytest.mark.parametrize("name", ["size_constant", "genus_constant", "market_constant"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_constants_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            BoundConstants(**{name: value})

    def test_csv_and_text_rendering(self):
        t = self._table()
        csv = t.to_csv()
        assert csv.splitlines()[0].startswith("requirement,")
        assert len(csv.splitlines()) == 3
        text = t.to_text()
        assert "deterministic" in text and "probabilistic" in text


class TestConfig:
    def test_parse_and_build(self):
        text = """
# communication configuration
[hardness]
family = log
scale = 2.0

[decay]
family = power
scale = 1.0
exponent = 2.0

[constants]
size_constant = 1.5
"""
        h, d, constants = functions_from_config(parse_config(text))
        assert h.family == "log" and h.scale == 2.0
        assert d.family == "power" and d.exponent == 2.0
        assert constants.size_constant == 1.5
        assert constants.genus_constant == 1.0

    def test_parse_rejects_bad_line(self):
        with pytest.raises(ValueError):
            parse_config("[decay]\nfamily power\n")

    def test_parse_inline_comments_and_key_case(self):
        sections = parse_config("[decay]\nfamily = power  # p\nScale = 2.5 # s\n")
        assert sections == {"decay": {"family": "power", "Scale": 2.5}}

    def test_parse_rejects_key_outside_section(self):
        with pytest.raises(ValueError):
            parse_config("family = power\n")

    def test_empty_config_is_the_dataclass_defaults(self):
        assert functions_from_config({}) == (HardnessFunction(), DecayFunction(), BoundConstants())

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[hardnes]\nfamily = polynomial\n", "unknown section [hardnes]"),
            ("[DEFAULT]\nfamily = log\n", "unknown section [DEFAULT]"),
            ("[hardness]\nScale = 2\n", "unknown key 'Scale' in [hardness]"),
            ("[constants]\nfamily = log\n", "unknown key 'family' in [constants]"),
        ],
    )
    def test_unknown_section_or_key_is_named(self, text, named):
        with pytest.raises(ValueError) as info:
            functions_from_config(parse_config(text))
        assert str(info.value).startswith(named)
