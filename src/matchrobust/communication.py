"""Decay/hardness function algebra, communication requirements, and bound
tables.

The communication requirement of a market with robustness xi is the
earliest time t at which the perturbation level H(n) / D(t) drops below xi,
which is D^{-1}(H(n) / xi) for a monotone continuous decay D. Whether the
requirement stays bounded along a growing family of markets depends only on
whether H(n) keeps pace with xi_n; that limit question is replaced here by
finite-range trend reports, labeled as such.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .embedding import log_genus_robustness_cap, log_size_robustness_cap

DECAY_FAMILIES = ("linear", "power", "logarithmic", "exponential")
HARDNESS_FAMILIES = ("constant", "log", "polynomial", "quadratic_log")

#: Relative growth of H(n)/xi_n over the sampled range above which the
#: trend is classified as growing.
_GROWTH_THRESHOLD = 1.05


@dataclass(frozen=True)
class DecayFunction:
    """Monotone increasing, continuous, positive decay with D(t) -> inf.

    Families (scale > 0, exponent > 0):
      linear        D(t) = scale * t
      power         D(t) = scale * t**exponent
      logarithmic   D(t) = scale * ln(1 + t)
      exponential   D(t) = scale * exp(exponent * t), infimum scale at t = 0
    """

    family: str = "linear"
    scale: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.family not in DECAY_FAMILIES:
            raise ValueError(f"unknown decay family {self.family!r}")
        if not 0 < self.scale < math.inf or not 0 < self.exponent < math.inf:
            raise ValueError("scale and exponent must be positive and finite")

    def value(self, t: float) -> float:
        if t < 0:
            raise ValueError("decay is defined for t >= 0")
        if self.family == "linear":
            return self.scale * t
        if self.family == "power":
            return self.scale * t**self.exponent
        if self.family == "logarithmic":
            return self.scale * math.log1p(t)
        return self.scale * math.exp(self.exponent * t)

    def infimum(self) -> float:
        """Value approached as t -> 0+ (the clamp threshold for inversion)."""
        return self.scale if self.family == "exponential" else 0.0


def decay_inverse(d: DecayFunction, y: float) -> float:
    """Solve D(t) = y for t >= 0 in closed form.

    Values of y at or below ``d.infimum()`` clamp to t = 0. Targets whose
    inverse exceeds the float range come back as inf;
    where ``y / scale`` overflows but the root does not, the power and
    exponential closed forms are taken in log space.
    """
    if not y > 0:
        raise ValueError("y must be positive")
    if y <= d.infimum():
        return 0.0
    try:
        if d.family == "linear":
            return y / d.scale
        if d.family == "logarithmic":
            return math.expm1(y / d.scale)
        ratio = y / d.scale
        if math.isinf(ratio):  # a scale below 1 can overflow the quotient but not the root
            log_root = (math.log(y) - math.log(d.scale)) / d.exponent
            t = math.exp(log_root) if d.family == "power" else log_root
        elif d.family == "power":
            t = ratio ** (1.0 / d.exponent)
        else:
            t = math.log(ratio) / d.exponent
        return t
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class HardnessFunction:
    """Nondecreasing positive hardness of preference learning.

    Families (scale > 0, exponent >= 0):
      constant       H(n) = scale
      log            H(n) = scale * ln(1 + n)
      polynomial     H(n) = scale * n**exponent
      quadratic_log  H(n) = scale * n**2 * ln(1 + n)

    The ln(1 + n) convention keeps the log families positive at n = 1.
    """

    family: str = "constant"
    scale: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.family not in HARDNESS_FAMILIES:
            raise ValueError(f"unknown hardness family {self.family!r}")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")
        if not 0 <= self.exponent < math.inf:  # a negative exponent would make H decrease
            raise ValueError("exponent must be nonnegative and finite")

    def value(self, n: int) -> float:
        """H(n); a value past the float range is inf."""
        if n < 1:
            raise ValueError("n >= 1 required")
        try:
            x = float(n)
        except OverflowError:
            raise ValueError("n is too large for a float") from None
        if self.family == "constant":
            return self.scale
        if self.family == "log":
            return self.scale * math.log1p(x)
        if self.family == "polynomial":
            try:
                return self.scale * x**self.exponent
            except OverflowError:  # float ** raises where * rounds to inf
                return math.inf
        return self.scale * x * x * math.log1p(x)


def communication_requirement(
    xi: float, h: HardnessFunction, d: DecayFunction, n: int
) -> float:
    """Earliest time with perturbation level H(n)/D(t) no larger than xi.

    Infinite xi (the sentinel for markets with no comparable pairs) yields
    0, as does any xi already above H(n)/D(0+); negative times never occur
    because the inversion clamps at 0.
    """
    if not xi >= 1.0:
        raise ValueError("xi must be >= 1")
    if math.isinf(xi):
        return 0.0
    return decay_inverse(d, h.value(n) / xi)


@dataclass(frozen=True)
class AdmissibilityReport:
    rows: tuple[tuple[int, float, float, float, float], ...]  # (n, xi, H, H/xi, T)
    fitted_exponent: float
    growth_factor: float
    classification: str  # "bounded" | "growing"

    def to_text(self) -> str:
        lines = [f"{'n':>8} {'xi':>14} {'H(n)':>14} {'H/xi':>14} {'T':>14}"]
        for n, xi, hn, ratio, t in self.rows:
            lines.append(f"{n:>8} {xi:>14.6g} {hn:>14.6g} {ratio:>14.6g} {t:>14.6g}")
        lines.append(
            f"classification: {self.classification} "
            f"(fitted exponent {self.fitted_exponent:.4f}, "
            f"growth factor {self.growth_factor:.4g}; finite-range trend, not a limit statement)"
        )
        return "\n".join(lines) + "\n"


def admissibility_report(
    xi_sequence: Sequence[tuple[int, float]],
    h: HardnessFunction,
    d: DecayFunction,
) -> AdmissibilityReport:
    """Trend report for H(n)/xi_n over a finite range of market sizes.

    Fits the log-log slope of the ratio against n and classifies the trend
    as growing when the ratio increases by more than 5 percent over the
    range (or the fitted exponent is clearly positive), else bounded. This
    is an honest finite-range report, not a limit computation.
    """
    if len(xi_sequence) < 3:
        raise ValueError("need at least 3 sample points")
    rows = []
    for n, xi in sorted(xi_sequence):
        hn = h.value(n)
        ratio = 0.0 if math.isinf(xi) else hn / xi
        rows.append((n, float(xi), hn, ratio, communication_requirement(xi, h, d, n)))
    positive = [(n, ratio) for n, _xi, _hn, ratio, _t in rows if ratio > 0]
    if len(positive) >= 2:
        log_n = np.log([n for n, _ in positive])
        log_r = np.log([r for _, r in positive])
        slope = float(np.polyfit(log_n, log_r, 1)[0])
        growth = positive[-1][1] / positive[0][1]
    else:
        slope = 0.0
        growth = 1.0
    classification = "growing" if (growth > _GROWTH_THRESHOLD or slope > 0.25) else "bounded"
    return AdmissibilityReport(tuple(rows), slope, growth, classification)


@dataclass(frozen=True)
class BoundConstants:
    """Positive calibration constants for the O() bounds; defaults are 1 and
    results always echo them."""

    size_constant: float = 1.0
    genus_constant: float = 1.0
    market_constant: float = 1.0

    def __post_init__(self):
        for name in ("size_constant", "genus_constant", "market_constant"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class BoundTable:
    """Lower bounds on the communication requirement, deterministic and
    probabilistic rows, by space size, genus, and market size.

    The genus column carries the n^2 factor only in the deterministic row;
    the size and market-size columns are identical between rows.
    """

    constants: BoundConstants
    deterministic: tuple[float, float, float]  # (by size, by genus, by n)
    probabilistic: tuple[float, float, float]

    def _rows(self):
        return (("deterministic", self.deterministic), ("probabilistic", self.probabilistic))

    def to_csv(self) -> str:
        lines = [
            "requirement,by_space_size,by_genus,by_market_size,"
            "size_constant,genus_constant,market_constant"
        ]
        for name, cells in self._rows():
            lines.append(
                f"{name},{cells[0]:.10g},{cells[1]:.10g},{cells[2]:.10g},"
                f"{self.constants.size_constant:.10g},"
                f"{self.constants.genus_constant:.10g},"
                f"{self.constants.market_constant:.10g}"
            )
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        rows = [f"{'requirement':<14} {'by |X|':>14} {'by genus':>14} {'by n':>14}"]
        for name, cells in self._rows():
            rows.append(f"{name:<14} {cells[0]:>14.6g} {cells[1]:>14.6g} {cells[2]:>14.6g}")
        rows.append(
            f"constants: size={self.constants.size_constant:g} "
            f"genus={self.constants.genus_constant:g} "
            f"market={self.constants.market_constant:g}"
        )
        return "\n".join(rows) + "\n"


def bound_table(
    n: int,
    space_size: int,
    genus: int,
    h: HardnessFunction,
    d: DecayFunction,
    constants: BoundConstants = BoundConstants(),
) -> BoundTable:
    """Six communication-requirement lower bounds from the robustness caps.

    Deterministic row: T >= D^{-1}(H(n) / (c1 ln|X|)),
    D^{-1}(H(n) / (c2 n^2 ln(1+g))), D^{-1}(H(n) / (c3 n^2 ln n)).
    Probabilistic row: identical except the genus cell drops the n^2
    factor.
    """
    if n < 2 or space_size < 2 or genus < 1:
        raise ValueError("need n >= 2, space_size >= 2, genus >= 1")
    hn = h.value(n)

    def t_for(bound: float) -> float:
        return decay_inverse(d, hn / bound)

    size_bound = log_size_robustness_cap(space_size, constants.size_constant)
    market_bound = constants.market_constant * n * n * math.log(n)
    genus_scale = constants.genus_constant * n * n
    for what, value in (
        ("market_constant * n^2 * ln(n)", market_bound),
        ("genus_constant * n^2", genus_scale),
    ):
        if not math.isfinite(value):
            raise ValueError(f"n is too large: {what} is past the float range")
    by_size, by_market = t_for(size_bound), t_for(market_bound)
    det = (by_size, t_for(log_genus_robustness_cap(genus, genus_scale)), by_market)
    prob = (by_size, t_for(log_genus_robustness_cap(genus, constants.genus_constant)), by_market)
    return BoundTable(constants, det, prob)


def parse_config(text: str) -> dict[str, dict[str, float | str]]:
    """INI config: every key sits under a [section] header, # starts a
    comment (also inline) and key case is kept. No header can name the empty
    section, so [DEFAULT] is a section like any other. Values are parsed as
    int, then float, then bare/quoted string. Malformed text raises ValueError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    parser.optionxform = str
    try:
        parser.read_string(text, source="config")
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from exc  # one line for the CLI
    return {name: {k: _parse_value(v) for k, v in parser.items(name)} for name in parser.sections()}


def _parse_value(value: str) -> float | str:
    value = value.strip('"').strip("'")
    for convert in (int, float):
        try:
            return convert(value)
        except ValueError:
            pass
    return value


#: Each config section and the dataclass its keys build.
_SECTIONS = {"hardness": HardnessFunction, "decay": DecayFunction, "constants": BoundConstants}


def functions_from_config(
    sections: dict[str, dict],
) -> tuple[HardnessFunction, DecayFunction, BoundConstants]:
    """H, D and the bound constants from ``sections`` (as :func:`parse_config`
    returns them); a missing section or key keeps the dataclass default. An
    unknown section or key raises ValueError naming it."""
    for name, section in sections.items():
        if name not in _SECTIONS:
            raise ValueError(f"unknown section [{name}]; expected one of {', '.join(_SECTIONS)}")
        keys = {f.name for f in fields(_SECTIONS[name])}
        for key in section:
            if key not in keys:
                raise ValueError(f"unknown key {key!r} in [{name}]")
    return tuple(
        cls(**{k: str(v) if k == "family" else float(v) for k, v in sections.get(name, {}).items()})
        for name, cls in _SECTIONS.items()
    )
