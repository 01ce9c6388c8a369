"""Robustness of matching markets to multiplicative utility perturbation.

The central quantity is the supremal factor by which every utility profile
of a market can be scaled entrywise (factors >= 1, never improving any
utility) while both deferred-acceptance outcomes stay fixed for every pair
of ordinal profiles. It equals a double minimum of utility ratios: over
ordinal profiles, and over each agent's consecutive-rank utility pairs on
both sides. This module computes that minimum directly, cross-checks it
with an independent bisection search that perturbs, re-extracts ordinals
and reruns deferred acceptance, and provides the probabilistic spike
construction that separates deterministic from probabilistic robustness.

Both routes read one stacked table of agent rows per side: the formula
route forms consecutive utility ratios from it, and the bisection search,
which never forms a ratio, re-extracts every single-entry perturbation of
a side at once, one stable ``argsort`` per block of perturbed rows standing
in for sorting each row by (-utility, index). A changed order or an exact
tie breaks the level, and the first break is confirmed through deferred
acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markets import (
    MarketProfile,
    MatchingMarket,
    Perturbation,
    UtilityProfile,
    apply_perturbation,
    geometric_market,
)
from .ordinal import (
    OrdinalProfile,
    StablePair,
    TiePolicy,
    distinguishing_profile,
    ordinal_from_utility_flagged,
    phi,
    uniform_profile,
)
from .seeding import rng_for


class DivisionByZeroUtility(ZeroDivisionError):
    """A zero utility appeared in a ratio denominator."""

    def __init__(self, side: str, profile: OrdinalProfile, agent: int, alternative: int):
        super().__init__(
            f"zero utility in denominator: side={side}, agent={agent}, "
            f"alternative={alternative}"
        )
        self.side = side
        self.profile = profile
        self.agent = agent
        self.alternative = alternative


@dataclass(frozen=True)
class _ScanSide:
    """One market side's scanned profiles, stacked once as agent rows.

    Row ``k * n + a`` holds agent ``a`` at ``profiles[k]``: ``ranks`` its
    ordinal ranking and ``values`` its utilities, both of shape
    ``(len(profiles) * n, n)``.
    """

    name: str
    profiles: list[OrdinalProfile]
    utilities: list[UtilityProfile]
    ranks: np.ndarray
    values: np.ndarray


def _scan_side(name: str, side: MarketProfile, profiles) -> _ScanSide:
    n = side.n
    profiles = list(profiles)
    utilities = [side.utilities(r) for r in profiles]
    ranks = np.array([r.ranks for r in profiles], dtype=np.intp).reshape(-1, n)
    values = np.concatenate([u.values for u in utilities])
    return _ScanSide(name, profiles, utilities, ranks, values)


def _scan_sides(market: MatchingMarket):
    """Both sides' tables in scan order, each built when the scan reaches it.
    A rank-symmetric side collapses to a single representative profile (the
    ratio multiset is identical at every profile); an extensional side
    scans its stored table."""
    for name, side in (("men", market.men), ("women", market.women)):
        symmetric = side.rank_symmetric
        profiles = [side.representative_profile()] if symmetric else side.representable_profiles()
        yield _scan_side(name, side, profiles)


def _consecutive(side: _ScanSide) -> tuple[np.ndarray, np.ndarray]:
    """``(upper, lower)``: at ``[row, i]`` the utility of the alternative the
    row's agent ranks at position ``i`` and that of the one ranked just
    below it. Row-major order is the scan order (profile, agent, position).
    """
    ranked = np.take_along_axis(side.values, side.ranks, axis=1)
    return ranked[:, :-1], ranked[:, 1:]


def is_c_robust(market: MatchingMarket, c: float) -> bool:
    """Strict ratio condition: for every profile and every agent, scaling the
    utility of a preferred alternative by ``c`` keeps it strictly above the
    utility of everything ranked below it."""
    if not c >= 1.0:
        raise ValueError("c must be >= 1")
    for side in _scan_sides(market):
        upper, lower = _consecutive(side)
        # c * upper may overflow, and is NaN at c = inf and a zero utility.
        with np.errstate(over="ignore", invalid="ignore"):
            if not (c * upper > lower).all():
                return False
    return True


def robustness(market: MatchingMarket) -> float:
    """The double minimum of consecutive utility ratios over both sides.

    Returns ``inf`` when no comparable pair exists (n = 1, vacuous minimum).
    Raises :class:`DivisionByZeroUtility` when a zero utility would land in
    a denominator; the offending profile, agent and alternative ride along
    on the exception.
    """
    best = math.inf
    for side in _scan_sides(market):
        upper, lower = _consecutive(side)
        zeros = np.flatnonzero(upper == 0.0)
        if zeros.size:
            row, i = divmod(int(zeros[0]), upper.shape[1])
            k, agent = divmod(row, side.ranks.shape[1])
            raise DivisionByZeroUtility(side.name, side.profiles[k], agent, int(side.ranks[row, i]))
        with np.errstate(over="ignore"):
            best = float(np.min(lower / upper, initial=best))
    return best


@dataclass(frozen=True)
class AdversarialWitness:
    """A verified break of robustness at some level c.

    ``perturbation`` is a single-entry matrix with one factor equal to c.
    Applying it to the utilities at ``profile`` changes the extracted
    ordinal profile to ``perturbed_profile``; at ``distinguishing`` on the
    opposite side the deferred-acceptance pairs differ, which is verified
    before the witness is returned.
    """

    side: str
    profile: OrdinalProfile
    perturbation: Perturbation
    perturbed_profile: OrdinalProfile
    distinguishing: OrdinalProfile
    original_pair: StablePair
    perturbed_pair: StablePair
    tie_created: bool


def _adjacent_swap(r: OrdinalProfile, agent: int, position: int) -> OrdinalProfile:
    rows = [list(row) for row in r.ranks]
    rows[agent][position], rows[agent][position + 1] = (
        rows[agent][position + 1],
        rows[agent][position],
    )
    return OrdinalProfile(r.n, tuple(tuple(row) for row in rows))


def _build_witness(side: _ScanSide, row: int, position: int, c: float) -> AdversarialWitness:
    """The verified witness for perturbing, at level ``c``, the alternative
    that table row ``row`` ranks at ``position`` (a non-last rank)."""
    n = side.ranks.shape[1]
    k, agent = divmod(row, n)
    r, u = side.profiles[k], side.utilities[k]
    alt = r.ranks[agent][position]
    delta = Perturbation.single_entry(n, agent, alt, c)
    perturbed = apply_perturbation(delta, u)
    r_tilde, had_ties = ordinal_from_utility_flagged(perturbed, TiePolicy.INDEX)
    if r_tilde == r:
        # The perturbation created an exact tie that index tie-breaking undid.
        # Ties count as a preference change, so resolve the tie against the
        # perturbed entry to exhibit the adjacent flip it licenses.
        r_tilde = _adjacent_swap(r, agent, position)
        had_ties = True
    other = distinguishing_profile(r, r_tilde)
    if side.name == "men":
        original = phi(r, other)
        changed = phi(r_tilde, other)
    else:
        original = phi(other, r)
        changed = phi(other, r_tilde)
    if original == changed:
        raise RuntimeError("witness verification failed; this is a bug")
    return AdversarialWitness(
        side=side.name,
        profile=r,
        perturbation=delta,
        perturbed_profile=r_tilde,
        distinguishing=other,
        original_pair=original,
        perturbed_pair=changed,
        tie_created=had_ties,
    )


def adversarial_witness(market: MatchingMarket, c: float) -> AdversarialWitness | None:
    """Search for a single-entry perturbation at level ``c`` that demonstrably
    changes a deferred-acceptance outcome.

    Only single-entry extremal perturbations are searched: if any
    perturbation with factors <= c flips a comparison, then setting just the
    flipped entry's factor to c flips it too (scaling one utility can only
    sink it; the others were not raised). Returns None when nothing in the
    scanned profiles breaks, which means the market is c-robust.
    """
    if not 1.0 <= c < math.inf:
        raise ValueError("c must be finite and >= 1")
    for side in _scan_sides(market):
        upper, lower = _consecutive(side)
        with np.errstate(over="ignore"):
            hits = np.flatnonzero(c * upper <= lower)
        if hits.size:
            return _build_witness(side, *divmod(int(hits[0]), upper.shape[1]), c)
    return None


#: Elements per temporary array in one level-scan block (2 MiB of float64).
_SCAN_BLOCK_ELEMENTS = 1 << 18


def _first_break(ranks: np.ndarray, values: np.ndarray, c: float) -> tuple[int, int] | None:
    """First (row, position) whose single-entry perturbation changes the row's
    re-extracted ranking or creates an exact tie, or None.

    Entry ``[row, i]`` multiplies the utility of alternative ``ranks[row, i]``
    by ``c`` and re-extracts the row with a stable sort on negated utilities,
    which orders by (-value, index) exactly as index tie-breaking does. Rows
    are walked in blocks so temporaries stay bounded at any n.
    """
    rows, n = ranks.shape
    block = max(1, _SCAN_BLOCK_ELEMENTS // (n * n))
    positions = np.arange(n)
    for start in range(0, rows, block):
        r = ranks[start : start + block]
        v = values[start : start + block]
        local = np.arange(len(r))[:, None]
        perturbed = np.repeat(v[:, None, :], n, axis=1)
        with np.errstate(over="ignore"):
            perturbed[local, positions, r] = v[local, r] * c
        order = np.argsort(-perturbed, axis=2, kind="stable")
        ranked = np.take_along_axis(perturbed, order, axis=2)
        breaks = (order != r[:, None, :]).any(axis=2)
        breaks |= (ranked[:, :, 1:] == ranked[:, :, :-1]).any(axis=2)
        hits = np.flatnonzero(breaks)
        if hits.size:
            row, position = divmod(int(hits[0]), n)
            return start + row, position
    return None


def _breakable(c: float, sides: tuple[_ScanSide, ...]) -> bool:
    for side in sides:
        hit = _first_break(side.ranks, side.values, c)
        if hit is not None:
            row, position = hit
            # Confirm through deferred acceptance that the ordinal change
            # really moves a stable pair.
            _build_witness(side, row, min(position, side.ranks.shape[1] - 2), c)
            return True
    return False


def robustness_by_search(market: MatchingMarket, tol: float = 1e-6) -> float:
    """Bisection oracle for :func:`robustness`.

    At each candidate level the search applies every single-entry extremal
    perturbation on both sides and every scanned profile and re-extracts the
    perturbed agent's ranking. The scanned profiles are stacked once per
    side as agent rows, and each level re-extracts all perturbed rows of a
    block with one stable ``argsort``; a changed ranking or an exact tie
    breaks the level. No utility ratio is formed, so this route stays
    independent of the formula it cross-checks. The first break in scan
    order (side, profile, agent, position) is verified through a
    distinguishing opposite-side profile: the deferred-acceptance pair must
    move. The bracket starts at [1, 2] and doubles its upper end until that
    end breaks. Bisection stops once the bracket is no wider than ``tol`` or
    no float lies strictly between its ends, so a ``tol`` below the float
    spacing stops at float resolution; a NaN or infinite ``tol`` is
    rejected.
    """
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    n = market.n
    if n == 1:
        return math.inf
    sides = tuple(_scan_sides(market))
    lo, hi = 1.0, 2.0
    if _breakable(lo, sides):
        return lo
    while not _breakable(hi, sides):
        hi *= 2.0
        if hi > 2.0**80:
            return math.inf
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _breakable(mid, sides):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def sufficient_robustness_level(n: int, c: float) -> float:
    """Deterministic robustness level sufficient for probabilistic c-robustness:
    2n(n-1)(c-1) + 1."""
    if n < 1:
        raise ValueError("n >= 1 required")
    if not c >= 1.0:
        raise ValueError("c must be >= 1")
    return 2.0 * n * (n - 1) * (c - 1.0) + 1.0


def critical_consecutive_ratio(n: int, c: float, eps: float) -> float:
    """Consecutive utility ratio of the critical market: 2n(n-1)((1+eps/2)c-1)+1."""
    return 2.0 * n * (n - 1) * ((1.0 + eps / 2.0) * c - 1.0) + 1.0


def spike_factor(n: int, c: float, eps: float) -> float:
    """Spike factor of the kill distribution: 2n(n-1)((1+eps)c-1)+1."""
    return 2.0 * n * (n - 1) * ((1.0 + eps) * c - 1.0) + 1.0


def critical_market(n: int, c: float, eps: float) -> MatchingMarket:
    """Rank-based market whose every consecutive utility ratio equals
    ``critical_consecutive_ratio(n, c, eps)`` on both sides, top utility -1.

    The ratio strictly exceeds ``sufficient_robustness_level(n, c)``, so the market is
    robust at that level, yet a single random spike of size
    ``spike_factor(n, c, eps)`` placed at a uniform (agent, rank) slot
    always flips one adjacent comparison. Parameters whose rank utilities
    or spike factor leave the float range are rejected, and so are those
    where rounding breaks that flip: the ratio rounds to 1, or the spiked
    utility at some rank ties another rank's utility or stays above the
    next rank's.
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if not 1.0 <= c < math.inf:
        raise ValueError("c must be finite and >= 1")
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    spike = spike_factor(n, c, eps)
    if not math.isfinite(spike):
        raise ValueError("spike factor overflows the float range")
    too_small = f"eps = {eps!r} is too small for c = {c!r}"
    ratio = critical_consecutive_ratio(n, c, eps)
    if not ratio > 1.0:
        raise ValueError(f"{too_small}: the consecutive utility ratio rounds to 1")
    market = geometric_market(n, ratio)
    ru = market.men.rank_utilities
    for i in range(n - 1):
        v = spike * ru[i]  # the product apply_perturbation forms
        if not v < ru[i + 1] or v in ru:
            raise ValueError(
                f"{too_small}: after rounding, a spike at rank {i} does not move "
                "exactly one alternative"
            )
    return market


@dataclass(frozen=True)
class PerturbationSample:
    """One joint draw: both ordinal profiles and both factor matrices."""

    men_profile: OrdinalProfile
    women_profile: OrdinalProfile
    men_factors: Perturbation
    women_factors: Perturbation


class IidUniformFactorSampler:
    """Independent factors uniform on [1, level]; profiles uniform.

    All factors are bounded by ``level`` almost surely, so every draw is an
    ordinary deterministic perturbation at that level and per-entry means
    land at (1 + level) / 2 <= level.
    """

    def __init__(self, n: int, level: float):
        if not 1.0 <= level < math.inf:
            raise ValueError("level must be finite and >= 1")
        self.n = n
        self.level = level

    def _factors(self, rng) -> Perturbation:
        return Perturbation(self.n, rng.uniform(1.0, self.level, size=(self.n, self.n)))

    def sample(self, rng: np.random.Generator) -> PerturbationSample:
        return PerturbationSample(
            uniform_profile(self.n, rng),
            uniform_profile(self.n, rng),
            self._factors(rng),
            self._factors(rng),
        )


class CriticalSpikeSampler:
    """Joint kill distribution for ``critical_market(n, c, eps)``, which the
    sampler builds and keeps as ``self.market``.

    Each draw picks one (agent, rank) slot uniformly among the 2n(n-1)
    non-last slots across both sides, samples the spiked side's ordinal
    profile uniformly, and sets exactly that slot's factor to
    ``spike_factor(n, c, eps)`` with every other factor 1. Last-rank
    slots are never spiked (a factor can only lower a utility, and the last
    ranked alternative has nowhere to fall). The opposite side's profile is
    then the distinguishing profile for the pre- and post-spike ordinals,
    so the stable pair changes in every draw, while each non-last slot's
    factor has expectation exactly (1 + eps) * c.
    """

    def __init__(self, n: int, c: float, eps: float):
        self.market = critical_market(n, c, eps)
        self.n = n
        self.c = c
        self.eps = eps
        self.spike = spike_factor(n, c, eps)
        self.level = (1.0 + eps) * c
        self._ones = Perturbation.ones(n)

    def sample(self, rng: np.random.Generator) -> PerturbationSample:
        n = self.n
        a_star = int(rng.integers(0, 2 * n))
        i_star = int(rng.integers(0, n - 1))
        agent = a_star % n
        side_name = "men" if a_star < n else "women"

        r = uniform_profile(n, rng)
        delta = Perturbation.single_entry(n, agent, r.ranks[agent][i_star], self.spike)
        # critical_market proved that the spike sinks the alternative at
        # i_star below the one at i_star + 1 without a tie. The distinguishing
        # profile reads only that first flipped pair, so the adjacent swap
        # stands in for re-extracting the spiked utilities.
        other = distinguishing_profile(r, _adjacent_swap(r, agent, i_star))
        if side_name == "men":
            return PerturbationSample(r, other, delta, self._ones)
        return PerturbationSample(other, r, self._ones, delta)


def preservation_probability(
    market: MatchingMarket, sampler, trials: int, seed: int
) -> float:
    """Monte Carlo estimate of the probability that perturbation preserves
    both deferred-acceptance outcomes.

    Each trial draws a joint sample, applies the factors to the true
    utilities, re-extracts ordinal profiles (index tie policy; any tie
    counts as non-preservation) and compares the stable pair before and
    after. Trials use split seeds, so the estimate is independent of
    execution order.
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    preserved = 0
    for t in range(trials):
        rng = rng_for(seed, t)
        s = sampler.sample(rng)
        true_pair = phi(s.men_profile, s.women_profile)
        um = apply_perturbation(s.men_factors, market.men.utilities(s.men_profile))
        uw = apply_perturbation(s.women_factors, market.women.utilities(s.women_profile))
        rm, ties_m = ordinal_from_utility_flagged(um, TiePolicy.INDEX)
        rw, ties_w = ordinal_from_utility_flagged(uw, TiePolicy.INDEX)
        if ties_m or ties_w:
            continue
        if phi(rm, rw) == true_pair:
            preserved += 1
    return preserved / trials


def rank_slot_factor_stats(sampler, draws: int, seed: int):
    """Per-slot empirical factor means and standard errors.

    Slots are (agent, rank) positions: rows 0..n-1 are the men's side, rows
    n..2n-1 the women's side, columns the non-last rank positions 0..n-2.
    The factor observed at a slot in one draw is the multiplier applied to
    the alternative that the slot's agent ranks at that position under the
    drawn profile.
    """
    if draws < 1:
        raise ValueError("draws >= 1 required")
    n = sampler.n
    sums = np.zeros((2 * n, n - 1))
    sumsq = np.zeros((2 * n, n - 1))
    for t in range(draws):
        s = sampler.sample(rng_for(seed, t))
        factors = np.concatenate((s.men_factors.factors, s.women_factors.factors))
        ranks = np.array(s.men_profile.ranks + s.women_profile.ranks)[:, :-1]
        f = np.take_along_axis(factors, ranks, axis=1)
        sums += f
        sumsq += f * f
    means = sums / draws
    variances = np.maximum(sumsq / draws - means**2, 0.0)
    std_errs = np.sqrt(variances / draws)
    return means, std_errs
