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

Both routes read the table each market side stacks once at construction
(``table_profiles``, ``table_ranks``, ``table_values``: one representative
agent's row of a rank-based side, the stored entries of an extensional one).
The formula route forms consecutive utility ratios from it, and the
bisection search, which never forms a ratio, re-extracts every
single-entry perturbation of a side at once, one stable ``argsort`` per
block of perturbed rows standing in for sorting each row by (-utility,
index). Each temporary of that scan holds at most ``_SCAN_BLOCK_ELEMENTS``
entries (2 MiB of float64), or one row when n is larger, at every n. A
changed order or an exact tie breaks the level; a block's first break is
found by flat index, not by per-row reductions. The first break is
confirmed through deferred acceptance by one proposal chain before the
perturbation and one after, proposed by the distinguishing opposite-side
profile, against position tables built once per search. The same check
verifies every witness; only :func:`adversarial_witness` builds one, with
its profiles and perturbation matrix.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .markets import (
    MarketProfile,
    MatchingMarket,
    Perturbation,
    geometric_market,
)
from .ordinal import (
    OrdinalProfile,
    _distinguishing_rows,
    _inverse,
    _proposal_chain,
    _stable_ranking,
)
from .seeding import rng_for


class DivisionByZeroUtility(ZeroDivisionError, ValueError):
    """A zero utility appeared in a ratio denominator, so no robustness number exists."""

    def __init__(self, side: str, profile: OrdinalProfile, agent: int, alternative: int):
        super().__init__(
            f"zero utility in denominator: side={side}, agent={agent}, "
            f"alternative={alternative}"
        )
        self.side = side
        self.profile = profile
        self.agent = agent
        self.alternative = alternative


def _consecutive(side: MarketProfile) -> tuple[np.ndarray, np.ndarray]:
    """``(upper, lower)``: at ``[row, i]`` the utility of the alternative the
    side's table row ranks at position ``i`` and that of the one ranked just
    below it. Row-major order is the scan order (profile, agent, position).
    """
    ranked = np.take_along_axis(side.table_values, side.table_ranks, axis=1)
    return ranked[:, :-1], ranked[:, 1:]


def _first_hit(market: MatchingMarket, c: float) -> tuple[str, MarketProfile, int, int] | None:
    """``(name, side, row, position)`` of the first table entry, in scan order
    (side, row, position), whose utility scaled by ``c`` is not strictly above
    the utility ranked just below it; None when there is none."""
    for name, side in (("men", market.men), ("women", market.women)):
        upper, lower = _consecutive(side)
        # c * upper may overflow, and is NaN at c = inf and a zero utility.
        with np.errstate(over="ignore", invalid="ignore"):
            hits = np.flatnonzero(~(c * upper > lower))
        if hits.size:
            return (name, side, *divmod(int(hits[0]), upper.shape[1]))
    return None


def is_c_robust(market: MatchingMarket, c: float) -> bool:
    """Strict ratio condition: for every profile and every agent, scaling the
    utility of a preferred alternative by ``c`` keeps it strictly above the
    utility of everything ranked below it."""
    if not c >= 1.0:
        raise ValueError("c must be >= 1")
    return _first_hit(market, c) is None


def robustness(market: MatchingMarket) -> float:
    """The double minimum of consecutive utility ratios over both sides.

    Returns ``inf`` when no comparable pair exists (n = 1, vacuous minimum).
    Raises :class:`DivisionByZeroUtility` when a zero utility would land in
    a denominator; the offending profile, agent and alternative ride along
    on the exception.
    """
    best = math.inf
    for name, side in (("men", market.men), ("women", market.women)):
        upper, lower = _consecutive(side)
        zeros = np.flatnonzero(upper == 0.0)
        if zeros.size:
            row, i = divmod(int(zeros[0]), upper.shape[1])
            k, agent = divmod(row, side.n)
            alternative = int(side.table_ranks[row, i])
            raise DivisionByZeroUtility(name, side.table_profiles[k], agent, alternative)
        with np.errstate(over="ignore"):
            best = float(np.min(lower / upper, initial=best))
    return best


@dataclass(frozen=True)
class AdversarialWitness:
    """A verified break of robustness at some level c.

    ``perturbation`` is a single-entry matrix with one factor equal to c.
    Applying it to the utilities at ``profile`` changes the extracted
    ordinal profile to ``perturbed_profile``. When ``distinguishing``, on
    the opposite side, proposes in deferred acceptance, its outcome against
    ``profile`` differs from its outcome against ``perturbed_profile``; this
    is verified by :func:`_confirm_break` before the witness is returned.
    """

    side: str
    profile: OrdinalProfile
    perturbation: Perturbation
    perturbed_profile: OrdinalProfile
    distinguishing: OrdinalProfile
    tie_created: bool


def _perturbed_row(
    side: MarketProfile, row: int, position: int, c: float
) -> tuple[int, int, int, int, tuple[int, ...], bool]:
    """``(k, agent, alt, below, perturbed_row, tied)`` for perturbing, at level
    ``c``, the alternative ``alt`` that the side's table row ``row`` (agent
    ``agent`` at ``table_profiles[k]``) ranks at ``position`` (a non-last
    rank); ``below`` is the alternative ranked just below it.

    Only that row is read and re-extracted. A scaled utility can only sink,
    so the first pair it flips is ``alt`` and ``below``, on which the
    distinguishing profile hinges. ``tied`` marks an exact tie in the
    perturbed row; stored tables are strict, so only that row can tie.
    """
    k, agent = divmod(row, side.n)
    ranking = side.table_profiles[k].ranks[agent]
    alt, below = ranking[position], ranking[position + 1]
    values = side.table_values[row].copy()
    with np.errstate(over="ignore"):
        values[alt] *= c
    order, ties = _stable_ranking(values)
    perturbed_row = tuple(order.tolist())
    if perturbed_row == ranking:
        # The perturbation created an exact tie that index tie-breaking undid.
        # Ties count as a preference change, so resolve the tie against the
        # perturbed entry to exhibit the adjacent flip it licenses.
        perturbed_row = (*ranking[:position], below, alt, *ranking[position + 2 :])
    return k, agent, alt, below, perturbed_row, bool(ties.any())


def _build_witness(
    name: str, side: MarketProfile, row: int, position: int, c: float
) -> AdversarialWitness:
    """The witness for perturbing, at level ``c``, the alternative that the
    ``name`` side's table row ``row`` ranks at ``position``, verified by
    :func:`_confirm_break` with a table of its own."""
    n = side.n
    k, agent, alt, below, perturbed_row, tied = _confirm_break(side, row, position, c, {})
    r = side.table_profiles[k]
    rows = (*r.ranks[:agent], perturbed_row, *r.ranks[agent + 1 :])
    other = _distinguishing_rows(n, agent, alt, below)
    return AdversarialWitness(
        side=name,
        profile=r,
        perturbation=Perturbation.single_entry(n, agent, alt, c),
        perturbed_profile=OrdinalProfile._of_permutations(n, rows),
        distinguishing=OrdinalProfile._of_permutations(n, other),
        tie_created=tied,
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
    hit = _first_hit(market, c)
    return None if hit is None else _build_witness(*hit, c)


#: Elements per temporary array in one level-scan block (2 MiB of float64).
_SCAN_BLOCK_ELEMENTS = 1 << 18


def _first_break(ranks: np.ndarray, values: np.ndarray, c: float) -> tuple[int, int] | None:
    """First (row, position) whose single-entry perturbation changes the row's
    re-extracted ranking or creates an exact tie, or None.

    Entry ``[row, i]`` multiplies the utility of alternative ``ranks[row, i]``
    by ``c`` and re-extracts the row with the ordinal extraction's stable sort,
    which orders by (-value, index) exactly as index tie-breaking does. The
    perturbations are walked in row-major order ``k = row * n + i``, in blocks
    of ``_SCAN_BLOCK_ELEMENTS // n`` perturbed rows (at least one), so each
    temporary holds at most ``max(n, _SCAN_BLOCK_ELEMENTS)`` elements at any n.
    A block's first changed entry and first tie are found by flat index, and
    the earlier of their perturbed rows, by integer ``//``, is the block's
    first break. The position is never the last one: scaling the last-ranked
    utility leaves it the row's strict minimum.
    """
    rows, n = ranks.shape
    block = max(1, _SCAN_BLOCK_ELEMENTS // n)
    for start in range(0, rows * n, block):
        k = np.arange(start, min(start + block, rows * n))
        row = k // n
        r = ranks.take(row, axis=0)
        perturbed = values.take(row, axis=0)
        # Flat index in ``perturbed`` of each copy's entry ranks[row, i].
        entry = np.arange(0, k.size * n, n) + ranks.take(k)
        with np.errstate(over="ignore"):
            perturbed.reshape(-1)[entry] *= c
        order, ties = _stable_ranking(perturbed)
        changed = np.flatnonzero(order != r)
        tied = np.flatnonzero(ties)  # empty at n = 1, where rows have no neighbours
        hits = [int(changed[0]) // n] if changed.size else []
        if tied.size:
            hits.append(int(tied[0]) // (n - 1))
        if hits:
            return divmod(start + min(hits), n)
    return None


def _confirm_break(
    side: MarketProfile, row: int, position: int, c: float, positions: dict
) -> tuple[int, int, int, int, tuple[int, ...], bool]:
    """Check through deferred acceptance that perturbing, at level ``c``, the
    alternative that ``side``'s table row ``row`` ranks at ``position`` moves
    a stable pair, and return :func:`_perturbed_row`'s tuple; raise if it
    does not.

    The distinguishing profile's side proposes, once to the stored profile
    and once to the perturbed one: its rows are the proposers' and the
    perturbed side responds. That outcome hinges on the flipped pair alone,
    so it must move. ``positions`` maps ``(side, k)`` to the responders'
    position table of ``table_profiles[k]``, built on first use; the
    perturbed profile's table is a shallow copy with the perturbed agent's
    row replaced.
    """
    hit = _perturbed_row(side, row, position, c)
    k, agent, alt, below, perturbed_row, _tied = hit
    table = positions.get((side, k))
    if table is None:
        table = positions[side, k] = side.table_profiles[k].position_table()
    perturbed = list(table)
    perturbed[agent] = _inverse(perturbed_row)
    proposers = _distinguishing_rows(side.n, agent, alt, below)
    if _proposal_chain(proposers, table) == _proposal_chain(proposers, perturbed):
        raise RuntimeError("break confirmation failed; this is a bug")
    return hit


def _breakable(c: float, market: MatchingMarket, positions: dict) -> bool:
    """Whether level ``c`` breaks ``market``: the first break on either side,
    men first, confirmed by :func:`_confirm_break`. ``positions`` carries the
    position tables across calls."""
    for side in (market.men, market.women):
        hit = _first_break(side.table_ranks, side.table_values, c)
        if hit is not None:
            _confirm_break(side, *hit, c, positions)
            return True
    return False


def robustness_by_search(market: MatchingMarket, tol: float = 1e-6) -> float:
    """Bisection oracle for :func:`robustness`.

    At each candidate level the search applies every single-entry extremal
    perturbation on both sides and every scanned profile and re-extracts the
    perturbed agent's ranking. It reads each side's stacked table, and
    each level re-extracts all perturbed rows of a block with one stable
    ``argsort``; a changed ranking or an exact tie breaks the level. No
    utility ratio is formed, so this route stays independent of the formula
    it cross-checks. The first break in scan order (side, profile, agent,
    position) is confirmed through deferred acceptance against a
    distinguishing opposite-side profile (see :func:`_confirm_break`): the
    outcome that profile's side proposes must move. The position table of
    each stored profile is built once per call, and no witness, perturbation
    matrix or profile object is built. The bracket starts at [1, 2]
    and doubles its upper end, capped at the largest float, until that end
    breaks; if even the largest float does not break, the search returns
    ``inf``. Bisection stops once the bracket is no wider than ``tol`` or
    than ``math.ulp(lo)``, that is once no float lies strictly between its
    ends, so a ``tol`` below the float spacing stops at float resolution; a
    NaN or infinite ``tol`` is rejected. The doubling leaves the break in the
    upper half of the bracket, so float resolution comes within about 53
    halvings; the loop stops at 64 and raises RuntimeError if the bracket is
    still wider.
    """
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    if market.n == 1:
        return math.inf
    positions: dict = {}
    # Level 1 is never scanned: it changes no utility of a strictly ordered table.
    lo, hi = 1.0, 2.0
    while not _breakable(hi, market, positions):
        if hi == sys.float_info.max:
            return math.inf
        hi = min(2.0 * hi, sys.float_info.max)
    for _ in range(64):
        if hi - lo <= max(tol, math.ulp(lo)):
            return 0.5 * lo + 0.5 * hi
        # Halving is exact, so this rounds as 0.5 * (lo + hi) does, without
        # overflowing next to the largest float.
        mid = 0.5 * lo + 0.5 * hi
        if _breakable(mid, market, positions):
            hi = mid
        else:
            lo = mid
    raise RuntimeError("bisection did not converge in 64 halvings; this is a bug")


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


def _permutation_rows(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill every row of ``out`` (last axis of length n) with a uniform
    permutation of 0..n-1, in row-major order: the draws of one
    ``rng.permutation(n)`` per row, made in one call."""
    out[...] = np.arange(out.shape[-1])
    rng.permuted(out, axis=-1, out=out)


def _sample_of(sampler, rng: np.random.Generator) -> PerturbationSample:
    """One ``sampler.draw`` as profile and perturbation objects, which check
    the draw as their constructors do."""
    n = sampler.n
    ranks = np.empty((2, n, n), dtype=np.intp)
    factors = np.empty((2, n, n))
    sampler.draw(rng, ranks, factors)
    men, women = (OrdinalProfile(n, side.tolist()) for side in ranks)
    return PerturbationSample(men, women, Perturbation(n, factors[0]), Perturbation(n, factors[1]))


class IidUniformFactorSampler:
    """Independent factors uniform on [1, level]; profiles uniform.

    All factors are bounded by ``level`` almost surely, so every draw is an
    ordinary deterministic perturbation at that level and per-entry means
    land at (1 + level) / 2 <= level.
    """

    def __init__(self, n: int, level: float):
        if n < 1:
            raise ValueError("n >= 1 required")
        if not 1.0 <= level < math.inf:
            raise ValueError("level must be finite and >= 1")
        self.n = n
        self.level = level

    def draw(self, rng: np.random.Generator, ranks: np.ndarray, factors: np.ndarray) -> None:
        """Write one trial: side s's profile to ``ranks[s]`` (2n uniform
        permutations, men first), then its factors to ``factors[s]``."""
        n = self.n
        _permutation_rows(rng, ranks)
        factors[0] = rng.uniform(1.0, self.level, size=(n, n))
        factors[1] = rng.uniform(1.0, self.level, size=(n, n))

    def sample(self, rng: np.random.Generator) -> PerturbationSample:
        return _sample_of(self, rng)


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
        self.spike = spike_factor(n, c, eps)
        self.level = (1.0 + eps) * c

    def draw(self, rng: np.random.Generator, ranks: np.ndarray, factors: np.ndarray) -> None:
        """Write one trial: the slot, the spiked side's profile (n uniform
        permutations), the spike, and the opposite side's distinguishing
        profile. Side 0 is the men's side."""
        n = self.n
        a_star = int(rng.integers(0, 2 * n))
        i_star = int(rng.integers(0, n - 1))
        side, agent = divmod(a_star, n)
        _permutation_rows(rng, ranks[side])
        b1, b2 = ranks[side, agent, i_star : i_star + 2].tolist()
        factors.fill(1.0)
        factors[side, agent, b1] = self.spike
        # critical_market proved that the spike sinks b1 below b2 without a
        # tie, so the adjacent swap of b1 and b2 is the first flipped pair.
        ranks[1 - side] = _distinguishing_rows(n, agent, b1, b2)

    def sample(self, rng: np.random.Generator) -> PerturbationSample:
        return _sample_of(self, rng)


def _trial_blocks(sampler, trials: int, seed: int):
    """Yield ``(ranks, factors)`` blocks of consecutive trials, both of shape
    ``(T, 2, n, n)``, trial ``t`` drawn by ``sampler.draw`` from
    ``rng_for(seed, t)``.

    A block holds at most ``_SCAN_BLOCK_ELEMENTS`` entries per array. Each
    block is checked once: every factor finite and >= 1, every rank row a
    permutation of 0..n-1.
    """
    n = sampler.n
    block = max(1, _SCAN_BLOCK_ELEMENTS // (2 * n * n))
    for start in range(0, trials, block):
        size = min(block, trials - start)
        ranks = np.empty((size, 2, n, n), dtype=np.intp)
        factors = np.empty((size, 2, n, n))
        for k in range(size):
            sampler.draw(rng_for(seed, start + k), ranks[k], factors[k])
        bad = ~((factors >= 1.0) & (factors < math.inf))
        if bad.any():
            t, side, a, x = np.unravel_index(int(bad.argmax()), bad.shape)
            raise ValueError(
                f"trial {start + t}: {('men', 'women')[side]} factor ({a},{x}) = "
                f"{factors[t, side, a, x]} is below 1, infinite or NaN"
            )
        bad = (np.sort(ranks, axis=-1) != np.arange(n)).any(axis=-1)
        if bad.any():
            t, side, a = np.unravel_index(int(bad.argmax()), bad.shape)
            raise ValueError(
                f"trial {start + t}: {('men', 'women')[side]} row {a} "
                f"is not a permutation of 0..{n - 1}"
            )
        yield ranks, factors


def preservation_probability(
    market: MatchingMarket, sampler, trials: int, seed: int
) -> float:
    """Monte Carlo estimate of the probability that perturbation preserves
    both deferred-acceptance outcomes.

    Each trial draws a joint sample, applies the factors to the true
    utilities, re-extracts ordinal profiles (index tie policy; any tie
    counts as non-preservation) and compares the stable pair before and
    after. Trial ``t`` is written by ``sampler.draw`` from
    ``rng_for(seed, t)``, so the estimate is independent of execution
    order. Trials are judged a block at a time (see :func:`_trial_blocks`):
    one product, one stable ranking with its per-trial tie mask and one
    ``argsort`` for every position table per block, then the proposal
    chains of each tie-free trial (both directions, before and after).
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    if sampler.n != market.n:
        raise ValueError(f"size mismatch: sampler n={sampler.n}, market n={market.n}")
    sides = (market.men, market.women)
    preserved = 0
    for ranks, factors in _trial_blocks(sampler, trials, seed):
        utilities = np.stack([side.block_utilities(ranks[:, s]) for s, side in enumerate(sides)], 1)
        with np.errstate(over="ignore"):
            perturbed = factors * utilities
        order, ties = _stable_ranking(perturbed)
        profiles = np.stack((ranks, order), axis=1)  # (trial, before/after, side, n, n)
        positions = profiles.argsort(axis=-1)
        for t in np.flatnonzero(~ties.any(axis=(1, 2, 3))).tolist():
            (men, women), (men_after, women_after) = profiles[t].tolist()
            (men_pos, women_pos), (men_pos_after, women_pos_after) = positions[t].tolist()
            # Equal responder -> proposer maps are equal assignments.
            if (
                _proposal_chain(men, women_pos) == _proposal_chain(men_after, women_pos_after)
                and _proposal_chain(women, men_pos) == _proposal_chain(women_after, men_pos_after)
            ):
                preserved += 1
    return preserved / trials


def rank_slot_factor_stats(sampler, draws: int, seed: int):
    """Per-slot empirical factor means and standard errors.

    Slots are (agent, rank) positions: rows 0..n-1 are the men's side, rows
    n..2n-1 the women's side, columns the non-last rank positions 0..n-2.
    The factor observed at a slot in one draw is the multiplier applied to
    the alternative that the slot's agent ranks at that position under the
    drawn profile. Draws are gathered a block at a time and summed in trial
    order.
    """
    if draws < 1:
        raise ValueError("draws >= 1 required")
    n = sampler.n
    sums = np.zeros((2 * n, n - 1))
    sumsq = np.zeros((2 * n, n - 1))
    for ranks, factors in _trial_blocks(sampler, draws, seed):
        gathered = np.take_along_axis(factors, ranks[..., :-1], axis=-1)
        for f in gathered.reshape(len(ranks), 2 * n, n - 1):
            sums += f
            sumsq += f * f
    means = sums / draws
    variances = np.maximum(sumsq / draws - means**2, 0.0)
    std_errs = np.sqrt(variances / draws)
    return means, std_errs
