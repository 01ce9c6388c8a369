import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from matchrobust import (
    Assignment,
    DecayFunction,
    OrdinalProfile,
    Perturbation,
    Side,
    UtilityProfile,
    apply_perturbation,
    critical_consecutive_ratio,
    geometric_market,
    ordinal_from_utility_flagged,
    spike_factor,
)
from matchrobust.ordinal import TieError, TiePolicy

settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# ---------------------------------------------------------------------------
# Brute-force oracles. These deliberately re-derive everything from the
# definitions (no calls into the library's algorithms) so that library
# results are checked against an independent route.
# ---------------------------------------------------------------------------

def oracle_is_stable(men: OrdinalProfile, women: OrdinalProfile, pairing) -> bool:
    n = men.n
    inv = [0] * n
    for m, w in enumerate(pairing):
        inv[w] = m
    for m in range(n):
        for w in range(n):
            if w == pairing[m]:
                continue
            m_prefers = men.ranks[m].index(w) < men.ranks[m].index(pairing[m])
            w_prefers = women.ranks[w].index(m) < women.ranks[w].index(inv[w])
            if m_prefers and w_prefers:
                return False
    return True


def oracle_stable_set(men: OrdinalProfile, women: OrdinalProfile):
    return {
        perm
        for perm in itertools.permutations(range(men.n))
        if oracle_is_stable(men, women, perm)
    }


def oracle_male_optimal(men: OrdinalProfile, women: OrdinalProfile):
    """Male-optimal stable pairing by definition: the stable pairing that
    every man weakly prefers to every other stable pairing."""
    stable = oracle_stable_set(men, women)
    for cand in stable:
        if all(
            men.ranks[m].index(cand[m]) <= men.ranks[m].index(other[m])
            for other in stable
            for m in range(men.n)
        ):
            return cand
    raise AssertionError("no male-optimal stable pairing found")


def oracle_female_optimal(men: OrdinalProfile, women: OrdinalProfile):
    stable = oracle_stable_set(men, women)
    for cand in stable:
        inv = [0] * men.n
        for m, w in enumerate(cand):
            inv[w] = m
        ok = True
        for other in stable:
            other_inv = [0] * men.n
            for m, w in enumerate(other):
                other_inv[w] = m
            if any(
                women.ranks[w].index(inv[w]) > women.ranks[w].index(other_inv[w])
                for w in range(men.n)
            ):
                ok = False
                break
        if ok:
            return cand
    raise AssertionError("no female-optimal stable pairing found")


def reference_deferred_acceptance(
    men: OrdinalProfile, women: OrdinalProfile, proposing_side: Side = Side.MEN
) -> Assignment:
    """Deferred acceptance in which the lowest-index free proposer always
    moves next (``min`` over the free set); O(n^3) on identical proposer
    rankings, kept as the reference for the library's proposal chains."""
    if men.n != women.n:
        raise ValueError(f"size mismatch: men n={men.n}, women n={women.n}")
    n = men.n
    if proposing_side is Side.MEN:
        proposers, responders = men, women
    else:
        proposers, responders = women, men

    resp_pos = responders.position_table()
    next_choice = [0] * n
    engaged = [-1] * n  # responder -> proposer
    free = set(range(n))
    while free:
        p = min(free)
        target = proposers.ranks[p][next_choice[p]]
        next_choice[p] += 1
        holder = engaged[target]
        if holder < 0:
            engaged[target] = p
            free.remove(p)
        elif resp_pos[target][p] < resp_pos[target][holder]:
            engaged[target] = p
            free.remove(p)
            free.add(holder)

    if proposing_side is Side.MEN:
        pairing = [0] * n
        for w, m in enumerate(engaged):
            pairing[m] = w
        return Assignment(n, tuple(pairing))
    # engaged maps man -> woman when women propose
    return Assignment(n, tuple(engaged))


def reference_ordinal_from_utility(u: UtilityProfile, tie_policy: TiePolicy):
    """Scalar ordinal extraction: ``(profile, had_ties)``.

    Sorts each row by (-utility, index). Under the strict policy the first
    pair of equal neighbours, in row-major order, raises :class:`TieError`;
    under the index policy ``had_ties`` reports whether any row had one.
    """
    n = u.n
    had_ties = False
    rows = []
    for a, row in enumerate(u.values.tolist()):
        order = sorted(range(n), key=lambda x: (-row[x], x))
        for i in range(n - 1):
            if row[order[i]] == row[order[i + 1]]:
                if tie_policy is TiePolicy.STRICT:
                    raise TieError(a, order[i], order[i + 1])
                had_ties = True
        rows.append(tuple(order))
    return OrdinalProfile(n, tuple(rows)), had_ties


def reference_consecutive_pairs(market):
    """Every consecutive-rank utility pair of both sides, walked one scalar
    at a time in scan order (side, profile, agent, position).

    Yields ``(side, profile, agent, position, upper, lower)``: ``upper`` is
    the utility of the alternative the agent ranks at ``position`` and
    ``lower`` that of the one ranked just below it. A rank-symmetric side is
    walked at its representative profile only, an extensional side at
    every stored profile.
    """
    n = market.n
    for name, side in (("men", market.men), ("women", market.women)):
        if side.rank_symmetric:
            profiles = [side.representative_profile()]
        else:
            profiles = list(side.representable_profiles())
        for r in profiles:
            rows = side.utilities(r).values.tolist()
            for a, (row, ranks) in enumerate(zip(rows, r.ranks)):
                for i in range(n - 1):
                    yield name, r, a, i, row[ranks[i]], row[ranks[i + 1]]


def reference_first_break(rows, c: float):
    """Per-entry level scan: the first (row, position) whose single-entry
    perturbation changes the row's extracted ranking or creates a tie.

    ``rows`` lists (ranking, utilities) pairs in scan order. Entry
    (row, i) multiplies the utility of the row's i-th ranked alternative
    by ``c`` and re-sorts the row by (-utility, index); a changed order or
    two equal neighbours breaks. Returns None when nothing breaks.
    """
    for index, (ranking, utilities) in enumerate(rows):
        n = len(ranking)
        for i in range(n):
            row = list(utilities)
            row[ranking[i]] *= c
            order = sorted(range(n), key=lambda x: (-row[x], x))
            if tuple(order) != tuple(ranking):
                return index, i
            if any(row[order[k]] == row[order[k + 1]] for k in range(n - 1)):
                return index, i
    return None


def reference_spike_flips(n: int, c: float, eps: float) -> bool:
    """The spike sampler's former per-draw check, run on every slot.

    Builds the geometric market with the critical consecutive ratio (a
    ratio that rounds to 1 is rejected there) and, on both sides, for every
    agent and every non-last rank, spikes that slot by ``spike_factor``,
    re-extracts the ranking under index tie-breaking and requires a changed
    ranking without a tie. True when every slot passes.
    """
    try:
        market = geometric_market(n, critical_consecutive_ratio(n, c, eps))
    except ValueError:
        return False
    spike = spike_factor(n, c, eps)
    r = OrdinalProfile(n, tuple(tuple(range(n)) for _ in range(n)))
    for side in (market.men, market.women):
        u = side.utilities(r)
        for agent in range(n):
            for i in range(n - 1):
                delta = Perturbation.single_entry(n, agent, r.ranks[agent][i], spike)
                r_tilde, ties = ordinal_from_utility_flagged(
                    apply_perturbation(delta, u), TiePolicy.INDEX
                )
                if ties or r_tilde == r:
                    return False
    return True


@pytest.fixture
def phi_witness():
    """The cyclic placement on the unit circle whose robustness is the golden
    ratio: alternative i at angle 2*pi*i/3, agent i at 2*pi*i/3 + theta with
    theta = 2*atan(sqrt(3)/phi**3), about 44.4775 degrees. There
    d(a_i, b_{i+1}) = phi * d(a_i, b_i), and van Schooten's theorem gives
    d(a_i, b_{i+2}) = d(a_i, b_i) + d(a_i, b_{i+1}) = phi**2 * d(a_i, b_i).
    Returns (agent points, alternative points).
    """
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    theta = 2.0 * math.atan(math.sqrt(3.0) / golden**3)
    angles = [2.0 * math.pi * i / 3.0 for i in range(3)]
    alpha = [(math.cos(t + theta), math.sin(t + theta)) for t in angles]
    beta = [(math.cos(t), math.sin(t)) for t in angles]
    return alpha, beta


def reference_is_polarized(u: UtilityProfile, tol: float = 1e-12):
    """Scalar polarity scan: ``(ok, violation)`` for the first quadruple
    (a, a', x, x') in lexicographic order with
    u(a,x') - u(a,x) > -(u(a',x) + u(a',x')) + tol * max(1, |lhs|, |rhs|).
    """
    n = u.n
    v = u.values.tolist()
    for a in range(n):
        for a_prime in range(n):
            for x in range(n):
                for x_prime in range(n):
                    lhs = v[a][x_prime] - v[a][x]
                    rhs = -(v[a_prime][x] + v[a_prime][x_prime])
                    slack = tol * max(1.0, abs(lhs), abs(rhs))
                    if lhs > rhs + slack:
                        return False, (a, a_prime, x, x_prime)
    return True, None


def _value_or_inf(d: DecayFunction, t: float) -> float:
    """D(t), with an overflow read as +inf, which lies above any target.

    Power and exponential decay overflow before ``scale`` is applied, so
    there D(t) is retried in log space, where a scale below 1 can bring it
    back into range.
    """
    try:
        return d.value(t)
    except OverflowError:
        pass
    log_term = d.exponent * (t if d.family == "exponential" else math.log(t))
    try:
        return math.exp(math.log(d.scale) + log_term)
    except OverflowError:
        return math.inf


def reference_decay_inverse(d: DecayFunction, y: float) -> float:
    """Solve D(t) = y by bracket doubling plus bisection to relative
    tolerance 1e-10, without the closed forms; ``y`` must lie above the
    infimum of D."""
    # Halving each end before adding keeps midpoints finite near the float
    # maximum and is bitwise equal to 0.5 * (lo + hi) everywhere else.
    lo, hi = 0.0, 1.0
    while _value_or_inf(d, hi) < y:
        if hi == sys.float_info.max:
            return math.inf
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    for _ in range(200):
        mid = 0.5 * lo + 0.5 * hi
        if _value_or_inf(d, mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * max(1.0, hi):
            break
    return 0.5 * lo + 0.5 * hi


def random_profile(n: int, rng: np.random.Generator) -> OrdinalProfile:
    return OrdinalProfile(n, tuple(tuple(int(v) for v in rng.permutation(n)) for _ in range(n)))


def band_utup(n: int, rng: np.random.Generator, lo=-2.0, hi=-1.0) -> UtilityProfile:
    """Random strictly negative utilities inside a band narrow enough that
    polarity always holds (row differences below any row's magnitude sum)."""
    while True:
        vals = rng.uniform(lo, hi, size=(n, n))
        flat = sorted(vals.flatten().tolist())
        if all(flat[i] < flat[i + 1] for i in range(len(flat) - 1)):
            return UtilityProfile(n, tuple(tuple(float(v) for v in row) for row in vals))


def random_nonpolarized(n: int, rng: np.random.Generator) -> UtilityProfile:
    """Rejection-sample a utility profile violating polarity."""
    from matchrobust import is_polarized

    while True:
        vals = rng.uniform(-10.0, -0.01, size=(n, n))
        u = UtilityProfile(n, tuple(tuple(float(v) for v in row) for row in vals))
        if not is_polarized(u):
            return u


# Slow reference planarity test, an independent route to cross-check
# ``is_planar`` on small graphs.

_KURATOWSKI_VERTEX_CAP = 8


def _has_subdivision(
    adj: dict[int, set[int]],
    vertices: list[int],
    branch_sets: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> bool:
    """Backtracking search for a subdivision with the given branch structure.

    ``branch_sets`` lists (part_a, part_b) choices of branch vertices; the
    required pairs either share an edge or are joined through spare
    vertices, each spare serving at most one pair.
    """
    vertex_set = set(vertices)
    for part_a, part_b in branch_sets:
        branches = set(part_a) | set(part_b)
        spares = sorted(vertex_set - branches)
        if part_a == part_b:  # clique pairs
            pairs = list(itertools.combinations(part_a, 2))
        else:
            pairs = [(u, v) for u in part_a for v in part_b]
        missing = [(u, v) for u, v in pairs if v not in adj[u]]
        if _route_pairs(adj, missing, frozenset(spares)):
            return True
    return False


def _route_pairs(adj, pairs, free_spares) -> bool:
    if not pairs:
        return True
    (u, v), rest = pairs[0], pairs[1:]
    for k in range(1, len(free_spares) + 1):
        for interior in itertools.permutations(sorted(free_spares), k):
            chain = (u, *interior, v)
            if all(chain[i + 1] in adj[chain[i]] for i in range(len(chain) - 1)):
                if _route_pairs(adj, rest, free_spares - set(interior)):
                    return True
    return False


def planar_by_kuratowski(vertex_count: int, edges) -> bool:
    """Slow reference planarity test: no subdivision of K_5 or K_{3,3}.

    Exhaustive over branch-vertex choices with spare vertices as
    subdivision points; only meant for cross-validation, capped at
    8 vertices.
    """
    if vertex_count > _KURATOWSKI_VERTEX_CAP:
        raise ValueError(f"reference search capped at {_KURATOWSKI_VERTEX_CAP} vertices")
    vertices = list(range(vertex_count))
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)

    if vertex_count >= 5:
        k5 = [(combo, combo) for combo in itertools.combinations(vertices, 5)]
        if _has_subdivision(adj, vertices, k5):
            return False
    if vertex_count >= 6:
        k33 = []
        for six in itertools.combinations(vertices, 6):
            rest = set(six)
            for part_a in itertools.combinations(six, 3):
                if six[0] in part_a:  # fix one side to avoid mirrored splits
                    part_b = tuple(sorted(rest - set(part_a)))
                    k33.append((part_a, part_b))
        if _has_subdivision(adj, vertices, k33):
            return False
    return True


def petersen():
    """The Petersen graph: 3-regular, 15 edges on 10 vertices, with 5-cycles.
    No edge-count rule or degree-2 reduction settles it; it is nonplanar."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def subdivided(graph, length):
    """Every edge replaced by a path through ``length`` new vertices."""
    v, edges = graph
    out = []
    for a, b in edges:
        chain = [a, *range(v, v + length), b]
        v += length
        out += zip(chain, chain[1:])
    return v, out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
