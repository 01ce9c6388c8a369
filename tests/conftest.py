import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from matchrobust import (
    AdversarialWitness,
    Assignment,
    DecayFunction,
    ExtensionalProfile,
    MatchingMarket,
    MetricSpace,
    OrdinalProfile,
    Perturbation,
    RankBasedProfile,
    Side,
    UtilityProfile,
    all_profiles,
    apply_perturbation,
    critical_consecutive_ratio,
    distinguishing_profile,
    geometric_market,
    ordinal_from_utility_flagged,
    phi,
    spike_factor,
    utilities_from_space,
)
from matchrobust import embedding
from matchrobust.embedding import BanachSearchResult
from matchrobust.jsonvalues import json_int
from matchrobust.markets import rank_scatter
from matchrobust.ordinal import TieError, TiePolicy, ordinal_from_utility
from matchrobust.seeding import rng_for

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


def reference_first_flip(r: OrdinalProfile, r_prime: OrdinalProfile):
    """The first flipped pair by exhaustive scan: over agents whose rows
    differ, then over position pairs i < j of the agent's row in ``r``, the
    first (agent, row[i], row[j]) that ``r_prime`` ranks the other way
    round; O(n^2) per differing row. None when no pair flips."""
    n = r.n
    flips = (
        (a, row[i], row[j])
        for a, (row, prime_row) in enumerate(zip(r.ranks, r_prime.ranks))
        if row != prime_row
        for prime_pos in [{x: k for k, x in enumerate(prime_row)}]
        for i in range(n)
        for j in range(i + 1, n)
        if prime_pos[row[i]] > prime_pos[row[j]]
    )
    return next(flips, None)


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


def reference_extensional_check(n: int, table) -> None:
    """Per-entry consistency check of an extensional table: every entry, in
    table order, must have size ``n`` and its utilities must induce its
    profile, else the first bad entry raises."""
    for r, u in table.items():
        if r.n != n or u.n != n:
            raise ValueError("table entry size mismatch")
        if reference_ordinal_from_utility(u, TiePolicy.STRICT)[0] != r:
            raise ValueError(f"inconsistent table entry: utilities do not induce {r.ranks}")


def reference_extensional_side(data: dict) -> ExtensionalProfile:
    """A JSON extensional side read one entry at a time, in file order: each
    entry's ranks and values through their own JSON constructors, a repeated
    ranks rejected at its position, then the mapping constructor."""
    table = {}
    for entry in data["entries"]:
        r = OrdinalProfile.from_json_dict({"n": data["n"], "ranks": entry["ranks"]})
        u = UtilityProfile.from_json_dict({"n": data["n"], "values": entry["values"]})
        if r in table:
            raise ValueError(f"two entries for ranks {[list(row) for row in r.ranks]}")
        table[r] = u
    return ExtensionalProfile(json_int(data["n"], "n"), table)


def reference_consecutive_pairs(market):
    """Every consecutive-rank utility pair of both sides, walked one scalar
    at a time in scan order (side, profile, agent, position).

    Yields ``(side, profile, agent, position, upper, lower)``: ``upper`` is
    the utility of the alternative the agent ranks at ``position`` and
    ``lower`` that of the one ranked just below it. A rank-based side is
    walked at the identity profile only (its ratio multiset is the same at
    every profile), an extensional side at every stored profile.
    """
    n = market.n
    for name, side in (("men", market.men), ("women", market.women)):
        if isinstance(side, RankBasedProfile):
            profiles = [OrdinalProfile(n, tuple(tuple(range(n)) for _ in range(n)))]
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


def reference_witness(name: str, side, row: int, position: int, c: float) -> AdversarialWitness:
    """The witness for scaling, by ``c``, the utility of the alternative that
    the ``name`` side's table row ``row`` ranks at ``position``, built
    through the whole profile.

    Looks the row's stored profile up with ``side.utilities``, applies the
    single-entry perturbation to every entry and re-extracts every row under
    index tie-breaking. When that leaves the profile unchanged, an exact tie
    was undone by index order, and the agent's entries at ``position`` and
    ``position + 1`` are swapped. The opposite side's profile comes from
    ``distinguishing_profile``.
    """
    n = side.n
    k, agent = divmod(row, n)
    r = side.table_profiles[k]
    delta = Perturbation.single_entry(n, agent, r.ranks[agent][position], c)
    r_tilde, had_ties = ordinal_from_utility_flagged(
        apply_perturbation(delta, side.utilities(r)), TiePolicy.INDEX
    )
    if r_tilde == r:
        rows = [list(ranking) for ranking in r.ranks]
        rows[agent][position : position + 2] = rows[agent][position + 1], rows[agent][position]
        r_tilde, had_ties = OrdinalProfile(n, rows), True
    return AdversarialWitness(name, r, delta, r_tilde, distinguishing_profile(r, r_tilde), had_ties)


def witness_pairs(w: AdversarialWitness):
    """The deferred-acceptance pairs of a witness before and after its flip,
    from ``phi``, with the witness side's profile as the men's argument on
    the men's side and as the women's on the women's side."""
    if w.side == "men":
        return phi(w.profile, w.distinguishing), phi(w.perturbed_profile, w.distinguishing)
    return phi(w.distinguishing, w.profile), phi(w.distinguishing, w.perturbed_profile)


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


def reference_bisection(breaks, tol: float) -> float:
    """The bracket loop of ``robustness_by_search`` before it had a halving
    budget, with ``breaks(level)`` in place of the level scan: it doubles
    the upper end until it breaks, then halves while the bracket is wider
    than ``tol`` and its midpoint lies strictly inside."""
    lo, hi = 1.0, 2.0
    while not breaks(hi):
        if hi == sys.float_info.max:
            return math.inf
        hi = min(2.0 * hi, sys.float_info.max)
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        if breaks(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * lo + 0.5 * hi


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


def reference_line_placements(seed: int, restarts: int, draws: int = 60):
    """The Gaussian rejection draws that the cap search once made in one
    dimension that realize the cyclic profile: ``draws`` standard normal
    ``(6, 1)`` placements (three agents, then three alternatives) from each
    restart's ``rng_for(seed, r)``, kept when every agent i ranks
    alternatives i, i+1, i+2 (mod 3) strictly by distance, at nonzero
    distance. The theorem says the list is always empty."""
    found = []
    for r in range(restarts):
        rng = rng_for(seed, r)
        for _ in range(draws):
            x = [row[0] for row in rng.standard_normal((6, 1)).tolist()]
            d = [[abs(x[i] - x[3 + (i + k) % 3]) for k in range(3)] for i in range(3)]
            if all(0.0 < d0 < d1 < d2 for d0, d1, d2 in d):
                found.append((r, x))
    return found


def reference_dist(p, q) -> float:
    """Euclidean distance of two float rows, squares summed by a generator."""
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(p, q)))


def _reference_cyclic_value(points):
    """Min of the six consecutive distance ratios of the cyclic profile,
    every distance recomputed from six float rows (three agents, then three
    alternatives), or None unless agent i strictly ranks alternatives i,
    i+1, i+2 (mod 3) in that order at positive distance."""
    best = math.inf
    for i in range(3):
        d0, d1, d2 = [reference_dist(points[i], points[3 + (i + k) % 3]) for k in range(3)]
        if not 0.0 < d0 < d1 < d2:
            return None
        best = min(best, d1 / d0, d2 / d1)
    return best


def reference_banach_climb(dim: int, restarts: int, iters: int, seed: int) -> BanachSearchResult:
    """The Euclidean cap search with every evaluation recomputing all nine
    distances: the same starts (up to 40 jittered templates, then up to 60
    Gaussian draws, from ``rng_for(seed, r)``), the same first-improvement
    coordinate climb with halving steps, and the same strict ``>`` choice of
    the best restart. The library keeps a distance table instead."""
    best_value, best_points, feasible = -math.inf, None, 0
    for r in range(restarts if dim >= 2 else 0):
        rng = rng_for(seed, r)
        for attempt in range(100):
            if attempt < 40:
                cand = np.zeros((6, dim))
                cand[:, :2] = embedding._TEMPLATE
                cand += rng.uniform(0.02, 0.35) * rng.standard_normal((6, dim))
            else:
                cand = rng.standard_normal((6, dim))
            points = cand.tolist()
            value = _reference_cyclic_value(points)
            if value is not None:
                break
        else:
            continue
        feasible += 1
        step, evals = 0.5, 0
        while evals < iters and step > 1e-12:
            improved = False
            moves = [(c, move) for c in range(dim) for move in (step, -step)]
            for row in points:
                for c, move in moves:
                    if evals >= iters:
                        break
                    evals += 1
                    row[c] += move
                    cand_value = _reference_cyclic_value(points)
                    if cand_value is not None and cand_value > value:
                        value, improved = cand_value, True
                        break
                    row[c] -= move
            if not improved:
                step *= 0.5
        if value > best_value:
            best_value, best_points = value, points
    if best_points is None:
        return BanachSearchResult(-math.inf, None, None, 0, dim, restarts, iters, seed)
    alpha = tuple(map(tuple, best_points[:3]))
    beta = tuple(map(tuple, best_points[3:]))
    return BanachSearchResult(best_value, alpha, beta, feasible, dim, restarts, iters, seed)


def reference_bourgain_embed(space, quality: int, seed: int) -> np.ndarray:
    """The subset embedding's points one coordinate at a time: each of the
    ``quality * ceil(ln V)`` subsets of each scale i = 1..floor(log2 V),
    drawn by ``rng_for(seed)`` at size min(2^i, V - 1), gives the column of
    minima over its rows of the transposed distance matrix; the columns are
    stacked and divided by sqrt(dim). The library batches the minima of a
    scale and skips the members of a large subset instead."""
    v_count = space.n_vertices
    dmat = space.distance_matrix()
    levels = int(math.floor(math.log2(v_count)))
    reps = quality * int(math.ceil(math.log(v_count)))
    rng = rng_for(seed)
    by_target = np.ascontiguousarray(dmat.T)
    cols = []
    for i in range(1, levels + 1):
        size = min(2**i, v_count - 1)
        for _ in range(reps):
            subset = rng.choice(v_count, size=size, replace=False)
            cols.append(by_target[subset].min(axis=0))
    coords = np.stack(cols, axis=1)
    coords /= math.sqrt(coords.shape[1])
    return coords


def reference_random_connected_space(vertices, extra_edges, rng):
    """Edge list of ``random_connected_space`` drawn try by try: a random
    spanning tree, then up to ``50 * (extra_edges + 1)`` tries that each
    draw two endpoints, even after the graph is complete. Every weight is
    drawn from ``uniform(0.5, 3.0)``."""
    edges, seen = [], set()
    order = [int(v) for v in rng.permutation(vertices)]
    for i in range(1, vertices):
        a, b = order[i], order[int(rng.integers(0, i))]
        edges.append((a, b, float(rng.uniform(0.5, 3.0))))
        seen.add((min(a, b), max(a, b)))
    tries = 0
    while len(edges) < vertices - 1 + extra_edges and tries < 50 * (extra_edges + 1):
        tries += 1
        a, b = int(rng.integers(0, vertices)), int(rng.integers(0, vertices))
        if a != b and (min(a, b), max(a, b)) not in seen:
            edges.append((a, b, float(rng.uniform(0.5, 3.0))))
            seen.add((min(a, b), max(a, b)))
    return edges


def reference_is_polarized(u: UtilityProfile):
    """Scalar polarity scan: ``(ok, violation)`` for the first quadruple
    (a, a', x, x') in lexicographic order with
    u(a,x') - u(a,x) > -(u(a',x) + u(a',x')) + 1e-12 * max(1, |lhs|, |rhs|).
    """
    n = u.n
    v = u.values.tolist()
    for a in range(n):
        for a_prime in range(n):
            for x in range(n):
                for x_prime in range(n):
                    lhs = v[a][x_prime] - v[a][x]
                    rhs = -(v[a_prime][x] + v[a_prime][x_prime])
                    slack = 1e-12 * max(1.0, abs(lhs), abs(rhs))
                    if lhs > rhs + slack:
                        return False, (a, a_prime, x, x_prime)
    return True, None


@dataclass(frozen=True)
class PathAgreementResult:
    ok: bool
    witness: tuple | None = None
    checked: int = 0  # quadruples looked at

    def __bool__(self) -> bool:
        return self.ok


def path_preference_agreement_check(space, placement, profile: OrdinalProfile) -> PathAgreementResult:
    """Agreement property of intersecting shortest paths, on every quadruple.

    For agents a < a' and alternatives x != x', if the shortest path that
    networkx's Dijkstra finds from alpha(a) to beta(x) meets the one from
    alpha(a') to beta(x') at a vertex, the two agents cannot both strictly
    prefer their own path's destination: a preferring x over x' forces a'
    to prefer x over x' as well. (The symmetric orientation, where each
    agent prefers the other's destination, is geometrically possible and is
    not flagged.) The argument holds for any shortest paths. A witness
    ``(a, x, a', x', meeting vertex)`` would point to a shortest-path bug,
    not to a property of the input. ValueError if the placement does not
    represent ``profile``.
    """
    n = profile.n
    induced = utilities_from_space(space, placement, n)
    if ordinal_from_utility(induced, TiePolicy.STRICT) != profile:
        raise ValueError("placement does not represent the given ordinal profile")
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(space.n_vertices))
    graph.add_weighted_edges_from(space.edges)
    paths = {
        (a, x): frozenset(nx.dijkstra_path(graph, placement.alpha[a], placement.beta[x]))
        for a in range(n)
        for x in range(n)
    }
    pos = [{x: i for i, x in enumerate(row)} for row in profile.ranks]
    checked = 0
    for a, ap in itertools.combinations(range(n), 2):
        for x, xp in itertools.permutations(range(n), 2):
            checked += 1
            meet = paths[a, x] & paths[ap, xp]
            if meet and pos[a][x] < pos[a][xp] and pos[ap][xp] < pos[ap][x]:
                return PathAgreementResult(False, (a, x, ap, xp, min(meet)), checked)
    return PathAgreementResult(True, None, checked)


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


def _reference_json_value(value):
    """``value`` with every infinite float inside dicts, lists and tuples
    written as the string "inf" or "-inf", and every tuple as a list."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _reference_json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_json_value(v) for v in value]
    return value


def reference_json_text(payload: dict) -> str:
    """The CLI's JSON output written by the standard library's encoder:
    indented, keys sorted, infinities as strings, a NaN raising ValueError."""
    return json.dumps(_reference_json_value(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


#: Range [lo, hi] of the utilities in random extensional profiles.
_RANDOM_UTILITY_RANGE = (-10.0, -0.1)


def _random_strict_rows(n: int, rng: np.random.Generator) -> list[list[float]]:
    """Per-agent strictly decreasing utility draws in ``_RANDOM_UTILITY_RANGE``."""
    rows = []
    for _ in range(n):
        while True:
            draws = sorted(float(v) for v in rng.uniform(*_RANDOM_UTILITY_RANGE, size=n))
            if all(draws[i] < draws[i + 1] for i in range(n - 1)):
                rows.append(draws[::-1])  # best (closest to zero) first
                break
    return rows


def random_extensional_profile(n: int, rng: np.random.Generator) -> ExtensionalProfile:
    """Random fully-covered extensional profile; practical for n <= 3 only."""
    table = {}
    for r in all_profiles(n):
        table[r] = UtilityProfile(n, rank_scatter(r.ranks, _random_strict_rows(n, rng)))
    return ExtensionalProfile(n, table)


def random_extensional_market(n: int, rng: np.random.Generator) -> MatchingMarket:
    return MatchingMarket(random_extensional_profile(n, rng), random_extensional_profile(n, rng))


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


#: The constrained cells of the nine-agent profile, written out as the
#: alternatives each of agents 0..8 must rank first, second and (agents 6-8)
#: third.
NINE_AGENT_PREFIXES = (
    (0, 3), (1, 4), (2, 5), (3, 1), (4, 2), (5, 0), (6, 3, 2), (7, 4, 0), (8, 5, 1),
)


def reference_matches_nine_agent_cells(profile: OrdinalProfile) -> bool:
    """True iff the first nine agents' rankings start with their prefixes."""
    return profile.n >= 9 and all(
        profile.ranks[a][: len(prefix)] == prefix for a, prefix in enumerate(NINE_AGENT_PREFIXES)
    )


def support_space(graph) -> MetricSpace:
    """The ``(vertex_count, edges)`` graph as a MetricSpace of unit edges; a
    self-loop gets weight 0, the only weight a loop may carry."""
    vertex_count, edges = graph
    return MetricSpace(vertex_count, [(a, b, 0.0 if a == b else 1.0) for a, b in edges])


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
