"""Ordinal preference machinery for two-sided matching.

Agents and alternatives are indexed ``0..n-1``. A profile holds one strict,
complete ranking per agent, best first. Assignments are always stored as
man -> woman permutations, no matter which side proposed. All values here
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .jsonvalues import json_int, json_rows

#: Hard cap for the exhaustive stable search (n! bijections at worst).
STABLE_ENUM_CAP = 7


class Side(Enum):
    MEN = "men"
    WOMEN = "women"


class TiePolicy(Enum):
    STRICT = "strict"
    INDEX = "index"


class TieError(ValueError):
    """Strict ordinal extraction hit two equal utilities in one row."""

    def __init__(self, agent: int, first: int, second: int):
        super().__init__(
            f"agent {agent} holds equal utilities for alternatives {first} and {second}"
        )
        self.agent = agent
        self.alternatives = (first, second)


@dataclass(frozen=True)
class OrdinalProfile:
    """n strict rankings, one per agent, over alternatives 0..n-1, best first."""

    n: int
    ranks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(tuple(row) for row in self.ranks))
        if self.n < 1:
            raise ValueError("profile needs n >= 1")
        if len(self.ranks) != self.n:
            raise ValueError(f"expected {self.n} rows, got {len(self.ranks)}")
        full = frozenset(range(self.n))
        for a, row in enumerate(self.ranks):
            if len(row) != self.n or frozenset(row) != full:
                raise ValueError(f"row {a} is not a permutation of 0..{self.n - 1}")

    @classmethod
    def _of_permutations(cls, n: int, ranks: tuple[tuple[int, ...], ...]) -> "OrdinalProfile":
        """A profile from rows that are permutations of 0..n-1 by
        construction (an argsort, ``rng.permutation``), as a tuple of int
        tuples; skips the check the public constructor makes."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "n", n)
        object.__setattr__(profile, "ranks", ranks)
        return profile

    def position_table(self) -> list[list[int]]:
        """pos[a][x] = rank of alternative x for agent a. Fresh lists each
        call, whose rows share one set of n index ints."""
        indices = tuple(range(self.n))
        return [_inverse(row, indices) for row in self.ranks]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "ranks": [list(row) for row in self.ranks]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrdinalProfile":
        return cls(n=json_int(data["n"], "n"), ranks=json_rows(data["ranks"], "rank", ints=True))


def _inverse(perm, indices=None) -> list[int]:
    """The inverse of a permutation of 0..n-1: ``inv[perm[i]] = i``, with
    each ``i`` taken from ``indices`` when given, so that rows built from
    one ``indices`` share their ints."""
    inv = [0] * len(perm)
    for i, x in enumerate(perm) if indices is None else zip(indices, perm):
        inv[x] = i
    return inv


@dataclass(frozen=True)
class Assignment:
    """Bijection man index -> woman index."""

    n: int
    pairing: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairing", tuple(self.pairing))
        if len(self.pairing) != self.n or frozenset(self.pairing) != frozenset(range(self.n)):
            raise ValueError("pairing is not a bijection on 0..n-1")


@dataclass(frozen=True)
class StablePair:
    male_optimal: Assignment
    female_optimal: Assignment


def _proposal_chain(prefs, resp_pos) -> list[int]:
    """Deferred acceptance over plain lists, returning ``engaged``
    (responder -> proposer).

    ``prefs[p]`` is proposer p's ranking and ``resp_pos[r][p]`` responder
    r's rank of proposer p. Proposers enter in index order, and each entrant
    starts a chain (McVitie & Wilson 1971): whoever is rejected or displaced
    proposes next, until a proposal lands on a free responder. Each proposal
    is O(1), so the run is O(proposals).
    """
    n = len(prefs)
    next_choice = [0] * n
    engaged = [-1] * n
    for entrant in range(n):
        p = entrant
        while p >= 0:
            target = prefs[p][next_choice[p]]
            next_choice[p] += 1
            holder = engaged[target]
            if holder < 0 or resp_pos[target][p] < resp_pos[target][holder]:
                engaged[target] = p
                p = holder
    return engaged


def deferred_acceptance(
    men: OrdinalProfile, women: OrdinalProfile, proposing_side: Side = Side.MEN
) -> Assignment:
    """Gale-Shapley deferred acceptance.

    Returns the proposing side's optimal stable assignment, found by one
    :func:`_proposal_chain` run. The outcome of deferred acceptance does
    not depend on proposal order.
    """
    if men.n != women.n:
        raise ValueError(f"size mismatch: men n={men.n}, women n={women.n}")
    if proposing_side is Side.MEN:
        return Assignment(men.n, tuple(_inverse(_proposal_chain(men.ranks, women.position_table()))))
    return Assignment(men.n, tuple(_proposal_chain(women.ranks, men.position_table())))


def phi(men: OrdinalProfile, women: OrdinalProfile) -> StablePair:
    """Both deferred-acceptance outcomes: (male-optimal, female-optimal)."""
    return StablePair(
        male_optimal=deferred_acceptance(men, women, Side.MEN),
        female_optimal=deferred_acceptance(men, women, Side.WOMEN),
    )


def enumerate_stable(men: OrdinalProfile, women: OrdinalProfile) -> set[Assignment]:
    """All stable assignments, by exhaustive search over partial bijections.

    Brute-force oracle for the deferred-acceptance implementation, built
    from the definition alone. Men are placed in index order, and placing
    man m with woman w is refused when, for some earlier man m2 with wife
    w2, (m, w2) or (m2, w) blocks. Every blocking pair of a bijection joins
    two of its pairs, so it is seen when the later of the two men is
    placed; and a blocking pair among placed men blocks every completion.
    So the search keeps exactly the stable bijections. It still refuses to
    run above ``STABLE_ENUM_CAP``: its worst case is n! wide.
    """
    if men.n != women.n:
        raise ValueError("size mismatch")
    if men.n > STABLE_ENUM_CAP:
        raise ValueError(f"n={men.n} exceeds brute-force cap {STABLE_ENUM_CAP}")
    n = men.n
    men_pos, women_pos = men.position_table(), women.position_table()
    wife, taken, stable = [0] * n, [False] * n, set()

    def extend(m: int) -> None:
        if m == n:
            stable.add(Assignment(n, tuple(wife)))
            return
        his = men_pos[m]
        for w in range(n):
            if taken[w]:
                continue
            hers = women_pos[w]
            for m2 in range(m):
                w2 = wife[m2]
                if (his[w2] < his[w] and women_pos[w2][m] < women_pos[w2][m2]) or (
                    men_pos[m2][w] < men_pos[m2][w2] and hers[m2] < hers[m]
                ):
                    break
            else:
                wife[m] = w
                taken[w] = True
                extend(m + 1)
                taken[w] = False

    extend(0)
    return stable


def all_profiles(n: int) -> Iterator[OrdinalProfile]:
    """Every strict profile on n agents, (n!)^n of them. Use with care."""
    perms = list(itertools.permutations(range(n)))
    for rows in itertools.product(perms, repeat=n):
        yield OrdinalProfile(n, rows)


def uniform_profile(n: int, rng: np.random.Generator) -> OrdinalProfile:
    """A profile drawn uniformly at random from all (n!)^n strict profiles."""
    if n < 1:
        raise ValueError("profile needs n >= 1")
    rows = tuple(tuple(int(v) for v in rng.permutation(n)) for _ in range(n))
    return OrdinalProfile._of_permutations(n, rows)


def distinguishing_profile(r: OrdinalProfile, r_prime: OrdinalProfile) -> OrdinalProfile:
    """Opposite-side profile at which the two given profiles are told apart.

    Given two distinct same-side profiles ``r`` and ``r_prime``, builds a
    profile for the opposite side such that running both deferred-acceptance
    directions against it produces different stable pairs for ``r`` than for
    ``r_prime``. The construction: find an agent a1 and alternatives b1, b2
    whose relative order flips between the profiles; b1 and b2 both rank a1
    first and a fixed second agent a2 next, while every other alternative
    ranks a distinct remaining agent first, so the entire outcome hinges on
    a1's choice between b1 and b2. Unconstrained slots are filled in
    ascending index order; any completion works, callers must not depend on
    this particular one.
    """
    if r.n != r_prime.n:
        raise ValueError("size mismatch")
    if r == r_prime:
        raise ValueError("profiles are identical; nothing to distinguish")
    return OrdinalProfile(r.n, _distinguishing_rows(r.n, *_first_flip(r, r_prime)))


def _first_flip(r: OrdinalProfile, r_prime: OrdinalProfile) -> tuple[int, int, int]:
    """``(a, b1, b2)``: the first agent a whose rows differ and, in scan order
    over a's row of ``r``, the first pair b1 above b2 that ``r_prime`` ranks
    the other way round.

    Positions before the first differing position k hold the same prefix in
    both rows and cannot flip, so b1 is the alternative at k and b2 the first
    one after it that ``r_prime`` ranks above b1: O(n) per row.
    """
    for a, (row, prime_row) in enumerate(zip(r.ranks, r_prime.ranks)):
        if row == prime_row:
            continue
        k = next(i for i, (x, y) in enumerate(zip(row, prime_row)) if x != y)
        prime_pos = _inverse(prime_row)
        above = prime_pos[row[k]]
        return a, row[k], next(x for x in row[k + 1 :] if prime_pos[x] < above)
    raise RuntimeError("distinct profiles must disagree on some pair; this is a bug")


def _distinguishing_rows(n: int, a1: int, b1: int, b2: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the opposite-side profile that hinges on agent a1's choice
    between alternatives b1 and b2 (see :func:`distinguishing_profile`)."""
    agents = tuple(range(n))  # every row reads its ints from this one tuple
    a1, a2 = agents[a1], agents[0 if a1 != 0 else 1]
    spare_agents = [a for a in agents if a not in (a1, a2)]
    other_alts = [b for b in range(n) if b not in (b1, b2)]

    rows: list[tuple[int, ...]] = [()] * n
    rows[b1] = rows[b2] = (a1, a2, *spare_agents)
    for b, top in zip(other_alts, spare_agents):
        rows[b] = (top, *agents[:top], *agents[top + 1 :])
    return tuple(rows)


def _stable_ranking(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rankings and ties of utility rows along the last axis.

    ``order`` is a stable argsort of the negated values, so each row is
    ranked by (-utility, index); ``ties[..., i]`` is True where sorted
    neighbours i and i + 1 are equal.
    """
    ranked = -values
    order = ranked.argsort(axis=-1, kind="stable")
    ranked.sort(axis=-1)  # the same values as ranked[order]
    return order, ranked[..., 1:] == ranked[..., :-1]


def ordinal_from_utility_flagged(
    u, tie_policy: TiePolicy = TiePolicy.STRICT
) -> tuple[OrdinalProfile, bool]:
    """Extract the ordinal profile of a utility profile, reporting ties.

    Under the strict policy equal utilities in a row raise :class:`TieError`
    for the first tie in row-major order. Under the index policy ties are
    broken by ascending alternative index and the returned flag is True
    whenever any tie was broken.
    """
    order, ties = _stable_ranking(u.values)
    had_ties = bool(np.count_nonzero(ties))
    if had_ties and tie_policy is TiePolicy.STRICT:
        a, i = divmod(int(ties.argmax()), u.n - 1)
        raise TieError(a, int(order[a, i]), int(order[a, i + 1]))
    return OrdinalProfile._of_permutations(u.n, tuple(map(tuple, order.tolist()))), had_ties


def ordinal_from_utility(u, tie_policy: TiePolicy = TiePolicy.STRICT) -> OrdinalProfile:
    """Ranking induced by a utility profile: x above x' iff u(a,x) > u(a,x')."""
    profile, _ = ordinal_from_utility_flagged(u, tie_policy)
    return profile
