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

#: Hard cap for brute-force stable enumeration (n! bijections).
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
        """pos[a][x] = rank of alternative x for agent a. Fresh list each call."""
        pos = []
        for row in self.ranks:
            inverse = [0] * self.n
            for r, x in enumerate(row):
                inverse[x] = r
            pos.append(inverse)
        return pos

    def to_json_dict(self) -> dict:
        return {"n": self.n, "ranks": [list(row) for row in self.ranks]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OrdinalProfile":
        return cls(n=json_int(data["n"], "n"), ranks=json_rows(data["ranks"], "rank", ints=True))


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


def deferred_acceptance(
    men: OrdinalProfile, women: OrdinalProfile, proposing_side: Side = Side.MEN
) -> Assignment:
    """Gale-Shapley deferred acceptance.

    Returns the proposing side's optimal stable assignment. Proposers enter
    in index order, and each entrant starts a chain (McVitie & Wilson 1971):
    whoever is rejected or displaced proposes next, until a proposal lands
    on a free responder. Each proposal is O(1), so the run is O(proposals).
    The outcome of deferred acceptance does not depend on proposal order.
    """
    if men.n != women.n:
        raise ValueError(f"size mismatch: men n={men.n}, women n={women.n}")
    n = men.n
    if proposing_side is Side.MEN:
        proposers, responders = men, women
    else:
        proposers, responders = women, men

    prefs = proposers.ranks
    resp_pos = responders.position_table()
    next_choice = [0] * n
    engaged = [-1] * n  # responder -> proposer
    for entrant in range(n):
        p = entrant
        while p >= 0:
            target = prefs[p][next_choice[p]]
            next_choice[p] += 1
            holder = engaged[target]
            if holder < 0 or resp_pos[target][p] < resp_pos[target][holder]:
                engaged[target] = p
                p = holder

    if proposing_side is Side.MEN:
        pairing = [0] * n
        for w, m in enumerate(engaged):
            pairing[m] = w
        return Assignment(n, tuple(pairing))
    # engaged maps man -> woman when women propose
    return Assignment(n, tuple(engaged))


def phi(men: OrdinalProfile, women: OrdinalProfile) -> StablePair:
    """Both deferred-acceptance outcomes: (male-optimal, female-optimal)."""
    return StablePair(
        male_optimal=deferred_acceptance(men, women, Side.MEN),
        female_optimal=deferred_acceptance(men, women, Side.WOMEN),
    )


def _blocking(men_ranks, women_pos, pairing) -> Iterator[tuple[int, int]]:
    """Blocking pairs of ``pairing`` in (man, his rank of the woman) order.

    A man scans his ranking down to his partner; a woman he meets on the way
    blocks with him if she ranks him above her own partner.
    """
    inv = [0] * len(pairing)
    for m, w in enumerate(pairing):
        inv[w] = m
    for m, partner in enumerate(pairing):
        for w in men_ranks[m]:
            if w == partner:
                break
            pos = women_pos[w]
            if pos[m] < pos[inv[w]]:
                yield m, w


def blocking_pairs(
    men: OrdinalProfile, women: OrdinalProfile, mu: Assignment
) -> set[tuple[int, int]]:
    """All (man, woman) pairs who mutually prefer each other over their match."""
    if men.n != women.n or mu.n != men.n:
        raise ValueError("size mismatch")
    return set(_blocking(men.ranks, women.position_table(), mu.pairing))


def is_stable(men: OrdinalProfile, women: OrdinalProfile, mu: Assignment) -> bool:
    if men.n != women.n or mu.n != men.n:
        raise ValueError("size mismatch")
    return next(_blocking(men.ranks, women.position_table(), mu.pairing), None) is None


def enumerate_stable(men: OrdinalProfile, women: OrdinalProfile) -> set[Assignment]:
    """All stable assignments by exhaustive bijection enumeration.

    Brute-force oracle for the deferred-acceptance implementation; refuses
    to run above ``STABLE_ENUM_CAP`` because the search is n! wide. Each
    bijection is dropped at its first blocking pair.
    """
    if men.n != women.n:
        raise ValueError("size mismatch")
    if men.n > STABLE_ENUM_CAP:
        raise ValueError(f"n={men.n} exceeds brute-force cap {STABLE_ENUM_CAP}")
    women_pos = women.position_table()
    return {
        Assignment(men.n, perm)
        for perm in itertools.permutations(range(men.n))
        if next(_blocking(men.ranks, women_pos, perm), None) is None
    }


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
    n = r.n

    a1 = b1 = b2 = -1
    for a in range(n):
        if r.ranks[a] == r_prime.ranks[a]:
            continue
        prime_pos = {x: i for i, x in enumerate(r_prime.ranks[a])}
        row = r.ranks[a]
        found = False
        for i in range(n):
            for j in range(i + 1, n):
                if prime_pos[row[i]] > prime_pos[row[j]]:
                    a1, b1, b2 = a, row[i], row[j]
                    found = True
                    break
            if found:
                break
        if found:
            break
    if a1 < 0:
        raise RuntimeError("distinct profiles must disagree on some pair; this is a bug")

    a2 = 0 if a1 != 0 else 1
    spare_agents = [a for a in range(n) if a not in (a1, a2)]
    other_alts = [b for b in range(n) if b not in (b1, b2)]

    rows: list[tuple[int, ...]] = [()] * n
    for b in (b1, b2):
        tail = [a for a in range(n) if a not in (a1, a2)]
        rows[b] = tuple([a1, a2] + tail)
    for b, top in zip(other_alts, spare_agents):
        tail = [a for a in range(n) if a != top]
        rows[b] = tuple([top] + tail)
    return OrdinalProfile(n, tuple(rows))


def ordinal_from_utility_flagged(
    u, tie_policy: TiePolicy = TiePolicy.STRICT
) -> tuple[OrdinalProfile, bool]:
    """Extract the ordinal profile of a utility profile, reporting ties.

    Under the strict policy equal utilities in a row raise :class:`TieError`
    for the first tie in row-major order. Under the index policy ties are
    broken by ascending alternative index and the returned flag is True
    whenever any tie was broken. One stable sort of the negated utilities
    orders each row by (-utility, index); ties are equal neighbours in it.
    """
    ranked = -u.values
    order = ranked.argsort(axis=1, kind="stable")
    ranked.sort(axis=1)  # the same values as ranked[order]
    ties = ranked[:, 1:] == ranked[:, :-1]
    had_ties = bool(np.count_nonzero(ties))
    if had_ties and tie_policy is TiePolicy.STRICT:
        a, i = divmod(int(ties.argmax()), u.n - 1)
        raise TieError(a, int(order[a, i]), int(order[a, i + 1]))
    return OrdinalProfile._of_permutations(u.n, tuple(map(tuple, order.tolist()))), had_ties


def ordinal_from_utility(u, tie_policy: TiePolicy = TiePolicy.STRICT) -> OrdinalProfile:
    """Ranking induced by a utility profile: x above x' iff u(a,x) > u(a,x')."""
    profile, _ = ordinal_from_utility_flagged(u, tie_policy)
    return profile
