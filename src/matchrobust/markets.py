"""Utility profiles, multiplicative perturbations, and market profiles.

A utility profile assigns each (agent, alternative) pair a nonpositive
number. A market profile is a rule mapping every ordinal profile R to a
utility profile whose induced ranking is R again; two such rules, one per
side, form a matching market.

Two representations are supported. Rank-based profiles depend only on rank
position and therefore cover all (n!)^n ordinal profiles implicitly, which
keeps robustness computations tractable for any n. Extensional profiles
store an explicit table and are only practical for n <= 3 (full coverage is
(n!)^n entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .jsonvalues import json_array, json_int, json_rows
from .ordinal import OrdinalProfile, _stable_ranking, all_profiles, ordinal_from_utility_flagged


def _matrix(n: int, rows, what: str) -> np.ndarray:
    """``rows`` as a fresh read-only float64 n x n array."""
    if n < 1:
        raise ValueError(f"{what} matrix needs n >= 1")
    try:
        m = np.array(rows, dtype=float)
    except ValueError as exc:  # ragged rows or a non-number
        raise ValueError(f"{what} rows must form an n x n matrix of numbers") from exc
    if m.shape != (n, n):
        raise ValueError(f"{what} rows must form an n x n matrix")
    m.flags.writeable = False
    return m


def _require(ok: np.ndarray, m: np.ndarray, what: str, fault: str) -> None:
    """Raise for the row-major first entry of ``m`` where ``ok`` is False."""
    first = int(ok.argmin())  # the first False, or 0 when all hold
    if not ok.flat[first]:
        a, x = divmod(first, len(m))
        raise ValueError(f"{what} ({a},{x}) = {m[a, x]} {fault}")


@dataclass(frozen=True, eq=False)
class UtilityProfile:
    """n x n matrix; entry (a, x) is agent a's utility for alternative x, <= 0.

    ``values`` is a read-only float64 array. Profiles compare by identity;
    compare values with ``np.array_equal``.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        values = _matrix(self.n, self.values, "utility")
        _require(values <= 0.0, values, "utility", "is positive or NaN")
        object.__setattr__(self, "values", values)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "values": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "UtilityProfile":
        values = json_rows(data["values"], "utility", ints=False)
        return cls(n=json_int(data.get("n", len(values)), "n"), values=values)


@dataclass(frozen=True, eq=False)
class Perturbation:
    """n x n matrix of multiplicative factors, every entry finite and >= 1.

    ``factors`` is a read-only float64 array; perturbations compare by
    identity.
    """

    n: int
    factors: np.ndarray

    def __post_init__(self):
        factors = _matrix(self.n, self.factors, "factor")
        ok = (factors >= 1.0) & (factors < math.inf)
        _require(ok, factors, "factor", "is below 1, infinite or NaN")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def single_entry(cls, n: int, agent: int, alternative: int, factor: float) -> "Perturbation":
        factors = np.ones((n, n))
        factors[agent, alternative] = factor
        return cls(n, factors)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "factors": self.factors.tolist()}


def apply_perturbation(delta: Perturbation, u: UtilityProfile) -> UtilityProfile:
    """Entrywise product. Never raises any utility; zeros stay zero, and a
    product beyond the float range becomes -inf."""
    if delta.n != u.n:
        raise ValueError(f"size mismatch: perturbation n={delta.n}, utilities n={u.n}")
    with np.errstate(over="ignore"):
        return UtilityProfile(u.n, delta.factors * u.values)


def rank_scatter(ranks, rank_values) -> np.ndarray:
    """Array whose entry (..., a, ranks[..., a, i]) is ``rank_values[i]``, or
    ``rank_values[..., a, i]`` when given per agent, for ``ranks`` of one
    profile or a ``(T, n, n)`` block: the i-th ranked gets the i-th value."""
    ranks = np.asarray(ranks)
    out = np.empty(ranks.shape)
    np.put_along_axis(out, ranks, rank_values, axis=-1)
    return out


class MarketProfile:
    """Rule mapping ordinal profiles to consistent utility profiles.

    Each side stacks, once at construction, the table that robustness scans:
    row ``k * n + a`` of the read-only arrays ``table_ranks`` (intp) and
    ``table_values`` (float64) holds agent ``a``'s ranking and utilities at
    ``table_profiles[k]``. An extensional side stacks every stored profile; a
    rank-based side, whose agents all hold one ranking and one set of rank
    utilities at every profile, stacks just agent 0's row, shape ``(1, n)``.
    """

    n: int
    table_profiles: tuple[OrdinalProfile, ...]
    table_ranks: np.ndarray
    table_values: np.ndarray

    def utilities(self, profile: OrdinalProfile) -> UtilityProfile:
        raise NotImplementedError

    def block_utilities(self, ranks: np.ndarray) -> np.ndarray:
        """The utilities of each profile in a ``(T, n, n)`` block of rankings."""
        raise NotImplementedError

    def representable_profiles(self) -> Iterator[OrdinalProfile]:
        raise NotImplementedError


class RankBasedProfile(MarketProfile):
    """Utility depends only on rank position, identically for every agent.

    ``rank_utilities[i]`` is the utility for an agent's i-th ranked
    alternative; the sequence must be strictly decreasing and nonpositive so
    that the induced ranking always recovers the input profile. Because the
    multiset of utility ratios is identical at every ordinal profile, any
    minimum over all profiles collapses to a single representative, the
    identity profile, and to agent 0's row of it, which is the whole table.
    """

    def __init__(self, n: int, rank_utilities: Sequence[float]):
        if n < 1:
            raise ValueError("n >= 1 required")
        ru = tuple(float(v) for v in rank_utilities)
        if len(ru) != n:
            raise ValueError("need one utility per rank")
        if any(not v <= 0.0 for v in ru):
            raise ValueError("rank utilities must be nonpositive, not NaN")
        if any(not ru[i] > ru[i + 1] for i in range(n - 1)):
            raise ValueError("rank utilities must be strictly decreasing")
        self.n = n
        self.rank_utilities = ru
        self.table_profiles = (OrdinalProfile._of_permutations(n, (tuple(range(n)),) * n),)
        self.table_ranks = np.arange(n, dtype=np.intp).reshape(1, n)
        self.table_values = np.array([ru])
        self.table_ranks.flags.writeable = self.table_values.flags.writeable = False

    def utilities(self, profile: OrdinalProfile) -> UtilityProfile:
        if profile.n != self.n:
            raise ValueError("size mismatch")
        return UtilityProfile(self.n, rank_scatter(profile.ranks, self.rank_utilities))

    def block_utilities(self, ranks: np.ndarray) -> np.ndarray:
        return rank_scatter(ranks, self.rank_utilities)

    def representable_profiles(self) -> Iterator[OrdinalProfile]:
        return all_profiles(self.n)


class ExtensionalProfile(MarketProfile):
    """Explicit ordinal-profile -> utility-profile table.

    A side is validated once, as a whole: ``ExtensionalProfile(n, table)``
    stacks its entries into ``(E, n, n)`` rank and utility arrays, and
    :meth:`from_json_dict` builds the same arrays straight from a JSON side.
    Both then pass one check: a stable sort of every row's negated
    utilities must reproduce its ranks without a tie, which also proves
    each rank row a permutation. The first bad entry in table order is
    re-extracted to raise its error. The stacked arrays are the only store:
    :meth:`utilities` and :meth:`block_utilities` copy each profile's block
    of ``table_values``.
    """

    def __init__(self, n: int, table: Mapping[OrdinalProfile, UtilityProfile]):
        if n < 1:
            raise ValueError("n >= 1 required")
        if not table:
            raise ValueError("empty table")
        if any(r.n != n or u.n != n for r, u in table.items()):
            raise ValueError("table entry size mismatch")
        ranks = np.array([r.ranks for r in table], dtype=np.intp)
        self._store(n, ranks, np.array([u.values for u in table.values()]))

    def _store(self, n: int, ranks: np.ndarray, values: np.ndarray) -> None:
        """Check and keep ``(E, n, n)`` intp ranks and float64 nonpositive
        utilities, entry k stored at the profile ``ranks[k]``."""
        order, ties = _stable_ranking(values)
        bad = (order != ranks).any(axis=2) | ties.any(axis=2)
        if bad.any():
            k = int(bad.any(axis=1).argmax())
            ordinal_from_utility_flagged(UtilityProfile(n, values[k]))  # raises TieError on a tie
            raise ValueError(
                f"inconsistent table entry: utilities do not induce {tuple(map(tuple, ranks[k].tolist()))}"
            )
        profiles = tuple(OrdinalProfile._of_permutations(n, tuple(map(tuple, r))) for r in ranks.tolist())
        ranks.flags.writeable = values.flags.writeable = False
        self._index = dict(zip(profiles, range(len(profiles))))
        if len(self._index) < len(profiles):
            raise ValueError("two table entries for one profile")
        self.n = n
        self.table_profiles = profiles
        self.table_ranks = ranks.reshape(-1, n)
        self.table_values = values.reshape(-1, n)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExtensionalProfile":
        """A side from ``{"n": n, "entries": [{"ranks": R, "values": U}, ...]}``.

        The entries are read as a whole: one type check over every rank and
        every utility, one array for each, and one check each for shape,
        finiteness and sign before the check every side makes. A side that
        fails any of them is read again one entry at a time, in file order,
        so the first bad entry raises the error its own constructors raise
        (a duplicate counts at its position).
        """
        arrays = _json_entry_arrays(data)
        if arrays is not None:
            side = cls.__new__(cls)
            try:
                side._store(*arrays)
                return side
            except ValueError:
                pass
        table = {}
        for entry in json_array(data["entries"], "entries"):
            r = OrdinalProfile.from_json_dict({"n": data["n"], "ranks": entry["ranks"]})
            u = UtilityProfile.from_json_dict({"n": data["n"], "values": entry["values"]})
            if r in table:
                raise ValueError(f"two entries for ranks {[list(row) for row in r.ranks]}")
            table[r] = u
        return cls(json_int(data["n"], "n"), table)

    def utilities(self, profile: OrdinalProfile) -> UtilityProfile:
        return UtilityProfile(self.n, self.block_utilities(np.array([profile.ranks]))[0])

    def block_utilities(self, ranks: np.ndarray) -> np.ndarray:
        """Each profile's block of ``table_values``, copied, for a ``(T, n, n)``
        block of rankings; ValueError for a profile this side does not store."""
        profiles = (OrdinalProfile._of_permutations(self.n, tuple(map(tuple, r))) for r in ranks.tolist())
        try:
            entries = [self._index[r] for r in profiles]
        except KeyError:
            raise ValueError("profile not represented by this extensional market") from None
        return self.table_values.reshape(-1, self.n, self.n)[entries]

    def representable_profiles(self) -> Iterator[OrdinalProfile]:
        return iter(self.table_profiles)


def _json_entry_arrays(data) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(n, ranks, values)`` of a JSON extensional side's entries as
    ``(E, n, n)`` intp and float64 arrays, or None unless n is a positive
    JSON integer, there is at least one entry, every rank is a JSON integer
    and every utility a finite, nonpositive JSON number, and both fields of
    every entry form an n x n matrix."""
    try:
        n, entries = data["n"], data["entries"]
        if type(n) is not int or n < 1 or type(entries) is not list or not entries:
            return None
        rank_rows = [entry["ranks"] for entry in entries]
        value_rows = [entry["values"] for entry in entries]
        rank_types = {type(v) for rows in rank_rows for row in rows for v in row}
        value_types = {type(v) for rows in value_rows for row in rows for v in row}
        if not (rank_types <= {int} and value_types <= {int, float}):
            return None
        ranks = np.array(rank_rows, dtype=np.intp)
        values = np.array(value_rows, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    shape = (len(entries), n, n)
    if ranks.shape != shape or values.shape != shape:
        return None
    if not (np.isfinite(values).all() and (values <= 0.0).all()):
        return None
    return n, ranks, values


@dataclass(frozen=True)
class MatchingMarket:
    """Two market profiles, one for each side."""

    men: MarketProfile
    women: MarketProfile

    def __post_init__(self):
        if self.men.n != self.women.n:
            raise ValueError("sides disagree on n")

    @property
    def n(self) -> int:
        return self.men.n


def geometric_market(n: int, base: float) -> MatchingMarket:
    """Rank-based market with consecutive utility ratio ``base`` on both sides.

    Rank utilities beyond the float range are rejected.
    """
    if not base > 1:
        raise ValueError("base must exceed 1")
    try:
        ru = tuple(-(base**i) for i in range(n))
    except OverflowError:
        ru = (-math.inf,)
    if not all(map(math.isfinite, ru)):
        raise ValueError("rank utilities overflow the float range")
    return MatchingMarket(RankBasedProfile(n, ru), RankBasedProfile(n, ru))

