"""Workloads of the matchrobust benchmark: inputs, job lists and output checks.

A workload assigns each analysis kind a size regime.  Every kind runs on
every workload so that each end-to-end metric is defined everywhere; the
regime decides whether that kind's layers do little work (``tiny``) or most
of their work (``large``) there.

Inputs are generated from the benchmark seed with numpy alone, never with
matchrobust helpers, so a change to the program's own generators cannot
change what the benchmark feeds it.  They are written to disk before any
timing starts.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

KINDS = ("solve", "robustness", "montecarlo", "geometry", "search")

#: Size regime of each analysis kind, per workload.
WORKLOADS = {
    "small": dict.fromkeys(KINDS, "tiny"),
    "large-market": {
        "solve": "large",
        "robustness": "large",
        "montecarlo": "large",
        "geometry": "tiny",
        "search": "tiny",
    },
    "large-space": {
        "solve": "tiny",
        "robustness": "tiny",
        "montecarlo": "tiny",
        "geometry": "large",
        "search": "tiny",
    },
}

#: Subcommand (or library call) -> analysis kind, as the metrics group them.
KIND_OF = {
    "solve": "solve",
    "stable-set": "solve",
    "robustness": "robustness",
    "witness": "robustness",
    "appendix-a": "montecarlo",
    "preservation_probability": "montecarlo",
    "rank_slot_factor_stats": "montecarlo",
    "polarity": "geometry",
    "genspace": "geometry",
    "planarity": "geometry",
    "embed": "geometry",
    "distortion": "geometry",
    "banach-search": "search",
    "search_planar_representation": "search",
}

ROBUSTNESS_TOL = 1e-6


class CheckFailed(Exception):
    """A job's output violates an invariant or its golden digest."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def program(module: str):
    """A matchrobust submodule, looked up at call time so traced bindings apply.

    ``matchrobust.robustness`` is shadowed on the package by the function of
    the same name, so submodules are taken from the import system.
    """
    return importlib.import_module(f"matchrobust.{module}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class Job:
    """One analysis call.

    ``argv`` jobs run ``matchrobust.cli.main(argv + ["--out", path])``;
    ``call`` jobs run a library function and serialise its result to bytes.
    ``check`` receives the job's output and every output of the round, keyed
    by job id, and raises :class:`CheckFailed` on a violation.
    """

    id: str
    name: str
    argv: tuple[str, ...] | None
    call: Callable[[], bytes] | None
    check: Callable[[bytes, dict], None]

    @property
    def kind(self) -> str:
        return KIND_OF[self.name]


# ---------------------------------------------------------------- inputs


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def ordinal_market(n: int, rng: np.random.Generator, identical: bool = False) -> dict:
    """Random rankings on both sides; ``identical`` gives every man one ranking."""
    if identical:
        row = rng.permutation(n).tolist()
        men = [row] * n
    else:
        men = [rng.permutation(n).tolist() for _ in range(n)]
    women = [rng.permutation(n).tolist() for _ in range(n)]
    return {"schema": 1, "men": {"n": n, "ranks": men}, "women": {"n": n, "ranks": women}}


def _strict_rows(rng: np.random.Generator, n: int) -> list[list[float]]:
    """n rows of distinct utilities in [-10, -0.1], best first."""
    while True:
        mags = np.sort(rng.uniform(0.1, 10.0, size=(n, n)), axis=1)
        if np.all(np.diff(mags, axis=1) > 0):
            return (-mags).tolist()


def extensional_side(n: int, rng: np.random.Generator) -> dict:
    """Explicit table over all (n!)^n profiles; utilities induce each ranking."""
    perms = list(itertools.permutations(range(n)))
    entries = []
    for rows in itertools.product(perms, repeat=n):
        by_rank = _strict_rows(rng, n)
        values = [[0.0] * n for _ in range(n)]
        for a, row in enumerate(rows):
            for pos, x in enumerate(row):
                values[a][x] = by_rank[a][pos]
        entries.append({"ranks": [list(r) for r in rows], "values": values})
    return {"kind": "extensional", "n": n, "entries": entries}


def rank_side(rank_utilities) -> dict:
    return {"kind": "rank", "n": len(rank_utilities), "rank_utilities": [float(v) for v in rank_utilities]}


def random_rank_utilities(n: int, rng: np.random.Generator) -> list[float]:
    """Strictly decreasing nonpositive utilities with ratios in [1.05, 3]."""
    top = -float(rng.uniform(0.5, 1.5))
    ratios = rng.uniform(1.05, 3.0, size=n - 1)
    return [top * float(np.prod(ratios[:i])) for i in range(n)]


def geometric_utilities(n: int, base: float) -> list[float]:
    return [-(base**i) for i in range(n)]


def connected_graph(vertices: int, extra: int, rng: np.random.Generator) -> dict:
    """Random spanning tree plus ``extra`` distinct edges, weights in [0.5, 3]."""
    order = rng.permutation(vertices).tolist()
    parents = [order[int(rng.integers(0, i))] for i in range(1, vertices)]
    pairs = {(min(a, b), max(a, b)) for a, b in zip(order[1:], parents)}
    edges = [[a, b] for a, b in zip(order[1:], parents)]
    while len(edges) < vertices - 1 + extra:
        a, b = (int(v) for v in rng.integers(0, vertices, size=2))
        key = (min(a, b), max(a, b))
        if a != b and key not in pairs:
            pairs.add(key)
            edges.append([a, b])
    weights = rng.uniform(0.5, 3.0, size=len(edges))
    return {
        "schema": 1,
        "vertices": vertices,
        "edges": [[a, b, float(w)] for (a, b), w in zip(edges, weights)],
    }


def euclidean_utilities(n: int, dim: int, rng: np.random.Generator) -> dict:
    """u(a, x) = -|p_a - q_x| for random points: polarized by the triangle inequality."""
    agents = rng.uniform(0.0, 1.0, size=(n, dim))
    alts = rng.uniform(0.0, 1.0, size=(n, dim))
    dist = np.sqrt(((agents[:, None, :] - alts[None, :, :]) ** 2).sum(axis=2))
    return {"schema": 1, "n": n, "values": (-dist).tolist()}


def bipartite_union(blocks: int, k: int, rng: np.random.Generator) -> dict:
    """Disjoint union of ``blocks`` copies of K_{k,k} with positive weights."""
    edges = []
    for b in range(blocks):
        off = 2 * k * b
        weights = rng.uniform(0.5, 3.0, size=(k, k))
        edges += [[off + i, off + k + j, float(weights[i, j])] for i in range(k) for j in range(k)]
    return {"schema": 1, "vertices": 2 * k * blocks, "edges": edges}


def knn_genus_bound(k: int) -> int:
    """The genus lower bound of one K_{k,k} block (k >= 3), by the Euler formula."""
    e, v = k * k, 2 * k
    return max(1, math.ceil((e - 3 * v + 6) / 6), math.ceil((e - 2 * v + 4) / 4))


# ---------------------------------------------------------------- checks


def _load(data: bytes) -> dict:
    return json.loads(data.decode())


def stable_matching_errors(men: np.ndarray, women: np.ndarray, pairing) -> int:
    """Blocking pairs of a man -> woman pairing, counted with numpy."""
    n = len(pairing)
    require(sorted(pairing) == list(range(n)), "pairing is not a permutation")
    men_pos = np.argsort(men, axis=1)
    women_pos = np.argsort(women, axis=1)
    husband = np.argsort(np.asarray(pairing))
    mine = men_pos[np.arange(n), pairing]
    hers = women_pos[np.arange(n), husband]
    # man m prefers woman w to his match, and w prefers m to hers
    m_wants = men_pos < mine[:, None]
    w_wants = women_pos.T < hers[None, :]
    return int(np.sum(m_wants & w_wants))


def check_solve(market: dict, stable_job: str | None):
    men = np.array(market["men"]["ranks"])
    women = np.array(market["women"]["ranks"])

    def check(data: bytes, outputs: dict):
        out = _load(data)
        male, female = out["male_optimal"], out["female_optimal"]
        for pairing in (male, female):
            require(stable_matching_errors(men, women, pairing) == 0, "solve output is not stable")
        men_pos = np.argsort(men, axis=1)
        rows = np.arange(len(male))
        require(
            bool(np.all(men_pos[rows, male] <= men_pos[rows, female])),
            "male-optimal assignment is worse for some man than female-optimal",
        )
        if stable_job is not None:
            stable = _load(outputs[stable_job])["stable"]
            require(male in stable and female in stable, "solve outputs missing from stable-set")

    return check


def check_stable_set(market: dict):
    men = np.array(market["men"]["ranks"])
    women = np.array(market["women"]["ranks"])

    def check(data: bytes, outputs: dict):
        out = _load(data)
        require(out["count"] == len(out["stable"]) >= 1, "stable-set count is wrong")
        for pairing in out["stable"]:
            require(stable_matching_errors(men, women, pairing) == 0, "enumerated assignment unstable")

    return check


def min_consecutive_ratio(market: dict) -> float:
    """The robustness double minimum, recomputed from the input file."""
    best = math.inf
    for side in (market["men"], market["women"]):
        if side["kind"] == "rank":
            ru = side["rank_utilities"]
            best = min([best] + [ru[i + 1] / ru[i] for i in range(len(ru) - 1)])
            continue
        for entry in side["entries"]:
            for ranks, values in zip(entry["ranks"], entry["values"]):
                best = min([best] + [values[ranks[i + 1]] / values[ranks[i]] for i in range(len(ranks) - 1)])
    return best


def check_robustness(market: dict):
    want = min_consecutive_ratio(market)

    def check(data: bytes, outputs: dict):
        out = _load(data)
        require(out["robustness"] == want, f"robustness {out['robustness']} != ratio minimum {want}")
        require(out["difference"] <= out["tol"], "bisection disagrees with the ratio formula")

    return check


def check_witness(data: bytes, outputs: dict):
    witness = _load(data)["witness"]
    require(witness is not None, "no witness above the robustness level")
    require(witness["side"] in ("men", "women"), "witness side is not a market side")


def check_appendix_a(data: bytes, outputs: dict):
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    require(len(rows) == 1, "appendix-a CSV must have one data row")
    require(rows[0]["preserved_fraction"] == "0", "spike sampler preserved a stable pair")


def check_fraction(data: bytes, outputs: dict):
    value = float(data)
    require(0.0 <= value <= 1.0, "preservation probability outside [0, 1]")


def check_factor_stats(level: float, n: int):
    def check(data: bytes, outputs: dict):
        arrays = np.frombuffer(data, dtype=np.float64).reshape(2, 2 * n, n - 1)
        means, errs = arrays
        require(bool(np.all((means >= 1.0) & (means <= level))), "factor mean outside [1, level]")
        require(bool(np.all(np.isfinite(errs) & (errs >= 0.0))), "bad factor standard error")

    return check


def check_polarity(data: bytes, outputs: dict):
    require(_load(data)["polarized"] is True, "Euclidean-realised utilities reported non-polarized")


def check_genspace(utilities: dict):
    def check(data: bytes, outputs: dict):
        markets, metric = program("markets"), program("metric")
        space, placement = metric.space_from_json_dict(_load(data))
        u = markets.UtilityProfile.from_json_dict(utilities)
        require(placement is not None, "genspace output has no placement")
        require(metric.verify_generating(space, placement, u, 1e-9), "generating space does not round-trip")

    return check


def check_planarity(space: dict, expected_genus: int | None):
    def check(data: bytes, outputs: dict):
        out = _load(data)
        require(out["vertices"] == space["vertices"], "vertex count changed")
        require(out["edges"] == len(space["edges"]), "edge count changed")
        require(out["planar"] == (out["genus_lower_bound"] == 0), "planarity and genus bound disagree")
        if expected_genus is not None:
            require(out["genus_lower_bound"] == expected_genus, "genus bound differs from K_{k,k} formula")

    return check


def check_embed(vertices: int, seed: int, quality: int):
    def check(data: bytes, outputs: dict):
        lines = data.decode().splitlines()
        require(len(lines) == vertices + 2, "embed CSV has the wrong row count")
        width = len(lines[0].split(","))
        for v, line in enumerate(lines[1:-1]):
            cells = line.split(",")
            require(len(cells) == width and cells[0] == str(v), "embed CSV row malformed")
            require(all(math.isfinite(float(c)) for c in cells[1:]), "embed coordinate not finite")
        require(lines[-1] == f"# seed={seed} quality={quality}", "embed trailer malformed")

    return check


def check_distortion(vertices: int):
    def check(data: bytes, outputs: dict):
        out = _load(data)
        require(out["vertices"] == vertices, "distortion vertex count changed")
        require(out["max_expansion"] >= 1.0, "distortion below 1")
        require(out["scale"] > 0.0, "embedding scale not positive")

    return check


def check_banach(data: bytes, outputs: dict):
    out = _load(data)
    require(out["best_value"] is not None and out["best_value"] <= 3.0, "Euclidean cap exceeded or no feasible placement")
    require(0 < out["feasible_restarts"] <= out["restarts"], "feasible restarts out of range")


def check_no_refutation(data: bytes, outputs: dict):
    require(data == b"None", "search found a planar realisation of the nine-agent profile")


# ---------------------------------------------------------------- job lists


class JobList:
    """Collects jobs and writes their input files into ``inputs``."""

    def __init__(self, workload: str, inputs: Path):
        self.workload = workload
        self.inputs = inputs
        self.jobs: list[Job] = []
        self.files = 0

    def _id(self, name: str) -> str:
        return f"{self.workload}/{len(self.jobs):03d}-{name}"

    def file(self, payload: dict) -> str:
        self.files += 1
        return _write(self.inputs / f"in{self.files:03d}.json", payload)

    def cli(self, name: str, args: list, check) -> str:
        job_id = self._id(name)
        self.jobs.append(Job(job_id, name, (name, *map(str, args)), None, check))
        return job_id

    def lib(self, name: str, call, check) -> str:
        job_id = self._id(name)
        self.jobs.append(Job(job_id, name, None, call, check))
        return job_id


def _solve_group(jl: JobList, rng, sizes, identical=()):
    for n in sizes:
        market = ordinal_market(n, rng)
        path = jl.file(market)
        stable = None
        if n <= 7:
            # The stable-set job runs first so solve can be checked against it.
            stable = jl.cli("stable-set", ["--in", path], check_stable_set(market))
        jl.cli("solve", ["--in", path], check_solve(market, stable))
    for n in identical:
        market = ordinal_market(n, rng, identical=True)
        jl.cli("solve", ["--in", jl.file(market)], check_solve(market, None))


def _robustness_group(jl: JobList, markets):
    for market, witness_c in markets:
        path = jl.file(market)
        jl.cli("robustness", ["--in", path, "--tol", ROBUSTNESS_TOL], check_robustness(market))
        if witness_c is not None:
            jl.cli("witness", ["--in", path, "--c", repr(witness_c)], check_witness)


def _montecarlo_group(jl: JobList, rng, spike_runs, iid_runs):
    for n, trials in spike_runs:
        c, eps = 1.5, 0.2
        seed = int(rng.integers(0, 2**31))
        jl.cli(
            "appendix-a",
            ["--n", n, "--c", c, "--eps", eps, "--trials", trials, "--seed", seed],
            check_appendix_a,
        )
    for n, trials in iid_runs:
        level = 1.0 + float(rng.uniform(0.01, 0.5))
        ru = random_rank_utilities(n, rng)
        seed = int(rng.integers(0, 2**31))
        jl.lib("preservation_probability", _preservation_call(n, ru, level, trials, seed), check_fraction)
        jl.lib("rank_slot_factor_stats", _factor_stats_call(n, level, trials, seed), check_factor_stats(level, n))


def _preservation_call(n, ru, level, trials, seed):
    def call() -> bytes:
        markets, robustness = program("markets"), program("robustness")
        market = markets.MatchingMarket(markets.RankBasedProfile(n, ru), markets.RankBasedProfile(n, ru))
        sampler = robustness.IidUniformFactorSampler(n, level)
        return repr(robustness.preservation_probability(market, sampler, trials, seed)).encode()

    return call


def _factor_stats_call(n, level, draws, seed):
    def call() -> bytes:
        robustness = program("robustness")
        sampler = robustness.IidUniformFactorSampler(n, level)
        means, errs = robustness.rank_slot_factor_stats(sampler, draws, seed)
        return np.stack([means, errs]).astype(np.float64).tobytes()

    return call


def _search_planar_call(candidates, seed):
    def call() -> bytes:
        return repr(program("planar").search_planar_representation(candidates, seed)).encode()

    return call


def _geometry_group(jl: JobList, rng, graphs, profiles, unions, quality):
    for vertices, extra in graphs:
        space = connected_graph(vertices, extra, rng)
        path = jl.file(space)
        seed = int(rng.integers(0, 2**31))
        jl.cli("planarity", ["--in", path], check_planarity(space, None))
        jl.cli("embed", ["--in", path, "--quality", quality, "--seed", seed], check_embed(vertices, seed, quality))
        jl.cli("distortion", ["--in", path, "--quality", quality, "--seed", seed], check_distortion(vertices))
    for n, dim in profiles:
        utilities = euclidean_utilities(n, dim, rng)
        path = jl.file(utilities)
        jl.cli("polarity", ["--in", path], check_polarity)
        jl.cli("genspace", ["--in", path], check_genspace(utilities))
    for blocks, k in unions:
        space = bipartite_union(blocks, k, rng)
        jl.cli("planarity", ["--in", jl.file(space)], check_planarity(space, blocks * knn_genus_bound(k)))


def _search_group(jl: JobList, rng, banach, planar_candidates):
    for dim, restarts, iters in banach:
        seed = int(rng.integers(0, 2**31))
        jl.cli(
            "banach-search",
            ["--dim", dim, "--restarts", restarts, "--iters", iters, "--seed", seed],
            check_banach,
        )
    for candidates in planar_candidates:
        seed = int(rng.integers(0, 2**31))
        jl.lib("search_planar_representation", _search_planar_call(candidates, seed), check_no_refutation)


def _extensional_market(rng) -> dict:
    return {"schema": 1, "men": extensional_side(3, rng), "women": extensional_side(3, rng)}


def _rank_market(ru) -> dict:
    return {"schema": 1, "men": rank_side(ru), "women": rank_side(ru)}


def _witness_level(market: dict) -> float:
    return 1.01 * min_consecutive_ratio(market)


def _build_kind(jl: JobList, kind: str, regime: str, rng):
    tiny = regime == "tiny"
    if kind == "solve":
        if tiny:
            _solve_group(jl, rng, [3, 4, 5, 6] * 8 + [7, 7])
        else:
            _solve_group(jl, rng, [7, 200, 300, 400], identical=[200, 300, 400])
    elif kind == "robustness":
        if tiny:
            markets = [_extensional_market(rng) for _ in range(2)]
            markets += [_rank_market(random_rank_utilities(n, rng)) for n in [3, 4, 5, 6, 7, 8] * 4]
        else:
            markets = [_rank_market(geometric_utilities(n, b)) for n, b in ((40, 1.01), (44, 1.5), (44, 2.0))]
        _robustness_group(jl, [(m, _witness_level(m)) for m in markets])
    elif kind == "montecarlo":
        if tiny:
            _montecarlo_group(jl, rng, [(3, 300), (4, 200), (5, 150)], [(3, 150), (4, 100), (5, 80)])
        else:
            _montecarlo_group(jl, rng, [(16, 100), (16, 100), (24, 50), (32, 30), (32, 30)], [(16, 30), (16, 30)])
    elif kind == "geometry":
        if tiny:
            _geometry_group(
                jl, rng,
                graphs=[(v, v // 2) for v in (6, 8, 10, 12, 14, 16, 18, 20)],
                profiles=[(n, 2) for n in (3, 4, 5, 6)] * 2,
                unions=[(2, 3), (3, 3)],
                quality=4,
            )
        else:
            _geometry_group(
                jl, rng,
                graphs=[(256, 256), (512, 512)],
                profiles=[(20, 2), (25, 3)],
                unions=[(64, 3), (96, 3)],
                quality=10,
            )
    elif kind == "search":
        _search_group(jl, rng, [(d, 4, 200) for d in (2, 3, 4, 5)] * 3, [150] * 4)


def build_jobs(workload: str, seed: int, inputs: Path) -> list[Job]:
    """The workload's job list, with every input file written to ``inputs``.

    The host's speed drifts over seconds, so the kinds are interleaved: each
    kind's jobs are spread evenly over the round instead of running in one
    burst that a single slow spell could cover.
    """
    jl = JobList(workload, inputs)
    groups = []
    for index, kind in enumerate(KINDS):
        start = len(jl.jobs)
        _build_kind(jl, kind, WORKLOADS[workload][kind], _rng(seed, index))
        groups.append(jl.jobs[start:])
    spread = [((i + 0.5) / len(group), k, job) for k, group in enumerate(groups) for i, job in enumerate(group)]
    return [job for *_key, job in sorted(spread, key=lambda item: item[:2])]


def minimal_jobs(inputs: Path) -> list[tuple[str, ...]]:
    """One smallest CLI invocation per analysis kind, for set-up probes and warm-up."""
    rng = _rng(0, 99)
    market = inputs / "min_market.json"
    _write(market, ordinal_market(3, rng))
    rank = inputs / "min_rank.json"
    _write(rank, _rank_market(random_rank_utilities(3, rng)))
    space = inputs / "min_space.json"
    _write(space, connected_graph(6, 3, rng))
    return [
        ("solve", "--in", str(market), "--out", str(inputs / "min_solve.out")),
        ("robustness", "--in", str(rank), "--out", str(inputs / "min_rob.out")),
        ("appendix-a", "--n", "3", "--c", "1.5", "--eps", "0.2", "--trials", "5", "--out", str(inputs / "min_mc.out")),
        ("planarity", "--in", str(space), "--out", str(inputs / "min_planar.out")),
        ("distortion", "--in", str(space), "--quality", "2", "--out", str(inputs / "min_dist.out")),
        ("banach-search", "--dim", "2", "--restarts", "1", "--iters", "10", "--out", str(inputs / "min_banach.out")),
    ]
