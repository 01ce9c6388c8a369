"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion checks the
library against an independent route (brute force, definitions, closed
forms, or cross-implementation comparison) at the stated tolerances.
"""

import itertools
import json
import math
import time

import numpy as np

from matchrobust import (
    CriticalSpikeSampler,
    DecayFunction,
    HardnessFunction,
    NotPolarized,
    Placement,
    UtilityProfile,
    admissibility_report,
    adversarial_witness,
    bound_table,
    bourgain_embed,
    build_generating_space,
    communication_requirement,
    decay_inverse,
    enumerate_stable,
    geometric_market,
    is_planar,
    is_polarized,
    nonplanar_profile,
    maximize_euclidean_robustness,
    measure_distortion,
    ordinal_from_utility_flagged,
    phi,
    preservation_probability,
    random_connected_space,
    rank_slot_factor_stats,
    robustness,
    robustness_by_search,
    search_planar_representation,
    sufficient_robustness_level,
    union_generating_space,
    utilities_from_space,
    verify_generating,
)
from matchrobust.cli import main as cli_main
from matchrobust.seeding import rng_for

from conftest import (
    all_profiles,
    band_utup,
    planar_by_kuratowski,
    random_extensional_market,
    random_nonpolarized,
    random_profile,
    support_space,
    witness_pairs,
)

# Frozen by scripts/calibrate_distortion.py on a held-out set of graphs and
# seeds (worst observed max_expansion / ln|X| was 1.37; p95 was 1.24).
DISTORTION_CONSTANT = 2.0


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_deferred_acceptance_correctness():
    t0 = time.time()
    failures = 0
    cases = 10_000
    for t in range(cases):
        rng = rng_for(101, t)
        n = int(rng.integers(2, 5))
        men, women = random_profile(n, rng), random_profile(n, rng)
        pair = phi(men, women)
        stable = enumerate_stable(men, women)
        if pair.male_optimal not in stable or pair.female_optimal not in stable:
            failures += 1
            continue
        mo = pair.male_optimal.pairing
        for other in stable:
            if any(
                men.ranks[m].index(mo[m]) > men.ranks[m].index(other.pairing[m])
                for m in range(n)
            ):
                failures += 1
                break
    elapsed = time.time() - t0
    _report(1, "deferred acceptance vs brute force", failures == 0 and elapsed < 60,
            f"({cases} instances, {failures} failures, {elapsed:.1f}s)")


def test_criterion_02_ratio_condition_equivalence():
    t0 = time.time()
    markets = 100
    mismatches = 0
    swept = 0
    for k in range(markets):
        rng = rng_for(202, k)
        market = random_extensional_market(3, rng)
        # Critical ratios: every consecutive utility ratio of the market.
        ratios = []
        for side in (market.men, market.women):
            for r in side.table_profiles:
                u = side.utilities(r)
                for a in range(3):
                    row = u.values[a]
                    ranks = r.ranks[a]
                    for i in range(2):
                        ratios.append(row[ranks[i + 1]] / row[ranks[i]])
        ratios.sort()
        # Stratified sweep: always the global threshold, plus a seeded sample
        # of other critical ratios, each probed just below and just above.
        picks = {ratios[0], ratios[-1]}
        picks.update(ratios[int(i)] for i in rng.integers(0, len(ratios), size=10))
        xi = robustness(market)
        for ratio in sorted(picks):
            for c in (ratio - 0.01, ratio + 0.01):
                if c < 1.0:
                    continue
                swept += 1
                robust = c < xi
                witness = adversarial_witness(market, c)
                if robust != (witness is None):
                    mismatches += 1
                if witness is not None:
                    before, after = witness_pairs(witness)
                    if before == after:
                        mismatches += 1
    elapsed = time.time() - t0
    _report(2, "robustness condition matches witness search", mismatches == 0 and elapsed < 300,
            f"({markets} markets, {swept} swept levels, {mismatches} mismatches, {elapsed:.1f}s)")


def test_criterion_03_formula_vs_bisection():
    t0 = time.time()
    worst = 0.0
    for k in range(100):
        rng = rng_for(303, k)
        market = random_extensional_market(3, rng)
        xi = robustness(market)
        got = robustness_by_search(market, tol=1e-5)
        worst = max(worst, abs(got - xi))
    exact = all(robustness(geometric_market(3, b)) == b for b in (2.0, 3.0))
    elapsed = time.time() - t0
    _report(3, "ratio formula vs bisection oracle", worst <= 1e-4 and exact and elapsed < 300,
            f"(100 markets, worst gap {worst:.2e}, geometric exact={exact}, {elapsed:.1f}s)")


def test_criterion_04_critical_market_reproduction():
    t0 = time.time()
    n, c, eps = 3, 1.5, 0.2
    sampler = CriticalSpikeSampler(n, c, eps)
    market = sampler.market

    level = sufficient_robustness_level(n, c)
    part_a = adversarial_witness(market, level - 1e-9) is None

    fraction = preservation_probability(market, sampler, trials=10_000, seed=404)
    part_b = fraction == 0.0

    means, errs = rank_slot_factor_stats(sampler, draws=100_000, seed=405)
    target = (1 + eps) * c  # 1.8
    part_c = all(
        abs(means[a, i] - target) <= 3 * errs[a, i]
        for a in range(2 * n)
        for i in range(n - 1)
    )
    elapsed = time.time() - t0
    _report(4, "critical market: robust level, kill law, factor means",
            part_a and part_b and part_c and elapsed < 120,
            f"(robust@{level}-1e-9={part_a}, preserved={fraction}, "
            f"means within 3se={part_c}, {elapsed:.1f}s)")


def test_criterion_05_generating_space_equivalence():
    t0 = time.time()
    failures = 0
    for k in range(500):
        rng = rng_for(505, k)
        if k % 2 == 0:
            u = band_utup(3, rng)
        else:
            u = random_nonpolarized(3, rng)
        polarized = bool(is_polarized(u))
        try:
            space, placement = build_generating_space(u)
            built = True
        except NotPolarized:
            built = False
        if built != polarized:
            failures += 1
            continue
        if built:
            if not verify_generating(space, placement, u, tol=1e-9):
                failures += 1
                continue
            if not is_polarized(utilities_from_space(space, placement, 3)):
                failures += 1

    # Induced utilities of arbitrary placements are always polarized.
    for k in range(100):
        rng = rng_for(506, k)
        space = random_connected_space(int(rng.integers(3, 9)), int(rng.integers(0, 6)), rng)
        placement = Placement(
            tuple(int(rng.integers(0, space.n_vertices)) for _ in range(3)),
            tuple(int(rng.integers(0, space.n_vertices)) for _ in range(3)),
        )
        if not is_polarized(utilities_from_space(space, placement, 3)):
            failures += 1

    market = geometric_market(2, 2.0)
    space, placements = union_generating_space(
        [market.men.utilities(r) for r in all_profiles(2)]
    )
    union_ok = space.n_vertices == 16 and len(placements) == 4
    elapsed = time.time() - t0
    _report(5, "polarity iff generating space; union size 2n(n!)^n",
            failures == 0 and union_ok and elapsed < 60,
            f"(500 profiles + 100 placements, {failures} failures, union 16={union_ok}, {elapsed:.1f}s)")


def test_criterion_06_euclidean_cap():
    t0 = time.time()
    cap = 3.0 + 1e-6
    results = {}
    ok = True
    for dim in (1, 2, 3, 4, 5):
        res = maximize_euclidean_robustness(dim, restarts=1000, iters=500, seed=606)
        results[dim] = res.best_value
        if res.best_value > cap:
            ok = False
        if dim >= 2 and not res.best_value >= 1.0:
            ok = False
    elapsed = time.time() - t0
    best = {d: (f"{v:.4f}" if math.isfinite(v) else "none") for d, v in results.items()}
    _report(6, "Euclidean placement search stays below 3", ok and elapsed < 600,
            f"(best per dim {best}, {elapsed:.1f}s)")


def test_criterion_07_embedding_distortion():
    t0 = time.time()
    runs = 0
    over_bound = 0
    scale_exact = True
    for size in (8, 16, 32, 64):
        bound = DISTORTION_CONSTANT * math.log(size)
        for g in range(5):
            rng = rng_for(7777, size, g)
            space = random_connected_space(size, int(rng.integers(0, 2 * size)), rng)
            for s in range(4):
                placement = bourgain_embed(space, quality=10, seed=s)
                report = measure_distortion(space, placement)
                runs += 1
                if report.max_expansion > bound:
                    over_bound += 1
                # After dividing by scale the smallest ratio is exactly 1.
                if report.scale / report.scale != 1.0 or report.max_expansion < 1.0:
                    scale_exact = False
    elapsed = time.time() - t0
    ok = over_bound <= math.floor(0.05 * runs) and scale_exact and elapsed < 300
    _report(7, "embedding distortion within frozen constant", ok,
            f"({runs} runs, {over_bound} over {DISTORTION_CONSTANT}*ln|X|, {elapsed:.1f}s)")


def test_criterion_08_ratio_transfer_mechanism():
    t0 = time.time()
    failures = 0
    for k in range(50):
        rng = rng_for(808, k)
        u = band_utup(3, rng)
        space, placement = build_generating_space(u)
        embedded = bourgain_embed(space, quality=10, seed=k)
        report = measure_distortion(space, embedded)
        pts = embedded.points
        order = ordinal_from_utility_flagged(u)[0]
        for a in range(3):
            for i in range(3):
                for j in range(i + 1, 3):
                    x, xp = order.ranks[a][i], order.ranks[a][j]
                    ratio_u = u.values[a][xp] / u.values[a][x]
                    e_x = float(np.linalg.norm(pts[placement.alpha[a]] - pts[placement.beta[x]]))
                    e_xp = float(np.linalg.norm(pts[placement.alpha[a]] - pts[placement.beta[xp]]))
                    ratio_e = e_xp / e_x
                    if ratio_u > report.max_expansion * ratio_e * (1 + 1e-9):
                        failures += 1
    elapsed = time.time() - t0
    _report(8, "utility ratios bounded by distortion times embedded ratios",
            failures == 0 and elapsed < 120,
            f"(50 profiles, every comparable pair, {failures} failures, {elapsed:.1f}s)")


def _connected(v, edges):
    if v == 1:
        return True
    adj = {i: [] for i in range(v)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == v


def test_criterion_09_planarity_and_nine_agent_profile():
    t0 = time.time()
    mismatches = 0
    graphs = 0
    # Exhaustive: every labeled connected graph on up to 6 vertices.
    for v in range(1, 7):
        pairs = list(itertools.combinations(range(v), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not _connected(v, edges):
                continue
            graphs += 1
            if is_planar(support_space((v, edges))) != planar_by_kuratowski(v, edges):
                mismatches += 1
    # 200 random 7-vertex graphs.
    for k in range(200):
        rng = rng_for(909, k)
        pairs = list(itertools.combinations(range(7), 2))
        keep = rng.random(len(pairs)) < rng.uniform(0.2, 0.8)
        edges = [p for p, kp in zip(pairs, keep) if kp]
        graphs += 1
        if is_planar(support_space((7, edges))) != planar_by_kuratowski(7, edges):
            mismatches += 1

    profile = nonplanar_profile(9)
    cells_ok = (
        [profile.ranks[a][0] for a in range(9)] == list(range(9))
        and [profile.ranks[a][1] for a in range(9)] == [3, 4, 5, 1, 2, 0, 3, 4, 5]
        and [profile.ranks[a][2] for a in (6, 7, 8)] == [2, 0, 1]
    )

    values = [[0.0] * 9 for _ in range(9)]
    for a in range(9):
        for pos, x in enumerate(profile.ranks[a]):
            values[a][x] = -(1.0 + 0.05 * pos)
    space, _pl = build_generating_space(UtilityProfile(9, tuple(tuple(r) for r in values)))
    biclique_nonplanar = not is_planar(space)

    refutation = search_planar_representation(candidates=10_000, seed=910)
    elapsed = time.time() - t0
    ok = (
        mismatches == 0
        and cells_ok
        and biclique_nonplanar
        and refutation is None
        and elapsed < 600
    )
    _report(9, "planarity vs subdivision search; nine-agent profile nonplanar", ok,
            f"({graphs} graphs, {mismatches} mismatches, cells={cells_ok}, "
            f"biclique nonplanar={biclique_nonplanar}, refutation found={refutation is not None}, "
            f"{elapsed:.1f}s)")


def test_criterion_10_communication_calculus():
    t0 = time.time()
    failures = []

    # Inversion round trips within 1e-9 relative across families and grids.
    for family in ("linear", "power", "logarithmic", "exponential"):
        for scale in (0.5, 1.0, 3.0):
            for exponent in (0.5, 1.0, 2.0):
                d = DecayFunction(family, scale, exponent)
                for y in (0.75, 2.0, 17.0, 400.0):
                    t = decay_inverse(d, y)
                    if y <= d.infimum() or math.isinf(t):
                        continue
                    if abs(d.value(t) - y) > 1e-9 * y:
                        failures.append(f"round trip {family} {scale} {exponent} {y}")

    # Closed forms on linear/power families.
    h_lin = HardnessFunction("polynomial", exponent=1.0)
    if communication_requirement(2.0, h_lin, DecayFunction("linear"), 10) != 5.0:
        failures.append("linear closed form")
    got = communication_requirement(2.0, h_lin, DecayFunction("power", exponent=2.0), 8)
    if not math.isclose(got, 2.0):  # sqrt(8/2)
        failures.append("power closed form")

    # Trend classifications.
    euclid = admissibility_report(
        [(n, 3.0) for n in (4, 8, 16, 32, 64, 128)],
        HardnessFunction("log"),
        DecayFunction("linear"),
    )
    if euclid.classification != "growing":
        failures.append("euclidean sequence should grow")
    matched = admissibility_report(
        [(n, 0.9 * n * n * math.log1p(n)) for n in (4, 8, 16, 32, 64, 128)],
        HardnessFunction("quadratic_log"),
        DecayFunction("linear"),
    )
    if matched.classification != "bounded":
        failures.append("matched sequence should stay bounded")

    # Bound-table structure: probabilistic genus cell drops the n^2 factor.
    table = bound_table(4, 100, 3, HardnessFunction("log"), DecayFunction("linear"))
    h4 = HardnessFunction("log").value(4)
    if not math.isclose(table.deterministic[1], h4 / (16 * math.log(4))):
        failures.append("deterministic genus cell")
    if not math.isclose(table.probabilistic[1], h4 / math.log(4)):
        failures.append("probabilistic genus cell")
    if table.deterministic[0] != table.probabilistic[0]:
        failures.append("size column must match between rows")
    elapsed = time.time() - t0
    _report(10, "communication calculus closed forms and trends",
            not failures and elapsed < 60, f"({failures or 'all checks passed'}, {elapsed:.1f}s)")


def test_criterion_11_cli_reproducibility(tmp_path):
    t0 = time.time()
    market = {
        "schema": 1,
        "men": {"n": 3, "ranks": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "women": {"n": 3, "ranks": [[1, 2, 0], [2, 0, 1], [0, 1, 2]]},
    }
    (tmp_path / "market.json").write_text(json.dumps(market))
    rank_market = {
        "schema": 1,
        "men": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
        "women": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
    }
    (tmp_path / "rank.json").write_text(json.dumps(rank_market))
    (tmp_path / "utilities.json").write_text(
        json.dumps({"schema": 1, "n": 2, "values": [[-1.0, -1.5], [-1.6, -1.1]]})
    )
    (tmp_path / "space.json").write_text(
        json.dumps({
            "schema": 1,
            "vertices": 6,
            "edges": [[i, (i + 1) % 6, 1.0] for i in range(6)] + [[0, 3, 1.0]],
        })
    )
    invocations = [
        ["solve", "--in", str(tmp_path / "market.json")],
        ["stable-set", "--in", str(tmp_path / "market.json")],
        ["robustness", "--in", str(tmp_path / "rank.json")],
        ["witness", "--in", str(tmp_path / "rank.json"), "--c", "2.5"],
        ["appendix-a", "--n", "3", "--c", "1.5", "--eps", "0.2", "--trials", "200", "--seed", "11"],
        ["polarity", "--in", str(tmp_path / "utilities.json")],
        ["genspace", "--in", str(tmp_path / "utilities.json")],
        ["planarity", "--in", str(tmp_path / "space.json")],
        ["embed", "--in", str(tmp_path / "space.json"), "--quality", "3", "--seed", "5"],
        ["distortion", "--in", str(tmp_path / "space.json"), "--quality", "3", "--seed", "5"],
        ["banach-search", "--dim", "2", "--restarts", "10", "--iters", "60", "--seed", "3"],
        ["commreq", "--xi", "2.0", "--n", "10"],
        ["bound-table", "--n", "4", "--space-size", "64", "--genus", "2"],
    ]
    diffs = []
    for argv in invocations:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        code1 = cli_main(argv + ["--out", str(a)])
        code2 = cli_main(argv + ["--out", str(b)])
        if code1 != 0 or code2 != 0 or a.read_bytes() != b.read_bytes():
            diffs.append(argv[0])
    elapsed = time.time() - t0
    _report(11, "identical argv and seed give byte-identical outputs",
            not diffs, f"({len(invocations)} subcommands, diffs={diffs or 'none'}, {elapsed:.1f}s)")
