"""Command-line interface: one executable, one subcommand per analysis.

Exit codes follow the sysexits convention: 0 success, 2 parameter
validation errors and unwritable output paths, 64 unknown subcommand /
usage, 65 malformed input file.
All stochastic subcommands take a --seed (default 1729) and identical
invocations produce byte-identical outputs. File schemas are documented in
docs/formats.md and carry a top-level "schema": 1 field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import communication as comm
from . import embedding as emb
from .markets import (
    ExtensionalProfile,
    MarketProfile,
    MatchingMarket,
    RankBasedProfile,
    UtilityProfile,
    geometric_market,
)
from .jsonvalues import json_int, json_number
from .metric import (
    build_generating_space,
    is_polarized,
    space_from_json_dict,
    space_to_json_dict,
)
from .ordinal import OrdinalProfile, enumerate_stable, phi
from .planar import genus_lower_bound
from .robustness import (
    CriticalSpikeSampler,
    DivisionByZeroUtility,
    adversarial_witness,
    preservation_probability,
    robustness,
    robustness_by_search,
)
from .seeding import DEFAULT_SEED

EX_OK = 0
EX_VALIDATION = 2
EX_USAGE = 64
EX_DATAERR = 65

#: What converting a parsed JSON document or config file into library
#: objects raises when it is malformed; ``float()`` of an integer beyond the
#: double range, such as ``1`` followed by 400 zeros, raises OverflowError.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems should not SystemExit(2)
        raise CliError(EX_USAGE, message)


def _fail_data(message: str):
    raise CliError(EX_DATAERR, message)


def _fail_validation(message: str):
    raise CliError(EX_VALIDATION, message)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        _fail_data(f"{path}: {exc}")


def _write_text(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        _fail_validation(f"{path}: {exc.strerror or exc}")


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail_data(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        _fail_data(f"{path}: JSON nested too deeply")
    if not isinstance(data, dict):
        _fail_data(f"{path}: top level must be a JSON object")
    return data


def _json_value(value):
    """``value`` with every infinite float, at any depth, written as the
    string "inf" or "-inf"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def _json_text(payload: dict) -> str:
    """Indented JSON with sorted keys; a NaN anywhere raises ValueError."""
    return json.dumps(_json_value(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def _parse(path: str, what: str, parse, data):
    """``parse(data)``, with a malformed document reported as exit 65."""
    try:
        return parse(data)
    except _MALFORMED as exc:
        _fail_data(f"{path}: bad {what}: {exc}")


def _load_sides(path: str, what: str, parse_side):
    """The file's "men" and "women" documents, each read by ``parse_side``."""
    data = _load_json(path)
    for key in ("men", "women"):
        if key not in data:
            _fail_data(f"{path}: missing '{key}' {what}")
    men = _parse(path, what, parse_side, data["men"])
    women = _parse(path, what, parse_side, data["women"])
    if men.n != women.n:
        _fail_data(f"{path}: sides disagree on n")
    return men, women


def _market_profile(data: dict) -> MarketProfile:
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "rank":
        rank_utilities = [json_number(v, "rank utility") for v in data["rank_utilities"]]
        return RankBasedProfile(json_int(data["n"], "n"), rank_utilities)
    if kind == "extensional":
        table = {}
        for entry in data["entries"]:
            r = OrdinalProfile.from_json_dict({"n": data["n"], "ranks": entry["ranks"]})
            u = UtilityProfile.from_json_dict({"n": data["n"], "values": entry["values"]})
            if r in table:
                raise ValueError(f"two entries for ranks {[list(row) for row in r.ranks]}")
            table[r] = u
        return ExtensionalProfile(json_int(data["n"], "n"), table)
    raise ValueError("kind must be 'rank' or 'extensional'")


def _load_market(args) -> MatchingMarket:
    if getattr(args, "geometric_base", None) is not None:
        if args.n is None:
            _fail_validation("--geometric-base requires --n")
        return geometric_market(args.n, args.geometric_base)
    if not getattr(args, "infile", None):
        _fail_validation("provide --in FILE or --geometric-base with --n")
    return MatchingMarket(*_load_sides(args.infile, "market profile", _market_profile))


def _load(path: str, what: str, parse):
    return _parse(path, what, parse, _load_json(path))


def _assignment_json(a) -> list[int]:
    return list(a.pairing)


def _cmd_solve(args) -> str:
    men, women = _load_sides(args.infile, "ordinal profile", OrdinalProfile.from_json_dict)
    pair = phi(men, women)
    payload = {
        "schema": 1,
        "male_optimal": _assignment_json(pair.male_optimal),
        "female_optimal": _assignment_json(pair.female_optimal),
    }
    if args.format == "text":
        lines = [
            "male-optimal:   " + " ".join(f"{m}->{w}" for m, w in enumerate(pair.male_optimal.pairing)),
            "female-optimal: " + " ".join(f"{m}->{w}" for m, w in enumerate(pair.female_optimal.pairing)),
        ]
        return "\n".join(lines) + "\n"
    return _json_text(payload)


def _cmd_stable_set(args) -> str:
    men, women = _load_sides(args.infile, "ordinal profile", OrdinalProfile.from_json_dict)
    stable = sorted(enumerate_stable(men, women), key=lambda a: a.pairing)
    payload = {"schema": 1, "count": len(stable), "stable": [_assignment_json(a) for a in stable]}
    return _json_text(payload)


def _cmd_robustness(args) -> str:
    market = _load_market(args)
    try:
        xi = robustness(market)
    except DivisionByZeroUtility as exc:
        _fail_validation(str(exc))
    cross = robustness_by_search(market, tol=args.tol)
    payload = {
        "schema": 1,
        "n": market.n,
        "robustness": xi,
        "bisection": cross,
        "difference": abs(xi - cross) if math.isfinite(xi) and math.isfinite(cross) else 0.0,
        "tol": args.tol,
    }
    return _json_text(payload)


def _cmd_witness(args) -> str:
    market = _load_market(args)
    witness = adversarial_witness(market, args.c)
    if witness is None:
        payload = {"schema": 1, "c": args.c, "witness": None}
    else:
        payload = {
            "schema": 1,
            "c": args.c,
            "witness": {
                "side": witness.side,
                "profile": witness.profile.to_json_dict(),
                "perturbation": witness.perturbation.to_json_dict(),
                "perturbed_profile": witness.perturbed_profile.to_json_dict(),
                "distinguishing": witness.distinguishing.to_json_dict(),
                "tie_created": witness.tie_created,
            },
        }
    return _json_text(payload)


def _cmd_appendix_a(args) -> str:
    sampler = CriticalSpikeSampler(args.n, args.c, args.eps)
    fraction = preservation_probability(sampler.market, sampler, args.trials, args.seed)
    lines = [
        "n,c,eps,trials,preserved_fraction,seed",
        f"{args.n},{args.c:.10g},{args.eps:.10g},{args.trials},{fraction:.10g},{args.seed}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_polarity(args) -> str:
    u = _load(args.infile, "utility profile", UtilityProfile.from_json_dict)
    check = is_polarized(u)
    payload = {"schema": 1, "polarized": check.ok}
    if not check.ok:
        a, ap, x, xp = check.violation
        payload["violation"] = {"a": a, "a_prime": ap, "x": x, "x_prime": xp}
    return _json_text(payload)


def _cmd_genspace(args) -> str:
    u = _load(args.infile, "utility profile", UtilityProfile.from_json_dict)
    space, placement = build_generating_space(u)
    if args.dot:
        _write_text(args.dot, space.to_dot())
    return _json_text(space_to_json_dict(space, placement))


def _cmd_planarity(args) -> str:
    space, _placement = _load(args.infile, "metric space", space_from_json_dict)
    bound = genus_lower_bound(space)  # each nonplanar component adds at least 1
    payload = {
        "schema": 1,
        "vertices": space.n_vertices,
        "edges": len(space.edges),
        "planar": bound == 0,
        "genus_lower_bound": bound,
    }
    return _json_text(payload)


def _cmd_embed(args) -> str:
    space, _placement = _load(args.infile, "metric space", space_from_json_dict)
    placement = emb.bourgain_embed(space, quality=args.quality, seed=args.seed)
    lines = ["vertex," + ",".join(f"c{i}" for i in range(placement.dim))]
    row_format = "%d" + ",%.10g" * placement.dim
    for v in range(space.n_vertices):
        lines.append(row_format % (v, *placement.points[v].tolist()))
    lines.append(f"# seed={args.seed} quality={args.quality}")
    return "\n".join(lines) + "\n"


def _cmd_distortion(args) -> str:
    space, _placement = _load(args.infile, "metric space", space_from_json_dict)
    placement = emb.bourgain_embed(space, quality=args.quality, seed=args.seed)
    report = emb.measure_distortion(space, placement)
    payload = {
        "schema": 1,
        "vertices": space.n_vertices,
        "dim": placement.dim,
        "max_expansion": report.max_expansion,
        "max_contraction": report.max_contraction,
        "scale": report.scale,
        "quality": args.quality,
        "seed": args.seed,
    }
    return _json_text(payload)


def _cmd_banach_search(args) -> str:
    result = emb.maximize_euclidean_robustness(args.dim, args.restarts, args.iters, args.seed)
    payload = {
        "schema": 1,
        "dim": args.dim,
        "restarts": args.restarts,
        "iters": args.iters,
        "seed": args.seed,
        "feasible_restarts": result.feasible_restarts,
        "best_value": result.best_value if math.isfinite(result.best_value) else None,
        "alpha": [list(p) for p in result.alpha] if result.alpha else None,
        "beta": [list(p) for p in result.beta] if result.beta else None,
    }
    return _json_text(payload)


def _functions_from_args(args):
    if args.config:
        sections = _parse(args.config, "config", comm.parse_config, _read_text(args.config))
        return _parse(args.config, "config", comm.functions_from_config, sections)
    h = comm.HardnessFunction(args.hardness, args.hardness_scale, args.hardness_exponent)
    d = comm.DecayFunction(args.decay, args.decay_scale, args.decay_exponent)
    return h, d, comm.BoundConstants()


def _cmd_commreq(args) -> str:
    h, d, _constants = _functions_from_args(args)
    if not args.xi >= 1.0:  # with --xi-infinite the library never sees --xi
        _fail_validation("--xi must be >= 1")
    xi = math.inf if args.xi_infinite else args.xi
    t = comm.communication_requirement(xi, h, d, args.n)
    payload = {
        "schema": 1,
        "n": args.n,
        "xi": xi,
        "hardness": {"family": h.family, "scale": h.scale, "exponent": h.exponent},
        "decay": {"family": d.family, "scale": d.scale, "exponent": d.exponent},
        "requirement": t,
    }
    return _json_text(payload)


def _cmd_bound_table(args) -> str:
    h, d, constants = _functions_from_args(args)
    table = comm.bound_table(args.n, args.space_size, args.genus, h, d, constants)
    return table.to_csv() if args.format == "csv" else table.to_text()


def _add_common(p, seed=False):
    p.add_argument("--out", help="output path (default: stdout)")
    if seed:
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit seed (default 1729)")


def _add_market_inputs(p):
    p.add_argument("--in", dest="infile", help="matching-market JSON (see docs/formats.md)")
    p.add_argument("--n", type=int, help="market size for --geometric-base")
    p.add_argument("--geometric-base", type=float, help="build a geometric rank market instead of reading a file")


def _add_function_flags(p):
    p.add_argument("--config", help="key-value config file with [hardness]/[decay]/[constants] sections")
    p.add_argument("--hardness", default="constant", choices=comm.HARDNESS_FAMILIES)
    p.add_argument("--hardness-scale", type=float, default=1.0)
    p.add_argument("--hardness-exponent", type=float, default=1.0)
    p.add_argument("--decay", default="linear", choices=comm.DECAY_FAMILIES)
    p.add_argument("--decay-scale", type=float, default=1.0)
    p.add_argument("--decay-exponent", type=float, default=1.0)


def build_parser() -> _Parser:
    parser = _Parser(prog="matchrobust", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, help):
        return sub.add_parser(name, help=help, description=help)

    p = add("solve", help="deferred-acceptance operator: both optimal stable assignments")
    p.add_argument("--in", dest="infile", required=True, help="ordinal market JSON")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = add("stable-set", help="brute-force enumeration of all stable assignments")
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_stable_set)

    p = add("robustness", help="ratio-minimum robustness with bisection cross-check")
    _add_market_inputs(p)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)
    p.set_defaults(func=_cmd_robustness)

    p = add("witness", help="single-entry perturbation that provably changes a stable pair")
    _add_market_inputs(p)
    p.add_argument("--c", type=float, required=True, help="perturbation level")
    _add_common(p)
    p.set_defaults(func=_cmd_witness)

    p = add("appendix-a", help="critical market + spike sampler Monte Carlo (preservation fraction)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_appendix_a)

    p = add("polarity", help="check the polarity inequality over all quadruples")
    p.add_argument("--in", dest="infile", required=True, help="utility profile JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_polarity)

    p = add("genspace", help="bipartite generating metric space of a polarized profile")
    p.add_argument("--in", dest="infile", required=True, help="utility profile JSON")
    p.add_argument("--dot", help="also write DOT text here")
    _add_common(p)
    p.set_defaults(func=_cmd_genspace)

    p = add("planarity", help="planarity and Euler genus lower bound of a space")
    p.add_argument("--in", dest="infile", required=True, help="metric space JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_planarity)

    p = add("embed", help="distance-to-subset Euclidean embedding (CSV placement)")
    p.add_argument("--in", dest="infile", required=True, help="metric space JSON")
    p.add_argument("--quality", type=int, default=10)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_embed)

    p = add("distortion", help="embed and report normalized distortion")
    p.add_argument("--in", dest="infile", required=True, help="metric space JSON")
    p.add_argument("--quality", type=int, default=10)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_distortion)

    p = add("banach-search", help="multistart search for the Euclidean robustness cap (<= 3)")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--iters", type=int, default=200)
    _add_common(p, seed=True)
    p.set_defaults(func=_cmd_banach_search)

    p = add("commreq", help="communication requirement T = D^-1(H(n)/xi)")
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--xi-infinite", action="store_true", help="use the infinite-robustness sentinel")
    p.add_argument("--n", type=int, required=True)
    _add_function_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_commreq)

    p = add("bound-table", help="communication lower bounds by |X|, genus, and n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space-size", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    _add_function_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_bound_table)

    return parser


#: Built once per process; parsing leaves the parser unchanged.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if not getattr(args, "command", None):
            _PARSER.print_usage(sys.stderr)
            return EX_USAGE
        text = args.func(args)
        if args.out:
            _write_text(args.out, text)
        else:
            sys.stdout.write(text)
        return EX_OK
    except CliError as exc:
        sys.stderr.write(f"error: {exc.code}: {exc}\n")
        return exc.code
    except ValueError as exc:
        sys.stderr.write(f"error: {EX_VALIDATION}: {exc}\n")
        return EX_VALIDATION


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
