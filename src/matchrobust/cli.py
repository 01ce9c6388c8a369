"""Command-line interface: one executable, one subcommand per analysis.

Exit codes follow the sysexits convention: 0 success, 2 parameter
validation errors and unwritable output paths, 64 unknown subcommand /
usage, 65 malformed input file.
All stochastic subcommands take a --seed (default 1729) and identical
invocations produce byte-identical outputs. File schemas are documented in
docs/formats.md and carry a top-level "schema": 1 field.

Handlers return CSV or text as a string and a JSON payload as a dict without
"schema"; ``main`` alone writes output and adds "schema": 1 to every JSON
payload. ``--help`` shows the paragraphs above this one.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
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
from .jsonvalues import json_array, json_field, json_int, json_number, json_object
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


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EX_DATAERR, f"{path}: {exc}")


def _write_text(path: str, text: str):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(EX_VALIDATION, f"{path}: {exc.strerror or exc}")


def _load_json(path: str) -> dict:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EX_DATAERR, f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        raise CliError(EX_DATAERR, f"{path}: JSON nested too deeply")
    if not isinstance(data, dict):
        raise CliError(EX_DATAERR, f"{path}: top level must be a JSON object")
    return data


_encode_str = json.encoder.encode_basestring_ascii


def _json_lines(value, newline: str) -> str:
    """``value`` as JSON whose nested lines start with ``newline``. A list
    of exact ints or of finite exact floats is written in one join."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'  # "inf" or "-inf"
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            items = map(int.__repr__, value)
        elif types == {float} and -math.inf < sum(value) < math.inf:
            items = map(float.__repr__, value)
        else:
            items = [_json_lines(v, inner) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_encode_str(k)}: {_json_lines(v, inner)}" for k, v in sorted(value.items())]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(payload: dict) -> str:
    """Indented JSON with sorted string keys, ASCII only, every infinite
    float at any depth written as the string "inf" or "-inf"; a NaN
    anywhere raises ValueError. The bytes are those ``json.dumps(...,
    indent=2, sort_keys=True, allow_nan=False)`` writes once the infinities
    are replaced, with tuples written as lists, and a final newline."""
    return _json_lines(payload, "\n") + "\n"


def _parse(path: str, what: str, parse, data):
    """``parse(data)``, with a malformed document reported as exit 65."""
    try:
        return parse(data)
    except _MALFORMED as exc:
        raise CliError(EX_DATAERR, f"{path}: bad {what}: {exc}")


def _load_sides(path: str, what: str, parse_side):
    """The file's "men" and "women" documents, each read by ``parse_side``."""
    data = _load_json(path)
    for key in ("men", "women"):
        if key not in data:
            raise CliError(EX_DATAERR, f"{path}: missing '{key}' {what}")

    def side(key: str):
        return parse_side(json_object(data[key], key))

    men, women = _parse(path, what, side, "men"), _parse(path, what, side, "women")
    if men.n != women.n:
        raise CliError(EX_DATAERR, f"{path}: sides disagree on n")
    return men, women


def _market_profile(data: dict) -> MarketProfile:
    kind = data.get("kind")
    if kind == "rank":
        values = json_array(json_field(data, "rank_utilities"), "rank_utilities")
        rank_utilities = [json_number(v, "rank utility") for v in values]
        return RankBasedProfile(json_int(json_field(data, "n"), "n"), rank_utilities)
    if kind == "extensional":
        return ExtensionalProfile.from_json_dict(data)
    raise ValueError("kind must be 'rank' or 'extensional'")


def _load_market(args) -> MatchingMarket:
    if args.infile is None:
        if args.n is None:
            raise CliError(EX_USAGE, "argument --geometric-base: requires --n")
        return geometric_market(args.n, args.geometric_base)
    if args.n is not None:
        raise CliError(EX_USAGE, "argument --n: not allowed with argument --in")
    return MatchingMarket(*_load_sides(args.infile, "market profile", _market_profile))


def _load(path: str, what: str, parse):
    return _parse(path, what, parse, _load_json(path))


def _cmd_solve(args) -> dict | str:
    men, women = _load_sides(args.infile, "ordinal profile", OrdinalProfile.from_json_dict)
    pair = phi(men, women)
    if args.format == "text":
        lines = [
            "male-optimal:   " + " ".join(f"{m}->{w}" for m, w in enumerate(pair.male_optimal.pairing)),
            "female-optimal: " + " ".join(f"{m}->{w}" for m, w in enumerate(pair.female_optimal.pairing)),
        ]
        return "\n".join(lines) + "\n"
    return {
        "male_optimal": pair.male_optimal.pairing,
        "female_optimal": pair.female_optimal.pairing,
    }


def _cmd_stable_set(args) -> dict:
    men, women = _load_sides(args.infile, "ordinal profile", OrdinalProfile.from_json_dict)
    stable = sorted(enumerate_stable(men, women), key=lambda a: a.pairing)
    return {"count": len(stable), "stable": [a.pairing for a in stable]}


def _cmd_robustness(args) -> dict:
    market = _load_market(args)
    xi = robustness(market)
    cross = robustness_by_search(market, tol=args.tol)
    return {
        "n": market.n,
        "robustness": xi,
        "bisection": cross,
        "difference": 0.0 if xi == cross else abs(xi - cross),
        "tol": args.tol,
    }


def _cmd_witness(args) -> dict:
    witness = adversarial_witness(_load_market(args), args.c)
    if witness is None:
        return {"c": args.c, "witness": None}
    return {
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


def _cmd_appendix_a(args) -> str:
    sampler = CriticalSpikeSampler(args.n, args.c, args.eps)
    fraction = preservation_probability(sampler.market, sampler, args.trials, args.seed)
    lines = [
        "n,c,eps,trials,preserved_fraction,seed",
        f"{args.n},{args.c:.10g},{args.eps:.10g},{args.trials},{fraction:.10g},{args.seed}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_polarity(args) -> dict:
    u = _load(args.infile, "utility profile", UtilityProfile.from_json_dict)
    check = is_polarized(u)
    payload = {"polarized": check.ok}
    if not check.ok:
        a, ap, x, xp = check.violation
        payload["violation"] = {"a": a, "a_prime": ap, "x": x, "x_prime": xp}
    return payload


def _cmd_genspace(args) -> dict:
    u = _load(args.infile, "utility profile", UtilityProfile.from_json_dict)
    space, placement = build_generating_space(u)
    if args.dot:
        _write_text(args.dot, space.to_dot())
    return space_to_json_dict(space, placement)


def _cmd_planarity(args) -> dict:
    space, _placement = _load(args.infile, "metric space", space_from_json_dict)
    bound = genus_lower_bound(space)  # each nonplanar component adds at least 1
    return {
        "vertices": space.n_vertices,
        "edges": len(space.edges),
        "planar": bound == 0,
        "genus_lower_bound": bound,
    }


def _cmd_embed(args) -> str:
    space, _placement = _load(args.infile, "metric space", space_from_json_dict)
    placement = emb.bourgain_embed(space, quality=args.quality, seed=args.seed)
    lines = ["vertex," + ",".join(f"c{i}" for i in range(placement.dim))]
    row_format = "%d" + ",%.10g" * placement.dim
    for v in range(space.n_vertices):
        lines.append(row_format % (v, *placement.points[v].tolist()))
    lines.append(f"# seed={args.seed} quality={args.quality}")
    return "\n".join(lines) + "\n"


def _cmd_distortion(args) -> dict:
    space, _placement = _load(args.infile, "metric space", space_from_json_dict)
    placement = emb.bourgain_embed(space, quality=args.quality, seed=args.seed)
    report = emb.measure_distortion(space, placement)
    return {
        "vertices": space.n_vertices,
        "dim": placement.dim,
        "max_expansion": report.max_expansion,
        "max_contraction": report.max_contraction,
        "scale": report.scale,
        "quality": args.quality,
        "seed": args.seed,
    }


def _cmd_banach_search(args) -> dict:
    result = emb.maximize_euclidean_robustness(args.dim, args.restarts, args.iters, args.seed)
    return {
        "dim": args.dim,
        "restarts": args.restarts,
        "iters": args.iters,
        "seed": args.seed,
        "feasible_restarts": result.feasible_restarts,
        "best_value": result.best_value if math.isfinite(result.best_value) else None,
        "alpha": result.alpha,
        "beta": result.beta,
    }


def _functions_from_args(args):
    """H, D and the bound constants from --config, or else from the function flags given."""
    given = [dest for dest in _FUNCTION_FLAGS if getattr(args, dest) is not None]
    if args.config is None:
        sections = {}
        for dest in given:
            section, _, key = dest.partition("_")
            sections.setdefault(section, {})[key or "family"] = getattr(args, dest)
        return comm.functions_from_config(sections)
    if given:
        flag = "--" + given[0].replace("_", "-")
        raise CliError(EX_USAGE, f"argument {flag}: not allowed with argument --config")
    sections = _parse(args.config, "config", comm.parse_config, _read_text(args.config))
    return _parse(args.config, "config", comm.functions_from_config, sections)


def _cmd_commreq(args) -> dict:
    h, d, _constants = _functions_from_args(args)
    return {
        "n": args.n,
        "xi": args.xi,
        "hardness": asdict(h),
        "decay": asdict(d),
        "requirement": comm.communication_requirement(args.xi, h, d, args.n),
    }


def _cmd_bound_table(args) -> str:
    h, d, constants = _functions_from_args(args)
    table = comm.bound_table(args.n, args.space_size, args.genus, h, d, constants)
    return table.to_csv() if args.format == "csv" else table.to_text()


def _add_market_inputs(p):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="matching-market JSON (see docs/formats.md)")
    source.add_argument("--geometric-base", type=float, help="utility ratio of a geometric rank market")
    p.add_argument("--n", type=int, help="market size, required with --geometric-base")


#: Function flag destinations: "<section>" holds a family, "<section>_<key>" a number.
_FUNCTION_FLAGS = ("hardness", "hardness_scale", "hardness_exponent", "decay", "decay_scale", "decay_exponent")


def _add_function_flags(p):
    p.add_argument("--config", help="key-value config file with [hardness]/[decay]/[constants] sections")
    for section, families in (("hardness", comm.HARDNESS_FAMILIES), ("decay", comm.DECAY_FAMILIES)):
        p.add_argument(f"--{section}", choices=families)
        p.add_argument(f"--{section}-scale", type=float)
        p.add_argument(f"--{section}-exponent", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="matchrobust", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command")

    def add(name, help, func):
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(func=func)
        return p

    p = add("solve", "deferred-acceptance operator: both optimal stable assignments", _cmd_solve)
    p.add_argument("--in", dest="infile", required=True, help="ordinal market JSON")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = add("stable-set", "brute-force enumeration of all stable assignments", _cmd_stable_set)
    p.add_argument("--in", dest="infile", required=True)

    p = add("robustness", "ratio-minimum robustness with bisection cross-check", _cmd_robustness)
    _add_market_inputs(p)
    p.add_argument("--tol", type=float, default=1e-6)

    p = add("witness", "single-entry perturbation that provably changes a stable pair", _cmd_witness)
    _add_market_inputs(p)
    p.add_argument("--c", type=float, required=True, help="perturbation level")

    p = add("appendix-a", "critical market + spike sampler Monte Carlo (preservation fraction)",
            _cmd_appendix_a)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)

    p = add("polarity", "check the polarity inequality over all quadruples", _cmd_polarity)
    p.add_argument("--in", dest="infile", required=True, help="utility profile JSON")

    p = add("genspace", "bipartite generating metric space of a polarized profile", _cmd_genspace)
    p.add_argument("--in", dest="infile", required=True, help="utility profile JSON")
    p.add_argument("--dot", help="also write DOT text here")

    p = add("planarity", "planarity and Euler genus lower bound of a space", _cmd_planarity)
    p.add_argument("--in", dest="infile", required=True, help="metric space JSON")

    p = add("embed", "distance-to-subset Euclidean embedding (CSV placement)", _cmd_embed)
    p.add_argument("--in", dest="infile", required=True, help="metric space JSON")
    p.add_argument("--quality", type=int, default=10)

    p = add("distortion", "embed and report normalized distortion", _cmd_distortion)
    p.add_argument("--in", dest="infile", required=True, help="metric space JSON")
    p.add_argument("--quality", type=int, default=10)

    p = add("banach-search", "multistart search for the Euclidean robustness cap (<= 3)",
            _cmd_banach_search)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--iters", type=int, default=200)

    p = add("commreq", "communication requirement T = D^-1(H(n)/xi)", _cmd_commreq)
    p.add_argument("--xi", type=float, default=1.0, help="robustness, or inf for the infinite sentinel")
    p.add_argument("--n", type=int, required=True)
    _add_function_flags(p)

    p = add("bound-table", "communication lower bounds by |X|, genus, and n", _cmd_bound_table)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--space-size", type=int, required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--format", choices=("csv", "text"), default="csv")
    _add_function_flags(p)

    # The shared options come last, so each --help lists them after the
    # subcommand's own; the four stochastic subcommands also take --seed.
    for name, p in sub.choices.items():
        p.add_argument("--out", help="output path (default: stdout)")
        if name in ("appendix-a", "embed", "distortion", "banach-search"):
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit seed (default 1729)")
    return parser


#: Built once per process; parsing leaves the parser unchanged.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if not getattr(args, "command", None):
            _PARSER.print_usage(sys.stderr)
            return EX_USAGE
        result = args.func(args)
        text = result if isinstance(result, str) else _json_text({"schema": 1, **result})
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
