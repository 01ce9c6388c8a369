import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchrobust import cli as cli_module
from matchrobust.cli import EX_DATAERR, EX_USAGE, EX_VALIDATION, _json_text, build_parser, main
from matchrobust.communication import DECAY_FAMILIES, HARDNESS_FAMILIES
from matchrobust.metric import random_connected_space, space_to_json_dict

from conftest import petersen, reference_json_text, subdivided

SRC = Path(__file__).parents[1] / "src"


@pytest.fixture
def market_file(tmp_path):
    data = {
        "schema": 1,
        "men": {"n": 3, "ranks": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "women": {"n": 3, "ranks": [[1, 2, 0], [2, 0, 1], [0, 1, 2]]},
    }
    path = tmp_path / "market.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def rank_market_file(tmp_path):
    data = {
        "schema": 1,
        "men": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
        "women": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
    }
    path = tmp_path / "rank_market.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def utilities_file(tmp_path):
    data = {"schema": 1, "n": 2, "values": [[-1.0, -1.5], [-1.6, -1.1]]}
    path = tmp_path / "utilities.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def space_file(tmp_path):
    data = {
        "schema": 1,
        "vertices": 6,
        "edges": [[i, (i + 1) % 6, 1.0] for i in range(6)] + [[0, 3, 1.0]],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    return str(path)


DISCONNECTED_SPACE = {"vertices": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}
PATH_SPACE = {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
IDENTITY_8 = {"n": 8, "ranks": [list(range(8))] * 8}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_64(self, capsys):
        code, _out, err = run(capsys, "frobnicate")
        assert code == EX_USAGE
        assert err.startswith("error: 64:")

    def test_no_subcommand_is_64(self, capsys):
        assert run(capsys, *[])[0] == EX_USAGE

    def test_entrypoint_exits_with_the_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["matchrobust", "frobnicate"])
        with pytest.raises(SystemExit) as exc:
            cli_module.entrypoint()
        assert exc.value.code == EX_USAGE
        assert capsys.readouterr().err.startswith("error: 64:")

    def test_malformed_json_is_65_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json }")
        code, _out, err = run(capsys, "solve", "--in", str(bad))
        assert code == EX_DATAERR
        assert ":1:" in err  # line:column of the parse failure

    def test_missing_file_is_65(self, capsys):
        assert run(capsys, "solve", "--in", "/nonexistent.json")[0] == EX_DATAERR

    def test_schema_violation_is_65(self, capsys, tmp_path):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({"men": {"n": 2, "ranks": [[0, 0], [0, 1]]}}))
        assert run(capsys, "solve", "--in", str(bad))[0] == EX_DATAERR

    def test_parameter_validation_is_2(self, capsys, rank_market_file):
        code, _out, err = run(capsys, "witness", "--in", rank_market_file, "--c", "0.5")
        assert code == EX_VALIDATION
        assert err.startswith("error: 2:")

    @pytest.mark.parametrize(
        "argv, infile",
        [
            (("genspace",), {"n": 2, "values": [[-1.0, -10.0], [0.0, 0.0]]}),
            (("embed",), DISCONNECTED_SPACE),
            (("distortion",), DISCONNECTED_SPACE),
            (("banach-search", "--dim", "11"), None),
            (("stable-set",), {"men": IDENTITY_8, "women": IDENTITY_8}),
            (("appendix-a", "--n", "1", "--c", "1.5", "--eps", "0.2", "--trials", "10"), None),
            (("appendix-a", "--n", "3", "--c", "1.5", "--eps", "0.2", "--trials", "0"), None),
            # Rank utilities beyond the float range.
            (("robustness", "--geometric-base", "2", "--n", "2000"), None),
            (("witness", "--geometric-base", "1e200", "--n", "3", "--c", "2"), None),
            (("appendix-a", "--n", "40", "--c", "1e10", "--eps", "0.2", "--trials", "2"), None),
            # Counts below their minimum.
            (("embed", "--quality", "0"), PATH_SPACE),
            (("embed", "--quality", "-2"), PATH_SPACE),
            (("distortion", "--quality", "0"), PATH_SPACE),
            (("banach-search", "--dim", "2", "--restarts", "-1"), None),
            (("banach-search", "--dim", "2", "--restarts", "0"), None),
            (("banach-search", "--dim", "2", "--iters", "-5"), None),
        ],
    )
    def test_library_parameter_checks_are_2(self, capsys, tmp_path, argv, infile):
        # The library raises ValueError for each of these, which main() maps to 2.
        if infile is not None:
            path = tmp_path / "in.json"
            path.write_text(json.dumps(infile))
            argv += ("--in", str(path))
        code, out, err = run(capsys, *argv)
        assert code == EX_VALIDATION and out == ""
        assert err.startswith("error: 2:")

    @pytest.mark.parametrize("command", ["embed", "distortion"])
    @pytest.mark.parametrize(
        "infile, message",
        [
            (DISCONNECTED_SPACE, "space must be connected (finite distances)"),
            (
                {"vertices": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]},
                "space is connected, but some distance overflows the float range",
            ),
        ],
        ids=["disconnected", "overflow"],
    )
    def test_infinite_distance_names_its_cause(self, capsys, tmp_path, command, infile, message):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(infile))
        code, out, err = run(capsys, command, "--in", str(path))
        assert (code, out, err) == (EX_VALIDATION, "", f"error: 2: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("robustness", "--geometric-base", "nan", "--n", "3"),
            ("witness", "--geometric-base", "2.0", "--n", "3", "--c", "nan"),
            ("robustness", "--geometric-base", "2.0", "--n", "3", "--tol", "nan"),
            ("commreq", "--xi", "nan", "--n", "3"),
            ("commreq", "--decay-scale", "nan", "--n", "3"),
            ("commreq", "--decay-exponent", "nan", "--n", "3"),
            ("bound-table", "--n", "4", "--space-size", "64", "--genus", "2", "--hardness-scale", "nan"),
            # Infinities fail the same checks; ``--flag=-inf`` keeps argparse
            # from reading "-inf" as an option.
            ("robustness", "--geometric-base", "inf", "--n", "3"),
            ("witness", "--geometric-base", "2.0", "--n", "3", "--c", "inf"),
            ("appendix-a", "--n", "2", "--c", "inf", "--eps", "0.2", "--trials", "3"),
            ("appendix-a", "--n", "2", "--c", "1.5", "--eps", "inf", "--trials", "3"),
            ("robustness", "--geometric-base", "2.0", "--n", "3", "--tol", "inf"),
            ("robustness", "--geometric-base", "2.0", "--n", "3", "--tol=-inf"),
            ("commreq", "--hardness-scale", "inf", "--n", "3"),
            ("commreq", "--hardness", "polynomial", "--hardness-exponent", "inf", "--n", "3"),
            ("commreq", "--decay-scale", "inf", "--n", "3"),
            ("commreq", "--decay-exponent", "inf", "--n", "3"),
            ("commreq", "--xi=-inf", "--n", "3"),
            ("bound-table", "--n", "4", "--space-size", "64", "--genus", "2", "--decay-scale", "inf"),
        ],
    )
    def test_nan_parameter_is_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EX_VALIDATION and out == ""
        assert err.startswith("error: 2:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["commreq", "bound-table"])
    @pytest.mark.parametrize(
        "section, value",
        [
            pytest.param("hardness", "nan", id="hardness"),
            pytest.param("decay", "nan", id="decay"),
            pytest.param("hardness", "inf", id="hardness-inf"),
            pytest.param("decay", "inf", id="decay-inf"),
            pytest.param("constants", "inf", id="constants-inf"),
        ],
    )
    def test_nan_config_scale_is_65(self, capsys, tmp_path, command, section, value):
        cfg = tmp_path / "nan.cfg"
        key = "size_constant" if section == "constants" else "scale"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        argv = [command, "--n", "4", "--config", str(cfg)]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        code, out, _err = run(capsys, *argv)
        assert code == EX_DATAERR and out == ""

    @pytest.mark.parametrize("exponent", ["-1", "nan"])
    def test_bad_hardness_exponent_is_2(self, capsys, exponent):
        code, out, err = run(
            capsys, "commreq", "--hardness", "polynomial", "--hardness-exponent", exponent, "--n", "3"
        )
        assert code == EX_VALIDATION and out == ""
        assert "exponent must be nonnegative" in err

    @pytest.mark.parametrize(
        "section, line",
        [
            ("hardness", "exponent = -1"),
            ("constants", "size_constant = nan"),
            ("constants", "genus_constant = 0"),
            ("constants", "market_constant = -2"),
            pytest.param("hardness", "scale = 1" + "0" * 400, id="hardness-int-overflow"),
            pytest.param("decay", "exponent = 1" + "0" * 400, id="decay-int-overflow"),
        ],
    )
    @pytest.mark.parametrize("command", ["commreq", "bound-table"])
    def test_bad_config_value_is_65(self, capsys, tmp_path, command, section, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[{section}]\n{line}\n")
        argv = [command, "--n", "4", "--config", str(cfg)]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        code, out, err = run(capsys, *argv)
        assert code == EX_DATAERR and out == ""
        assert err.startswith(f"error: 65: {cfg}: ")

    @pytest.mark.parametrize(
        "text, named",
        [("[hardnes]\nfamily = polynomial\n", "[hardnes]"), ("[hardness]\nScale = 2\n", "'Scale'")],
    )
    @pytest.mark.parametrize("command", ["commreq", "bound-table"])
    def test_unknown_config_section_or_key_is_65(self, capsys, tmp_path, command, text, named):
        # Once ignored, so the default constant hardness stayed in force.
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        argv = [command, "--n", "4", "--config", str(cfg)]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        code, out, err = run(capsys, *argv)
        assert code == EX_DATAERR and out == ""
        assert err.startswith(f"error: 65: {cfg}: bad config: unknown ") and named in err

    @pytest.mark.parametrize("side", ["men", "women"])
    def test_nan_rank_utility_is_65(self, capsys, tmp_path, side):
        data = {
            "schema": 1,
            "men": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
            "women": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
        }
        data[side]["rank_utilities"][1] = math.nan
        bad = tmp_path / "nan_rank.json"
        bad.write_text(json.dumps(data))  # written as the bare token NaN
        for command in ("robustness", "witness"):
            argv = [command, "--in", str(bad)] + (["--c", "1.5"] if command == "witness" else [])
            code, out, _err = run(capsys, *argv)
            assert code == EX_DATAERR and out == ""

    def test_nan_extensional_utility_is_65(self, capsys, tmp_path):
        identity = [[0, 1], [0, 1]]
        entry = {"ranks": identity, "values": [[-1.0, -2.0], [math.nan, -2.0]]}
        side = {"kind": "extensional", "n": 2, "entries": [entry]}
        bad = tmp_path / "nan_ext.json"
        bad.write_text(json.dumps({"schema": 1, "men": side, "women": side}))
        assert run(capsys, "robustness", "--in", str(bad))[0] == EX_DATAERR

    def test_two_extensional_entries_for_one_profile_are_65(self, capsys, tmp_path):
        entry = {"ranks": [[0, 1], [1, 0]], "values": [[-1.0, -2.0], [-2.0, -1.0]]}
        side = {"kind": "extensional", "n": 2, "entries": [entry, entry]}
        bad = tmp_path / "dup_ext.json"
        bad.write_text(json.dumps({"schema": 1, "men": side, "women": side}))
        code, out, err = run(capsys, "robustness", "--in", str(bad))
        assert code == EX_DATAERR and out == ""
        assert "two entries for ranks [[0, 1], [1, 0]]" in err

    def test_nan_utilities_file_is_65(self, capsys, tmp_path):
        bad = tmp_path / "nan_u.json"
        bad.write_text(json.dumps({"schema": 1, "n": 2, "values": [[-1.0, math.nan], [-1.6, -1.1]]}))
        assert run(capsys, "polarity", "--in", str(bad))[0] == EX_DATAERR

    @pytest.mark.parametrize(
        "argv, target",
        [
            (("robustness", "--geometric-base", "2", "--n", "3", "--out"), "missing/out.json"),
            (("genspace", "--dot"), "missing/x.dot"),
            (("solve", "--out"), "."),
        ],
        ids=["out-missing-dir", "dot-missing-dir", "out-is-dir"],
    )
    def test_unwritable_output_is_2(self, capsys, tmp_path, market_file, utilities_file,
                                    argv, target):
        path = str(tmp_path / target)
        inputs = {"genspace": utilities_file, "solve": market_file}
        if argv[0] in inputs:
            argv = (argv[0], "--in", inputs[argv[0]], *argv[1:])
        code, out, err = run(capsys, *argv, path)
        assert code == EX_VALIDATION and out == ""
        assert err.startswith(f"error: 2: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("eps", ["3e-16", "1e-16"])
    def test_spike_lost_to_rounding_is_2(self, capsys, eps):
        code, out, err = run(
            capsys, "appendix-a", "--n", "2", "--c", "1", "--eps", eps, "--trials", "5"
        )
        assert code == EX_VALIDATION and out == ""
        assert err.startswith("error: 2:") and err.count("\n") == 1
        assert "eps" in err and "base" not in err

    def test_stable_set_cap_is_not_an_option(self, capsys, tmp_path):
        path = tmp_path / "n8.json"
        path.write_text(json.dumps({"men": IDENTITY_8, "women": IDENTITY_8}))
        code, out, _err = run(capsys, "stable-set", "--in", str(path), "--cap", "8")
        assert code == EX_USAGE and out == ""


# Every input of robustness, witness, commreq and bound-table has one source:
# giving a value two ways, or no market at all, is a usage error.
_MARKET_SOURCES = [
    pytest.param(("--in", "FILE", "--geometric-base", "2", "--n", "3"), ("--in", "--geometric-base"), id="both"),
    pytest.param((), ("--in", "--geometric-base"), id="neither"),
    pytest.param(("--n", "3"), ("--in", "--geometric-base"), id="n-alone"),
    pytest.param(("--in", "FILE", "--n", "7"), ("--n", "--in"), id="n-beside-in"),
    pytest.param(("--geometric-base", "2"), ("--geometric-base", "--n"), id="base-without-n"),
]
_FUNCTION_FLAGS = [
    ("--hardness", "log"),
    ("--hardness-scale", "2"),
    ("--hardness-exponent", "2"),
    ("--decay", "power"),
    ("--decay-scale", "2"),
    ("--decay-exponent", "2"),
]


class TestOneSourcePerValue:
    @pytest.mark.parametrize("argv, named", _MARKET_SOURCES)
    @pytest.mark.parametrize("command", [("robustness",), ("witness", "--c", "2")], ids=["robustness", "witness"])
    def test_market_source(self, capsys, rank_market_file, command, argv, named):
        argv = [rank_market_file if a == "FILE" else a for a in argv]
        code, out, err = run(capsys, *command, *argv)
        assert code == EX_USAGE and out == ""
        assert err.startswith("error: 64: ") and err.count("\n") == 1
        assert all(flag in err for flag in named)

    @pytest.mark.parametrize("flag, value", _FUNCTION_FLAGS)
    @pytest.mark.parametrize(
        "command",
        [("commreq", "--n", "4"), ("bound-table", "--n", "4", "--space-size", "64", "--genus", "2")],
        ids=["commreq", "bound-table"],
    )
    def test_config_beside_a_function_flag(self, capsys, tmp_path, command, flag, value):
        cfg = tmp_path / "comm.cfg"
        cfg.write_text("[hardness]\nfamily = log\n")
        code, out, err = run(capsys, *command, "--config", str(cfg), flag, value)
        assert code == EX_USAGE and out == ""
        assert err == f"error: 64: argument {flag}: not allowed with argument --config\n"


class TestSubcommands:
    def test_solve_json(self, capsys, market_file):
        code, out, _err = run(capsys, "solve", "--in", market_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert len(payload["male_optimal"]) == 3

    def test_solve_text(self, capsys, market_file):
        code, out, _err = run(capsys, "solve", "--in", market_file, "--format", "text")
        assert code == 0 and "male-optimal" in out

    def test_stable_set(self, capsys, market_file):
        code, out, _err = run(capsys, "stable-set", "--in", market_file)
        payload = json.loads(out)
        assert code == 0 and payload["count"] == len(payload["stable"]) >= 1

    def test_robustness_geometric(self, capsys):
        code, out, _err = run(capsys, "robustness", "--geometric-base", "2.0", "--n", "3")
        payload = json.loads(out)
        assert code == 0
        assert payload["robustness"] == 2.0
        assert abs(payload["bisection"] - 2.0) < 1e-4

    @pytest.mark.parametrize("tol", ["0", "-1", "1e-300"])
    def test_robustness_tol_below_float_spacing(self, capsys, tol):
        code, out, _err = run(capsys, "robustness", "--geometric-base", "2", "--n", "3", "--tol", tol)
        assert code == 0 and json.loads(out)["bisection"] == 2.0

    def test_robustness_from_file(self, capsys, rank_market_file):
        code, out, _err = run(capsys, "robustness", "--in", rank_market_file)
        assert code == 0 and json.loads(out)["robustness"] == 2.0

    def test_witness_found_and_absent(self, capsys, rank_market_file):
        code, out, _err = run(capsys, "witness", "--in", rank_market_file, "--c", "2.5")
        assert code == 0 and json.loads(out)["witness"] is not None
        code, out, _err = run(capsys, "witness", "--in", rank_market_file, "--c", "1.5")
        assert code == 0 and json.loads(out)["witness"] is None

    def test_witness_documented_example(self, capsys):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        example = doc.split("## Witness", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        code, out, _err = run(capsys, "witness", "--geometric-base", "2", "--n", "3", "--c", "2.5")
        assert code == 0 and json.loads(out) == json.loads(example)

    def test_appendix_a_kill_row(self, capsys):
        code, out, _err = run(
            capsys, "appendix-a", "--n", "3", "--c", "1.5", "--eps", "0.2",
            "--trials", "400", "--seed", "1",
        )
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "n,c,eps,trials,preserved_fraction,seed"
        fields = row.split(",")
        assert fields[0] == "3" and fields[4] == "0" and fields[5] == "1"

    def test_polarity(self, capsys, utilities_file, tmp_path):
        code, out, _err = run(capsys, "polarity", "--in", utilities_file)
        assert code == 0 and json.loads(out)["polarized"] is True
        bad = tmp_path / "np.json"
        bad.write_text(json.dumps({"values": [[-1.0, -10.0], [0.0, 0.0]]}))
        code, out, _err = run(capsys, "polarity", "--in", str(bad))
        payload = json.loads(out)
        assert payload["polarized"] is False
        assert payload["violation"] == {"a": 0, "a_prime": 1, "x": 1, "x_prime": 0}

    def test_genspace_with_dot(self, capsys, utilities_file, tmp_path):
        dot = tmp_path / "space.dot"
        code, out, _err = run(capsys, "genspace", "--in", utilities_file, "--dot", str(dot))
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == 4 and len(payload["alpha"]) == 2
        assert dot.read_text().startswith("graph")

    def test_planarity(self, capsys, space_file):
        code, out, _err = run(capsys, "planarity", "--in", space_file)
        payload = json.loads(out)
        assert code == 0 and payload["planar"] is True and payload["genus_lower_bound"] == 0

    def test_planarity_decides_each_component_once(self, capsys, tmp_path, monkeypatch):
        # No edge-count rule settles the Petersen graph, so it reaches the
        # networkx test, and the verdict and the bound must share that call.
        import networkx as nx

        calls = []
        check = nx.check_planarity

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(nx, "check_planarity", counted)
        code, out, _err = run(capsys, "planarity", "--in", _write_space(tmp_path / "p.json", *petersen()))
        assert code == 0 and json.loads(out)["planar"] is False
        assert len(calls) == 1

    def test_embed_csv(self, capsys, space_file):
        code, out, _err = run(capsys, "embed", "--in", space_file, "--quality", "3", "--seed", "7")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("vertex,c0")
        assert lines[-1] == "# seed=7 quality=3"

    def test_distortion(self, capsys, space_file):
        code, out, _err = run(capsys, "distortion", "--in", space_file, "--seed", "3")
        payload = json.loads(out)
        assert code == 0 and payload["max_expansion"] >= 1.0 and payload["seed"] == 3

    def test_banach_search(self, capsys):
        code, out, _err = run(
            capsys, "banach-search", "--dim", "2", "--restarts", "20", "--iters", "60", "--seed", "1"
        )
        payload = json.loads(out)
        assert code == 0 and 1.0 <= payload["best_value"] <= 3.0 + 1e-6

    def test_commreq(self, capsys):
        code, out, _err = run(
            capsys, "commreq", "--xi", "2.0", "--n", "10",
            "--hardness", "polynomial", "--hardness-exponent", "1.0", "--decay", "linear",
        )
        payload = json.loads(out)
        assert code == 0 and payload["requirement"] == 5.0

    def test_commreq_overflow_is_the_string_inf(self, capsys):
        code, out, _err = run(
            capsys, "commreq", "--n", "3", "--xi", "1",
            "--hardness-scale", "1e300", "--decay-scale", "1e-300",
        )
        assert code == 0 and json.loads(out)["requirement"] == "inf"

    @pytest.mark.parametrize("config", [False, True])
    @pytest.mark.parametrize("command", ["commreq", "bound-table"])
    def test_polynomial_hardness_past_the_float_range_is_inf(
        self, capsys, tmp_path, command, config
    ):
        if config:
            cfg = tmp_path / "comm.cfg"
            cfg.write_text("[hardness]\nfamily = polynomial\nexponent = 400\n")
            flags = ["--config", str(cfg)]
        else:
            flags = ["--hardness", "polynomial", "--hardness-exponent", "400"]
        argv = [command, "--n", "10", *flags]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        code, out, _err = run(capsys, *argv)
        assert code == 0
        if command == "commreq":
            assert json.loads(out)["requirement"] == "inf"
        else:
            for line in out.splitlines()[1:]:
                assert line.split(",")[1:4] == ["inf", "inf", "inf"]

    @pytest.mark.parametrize("hardness", HARDNESS_FAMILIES)
    @pytest.mark.parametrize("command", ["commreq", "bound-table"])
    def test_n_beyond_the_float_range_is_2(self, capsys, command, hardness):
        argv = [command, "--n", "1" + "0" * 400, "--hardness", hardness]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        code, out, err = run(capsys, *argv)
        assert code == EX_VALIDATION and out == ""
        assert err == "error: 2: n is too large for a float\n"

    @pytest.mark.parametrize("hardness", HARDNESS_FAMILIES)
    def test_bound_table_caps_beyond_the_float_range_are_2(self, capsys, hardness):
        # n = 10^200 fits a float, but n^2 ln n and n^2 do not.
        argv = ["bound-table", "--n", "1" + "0" * 200, "--space-size", "100", "--genus", "2"]
        code, out, err = run(capsys, *argv, "--hardness", hardness)
        assert code == EX_VALIDATION and out == ""
        assert err.startswith("error: 2: n is too large: ")
        assert "float range" in err and "y must be positive" not in err

    def test_commreq_infinite_xi_sentinel(self, capsys):
        code, out, _err = run(capsys, "commreq", "--n", "3", "--xi", "inf")
        payload = json.loads(out)
        assert code == 0 and payload["xi"] == "inf" and payload["requirement"] == 0.0

    def test_xi_infinite_is_an_unknown_option(self, capsys):
        code, out, err = run(capsys, "commreq", "--n", "3", "--xi-infinite")
        assert code == EX_USAGE and out == ""
        assert err == "error: 64: unrecognized arguments: --xi-infinite\n"

    def test_robustness_of_one_agent_is_the_string_inf(self, capsys):
        code, out, _err = run(capsys, "robustness", "--geometric-base", "2", "--n", "1")
        payload = json.loads(out)
        assert code == 0 and payload["robustness"] == payload["bisection"] == "inf"

    def test_robustness_bisection_brackets_huge_ratios(self, capsys):
        code, out, _err = run(capsys, "robustness", "--geometric-base", "1e30", "--n", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["robustness"] == payload["bisection"] == 1e30
        assert payload["difference"] == 0.0

    def test_robustness_difference_of_unequal_routes(self, capsys, tmp_path):
        # At the largest float ratio the bracket closes one float below it.
        side = {"kind": "rank", "n": 2, "rank_utilities": [-1.0, -sys.float_info.max]}
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"schema": 1, "men": side, "women": side}))
        code, out, _err = run(capsys, "robustness", "--in", str(path))
        payload = json.loads(out)
        assert code == 0 and payload["robustness"] == sys.float_info.max
        assert payload["bisection"] == math.nextafter(sys.float_info.max, 0.0)
        assert payload["difference"] == math.ulp(payload["bisection"]) > 0.0

    def test_commreq_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "comm.cfg"
        cfg.write_text("[hardness]\nfamily = polynomial\nexponent = 1.0\n[decay]\nfamily = linear\n")
        code, out, _err = run(capsys, "commreq", "--xi", "2.0", "--n", "10", "--config", str(cfg))
        assert code == 0 and json.loads(out)["requirement"] == 5.0

    def test_commreq_documented_config_example(self, capsys, tmp_path):
        # The example in docs/formats.md, inline comments included.
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        section = doc.split("## Communication config", 1)[1]
        example = section.split("```", 2)[1]
        cfg = tmp_path / "comm.cfg"
        cfg.write_text(example)
        code, out, _err = run(capsys, "commreq", "--xi", "2.0", "--n", "10", "--config", str(cfg))
        # H(10) / xi = 2 ln(11) / 2 under D(t) = t^2.
        assert code == 0
        assert math.isclose(json.loads(out)["requirement"], math.sqrt(math.log(11)))

    def test_bound_table_csv_structure(self, capsys):
        code, out, _err = run(
            capsys, "bound-table", "--n", "4", "--space-size", "100", "--genus", "3",
            "--hardness", "log",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        det = lines[1].split(",")
        prob = lines[2].split(",")
        assert det[1] == prob[1]  # size column identical
        assert float(prob[2]) >= float(det[2])  # genus column loses the n^2 factor


_JSON_KEYS = st.text(max_size=6)
_JSON_FLOATS = st.one_of(
    st.floats(allow_nan=False), st.sampled_from([-0.0, 5e-324, 1e308, math.inf, -math.inf])
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    _JSON_KEYS,
)


def _json_payloads(scalars, floats):
    """Dicts nesting dicts, lists and tuples, with rows of ints and of
    ``floats`` among the leaves."""
    leaves = st.one_of(scalars, st.lists(st.integers(), max_size=5), st.lists(floats, max_size=5))
    values = st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(_JSON_KEYS, inner, max_size=4),
        ),
        max_leaves=20,
    )
    return st.dictionaries(_JSON_KEYS, values, max_size=5)


def _outcome(write, payload):
    """What ``write(payload)`` returns, or the type and message it raises."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestJsonText:
    def test_infinities_become_strings_at_any_depth(self):
        payload = {"a": math.inf, "b": [1.0, -math.inf, {"c": math.inf}], "d": 2}
        assert json.loads(_json_text(payload)) == {"a": "inf", "b": [1.0, "-inf", {"c": "inf"}], "d": 2}

    def test_tuples_are_written_as_lists(self):
        payload = {"a": (1.0, math.inf), "b": [(-math.inf, (2, 3))], "c": ()}
        as_lists = {"a": [1.0, math.inf], "b": [[-math.inf, [2, 3]]], "c": []}
        assert _json_text(payload) == _json_text(as_lists) == reference_json_text(as_lists)

    @given(payload=_json_payloads(_JSON_SCALARS, _JSON_FLOATS))
    @example(payload={"schema": 1, "x": [0.1, -0.0, 1e308], "y": {"z": None, "w": True}})
    @example(payload={"\u00e9\u4e2d\U0001f600": 1, 'q"\\': 2, "\x00\n\t\x1f\x7f": [], "": {}})
    @example(payload={"a": [True, False, 1, 2.5, 10**30, -(2**64)], "b": [[1, 2], [3.0, 4.0]]})
    @example(payload={"a": [5e-324, -0.0, 1e308, np.float64(0.1)], "b": (math.inf,), "c": [1e308, 1e308]})
    @example(payload={"a": [{"b": [[-math.inf, 1.0], [np.float64(-math.inf)]]}]})
    def test_bytes_match_the_reference(self, payload):
        assert _json_text(payload) == reference_json_text(payload)

    @given(
        payload=_json_payloads(
            st.one_of(
                _JSON_SCALARS,
                st.sampled_from([math.nan, np.float64(math.nan), np.int64(3), {1}, frozenset()]),
            ),
            st.floats(),
        )
    )
    @example(payload={"a": [1.0, math.nan]})
    @example(payload={"a": {"b": [(math.inf, np.float64(math.nan))]}})
    @example(payload={"a": [np.int64(1)], "b": math.nan})
    @example(payload={"a": {2, 3}})
    def test_faults_match_the_reference(self, payload):
        assert _outcome(_json_text, payload) == _outcome(reference_json_text, payload)

    @pytest.mark.parametrize(
        "payload, error, message",
        [
            ({"a": [math.nan]}, ValueError, "Out of range float values are not JSON compliant: nan"),
            ({"a": {"b": (1.0, np.float64(math.nan))}}, ValueError,
             "Out of range float values are not JSON compliant: np.float64(nan)"),
            ({"a": np.int64(1)}, TypeError, "Object of type int64 is not JSON serializable"),
            ({"a": [[1], {1, 2}]}, TypeError, "Object of type set is not JSON serializable"),
        ],
    )
    def test_faults_raise_the_encoders_message(self, payload, error, message):
        with pytest.raises(error) as raised:
            _json_text(payload)
        assert str(raised.value) == message

    def test_nan_output_is_2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_module.comm, "communication_requirement", lambda *args: math.nan)
        code, out, err = run(capsys, "commreq", "--n", "3")
        assert code == EX_VALIDATION and out == ""
        assert err == "error: 2: Out of range float values are not JSON compliant: nan\n"


class TestReproducibility:
    def test_byte_identical_outputs(self, capsys, tmp_path, market_file, rank_market_file,
                                    utilities_file, space_file):
        invocations = [
            ("solve", "--in", market_file),
            ("stable-set", "--in", market_file),
            ("robustness", "--in", rank_market_file),
            ("witness", "--in", rank_market_file, "--c", "2.5"),
            ("appendix-a", "--n", "2", "--c", "1.5", "--eps", "0.2", "--trials", "50", "--seed", "9"),
            ("polarity", "--in", utilities_file),
            ("genspace", "--in", utilities_file),
            ("planarity", "--in", space_file),
            ("embed", "--in", space_file, "--quality", "2", "--seed", "5"),
            ("distortion", "--in", space_file, "--quality", "2", "--seed", "5"),
            ("banach-search", "--dim", "2", "--restarts", "5", "--iters", "40", "--seed", "2"),
            ("commreq", "--xi", "2.0", "--n", "10"),
            ("bound-table", "--n", "4", "--space-size", "64", "--genus", "2"),
        ]
        for argv in invocations:
            a = tmp_path / "a.out"
            b = tmp_path / "b.out"
            assert main(list(argv) + ["--out", str(a)]) == 0
            assert main(list(argv) + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes(), argv


_STARTUP_SCRIPT = """
import json, sys
import matchrobust
import matchrobust.cli as cli
loaded = ["networkx" in sys.modules]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
    loaded.append("networkx" in sys.modules)
print(json.dumps(loaded))
"""


def _write_space(path, vertex_count, edges) -> str:
    data = {"schema": 1, "vertices": vertex_count, "edges": [[a, b, 1.0] for a, b in edges]}
    path.write_text(json.dumps(data))
    return str(path)


class TestStartupImports:
    def test_networkx_loaded_only_for_graphs_the_rules_leave(
        self, tmp_path, market_file, rank_market_file
    ):
        eight_edges = _write_space(
            tmp_path / "eight.json", 6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (1, 4)]
        )
        # K5 with every edge subdivided reduces back to K5, an Euler reject.
        k5 = (5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
        subdivided_k5 = _write_space(tmp_path / "k5.json", *subdivided(k5, 1))
        petersen_graph = _write_space(tmp_path / "petersen.json", *petersen())
        jobs = [
            ["solve", "--in", market_file],
            ["robustness", "--in", rank_market_file],
            ["appendix-a", "--n", "3", "--c", "1.5", "--eps", "0.2", "--trials", "5"],
            ["distortion", "--in", eight_edges, "--quality", "2"],
            ["banach-search", "--dim", "2", "--restarts", "1", "--iters", "10"],
            ["planarity", "--in", eight_edges],
            ["planarity", "--in", subdivided_k5],
            ["planarity", "--in", petersen_graph],
        ]
        outs = [tmp_path / f"job{k}.out" for k in range(len(jobs))]
        argvs = [job + ["--out", str(out)] for job, out in zip(jobs, outs)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # networkx is absent after the imports and after each job but the last.
        assert json.loads(proc.stdout) == [False] * len(jobs) + [True]
        assert [json.loads(out.read_text())["planar"] for out in outs[-3:]] == [True, False, False]


class TestHelp:
    COMMANDS = (
        "solve",
        "stable-set",
        "robustness",
        "witness",
        "appendix-a",
        "polarity",
        "genspace",
        "planarity",
        "embed",
        "distortion",
        "banach-search",
        "commreq",
        "bound-table",
    )

    def test_every_subcommand_has_help(self):
        parser = build_parser()
        (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert tuple(subparsers.choices) == self.COMMANDS
        text = parser.format_help()
        for cmd in self.COMMANDS:
            assert cmd in text

    def test_subcommand_help_names_construct(self, capsys):
        for cmd, needle in [
            ("solve", "deferred-acceptance"),
            ("robustness", "bisection"),
            ("banach-search", "Euclidean"),
            ("commreq", "D^-1(H(n)/xi)"),
        ]:
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            out = capsys.readouterr().out
            assert needle in out


def _pinned_space() -> dict:
    """A connected 60-vertex graph: a random spanning tree plus chords."""
    rng = np.random.default_rng(60)
    edges = [[v, int(rng.integers(0, v)), float(rng.uniform(0.5, 3.0))] for v in range(1, 60)]
    edges += [
        [int(a), int(b), float(rng.uniform(0.5, 3.0))]
        for a, b in rng.integers(0, 60, (40, 2))
        if a != b
    ]
    return {"schema": 1, "vertices": 60, "edges": edges}


def _pinned_grid(side: int) -> dict:
    """A ``side`` x ``side`` grid with weights drawn from [0.5, 3)."""
    rng = np.random.default_rng(side)
    edges = [
        [r * side + c, r * side + c + step, float(rng.uniform(0.5, 3.0))]
        for r in range(side)
        for c in range(side)
        for step, fits in ((1, c + 1 < side), (side, r + 1 < side))
        if fits
    ]
    return {"schema": 1, "vertices": side * side, "edges": edges}


def _pinned_hub(vertices: int) -> dict:
    """A star on vertex 0 plus ``vertices`` random chords between leaves:
    one vertex of degree V - 1 next to many of small degree."""
    rng = np.random.default_rng(vertices)
    edges = [[0, v, float(rng.uniform(0.5, 3.0))] for v in range(1, vertices)]
    edges += [
        [int(a), int(b), float(rng.uniform(0.5, 3.0))]
        for a, b in rng.integers(1, vertices, (vertices, 2))
        if a != b
    ]
    return {"schema": 1, "vertices": vertices, "edges": edges}


def _pinned_random_space(vertices: int) -> dict:
    """The benchmark's geometry shape: a random spanning tree plus
    ``vertices`` chords, from ``random_connected_space``."""
    return space_to_json_dict(
        random_connected_space(vertices, vertices, np.random.default_rng(vertices))
    )


def _pinned_utilities(tripled_entry=None) -> dict:
    """Utilities of 12 agents and 12 alternatives at random points of the
    plane (u = -distance), so the profile is polarized; tripling one entry
    breaks polarity."""
    rng = np.random.default_rng(12)
    agents, alternatives = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    values = (-np.linalg.norm(agents[:, None, :] - alternatives[None, :, :], axis=2)).tolist()
    if tripled_entry is not None:
        a, x = tripled_entry
        values[a][x] *= 3.0
    return {"schema": 1, "n": 12, "values": values}


def _output_digest(tmp_path, argv, infile=None) -> str:
    """sha256 of what ``argv --in FILE --out OUT`` writes for ``infile``;
    without ``infile``, of what ``argv --out OUT`` writes."""
    if infile is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(infile))
        argv = (*argv, "--in", str(path))
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestPinnedGeometryOutputs:
    """sha256 of geometry outputs, recorded before the polarity scan, the
    subset minima and the embed row formatting were vectorised, (the grid
    and hub cases) while all-pairs distances still came from one heap
    Dijkstra per source, and (the random 512- and 600-vertex cases) while
    they came from one settled vertex per source and step and every subset
    took its own minima. At 512 vertices the top scale's subsets leave one
    vertex out, at 600 they leave 88. Any change to those kernels must keep
    these bytes."""

    @pytest.mark.parametrize(
        "argv, infile, expected",
        [
            (
                ("embed", "--quality", "3", "--seed", "11"),
                _pinned_space(),
                "0490bd151c35de8adfc3940f1a517deadcdd3c4c954cf69aee1762700c31cd91",
            ),
            (
                ("distortion", "--quality", "3", "--seed", "11"),
                _pinned_space(),
                "eddecdfd1c882ac6b4e3b416cc231bd68424ccfde0d289daf28d36a11feca23f",
            ),
            (
                ("polarity",),
                _pinned_utilities(),
                "1e1348b69fe65254a23ce839f5d64c31a8edd76dce9ddce56fc6988750fc0a2d",
            ),
            (
                ("polarity",),
                _pinned_utilities(tripled_entry=(7, 3)),
                "31530fb09d9259932a8f0b493b8592c04fe3493b375e58112d09632986435f02",
            ),
            (
                ("genspace",),
                _pinned_utilities(),
                "ebfee8e077a62a88c1cd4855f216dc1dd5b1e3e5ba9586d19974997c5ca0fafd",
            ),
            (
                ("embed", "--quality", "3", "--seed", "11"),
                _pinned_grid(24),
                "4573912d52f9ab89721848f301e72f5b2e8829971b92d5d7cc365d4cfdb7a7eb",
            ),
            (
                ("distortion", "--quality", "3", "--seed", "11"),
                _pinned_grid(24),
                "19419182443e94b995bc2e705f259958cfc7579f3aa678e9bd5ed6e9f9aec5ff",
            ),
            (
                ("embed", "--quality", "3", "--seed", "11"),
                _pinned_hub(512),
                "cae65375f98c07ea1dc6fa0a7a9600336fd72b2a2ab4cdb6727b6bf376b0982b",
            ),
            (
                ("distortion", "--quality", "3", "--seed", "11"),
                _pinned_hub(512),
                "af3278d71d11f3a723055efb603ace86eac77eccdb5538a580fcb66158a17ba8",
            ),
            (
                ("embed", "--quality", "10", "--seed", "11"),
                _pinned_random_space(512),
                "bec0af0322569ddd81275659fe32ff56ec4a026bd7de97467123308e428cad81",
            ),
            (
                ("distortion", "--quality", "10", "--seed", "11"),
                _pinned_random_space(512),
                "4a4d96cf5c0136c5f12e40d5cd162b3d33e72236443d909464ed15512914798e",
            ),
            (
                ("embed", "--quality", "10", "--seed", "11"),
                _pinned_random_space(600),
                "96827eb597fae6d69beccee30931a1abd0f1a3758385030b70d0a62b6bc86bb2",
            ),
            (
                ("distortion", "--quality", "10", "--seed", "11"),
                _pinned_random_space(600),
                "79c87415ec3de9b61b2bb37dcd97d7882d5e9480a51ba01b9fb202518a864e17",
            ),
        ],
        ids=["embed", "distortion", "polarity", "polarity-violated", "genspace",
             "embed-grid", "distortion-grid", "embed-hub", "distortion-hub",
             "embed-random-512", "distortion-random-512", "embed-random-600",
             "distortion-random-600"],
    )
    def test_digest(self, tmp_path, argv, infile, expected):
        assert _output_digest(tmp_path, argv, infile) == expected


def _pinned_market(n: int, identical: bool = False, seed: int | None = None) -> dict:
    """A random ordinal market drawn from ``seed`` (default ``n``);
    ``identical`` gives every man one shared ranking, the worst case for
    the order in which men propose."""
    rng = np.random.default_rng(n if seed is None else seed)
    if identical:
        men = [rng.permutation(n).tolist()] * n
    else:
        men = [rng.permutation(n).tolist() for _ in range(n)]
    women = [rng.permutation(n).tolist() for _ in range(n)]
    return {"schema": 1, "men": {"n": n, "ranks": men}, "women": {"n": n, "ranks": women}}


def _cyclic_market(n: int) -> dict:
    """Man i ranks i, i+1, ...; woman j ranks j+1, j+2, ... (mod n): a
    market with n stable matches."""
    return {
        "schema": 1,
        "men": {"n": n, "ranks": [[(i + k) % n for k in range(n)] for i in range(n)]},
        "women": {"n": n, "ranks": [[(j + 1 + k) % n for k in range(n)] for j in range(n)]},
    }


class TestPinnedMarketOutputs:
    """sha256 of `solve` and `stable-set` outputs, recorded while deferred
    acceptance still moved the lowest-index free proposer first and the
    enumeration still walked all n! bijections; a faster proposal order or
    a pruned search must keep these bytes."""

    @pytest.mark.parametrize(
        "argv, infile, expected",
        [
            (
                ("solve",),
                _pinned_market(400, identical=True),
                "57ab87a1fad19d3adeea0cea17f1ebcd83efdc3f0fcccb43bacfb804fec4de6f",
            ),
            (
                ("solve", "--format", "text"),
                _pinned_market(400, identical=True),
                "c11b50a78aabf0a1755ab16d6bb50bfb698ef02aa462b1ecf4c3c90c489c1cd3",
            ),
            (
                ("solve",),
                _pinned_market(400),
                "6615c156a2ba9c948aa6a06c8e8daeda466729ea4df5eac8312bfdc6b788637c",
            ),
            (
                ("solve", "--format", "text"),
                _pinned_market(400),
                "a971083bff894e6c9c3491ed903be020346c9792eabf734d8156e84ef013039b",
            ),
            (
                ("stable-set",),
                _pinned_market(7),
                "3de1c286ee9bcd8ebffccff5449881815d3157a95386e7ecc3dfdb68dbfa1293",
            ),
            (
                ("stable-set",),
                _cyclic_market(7),
                "71392ff3fd80992b977343ad6fed9e527d51bfb021be94e1f87aba5960b0470f",
            ),
            (
                ("stable-set",),
                _pinned_market(6, seed=29),
                "9a1688184fef4179a80f9b9dde383c0181729dd95f16664c5a8f2bfbdcca5f53",
            ),
            (
                ("stable-set",),
                _pinned_market(7, identical=True),
                "b31e811f612aa2eebd0dfcb220e4aa2dcbc99f7a12dbe3f85c47ed5a33da1e20",
            ),
        ],
        ids=["solve-identical", "solve-identical-text", "solve-random", "solve-random-text",
             "stable-set", "stable-set-cyclic", "stable-set-five-stable", "stable-set-identical"],
    )
    def test_digest(self, tmp_path, argv, infile, expected):
        assert _output_digest(tmp_path, argv, infile) == expected


def _pinned_rank_market(n: int) -> dict:
    """A rank-based market, top utility -1 on each side, whose consecutive
    utility ratios are drawn from [1.05, 3)."""
    rng = np.random.default_rng(100 + n)
    sides = {}
    for side in ("men", "women"):
        ratios = np.concatenate(([1.0], rng.uniform(1.05, 3.0, size=n - 1)))
        sides[side] = {"kind": "rank", "n": n, "rank_utilities": (-np.cumprod(ratios)).tolist()}
    return {"schema": 1, **sides}


def _pinned_extensional_market(n: int, entries: int) -> dict:
    """An extensional market storing ``entries`` distinct random profiles
    per side, each agent's utilities drawn from [-10, -0.1] and sorted to
    decrease along its ranking."""
    rng = np.random.default_rng(200 + n)
    sides = {}
    for side in ("men", "women"):
        table = {}
        while len(table) < entries:
            ranks = np.array([rng.permutation(n) for _ in range(n)])
            values = np.empty((n, n))
            np.put_along_axis(values, ranks, -np.sort(rng.uniform(0.1, 10.0, (n, n))), axis=1)
            table.setdefault(ranks.tobytes(), {"ranks": ranks.tolist(), "values": values.tolist()})
        sides[side] = {"kind": "extensional", "n": n, "entries": list(table.values())}
    return {"schema": 1, **sides}


_TIED_RANK_MARKET = {
    "schema": 1,
    "men": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -2.0, -4.0]},
    "women": {"kind": "rank", "n": 3, "rank_utilities": [-1.0, -3.0, -9.0]},
}


class TestPinnedRobustnessOutputs:
    """sha256 of `robustness`, `witness` and `appendix-a` outputs, recorded
    while utilities and factors were still tuples of Python floats; the
    array representation must keep these bytes."""

    @pytest.mark.parametrize(
        "argv, infile, expected",
        [
            (
                ("robustness",),
                _pinned_rank_market(6),
                "e3e638c0365da0293e784bf9068a3c43bc5a779bec26bb738f24edda5ffc5edc",
            ),
            (
                ("robustness",),
                _pinned_extensional_market(3, 8),
                "2c770f7141e413c0efaa0d28222d3d1c42ea8eaa04ac54a985b16c8d1f432584",
            ),
            (
                ("witness", "--c", "2.5"),
                _pinned_rank_market(6),
                "5205f550ea0470106f90149b3c574d1eefa3720bbfbd5b6ae37806868e7bb42a",
            ),
            (
                ("witness", "--c", "2"),
                _TIED_RANK_MARKET,
                "c1f7f32e6d41444c8a7d02947a942770b7b555225eebd2c52115ba37af357710",
            ),
            (
                ("witness", "--c", "1.8"),
                _pinned_extensional_market(3, 8),
                "90642e2c5e82630529e13d5221f68bf6e2e33b8a06c1eb8bad3f39f0faa9f3b0",
            ),
            (
                ("witness", "--c", "1.01"),
                _pinned_extensional_market(3, 8),
                "2055a1c53c1ab5748d9338fc4d88b7270b4bca41aed8938bee78522270ca8f2d",
            ),
            (
                ("appendix-a", "--n", "4", "--c", "1.2", "--eps", "0.3", "--trials", "300",
                 "--seed", "5"),
                None,
                "e7889b4240f4577de745597d5d638906ddcd00e327457e1e6989cde9d8664cd6",
            ),
            (
                ("appendix-a", "--n", "2", "--c", "1", "--eps", "1e-3", "--trials", "50",
                 "--seed", "6"),
                None,
                "493e4d2e3880c189588dcc3f5b7d965b519a55867c73b5eeee557962b548cc7d",
            ),
        ],
        ids=["robustness-rank", "robustness-extensional", "witness-rank", "witness-tie",
             "witness-extensional", "witness-extensional-near-one", "appendix-a-4", "appendix-a-2"],
    )
    def test_digest(self, tmp_path, argv, infile, expected):
        assert _output_digest(tmp_path, argv, infile) == expected


def _pinned_graph(*graphs) -> dict:
    """The disjoint union of ``(vertex_count, edges)`` graphs as a space
    with unit edge weights."""
    offset, edges = 0, []
    for vertex_count, part in graphs:
        edges += [[a + offset, b + offset, 1.0] for a, b in part]
        offset += vertex_count
    return {"schema": 1, "vertices": offset, "edges": edges}


_GRID_6X6 = (36, [(v, v + 1) for v in range(36) if v % 6 < 5] + [(v, v + 6) for v in range(30)])
_K33 = (6, [(a, b) for a in range(3) for b in range(3, 6)])
_TRIANGLE = (3, [(0, 1), (1, 2), (2, 0)])

_PINNED_CONFIG = """\
[hardness]
family = polynomial
scale = 1.3
exponent = 1.5
[decay]
family = power
scale = 0.7
exponent = 2.0
[constants]
size_constant = 0.3
genus_constant = 1.7
market_constant = 2.9
"""


class TestPinnedPlanarityAndBoundOutputs:
    """sha256 of `planarity` and `bound-table` outputs, recorded while
    `planarity` still decided each component twice and `bound_table` still
    spelled out its own cap formulas; reading the verdict off the genus bound
    and the caps from the embedding module must keep these bytes."""

    @pytest.mark.parametrize(
        "infile, expected",
        [
            (
                _pinned_graph(_GRID_6X6),
                "14740616a920bffee14c6188f49dc48d38289744ab3e0fbd1afa5c45b6d3dbfe",
            ),
            (
                _pinned_graph(petersen()),
                "e6ba4dec7a62f49703bd4afcd3219bc2de615916da77229755d04b544f2e7677",
            ),
            (
                _pinned_graph(_K33, _TRIANGLE, _K33),
                "c358c384d8c266b070f88befa12394a4959d5bd8d3eef057784471e9bd4e539b",
            ),
        ],
        ids=["grid", "petersen", "k33-union"],
    )
    def test_planarity_digest(self, tmp_path, infile, expected):
        assert _output_digest(tmp_path, ("planarity",), infile) == expected

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("csv", "9002c568a0077e56cdbe95d0dc000c36a439fe5eaf649d1adb51ec4b20196ce0"),
            ("text", "2ff853f7d5d71cbfa768b715253d8cd229add372d2a0c452d52b6930d4781d27"),
        ],
    )
    def test_bound_table_digest(self, tmp_path, fmt, expected):
        config = tmp_path / "comm.cfg"
        config.write_text(_PINNED_CONFIG)
        argv = ("bound-table", "--n", "7", "--space-size", "1000", "--genus", "5",
                "--format", fmt, "--config", str(config))
        assert _output_digest(tmp_path, argv) == expected


class TestPinnedSearchOutputs:
    """sha256 of a `banach-search` output, recorded before any rewrite of
    the Euclidean cap search; a faster search must keep these bytes."""

    def test_banach_search_digest(self, tmp_path):
        argv = ("banach-search", "--dim", "3", "--restarts", "20", "--iters", "200", "--seed", "5")
        expected = "2bd761f8ce60269b74e4463c77fa8f1ab9e16cb651777323f5fb7f63df807960"
        assert _output_digest(tmp_path, argv) == expected


class TestPinnedJsonOutputs:
    """sha256 of JSON outputs, recorded while ``json.dumps`` still wrote
    every JSON output: a 44-agent witness (four n x n matrices of floats and
    ints), and the "inf" strings of `robustness` and `commreq`. The writer
    must keep these bytes."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ("witness", "--geometric-base", "2.0", "--n", "44", "--c", "2.02"),
                "8df1c682ed20fae65274fd53c024d8efcac9ce7e9c6557add868ca1788f90a44",
            ),
            (
                ("robustness", "--geometric-base", "2", "--n", "1"),
                "c06ebe3997343b4658ca29aac83277b3e215d0be7c5b5253a8fc08944432955c",
            ),
            (
                ("commreq", "--xi", "inf", "--n", "5"),
                "89171777b4aac4aeab2330cee27bb2d609cd032892b6ef7df86d51cccaa29a2c",
            ),
        ],
        ids=["witness-geometric-44", "robustness-one-agent", "commreq-infinite-xi"],
    )
    def test_digest(self, tmp_path, argv, expected):
        assert _output_digest(tmp_path, argv) == expected


def _assert_malformed(directory, argv, text):
    """``text`` as the --in file must exit 65 with one stderr line. In-process,
    so an exception escaping main() fails the test the way a traceback would
    show from the command line."""
    path = directory / "malformed.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--in", str(path)])
    assert code == EX_DATAERR and out.getvalue() == ""
    assert err.getvalue().startswith("error: 65:") and err.getvalue().count("\n") == 1


_ORDINAL_2 = {"n": 2, "ranks": [[0, 1], [1, 0]]}
_RANK_2 = {"kind": "rank", "n": 2, "rank_utilities": [-1.0, -2.0]}


class TestStrictJsonNumbers:
    """Counts, ranks and vertex indices must be JSON integers and values
    JSON integers or floats: a bool, a string or (for an integer field) a
    float is a malformed file, not a number to coerce."""

    @pytest.mark.parametrize("command", ["solve", "stable-set"])
    @pytest.mark.parametrize(
        "side",
        [
            {"n": 2, "ranks": [[0.0, 1.0], [1.0, 0.0]]},
            {"n": 2, "ranks": [[True, 0], [0, 1]]},
            {"n": 2, "ranks": [[0, "1"], [1, 0]]},
            {"n": 2.5, "ranks": [[0, 1], [1, 0]]},
            {"n": 2.0, "ranks": [[0, 1], [1, 0]]},
            {"n": "2", "ranks": [[0, 1], [1, 0]]},
            {"n": True, "ranks": [[0]]},
        ],
        ids=["float-ranks", "true-rank", "string-rank", "n-2.5", "n-2.0", "n-string", "n-true"],
    )
    def test_ordinal_market(self, tmp_path, command, side):
        _assert_malformed(tmp_path, (command,), json.dumps({"men": side, "women": _ORDINAL_2}))

    @pytest.mark.parametrize("command", [("robustness",), ("witness", "--c", "1.5")])
    @pytest.mark.parametrize(
        "side",
        [
            {"kind": "rank", "n": "2", "rank_utilities": [-1.0, -2.0]},
            {"kind": "rank", "n": 2.0, "rank_utilities": [-1.0, -2.0]},
            {"kind": "rank", "n": 2, "rank_utilities": ["-1", -2.0]},
            {"kind": "rank", "n": 2, "rank_utilities": [False, -2.0]},
            {"kind": "extensional", "n": 1,
             "entries": [{"ranks": [[0]], "values": [[True]]}]},
            {"kind": "extensional", "n": 1,
             "entries": [{"ranks": [[0.0]], "values": [[-1.0]]}]},
        ],
        ids=["n-string", "n-float", "string-utility", "false-utility", "true-value", "float-rank"],
    )
    def test_matching_market(self, tmp_path, command, side):
        women = {"kind": "rank", "n": 1, "rank_utilities": [-1.0]} if side["n"] == 1 else _RANK_2
        _assert_malformed(tmp_path, command, json.dumps({"men": side, "women": women}))

    @pytest.mark.parametrize("command", ["polarity", "genspace"])
    @pytest.mark.parametrize(
        "document",
        [
            {"n": 2.5, "values": [[-1, -2], [-3, -4]]},
            {"n": "2", "values": [[-1, -2], [-3, -4]]},
            {"n": 2, "values": [[-1, False], [-3, -4]]},
            {"n": 2, "values": [[-1, "-2"], [-3, -4]]},
        ],
        ids=["n-2.5", "n-string", "false-value", "string-value"],
    )
    def test_utilities(self, tmp_path, command, document):
        _assert_malformed(tmp_path, (command,), json.dumps(document))

    @pytest.mark.parametrize("command", ["planarity", "embed"])
    @pytest.mark.parametrize(
        "document",
        [
            {"vertices": 3.7, "edges": [[0, 1, 1.0], [1, 2, 2.0]]},
            {"vertices": "3", "edges": [[0, 1, 1.0], [1, 2, 2.0]]},
            {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, "2"]]},
            {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, True]]},
            {"vertices": 3, "edges": [[0, 1.0, 1.0], [1, 2, 2.0]]},
            {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]], "alpha": [0.0], "beta": [2]},
            {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]], "alpha": [0], "beta": [True]},
            {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 10 ** 400]]},
        ],
        ids=["vertices-3.7", "vertices-string", "string-weight", "true-weight",
             "float-endpoint", "float-alpha", "true-beta", "overflowing-weight"],
    )
    def test_space(self, tmp_path, command, document):
        _assert_malformed(tmp_path, (command,), json.dumps(document))

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("planarity",), '{"vertices": 2, "edges": [[0, 1, Infinity]]}'),
            (("planarity",), '{"vertices": 2, "edges": [[0, 1, 1e400]]}'),
            (("polarity",), '{"n": 2, "values": [[-1.0, -Infinity], [-2.0, -1.0]]}'),
            (("polarity",), '{"n": 2, "values": [[-1.0, -1e400], [-2.0, -1.0]]}'),
            (("genspace",), '{"n": 2, "values": [[-1.0, -Infinity], [-2.0, -1.0]]}'),
            (("genspace",), '{"n": 2, "values": [[-1.0, -1e400], [-2.0, -1.0]]}'),
            (("robustness",), '{"men": {"kind": "rank", "n": 2, "rank_utilities": [-1.0, -Infinity]},'
                              ' "women": {"kind": "rank", "n": 2, "rank_utilities": [-1.0, -2.0]}}'),
            (("robustness",), '{"men": {"kind": "rank", "n": 2, "rank_utilities": [-1.0, -2.0]},'
                              ' "women": {"kind": "rank", "n": 2, "rank_utilities": [-1.0, -1e400]}}'),
        ],
        ids=["planarity-inf", "planarity-1e400", "polarity-inf", "polarity-1e400",
             "genspace-inf", "genspace-1e400", "robustness-inf", "robustness-1e400"],
    )
    def test_non_finite_number(self, tmp_path, argv, text):
        _assert_malformed(tmp_path, argv, text)

    def test_integer_values_still_read(self, capsys, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text(json.dumps({"n": 2, "values": [[-1, -4], [-4, -1]]}))
        assert run(capsys, "polarity", "--in", str(path))[0] == 0
        path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1, 1], [1, 2, 2]]}))
        assert run(capsys, "planarity", "--in", str(path))[0] == 0
        path.write_text(json.dumps({"men": dict(_RANK_2, rank_utilities=[-1, -2]), "women": _RANK_2}))
        assert run(capsys, "robustness", "--in", str(path))[0] == 0

    @pytest.mark.parametrize(
        "argv, document, message",
        [
            (("planarity",), {"vertices": 3, "edges": {}}, "bad metric space: edges must be a JSON array, got {}"),
            (("embed", "--quality", "1"), {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]], "alpha": {}, "beta": {}},
             "bad metric space: alpha must be a JSON array, got {}"),
            (("planarity",), {"vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]], "alpha": [0], "beta": {"2": 0}},
             "bad metric space: beta must be a JSON array, got {'2': 0}"),
            (("robustness",), {"men": {"kind": "extensional", "n": 1, "entries": {"a": 1}},
                               "women": {"kind": "rank", "n": 1, "rank_utilities": [-1.0]}},
             "bad market profile: entries must be a JSON array, got {'a': 1}"),
        ],
        ids=["edges", "alpha", "beta", "entries"],
    )
    def test_object_for_array(self, capsys, tmp_path, argv, document, message):
        # An object iterates as its keys, so it must not pass for a list.
        path = tmp_path / "in.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert (code, out) == (EX_DATAERR, "")
        assert err == f"error: 65: {path}: {message}\n"

    def test_library_boundary_raises_type_error(self):
        from matchrobust import OrdinalProfile, UtilityProfile
        from matchrobust.metric import space_from_json_dict

        with pytest.raises(TypeError):
            OrdinalProfile.from_json_dict({"n": 2, "ranks": [[0.0, 1.0], [1.0, 0.0]]})
        with pytest.raises(TypeError):
            UtilityProfile.from_json_dict({"n": 1, "values": [[False]]})
        with pytest.raises(TypeError):
            space_from_json_dict({"vertices": 2.0, "edges": [[0, 1, 1.0]]})


# Malformed-input fuzzing of the exit-code contract: every case below is a
# broken input file and must exit 65 with a one-line message, never raise.

_WRONG_SCALARS = ("abc", "", None, [], {}, [1], {"a": 1}, math.inf, math.nan)
# Numbers that are not JSON integers: floats, bools and numeric strings.
_NOT_INTEGERS = (0.0, 1.0, 2.5, True, False, "0", "1")


@st.composite
def _valid_utilities(draw) -> dict:
    n = draw(st.integers(1, 4))
    row = st.lists(st.floats(-10.0, -0.01), min_size=n, max_size=n)
    return {"schema": 1, "n": n, "values": draw(st.lists(row, min_size=n, max_size=n))}


@st.composite
def _valid_space(draw) -> dict:
    vertices = draw(st.integers(2, 6))
    vertex = st.integers(0, vertices - 1)
    edge = st.tuples(vertex, vertex, st.floats(0.5, 3.0)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(edge.map(list), min_size=1, max_size=8))
    data = {"schema": 1, "vertices": vertices, "edges": edges}
    if draw(st.booleans()):
        data["alpha"], data["beta"] = [0], [vertices - 1]
    return data


def _truncated(valid):
    return valid.map(json.dumps).flatmap(
        lambda text: st.integers(0, len(text) - 1).map(lambda k: text[:k])
    )


_WRONG_TOP_LEVEL = st.sampled_from(([], "abc", 3, None, True, [[-1.0]])).map(json.dumps)


@st.composite
def _malformed_utilities(draw) -> str:
    data = draw(_valid_utilities())
    n, values = data["n"], data["values"]
    a, x = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    fault = draw(st.sampled_from(("missing", "n", "values", "cell", "positive", "ragged", "rows")))
    if fault == "missing":
        del data["values"]
    elif fault == "n":
        data["n"] = draw(st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (float(n), str(n))))
    elif fault == "values":
        data["values"] = draw(st.sampled_from(("abc", None, 3, True, [3], [None])))
    elif fault == "cell":
        values[a][x] = draw(st.sampled_from(_WRONG_SCALARS + (True,)))
    elif fault == "positive":
        values[a][x] = draw(st.floats(min_value=5e-324))
    elif fault == "ragged":
        values[a] = values[a][:-1] if draw(st.booleans()) else values[a] + [-1.0]
    else:
        data["values"] = values[:-1] if draw(st.booleans()) else values + [[-1.0] * n]
    return json.dumps(data)


@st.composite
def _malformed_space(draw) -> str:
    data = draw(_valid_space())
    vertices, edges = data["vertices"], data["edges"]
    e = draw(st.integers(0, len(edges) - 1))
    fault = draw(
        st.sampled_from(
            ("missing", "vertices", "edges", "edge", "endpoint", "weight", "ragged",
             "out_of_range", "negative", "placement", "half_placement")
        )
    )
    if fault == "missing":
        del data[draw(st.sampled_from(("vertices", "edges")))]
    elif fault == "vertices":
        data["vertices"] = draw(
            st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (0, -3, float(vertices), str(vertices)))
        )
    elif fault == "edges":
        data["edges"] = draw(st.sampled_from(("abc", None, 5, True, {"a": 1})))
    elif fault == "edge":
        edges[e] = draw(st.sampled_from(("abc", None, 5, {}, [])))
    elif fault == "endpoint":
        edges[e][draw(st.integers(0, 1))] = draw(
            st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (float(edges[e][0]),))
        )
    elif fault == "weight":
        edges[e][2] = draw(st.sampled_from(_WRONG_SCALARS))
    elif fault == "ragged":
        edges[e] = edges[e][:2] if draw(st.booleans()) else edges[e] + [1.0]
    elif fault == "out_of_range":
        edges[e][draw(st.integers(0, 1))] = draw(
            st.integers(vertices, vertices + 10) | st.integers(-10, -1)
        )
    elif fault == "negative":
        edges[e][2] = draw(st.floats(max_value=-5e-324))
    elif fault == "half_placement":
        # One of alpha and beta without the other, whatever the one holds.
        data.pop("alpha", None)
        data.pop("beta", None)
        data[draw(st.sampled_from(("alpha", "beta")))] = draw(st.sampled_from(([0], "junk", None, [])))
    else:
        data["alpha"], data["beta"] = [0], [0]
        data[draw(st.sampled_from(("alpha", "beta")))] = [
            draw(st.integers(vertices, vertices + 10) | st.integers(-10, -1))
        ]
    return json.dumps(data)


@st.composite
def _valid_ordinal_market(draw) -> dict:
    n = draw(st.integers(1, 4))
    rows = st.lists(st.permutations(range(n)).map(list), min_size=n, max_size=n)
    return {
        "schema": 1,
        "men": {"n": n, "ranks": draw(rows)},
        "women": {"n": n, "ranks": draw(rows)},
    }


@st.composite
def _malformed_ordinal_market(draw) -> str:
    data = draw(_valid_ordinal_market())
    name = draw(st.sampled_from(("men", "women")))
    side = data[name]
    n, ranks = side["n"], side["ranks"]
    a, i = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    fault = draw(
        st.sampled_from(
            ("missing", "side", "n", "ranks", "row", "cell", "ragged", "rows", "permutation",
             "mismatch")
        )
    )
    if fault == "missing":
        del data[name]
    elif fault == "side":
        data[name] = draw(st.sampled_from(("abc", None, 3, True, [], [[0]])))
    elif fault == "n":
        side["n"] = draw(st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (float(n), str(n))))
    elif fault == "ranks":
        side["ranks"] = draw(st.sampled_from(("abc", None, 3, True, [3], [None], {"a": 1})))
    elif fault == "row":
        ranks[a] = draw(st.sampled_from(("abc", None, 3, True, {"a": 1})))
    elif fault == "cell":
        ranks[a][i] = draw(
            st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (float(ranks[a][i]), str(ranks[a][i])))
        )
    elif fault == "ragged":
        ranks[a] = ranks[a][:-1] if draw(st.booleans()) else ranks[a] + [0]
    elif fault == "rows":
        side["ranks"] = ranks[:-1] if draw(st.booleans()) else ranks + [list(range(n))]
    elif fault == "permutation":
        if n > 1 and draw(st.booleans()):
            ranks[a][i] = ranks[a][(i + 1) % n]
        else:
            ranks[a][i] = draw(st.integers(n, n + 10) | st.integers(-10, -1))
    else:
        data[name] = {"n": n + 1, "ranks": [list(range(n + 1))] * (n + 1)}
    return json.dumps(data)


@st.composite
def _valid_matching_market(draw) -> dict:
    def side():
        if draw(st.booleans()):
            return {"kind": "rank", "n": n, "rank_utilities": [-(2.0**k) for k in range(n)]}
        rows = st.lists(st.permutations(range(n)).map(list), min_size=n, max_size=n)
        entries = []
        profiles = st.lists(rows, min_size=1, max_size=3, unique_by=lambda r: str(r))
        for ranks in draw(profiles):
            values = [[0.0] * n for _ in range(n)]
            for agent, row in enumerate(ranks):
                for pos, x in enumerate(row):
                    values[agent][x] = -1.0 - pos
            entries.append({"ranks": ranks, "values": values})
        return {"kind": "extensional", "n": n, "entries": entries}

    n = draw(st.integers(1, 3))
    return {"schema": 1, "men": side(), "women": side()}


@st.composite
def _malformed_matching_market(draw) -> str:
    data = draw(_valid_matching_market())
    name = draw(st.sampled_from(("men", "women")))
    side = data[name]
    n = side["n"]
    a, x = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    wrong_value = st.sampled_from(_WRONG_SCALARS + (True, False, "-1", 1.0))
    common = ("missing", "side", "kind", "n", "mismatch")
    if side["kind"] == "rank":
        fault = draw(st.sampled_from(common + ("utilities", "utility", "ragged")))
    else:
        fault = draw(st.sampled_from(common + ("entries", "entry", "ranks", "rank", "value",
                                               "inconsistent", "duplicate")))
    entry = side.get("entries", [{}])[0]
    if fault == "missing":
        del data[name]
    elif fault == "side":
        data[name] = draw(st.sampled_from(("abc", None, 3, True, [], [[0]])))
    elif fault == "kind":
        side["kind"] = draw(st.sampled_from(("abc", None, 3, True, [], "Rank")))
    elif fault == "n":
        side["n"] = draw(st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (float(n), str(n))))
    elif fault == "mismatch":
        data[name] = {"kind": "rank", "n": n + 1, "rank_utilities": [-1.0 - k for k in range(n + 1)]}
    elif fault == "utilities":
        side["rank_utilities"] = draw(st.sampled_from(("abc", None, 3, True, {"a": 1})))
    elif fault == "utility":
        side["rank_utilities"][x] = draw(wrong_value)
    elif fault == "ragged":
        side["rank_utilities"] = side["rank_utilities"][:-1] or [-1.0, -2.0]
    elif fault == "entries":
        side["entries"] = draw(st.sampled_from(("abc", None, 3, True, [], [None], [{}])))
    elif fault == "entry":
        del entry[draw(st.sampled_from(("ranks", "values")))]
    elif fault == "ranks":
        entry["ranks"][a][x] = draw(st.sampled_from(_WRONG_SCALARS + _NOT_INTEGERS + (n,)))
    elif fault == "rank":
        entry["ranks"][a] = entry["ranks"][a][:-1]
    elif fault == "value":
        entry["values"][a][x] = draw(wrong_value)
    elif fault == "duplicate":
        side["entries"].append(json.loads(json.dumps(entry)))
    else:
        # Utilities that no longer induce the entry's ranking; a single
        # alternative cannot be misordered, so at n = 1 the utility turns
        # positive instead.
        row = entry["values"][a]
        entry["values"][a] = [-v for v in row] if n == 1 else row[::-1]
    return json.dumps(data)


def _two_agent_entries() -> list:
    """The four entries of a full n = 2 extensional side, in profile order;
    agent a's utilities are -1 - pos - a / 4 down its ranking."""
    entries = []
    for rows in itertools.product(((0, 1), (1, 0)), repeat=2):
        values = [[0.0, 0.0], [0.0, 0.0]]
        for a, row in enumerate(rows):
            for pos, x in enumerate(row):
                values[a][x] = -1.0 - pos - 0.25 * a
        entries.append({"ranks": [list(row) for row in rows], "values": values})
    return entries


def _set(k, field, a, x, value):
    def fault(entries):
        if x is None:
            entries[k][field][a] = value
        else:
            entries[k][field][a][x] = value

    return fault


def _duplicate(k, of):
    def fault(entries):
        entries[k] = json.loads(json.dumps(entries[of]))

    return fault


def _reverse(k, a):
    def fault(entries):
        entries[k]["values"][a].reverse()

    return fault


class TestExtensionalSideFaults:
    """An extensional side is checked as a whole, and a malformed one reports
    the first bad entry in file order with the message each entry's own
    constructors give. The messages are those of the entry-by-entry reader
    the bulk check replaced."""

    @pytest.mark.parametrize(
        "faults, message",
        [
            ([_set(1, "ranks", 0, 0, True)], "rank must be a JSON integer, got True"),
            ([_set(1, "ranks", 1, 1, 1.0)], "rank must be a JSON integer, got 1.0"),
            ([_set(2, "values", 0, 1, math.nan)], "utility must be finite, got nan"),
            ([_set(2, "values", 1, 0, math.inf)], "utility must be finite, got inf"),
            ([_set(2, "values", 1, 0, -math.inf)], "utility must be finite, got -inf"),
            ([_set(3, "values", 1, 1, 0.5)], "utility (1,1) = 0.5 is positive or NaN"),
            ([_set(3, "values", 1, 1, -(10**400))], "int too large to convert to float"),
            ([_set(1, "ranks", 1, None, [0])], "row 1 is not a permutation of 0..1"),
            ([_set(1, "values", 0, None, [-1.0])], "utility rows must form an n x n matrix of numbers"),
            ([_set(2, "ranks", 0, None, [0, 0])], "row 0 is not a permutation of 0..1"),
            ([_duplicate(2, 0)], "two entries for ranks [[0, 1], [0, 1]]"),
            ([_reverse(1, 0)], "inconsistent table entry: utilities do not induce ((0, 1), (1, 0))"),
            ([_set(3, "values", 0, None, [-1.0, -1.0])], "agent 0 holds equal utilities for alternatives 0 and 1"),
            # Two faults: a parse fault anywhere comes before any
            # inconsistency, and otherwise the earlier entry's fault is reported.
            ([_reverse(1, 0), _set(3, "ranks", 0, 0, True)], "rank must be a JSON integer, got True"),
            ([_set(1, "values", 1, 1, 2), _set(2, "ranks", 0, 0, 0.0)], "utility (1,1) = 2.0 is positive or NaN"),
            ([_duplicate(1, 0), _set(3, "values", 0, 0, math.nan)], "two entries for ranks [[0, 1], [0, 1]]"),
            ([_reverse(3, 0), _set(1, "values", 1, None, [-2, -2])],
             "agent 1 holds equal utilities for alternatives 0 and 1"),
            ([lambda entries: entries[2].pop("values")], "'values'"),
        ],
        ids=["bool-rank", "float-rank", "nan", "inf", "neg-inf", "positive", "huge-int", "ragged-ranks",
             "ragged-values", "non-permutation", "duplicate", "inconsistent", "tie", "inconsistent-then-rank",
             "value-then-rank", "duplicate-then-nan", "inconsistent-then-tie", "missing-values"],
    )
    def test_first_bad_entry_is_reported(self, capsys, tmp_path, faults, message):
        entries = _two_agent_entries()
        for fault in faults:
            fault(entries)
        path = tmp_path / "market.json"
        side = {"kind": "extensional", "n": 2, "entries": entries}
        path.write_text(json.dumps({"schema": 1, "men": side, "women": side}))
        code, out, err = run(capsys, "robustness", "--in", str(path))
        assert (code, out) == (EX_DATAERR, "")
        assert err == f"error: 65: {path}: bad market profile: {message}\n"

    def test_float_n_is_reported(self, capsys, tmp_path):
        # 2.0 equals the entries' size, so only the type check on n rejects it.
        path = tmp_path / "market.json"
        side = {"kind": "extensional", "n": 2.0, "entries": _two_agent_entries()}
        path.write_text(json.dumps({"schema": 1, "men": side, "women": side}))
        code, out, err = run(capsys, "robustness", "--in", str(path))
        assert (code, out) == (EX_DATAERR, "")
        assert err == f"error: 65: {path}: bad market profile: n must be a JSON integer, got 2.0\n"

    def test_valid_side_loads(self, capsys, tmp_path):
        path = tmp_path / "market.json"
        side = {"kind": "extensional", "n": 2, "entries": _two_agent_entries()}
        path.write_text(json.dumps({"schema": 1, "men": side, "women": side}))
        code, out, _err = run(capsys, "robustness", "--in", str(path))
        assert code == 0 and json.loads(out)["robustness"] == 2.25 / 1.25


class TestMalformedInputFuzz:
    @settings(max_examples=300)
    @given(
        st.sampled_from((("polarity",), ("genspace",))),
        _truncated(_valid_utilities()) | _WRONG_TOP_LEVEL | _malformed_utilities(),
    )
    def test_utilities_input_is_65(self, tmp_path_factory, argv, text):
        _assert_malformed(tmp_path_factory.getbasetemp(), argv, text)

    @settings(max_examples=300)
    @given(
        st.sampled_from(
            (("planarity",), ("embed", "--quality", "1"), ("distortion", "--quality", "1"))
        ),
        _truncated(_valid_space()) | _WRONG_TOP_LEVEL | _malformed_space(),
    )
    @example(argv=("planarity",), text='{"vertices": 2, "edges": [[0, 1, 1.0]], "alpha": "junk"}')
    # An edge endpoint or a placement vertex equal to "vertices", one past the last.
    @example(argv=("planarity",), text='{"vertices": 3, "edges": [[0, 3, 1.0]]}')
    @example(argv=("planarity",), text='{"vertices": 3, "edges": [[3, 0, 1.0]]}')
    @example(argv=("planarity",), text='{"vertices": 3, "edges": [[0, 1, 1.0]], "alpha": [3], "beta": [0]}')
    @example(argv=("planarity",), text='{"vertices": 3, "edges": [[0, 1, 1.0]], "alpha": [0], "beta": [3]}')
    def test_space_input_is_65(self, tmp_path_factory, argv, text):
        _assert_malformed(tmp_path_factory.getbasetemp(), argv, text)

    @settings(max_examples=300)
    @given(
        st.sampled_from((("solve",), ("solve", "--format", "text"), ("stable-set",))),
        _truncated(_valid_ordinal_market()) | _WRONG_TOP_LEVEL | _malformed_ordinal_market(),
    )
    def test_ordinal_market_input_is_65(self, tmp_path_factory, argv, text):
        _assert_malformed(tmp_path_factory.getbasetemp(), argv, text)

    @settings(max_examples=300)
    @given(
        st.sampled_from((("robustness",), ("witness", "--c", "1.5"))),
        _truncated(_valid_matching_market()) | _WRONG_TOP_LEVEL | _malformed_matching_market(),
    )
    def test_matching_market_input_is_65(self, tmp_path_factory, argv, text):
        _assert_malformed(tmp_path_factory.getbasetemp(), argv, text)

    @given(st.sampled_from((("robustness",), ("witness", "--c", "1.5"))), _valid_matching_market())
    def test_valid_matching_market_is_read(self, tmp_path_factory, argv, data):
        # The fuzz above starts from these documents, so they must load.
        path = tmp_path_factory.getbasetemp() / "valid.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--in", str(path)])
        assert code == 0, err.getvalue()

    def test_deep_nesting_is_65(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "planarity", "--in", str(path))
        assert code == EX_DATAERR and out == "" and err.startswith("error: 65:")

    def test_undecodable_bytes_are_65(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"n": 1, "values": [[-1.0]]}')
        code, out, err = run(capsys, "polarity", "--in", str(path))
        assert code == EX_DATAERR and out == "" and err.startswith("error: 65:")


# Malformed --config files: every case must exit 65 naming the file, with
# one stderr line and nothing on stdout.

_CONFIG_KEYS = {
    "hardness": ("scale", "exponent"),
    "decay": ("scale", "exponent"),
    "constants": ("size_constant", "genus_constant", "market_constant"),
}
_FAMILIES = {"hardness": HARDNESS_FAMILIES, "decay": DECAY_FAMILIES}
_BAD_CONFIG_NUMBERS = (
    "abc", "", "0x10", "1.5.2", "-1", "nan", "NaN", "inf", "-inf", "Infinity", "-Infinity",
    "1e400", "-1e400", "1" + "0" * 400, "-1" + "0" * 400, '"1' + "0" * 400 + '"',
)


@st.composite
def _truncated_config(draw) -> str:
    """A valid family line cut short: inside the section header, or inside
    the line so that the key loses its "=" or the family name its tail."""
    section = draw(st.sampled_from(("hardness", "decay")))
    header = f"[{section}]"
    line = f"family = {draw(st.sampled_from(_FAMILIES[section]))}"
    if draw(st.booleans()):
        return header[: draw(st.integers(1, len(header) - 1))]
    return header + "\n" + line[: draw(st.integers(1, len(line) - 1))]


@st.composite
def _malformed_config(draw) -> str:
    section = draw(st.sampled_from(tuple(_CONFIG_KEYS)))
    key = draw(st.sampled_from(_CONFIG_KEYS[section]))
    fault = draw(st.sampled_from(("outside", "family", "value", "unknown section", "unknown key")))
    if fault == "outside":
        return f"{key} = 1\n[{section}]\n"
    if fault.startswith("unknown"):
        name = draw(st.from_regex(r"[A-Za-z_]{1,14}", fullmatch=True))
        if fault == "unknown section" and name not in _CONFIG_KEYS:
            return f"[{name}]\n{key} = 1\n"
        if name not in ("family", *_CONFIG_KEYS[section]):
            return f"[{section}]\n{name} = 1\n"
    if fault == "family" and section in _FAMILIES:
        name = draw(
            st.text("abcdefghijklmnopqrstuvwxyz_", max_size=14).filter(
                lambda v: v not in _FAMILIES[section]
            )
        )
        return f"[{section}]\nfamily = {name}\n"
    return f"[{section}]\n{key} = {draw(st.sampled_from(_BAD_CONFIG_NUMBERS))}\n"


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(
        st.sampled_from(("commreq", "bound-table")),
        _truncated_config() | _malformed_config(),
    )
    def test_config_is_65(self, tmp_path_factory, command, text):
        path = tmp_path_factory.getbasetemp() / "malformed.cfg"
        path.write_text(text)
        argv = [command, "--n", "4", "--config", str(path)]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EX_DATAERR and out.getvalue() == ""
        assert err.getvalue().startswith(f"error: 65: {path}: ")
        assert err.getvalue().count("\n") == 1
