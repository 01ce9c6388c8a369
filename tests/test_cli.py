import argparse
import json
import math
from pathlib import Path

import pytest

from matchrobust.cli import EX_DATAERR, EX_USAGE, EX_VALIDATION, build_parser, main


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
        ],
    )
    def test_nan_parameter_is_2(self, capsys, argv):
        code, out, _err = run(capsys, *argv)
        assert code == EX_VALIDATION and out == ""

    @pytest.mark.parametrize("command", ["commreq", "bound-table"])
    @pytest.mark.parametrize("section", ["hardness", "decay"])
    def test_nan_config_scale_is_65(self, capsys, tmp_path, command, section):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(f"[{section}]\nscale = nan\n")
        argv = [command, "--n", "4", "--config", str(cfg)]
        if command == "bound-table":
            argv += ["--space-size", "64", "--genus", "2"]
        code, out, _err = run(capsys, *argv)
        assert code == EX_DATAERR and out == ""

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

    def test_nan_utilities_file_is_65(self, capsys, tmp_path):
        bad = tmp_path / "nan_u.json"
        bad.write_text(json.dumps({"schema": 1, "n": 2, "values": [[-1.0, math.nan], [-1.6, -1.1]]}))
        assert run(capsys, "polarity", "--in", str(bad))[0] == EX_DATAERR


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
