import argparse
import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestPinnedGeometryOutputs:
    """sha256 of geometry outputs, recorded before the polarity scan, the
    subset minima and the embed row formatting were vectorised; any change
    to those kernels must keep these bytes."""

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
        ],
        ids=["embed", "distortion", "polarity", "polarity-violated", "genspace"],
    )
    def test_digest(self, tmp_path, argv, infile, expected):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(infile))
        out = tmp_path / "out"
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


# Malformed-input fuzzing of the exit-code contract: every case below is a
# broken input file and must exit 65 with a one-line message, never raise.

_WRONG_SCALARS = ("abc", "", None, [], {}, [1], {"a": 1}, math.inf, math.nan)


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
        data["n"] = draw(st.sampled_from(_WRONG_SCALARS))
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
             "out_of_range", "negative", "placement")
        )
    )
    if fault == "missing":
        del data[draw(st.sampled_from(("vertices", "edges")))]
    elif fault == "vertices":
        data["vertices"] = draw(st.sampled_from(("abc", "", None, [], {}, math.inf, math.nan, 0, -3)))
    elif fault == "edges":
        data["edges"] = draw(st.sampled_from(("abc", None, 5, True, {"a": 1})))
    elif fault == "edge":
        edges[e] = draw(st.sampled_from(("abc", None, 5, {}, [])))
    elif fault == "endpoint":
        edges[e][draw(st.integers(0, 1))] = draw(st.sampled_from(_WRONG_SCALARS))
    elif fault == "weight":
        # An infinite weight is a valid edge that no shortest path uses.
        edges[e][2] = draw(st.sampled_from(tuple(v for v in _WRONG_SCALARS if v != math.inf)))
    elif fault == "ragged":
        edges[e] = edges[e][:2] if draw(st.booleans()) else edges[e] + [1.0]
    elif fault == "out_of_range":
        edges[e][draw(st.integers(0, 1))] = draw(
            st.integers(vertices, vertices + 10) | st.integers(-10, -1)
        )
    elif fault == "negative":
        edges[e][2] = draw(st.floats(max_value=-5e-324))
    else:
        data["alpha"], data["beta"] = [0], [0]
        data[draw(st.sampled_from(("alpha", "beta")))] = [
            draw(st.integers(vertices, vertices + 10) | st.integers(-10, -1))
        ]
    return json.dumps(data)


class TestMalformedInputFuzz:
    @staticmethod
    def _assert_malformed(tmp_path_factory, argv, text):
        # In-process, so an exception escaping main() fails the test the way
        # a traceback would show from the command line.
        path = tmp_path_factory.getbasetemp() / "malformed.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--in", str(path)])
        assert code == EX_DATAERR and out.getvalue() == ""
        assert err.getvalue().startswith("error: 65:") and err.getvalue().count("\n") == 1

    @settings(max_examples=300)
    @given(
        st.sampled_from((("polarity",), ("genspace",))),
        _truncated(_valid_utilities()) | _WRONG_TOP_LEVEL | _malformed_utilities(),
    )
    def test_utilities_input_is_65(self, tmp_path_factory, argv, text):
        self._assert_malformed(tmp_path_factory, argv, text)

    @settings(max_examples=300)
    @given(
        st.sampled_from(
            (("planarity",), ("embed", "--quality", "1"), ("distortion", "--quality", "1"))
        ),
        _truncated(_valid_space()) | _WRONG_TOP_LEVEL | _malformed_space(),
    )
    def test_space_input_is_65(self, tmp_path_factory, argv, text):
        self._assert_malformed(tmp_path_factory, argv, text)

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
