"""Command-line front end: parsing, dispatch, exit codes, rendering."""

import json
import os
import subprocess
import sys
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import ExactScalar, OrbitParams, as_point, cli, decide, errors, preset, scalar
from delzant.cli import (
    main,
    parse_point,
    parse_polytope,
    parse_scalar,
    parse_window,
)
from delzant.errors import ParseError, ValidationError

from test_polytope import reference_de_germ, reference_invariants


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# texts that no scalar constructor reads: decimals, exponents, digit
# separators, zero denominators, a bare root, a root of a non-square-free D,
# a leading plus, digits that are not ASCII and padding that is not ASCII
# whitespace (an ideographic and a no-break space)
BAD_TEXTS = ["0.5", "1e-3", "1_000", "1/0", "1+1/0√2", "√2", "1+1√4", "",
             "+1", "٢", "1+1√٢", "  2\u3000", "\u30002", "\u00a01/2"]


@st.composite
def scalars(draw):
    rat = st.fractions(max_denominator=10**4)
    return scalar(draw(rat), draw(rat), draw(st.sampled_from([1, 2, 3, 5, 7])))


class TestScalarGrammar:
    def test_parse_forms(self):
        assert parse_scalar("3") == scalar(3)
        assert parse_scalar("-7/2") == scalar(Fraction(-7, 2))
        assert parse_scalar("1/2+1/3√2") == scalar(
            Fraction(1, 2), Fraction(1, 3), 2
        )
        assert parse_scalar("1-1/2sqrt2") == scalar(1, Fraction(-1, 2), 2)
        assert parse_scalar("1+1/2√2") == scalar(1, Fraction(1, 2), 2)
        assert parse_scalar("1+1/2√3") == scalar(1, Fraction(1, 2), 3)

    def test_rejects(self):
        with pytest.raises(ParseError):
            parse_scalar("1.5")
        with pytest.raises(ParseError):
            parse_scalar("√2")  # grammar requires a rational head
        for zero_den in ("1/0", "-3/00", "1+1/0√2"):
            with pytest.raises(ParseError):
                parse_scalar(zero_den)
        assert parse_scalar("3/010") == scalar(Fraction(3, 10))

    def test_ascii_whitespace_pads_a_scalar(self):
        assert parse_scalar(" \t1+1/2√2\n") == scalar(1, Fraction(1, 2), 2)
        assert ExactScalar(" -7/2\r", "\f1/3\v", 2) == scalar(Fraction(-7, 2),
                                                             Fraction(1, 3), 2)
        assert parse_point(" 1, 2") == (scalar(1), scalar(2))
        # the ASCII separators that str.isspace takes pad a scalar too
        assert ExactScalar.of("\x1f2\x1c") == parse_scalar("\x1d2\x1e") == scalar(2)
        assert parse_point("\x1c1,2") == (scalar(1), scalar(2))

    @settings(max_examples=200, deadline=None)
    @given(scalars())
    def test_library_and_cli_read_the_same_texts(self, s):
        text = str(s)
        assert ExactScalar.of(text) == scalar(text) == parse_scalar(text) == s

    @pytest.mark.parametrize("text", BAD_TEXTS)
    def test_library_and_cli_reject_the_same_texts(self, text, capsys):
        for read in (ExactScalar.of, scalar, ExactScalar, lambda t: as_point([t])):
            with pytest.raises(ValueError):
                read(text)
        with pytest.raises(ParseError):
            parse_scalar(text)
        code, out, err = run(capsys, "invariants", "preset:cp2", "--point", f"{text},-1/5")
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    def test_rational_parts_take_rational_texts_only(self):
        assert ExactScalar("-7/2", "1/3", 2) == scalar(Fraction(-7, 2), Fraction(1, 3), 2)
        with pytest.raises(ValueError):
            ExactScalar("1+1√2")
        with pytest.raises(ValueError):
            scalar(1, "1+1√2", 2)
        assert scalar("1+1√2", 1, 2) == scalar(1, 2, 2)

    def test_windows(self):
        w = parse_window("-3..3,-1..1")
        assert w == ((scalar(-3), scalar(3)), (scalar(-1), scalar(1)))
        w = parse_window("*..3,0..*")
        assert w == ((None, scalar(3)), (scalar(0), None))

    @pytest.mark.parametrize("argv", [
        ["render", "preset:cp2", "--window", "1..0,0..1"],
        ["orbit", "preset:cp2", "--point", "-1/2,-1/5", "--max-norm", "1",
         "--window", "0..-1,-1..0"],
        ["equivalent", "preset:cp2", "--from", "-1/2,-1/5", "--to", "-1/5,-1/2",
         "--window", "-1..0,1/2..-1/2"],
    ], ids=["render", "orbit", "equivalent"])
    def test_reversed_window_exits_2(self, argv, capsys):
        # render once drew a reversed window with width="-100"
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    def test_points(self):
        assert parse_point("1/5,1/2") == (scalar(Fraction(1, 5)), scalar(Fraction(1, 2)))


class TestPolytopeFiles:
    def test_preset_uri(self):
        assert parse_polytope("preset:cp2").nfacets == 3

    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "field": {"D": 2},
                    "facets": [
                        {"normal": [1, 0], "offset": "1+1/2√2"},
                        {"normal": [0, 1], "offset": "1"},
                        {"normal": [-1, -1], "offset": "2"},
                    ],
                }
            )
        )
        poly = parse_polytope(str(path))
        assert poly.field_disc == 2
        assert poly.facets[0].offset == scalar(1, Fraction(1, 2), 2)
        # serialization is idempotent after the first normalization
        again = json.dumps(poly.to_json())
        path.write_text(again)
        assert parse_polytope(str(path)).to_json() == poly.to_json()

    def test_non_primitive_normal_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"dim": 2, "facets": [
                    {"normal": [2, 4], "offset": "1"},
                    {"normal": [0, 1], "offset": "1"},
                ]}
            )
        )
        with pytest.raises(ValidationError):
            parse_polytope(str(path))

    @pytest.mark.parametrize("data", [
        {"dim": True, "facets": [{"normal": [True], "offset": False},
                                 {"normal": [-1], "offset": True}]},
        {"dim": 1, "facets": [{"normal": [1], "offset": False},
                              {"normal": [-1], "offset": True}]},
    ], ids=["everywhere", "offsets"])
    def test_bool_entries_exit_2(self, capsys, tmp_path, data):
        # once read as the integers 0 and 1: the interval [0, 1], exit 0
        code, out, err = run(capsys, "check", _write(tmp_path, data))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    def test_float_offset_exits_2(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text(
            json.dumps({"dim": 1, "facets": [{"normal": [1], "offset": 0.5}]})
        )
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("disc, offset", [(4, "1"), (-1, "1")])
    def test_field_disc_not_squarefree_exits_2(self, capsys, tmp_path, disc, offset):
        # the field is the offsets': offset + 1√disc is no scalar
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 1, "facets": [
            {"normal": [1], "offset": f"{offset}+1√{disc}"},
        ]}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("field", [{"D": 4}, {"D": 0}, {"D": 2.0}, 2],
                             ids=["D4", "D0", "float-D", "not-an-object"])
    def test_file_field_is_written_not_read(self, capsys, tmp_path, field):
        # a declared field once bounded the offsets; rational ones give field 1
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 1, "field": field, "facets": [
            {"normal": [1], "offset": "0"}, {"normal": [-1], "offset": "1"},
        ]}))
        assert parse_polytope(str(path)).field_disc == 1
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and json.loads(out)["delzant"]

    def test_large_field_disc_exits_2(self, tmp_path):
        # trial division up to sqrt(D) never ends on this D, so the CLI runs
        # in a child process that a timeout stops
        disc = 1000000000000000000039
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"dim": 1, "facets": [
            {"normal": [1], "offset": f"1+1√{disc}"},
        ]}))
        src = Path(__file__).resolve().parent.parent / "src"
        parts = [str(src), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in parts if p))
        for argv in (["chekanov", "--tuple", f"1,1+1√{disc}"], ["check", str(path)]):
            done = subprocess.run([sys.executable, "-m", "delzant.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 2 and not done.stdout
            error = json.loads(done.stderr)
            assert error["error"] == "ParseError"
            assert f"field discriminant {disc} exceeds the bound" in error["message"]

    @pytest.mark.parametrize("dim, normal", [(2.9, [1, 0]), (2, [1.5, 0]), (True, [1, 0]),
                                             (2, [True, 0])])
    def test_float_normal_or_dim_exits_2(self, capsys, tmp_path, dim, normal):
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"dim": dim, "facets": [
            {"normal": normal, "offset": "1"},
            {"normal": [0, 1], "offset": "1"},
            {"normal": [-1, -1], "offset": "2"},
        ]}))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"


def _write(tmp_path, data):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("make_argv, error", [
    (lambda tmp: ["invariants", "preset:cp2", "--point", "1/0,0"], "ParseError"),
    (lambda tmp: ["invariants", "preset:cp2", "--point", "-1/2,1+1/0√2"], "ParseError"),
    (lambda tmp: ["check", _write(tmp, {"dim": 1, "facets": [{"normal": [1], "offset": "1/0"}]})],
     "ParseError"),
    (lambda tmp: ["chekanov", "--tuple", "1,1+1√4"], "ParseError"),
    (lambda tmp: ["chekanov", "--tuple", "1+1√2,1+1√3"], "ValueError"),
    (lambda tmp: ["check", _write(tmp, {"dim": 1, "facets": [
        {"normal": [1], "offset": "1+1√2"}, {"normal": [-1], "offset": "1+1√3"}]})],
     "ParseError"),
], ids=["zero-denominator", "zero-denominator-quad", "json-zero-denominator",
        "sqrt4-scalar", "mixed-fields", "file-mixed-fields"])
def test_malformed_input_names_a_library_error(make_argv, error, capsys, tmp_path):
    # these once printed ZeroDivisionError, AttributeError and ValueError, or exited 0;
    # two fields meet only in the library's mixed-field rule, a ValueError
    code, out, err = run(capsys, *make_argv(tmp_path))
    assert code == 2 and not out
    assert json.loads(err)["error"] == error


def _subparsers():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    return commands.choices


def _value_options():
    """(subcommand, option) for every option of every subcommand that takes a value."""
    return [
        (name, option)
        for name, sub in _subparsers().items()
        for action in sub._actions if action.nargs != 0
        for option in action.option_strings
    ]


def test_value_options_are_found():
    found = set(_value_options())
    assert {("orbit", "--window"), ("chekanov", "--tuple"), ("render", "--orbit-of")} <= found
    assert ("render", "--labels") not in found
    assert ("chekanov", "--field") not in found


def test_field_option_is_gone(capsys):
    # a scalar names its own field, so there is no session field to set
    code, out, err = run(capsys, "chekanov", "--field", "2", "--tuple", "1,1+1√2")
    assert code == 2 and not out
    assert "unrecognized arguments: --field" in err


@pytest.mark.parametrize("command, option", _value_options())
def test_negative_values_glue_onto_every_value_option(command, option):
    for value in ("-1", "-1/2,-1/5", "-3..3,-1..1", "-.5"):
        argv = [command, "preset:cp2", option, value, "--other", "-2"]
        assert cli._normalize_argv(argv) == [
            command, "preset:cp2", f"{option}={value}", "--other=-2"
        ]


def test_nothing_glues_after_a_bare_double_dash():
    argv = ["check", "--", "-1.json"]
    assert cli._normalize_argv(argv) == argv
    argv = ["invariants", "--point", "-1/2,-1/5", "--", "-2"]
    assert cli._normalize_argv(argv) == ["invariants", "--point=-1/2,-1/5", "--", "-2"]
    # a glued option takes no second value, and words are never glued
    assert cli._normalize_argv(["x", "--to=1", "-2", "--to", "preset:cp2"]) == [
        "x", "--to=1", "-2", "--to", "preset:cp2"
    ]


def test_a_dashed_positional_after_double_dash_reaches_the_file_reader(capsys):
    code, out, err = run(capsys, "check", "--", "-1.json")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError" and "-1.json" in err


@pytest.mark.parametrize("command, option", _value_options())
@pytest.mark.parametrize("bad", ["1/0", "x", "", "1_0", "+1", "٢"])
def test_every_value_option_is_read_by_its_parser_type(command, option, bad, capsys):
    # the malformed value comes first, so its reader runs before any other;
    # an integer's reader, `parse_int`, raises ParseError like the rest
    code, out, err = run(capsys, command, option, bad)
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError"


def test_integers_are_integer_scalars_of_the_grammar():
    for text, value in (("3", 3), ("-2", -2), ("007", 7), ("4/2", 2), ("1+0√2", 1),
                        (" 2", 2)):
        assert cli.parse_int(text) == value
    for bad in ("1/2", "1+1√2", "x"):
        with pytest.raises(ParseError):
            cli.parse_int(bad)
    # a direction may space its entries, as a point may
    assert cli.parse_direction("1, -1") == cli.parse_direction("2/2,-1") == (1, -1)


def test_a_preset_with_digits_that_are_not_ascii_is_a_parse_error(capsys):
    code, out, err = run(capsys, "invariants", "preset:cn(٣)", "--point", "1,1,1")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "UnknownPreset"


def test_a_preset_name_with_a_trailing_newline_is_a_parse_error(capsys):
    code, out, err = run(capsys, "invariants", "preset:cn(3)\n", "--point", "1,1,1")
    assert code == 2 and not out
    assert json.loads(err)["error"] == "UnknownPreset"


@pytest.mark.parametrize("command, required, caps", [
    ("orbit", ["--max-norm", "1", "--point", "0,0"], (1, None, 500, 32)),
    ("monodromy", ["--max-norm", "1", "--point", "0,0"], (1, None, 500, 32)),
    ("equivalent", ["--from", "0,0", "--to", "0,0"], (3, None, 500, 16)),
    ("render", ["--window", "0..1,0..1"], (2, "window", 200, 16)),
])
def test_search_caps_keep_each_commands_defaults(command, required, caps):
    parser = cli.build_parser()
    args = parser.parse_args([command, "preset:cp2", *required])
    window = "window" if args.window is not None else None
    assert (args.max_norm, window, args.max_points, args.max_depth) == caps
    # every required option is required: dropping one is a usage error
    for i in range(0, len(required), 2):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "preset:cp2", *required[:i], *required[i + 2:]])


def test_every_value_action_names_its_reader():
    # the polytope positionals too, and every integer is read by parse_int
    for sub in _subparsers().values():
        for action in sub._actions:
            if action.nargs != 0:
                assert action.type.__name__.startswith("parse_")
                assert getattr(cli, action.type.__name__) is action.type


@pytest.mark.parametrize("first, second", [("--from", "--to"), ("--to", "--from")])
def test_the_first_malformed_value_in_argv_is_reported(first, second, capsys):
    code, out, err = run(capsys, "ambient", "preset:cp2", first, "1/0,0", second, "x,0")
    assert code == 2 and not out
    assert json.loads(err) == {"error": "ParseError", "message": "bad scalar '1/0'"}


def test_a_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "poly.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and not out
    assert json.loads(err)["error"] == "ParseError" and str(path) in err


def test_help_runs_no_reader(capsys, monkeypatch):
    def refuse(text):
        raise AssertionError(f"a reader ran on {text!r}")

    monkeypatch.setattr(cli, "parse_polytope", refuse)
    for argv in [["--help"]] + [[name, "--help"] for name in _subparsers()]:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: delzant") and not err


# the errors that answer a question in the negative; every other error is usage
_NEGATIVE = {
    "HitsLowerFace", "NormalsDoNotSpan", "NotAdmissible", "NotDelzant",
    "NotEquivalent", "NotReductionType", "NotTransverse", "SliceInsideFacet",
    "SliceMissesPolytope", "UnboundedRay",
}
# leading constructor arguments of the classes that take more than a message
_EXTRA_ARGS = {
    "NotDelzant": ((0,), 2), "NotAdmissible": (None,), "PreconditionViolated": (0,),
}
_ERROR_CLASSES = sorted(
    (c for c in vars(errors).values()
     if isinstance(c, type) and issubclass(c, Exception)),
    key=lambda c: c.__name__,
) + [ValueError]


@pytest.mark.parametrize("cls", _ERROR_CLASSES, ids=lambda c: c.__name__)
def test_exit_code_and_stream_of_every_error(cls, capsys, monkeypatch):
    def handler(args):
        raise cls(*_EXTRA_ARGS.get(cls.__name__, ()), "boom")

    monkeypatch.setattr(cli, "_cmd_preset_list", handler)
    code, out, err = run(capsys, "preset-list")
    negative = cls.__name__ in _NEGATIVE
    assert code == (1 if negative else 2)
    shown, silent = (out, err) if negative else (err, out)
    assert json.loads(shown) == {"error": cls.__name__, "message": "boom"}
    assert silent == ""


class TestDispatch:
    def test_check_ok(self, capsys):
        code, out, _ = run(capsys, "check", "preset:cp2")
        assert code == 0
        data = json.loads(out)
        assert data["delzant"] and len(data["vertices"]) == 3

    def test_check_negative(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"dim": 2, "facets": [
                    {"normal": [1, 0], "offset": "0"},
                    {"normal": [0, 1], "offset": "0"},
                    {"normal": [-1, -2], "offset": "2"},
                ]}
            )
        )
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert json.loads(out)["delzant"] is False

    def test_equivalent_distinct_exit1(self, capsys):
        code, out, _ = run(
            capsys, "equivalent", "preset:s2s2_monotone",
            "--from", "1/5,1/2", "--to", "3/10,1/2", "--max-norm", "2",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "distinct"

    def test_equivalent_positive_exit0(self, capsys):
        code, out, _ = run(
            capsys, "equivalent", "preset:cn(2)",
            "--from", "1,3", "--to", "3,1", "--max-norm", "1",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent"

    def test_orbit_window(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "preset:ts1_x_s2", "--point", "0,1/2",
            "--max-norm", "3", "--window", "-3..3,-1..1",
        )
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 14

    def test_usage_error_exit2(self, capsys):
        code, _, _ = run(capsys, "orbit", "preset:ts1_x_s2")
        assert code == 2

    def test_window_length_exit2(self, capsys):
        code, out, err = run(
            capsys, "orbit", "preset:cn(2)", "--point", "1,3", "--max-norm", "1",
            "--window", "0..9",
        )
        assert code == 2 and not out
        assert json.loads(err)["error"] == "DimensionMismatch"

    def test_parse_error_exit2(self, capsys):
        code, _, err = run(capsys, "invariants", "preset:cp2", "--point", "0.5,0")
        assert code == 2
        assert "ParseError" in err

    def test_ambient_infeasible_exit1(self, capsys):
        code, out, _ = run(
            capsys, "ambient", "preset:cp2",
            "--from", "-1/2,-1/5", "--to", "-1/2,1/10",
        )
        assert code == 1
        assert json.loads(out)["kind"] == "infeasible"

    def test_ambient_negative_bound_exit2(self, capsys):
        code, out, err = run(
            capsys, "ambient", "preset:cp2", "--from", "-1/2,-1/5",
            "--to", "-1/2,-1/5", "--bound", "-1",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"

    def test_monodromy_cap_below_one_exit2(self, capsys):
        code, out, err = run(
            capsys, "monodromy", "preset:cp2", "--point", "0,0",
            "--max-norm", "1", "--cap", "0",
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ValueError"

    def test_monodromy(self, capsys):
        code, out, _ = run(
            capsys, "monodromy", "preset:s2s2_monotone", "--point", "0,0",
            "--max-norm", "2",
        )
        assert code == 0
        assert len(json.loads(out)["group"]["elements"]) == 4

    def test_partner(self, capsys):
        code, out, _ = run(
            capsys, "partner", "preset:cn(2)", "--point", "1,3", "--dir", "1,-1"
        )
        assert code == 0
        assert json.loads(out)["partner"] == ["3", "1"]

    def test_partner_unbounded_exit1(self, capsys):
        code, out, _ = run(
            capsys, "partner", "preset:cn(2)", "--point", "1,3", "--dir", "1,0"
        )
        assert code == 1
        assert json.loads(out)["error"] == "UnboundedRay"

    # int() once read 1_0 as 10, and so exited 1 with NotTransverse
    @pytest.mark.parametrize("bad", ["1.7,-1", "a,b", "1_0,-1", "1/2,1", "1+1√2,1"])
    def test_partner_bad_direction_exits_2(self, capsys, bad):
        code, out, err = run(
            capsys, "partner", "preset:cn(2)", "--point", "1,3", "--dir", bad
        )
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("command", ["probes", "orbit"])
    def test_max_norm_below_one_exits_2(self, capsys, command):
        code, out, err = run(
            capsys, command, "preset:cn(2)", "--point", "1,3", "--max-norm", "0"
        )
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ValueError"

    def test_probes(self, capsys):
        code, out, _ = run(
            capsys, "probes", "preset:s2s2_monotone", "--point", "0,0",
            "--max-norm", "1",
        )
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_reduce(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "preset:c2_x_ts1",
            "--slice", '{"base": [1, 1, 0], "dirs": [[0, 0, 1], [-1, 1, 0]]}',
        )
        assert code == 0
        data = json.loads(out)
        assert data["reduced"]["dim"] == 2

    @pytest.mark.parametrize("bad", [
        '{"base": [1, 1, 0], "dirs": [[0, 0, 1.9], [-1, 1, 0]]}',
        '{"base": [1, 0.5, 0], "dirs": [[0, 0, 1], [-1, 1, 0]]}',
        '{"base": [1, 1, 0], "dirs": [[0, 0, true], [-1, 1, 0]]}',
        '{"base": [1, true, 0], "dirs": [[0, 0, 1], [-1, 1, 0]]}',
    ])
    def test_reduce_float_slice_exits_2(self, capsys, bad):
        code, out, err = run(capsys, "reduce", "preset:c2_x_ts1", "--slice", bad)
        assert code == 2 and not out
        assert json.loads(err)["error"] == "ParseError"

    def test_reduce_bad_slices_never_traceback(self, capsys):
        for bad in (
            '{"base": [1, 1], "dirs": [[1, 0], [2, 0]]}',  # dependent dirs
            '{"base": [1, 1]}',                            # missing dirs
            "not json",
        ):
            code, _, err = run(capsys, "reduce", "preset:cn(2)", "--slice", bad)
            assert code == 2
            assert "error" in err

    def test_lift(self, capsys):
        code, out, _ = run(capsys, "lift", "preset:cp2", "--point", "-1/2,-1/5")
        assert code == 0
        data = json.loads(out)
        assert data["kernel"] == [[1, 1, 1]]
        assert data["lifted_point"] == ["1/2", "4/5", "17/10"]

    @pytest.mark.parametrize("point", ["5,5", "1/2,1/2"])
    def test_lift_point_outside_exits_2(self, capsys, point):
        code, out, err = run(capsys, "lift", "preset:cp2", "--point", point)
        assert code == 2 and not out
        assert json.loads(err) == {
            "error": "NotInterior",
            "message": f"({point.replace(',', ', ')}) is not in the open polytope",
        }

    def test_invariants_match_the_references(self, capsys):
        poly = parse_polytope("preset:s2s2_monotone")
        for text in ("0,1/2", "-1/3,1/3", "1/2,-1/5"):
            code, out, _ = run(capsys, "invariants", "preset:s2s2_monotone",
                               "--point", text)
            assert code == 0
            x = parse_point(text)
            d, active = reference_de_germ(poly, x)
            assert json.loads(out) == {
                "invariants": reference_invariants(poly, x).to_json(),
                "ell": [str(v) for v in poly.ell(x)],
                "de_germ": {"d": str(d), "active": list(active)},
                "reduction_type": True,
            }

    def test_lift_negative(self, capsys):
        code, out, _ = run(capsys, "lift", "preset:ts1_x_s2")
        assert code == 1

    def test_chekanov(self, capsys):
        code, out, _ = run(capsys, "chekanov", "--tuple", "1,2,3", "--to", "1,2,5")
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] and data["replay"] == ["1", "2", "5"]
        code, out, _ = run(capsys, "chekanov", "--tuple", "1,2,3", "--to", "1,3,5")
        assert code == 1

    def test_chekanov_without_target(self, capsys):
        code, out, _ = run(capsys, "chekanov", "--tuple", "1,2,3")
        assert code == 0
        assert json.loads(out) == {
            "reduced": {"d": "1", "entries": ["1", "2"], "mult": 1},
            "gamma": {"D": 1, "basis": [[1, 0]], "den": 1},
        }

    def test_chekanov_word_search_cap_exits_3(self, capsys):
        # the u^8 pair, u = √2 - 1: equivalent, but beyond the word search's cap
        code, out, _ = run(
            capsys, "chekanov", "--tuple", "1,2,1+1√2",
            "--to", "1,578-408√2,-1392+985√2",
        )
        assert code == 3
        data = json.loads(out)
        assert data["equivalent"] is True and data["word"] is None
        assert data["note"] == "no word found within 20000 explored tuples"

    def test_chekanov_quadratic_field(self, capsys):
        code, out, _ = run(
            capsys, "chekanov", "--tuple", "1,1+1√2,3", "--to", "1,3,1+1√2",
        )
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"]
        assert data["word"] == [["swap", 1, 2]]

    def test_equivalent_density_example(self, capsys):
        # the paper's density example, read as the library reads it
        code, out, _ = run(
            capsys, "equivalent", "preset:cn(3)", "--from", "1,2,1+1√2",
            "--to", "1,1+1√2,2", "--max-norm", "1",
        )
        assert code == 0
        verdict = decide(
            preset("cn(3)"), as_point(["1", "2", "1+1√2"]), as_point(["1", "1+1√2", "2"]),
            OrbitParams(max_norm=1, max_points=500, max_depth=16),
        )
        assert out == json.dumps(verdict.to_json(), sort_keys=True) + "\n"

    def test_preset_list(self, capsys):
        code, out, _ = run(capsys, "preset-list")
        assert code == 0
        assert len(json.loads(out)["presets"]) == 6

    def test_all_json_outputs_parse(self, capsys):
        commands = [
            ("check", "preset:cp2"),
            ("invariants", "preset:cp2", "--point", "-1/2,-1/5"),
            ("probes", "preset:cp2", "--point", "-1/2,-1/5", "--max-norm", "2"),
            ("orbit", "preset:cp2", "--point", "-1/2,-1/5", "--max-norm", "2"),
            ("preset-list",),
        ]
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            json.loads(out)


class TestRender:
    def test_svg_wellformed(self, capsys):
        code, out, _ = run(
            capsys, "render", "preset:c_x_s2", "--window", "-3/2..6,-3/2..3/2",
            "--orbit-of", "0,1/2", "--probes-at", "0,1/2", "--max-norm", "2",
        )
        assert code == 0
        doc = xml.dom.minidom.parseString(out)
        assert doc.documentElement.tagName == "svg"
        assert out.count("<circle") >= 8  # orbit dots
        assert out.count("<line") >= 3

    def test_boundary_only(self, capsys):
        code, out, _ = run(
            capsys, "render", "preset:s2s2_monotone", "--window", "-2..2,-2..2"
        )
        assert code == 0
        assert out.count("<line") == 4

    def test_labels(self, capsys):
        code, out, _ = run(
            capsys, "render", "preset:c_x_s2", "--window", "-3/2..6,-3/2..3/2",
            "--orbit-of", "0,1/2", "--max-norm", "2", "--labels",
        )
        assert code == 0
        doc = xml.dom.minidom.parseString(out)
        labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
        assert len(labels) == out.count("<circle") > 0
        assert "0,1/2" in labels

    def test_unbounded_window_is_a_parse_error(self, capsys):
        code, out, err = run(capsys, "render", "preset:cp2", "--window", "0..*,0..1")
        assert code == 2 and not out
        assert json.loads(err) == {
            "error": "ParseError",
            "message": "render needs a bounded 2-coordinate window",
        }

    def test_facets_that_miss_the_window_are_not_drawn(self, capsys):
        # c_x_s2's facets are x1 = -1, x2 = -1 and x2 = 1; only x2 = -1 crosses it
        poly, window = preset("c_x_s2"), parse_window("0..2,-2..1/2")
        assert [cli._facet_segment(poly, i, window) is None for i in range(3)] == [
            True, False, True
        ]
        code, out, _ = run(capsys, "render", "preset:c_x_s2", "--window", "0..2,-2..1/2")
        assert code == 0 and out.count("<line") == 1
        # a slanted facet, cp2's x1 + x2 = 1, that misses it: its range is empty
        window = parse_window("-1/2..0,-1/2..0")
        assert cli._facet_segment(preset("cp2"), 2, window) is None

    def test_not_planar(self, capsys):
        code, _, err = run(
            capsys, "render", "preset:cn(3)", "--window", "0..2,0..2"
        )
        assert code == 2
