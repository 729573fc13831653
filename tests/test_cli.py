from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frontals import cli
from frontals.cli import main
from frontals.frontal import build_certified
from frontals.mesh import MAX_DEGREE, MAX_RANGE_BITS, MAX_RESOLUTION
from frontals.poly import parse_poly
from frontals.scalars import MAX_EXT_ORDER

from helpers import GRAMMAR_EXPRS, GRAMMAR_STRINGS

GERMS = Path(__file__).resolve().parent.parent / "germs"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


def test_a_closed_stdout_ends_the_run_quietly():
    # the 285 KB report is more than a pipe holds, so its write meets the
    # closed read end however the child is scheduled
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    child = subprocess.Popen([sys.executable, "-m", "frontals.cli", "mesh",
                              str(GERMS / "cuspidal_edge.germ"), "--range", "1", "--res", "64"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert stderr == b""


def test_jacobian_fold(capsys):
    code, out = run_cli(capsys, "jacobian", GERMS / "fold.germ")
    assert code == 0
    assert "|Jf| = x + y" in out


def test_jacobian_identity(capsys):
    code, out = run_cli(capsys, "jacobian", GERMS / "identity2.germ")
    assert code == 0
    assert "|Jf| = 1" in out


def test_jacobian_four_k3(capsys):
    code, out = run_cli(capsys, "jacobian", GERMS / "four_k3_plus.germ")
    assert code == 0
    # canonical graded-lex printing lists the degree-3 term first
    assert "|Jf| = y^3 + x^2" in out


def test_jacobian_of_a_non_square_germ_exit_2(tmp_path, capsys):
    tall = tmp_path / "tall.germ"
    tall.write_text("vars: x y\nmap:\nf1 = x\nf2 = y\nf3 = x*y\n", encoding="utf-8")
    message = _assert_input_error(capsys, "jacobian", tall)
    assert message == "error: Jacobian determinant needs an equidimensional map, got 2 -> 3"


def test_jacobian_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.germ"
    bad.write_text("vars: x\nmap:\nf1 = 2x\n", encoding="utf-8")
    code = main(["jacobian", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_frontal_pass_and_conormal(capsys):
    code, out = run_cli(capsys, "frontal", GERMS / "fold.germ")
    assert code == 0
    assert "phi1 = (2, 2*y, -1)" in out
    assert "frontal certification: PASS" in out


@pytest.mark.parametrize("failing", [
    {"condition1_failures": ((1, 1, parse_poly("x", ("x", "y"))),)},
    {"condition2_failures": (1,)},
    {"condition3_rank": 0},
])
def test_frontal_fails_when_one_condition_fails(failing, monkeypatch, capsys):
    # fold.germ certifies; the report is changed so that one condition fails
    def one_failing(f, mus):
        package = build_certified(f, mus)
        return dataclasses.replace(package, report=dataclasses.replace(package.report, **failing))

    monkeypatch.setattr("frontals.cli.build_certified", one_failing)
    code, out = run_cli(capsys, "frontal", GERMS / "fold.germ")
    assert code == 1
    assert "frontal certification: FAIL" in out.splitlines()
    code, out = run_cli(capsys, "frontal", GERMS / "fold.germ", "--format", "json")
    payload = json.loads(out)
    assert code == 1
    assert payload["certification"]["pass"] is False
    assert payload["status"] == "fail"


def test_frontal_degenerate_multiplier(tmp_path, capsys):
    germ = tmp_path / "zero_mu.germ"
    germ.write_text(
        "vars: x y\nmap:\nf1 = 1/2*x^2 + x*y\nf2 = y\nmu:\nm1 = 0\n",
        encoding="utf-8")
    code, out = run_cli(capsys, "frontal", germ)
    assert code == 0


@pytest.mark.parametrize("mu", ["", "mu:\n"])
def test_frontal_without_multipliers_exit_2(mu, tmp_path, capsys):
    # a missing mu: block and an empty one are refused alike
    germ = tmp_path / "no_mu.germ"
    germ.write_text(f"vars: x y\nmap:\nf1 = x^2\nf2 = y\n{mu}", encoding="utf-8")
    message = _assert_input_error(capsys, "frontal", germ)
    assert message == "error: at least one multiplier is required"


def test_frontal_swallowtail(capsys):
    code, out = run_cli(capsys, "frontal", GERMS / "swallowtail.germ")
    assert code == 0


def test_multiplicity_fold(capsys):
    code, out = run_cli(capsys, "multiplicity", GERMS / "fold.germ")
    assert code == 0
    assert "multiplicity 2" in out


def test_ramify_member_with_witness(capsys):
    code, out = run_cli(capsys, "ramify", GERMS / "half_square.germ",
                        "--psi", "x^3", "--jet", "4", "--mode", "gradient")
    assert code == 0
    assert "MEMBER (modulo m^5)" in out
    assert "witness a1 = 3*x" in out


def test_ramify_not_member_exit_1(capsys):
    code, out = run_cli(capsys, "ramify", GERMS / "half_square.germ",
                        "--psi", "x", "--jet", "3")
    assert code == 1
    assert "NOT-MEMBER-MOD-JET(3)" in out


def test_ramify_jsq_mode(capsys):
    code, out = run_cli(capsys, "ramify", GERMS / "fold.germ",
                        "--psi", "x*(x+y)^2", "--jet", "5", "--mode", "jsq")
    assert code == 0
    assert "witness mu" in out


def test_ramify_jsq_member_over_extension(tmp_path, capsys):
    # over Q(6^(1/2)) this jsq system mixes rational rows with extension rows,
    # and some rational rows are reduced by extension pivots
    germ = tmp_path / "ext2.germ"
    germ.write_text("vars: x y\next: 2\nmap:\nf1 = x^2 + y^3\nf2 = y + x^2\n", encoding="utf-8")
    code, out = run_cli(capsys, "ramify", germ, "--psi",
                        "(1 + x)*(2*x - 6*x*y^2)^2 + c*(x^2 + y^3) + (y + x^2)^2",
                        "--jet", "4", "--mode", "jsq")
    assert code == 0
    assert "verdict: MEMBER (modulo m^5)" in out
    assert "witness mu = x + 1\nwitness eta = Y^2 + c*X  [in variables X Y]\n" in out
    assert "recheck: zero jet residual" in out


def test_corpus_all_exit_0(capsys):
    code, out = run_cli(capsys, "corpus")
    assert code == 0
    assert "summary: 11/11" in out
    assert "path: corrected" in out
    assert "path: literal" in out


def test_corpus_single_entry(capsys):
    code, out = run_cli(capsys, "corpus", "swallowtail")
    assert code == 0
    assert "[swallowtail]" in out and "literal: MATCH" in out


def test_corpus_four_k_with_range(capsys):
    code, out = run_cli(capsys, "corpus", "four_k", "--k", "2-3")
    assert code == 0
    assert "four_k[k=2,sign=+]" in out
    assert "four_k[k=3,sign=-]" in out


def test_corpus_unknown_entry_exit_2(capsys):
    # the message itself, not the repr that str() of its KeyError gives
    message = _assert_input_error(capsys, "corpus", "lips")
    assert message == ("error: unknown corpus entry 'lips' (have fold, cuspidal_edge,"
                       " folded_umbrella, cuspidal_crosscap_alt, open_folded_umbrella,"
                       " swallowtail, open_swallowtail, four_k)")


@pytest.mark.parametrize("k", ["a", "2-", "2-x", "2,3-y", "1_0", "\u0663"])
def test_corpus_k_piece_not_an_integer_exit_2(k, capsys):
    piece = k.split(",")[-1]
    message = _assert_input_error(capsys, "corpus", "--k", k)
    assert message == f"error: --k takes integers and ranges lo-hi, not {piece!r}"


def test_mesh_writes_obj(tmp_path, capsys):
    out_path = tmp_path / "fold.obj"
    code, out = run_cli(capsys, "mesh", GERMS / "fold.germ",
                        "--range", "1", "--res", "2", "--out", out_path)
    assert code == 0
    content = out_path.read_text(encoding="utf-8")
    faces = [l for l in content.splitlines() if l.startswith("f ")]
    assert len(faces) == 8
    assert "v 0 0 0" in content


def test_mesh_dimension_error_exit_2(capsys):
    code = main(["mesh", str(GERMS / "open_swallowtail.germ"),
                 "--range", "1", "--res", "2"])
    assert code == 2


def _assert_no_floats(value):
    assert not isinstance(value, float), value
    if isinstance(value, dict):
        for v in value.values():
            _assert_no_floats(v)
    elif isinstance(value, list):
        for v in value:
            _assert_no_floats(v)


@pytest.mark.parametrize("argv", [
    ("jacobian",),
    ("frontal",),
    ("multiplicity",),
])
def test_json_reports_contain_no_floats(argv, capsys):
    code, out = run_cli(capsys, *argv, GERMS / "fold.germ", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    _assert_no_floats(payload)
    assert payload["command"] == argv[0]
    assert isinstance(payload["timing_ms"], int)


def test_json_ramify_witness_is_exact_string(capsys):
    code, out = run_cli(capsys, "ramify", GERMS / "half_square.germ",
                        "--psi", "x^3", "--jet", "4", "--format", "json")
    payload = json.loads(out)
    _assert_no_floats(payload)
    assert payload["witnesses"]["a1"] == "3*x"
    assert payload["rechecked"] is True


def test_jacobian_with_extension_field_file(tmp_path, capsys):
    germ = tmp_path / "scaled.germ"
    germ.write_text(
        "vars: x y\next: 3\nmap:\nf1 = x\nf2 = 1/6*c^2*y\n", encoding="utf-8")
    code, out = run_cli(capsys, "jacobian", germ)
    assert code == 0
    assert "|Jf| = 1/6*c^2" in out


def test_text_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "corpus")
    _, second = run_cli(capsys, "corpus")
    assert first == second
    _, j1 = run_cli(capsys, "jacobian", GERMS / "swallowtail.germ")
    _, j2 = run_cli(capsys, "jacobian", GERMS / "swallowtail.germ")
    assert j1 == j2


def _assert_input_error(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    return lines[0]


def test_multiplicity_negative_jet_cap_exit_2(capsys):
    message = _assert_input_error(capsys, "multiplicity", GERMS / "fold.germ",
                                  "--jet-cap", "-3")
    assert "jet cap" in message


def test_corpus_k_on_a_single_non_family_entry_exit_2(capsys):
    message = _assert_input_error(capsys, "corpus", "fold", "--k", "3")
    assert "four_k" in message


def test_ramify_deeply_nested_psi_exit_2(capsys):
    psi = "(" * 5000 + "x" + ")" * 5000
    message = _assert_input_error(capsys, "ramify", GERMS / "fold.germ", "--psi", psi)
    assert "nested" in message


def test_exponent_above_the_cap_exit_2(capsys):
    message = _assert_input_error(capsys, "ramify", GERMS / "fold.germ",
                                  "--psi", "(x + y)^100000000")
    assert "exponent above" in message


@pytest.mark.parametrize("expr", ["((1+x+y)^100)^100", "(1+x+y+z+w)^100"])
def test_power_above_the_term_cap_exit_2(expr, tmp_path, capsys):
    plain = tmp_path / "plain.germ"
    plain.write_text("vars: x y z w\nmap:\nf1 = x\nf2 = y\nf3 = z\nf4 = w\n",
                     encoding="utf-8")
    big = tmp_path / "big.germ"
    big.write_text(f"vars: x y z w\nmap:\nf1 = x*{expr}\nf2 = y\nf3 = z\nf4 = w\n",
                   encoding="utf-8")
    for argv in (("ramify", plain, "--psi", expr), ("jacobian", big)):
        start = time.perf_counter()
        message = _assert_input_error(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert "terms, more than" in message


def test_coefficients_above_the_bit_cap_exit_2(tmp_path, capsys):
    # 901 terms, under the term cap, but coefficients of about 4000 bits
    expr = "((3/7+2/3*x)^100)^9"
    plain = tmp_path / "plain.germ"
    plain.write_text("vars: x\nmap:\nf1 = x^2\n", encoding="utf-8")
    big = tmp_path / "big.germ"
    big.write_text(f"vars: x\nmap:\nf1 = x*{expr}\n", encoding="utf-8")
    for argv in (("ramify", plain, "--psi", expr), ("multiplicity", big)):
        start = time.perf_counter()
        message = _assert_input_error(capsys, *argv)
        assert time.perf_counter() - start < 0.05
        assert "bits, more than 2000" in message


def test_ext_order_above_the_cap_exit_2(tmp_path, capsys):
    germ = tmp_path / "ext.germ"
    germ.write_text(f"vars: x y\next: {MAX_EXT_ORDER + 1}\nmap:\nf1 = x\nf2 = y\n",
                    encoding="utf-8")
    message = _assert_input_error(capsys, "jacobian", germ)
    assert "ext: order" in message


@pytest.mark.parametrize("k", [f"{MAX_EXT_ORDER + 1}", "2-100000000000"])
def test_corpus_k_above_the_cap_exit_2(k, capsys):
    message = _assert_input_error(capsys, "corpus", "--k", k)
    assert "--k values above" in message


@pytest.mark.parametrize("k, message", [
    ("9" * 5000, "--k values above 32 are not supported, got an integer of 5000 digits"),
    ("2-" + "9" * 400, "--k values above 32 are not supported, got an integer of 400 digits"),
    ("-" + "9" * 5000, "--k values below 2 are not supported, got an integer of 5000 digits"),
    ("0" * 5000 + "33", "--k values above 32 are not supported, got 33"),
    ("1-3", "--k values below 2 are not supported, got 1"),
    ("-3", "--k values below 2 are not supported, got -3"),
    # each end of a range has its own sign
    ("-3-5", "--k values below 2 are not supported, got -3"),
    ("-" + "9" * 400 + "-3", "--k values below 2 are not supported, got an integer of 400 digits"),
])
def test_corpus_k_bound_out_of_range_exit_2(k, message, capsys):
    # a long bound is refused from its digit count, with no echo of it,
    # before int() reads it
    assert _assert_input_error(capsys, "corpus", f"--k={k}") == f"error: {message}"


@pytest.mark.parametrize("k, message", [
    ("2-3,5-4", "--k range 5-4 is empty"),
    ("5-2," * 100, "--k range 5-2 is empty"),
    (" , ,", "--k names no value"),
    ("x" * 400, "--k takes integers and ranges lo-hi, not a piece of 400 characters"),
    # a failed match backtracks in linear time, also over leading zeros
    pytest.param("0" * 100000 + "x",
                 "--k takes integers and ranges lo-hi, not a piece of 100001 characters",
                 id="100000-zeros-then-x"),
])
def test_corpus_k_empty_range_or_long_piece_exit_2(k, message, capsys):
    # a range lo-hi with lo > hi is refused, not run as no value, and no
    # line echoes a long argument
    line = _assert_input_error(capsys, "corpus", f"--k={k}")
    assert line == f"error: {message}" and len(line) < 200


def test_mesh_resolution_above_the_cap_exit_2(capsys):
    message = _assert_input_error(capsys, "mesh", GERMS / "fold.germ", "--range", "1",
                                  "--res", MAX_RESOLUTION + 1)
    assert "grid resolution" in message


def test_mesh_degree_above_the_cap_exit_2(tmp_path, capsys):
    germ = tmp_path / "tower.germ"
    germ.write_text("vars: x y\nmap:\nf1 = (x^100)^100 + x*y\nf2 = y\nmu:\nm1 = 1\n",
                    encoding="utf-8")
    start = time.perf_counter()
    message = _assert_input_error(capsys, "mesh", germ, "--range", "1", "--res", 20)
    assert time.perf_counter() - start < 1.0
    assert message == (f"error: mesh export needs a map of degree at most {MAX_DEGREE},"
                       " got 19998")


@pytest.mark.parametrize("text", ["1e30000", "1e999999999", "7" * 5000])
def test_mesh_range_above_the_cap_exit_2(text, capsys):
    # refused from its digits and exponent, before Fraction builds 10^999999999
    start = time.perf_counter()
    message = _assert_input_error(capsys, "mesh", GERMS / "cuspidal_edge.germ",
                                  "--range", text, "--res", 8)
    assert time.perf_counter() - start < 1.0
    assert message == ("error: grid half-width must have a numerator and a denominator"
                       f" of at most {MAX_RANGE_BITS} bits")


@pytest.mark.parametrize("text, same", [("1", "1/1"), ("1/2", "0.5"), ("0.75", "3/4"),
                                        ("2.5e-1", "1/4")])
def test_mesh_range_forms(text, same, capsys):
    code, out = run_cli(capsys, "mesh", GERMS / "cuspidal_edge.germ", "--range", text,
                        "--res", 2)
    assert code == 0 and out.count("\nv ") == 8 and out.count("\nf ") == 8
    assert run_cli(capsys, "mesh", GERMS / "cuspidal_edge.germ", "--range", same,
                   "--res", 2)[1] == out


def test_mesh_range_with_a_zero_denominator_exit_2(capsys):
    message = _assert_input_error(capsys, "mesh", GERMS / "cuspidal_edge.germ",
                                  "--range", "1/0", "--res", 2)
    assert message == "error: grid half-width has a zero denominator"


def test_degree_above_the_packed_field_exit_2(tmp_path, capsys):
    germ = tmp_path / "tower.germ"
    germ.write_text("vars: x y\nmap:\nf1 = ((x^100)^100)^100 + x*y\nf2 = y\n",
                    encoding="utf-8")
    start = time.perf_counter()
    message = _assert_input_error(capsys, "jacobian", germ)
    assert time.perf_counter() - start < 1.0
    assert message == ("error: in f1: power may have degree up to 1000000, more than 65535"
                       " (at position 13) (line 3)")


def test_non_ascii_digit_exit_2(tmp_path, capsys):
    germ = tmp_path / "superscript.germ"
    germ.write_text("vars: x y\nmap:\nf1 = x^\u00b2\nf2 = y + \u0661\n", encoding="utf-8")
    message = _assert_input_error(capsys, "jacobian", germ)
    assert message == "error: in f1: unexpected character '\u00b2' (at position 2) (line 3)"
    germ.write_text("vars: x y\nmap:\nf1 = x\nf2 = y + \u0661\n", encoding="utf-8")
    message = _assert_input_error(capsys, "jacobian", germ)
    assert message == "error: in f2: unexpected character '\u0661' (at position 4) (line 4)"


def test_oversized_literal_exit_2(tmp_path, capsys):
    germ = tmp_path / "long.germ"
    germ.write_text(f"vars: x y\nmap:\nf1 = {'7' * 5000}*x\nf2 = y\n", encoding="utf-8")
    message = _assert_input_error(capsys, "jacobian", germ)
    assert message == ("error: in f1: integer literal of more than 2000 bits"
                       " (at position 0) (line 3)")
    germ.write_text(f"vars: x y\nmap:\nf1 = x\nf2 = y^{'1' * 5000}\n", encoding="utf-8")
    message = _assert_input_error(capsys, "jacobian", germ)
    assert message == "error: in f2: exponent above 100 (at position 2) (line 4)"


def test_multiplicity_stops_at_the_unknown_cap(tmp_path, capsys):
    germ = tmp_path / "zero.germ"
    germ.write_text("vars: x\nmap:\nf1 = 0\n", encoding="utf-8")
    code, out = run_cli(capsys, "multiplicity", germ, "--jet-cap", "100000")
    assert code == 0
    assert "not stabilized at jet order 315 (sequence 1, 2, 3, " in out
    assert out.rstrip().endswith("over the cap MAX_UNKNOWNS = 100000")
    code, out = run_cli(capsys, "multiplicity", germ, "--jet-cap", "100000", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "not-stabilized" and payload["jet_order"] == 315
    assert payload["reason"].endswith("over the cap MAX_UNKNOWNS = 100000")
    for argv in ((GERMS / "fold.germ",), (germ, "--jet-cap", "5")):
        code, out = run_cli(capsys, "multiplicity", *argv, "--format", "json")
        assert code == 0 and "reason" not in json.loads(out)


@pytest.mark.parametrize("mode", ["gradient", "jsq"])
def test_ramify_checks_the_unknown_cap_before_building_the_system(mode, capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "ramify", GERMS / "fold.germ", "--psi", "x",
                        "--jet", "3000", "--mode", mode)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "reason: 9009002 unknowns exceed the cap 20000" in out.splitlines()


# -- fuzzing germ files through the CLI ----------------------------------------

VARS_LINES = st.sampled_from(["vars: x y", "vars: x", "vars: y x", "vars:", "vars: x x",
                              "vars: x c", "vars: x y z", ""])
EXT_LINES = st.one_of(st.just(""), st.integers(0, 40).map("ext: {}".format),
                      st.sampled_from(["ext:", "ext: two", "ext: -1", "ext: 2.5", "ext: 3 4"]))
# mostly a component that vanishes at the origin whatever the expression is
COMPONENTS = st.integers(0, 3).flatmap(lambda i: (
    GRAMMAR_EXPRS.map("x*({})".format), GRAMMAR_EXPRS.map("y + x^2*({})".format),
    GRAMMAR_EXPRS.map("x*y + ({})^2".format), GRAMMAR_STRINGS)[i])
BROKEN_BLOCKS = st.sampled_from(["map:\n= x", "map:\nf1 x", "map:\nf1 = x\nf1 = y", "mu:",
                                 "f1 = x", "map:"])


def block(head: str, names: list[str]):
    """A map: or mu: block with one component per name."""
    return st.tuples(*[COMPONENTS] * len(names)).map(
        lambda exprs: "\n".join([head] + [f"{n} = {e}" for n, e in zip(names, exprs)]))


def mostly(usual, other):
    """usual in three draws of four, else other."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 0 else usual)


MAP_BLOCKS = st.one_of(block("map:", ["f1", "f2"]), block("map:", ["f1"]),
                       block("map:", ["f1", "f2", "f3"]))
MU_BLOCKS = st.one_of(st.just(""), block("mu:", ["m1"]), block("mu:", ["m1", "m2"]))
# mostly the layout of a germ file, each part valid or broken; else blocks
# in any order and number
GERM_TEXTS = mostly(
    st.tuples(mostly(st.just("vars: x y"), VARS_LINES),
              mostly(st.one_of(st.just(""), st.integers(2, 6).map("ext: {}".format)), EXT_LINES),
              mostly(block("map:", ["f1", "f2"]), st.one_of(MAP_BLOCKS, BROKEN_BLOCKS)),
              MU_BLOCKS),
    st.lists(st.one_of(VARS_LINES, EXT_LINES, MAP_BLOCKS, MU_BLOCKS, BROKEN_BLOCKS),
             min_size=1, max_size=5),
).map("\n".join)


@settings(max_examples=150, deadline=timedelta(seconds=5),
          suppress_health_check=[HealthCheck.too_slow])
@given(GERM_TEXTS, st.sampled_from(["jacobian", "frontal", "multiplicity"]))
def test_random_germ_files_end_with_an_exit_code(text, command):
    """Any germ file text ends each command with exit 0, 1, 2 or 3, and an
    input error with one `error:` line, never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.germ"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([command, str(path)])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
