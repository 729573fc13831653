from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from frontals.cli import main
from frontals.mesh import MAX_RESOLUTION
from frontals.scalars import MAX_EXT_ORDER

GERMS = Path(__file__).resolve().parent.parent / "germs"


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out


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


def test_frontal_degenerate_multiplier(tmp_path, capsys):
    germ = tmp_path / "zero_mu.germ"
    germ.write_text(
        "vars: x y\nmap:\nf1 = 1/2*x^2 + x*y\nf2 = y\nmu:\nm1 = 0\n",
        encoding="utf-8")
    code, out = run_cli(capsys, "frontal", germ)
    assert code == 0


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
    code = main(["corpus", "lips"])
    assert code == 2


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


def test_mesh_resolution_above_the_cap_exit_2(capsys):
    message = _assert_input_error(capsys, "mesh", GERMS / "fold.germ", "--range", "1",
                                  "--res", MAX_RESOLUTION + 1)
    assert "grid resolution" in message


def test_multiplicity_stops_at_the_unknown_cap(tmp_path, capsys):
    germ = tmp_path / "zero.germ"
    germ.write_text("vars: x\nmap:\nf1 = 0\n", encoding="utf-8")
    code, out = run_cli(capsys, "multiplicity", germ, "--jet-cap", "100000")
    assert code == 0
    assert "not stabilized at jet order 445 (sequence 1, 2, 3, " in out
    assert out.rstrip().endswith("over the cap MAX_UNKNOWNS = 100000")
    code, out = run_cli(capsys, "multiplicity", germ, "--jet-cap", "100000", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["status"] == "not-stabilized" and payload["jet_order"] == 445
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
