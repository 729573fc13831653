from __future__ import annotations

from pathlib import Path

import pytest

from frontals.cli import main
from frontals.germfile import GermFileError, load_germ_file, parse_germ_file
from frontals.poly import parse_poly

GERMS = Path(__file__).resolve().parent.parent / "germs"


def test_load_fold_file():
    gf = load_germ_file(GERMS / "fold.germ")
    assert gf.vars == ("x", "y")
    assert gf.germ.components[0] == parse_poly("1/2*x^2 + x*y", ("x", "y"))
    assert gf.multipliers == (parse_poly("1", ("x", "y")),)
    assert gf.ext_order is None


def test_comments_and_blank_lines_ignored():
    gf = parse_germ_file("""
# heading comment

vars: x y   # trailing comment
map:
f1 = x^2   # squared
f2 = y
""")
    assert gf.germ.components[0] == parse_poly("x^2", ("x", "y"))
    assert gf.multipliers == ()


def test_ext_declaration():
    gf = parse_germ_file("""
vars: x y
ext: 3
map:
f1 = 1/6*c^2*x
f2 = y
""")
    assert gf.ext_order == 3
    assert gf.field is not None and gf.field.k == 3


def test_ext_field_is_one_object_shared_with_psi():
    gf = parse_germ_file("vars: x y\next: 3\nmap:\nf1 = 1/6*c^2*x\nf2 = y\n")
    assert gf.field is gf.field
    (germ_coeff,) = gf.germ.components[0].terms.values()
    (psi_coeff,) = parse_poly("c*x^2", gf.vars, gf.field).terms.values()
    assert germ_coeff.field is gf.field
    assert psi_coeff.field is gf.field


@pytest.mark.parametrize("order", ["\u0663", "3\u0663", "1_0", "3.0", "three", ""])
def test_ext_order_in_ascii_digits_only(order):
    # int() would read the Arabic-Indic three as 3 and 1_0 as 10
    with pytest.raises(GermFileError) as info:
        parse_germ_file(f"vars: x y\next: {order}\nmap:\nf1 = x\nf2 = y\n")
    assert str(info.value) == "ext: expects an integer order (line 2)"


@pytest.mark.parametrize("order", ["9" * 5000, "-" + "9" * 5000, "100", "33", "0", "-3"])
def test_ext_order_out_of_range(order):
    # a long order is refused from its digit count: int() never reads it
    with pytest.raises(GermFileError) as info:
        parse_germ_file(f"vars: x y\next: {order}\nmap:\nf1 = x\nf2 = y\n")
    assert str(info.value) == "ext: order must be between 1 and 32 (line 2)"


@pytest.mark.parametrize("order, k", [("1", 1), ("032", 32), ("+3", 3), ("0" * 5000 + "7", 7)])
def test_ext_order_accepted(order, k):
    gf = parse_germ_file(f"vars: x y\next: {order}\nmap:\nf1 = x\nf2 = y\n")
    assert gf.ext_order == k


def test_missing_vars_rejected():
    with pytest.raises(GermFileError, match="vars"):
        parse_germ_file("map:\nf1 = 1\n")


def test_component_outside_block_rejected():
    with pytest.raises(GermFileError, match="line 2"):
        parse_germ_file("vars: x\nf1 = x\n")


def test_duplicate_component_rejected():
    with pytest.raises(GermFileError, match="duplicate"):
        parse_germ_file("vars: x\nmap:\nf1 = x\nf1 = x^2\n")


@pytest.mark.parametrize("header", ["map", "mu"])
def test_repeated_block_header_rejected(header, tmp_path, capsys):
    # a second header used to append its lines to the first block: a second
    # map: made the germ 2 -> 3, a second mu: added multipliers silently
    text = "vars: x y\nmap:\nf1 = x^2\nf2 = y\nmu:\nm1 = 1\n" + f"{header}:\nf3 = x\n"
    with pytest.raises(GermFileError) as info:
        parse_germ_file(text)
    assert str(info.value) == f"duplicate {header}: block (line 7)"
    path = tmp_path / "twice.germ"
    path.write_text(text, encoding="utf-8")
    assert main(["frontal", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: duplicate {header}: block (line 7)\n"


def test_parse_error_carries_line_number():
    with pytest.raises(GermFileError, match="line 3"):
        parse_germ_file("vars: x\nmap:\nf1 = 2x\n")


def test_non_origin_preserving_rejected():
    with pytest.raises(GermFileError, match="constant term"):
        parse_germ_file("vars: x\nmap:\nf1 = x + 1\n")


def test_all_shipped_germ_files_parse():
    for path in sorted(GERMS.glob("*.germ")):
        gf = load_germ_file(path)
        assert gf.germ.is_origin_preserving, path.name
