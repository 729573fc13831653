from __future__ import annotations

import contextlib
import json
import math
import random
import time
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frontals.poly as poly_module
import frontals.scalars as scalars_module
from frontals.poly import (
    FIELD_BITS,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    Poly,
    PolyError,
    PolyParseError,
    VariableMismatchError,
    parse_poly,
    _height,
    _monomial_keys,
    _Parser,
    _tokenize,
    _unpacker,
    _weights,
    sum_of_products,
)
from frontals.scalars import ExtField, ExtScalar, ScalarError

from helpers import (
    GRAMMAR_STRINGS,
    PARSER_REFERENCE,
    coeffs,
    evaluate,
    monomials,
    parse_outcome,
    random_poly,
    reference_scalar_str,
    reference_str,
)

XY = ("x", "y")


def P(text: str, vars=XY) -> Poly:
    return parse_poly(text, vars)


@contextlib.contextmanager
def no_fraction_built():
    """Refuse the construction of any Fraction while the block runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Fraction, "__new__", refuse)
        # Fraction arithmetic builds its results through this from 3.12 on
        if "_from_coprime_ints" in Fraction.__dict__:
            patch.setattr(Fraction, "_from_coprime_ints", classmethod(refuse))
        yield


# -- parsing ---------------------------------------------------------------


def test_parse_fold_first_component():
    p = P("1/2*x^2 + x*y")
    assert p.terms == {(2, 0): Fraction(1, 2), (1, 1): Fraction(1)}


def test_parse_zero():
    z = parse_poly("0", ("x",))
    assert z.is_zero()
    assert str(z) == "0"


def test_parse_binomial_square():
    assert P("(x+y)^2") == P("x^2 + 2*x*y + y^2")


def test_parse_reports_position():
    with pytest.raises(PolyParseError) as err:
        P("x + @")
    assert err.value.position == 4


def test_parse_nesting_cap():
    assert P("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == P("x")
    deeper = MAX_NESTING + 1
    with pytest.raises(PolyParseError, match="nested deeper") as err:
        P("(" * deeper + "x" + ")" * deeper)
    assert err.value.position == MAX_NESTING


def test_parse_exponent_cap():
    assert P(f"x^{MAX_EXPONENT}") == Poly(("x", "y"), {(MAX_EXPONENT, 0): 1})
    with pytest.raises(PolyParseError, match="exponent above") as err:
        P(f"x + y^{MAX_EXPONENT + 1}")
    assert err.value.position == 6


def test_parse_term_cap():
    # the cap is read off an upper bound before any product is formed
    assert MAX_TERMS == 1000
    # power, monomial bound: all comb(2 + 42, 2) = 946 monomials of degree <= 42
    dense = "(1 + x + y + x*y + x^2 + y^2)"
    assert len(P(f"{dense}^21").terms) == 946
    with pytest.raises(PolyParseError, match="power may have up to 1035 terms") as err:
        P(f"x + {dense}^22")
    assert err.value.position == len(f"x + {dense}")
    # power, multiset bound: (x + y)^100 has comb(2 + 99, 100) = 101 terms
    assert len(P("(x + y)^100").terms) == 101
    # product, monomial bound: 231*253 products, at most comb(2 + 41, 2) = 903 terms
    assert len(P("(1 + x + y)^20*(1 + x + y)^21").terms) == 903
    with pytest.raises(PolyParseError, match="product may have up to 1035 terms") as err:
        P("(1 + x + y)^20*(1 + x + y)^24")
    assert err.value.position == len("(1 + x + y)^20")
    # product, term-count bound: one term times one term
    assert P("x^100*y^100*x^100") == Poly(XY, {(200, 100): 1})
    # nested powers are rejected at the first bound above the cap
    with pytest.raises(PolyParseError, match="terms, more than"):
        P("((1 + x + y)^100)^100")
    with pytest.raises(PolyParseError, match="terms, more than"):
        P("(1 + x + y + z + w)^100", ("x", "y", "z", "w"))


def test_parse_coefficient_size_cap():
    # read off an upper bound before any product is formed, like the term cap
    assert MAX_COEFF_BITS == 2000
    X = ("x",)
    # power: the bound of ((3/7 + 2/3*x)^100)^e is e * (449 + bits(101))
    assert _height(P("((3/7 + 2/3*x)^100)^4", X)) == 1805
    with pytest.raises(PolyParseError,
                       match="power may have coefficients of up to 2280 bits") as err:
        P("((3/7 + 2/3*x)^100)^5", X)
    assert err.value.position == len("((3/7 + 2/3*x)^100)")
    with pytest.raises(PolyParseError, match="up to 4104 bits, more than 2000"):
        P("((3/7 + 2/3*x)^100)^9", X)
    # product: H(a) + H(b) + bits(min(t_a, t_b)); (2/3)^600 has height 951
    assert _height(P("((2/3)^100)^6*((2/3)^100)^6")) == 1902
    with pytest.raises(PolyParseError,
                       match="product may have coefficients of up to 2854 bits") as err:
        P("((2/3)^100)^6*((2/3)^100)^6*((2/3)^100)^6")
    assert err.value.position == len("((2/3)^100)^6*((2/3)^100)^6")
    # over Q(6^(1/3)) each residue product adds up to bits(6 * 3) = 5 bits
    F = ExtField(3)
    unit = "(1 + c + c^2)^100"
    assert _height(parse_poly(unit, X, F)) == 260
    with pytest.raises(PolyParseError, match="power may have coefficients of up to 2120 bits"):
        parse_poly(f"({unit})^8", X, F)
    with pytest.raises(PolyParseError, match="product may have coefficients of up to 2094 bits"):
        parse_poly(f"({unit})^3*({unit})^3*({unit})^2", X, F)
    # a constant tower no longer grows without bound
    with pytest.raises(PolyParseError, match="bits, more than"):
        P("(((2^100)^100)^100)^100")


def test_parse_refuses_oversized_literals_before_reading_them():
    # the digit count decides before int() reads a literal, so a literal
    # past Python's 4,300-digit conversion limit fails like any other
    X = ("x",)
    huge = "7" * 5000
    for text, position in ((f"{huge}*x", 0), (f"x + -{huge}", 5), (f"1/{huge}", 2),
                           ("1" * 700, 0), (f"x - 2/{'3' * 700}", 6)):
        with pytest.raises(PolyParseError, match=f"literal of more than {MAX_COEFF_BITS} bits") \
                as err:
            P(text, X)
        assert err.value.position == position, text
    with pytest.raises(PolyParseError, match="exponent above") as err:
        P("x^" + "1" * 5000, X)
    assert err.value.position == 2
    # the cap is on bits: 2^2000 - 1 is accepted, 2^2000 is not; leading
    # zeros do not count
    assert _height(P(str(2**MAX_COEFF_BITS - 1), X)) == MAX_COEFF_BITS
    with pytest.raises(PolyParseError, match="literal of more than"):
        P(str(2**MAX_COEFF_BITS), X)
    assert P("0" * 5000 + "7*x^" + "0" * 5000 + "3", X) == P("7*x^3", X)


def test_parser_carries_exact_heights():
    # the height, term count and degree the parser reads off a factor, a
    # packed monomial or a Poly, are those of the Poly it stands for
    F = ExtField(2)
    for text in ("x", "7", "-5/2", "0", "-0/3", "12/8", "c", "(x + 1/3)", "x^3", "(2/3*y)^4",
                 "-9/4", "c^3", "(1 + c)^2", "0^0", "c^0", "(-3/4)^5", "c^5"):
        parser = _Parser(_tokenize(text), XY, F)
        factor = parser.parse_factor()
        assert parser.peek().kind == "end"
        poly = parser.poly(factor)
        assert parser.measure(factor) == (len(poly.terms), poly.degree(), _height(poly)), text
        assert poly == parse_poly(text, XY, F)


def test_height_bounds_hold():
    # the a-priori bounds of the parser, checked against the computed heights
    rng = random.Random(2024)
    for field in (None, ExtField(2), ExtField(3)):
        fold = 6 * field.k if field else 1
        # 1 + c + c^2 squares to 13 + 8*c + 3*c^2 in Q(6^(1/3)): folding grows heights
        atoms = ["x", "y", "1/3", "-5/2", "7"] + (["c", "1/5*c^2", "(1 + c + c^2)"]
                                                  if field else [])
        for _ in range(40):
            a, b = (parse_poly(" + ".join(rng.sample(atoms, rng.randint(1, 4))) + " + x*y",
                               XY, field) for _ in range(2))
            e = rng.randint(1, 8)
            assert _height(a ** e) <= e * (_height(a) + (len(a.terms) * fold).bit_length())
            pairs = min(len(a.terms), len(b.terms))
            assert _height(a * b) <= _height(a) + _height(b) + (pairs * fold).bit_length()


@pytest.mark.parametrize("text, char, position", [
    ("x^²", "²", 2),     # a superscript two as an exponent
    ("x + ١", "١", 4),   # an Arabic-Indic one as a base
    ("٣*x", "٣", 0),     # an Arabic-Indic three as a base
    ("x^٣", "٣", 2),     # and as an exponent
    ("x + 1٣", "٣", 5),  # after ASCII digits
    ("2/٣", "٣", 2),     # as a denominator
])
def test_parse_refuses_non_ascii_digits(text, char, position):
    # digits are ASCII 0-9: str.isdigit() would take these, and int()
    # would read '١' as 1 or refuse '²' with a bare ValueError
    with pytest.raises(PolyParseError, match=f"unexpected character {char!r}") as err:
        P(text)
    assert err.value.position == position


def test_parser_matches_the_recorded_reference():
    # the packed form, field and printed string, or the error class,
    # message and position, of every input recorded in tests/helpers.py;
    # the field is k exactly when a recorded key keeps a power of c
    cases = json.loads(PARSER_REFERENCE.read_text(encoding="utf-8"))
    assert len(cases) > 2000
    for case in cases:
        expected = {key: v for key, v in case.items() if key not in ("text", "vars", "k")}
        if "nums" in expected:
            cshift = (len(case["vars"]) + 1) * FIELD_BITS
            keeps_c = any(key >> cshift for key, _ in expected["nums"])
            expected["field"] = case["k"] if keeps_c else None
        outcome = parse_outcome(case["text"], tuple(case["vars"]), case["k"])
        assert json.loads(json.dumps(outcome)) == expected, (case["text"], case["k"])


def test_a_term_of_atoms_forms_no_product(monkeypatch):
    products = []
    kernel = poly_module.sum_of_products
    monkeypatch.setattr(poly_module, "sum_of_products",
                        lambda *args: products.append(1) or kernel(*args))
    F = ExtField(3)
    p = parse_poly("1/3*c*x^3*y^2", XY, F)
    assert not products
    assert p == Poly(XY, {(3, 2): ExtScalar(F, [0, 1]) / 3}) and p.field == F
    assert parse_poly("-2/4*c^4*y*x^3*y*6/9", XY, F) == parse_poly("-2*c*x^3*y^2", XY, F)
    assert not products
    # a parenthesised group: one square, then one product for each factor
    # that meets it
    assert parse_poly("2*x*(x + c)^2*y", XY, F) == parse_poly(
        "2*x^3*y + 4*c*x^2*y + 2*c^2*x*y", XY, F)
    assert len(products) == 3


def test_parse_unknown_variable():
    with pytest.raises(PolyParseError, match="unknown variable 'z'"):
        P("x + z")


def test_parse_division_by_non_constant():
    with pytest.raises(PolyParseError, match="division by a non-constant"):
        P("1/x")
    with pytest.raises(PolyParseError, match="non-constant"):
        P("x/2")


def test_parse_implicit_multiplication_rejected():
    with pytest.raises(PolyParseError, match="implicit multiplication"):
        P("2x")
    with pytest.raises(PolyParseError, match="implicit multiplication"):
        P("2*x(1+y)")


def test_parse_signed_literals():
    assert P("-3/2*x + y") == P("y - 3/2*x")
    assert P("x^2 - -1*y") == P("x^2 + y")
    with pytest.raises(PolyParseError):
        P("x^-1")


def test_parse_extension_symbol():
    field = ExtField(3)
    p = parse_poly("1/6*c^2*x + y", XY, field)
    c = ExtScalar(field, [0, 1])
    assert p.terms.get((1, 0), 0) == c * c / 6
    # without a field, c is just an unknown name
    with pytest.raises(PolyParseError, match="unknown variable"):
        parse_poly("c*x", XY)


def test_extension_symbol_collision_rejected():
    with pytest.raises(PolyParseError, match="collides"):
        parse_poly("c", ("c",), ExtField(2))


# -- arithmetic ------------------------------------------------------------


def test_mul_square():
    assert P("x + y") * P("x + y") == P("x^2 + 2*x*y + y^2")


def test_pow_matches_expansion():
    assert P("x^2 + y") ** 2 == P("x^4 + 2*x^2*y + y^2")


def test_powers_start_from_the_base(monkeypatch):
    F = ExtField(3)
    p = parse_poly("c*x + 2/3*y - 1", XY, F)
    expected_p = [Poly.const(XY, 1)]
    for _ in range(9):
        expected_p.append(expected_p[-1] * p)
    products = []
    for cls in (Poly, ExtScalar):
        multiply = cls.__mul__
        monkeypatch.setattr(cls, "__mul__",
                            lambda u, v, multiply=multiply: products.append(1) or multiply(u, v))
    # left to right over the bits: a square per bit after the first and a
    # product per further 1 bit, none with the constant one
    for e, count in enumerate([0, 0, 1, 2, 2, 3, 3, 4, 3, 4]):
        products.clear()
        assert p ** e == expected_p[e] and len(products) == count, e
    assert (p ** 0).field is None and (p ** 1).field == F


def test_add_zero_identity():
    p = P("1/2*x^2 + x*y")
    assert p + Poly.zero(XY) == p


def test_mismatched_variables_rejected():
    with pytest.raises(VariableMismatchError):
        P("x") + parse_poly("x", ("x", "z"))


# -- substitute / diff / eval / jet / order ---------------------------------


def test_substitute_fold_intermediate():
    p = parse_poly("X - 1/2*Y^2", ("X", "Y"))
    images = [P("1/2*x^2 + x*y"), P("y")]
    # oracle: substitute each term by hand: X -> f1, -1/2*Y^2 -> -1/2*y^2
    assert p.substitute(images) == P("1/2*x^2 + x*y - 1/2*y^2")


def test_substitute_identity():
    p = parse_poly("X", ("X", "Y"))
    images = [P("x"), P("y")]
    assert p.substitute(images) == P("x")


def test_substitute_source_change_flattens_the_square():
    assert P("(x+y)^2").substitute([P("x - y"), P("y")]) == P("x^2")


def test_substitute_to_a_jet_order():
    # the k-jet of the full composition, images with constant terms included
    rng = random.Random(77)
    for _ in range(30):
        p = random_poly(rng, ("X", "Y", "Z"), 4, max_terms=5)
        images = [random_poly(rng, XY, 3, min_degree=rng.choice([0, 1])) for _ in range(3)]
        for k in range(6):
            assert p.substitute(images, jet=k) == p.substitute(images).jet(k), (p, images, k)


def test_substitute_to_a_jet_order_over_an_extension():
    # the Q(6^(1/e)) sibling: every image keeps c^(e-1) on a linear term, so
    # the cut products of its powers fold c^j for j >= e
    rng = random.Random(78)
    targets = ("X", "Y", "Z")
    for e in range(2, 7):
        field = ExtField(e)
        top = Poly(XY, {(1, 0): ExtScalar(field, [0] * (e - 1) + [1])})

        def ext_poly(vars, max_degree, min_degree=0):
            monos = [m for m in monomials(vars, max_degree) if sum(m) >= min_degree]
            return Poly(vars, {m: ExtScalar(field, [Fraction(rng.randint(-3, 3), rng.choice(
                [1, 2, 3])) for _ in range(e)]) for m in rng.sample(monos, rng.randint(1, 3))})

        for _ in range(6):
            p = ext_poly(targets, 4)
            images = [ext_poly(XY, 3, rng.choice([0, 1])) + top for _ in range(3)]
            for k in range(6):
                assert p.substitute(images, jet=k) == p.substitute(images).jet(k), (p, images, k)
        # X^(k-1)*Y maps to c*x^(k-1)*y, its only term of degree k, plus
        # terms of higher degree: a c-term exactly at the cut
        images = [parse_poly("x + c^2*y^2", XY, field), parse_poly("c*y + c*x^3", XY, field),
                  P("x*y^2")]
        for k in range(1, 8):
            p = Poly(targets, {(k - 1, 1, 0): Fraction(1), (0, 0, 1): Fraction(1, 2)})
            cut = p.substitute(images, jet=k)
            assert cut == p.substitute(images).jet(k), (e, k)
            assert cut.terms[(k - 1, 1)] == ExtScalar(field, [0, 1]), (e, k)


def test_a_cut_product_past_max_degree_is_refused():
    # the image's square has degree 80000, which the degree field cannot
    # hold: past it the degree would spill into the c field, and the cut
    # would keep wrong terms
    field = ExtField(2)
    image = parse_poly("c*y", XY, field) + Poly(XY, {(0, 40000): 1})
    with pytest.raises(PolyError, match="^a product of degree 80000 is above MAX_DEGREE = 65535$"):
        parse_poly("X^2", ("X",)).substitute([image], jet=40000)


def test_diff_fold_jacobian():
    assert P("1/2*x^2 + x*y").diff("x") == P("x + y")


def test_diff_constant():
    assert P("2").diff("x").is_zero()


def test_diff_power_rule():
    # oracle: power rule term by term
    assert P("x^4 + 2*x^2*y + y^2").diff("x") == P("4*x^3 + 4*x*y")


def test_eval_cases():
    assert evaluate(P("x + y"), [0, 0]) == 0
    assert evaluate(P("2"), [0, 0]) == 2
    assert evaluate(P("3*x^4 + x^2*y"), [1, 2]) == 5


def test_jet():
    assert P("x^4 + 2*x^2*y + y^2").jet(2) == P("y^2")
    p = P("1/2*x^2 + x*y")
    assert p.jet(p.degree()) == p
    assert P("x^3 - 2*x^2*y").jet(2).is_zero()
    assert p.jet(3).jet(3) == p.jet(3)


def test_order():
    assert P("(x+y)^2").order() == 2
    assert Poly.zero(XY).order() == math.inf
    assert P("1 + x^5").order() == 0


# -- canonical printing ------------------------------------------------------


def test_print_graded_lex_descending():
    assert str(P("y^2 + x^4 + 2*x^2*y")) == "x^4 + 2*x^2*y + y^2"
    assert str(P("x*y + 1/2*x^2")) == "1/2*x^2 + x*y"


def test_print_negative_leading_term():
    assert str(P("0 - x")) == "-1*x"
    assert str(P("0 - 3*x + y")) == "-3*x + y"
    assert str(P("y - x^2")) == "-1*x^2 + y"


def test_print_extension_coefficients(monkeypatch):
    F = ExtField(3)
    cases = [
        ("3 - c^2*x", "-1*c^2*x + 3"),
        ("(3 - c^2)*x - 2/3*c*y", "(-1*c^2 + 3)*x - 2/3*c*y"),
        ("-5/2 + 0*x", "-5/2"),
        ("c*(1 - c)*x^2 - c^2*y^2*x - 7/6", "-1*c^2*x*y^2 + (-1*c^2 + c)*x^2 - 7/6"),
        ("12/8*c^2 - 4/6*c + 18/12", "(3/2*c^2 - 2/3*c + 3/2)"),
    ]
    polys = [parse_poly(text, XY, F) for text, _ in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the printer built a scalar")

    # the printer builds no Fraction and no ExtScalar
    with monkeypatch.context() as patch:
        for module in (poly_module, scalars_module):
            patch.setattr(module, "Fraction", refuse)
        patch.setattr(ExtScalar, "__init__", refuse)
        patch.setattr(ExtScalar, "_make", refuse)
        texts = [str(p) for p in polys]
    assert texts == [printed for _, printed in cases]
    assert [reference_str(p) for p in polys] == texts


@st.composite
def printable_polys(draw):
    """Polynomials over Q or Q(6^(1/k)), k = 1..5, with constants, signs
    and coefficients that keep one or several powers of c."""
    k = draw(st.sampled_from([None, 1, 2, 3, 4, 5]))
    vars = draw(st.sampled_from([("x",), XY, ("x", "y", "z")]))
    table = draw(st.dictionaries(st.sampled_from(monomials(vars, 3)),
                                 coefficients(k), max_size=5))
    scale = draw(st.sampled_from([1, -1, Fraction(-7, 6), Fraction(12, 35)]))
    return Poly(vars, table).scale(scale)


@settings(max_examples=300, deadline=None)
@given(printable_polys())
def test_print_matches_the_reference_printer(p):
    # printed from the packed form: no terms table is built
    with no_fraction_built():
        text = str(p)
    assert text == reference_str(p)
    assert all(str(c) == reference_scalar_str(c) for c in p.terms.values())
    assert parse_poly(text, p.vars, p.field) == p


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    p = random_poly(rng, ("x", "y", "z"), 4, max_terms=6)
    assert parse_poly(str(p), ("x", "y", "z")) == p


def test_print_parse_roundtrip_extension():
    field = ExtField(3)
    c = ExtScalar(field, [0, 1])
    p = Poly(XY, {(2, 0): c / 6, (1, 1): -c * c, (0, 0): c + 1, (0, 1): Fraction(-2, 3)})
    assert parse_poly(str(p), XY, field) == p


# -- ring axioms ---------------------------------------------------------------


@st.composite
def polys(draw, vars=("x", "y", "z"), max_degree=4):
    monos = monomials(vars, max_degree)
    table = draw(st.dictionaries(
        st.sampled_from(monos),
        st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool),
        max_size=4,
    ))
    return Poly(vars, table)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(p, q):
    lhs = (p * q).diff("x")
    rhs = p.diff("x") * q + p * q.diff("x")
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=3), polys(max_degree=3))
def test_substitute_is_ring_homomorphism(p, q):
    images = [parse_poly(e, XY) for e in ("x - y", "x*y", "y^2 - 2*x")]
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=3))
def test_eval_after_substitute(p):
    images = [parse_poly(e, XY) for e in ("x - y", "x*y", "y^2 - 2*x")]
    point = [Fraction(1, 2), Fraction(-2)]
    image_point = [evaluate(g, point) for g in images]
    assert evaluate(p.substitute(images), point) == evaluate(p, image_point)


def test_monomial_keys_unpack_in_graded_lex_order():
    unpack = _unpacker(2)
    assert [unpack(key) for key in _monomial_keys(2, 2)] == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_monomial_keys_are_the_packed_monomials_up_to_k_in_ascending_order():
    for n in range(5):
        vs = ("x", "y", "z", "w")[:n]
        for k in range(-1, 9):
            # every exponent tuple of degree <= k, by degree and then lex
            reference = monomials(vs, k)
            packed = [sum(e * w for e, w in zip(mono, _weights(n))) for mono in reference]
            assert _monomial_keys(n, k) == packed == sorted(packed), (n, k)
            assert tuple(map(_unpacker(n), _monomial_keys(n, k))) == reference, (n, k)


def test_monomial_keys_at_their_edges():
    # no monomial has a negative degree; with no variable, 1 is the only one
    assert _monomial_keys(0, -1) == _monomial_keys(2, -1) == []
    assert _monomial_keys(0, 0) == [0]
    # linear in k for one variable
    start = time.perf_counter()
    line = _monomial_keys(1, 20000)
    assert time.perf_counter() - start < 1
    assert tuple(map(_unpacker(1), line)) == monomials(("x",), 20000)


def test_arithmetic_cross_checked_against_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(p):
        return sympy.sympify(str(p).replace("^", "**"))

    rng = random.Random(424242)
    vars3 = ("x", "y", "z")
    for _ in range(10):
        p = random_poly(rng, vars3, 3, max_terms=5)
        q = random_poly(rng, vars3, 3, max_terms=5)
        assert sympy.expand(to_sympy(p) * to_sympy(q) - to_sympy(p * q)) == 0
        assert sympy.expand(to_sympy(p) + to_sympy(q) - to_sympy(p + q)) == 0
        x = sympy.Symbol("x")
        assert sympy.expand(sympy.diff(to_sympy(p), x) - to_sympy(p.diff("x"))) == 0
        images = [parse_poly(e, XY) for e in ("x - y", "x*y", "y^2 - 2*x")]
        composed = p.substitute(images)
        subs = to_sympy(p).subs(
            {sympy.Symbol(v): to_sympy(g) for v, g in zip(vars3, images)},
            simultaneous=True)
        assert sympy.expand(subs - to_sympy(composed)) == 0


# -- the product kernel against an independent reference --------------------
#
# The reference stores a polynomial over Q(c), c^k = 6, as a dict from
# (exponents, power of c) to a nonzero Fraction, and multiplies term by term.

KERNEL_VARS = ("x", "y")


def to_reference(p: Poly) -> dict:
    ref = {}
    for mono, coeff in p.terms.items():
        parts = coeffs(coeff) if isinstance(coeff, ExtScalar) else (coeff,)
        for j, q in enumerate(parts):
            if q:
                ref[(mono, j)] = Fraction(q)
    return ref


def reference_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for key, q in b.items():
        out[key] = out.get(key, Fraction(0)) + sign * q
    return {key: q for key, q in out.items() if q}


def reference_mul(a: dict, b: dict, k: int) -> dict:
    out = {}
    for (ma, ja), qa in a.items():
        for (mb, jb), qb in b.items():
            j, q = ja + jb, qa * qb
            if j >= k:
                j, q = j - k, 6 * q
            key = (tuple(x + y for x, y in zip(ma, mb)), j)
            out[key] = out.get(key, Fraction(0)) + q
    return {key: q for key, q in out.items() if q}


FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5]))


def coefficients(k: int | None):
    """Fractions (k None), elements of ExtField(k), or a mix of both (k < 0)."""
    if k is None:
        return FRACTIONS
    field = ExtField(abs(k))
    ext = st.lists(FRACTIONS, min_size=abs(k), max_size=abs(k)).map(
        lambda qs: ExtScalar(field, qs))
    return st.one_of(FRACTIONS, ext) if k < 0 else ext


@st.composite
def kernel_operands(draw):
    """(k for the reference, pairs of polys over one coefficient ring)."""
    k = draw(st.sampled_from([None, 1, 2, 3, 4, -1, -2, -3]))
    monos = monomials(KERNEL_VARS, 3)
    poly = st.dictionaries(st.sampled_from(monos), coefficients(k), max_size=4).map(
        lambda table: Poly(KERNEL_VARS, table))
    pairs = draw(st.lists(st.tuples(poly, poly), min_size=2, max_size=3))
    return abs(k or 1), pairs


def from_reference(ref: dict, k: int) -> dict:
    """The coefficient table of a reference, for the public constructor."""
    parts: dict = {}
    for (mono, j), q in ref.items():
        parts.setdefault(mono, [Fraction(0)] * k)[j] = q
    return {mono: ExtScalar(ExtField(k), qs) if any(qs[1:]) else qs[0]
            for mono, qs in parts.items()}


def reference_diff(a: dict, idx: int) -> dict:
    return {(m[:idx] + (m[idx] - 1,) + m[idx + 1:], j): q * m[idx]
            for (m, j), q in a.items() if m[idx]}


def reference_jet(a: dict, order: int) -> dict:
    return {(m, j): q for (m, j), q in a.items() if sum(m) <= order}


def unpacked(key: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of a packed key without its c field: fields of
    FIELD_BITS bits, e_1 highest, under a field that holds the total degree."""
    mask = (1 << FIELD_BITS) - 1
    exponents = tuple(key >> (n - 1 - i) * FIELD_BITS & mask for i in range(n))
    assert key >> n * FIELD_BITS == sum(exponents)
    return exponents


def assert_canonical(p: Poly, rational: bool) -> None:
    # the packed form: nonzero numerators over den > 0, nothing common
    nums, den = p._ints
    assert den > 0 and all(nums.values())
    assert math.gcd(den, *nums.values()) == 1
    # the power j of c sits above the degree field, below k
    n, k = len(p.vars), 1 if p.field is None else p.field.k
    cshift = (n + 1) * FIELD_BITS
    # the field is None exactly when no key has a power of c left
    assert (p.field is None) == all(key >> cshift == 0 for key in nums)
    parts: dict = {}
    for key, num in nums.items():
        j = key >> cshift
        assert 0 <= j < k
        mono = unpacked(key - (j << cshift), n)
        parts.setdefault(mono, [Fraction(0)] * k)[j] = Fraction(num, den)
    # terms equals the reference exactly, with an ExtScalar where c is left
    assert p.terms == {mono: ExtScalar(p.field, qs) if any(qs[1:]) else qs[0]
                       for mono, qs in parts.items()}
    assert all(type(c) is (ExtScalar if any(parts[mono][1:]) else Fraction)
               for mono, c in p.terms.items())
    assert all(p.terms.values())
    if rational:
        assert all(type(c) is Fraction and math.gcd(c.numerator, c.denominator) == 1
                   for c in p.terms.values())
    assert Poly(p.vars, p.terms) == p


@settings(max_examples=60, deadline=None)
@given(kernel_operands())
def test_kernel_matches_reference(operands):
    k, pairs = operands
    rational = all(type(c) is Fraction for a, b in pairs
                   for c in (*a.terms.values(), *b.terms.values()))
    a, b = pairs[0]
    ra, rb = to_reference(a), to_reference(b)
    # every result is computed in the packed form, with no Fraction built;
    # the results of the first five are fed back into the kernels
    with no_fraction_built():
        ab, total = a * b, sum_of_products(KERNEL_VARS, pairs)
        results = [ab, a + b, a - b, total, sum_of_products(KERNEL_VARS, pairs + [(-a, b)]),
                   ab * total,
                   sum_of_products(KERNEL_VARS, [(ab, total), (total.diff("x"), ab.jet(2))]),
                   ab.diff("x"), total.diff("y"), ab.jet(3), total.jet(1), -ab, ab + total,
                   ab - total]
    rab = reference_mul(ra, rb, k)
    expected = {}
    for p, q in pairs:
        expected = reference_add(expected, reference_mul(to_reference(p), to_reference(q), k))
    references = [
        rab,
        reference_add(ra, rb),
        reference_add(ra, rb, -1),
        expected,
        # a cancelling pair removes exactly a*b from the sum
        reference_add(expected, rab, -1),
        reference_mul(rab, expected, k),
        reference_add(reference_mul(rab, expected, k),
                      reference_mul(reference_diff(expected, 0), reference_jet(rab, 2), k)),
        reference_diff(rab, 0),
        reference_diff(expected, 1),
        reference_jet(rab, 3),
        reference_jet(expected, 1),
        reference_add({}, rab, -1),
        reference_add(rab, expected),
        reference_add(rab, expected, -1),
    ]
    # the sum is over the operands' one field exactly when a power of c is left
    fields = {p.field for pair in pairs for p in pair} - {None}
    assert total.field == (fields.pop() if any(j for _, j in expected) else None)
    zero = (0,) * len(KERNEL_VARS)
    assert ab.constant_term() == from_reference(rab, k).get(zero, 0)
    terms = total.terms
    for mono in monomials(KERNEL_VARS, 2):
        assert terms.get(mono, 0) == from_reference(expected, k).get(mono, 0)
    assert (ab - ab).is_zero() and ab.is_zero() == (not rab)
    for result, reference in zip(results, references):
        assert result.is_zero() == (not reference)
        # degree and order count the variables, not the powers of c
        degrees = [sum(mono) for mono, _ in reference]
        assert result.degree() == max(degrees, default=-1)
        assert result.order() == min(degrees, default=math.inf)
        assert result.is_rational() == all(j == 0 for _, j in reference)
        expect = Poly(KERNEL_VARS, from_reference(reference, k))
        assert result == expect and hash(result) == hash(expect)
        assert to_reference(result) == reference
        assert_canonical(result, rational)


def test_extension_of_order_one_keeps_no_power_of_c():
    # ext: 1 adjoins c = 6, which is already rational: every Poly is over Q
    field = ExtField(1)
    p = parse_poly("c*x + 1/2*c^2*y - 3", XY, field)
    assert p.field is None and p.is_rational()
    assert p == P("6*x + 18*y - 3") and hash(p) == hash(P("6*x + 18*y - 3"))
    assert str(p) == "6*x + 18*y - 3" and parse_poly(str(p), XY, field) == p
    assert all(type(c) is Fraction for c in p.terms.values())
    # so is a table of its elements, which are rational ExtScalars
    q = Poly(XY, {(1, 0): ExtScalar(field, [6]), (0, 1): ExtScalar(field, [9])})
    assert q.field is None and q == P("6*x + 9*y")
    for result in (p * p, p.diff("x"), p.substitute([P("x*y"), p]), -p + p, q * p):
        assert result.field is None
        assert_canonical(result, False)


def test_cancelled_powers_of_c_leave_a_rational_polynomial():
    field = ExtField(2)
    # c*x*y cancels in the product, and c^2 = 6 cancels the y^2 terms and 6
    r = parse_poly("(x + c*y)*(x - c*y) + c^2*y^2 + c*c - 6", XY, field)
    assert r.field is None and r.is_rational() and str(r) == "x^2"
    assert r == P("x^2") and hash(r) == hash(P("x^2"))
    assert_canonical(r, True)
    # one monomial keeps a power of c: the polynomial keeps its field
    s = parse_poly("x + c*y - c*y + c*x", XY, ExtField(3))
    assert s.field == ExtField(3) and not s.is_rational()
    assert str(s) == "(c + 1)*x" and parse_poly(str(s), XY, ExtField(3)) == s
    d = s - parse_poly("c*x", XY, ExtField(3))
    assert s != P("x") and d == P("x") and d.field is None


def test_kernels_refuse_two_extension_fields():
    # no monomial is shared, so no two coefficients ever meet
    a = parse_poly("c*x", XY, ExtField(2))
    q = P("x*y")
    b = parse_poly("c*y + 1", XY, ExtField(3))
    for op in (lambda: a + b, lambda: a - b, lambda: b - a, lambda: a * b,
               lambda: sum_of_products(XY, [(a, q), (q, b)]),
               lambda: Poly(XY, {(1, 0): a.terms.get((1, 0), 0),
                                 (0, 1): b.terms.get((0, 1), 0)})):
        with pytest.raises(ScalarError):
            op()
    # Q mixes with any one field, and equal fields mix
    assert (a + q).field == ExtField(2) and (q * a).field == ExtField(2)
    assert (a * parse_poly("c*y", XY, ExtField(2))) == P("6*x*y")


def test_rational_results_mix_across_extension_fields():
    # computed over k = 2 and k = 3, both left with no power of c: over Q
    r2 = parse_poly("c*x", XY, ExtField(2)) * parse_poly("c*y", XY, ExtField(2))
    r3 = parse_poly("(c*x + y)^3 - c^3*x^3", XY, ExtField(3)) - parse_poly(
        "3*c^2*x^2*y + 3*c*x*y^2", XY, ExtField(3))
    assert r2 == P("6*x*y") and r3 == P("y^3")
    assert r2.field is None and r3.field is None
    assert r2 + r3 == P("6*x*y + y^3") and r2 * r3 == P("6*x*y^4")
    # and each mixes with a polynomial that keeps the other field
    a3, a2 = parse_poly("c*x", XY, ExtField(3)), parse_poly("c*y", XY, ExtField(2))
    assert r2 * a3 == parse_poly("6*c*x^2*y", XY, ExtField(3))
    assert sum_of_products(XY, [(r3, a2), (r2, r3)]) == parse_poly(
        "c*y^4 + 6*x*y^4", XY, ExtField(2))
    mixed = Poly(XY, {(1, 0): r2.terms.get((1, 1), 0), (0, 1): a3.terms.get((1, 0), 0)})
    assert mixed == parse_poly("6*x + c*y", XY, ExtField(3))


def test_parser_counts_monomials_not_powers_of_c():
    # 2 monomials give at most 51 terms in the 50th power; with its powers
    # of c split, the base would count 3 and the bound would be C(52, 2)
    field = ExtField(3)
    vs = ("x", "y", "z", "w")
    p = parse_poly("(c + c^2 + x)^50", vs, field)
    assert len(p.terms) == 51 and p.degree() == 50
    with pytest.raises(PolyParseError, match="power may have up to 1326 terms"):
        parse_poly("(c + y + x)^50", vs, field)


def test_substitute_forms_one_term_per_monomial(monkeypatch):
    field = ExtField(3)
    p = parse_poly("(1 + c + c^2)*x^3 + c*y^2", XY, field)
    images = [P("x + y"), P("x*y")]
    expected = parse_poly("(1 + c + c^2)*(x + y)^3 + c*(x*y)^2", XY, field)
    products, kernel_calls = [], []
    multiply, kernel = Poly.__mul__, poly_module.sum_of_products
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
    monkeypatch.setattr(poly_module, "sum_of_products",
                        lambda *args: kernel_calls.append(1) or kernel(*args))
    assert p.substitute(images) == expected
    # the powers (x + y)^2, (x + y)^3 and (x*y)^2 are the only products:
    # each monomial has one factor, so it is its power; then one
    # sum_of_products collects both monomials with their coefficients
    assert len(products) == 3
    assert len(kernel_calls) == 3 + 1


def test_products_whose_terms_cancel():
    # one pair whose term pairs meet under one key (x*y) and, but for the
    # second case, cancel there: over Q, over Q(6^(1/3)), and there also
    # after the fold of c^4*x*y to 6*c*x*y, which meets -6*c*x*y
    field = ExtField(3)
    cases = [(P("x + y"), P("x - y"), P("x^2 - y^2"), True),
             (P("1/2*x + y"), P("x - 1/2*y"), P("1/2*x^2 + 3/4*x*y - 1/2*y^2"), True),
             (parse_poly("x + c*y", XY, field), parse_poly("x - c*y", XY, field),
              parse_poly("x^2 - c^2*y^2", XY, field), False),
             (parse_poly("c*x + c^2*y", XY, field), parse_poly("c^2*x - 6*y", XY, field),
              parse_poly("6*x^2 - 6*c^2*y^2", XY, field), False)]
    for a, b, expected, rational in cases:
        assert a * b == expected, (a, b)
        assert_canonical(a * b, rational)
    # and pairs whose products cancel one another, to zero
    x, y = P("x"), P("y")
    total = sum_of_products(XY, [(x, y), (-y, x)])
    assert total.is_zero() and total._ints == ({}, 1)
    c = parse_poly("c*x", XY, field)
    total = sum_of_products(XY, [(c, c), (P("-1*x"), parse_poly("c^2*x", XY, field))])
    assert total.is_zero() and total.field is None


def test_substitute_with_a_zero_image_or_a_power_cut_to_zero():
    # each result is the jet of the full composition
    p = P("X^3*Y + 2*X*Y^2 - 3*Y + 1/2*X^2 + 5", ("X", "Y"))
    cases = [[P("x^2 + x*y"), P("0")],
             [P("0"), P("y - 2/3*x^2")],
             # X^2 and Y^2 lie beyond low jets, and the image of Y has a constant
             [P("x^3 - y^2"), P("1 + x^2*y")],
             [P("x + 1"), P("y^4")]]
    for images in cases:
        full = p.substitute(images)
        for k in range(9):
            assert p.substitute(images, jet=k) == full.jet(k), (images, k)
    assert p.substitute([P("0"), P("0")]) == P("5")
    assert P("X^2*Y", ("X", "Y")).substitute([P("x"), P("0")]).is_zero()
    # a monomial with a zero image, or whose images' orders sum past the
    # jet, forms no product at all
    products = []
    kernel = poly_module.sum_of_products
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly_module, "sum_of_products",
                      lambda *args: products.append(args) or kernel(*args))
        assert P("X^5*Y + X^4", ("X", "Y")).substitute([P("0"), P("y")], jet=6).is_zero()
        assert P("X^5 + X*Y", ("X", "Y")).substitute([P("x + y^2"), P("y")], jet=1).is_zero()
    assert [list(pairs) for _, pairs in products] == [[], []]
    for q in (p, P("1", ("X", "Y"))):
        with pytest.raises(PolyError, match="jet order must be >= 0"):
            q.substitute(cases[0], jet=-1)


def test_substitute_of_zero_is_zero_over_the_images_variables():
    images = [P("x + y"), parse_poly("c*y^2", XY, ExtField(2))]
    zero = P("0", ("X", "Y"))
    for jet in (None, 0, 3):
        result = zero.substitute(images, jet=jet)
        assert result == Poly.zero(XY) and result.field is None
    # the checks of the arguments come first
    with pytest.raises(VariableMismatchError, match="expected 2 images"):
        zero.substitute(images[:1])
    with pytest.raises(VariableMismatchError, match="share one variable list"):
        zero.substitute([P("x"), P("x", ("x",))])
    with pytest.raises(PolyError, match="jet order must be >= 0"):
        zero.substitute(images, jet=-1)


def test_scale_substitute_and_degree_in_integer_form():
    scale = Fraction(-7, 4)
    # each result is computed in integer form, with no Fraction built
    with no_fraction_built():
        p = P("2/3*x^2*y - 5/7*y + 1")
        q = p.scale(scale)
        s = p.substitute([P("x + y"), P("2/3*y")], jet=2)
    assert q == P("-7/6*x^2*y + 5/4*y - 7/4") and q.scale(Fraction(-4, 7)) == p
    assert s == P("-10/21*y + 1")
    assert p.scale(0).is_zero() and p.scale(1) == p
    zero = p - p
    assert zero._ints and zero.degree() == -1 and zero.order() == math.inf
    assert p.degree() == 3 and p.order() == 0 and (p - P("1")).order() == 1


def test_kernel_rejects_mismatched_variables():
    p = parse_poly("x + y", XY)
    q = parse_poly("x + z", ("x", "z"))
    for op in (lambda: p * q, lambda: p + q, lambda: p - q,
               lambda: sum_of_products(XY, [(p, p), (p, q)]),
               lambda: sum_of_products(("x", "z"), [(q, q), (p, p)])):
        with pytest.raises(VariableMismatchError):
            op()


def test_sum_of_products_of_nothing_is_zero():
    assert sum_of_products(XY, []) == Poly.zero(XY)
    assert sum_of_products(XY, [(Poly.zero(XY), P("x"))]) == Poly.zero(XY)


def test_sum_of_products_over_mixed_denominators():
    pairs = [(P("1/2*x"), P("y")), (P("1/3*x"), P("1/5*y + 1")), (P("x"), P("y"))]
    assert sum_of_products(XY, pairs) == P("47/30*x*y + 1/3*x")


@st.composite
def ordered_pairs(draw):
    """Pairs over one coefficient ring: a one-term factor against five to ten
    terms, or two factors of up to six terms; denominators 1, 2, 3 and 5."""
    k = draw(st.sampled_from([None, 2, 3, 4, -2, -3]))
    monos = monomials(KERNEL_VARS, 3)

    def poly(least, most):
        return st.dictionaries(st.sampled_from(monos), coefficients(k), min_size=least,
                               max_size=most).map(lambda table: Poly(KERNEL_VARS, table))

    pair = st.one_of(st.tuples(poly(1, 1), poly(5, 10)), st.tuples(poly(0, 6), poly(0, 6)))
    return draw(st.lists(pair, min_size=1, max_size=4))


def reinserted(p: Poly) -> Poly:
    """p built again from its term table in reversed insertion order."""
    return Poly(p.vars, dict(reversed(list(p.terms.items()))))


FOLD_FIELD = ExtField(3)


@settings(max_examples=60, deadline=None)
@given(ordered_pairs(), st.randoms(use_true_random=False))
@example([(parse_poly("c^2*x", KERNEL_VARS, FOLD_FIELD),
           parse_poly("1/2*c*y + 2/3*c^2*x^2 + 1/5*c*x*y + x + 3", KERNEL_VARS, FOLD_FIELD)),
          (parse_poly("1/3*c*y^2", KERNEL_VARS, FOLD_FIELD),
           parse_poly("c^2 + 2*c*x", KERNEL_VARS, FOLD_FIELD))], random.Random(0))
def test_kernel_result_does_not_depend_on_operand_order(pairs, rnd):
    # the kernel loops over the factor with fewer terms; swapping the two
    # factors of a pair, reordering the pairs or rebuilding the operands'
    # tables in another insertion order gives an equal result, printed alike
    total = sum_of_products(KERNEL_VARS, pairs)
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    for other in ([(b, a) for a, b in pairs], shuffled,
                  [(reinserted(b), reinserted(a)) for a, b in reversed(pairs)]):
        result = sum_of_products(KERNEL_VARS, other)
        assert result == total
        assert str(result) == str(total)


# -- packed keys at the field width ----------------------------------------
#
# No Poly has a degree above MAX_DEGREE = 2**FIELD_BITS - 1, the largest
# that the degree field of a packed key holds: products, powers,
# construction and the parser refuse degree 2**FIELD_BITS and above.

XYZ = ("x", "y", "z")
TOP = 2**FIELD_BITS


def boundary_products() -> list[tuple[Poly, Poly]]:
    """Pairs of factors whose products have degrees on both sides of TOP."""
    x, z = Poly.variable(XYZ, "x"), Poly.variable(XYZ, "z")
    half = 2 ** (FIELD_BITS - 1)
    mixed = Poly(XYZ, {(TOP - 3, 1, 0): Fraction(2, 3), (0, 0, TOP - 2): Fraction(-5),
                       (1, 1, 1): Fraction(1, 7)})
    quadratic = Poly(XYZ, {(1, 1, 0): Fraction(1), (0, 0, 2): Fraction(-3, 2),
                           (0, 1, 0): Fraction(1), (0, 0, 0): Fraction(1)})
    linear = Poly(XYZ, {(0, 1, 0): Fraction(1, 2), (0, 0, 0): Fraction(3)})
    return [
        (x ** (TOP - 1), x),                   # degree TOP, one term
        (x ** (TOP - 2), x),                   # degree TOP - 1
        (x ** half, x ** half),                # degree TOP
        (x ** (half - 1), x ** half),          # degree TOP - 1
        (mixed, quadratic),                    # degree TOP, in all three fields
        (mixed, linear),                       # degree TOP - 1
        (mixed, z.scale(Fraction(-2, 5))),     # degree TOP - 1
        (mixed.diff("x"), quadratic),          # degree TOP - 1
    ]


def test_products_at_the_field_width():
    assert MAX_DEGREE == TOP - 1
    other = parse_poly("1/2*x - y*z + 3", XYZ)
    ro = to_reference(other)
    for a, b in boundary_products():
        ref = reference_mul(to_reference(a), to_reference(b), 1)
        degree = max(sum(m) for m, _ in ref)
        if degree == TOP:
            # refused exactly at the width, also as one pair of a sum
            for op in (lambda: a * b, lambda: sum_of_products(XYZ, [(other, other), (a, b)])):
                with pytest.raises(PolyError, match=f"degree {TOP} is above MAX_DEGREE"):
                    op()
            continue
        product = a * b
        assert degree == TOP - 1 and product.degree() == degree
        derived = [(product, ref)]
        derived += [(product.diff(v), reference_diff(ref, i)) for i, v in enumerate(XYZ)]
        derived += [(product.jet(k), reference_jet(ref, k)) for k in (2, TOP - 2, TOP - 1, TOP)]
        derived += [(product + other, reference_add(ref, ro)),
                    (other + product, reference_add(ro, ref)),
                    (product - other, reference_add(ref, ro, -1))]
        for op in (lambda: product * other, lambda: other * product):
            with pytest.raises(PolyError, match=f"degree {TOP + 1} is above MAX_DEGREE"):
                op()
        for result, reference in derived:
            expect = Poly(XYZ, from_reference(reference, 1))
            assert result == expect and hash(result) == hash(expect)
            assert expect == result
            assert to_reference(result) == reference
            assert_canonical(result, True)


def test_nested_powers_past_the_field_width(monkeypatch):
    p = parse_poly("(((x^10)^10)^10)^10", XYZ)
    assert p == Poly(XYZ, {(10**4, 0, 0): 1}) and str(p) == "x^10000"
    assert p.degree() == p.order() == 10**4
    assert p.diff("x") == Poly(XYZ, {(10**4 - 1, 0, 0): 10**4})
    assert p.jet(10**4 - 1).is_zero() and p.jet(10**4) == p
    assert p * parse_poly("1/2*y - 1", XYZ) == Poly(XYZ, {(10**4, 1, 0): Fraction(1, 2),
                                                          (10**4, 0, 0): -1})
    assert str(parse_poly("2*((x^10)^100)^10 - (((x^10)^10)^10)^10 + z", XYZ)) == "x^10000 + z"
    # the parser refuses a degree above MAX_DEGREE at its a-priori bound
    with pytest.raises(PolyParseError,
                       match=f"power may have degree up to 1000000, more than {MAX_DEGREE}") as err:
        parse_poly("((x^100)^100)^100", XYZ)
    assert err.value.position == len("((x^100)^100)")
    top = "((x^16)^64)^63*(x^16)^63*x^15"
    assert parse_poly(top, XYZ).degree() == MAX_DEGREE
    with pytest.raises(PolyParseError, match=f"product may have degree up to {TOP}, more than"):
        parse_poly(f"{top}*y", XYZ)
    with pytest.raises(PolyParseError, match=f"power may have degree up to {TOP}, more than"):
        parse_poly("((x^16)^64)^64", XYZ)
    # construction refuses a monomial of degree TOP
    assert Poly(XYZ, {(TOP - 2, 1, 0): 1}).degree() == MAX_DEGREE
    with pytest.raises(PolyError, match="MAX_DEGREE"):
        Poly(XYZ, {(TOP - 2, 1, 1): 1})
    # a power of degree TOP or more is refused before any product is formed
    x, xy = Poly.variable(XYZ, "x"), parse_poly("2*x*y", XYZ)
    products = []
    multiply = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: products.append(1) or multiply(a, b))
    assert (x ** (TOP - 1)).degree() == (xy ** (TOP // 2 - 1)).degree() + 1 == MAX_DEGREE
    assert products
    products.clear()
    for base, exponent in ((x, TOP), (xy, TOP // 2), (xy, 10**9)):
        with pytest.raises(PolyError, match="MAX_DEGREE"):
            base ** exponent
    assert not products


# -- fuzzing the expression grammar ------------------------------------------


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(GRAMMAR_STRINGS, st.sampled_from([None, 2, 3]))
def test_parse_random_token_strings(text, k):
    """Any token string parses to a Poly that prints and re-parses to
    itself, or is refused with a PolyParseError."""
    field = ExtField(k) if k else None
    try:
        p = parse_poly(text, XY, field)
    except PolyParseError:
        return
    assert parse_poly(str(p), XY, field) == p
