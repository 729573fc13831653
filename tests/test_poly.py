from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals.poly import (
    MAX_COEFF_BITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERMS,
    Poly,
    PolyParseError,
    VariableMismatchError,
    monomials_up_to,
    parse_poly,
    _height,
    _Parser,
    _tokenize,
    sum_of_products,
)
from frontals.scalars import ExtField, ExtScalar

from helpers import random_poly

XY = ("x", "y")


def P(text: str, vars=XY) -> Poly:
    return parse_poly(text, vars)


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


def test_parser_carries_exact_heights():
    # a height the parser carries with a factor is the one _height computes
    F = ExtField(2)
    for text in ("x", "7", "-5/2", "0", "-0/3", "12/8", "c", "(x + 1/3)", "x^3", "(2/3*y)^4",
                 "-9/4", "c^3", "(1 + c)^2"):
        parser = _Parser(_tokenize(text), XY, F)
        poly, height = parser.parse_factor()
        assert parser.peek().kind == "end"
        assert height is None or height == _height(poly), text


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
    assert p.coefficient((1, 0)) == field.generator ** 2 / 6
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


def test_diff_fold_jacobian():
    assert P("1/2*x^2 + x*y").diff("x") == P("x + y")


def test_diff_constant():
    assert P("2").diff("x").is_zero()


def test_diff_power_rule():
    # oracle: power rule term by term
    assert P("x^4 + 2*x^2*y + y^2").diff("x") == P("4*x^3 + 4*x*y")


def test_eval_cases():
    assert P("x + y").eval([0, 0]) == 0
    assert P("2").eval([0, 0]) == 2
    assert P("3*x^4 + x^2*y").eval([1, 2]) == 5


def test_eval_arity_checked():
    with pytest.raises(VariableMismatchError):
        P("x").eval([1])


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_print_parse_roundtrip(seed):
    rng = random.Random(seed)
    p = random_poly(rng, ("x", "y", "z"), 4, max_terms=6)
    assert parse_poly(str(p), ("x", "y", "z")) == p


def test_print_parse_roundtrip_extension():
    field = ExtField(3)
    c = field.generator
    p = Poly(XY, {(2, 0): c / 6, (1, 1): -c * c, (0, 0): c + 1, (0, 1): Fraction(-2, 3)})
    assert parse_poly(str(p), XY, field) == p


# -- ring axioms ---------------------------------------------------------------


@st.composite
def polys(draw, vars=("x", "y", "z"), max_degree=4):
    monos = monomials_up_to(vars, max_degree)
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
    image_point = [g.eval(point) for g in images]
    assert p.substitute(images).eval(point) == p.eval(image_point)


def test_monomials_up_to():
    monos = monomials_up_to(XY, 2)
    assert monos == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


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
        parts = coeff.coeffs if isinstance(coeff, ExtScalar) else (coeff,)
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
    ext = st.lists(FRACTIONS, min_size=abs(k), max_size=abs(k)).map(field.element)
    return st.one_of(FRACTIONS, ext) if k < 0 else ext


@st.composite
def kernel_operands(draw):
    """(k for the reference, pairs of polys over one coefficient ring)."""
    k = draw(st.sampled_from([None, 2, 3, 4, -2, -3]))
    monos = monomials_up_to(KERNEL_VARS, 3)
    poly = st.dictionaries(st.sampled_from(monos), coefficients(k), max_size=4).map(
        lambda table: Poly(KERNEL_VARS, table))
    pairs = draw(st.lists(st.tuples(poly, poly), min_size=2, max_size=3))
    return abs(k or 1), pairs


def assert_canonical(p: Poly, rational: bool) -> None:
    assert all(p.terms.values())
    if rational:
        assert all(type(c) is Fraction for c in p.terms.values())
    assert Poly(p.vars, p.terms) == p


@settings(max_examples=60, deadline=None)
@given(kernel_operands())
def test_kernel_matches_reference(operands):
    k, pairs = operands
    rational = all(type(c) is Fraction for a, b in pairs
                   for c in (*a.terms.values(), *b.terms.values()))
    a, b = pairs[0]
    ra, rb = to_reference(a), to_reference(b)
    cases = [
        (a * b, reference_mul(ra, rb, k)),
        (a + b, reference_add(ra, rb)),
        (a - b, reference_add(ra, rb, -1)),
    ]
    expected = {}
    for p, q in pairs:
        expected = reference_add(expected, reference_mul(to_reference(p), to_reference(q), k))
    cases.append((sum_of_products(KERNEL_VARS, pairs), expected))
    # a cancelling pair removes exactly a*b from the sum
    cases.append((sum_of_products(KERNEL_VARS, pairs + [(-a, b)]),
                  reference_add(expected, reference_mul(ra, rb, k), -1)))
    for result, reference in cases:
        assert to_reference(result) == reference
        assert_canonical(result, rational)


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
