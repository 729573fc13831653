from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals.linalg import SparseSolver, scaled_row
from frontals.poly import parse_poly
from frontals.scalars import ExtField, ExtScalar, ScalarError

from helpers import coeffs, generator


def test_generator_satisfies_defining_relation():
    for k in (2, 3, 4, 5):
        c = generator(k)
        assert math.prod([c] * k) == 6
        assert c * math.prod([c] * (k - 1)) == 6


def test_inverse_of_generator():
    for k in (2, 3, 4):
        c = generator(k)
        assert c.inverse() == math.prod([c] * (k - 1)) / 6
        assert c * c.inverse() == 1
        assert 1 / c == c.inverse()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ExtScalar(ExtField(3), []).inverse()


def test_rational_embedding_and_equality():
    field = ExtField(3)
    half = ExtScalar(field, [Fraction(1, 2)])
    assert half == Fraction(1, 2)
    assert half + half == 1
    assert ExtScalar(field, [0, 1]) != Fraction(1)


def test_mixing_extension_orders_is_rejected():
    a = generator(2)
    b = generator(3)
    with pytest.raises(ScalarError):
        a + b
    # equality across fields only holds through Q
    assert ExtScalar(ExtField(2), [5]) == ExtScalar(ExtField(3), [5])
    assert a != b


@st.composite
def ext_elements(draw, k: int = 3):
    field = ExtField(k)
    qs = draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=k, max_size=k))
    return ExtScalar(field, qs)


@settings(max_examples=60, deadline=None)
@given(ext_elements(), ext_elements())
def test_field_axioms(a, b):
    assert a + (-a) == 0
    assert a * b == b * a
    assert a + b == b + a
    if a:
        assert a * a.inverse() == 1
    assert (a + b) * (a - b) == a * a - b * b


def test_scalar_str_and_as_rational():
    field = ExtField(3)
    c = ExtScalar(field, [0, 1])
    assert str(Fraction(5, 9)) == "5/9"
    assert str(ExtScalar(field, [Fraction(1, 2)])) == "1/2"
    assert str(c * c / 6) == "1/6*c^2"
    assert str(-c + 1) == "-1*c + 1"
    assert ExtScalar(field, [7]) == 7


# -- integer residues against a tuple-of-Fraction reference -----------------
#
# The reference keeps an element of Q[c]/(c^k - 6) as its k Fraction
# coefficients of 1, c, ..., c^(k-1) and multiplies by convolution reduced
# with c^k = 6.


def ref_mul(a: tuple, b: tuple) -> tuple:
    k = len(a)
    prod = [Fraction(0)] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        prod[i - k] += 6 * prod[i]
    return tuple(prod[:k])


def ref_lift(q, k: int) -> tuple:
    return (Fraction(q),) + (Fraction(0),) * (k - 1)


def assert_canonical(x: ExtScalar, expected: tuple) -> None:
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert len(x.nums) == x.field.k
    assert coeffs(x) == expected


rationals = st.fractions(min_value=-7, max_value=7, max_denominator=9)


@st.composite
def ext_pairs(draw):
    k = draw(st.integers(1, 8))
    field = ExtField(k)

    def element():
        return ExtScalar(field, draw(st.lists(rationals, min_size=0, max_size=k)))

    return element(), element(), draw(st.one_of(st.integers(-9, 9), rationals))


@settings(max_examples=150, deadline=None)
@given(ext_pairs())
def test_integer_residues_match_the_reference(args):
    a, b, q = args
    k = a.field.k
    ra, rb, rq = coeffs(a), coeffs(b), ref_lift(q, k)
    assert_canonical(a, ra)
    assert_canonical(a + b, tuple(x + y for x, y in zip(ra, rb)))
    assert_canonical(a - b, tuple(x - y for x, y in zip(ra, rb)))
    assert_canonical(-a, tuple(-x for x in ra))
    assert_canonical(a * b, ref_mul(ra, rb))
    # int and Fraction operands on either side
    assert_canonical(a + q, tuple(x + y for x, y in zip(ra, rq)))
    assert_canonical(q + a, tuple(x + y for x, y in zip(ra, rq)))
    assert_canonical(a - q, tuple(x - y for x, y in zip(ra, rq)))
    assert_canonical(q - a, tuple(y - x for x, y in zip(ra, rq)))
    assert_canonical(a * q, ref_mul(ra, rq))
    assert_canonical(q * a, ref_mul(ra, rq))
    # the powers a^0 .. a^3, as repeated products
    product, power = ExtScalar(a.field, [1]), ref_lift(1, k)
    for _ in range(4):
        assert_canonical(product, power)
        product, power = product * a, ref_mul(power, ra)
    one = ref_lift(1, k)
    if q:
        assert_canonical(a / q, ref_mul(ra, ref_lift(1 / Fraction(q), k)))
    if b:
        inv = b.inverse()
        assert_canonical(inv, coeffs(inv))
        assert ref_mul(coeffs(inv), rb) == one
        assert coeffs(b * inv) == one
        assert ref_mul(coeffs(a / b), rb) == ra
        assert ref_mul(coeffs(q / b), rb) == rq
        assert ref_mul(coeffs((b * b).inverse()), ref_mul(rb, rb)) == one
    else:
        with pytest.raises(ZeroDivisionError):
            b.inverse()
    # a degree-0 residue equals and hashes like its Fraction
    if a.is_rational():
        assert a == ra[0] and ra[0] == a
        assert hash(a) == hash(ra[0])
        assert a == ExtScalar(ExtField(k + 1), [ra[0]])
    else:
        assert a != ra[0]
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    # the rendering re-parses to the same element
    assert parse_poly(str(a), ("x",), a.field).constant_term() == a


def test_constructor_validates_and_normalises():
    field = ExtField(3)
    x = ExtScalar(field, [Fraction(2, 4), 3, Fraction(-5, 6)])
    assert (x.nums, x.den) == ((3, 18, -5), 6)
    assert ExtScalar(field, []).nums == (0, 0, 0)
    assert ExtScalar(field, []).den == 1
    with pytest.raises(ValueError):
        ExtScalar(field, [1, 2, 3, 4])
    # products and sums leave lowest terms: 1/2 + 1/2 is 1/1
    half = ExtScalar(field, [Fraction(1, 2)])
    assert ((half + half).nums, (half + half).den) == ((1, 0, 0), 1)
    c = ExtScalar(field, [0, 1])
    assert ((c * 0).nums, (c * 0).den) == ((0, 0, 0), 1)


# -- SparseSolver over extension rows -------------------------------------


def _dot(row: dict, x: dict):
    return sum((v * x.get(c, 0) for c, v in row.items()), Fraction(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.lists(rationals, min_size=27, max_size=27))
def test_sparse_solver_over_extension_rows(k, qs):
    c = generator(k)
    it = iter(qs)

    def scalar():
        return next(it) + next(it) * c + next(it) * math.prod([c] * (k - 1))

    # r1 and r2 are independent by their echelon shape; r3 depends on them
    r1 = {0: c + 2, 1: scalar(), 2: scalar()}
    r2 = {1: c * c + 1, 2: scalar()}
    e, a, b = scalar(), scalar(), scalar()
    r2 = {col: r2.get(col, 0) + e * r1[col] for col in r1}
    r3 = {col: a * r1[col] + b * r2.get(col, 0) for col in r1}
    x0 = {0: scalar(), 1: scalar(), 2: scalar()}
    rows = [r1, r2, r3]
    solver = SparseSolver()
    for row in rows:
        solver.add_row(*scaled_row(row, _dot(row, x0)))
    assert solver.rank == 2 and not solver.inconsistent
    x = solver.solve()
    assert 2 not in x  # the free column is set to zero
    for row in rows:
        assert _dot(row, x) == _dot(row, x0)
    solver.add_row(*scaled_row(r3, _dot(r3, x0) + c))
    assert solver.inconsistent and solver.rank == 2
    with pytest.raises(ValueError):
        solver.solve()
