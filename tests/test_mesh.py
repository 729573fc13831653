from __future__ import annotations

import math
import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontals.maps import PolyMap
from frontals.mesh import (MAX_RANGE_BITS, MAX_RESOLUTION, _decimal12, build_obj,
                           frontal_surface, parse_range)
from frontals.poly import Poly, PolyError, parse_poly
from frontals.scalars import ExtField

from helpers import evaluate

XY = ("x", "y")


def decimal12(q: Fraction) -> str:
    return _decimal12(q.numerator, q.denominator)


def test_decimal12_rendering():
    assert decimal12(Fraction(0)) == "0"
    assert decimal12(Fraction(1, 2)) == "0.5"
    assert decimal12(Fraction(1, 3)) == "0.333333333333"
    assert decimal12(Fraction(-3, 2)) == "-1.5"
    assert decimal12(Fraction(100)) == "100"
    # round-half-even at the 12th significant digit
    assert decimal12(Fraction(1000000000005, 10**13)) == "0.1"


def _decimal12_in_local_context(value: Fraction) -> str:
    """The reference rendering: a fresh local context for every value."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 12
        ctx.rounding = ROUND_HALF_EVEN
        d = (Decimal(value.numerator) / Decimal(value.denominator)).normalize()
    return format(d, "f")


def test_decimal12_matches_a_local_context_rendering():
    rng = random.Random(12)
    values = [Fraction(rng.randint(-10 ** rng.randint(1, 30), 10 ** rng.randint(1, 30)),
                       rng.randint(1, 10 ** rng.randint(1, 30)))
              for _ in range(3000)]
    # exact ties at the 13th significant digit, with either parity of the 12th
    values += [Fraction(rng.choice((-1, 1)) * (10 * rng.randint(10**11, 10**12 - 1) + 5))
               * Fraction(10) ** rng.randint(-25, 25)
               for _ in range(1000)]
    for v in values:
        assert decimal12(v) == _decimal12_in_local_context(v)


def test_obj_grid_counts_and_origin_vertex():
    germ = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    F = frontal_surface(germ, (parse_poly("x", XY),))
    obj = build_obj(F, Fraction(1), 2)
    lines = obj.strip().split("\n")
    vertices = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(vertices) == 9
    assert len(faces) == 8
    assert vertices[4] == "v 0 0 0"  # center of the 3x3 grid is the origin


def test_obj_vertex_count_for_res_64():
    germ = PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY)
    F = frontal_surface(germ, (parse_poly("1", XY),))
    obj = build_obj(F, Fraction(1), 64)
    assert sum(1 for l in obj.splitlines() if l.startswith("v ")) == 4225


def test_obj_is_deterministic():
    germ = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    F = frontal_surface(germ, (parse_poly("1", XY),))
    assert build_obj(F, Fraction(3, 2), 5) == build_obj(F, Fraction(3, 2), 5)


def test_dimension_preconditions():
    germ3 = PolyMap.from_exprs(["x", "y", "x*y"], XY)
    with pytest.raises(PolyError):
        frontal_surface(germ3, (parse_poly("1", XY),))
    germ = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    with pytest.raises(PolyError):
        frontal_surface(germ, ())
    with pytest.raises(PolyError):
        frontal_surface(germ, (parse_poly("1", XY), parse_poly("x", XY)))
    F = frontal_surface(germ, (parse_poly("1", XY),))
    with pytest.raises(PolyError):
        build_obj(F, Fraction(0), 4)
    with pytest.raises(PolyError):
        build_obj(F, Fraction(1), 1)


def test_obj_values_are_exactly_rounded_samples():
    germ = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    F = frontal_surface(germ, (parse_poly("1", XY),))
    obj = build_obj(F, Fraction(1, 3), 2)
    first = obj.splitlines()[0]
    x = y = Fraction(-1, 3)
    expected = [evaluate(c, [x, y]) for c in F.components]
    assert first == "v " + " ".join(decimal12(v) for v in expected)


def reference_vertices(F: PolyMap, r: Fraction, m: int) -> list[str]:
    """The vertex records sampled one point at a time by exact evaluation."""
    step = Fraction(2 * r, m)
    coords = [-r + step * i for i in range(m + 1)]
    return ["v " + " ".join(decimal12(evaluate(c, [x, y])) for c in F.components)
            for y in coords for x in coords]


@pytest.mark.parametrize("exprs, mu, field, r, m", [
    (["1/2*x^2 + x*y", "y"], "1", None, Fraction(1), 2),
    (["1/3*x^3 + x*y", "y"], "3/2 - x*y", None, Fraction(3, 2), 7),
    (["1/3*x^3 - 1/6*c^3*x*y^3", "y"], "1/6*c^3", ExtField(3), Fraction(1), 20),
    (["x^4 + 2/7*x^2*y + x^2*y^2 - y^3 + 4*y^2", "-5*y"], "x - 2/3*y^2", None,
     Fraction(5, 3), 9),
])
def test_obj_vertices_match_pointwise_evaluation(exprs, mu, field, r, m):
    germ = PolyMap.from_exprs(exprs, XY, field)
    F = frontal_surface(germ, (parse_poly(mu, XY, field),))
    vertices = build_obj(F, r, m).splitlines()[:(m + 1) ** 2]
    assert vertices == reference_vertices(F, r, m)


def test_obj_rejects_irrational_maps_and_oversized_grids():
    field = ExtField(2)
    F = PolyMap.from_exprs(["x", "y", "c*x*y"], XY, field)
    with pytest.raises(PolyError, match="rational"):
        build_obj(F, Fraction(1), 4)
    germ = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    F = frontal_surface(germ, (parse_poly("1", XY),))
    with pytest.raises(PolyError, match="at most"):
        build_obj(F, Fraction(1), MAX_RESOLUTION + 1)
    # r itself: a numerator or denominator of more than MAX_RANGE_BITS bits
    top = 2**MAX_RANGE_BITS
    assert build_obj(F, Fraction(top - 1, top - 2), 2).count("\n") == 9 + 8
    for r in (Fraction(top), Fraction(1, top), Fraction(top + 1, 3)):
        with pytest.raises(PolyError, match=f"at most {MAX_RANGE_BITS} bits"):
            build_obj(F, r, 2)


def test_parse_range_reads_what_fraction_reads():
    # the integers a text writes r with decide, before any is built
    top = 2**MAX_RANGE_BITS
    for text in ("1", " 3/4 ", "-2.5e-1", "0.75", "1_0", "1e38", "12.5E+2", "000.010e2",
                 f"{top - 1}", f"1/{top - 1}", "0." + "0" * 37 + "1", "1" + "0" * 1000 + "e-1000"):
        assert parse_range(text) == Fraction(text), text
    assert parse_range("0e999999999") == 0
    for text in ("1e39", "1e-39", f"{top}", f"1/{top}", "7" * 5000, "1e999999999",
                 "1e-999999999", "1e" + "9" * 5000, "0." + "0" * 38 + "1"):
        with pytest.raises(PolyError, match=f"at most {MAX_RANGE_BITS} bits"):
            parse_range(text)
    for text in ("abc", "", ".", "1/x", "1e"):
        with pytest.raises(ValueError):
            parse_range(text)


def _power_table_vertices(F: PolyMap, r: Fraction, m: int) -> list[str]:
    """The vertex records of an independent sampler: at grid point (i, j)
    a component of degree d is S / (D * q^d), S the sum over its terms of
    the integer numerator times q^(d - |e|) times powers of the grid values
    from a table, rendered through decimal12(Fraction(S, D * q^d))."""
    grid = [(2 * i - m) * r.numerator for i in range(m + 1)]
    q = r.denominator * m
    powers = [[a**e for e in range(9)] for a in grid]
    components = []
    for comp in F.components:
        terms = comp.terms
        deg = max((sum(mono) for mono in terms), default=0)
        den = math.lcm(*(c.denominator for c in terms.values()))
        components.append(([(ex, ey, c.numerator * (den // c.denominator) * q ** (deg - ex - ey))
                            for (ex, ey), c in terms.items()], den * q**deg))
    return ["v " + " ".join(decimal12(Fraction(sum(n * px[ex] * py[ey] for ex, ey, n in terms), den))
                            for terms, den in components)
            for py in powers for px in powers]


_MONOMIAL = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda e: sum(e) <= 8)
_COEFF = st.fractions(min_value=-20, max_value=20, max_denominator=30).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.dictionaries(_MONOMIAL, _COEFF, max_size=8), min_size=3, max_size=3),
       st.fractions(min_value=Fraction(1, 20), max_value=7, max_denominator=20),
       st.integers(2, 12))
def test_obj_vertices_match_a_power_table_sampler(terms, r, m):
    F = PolyMap(tuple(Poly(XY, t) for t in terms))
    vertices = build_obj(F, r, m).splitlines()[:(m + 1) ** 2]
    assert vertices == _power_table_vertices(F, r, m)
