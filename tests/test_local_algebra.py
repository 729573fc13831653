from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from frontals.corpus import a_k_front
from frontals.linalg import scalar_rank
from frontals.local_algebra import MAX_UNKNOWNS, _reduce_linear_part, multiplicity
from frontals.maps import PolyMap, _jacobian_at_zero, compose
from frontals.poly import Poly, PolyError, parse_poly
from frontals.scalars import ExtField

from helpers import corank, random_linear_iso, random_origin_germ

XY = ("x", "y")


def test_fold_multiplicity():
    f = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    result = multiplicity(f)
    assert result.value == 2
    assert result.dimension_sequence[result.jet_order] == 2


def test_swallowtail_multiplicity():
    f = PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY)
    assert multiplicity(f).value == 3


def test_identity_multiplicity():
    assert multiplicity(PolyMap.from_exprs(XY, XY)).value == 1


def test_four_k_multiplicity_is_three_for_all_k():
    for k in (2, 3, 4, 5):
        for sign in ("+", "-"):
            f = PolyMap.from_exprs([f"1/3*x^3 {sign} x*y^{k}", "y"], XY)
            assert multiplicity(f).value == 3


def test_univariate_normal_forms():
    for delta in (1, 2, 3):
        g = PolyMap((Poly(("x",), {(delta,): Fraction(1, delta)}),))
        assert multiplicity(g).value == delta


def test_brute_force_square_example():
    # oracle: quotient by (x^2, y^2) has monomial basis {1, x, y, x*y}
    f = PolyMap.from_exprs(["x^2", "y^2"], XY)
    result = multiplicity(f, 6)
    assert result.value == 4
    assert multiplicity(f, 6).stabilized


def test_non_finite_germ_does_not_stabilize():
    # oracle: no power of y ever lies in the ideal (x^2)
    f = PolyMap.from_exprs(["x^2", "0"], XY)
    result = multiplicity(f, 12)
    assert result.value is None
    assert not result.stabilized
    assert not multiplicity(f, 12).stabilized
    # codimension keeps growing with the jet order
    assert result.dimension_sequence[-1] > result.dimension_sequence[-3]


def test_requires_origin_preserving():
    with pytest.raises(PolyError):
        multiplicity(PolyMap.from_exprs(["x + 1", "y"], XY))


def test_requires_equidimensional():
    with pytest.raises(PolyError):
        multiplicity(PolyMap.from_exprs(["x", "y", "x*y"], XY))


def test_dimension_sequence_is_monotone():
    # truncating the order-(k+1) system one degree down reproduces the order-k
    # system exactly, so the codimension sequence never decreases
    rng = random.Random(1111)
    germs = [
        PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY),
        PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY),
    ] + [random_origin_germ(rng, 2, 3) for _ in range(10)]
    for f in germs:
        seq = multiplicity(f, 10).dimension_sequence
        assert all(a <= b for a, b in zip(seq, seq[1:])), (f, seq)


def test_invariance_under_linear_isomorphisms():
    rng = random.Random(909)
    for _ in range(12):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 3)
        base = multiplicity(f, 10)
        if not base.stabilized:
            continue
        pre = compose(f, random_linear_iso(rng, n))
        post = compose(random_linear_iso(rng, n), f)
        assert multiplicity(pre, 10).value == base.value
        assert multiplicity(post, 10).value == base.value


def test_multiplicity_one_iff_corank_zero():
    rng = random.Random(1010)
    seen_units = 0
    for _ in range(30):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 3)
        result = multiplicity(f, 10)
        if not result.stabilized:
            continue
        if result.value == 1:
            seen_units += 1
            assert corank(f) == 0
        if corank(f) == 0:
            assert result.value == 1
    assert seen_units > 0


def test_negative_jet_cap_rejected():
    f = PolyMap.from_exprs(["x^2", "y"], ("x", "y"))
    with pytest.raises(PolyError):
        multiplicity(f, -1)


@pytest.mark.parametrize("f, last", [
    # not finite: the y-axis lies in the zero set
    (PolyMap.from_exprs(["x^2", "x*y", "z"], ("x", "y", "z")), 57),
    (PolyMap((Poly.zero(("x",)),)), 315),
])
def test_unknown_cap_stops_the_search(f, last):
    result = multiplicity(f, 100_000)
    assert not result.stabilized
    assert result.jet_order == last
    assert len(result.dimension_sequence) == last + 1
    # order last + 1 is the first at which the monomials listed and the
    # unknowns entered by the search in the c corank variables, over the
    # orders up to it, exceed the cap
    c = corank(f)
    assert (c + 1) * comb(c + last, c + 1) <= MAX_UNKNOWNS < (c + 1) * comb(c + last + 1, c + 1)
    assert "MAX_UNKNOWNS" in result.reason
    assert str(result).endswith("; " + result.reason)


def test_jet_cap_reached_first_has_no_reason():
    f = PolyMap.from_exprs(["x^2", "x*y", "z"], ("x", "y", "z"))
    result = multiplicity(f, 10)
    assert result.jet_order == 10 and result.reason is None
    seq = ", ".join(map(str, result.dimension_sequence))
    assert str(result) == f"not stabilized at jet order 10 (sequence {seq})"


def test_unknown_cap_admits_a_7_front():
    # order 8 in the one corank variable builds 2 * C(9, 2) = 72 monomials
    # and unknowns over orders 0..8
    assert multiplicity(a_k_front(7)).value == 8


@pytest.mark.parametrize("k", [8, 9])
def test_unknown_cap_admits_larger_a_k_fronts(k):
    # the cap counts the reduced search, in x1 alone, so the A_k front
    # stabilizes at order k + 1, in k variables
    result = multiplicity(a_k_front(k))
    assert result.value == k + 1 and result.jet_order == k + 1


def test_a_reduction_that_scales_clears_and_lifts():
    # Jf(0) has rows (2, 0) and (1, 0): the pivot row is scaled by 1/2, the
    # other row loses it, and psi = x - h keeps the pivot variable x
    f = PolyMap.from_exprs(["2*x + 2*x^2 + 2*y^2", "x + x^2 + y^2 + x*y + y^3"], XY)
    pivots, heads, others = _reduce_linear_part(f)
    assert pivots == [0]
    assert heads == [parse_poly("x + x^2 + y^2", XY)]
    assert others == [parse_poly("x*y + y^3", XY)]
    result = multiplicity(f)
    assert result.value == 5
    assert result.dimension_sequence == (1, 2, 3, 4, 5, 5)


def test_the_reduction_pivots_on_the_rank_of_the_linear_part():
    # as many pivots as Jf(0) has rank; each head's linear part is 1 at its
    # pivot variable and 0 at the other pivots, and no other component has
    # a linear part
    rng = random.Random(1212)
    germs = [random_origin_germ(rng, n, 3) for n in (1, 2, 3) for _ in range(12)]
    germs.append(PolyMap.from_exprs(["c*x + 1/2*y + x^2", "c^2*x*y - 3*y", "x + c*z^2"],
                                    ("x", "y", "z"), ExtField(3)))
    shapes = set()
    for f in germs:
        n = f.source_dim
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        pivots, heads, others = _reduce_linear_part(f)
        assert len(pivots) == scalar_rank(_jacobian_at_zero(f)), f
        for p, head in zip(pivots, heads):
            assert [head.terms.get(units[q], 0) for q in pivots] == [
                int(q == p) for q in pivots], f
        for other in others:
            assert all(other.terms.get(u, 0) == 0 for u in units), f
        shapes.add((bool(pivots), bool(others)))
    # every mix of heads and other components is met
    assert shapes == {(True, True), (True, False), (False, True)}


def test_zero_pivot_images_substitute_each_component_once(monkeypatch):
    # the A_k front's pivot components x_2, ..., x_k are their own
    # variables, so x_p = 0 at every order and each other component is
    # substituted once for the whole search
    calls = []
    substitute = Poly.substitute

    def counted(p, images, jet=None):
        calls.append(p)
        return substitute(p, images, jet)

    monkeypatch.setattr(Poly, "substitute", counted)
    f = a_k_front(6)
    assert multiplicity(f).value == 7
    assert calls == [f.components[0]]
