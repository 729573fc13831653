from __future__ import annotations

import itertools
import random

import pytest

from frontals.maps import (
    PolyMap,
    PolyMatrix,
    adjugate,
    compose,
    differential,
    jacobian_adjugate,
    jacobian_det,
    jacobian_matrix,
    _jacobian_at_zero,
)
import frontals.poly as poly_module
from frontals.poly import Poly, PolyError, parse_poly
from frontals.scalars import ExtField, ExtScalar

from helpers import corank, matmul, random_origin_germ, random_poly, substituted, times_identity

XY = ("x", "y")


def P(text, vars=XY):
    return parse_poly(text, vars)


def M(exprs, vars=XY):
    return PolyMatrix(tuple(tuple(parse_poly(e, vars) for e in row) for row in exprs))


FOLD = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
SWALLOW = PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY)


def test_jacobian_matrix_fold():
    assert jacobian_matrix(FOLD) == M([["x + y", "x"], ["0", "1"]])


def test_jacobian_matrix_identity():
    ident = PolyMap.from_exprs(XY, XY)
    assert jacobian_matrix(ident) == times_identity(P("1"), 2)


def test_jacobian_matrix_swallowtail():
    assert jacobian_matrix(SWALLOW) == M([["x^2 + y", "x"], ["0", "1"]])


def test_jacobian_det_values():
    assert jacobian_det(FOLD) == P("x + y")
    assert jacobian_det(PolyMap.from_exprs(XY, XY)) == P("1")
    for k in (2, 3, 4):
        for sign in ("+", "-"):
            f = PolyMap.from_exprs([f"1/3*x^3 {sign} x*y^{k}", "y"], XY)
            assert jacobian_det(f) == P(f"x^2 {sign} y^{k}")


def test_jacobian_det_requires_square():
    tall = PolyMap.from_exprs(["x", "y", "x*y"], XY)
    with pytest.raises(PolyError):
        jacobian_det(tall)
    with pytest.raises(PolyError, match="equidimensional map, got 2 -> 3"):
        jacobian_adjugate(tall)


def test_adjugate_2x2_symbolic():
    m = M([["a", "b"], ["c", "d"]], ("a", "b", "c", "d"))
    adj = adjugate(m)
    expected = M([["d", "0 - b"], ["0 - c", "a"]], ("a", "b", "c", "d"))
    assert adj == expected


def test_adjugate_1x1_convention():
    m = M([["x + y"]], XY)
    assert adjugate(m) == M([["1"]], XY)


def test_adjugate_swallowtail_jacobian():
    adj = adjugate(jacobian_matrix(SWALLOW))
    assert adj == M([["1", "0 - x"], ["0", "x^2 + y"]])


def _leibniz_det(rows, vars):
    """Sum over permutations s of sign(s) * prod_i rows[i][s(i)]; 1 when empty."""
    n = len(rows)
    acc = Poly.zero(vars)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = Poly.const(vars, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        acc = acc + term
    return acc


def test_det_and_adjugate_match_the_leibniz_formula():
    rng = random.Random(606)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(5):
            rows = tuple(
                tuple(Poly.zero(XY) if rng.random() < 0.3 else random_poly(rng, XY, 2)
                      for _ in range(n))
                for _ in range(n))
            m = PolyMatrix(rows)
            assert m.det() == _leibniz_det(rows, XY)
            adj = adjugate(m)
            for i, j in itertools.product(range(n), repeat=2):
                minor = tuple(row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i)
                assert adj.entry(j, i) == _leibniz_det(minor, XY).scale((-1) ** (i + j))


def dense_germ(n: int) -> PolyMap:
    """f_i = x_i + i * (sum of x_j*x_l over j <= l): every entry of Jf is
    nonzero, so no cofactor expansion skips a term."""
    vs = tuple(f"x{i}" for i in range(1, n + 1))
    quad = " + ".join(f"{a}*{b}" for a, b in itertools.combinations_with_replacement(vs, 2))
    return PolyMap.from_exprs([f"{v} + {i}*({quad})" for i, v in enumerate(vs, 1)], vs)


def test_dense_det_and_adjugate_expand_each_minor_once(monkeypatch):
    n = 7
    jac = jacobian_matrix(dense_germ(n))
    products = []
    kernel = poly_module.sum_of_products

    def counted(vars, pairs):
        pairs = list(pairs)
        products.append(len(pairs))
        return kernel(vars, pairs)

    monkeypatch.setattr(poly_module, "sum_of_products", counted)
    det = jac.det()
    det_products, products[:] = sum(products), []
    adj = adjugate(jac)
    adj_products = sum(products)
    monkeypatch.undo()
    # a determinant expands each minor on its last m rows once, m products
    # each: the sum of m * C(n, m) over 2 <= m < n, plus n, is below
    # n * 2^(n-1).  The n rows of cofactors each need no more minors than a
    # determinant; cofactor expansion without a memo forms over 60,000.
    assert det_products <= n * 2 ** (n - 1)
    assert adj_products <= n * n * 2 ** (n - 1)
    assert matmul(adj, jac) == matmul(jac, adj) == times_identity(det, n)


def test_jacobian_adjugate_matches_its_parts():
    rng = random.Random(707)
    germs = [random_origin_germ(rng, n, 3) for n in (1, 2, 3) for _ in range(5)]
    germs.append(PolyMap.from_exprs(["x + c*y^2", "1/6*c^2*x*y"], XY, ExtField(3)))
    for f in germs:
        jac, adj, det = jacobian_adjugate(f)
        assert jac == jacobian_matrix(f)
        assert adj == adjugate(jac)
        assert det == jacobian_det(f)


def test_adjugate_requires_square():
    with pytest.raises(PolyError):
        adjugate(M([["x", "y", "1"], ["0", "1", "x"]]))


def test_differential():
    assert differential(P("x + y")) == (P("1"), P("1"))
    assert differential(P("5")) == (P("0"), P("0"))
    jsq = P("x + y") ** 2
    assert differential(jsq) == (P("2*x + 2*y"), P("2*x + 2*y"))


def test_compose_swallowtail_chain():
    F = PolyMap.from_exprs(["1/3*x^3 + x*y", "y", "(x^2 + y)^2"], XY)
    H1 = PolyMap.from_exprs(["X", "Y", "Z - Y^2"], ("X", "Y", "Z"))
    H2 = PolyMap.from_exprs(["-12*X", "6*Y", "3*Z"], ("X", "Y", "Z"))
    h1 = PolyMap.from_exprs(["x", "1/6*y"], XY)
    chain = compose(H2, compose(H1, compose(F, h1)))
    assert chain == PolyMap.from_exprs(["-4*x^3 - 2*x*y", "y", "3*x^4 + x^2*y"], XY)


def test_compose_folded_umbrella_chain():
    F = PolyMap.from_exprs(["1/2*x^2 + x*y", "y", "x^2*(x + y)^2"], XY)
    H1 = PolyMap.from_exprs(["X", "Y", "Z - X^2"], ("X", "Y", "Z"))
    H2 = PolyMap.from_exprs(["2*X", "2*Y", "4/3*Z"], ("X", "Y", "Z"))
    h1 = PolyMap.from_exprs(["x", "1/2*y"], XY)
    chain = compose(H2, compose(H1, compose(F, h1)))
    assert chain == PolyMap.from_exprs(["x^2 + x*y", "y", "x^4 + 2/3*x^3*y"], XY)


def test_compose_identity():
    ident3 = PolyMap.from_exprs(("X", "Y", "Z"), ("X", "Y", "Z"))
    F = PolyMap.from_exprs(["x", "y", "x*y"], XY)
    assert compose(ident3, F) == F


def test_compose_arity_mismatch():
    F = PolyMap.from_exprs(["x", "y", "x*y"], XY)
    with pytest.raises(PolyError):
        compose(F, F)


def test_corank_at_zero():
    assert corank(FOLD) == 1
    assert corank(PolyMap.from_exprs(XY, XY)) == 0
    assert corank(PolyMap.from_exprs(["x^2", "y^2"], XY)) == 2


def test_jacobian_at_zero_reads_the_linear_coefficients():
    ext = ExtField(3)
    f = PolyMap.from_exprs(["c*x + 1/2*y + x^2", "c^2*x*y - 3*y", "x + c*z^2"],
                           ("x", "y", "z"), ext)
    n = f.source_dim
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    at_zero = _jacobian_at_zero(f)
    assert at_zero == [[comp.terms.get(u, 0) for u in units] for comp in f.components]
    assert at_zero[0][0] == ExtScalar(ext, [0, 1]) and at_zero[1] == [0, -3, 0]


def test_linear_part_invertibility():
    # the linear part at 0 is invertible exactly when the corank is 0
    assert corank(PolyMap.from_exprs(["x - y", "y"], XY)) == 0
    assert corank(FOLD) != 0


def test_calculus_over_the_extension_field():
    ext = ExtField(3)
    c = ExtScalar(ext, [0, 1])
    inv_c = c * c / 6  # 6^(-1/3)
    h = PolyMap.from_exprs(["x", "1/6*c^2*y"], XY, ext)
    assert jacobian_det(h) == Poly.const(XY, inv_c)
    assert corank(h) == 0
    # composing with (x, 6*y) scales the second slot by 6 * 6^(-1/3) = c^2
    scaled = compose(PolyMap.from_exprs(["x", "6*y"], XY), h)
    assert scaled.components[1] == Poly.variable(XY, "y").scale(c * c)


# -- property tests -----------------------------------------------------------


def test_adjugate_identity_property():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        jac = jacobian_matrix(f)
        det = jacobian_det(f)
        assert matmul(adjugate(jac), jac) == times_identity(det, n)
        assert matmul(jac, adjugate(jac)) == times_identity(det, n)


def test_chain_rule_property():
    rng = random.Random(202)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        g = random_origin_germ(rng, n, 3)
        lhs = jacobian_matrix(compose(g, f))
        rhs = matmul(substituted(jacobian_matrix(g), list(f.components)), jacobian_matrix(f))
        assert lhs == rhs


def test_det_of_composition_property():
    rng = random.Random(303)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        g = random_origin_germ(rng, n, 3)
        lhs = jacobian_det(compose(g, f))
        rhs = jacobian_det(g).substitute(list(f.components)) * jacobian_det(f)
        assert lhs == rhs


def test_differential_product_rule_property():
    rng = random.Random(404)
    for _ in range(30):
        p = random_poly(rng, XY, 3)
        q = random_poly(rng, XY, 3)
        lhs = differential(p * q)
        rhs = tuple(p * dq + q * dp for dp, dq in zip(differential(p), differential(q)))
        assert lhs == rhs


def test_compose_associativity_property():
    rng = random.Random(505)
    for _ in range(20):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 2)
        g = random_origin_germ(rng, n, 2)
        h = random_origin_germ(rng, n, 2)
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)
