from __future__ import annotations

import random
from fractions import Fraction

import pytest

from frontals.frontal import (
    CertifyReport,
    Conormal,
    build_certified,
    build_frontal,
    certify_frontal,
    conormals,
)
from frontals.maps import (
    PolyMap,
    adjugate,
    differential,
    jacobian_det,
    jacobian_matrix,
)
from frontals.poly import Poly, PolyError, parse_poly

from helpers import VARSETS, random_origin_germ, random_poly

XY = ("x", "y")


def P(text, vars=XY):
    return parse_poly(text, vars)


FOLD = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
SWALLOW = PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY)


# -- build_frontal -----------------------------------------------------------


def test_build_frontal_fold():
    F = build_frontal(FOLD, [P("1")])
    assert F == PolyMap.from_exprs(["1/2*x^2 + x*y", "y", "(x + y)^2"], XY)


def test_build_frontal_open_swallowtail_multipliers():
    F = build_frontal(SWALLOW, [P("1"), P("x"), P("0")])
    assert F == PolyMap.from_exprs(
        ["1/3*x^3 + x*y", "y", "(x^2 + y)^2", "x*(x^2 + y)^2", "0"], XY)


def test_build_frontal_zero_multiplier():
    F = build_frontal(FOLD, [P("0")])
    assert F.components[2].is_zero()


def test_build_frontal_requires_multipliers():
    with pytest.raises(PolyError):
        build_frontal(FOLD, [])


def test_build_frontal_requires_origin_preserving():
    shifted = PolyMap.from_exprs(["x + 1", "y"], XY)
    with pytest.raises(PolyError):
        build_frontal(shifted, [P("1")])


# -- conormals ---------------------------------------------------------------


def test_conormal_fold_mu_one():
    (phi,) = conormals(FOLD, [P("1")])
    # oracle: row = |Jf|*d(1) + 2*1*d|Jf| = (2, 2); head = row * adj(Jf)
    adj = adjugate(jacobian_matrix(FOLD))
    row = (P("2"), P("2"))
    expected = tuple(
        row[0] * adj.entry(0, j) + row[1] * adj.entry(1, j) for j in range(2)
    )
    assert phi.head == expected
    assert phi.head == (P("2"), P("2*y"))
    assert phi.tail == (Fraction(-1),)


def test_conormal_identity_base():
    ident = PolyMap.from_exprs(XY, XY)
    mu = P("x*y + x^2")
    (phi,) = conormals(ident, [mu])
    assert phi.head == differential(mu)
    assert phi.tail == (Fraction(-1),)


def test_conormal_fold_mu_x():
    # The stated independent oracle: the head entries a_j must solve
    # sum_j a_j * df_j/dx_i = d(mu*|Jf|^2)/dx_i, and certification must pass.
    (phi,) = conormals(FOLD, [P("x")])
    psi = P("x") * jacobian_det(FOLD) ** 2
    jac = jacobian_matrix(FOLD)
    for i, v in enumerate(XY):
        acc = Poly.zero(XY)
        for j in range(2):
            acc = acc + phi.head[j] * jac.entry(j, i)
        assert acc == psi.diff(v)
    assert phi.head == (P("3*x + y"), P("x*y - x^2"))
    report = certify_frontal(build_frontal(FOLD, [P("x")]), [phi])
    assert report.ok


def test_conormal_tails_are_negative_basis_vectors():
    mus = [P("1"), P("x"), P("y^2")]
    phis = conormals(FOLD, mus)
    for i, phi in enumerate(phis):
        expected = tuple(Fraction(-1) if t == i else Fraction(0) for t in range(3))
        assert phi.tail == expected


# -- certify_frontal -----------------------------------------------------------


def test_certify_fold_package_passes():
    F = build_frontal(FOLD, [P("1")])
    report = certify_frontal(F, conormals(FOLD, [P("1")]))
    assert report.ok
    assert report.condition2_values == ((Fraction(2), Fraction(0), Fraction(-1)),)
    assert report.condition3_rank == 1


def test_certify_planar_embedding():
    F = PolyMap.from_exprs(["x", "y", "0"], XY)
    phi = Conormal(head=(P("0"), P("0")), tail=(Fraction(-1),))
    assert certify_frontal(F, [phi]).ok


def test_certify_failure_records_residual():
    F = PolyMap.from_exprs(["1/2*x^2", "y", "x"], XY)
    phi = Conormal(head=(P("1"), P("0")), tail=(Fraction(0),))
    report = certify_frontal(F, [phi])
    assert not report.condition1_ok
    i, j, residual = report.condition1_failures[0]
    assert (i, j) == (1, 1)
    assert residual == P("x")
    # phi(0) = (1, 0, 0) is nonzero and alone, so conditions 2 and 3 hold and
    # only condition 1 fails
    assert report.condition2_ok and report.condition3_ok
    assert not report.ok


def test_certify_condition2_and_3():
    F = PolyMap.from_exprs(["x", "y", "0", "0"], XY)
    zero_phi = Conormal(head=(P("0"), P("0")), tail=(Fraction(0), Fraction(0)))
    report = certify_frontal(F, [zero_phi])
    assert not report.condition2_ok
    assert report.condition2_failures == (1,)
    dup = Conormal(head=(P("0"), P("0")), tail=(Fraction(-1), Fraction(0)))
    report2 = certify_frontal(F, [dup, dup])
    assert report2.condition1_ok and report2.condition2_ok
    assert not report2.condition3_ok
    assert report2.condition3_rank == 1
    assert not report2.ok


def test_report_fails_when_only_condition2_fails():
    # certify_frontal cannot fail condition 2 alone: a conormal with
    # phi_i(0) = 0 gives a zero row at the origin, which lowers the rank of
    # condition 3 too.  So the report is stated directly
    report = CertifyReport(condition1_failures=(), condition2_values=((Fraction(0),),),
                           condition2_failures=(1,), condition3_rank=1, conormal_count=1)
    assert report.condition1_ok and report.condition3_ok
    assert not report.condition2_ok
    assert not report.ok


def test_certify_dimension_mismatch_is_an_error():
    F = build_frontal(FOLD, [P("1")])
    bad = Conormal(head=(P("0"),), tail=(Fraction(-1),))
    with pytest.raises(PolyError):
        certify_frontal(F, [bad])


def test_degenerate_identically_singular_jacobian():
    f = PolyMap.from_exprs(["x^2", "x^2"], XY)
    assert jacobian_det(f).is_zero()
    F = build_frontal(f, [P("1"), P("x")])
    assert F.components[2].is_zero() and F.components[3].is_zero()
    phis = conormals(f, [P("1"), P("x")])
    for phi in phis:
        assert all(h.is_zero() for h in phi.head)
    assert certify_frontal(F, phis).ok


# -- structural identities ------------------------------------------------------


def test_differential_of_jacobian_squared():
    rng = random.Random(606)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        det = jacobian_det(f)
        lhs = differential(det * det)
        rhs = tuple(det.scale(2) * d for d in differential(det))
        assert lhs == rhs


def test_univariate_conormal_head_identity():
    # for n=1: (mu*(f')^2)' = f' * head, with head = f'*mu' + 2*mu*f''
    rng = random.Random(707)
    for _ in range(20):
        f = random_origin_germ(rng, 1, 4)
        mu = random_poly(rng, ("x",), 3)
        (phi,) = conormals(f, [mu])
        fp = f.components[0].diff("x")
        lhs = (mu * fp * fp).diff("x")
        assert lhs == fp * phi.head[0]
        assert phi.head[0] == fp * mu.diff("x") + mu.scale(2) * fp.diff("x")


def test_theorem_property_small_sample():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        ell = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        mus = [random_poly(rng, VARSETS[n], 2) for _ in range(ell)]
        package = build_certified(f, mus)
        assert package.report.ok
        assert not package.report.condition1_failures
