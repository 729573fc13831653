from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from frontals.maps import PolyMap, jacobian_det
from frontals.poly import Poly, VariableMismatchError, parse_poly
from frontals.ramification import (
    NOT_MEMBER_MOD_JET,
    UNDECIDED,
    GradientCertificate,
    PullbackCertificate,
    check_generator_list,
    gradient_module_membership,
    jsq_plus_pullback_membership,
)

from helpers import VARSETS, random_origin_germ, random_poly

X = ("x",)
XL = ("x", "lam")


def P(text, vars=X):
    return parse_poly(text, vars)


HALF_SQUARE = PolyMap((Poly(X, {(2,): Fraction(1, 2)}),))          # x^2/2
THIRD_CUBE = PolyMap((Poly(X, {(3,): Fraction(1, 3)}),))           # x^3/3
UNFOLD2 = PolyMap.from_exprs(["1/2*x^2 + lam*x", "lam"], XL)       # delta=2 unfolding
UNFOLD3 = PolyMap.from_exprs(["1/3*x^3 + lam*x", "lam"], XL)       # delta=3 unfolding


# -- gradient module membership ------------------------------------------------


def test_x_cubed_over_half_square():
    verdict = gradient_module_membership(P("x^3"), HALF_SQUARE, 4)
    assert verdict.is_member
    assert verdict.certificate.witnesses[0] == P("3*x")
    assert verdict.certificate.recheck()


def test_x_is_not_a_member():
    verdict = gradient_module_membership(P("x"), HALF_SQUARE, 3)
    assert verdict.status == NOT_MEMBER_MOD_JET
    assert verdict.certificate is None


def test_unfolding_generator_membership():
    psi = parse_poly("1/4*x^4 + 1/2*lam*x^2", XL)
    verdict = gradient_module_membership(psi, UNFOLD3, 5)
    assert verdict.is_member
    # the stated witness pair (x, -1/2*x^2) is itself a valid certificate
    stated = GradientCertificate(
        jet_order=5, psi=psi, germ=UNFOLD3,
        witnesses=(parse_poly("x", XL), parse_poly("-1/2*x^2", XL)))
    assert stated.recheck()


def test_arity_mismatch_rejected():
    with pytest.raises(VariableMismatchError):
        gradient_module_membership(parse_poly("x", XL), HALF_SQUARE, 3)


def test_unknown_cap_gives_undecided():
    verdict = gradient_module_membership(P("x^3"), HALF_SQUARE, 4, unknown_cap=2)
    assert verdict.status == UNDECIDED
    assert "cap" in verdict.reason


# -- jsq + pullback membership ---------------------------------------------------


def test_constant_is_member_via_eta():
    verdict = jsq_plus_pullback_membership(P("1"), HALF_SQUARE, 3)
    assert verdict.is_member
    cert = verdict.certificate
    assert (cert.psi - cert.mu * jacobian_det(HALF_SQUARE) ** 2
            - cert.eta.substitute(list(HALF_SQUARE.components))).jet(3).is_zero()


def test_jacobian_squared_is_member_via_mu():
    f = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], ("x", "y"))
    jsq = jacobian_det(f) ** 2
    verdict = jsq_plus_pullback_membership(jsq, f, 4)
    assert verdict.is_member


def test_unfolding_identity_witness():
    # psi = x^3/3 + lam*x^2/2 for the delta=2 unfolding, witness from the second identity
    psi = parse_poly("1/3*x^3 + 1/2*lam*x^2", XL)
    verdict = jsq_plus_pullback_membership(psi, UNFOLD2, 5)
    assert verdict.is_member
    stated = PullbackCertificate(
        jet_order=5, psi=psi, germ=UNFOLD2,
        mu=parse_poly("1/3*x", XL),
        eta=parse_poly("-1/3*LAM*X", ("X", "LAM")))
    assert stated.recheck()


def test_tampered_mu_fails_recheck():
    vs = ("x", "y")
    f = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], vs)  # det(Jf) = x + y
    psi = parse_poly("(1 + y)*(x + y)^2 + 2*y - 1/4*(1/2*x^2 + x*y)^2", vs)
    cert = jsq_plus_pullback_membership(psi, f, 4).certificate
    assert cert.recheck()

    def full_residual(c):  # no truncation until the end
        return (c.psi - c.mu * jacobian_det(f) ** 2
                - c.eta.substitute(list(f.components))).jet(c.jet_order)

    # mu + t adds t*(x + y)^2 to psi's side, which the 4-jet sees for deg t <= 2
    for t in ("1", "y", "x^2 - 3*x*y"):
        tampered = dataclasses.replace(cert, mu=cert.mu + parse_poly(t, vs))
        assert not tampered.recheck()
        assert tampered.residual() == full_residual(tampered)
    # and misses beyond it
    beyond = dataclasses.replace(cert, mu=cert.mu + parse_poly("x^3", vs))
    assert beyond.recheck() and full_residual(beyond).is_zero()


# -- the four generator identities, alpha free -------------------------------------


XA = ("x", "a")


def PA(text):
    return parse_poly(text, XA)


def test_identity_one():
    assert PA("(x + a)^2") == PA("2*(1/2*x^2 + a*x) + a^2")


def test_identity_two():
    assert (PA("x*(x + a)^2")
            == PA("3*(1/3*x^3 + 1/2*a*x^2) + a*(1/2*x^2 + a*x)"))


def test_identity_three():
    assert PA("(x^2 + a)^2") == PA("4*(1/4*x^4 + 1/2*a*x^2) + a^2")


def test_identity_four_balances_exactly():
    lhs = PA("x*(x^2 + a)^2")
    rhs = PA("5*(1/5*x^5 + 1/3*a*x^3) + a*(1/3*x^3 + a*x)")
    assert lhs == rhs
    assert lhs == PA("x^5 + 2*a*x^3 + a^2*x")


def test_verify_identity_negative():
    assert PA("x^2") != PA("x^3")


# -- generator lists ---------------------------------------------------------------


def test_univariate_delta3_generators():
    report = check_generator_list(THIRD_CUBE, [P("x^4"), P("x^5")], 6)
    assert report.all_member
    for check in report.checks:
        assert check.gradient.certificate.recheck()
        assert check.jsq_plus_pullback.certificate.recheck()


def test_empty_generator_list_is_vacuous():
    report = check_generator_list(PolyMap.identity(("x",)), [], 2)
    assert report.all_member
    assert report.checks == ()


def test_unfolding_delta3_generators_both_ways():
    gens = [
        parse_poly("1/4*x^4 + 1/2*lam*x^2", XL),
        parse_poly("1/5*x^5 + 1/3*lam*x^3", XL),
    ]
    report = check_generator_list(UNFOLD3, gens, 6)
    assert report.all_member


def test_univariate_jacobian_squared_orders():
    for delta in (1, 2, 3):
        g = PolyMap((Poly(X, {(delta,): Fraction(1, delta)}),))
        jsq = jacobian_det(g) ** 2
        assert jsq.order() == 2 * (delta - 1)


# -- structural properties -----------------------------------------------------------


def test_theorem_inclusion_at_jet_level():
    # psi = mu * det(Jf)^2 always lies in the gradient module
    rng = random.Random(111)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 3)
        mu = random_poly(rng, VARSETS[n], 2)
        psi = mu * jacobian_det(f) ** 2
        k = max(psi.degree(), 0) + 2
        verdict = gradient_module_membership(psi, f, k)
        assert verdict.is_member
        assert verdict.certificate.recheck()


def test_pullback_closure():
    # psi = eta o f always lies in the gradient module
    rng = random.Random(222)
    for _ in range(25):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 3)
        eta = random_poly(rng, VARSETS[n], 2)
        psi = eta.substitute(list(f.components))
        k = max(psi.degree(), 0) + 2
        verdict = gradient_module_membership(psi, f, k)
        assert verdict.is_member


def test_rerun_determinism():
    for k in (2, 3):
        first = gradient_module_membership(P("x"), HALF_SQUARE, k)
        second = gradient_module_membership(P("x"), HALF_SQUARE, k)
        assert first.status == second.status == NOT_MEMBER_MOD_JET
    a = gradient_module_membership(P("x^3"), HALF_SQUARE, 5)
    b = gradient_module_membership(P("x^3"), HALF_SQUARE, 5)
    assert a.certificate.witnesses == b.certificate.witnesses


def test_member_verdicts_always_recheck():
    rng = random.Random(333)
    for _ in range(15):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 3)
        psi = random_poly(rng, VARSETS[n], 3)
        for verdict in (
            gradient_module_membership(psi, f, 4),
            jsq_plus_pullback_membership(psi, f, 4),
        ):
            if verdict.is_member:
                assert verdict.certificate.recheck()
