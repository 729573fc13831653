from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from frontals import linalg, ramification
from frontals import poly as poly_module
from frontals.linalg import SparseSolver, scaled_row
from frontals.maps import PolyMap, differential, jacobian_det, jacobian_matrix
from frontals.poly import Poly, VariableMismatchError, _unpacker, parse_poly
from frontals.ramification import (
    NOT_MEMBER_MOD_JET,
    UNDECIDED,
    GradientCertificate,
    PullbackCertificate,
    gradient_module_membership,
    jsq_plus_pullback_membership,
)
from frontals.scalars import ExtField

from helpers import VARSETS, monomials, random_origin_germ, random_poly

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


def test_unknown_cap_gives_undecided(monkeypatch):
    monkeypatch.setattr("frontals.ramification.MAX_UNKNOWNS", 2)
    verdict = gradient_module_membership(P("x^3"), HALF_SQUARE, 4)
    assert verdict.status == UNDECIDED
    assert "cap" in verdict.reason


# -- jsq + pullback membership ---------------------------------------------------


def test_constant_is_member_via_eta():
    verdict = jsq_plus_pullback_membership(P("1"), HALF_SQUARE, 3)
    assert verdict.is_member
    cert = verdict.certificate
    assert (cert.psi - cert.mu * jacobian_det(HALF_SQUARE) ** 2
            - cert.eta.substitute(list(HALF_SQUARE.components))).jet(3).is_zero()


def test_a_high_jet_order_in_one_variable():
    # 8,002 unknowns; the eta side is listed in linear time
    verdict = jsq_plus_pullback_membership(P("x^3"), PolyMap.from_exprs(["x^2"], X), 4000)
    assert verdict.is_member
    assert verdict.certificate.mu == P("1/4*x")
    assert verdict.certificate.eta.is_zero()


def test_jsq_decides_at_exactly_the_unknown_cap():
    # f = (x^2), one variable: order k has 2*(k + 1) unknowns, so k = 9999
    # sits at the cap of 20,000 and is decided; k = 10000 is one order over it
    f, psi = PolyMap.from_exprs(["x^2"], X), P("x^3")
    at_cap = jsq_plus_pullback_membership(psi, f, 9999)
    assert at_cap.is_member and at_cap.reason is None
    over = jsq_plus_pullback_membership(psi, f, 10000)
    assert over.status == UNDECIDED
    assert over.reason == "20002 unknowns exceed the cap 20000"


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


# -- generators, both tests each ---------------------------------------------------


def test_univariate_delta3_generators():
    for g in (P("x^4"), P("x^5")):
        for verdict in (gradient_module_membership(g, THIRD_CUBE, 6),
                        jsq_plus_pullback_membership(g, THIRD_CUBE, 6)):
            assert verdict.is_member and verdict.certificate.recheck()


def test_a_generator_in_one_module_only_is_not_both_member():
    # psi = x^5/5 + x^2*y/2 over f = (x^4/4 + x*y, y) is x * d(f_1)/dx +
    # (x^2/2) * d(f_1)/dy at order 5, but not in <|Jf|^2> + f^*(E_2)
    xy = ("x", "y")
    f = PolyMap.from_exprs(["1/4*x^4 + x*y", "y"], xy)
    psi = parse_poly("1/5*x^5 + 1/2*x^2*y", xy)
    assert gradient_module_membership(psi, f, 5).is_member
    assert jsq_plus_pullback_membership(psi, f, 5).status == NOT_MEMBER_MOD_JET


def test_unfolding_delta3_generators_both_ways():
    gens = [
        parse_poly("1/4*x^4 + 1/2*lam*x^2", XL),
        parse_poly("1/5*x^5 + 1/3*lam*x^3", XL),
    ]
    for g in gens:
        assert gradient_module_membership(g, UNFOLD3, 6).is_member
        assert jsq_plus_pullback_membership(g, UNFOLD3, 6).is_member


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


# -- systems built one degree at a time, against an eager reference -----------------


def _eager_solve(k, monos, rhs, unknowns):
    """The whole order-k system assembled at once, every row as Fractions (or
    ExtScalars) read off the term tables, fed in (entry, monomial) order to a
    fresh SparseSolver.  Returns the values of `solve()`, or None and the
    degree of the first inconsistent equation."""
    rows: dict = {}
    for c, (shift, polys) in enumerate(unknowns):
        for b, p in enumerate(polys):
            for mono, coeff in p.terms.items():
                target = tuple(s + e for s, e in zip(shift, mono))
                if sum(target) <= k:
                    rows.setdefault((b, target), {})[c] = coeff
    solver = SparseSolver()
    for b, target in enumerate(rhs):
        terms = target.terms
        for mono in monos:
            solver.add_row(*scaled_row(rows.get((b, mono), {}), terms.get(mono, 0)))
            if solver.inconsistent:
                return None, sum(mono)
    return solver.solve(), None


def _gradient_reference(psi, f, k):
    monos = monomials(f.source_vars, k)
    grads = [tuple(e.jet(k) for e in row) for row in jacobian_matrix(f).rows]
    unknowns = [(m, grad) for grad in grads for m in monos]
    return monos, [d.jet(k) for d in differential(psi)], unknowns


def _jsq_reference(psi, f, k):
    vs = f.source_vars
    monos = monomials(vs, k)
    jsq = (jacobian_det(f) ** 2).jet(k)
    comps = [comp.jet(k) for comp in f.components]
    unknowns = [(m, (jsq,)) for m in monos]
    for alpha in monos:  # target monomials have the same exponents
        power = Poly.const(vs, 1)
        for comp, e in zip(comps, alpha):
            power = (power * comp ** e).jet(k)
        unknowns.append(((0,) * len(vs), (power,)))
    return monos, [psi.jet(k)], unknowns


def _lowest_degree(shift, polys):
    return sum(shift) + min(p.order() for p in polys)


def _unpacked(n, key, form):
    """A streamed unknown with its packed keys mapped back: its shift, and
    the term table of each polynomial of its `linalg.scaled_form`."""
    unpack = _unpacker(n)
    tables, den = form
    return unpack(key), [{unpack(m): Fraction(v, den) if type(v) is int else v / den
                          for m, v in nums.items()} for nums in tables]


def _compare_with_reference(monkeypatch, decide, reference, psi, f, k):
    """Run one test with its stream checked, and compare its solve with the
    eager reference; returns the obstruction degree, None for a member."""
    # column -> its shift and term tables, as streamed
    seen: dict[int, tuple] = {}
    solved: list = []

    def checked(stream):
        last = 0
        for bound, column, key, form in stream:
            shift, tables = _unpacked(len(psi.vars), key, form)
            # nondecreasing proven lower bounds, each column once, and no
            # unknown without an entry in the k-jet, such as a zero power
            assert last <= bound <= k and column not in seen
            assert bound <= sum(shift) + min(sum(m) for t in tables for m in t) <= k
            seen[column] = shift, tables
            last = bound
            yield bound, column, key, form

    def spy(k_, keys, rhs, unknowns):
        solved.append(linalg.jet_solve(k_, keys, rhs, checked(unknowns)))
        return solved[-1]

    monkeypatch.setattr("frontals.ramification.jet_solve", spy)
    verdict = decide(psi, f, k)
    monkeypatch.undo()
    monos, rhs, unknowns = reference(psi, f, k)
    expected, obstruction = _eager_solve(k, monos, rhs, unknowns)
    assert solved == [expected], (psi, f, k)
    assert (verdict.status == NOT_MEMBER_MOD_JET) == (expected is None)
    # a streamed unknown is the reference's unknown of its column; one left
    # out of the stream has no entry in the equations that entered: all of
    # them for a member, those up to the obstruction else
    reach = k if obstruction is None else obstruction
    for column, (shift, polys) in enumerate(unknowns):
        if column in seen:
            assert seen[column] == (shift, [p.terms for p in polys]), (psi, f, k, column)
        else:
            assert _lowest_degree(shift, polys) > reach, (psi, f, k, column)
    return obstruction


def _streamed_cases(k):
    """(psi, f) pairs of each kind the bounds must handle."""
    rng = random.Random(4242)
    for n in (1, 2, 3):
        vs = VARSETS[n]
        rest = list(vs[1:])
        # df_1 = x^(k+1) dx up to a constant: the gradient test fails first
        # at degree j for psi = x^(j+1)/5 plus a member part, j = 0..k
        flat = PolyMap.from_exprs([f"2/3*x^{k + 2}"] + rest, vs)
        for j in range(k + 1):
            member_part = f" + 1/2*{vs[-1]}^2" if n > 1 else ""
            yield parse_poly(f"1/5*x^{j + 1}{member_part}", vs), flat
        # jet_k(det(Jf)^2) = 0 and f^*E_n holds no x^j below x^(k+1): the
        # jsq test fails first at degree j, j = 1..k (the constant is eta's)
        pure = PolyMap.from_exprs([f"x^{k + 1}"] + rest, vs)
        for j in range(1, k + 1):
            yield parse_poly(f"x^{j} - 3/7", vs), pure
        for _ in range(4):
            f = random_origin_germ(rng, n, 3)
            eta, mu = random_poly(rng, vs, 2), random_poly(rng, vs, 2)
            # members of both tests, then random psi
            yield eta.substitute(list(f.components)) + mu * jacobian_det(f) ** 2, f
            yield random_poly(rng, vs, 3), f
    xy = ("x", "y")
    # a constant term: ord(f_1) = 0, so eta's bounds in X are 0
    unit = PolyMap.from_exprs(["1 + x^2 + x*y", "y"], xy)
    for text in ("x^2 + x*y + y^3", "x + y^2", "x*y^2 - 2"):
        yield parse_poly(text, xy), unit
    line = PolyMap.from_exprs(["1 + x"], ("x",))  # every eta and mu_0 of bound 0
    yield parse_poly("x^2 - 1/3", ("x",)), line
    # a zero component: its bound is k + 1, and so is that of mu (det(Jf) = 0)
    flat_y = PolyMap.from_exprs(["x^2", "0"], xy)
    for text in ("x^3", "x + y", "y^2"):
        yield parse_poly(text, xy), flat_y
    # Q(6^(1/3))
    ext = ExtField(3)
    f = PolyMap.from_exprs(["1/2*x^2 + c*x*y", "y"], xy, ext)
    for text in ("c^2*x^3 + y", "x + c*y^2", "(x + c*y)^2"):
        yield parse_poly(text, xy, ext), f


@pytest.mark.parametrize("decide, reference, first", [
    (gradient_module_membership, _gradient_reference, 0),
    (jsq_plus_pullback_membership, _jsq_reference, 1),
])
def test_streamed_systems_match_an_eager_reference(monkeypatch, decide, reference, first):
    k = 4
    obstructions = set()
    for psi, f in _streamed_cases(k):
        obstructions.add(_compare_with_reference(monkeypatch, decide, reference, psi, f, k))
    assert obstructions >= set(range(first, k + 1)) | {None}, obstructions


def _rows_entered(monkeypatch, run):
    """For each row that run() enters through `SparseSolver.add_row` into the
    first solver it fills, whether it is an equation other than 0 = 0; the
    later solvers are those of the inverses of extension leads that
    `solve()` divides by."""
    calls: list = []
    add_row = SparseSolver.add_row

    def counted(solver, row, rhs=0):
        calls.append((solver, bool(row) or bool(rhs)))
        return add_row(solver, row, rhs)

    monkeypatch.setattr(SparseSolver, "add_row", counted)
    run()
    monkeypatch.undo()
    return [nonzero for solver, nonzero in calls if solver is calls[0][0]]


@pytest.mark.parametrize("decide, reference", [
    (gradient_module_membership, _gradient_reference),
    (jsq_plus_pullback_membership, _jsq_reference),
])
def test_streamed_systems_enter_every_equation_through_add_row(monkeypatch, decide, reference):
    # one call for each equation the eager reference enters, up to the same
    # stop, that is not 0 = 0
    k = 4
    for psi, f in _streamed_cases(k):
        streamed = _rows_entered(monkeypatch, lambda: decide(psi, f, k))
        eager = _rows_entered(monkeypatch, lambda: _eager_solve(k, *reference(psi, f, k)))
        assert len(streamed) == sum(eager), (psi, f)


def test_a_low_obstruction_stops_the_system_early(monkeypatch):
    # over the fold, x is in neither module at degree 1, so the jsq test
    # forms no power of f beyond the first ones, whatever the jet order
    f = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], ("x", "y"))
    psi = parse_poly("x + y^2", ("x", "y"))
    assert gradient_module_membership(psi, f, 60).status == NOT_MEMBER_MOD_JET
    calls = []
    product = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    # the powers f^alpha are cut products of packed forms, with no Poly
    cut_product = ramification._cut_product
    monkeypatch.setattr(ramification, "_cut_product",
                        lambda *args: calls.append(1) or cut_product(*args))
    verdict = jsq_plus_pullback_membership(psi, f, 60)
    assert str(verdict) == "NOT-MEMBER-MOD-JET(60)"
    assert len(calls) <= 8, len(calls)


# (g, jet orders) of the germs f = (g, y) whose jsq streams are checked
# against the Poly products: the four membership germs of the jets bench at
# its jet orders, and 4_3- at k = 5..8, where the cut drops terms
_PULLBACK_GERMS = [("1/2*x^2 + x*y", (8, 12, 16, 20, 24)),
                   ("1/3*x^3 + x*y", (8, 12, 16, 20, 24)),
                   ("1/3*x^3 + x*y^2", (8, 12, 16, 20, 24)),
                   ("1/3*x^3 - x*y^3", (5, 6, 7, 8, 12, 16, 20, 24))]


def _pullback_forms(monkeypatch, f, k):
    """The form of each eta column the jsq test streams for psi = 0, by the
    packed key of its target monomial, and the Poly products, jets and
    scaled_form calls the stream made while it built them."""
    forms, made, active = {}, [], [False]

    def counted(name, fn):
        def call(*args):
            if active[0]:
                made.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr(Poly, "__mul__", counted("mul", Poly.__mul__))
    monkeypatch.setattr(Poly, "jet", counted("jet", Poly.jet))
    monkeypatch.setattr(ramification, "scaled_form",
                        counted("scaled_form", linalg.scaled_form))

    def spy(k_, keys, rhs, unknowns):
        def stream():
            # only the generator's own steps count, not jet_solve's
            items = iter(unknowns)
            while True:
                active[0] = True
                try:
                    item = next(items, None)
                finally:
                    active[0] = False
                if item is None:
                    return
                if item[1] >= len(keys):
                    forms[keys[item[1] - len(keys)]] = item[3]
                yield item
        return linalg.jet_solve(k_, keys, rhs, stream())

    monkeypatch.setattr(ramification, "jet_solve", spy)
    psi = Poly.zero(f.source_vars)
    assert jsq_plus_pullback_membership(psi, f, k).is_member
    monkeypatch.undo()
    return forms, made


def _check_pullback_forms(monkeypatch, f, k):
    """Each eta column's form is scaled_form([(f^beta * f_i).jet(k)]) of the
    Poly powers, every f^alpha with a nonzero k-jet is streamed, and the
    stream forms no Poly product, jet or scaled_form but the one of mu."""
    forms, made = _pullback_forms(monkeypatch, f, k)
    assert made == ["scaled_form"], made
    vs = f.source_vars
    comps = [comp.jet(k) for comp in f.components]
    powers = {(0,) * len(vs): Poly.const(vs, 1)}
    expected = {}
    # _monomial_keys lists the packed keys in the order of monomials
    for key, alpha in zip(poly_module._monomial_keys(len(vs), k), monomials(vs, k)):
        if any(alpha):
            # f^alpha = f^beta * f_i, i the first nonzero exponent
            i = next(i for i, e in enumerate(alpha) if e)
            beta = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]
            powers[alpha] = (powers[beta] * comps[i]).jet(k)
        if not powers[alpha].is_zero():
            expected[key] = linalg.scaled_form([powers[alpha]])
    assert forms == expected, (f, k)


def test_pullback_forms_match_the_poly_products(monkeypatch):
    xy = ("x", "y")
    for g, orders in _PULLBACK_GERMS:
        for k in orders:
            _check_pullback_forms(monkeypatch, PolyMap.from_exprs([g, "y"], xy), k)
    # a zero component: no power of it is streamed
    for exprs in (["1/3*x^3 - x*y^3", "0"], ["0", "y + x^2"]):
        for k in (3, 6):
            _check_pullback_forms(monkeypatch, PolyMap.from_exprs(exprs, xy), k)


def test_pullback_forms_match_the_poly_products_over_an_extension(monkeypatch):
    # the ext: k germs (a*x^3 +- b*x*y^k, y) of the CLI bench, at its jet
    # orders 6 + 2*(k % 3): their products fold c^j for j >= k, and keep
    # c-terms at the cut
    xy = ("x", "y")
    for e in range(2, 7):
        field = ExtField(e)
        for sign in "+-":
            for a, b in (("1/3", "c"), ("1/3", "2*c"), ("1/3*c", "c^2")):
                f = PolyMap.from_exprs([f"{a}*x^3 {sign} {b}*x*y^{e}", "y"], xy, field)
                _check_pullback_forms(monkeypatch, f, 6 + 2 * (e % 3))
