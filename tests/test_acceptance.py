"""Acceptance suite: one test per criterion, every tolerance exact.

Each test prints one PASS/FAIL line (visible with pytest -s or in captured
output).  Random instances use fixed seeds, so consecutive runs exercise the
same cases; nothing here depends on floating point.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

from frontals.cli import main as cli_main
from frontals.corpus import a_k_front, run_all, run_entry
from frontals.frontal import build_certified
from frontals.local_algebra import multiplicity
from frontals.maps import PolyMap, adjugate, compose, jacobian_det, jacobian_matrix
from frontals.poly import Poly, parse_poly
from frontals.ramification import (
    NOT_MEMBER_MOD_JET,
    gradient_module_membership,
    jsq_plus_pullback_membership,
)

from helpers import (
    VARSETS,
    a_k_axis_jacobian,
    matmul,
    random_origin_germ,
    random_poly,
    substituted,
    times_identity,
)

XY = ("x", "y")
GERMS = Path(__file__).resolve().parent.parent / "germs"

# MEMBER verdicts produced while the acceptance suite runs, audited in test 8
_member_verdicts: list = []


def _register_members(*verdicts):
    for v in verdicts:
        if v.is_member:
            _member_verdicts.append(v)


def _report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{tail}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def test_acceptance_01_theorem_one_executable_proof():
    rng = random.Random(20260811)
    start = time.perf_counter()
    failures = 0
    for _ in range(500):
        n = rng.choice([1, 2, 3])
        ell = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        mus = [random_poly(rng, VARSETS[n], 2) for _ in range(ell)]
        package = build_certified(f, mus)
        if not package.report.ok or package.report.condition1_failures:
            failures += 1
    elapsed = time.perf_counter() - start
    _report(1, "frontal certification passes on 500 random germ/multiplier draws",
            failures == 0, f"{elapsed:.1f}s, zero residuals required")


def test_acceptance_02_adjugate_and_chain_rule():
    rng = random.Random(31415)
    ok = True
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        jac = jacobian_matrix(f)
        det = jacobian_det(f)
        if matmul(adjugate(jac), jac) != times_identity(det, n):
            ok = False
            break
    for _ in range(200):
        n = rng.choice([1, 2, 3])
        f = random_origin_germ(rng, n, 3)
        g = random_origin_germ(rng, n, 3)
        lhs = jacobian_matrix(compose(g, f))
        rhs = matmul(substituted(jacobian_matrix(g), list(f.components)), jacobian_matrix(f))
        if lhs != rhs:
            ok = False
            break
    _report(2, "adj(Jf)*Jf = |Jf|*I and J(g o f) = (Jg o f)*Jf on 200 instances each", ok)


def test_acceptance_03_jacobian_determinants_of_named_germs():
    fold = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    swallow = PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY)
    ok = jacobian_det(fold) == parse_poly("x + y", XY)
    ok = ok and jacobian_det(swallow) == parse_poly("x^2 + y", XY)
    for k in (2, 3, 4):
        for sign in ("+", "-"):
            f = PolyMap.from_exprs([f"1/3*x^3 {sign} x*y^{k}", "y"], XY)
            ok = ok and jacobian_det(f) == parse_poly(f"x^2 {sign} y^{k}", XY)
    _report(3, "Jacobian determinants: fold x+y, swallowtail x^2+y, 4_k x^2+-y^k", ok)


def test_acceptance_04_multiplicities_of_named_germs():
    start = time.perf_counter()
    fold = PolyMap.from_exprs(["1/2*x^2 + x*y", "y"], XY)
    swallow = PolyMap.from_exprs(["1/3*x^3 + x*y", "y"], XY)
    ok = multiplicity(fold, 12).value == 2
    ok = ok and multiplicity(swallow, 12).value == 3
    for sign in ("+", "-"):
        for k in (2, 3, 4):
            f = PolyMap.from_exprs([f"1/3*x^3 {sign} x*y^{k}", "y"], XY)
            ok = ok and multiplicity(f, 12).value == 3
    for k in (2, 3, 4, 5):
        ok = ok and multiplicity(a_k_front(k), 12).value == k + 1
    ok = ok and multiplicity(PolyMap.from_exprs(XY, XY), 12).value == 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(4, "multiplicities: fold 2, swallowtail 3, 4_k 3, f_k k+1, identity 1",
            ok, f"{elapsed:.1f}s < 30s")


def test_acceptance_05_corpus_normal_forms():
    ok = True
    details = []

    swallow = run_entry("swallowtail")
    ok &= swallow.literal.matches and swallow.path == "literal"
    ok &= swallow.entry.claimed == PolyMap.from_exprs(
        ["-4*x^3 - 2*x*y", "y", "3*x^4 + x^2*y"], XY)

    fu = run_entry("folded_umbrella")
    ok &= fu.literal.matches
    ok &= fu.entry.claimed == PolyMap.from_exprs(
        ["x^2 + x*y", "y", "x^4 + 2/3*x^3*y"], XY)

    cca = run_entry("cuspidal_crosscap_alt")
    ok &= cca.reached and cca.entry.claimed == PolyMap.from_exprs(
        ["x^2", "y", "x^3*y"], XY)
    details.append(f"crosscap path={cca.path}")

    osw = run_entry("open_swallowtail")
    ok &= osw.literal.matches
    ok &= osw.entry.claimed == PolyMap.from_exprs(
        ["x^3 + x*y", "y", "x^4 + 2/3*x^2*y", "x^5 + 5/9*x^3*y", "0"], XY)

    ofu = run_entry("open_folded_umbrella")
    ok &= ofu.literal.matches
    ok &= ofu.entry.claimed == PolyMap.from_exprs(
        ["x^2 + x*y", "y", "x^4 + 2/3*x^3*y", "x^5 + 5/8*x^4*y", "0"], XY)

    for k in (2, 3):
        for sign in ("+", "-"):
            fk = run_entry("four_k", k=k, sign=sign)
            ok &= fk.literal.matches and fk.literal.rational

    fold = run_entry("fold")
    ok &= fold.reached and fold.path in ("literal", "corrected")
    ok &= fold.entry.claimed == PolyMap.from_exprs(["x^2", "y", "0"], XY)
    details.append(f"fold path={fold.path}")

    edge = run_entry("cuspidal_edge")
    ok &= edge.reached and edge.path in ("literal", "corrected")
    ok &= edge.entry.claimed == PolyMap.from_exprs(["x^2", "y", "x^3"], XY)
    details.append(f"cuspidal_edge path={edge.path}")

    _report(5, "all corpus chains reach their claimed normal forms exactly",
            bool(ok), "; ".join(details))


def test_acceptance_06_univariate_generator_tables():
    ok = True
    x = ("x",)
    generators = {1: [], 2: ["x^3"], 3: ["x^4", "x^5"]}
    for delta in (1, 2, 3):
        g = PolyMap((Poly(x, {(delta,): Fraction(1, delta)}),))
        jsq = jacobian_det(g) ** 2
        ok &= jsq.order() == 2 * (delta - 1)
        for text in generators[delta]:
            psi = parse_poly(text, x)
            grad = gradient_module_membership(psi, g, 6)
            pull = jsq_plus_pullback_membership(psi, g, 6)
            _register_members(grad, pull)
            ok &= grad.is_member and pull.is_member
    half_square = PolyMap((Poly(x, {(2,): Fraction(1, 2)}),))
    not_member = gradient_module_membership(parse_poly("x", x), half_square, 3)
    ok &= not_member.status == NOT_MEMBER_MOD_JET and not_member.jet_order == 3
    _report(6, "delta<=3 univariate generators MEMBER both ways at k=6;"
               " |Jg|^2 order 2(delta-1); x NOT-MEMBER at k=3", bool(ok))


def test_acceptance_07_unfolding_identities_and_generators():
    xa = ("x", "a")
    identities = [
        ("(x + a)^2", "2*(1/2*x^2 + a*x) + a^2"),
        ("x*(x + a)^2", "3*(1/3*x^3 + 1/2*a*x^2) + a*(1/2*x^2 + a*x)"),
        ("(x^2 + a)^2", "4*(1/4*x^4 + 1/2*a*x^2) + a^2"),
        ("x*(x^2 + a)^2", "5*(1/5*x^5 + 1/3*a*x^3) + a*(1/3*x^3 + a*x)"),
    ]
    ok = True
    for lhs, rhs in identities:
        ok &= parse_poly(lhs, xa) == parse_poly(rhs, xa)
    fourth_balances = (parse_poly(identities[3][0], xa)
                       == parse_poly(identities[3][1], xa))
    print(f"  note: fourth generator identity balances exactly: {fourth_balances}")

    xl = ("x", "lam")
    unfold2 = PolyMap.from_exprs(["1/2*x^2 + lam*x", "lam"], xl)
    unfold3 = PolyMap.from_exprs(["1/3*x^3 + lam*x", "lam"], xl)
    gens2 = [parse_poly("1/3*x^3 + 1/2*lam*x^2", xl)]
    gens3 = [
        parse_poly("1/4*x^4 + 1/2*lam*x^2", xl),
        parse_poly("1/5*x^5 + 1/3*lam*x^3", xl),
    ]
    for germ, gens in ((unfold2, gens2), (unfold3, gens3)):
        for g in gens:
            verdicts = (gradient_module_membership(g, germ, 6),
                        jsq_plus_pullback_membership(g, germ, 6))
            _register_members(*verdicts)
            ok &= all(v.is_member and v.certificate.recheck() for v in verdicts)
    _report(7, "all four generator identities verify; unfolding generators MEMBER"
               " both ways at k=6 with rechecked certificates",
            bool(ok), f"fourth identity balances: {fourth_balances}")


def test_acceptance_08_certificate_soundness_audit():
    # independent sweep in case this test runs alone
    rng = random.Random(999)
    for _ in range(20):
        n = rng.choice([1, 2])
        f = random_origin_germ(rng, n, 3)
        psi = random_poly(rng, VARSETS[n], 3)
        _register_members(
            gradient_module_membership(psi, f, 4),
            jsq_plus_pullback_membership(psi, f, 4),
        )
    audited = 0
    ok = True
    for verdict in _member_verdicts:
        cert = verdict.certificate
        ok &= cert is not None and cert.recheck()
        audited += 1
    _report(8, "every MEMBER verdict re-validates by independent substitution",
            bool(ok and audited > 0), f"{audited} certificates audited")


def test_acceptance_09_a_k_front_checks():
    ok = True
    for k in (2, 3, 4):
        restricted = a_k_axis_jacobian(k)
        ok &= restricted == parse_poly(f"x1^{k}", ("x1",))
        mult = multiplicity(a_k_front(k), 12).value
        ok &= mult == k + 1
        # ord(|Jf_k|^2 on the x1-axis) - multiplicity, both read from the
        # germ: 2k - (k+1) exceeds 1 from k = 3 on, and is exactly 1 at k = 2
        gap = (restricted * restricted).order() - mult
        ok &= gap > 1 if k >= 3 else gap == 1
    _report(9, "A_k front: restricted |Jf_k| = x1^k, multiplicity k+1,"
               " ord(restricted |Jf_k|^2) - multiplicity > 1 for k >= 3", bool(ok))


def test_acceptance_10_determinism(capsys, tmp_path):
    def corpus_text() -> str:
        cli_main(["corpus"])
        return capsys.readouterr().out

    def jacobian_text() -> str:
        cli_main(["jacobian", str(GERMS / "swallowtail.germ")])
        return capsys.readouterr().out

    def mesh_bytes(path: Path) -> bytes:
        cli_main(["mesh", str(GERMS / "fold.germ"),
                  "--range", "1", "--res", "16", "--out", str(path)])
        capsys.readouterr()
        return path.read_bytes()

    ok = corpus_text() == corpus_text()
    ok = ok and jacobian_text() == jacobian_text()
    ok = ok and mesh_bytes(tmp_path / "a.obj") == mesh_bytes(tmp_path / "b.obj")
    summary_a = run_all()
    summary_b = run_all()
    ok = ok and all(
        ra.literal.result == rb.literal.result
        for ra, rb in zip(summary_a.reports, summary_b.reports)
    )
    with capsys.disabled():
        print()
        _report(10, "consecutive runs produce byte-identical text reports and OBJ",
                bool(ok))
