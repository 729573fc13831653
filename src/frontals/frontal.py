"""Frontal construction from Jacobian-squared data, and its certification.

Given an equidimensional origin-preserving germ f and multipliers
mu_1..mu_l, the map F = (f, mu_1*det(Jf)^2, ..., mu_l*det(Jf)^2) carries l
explicit conormal fields

    phi_i = ( (det(Jf)*d(mu_i) + 2*mu_i*d(det(Jf))) * adj(Jf),  -e_i )

whose pairing with every column of the Jacobian of F vanishes identically:
the head contributes (row)*adj(Jf)*Jf = det(Jf)*(row), the tail subtracts
exactly d(mu_i*det(Jf)^2) = det(Jf)*(row).  Certification checks that
cancellation on the n coordinate vector fields, which suffices for all
smooth vector fields by linearity over function-germ coefficients, and then
checks nonvanishing and independence of the phi_i at the origin by exact
evaluation and exact rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import linalg
from .maps import PolyMap, differential, jacobian_adjugate, jacobian_det, jacobian_matrix
from .poly import Poly, PolyError, sum_of_products
from .scalars import Scalar


@dataclass(frozen=True)
class Conormal:
    """Candidate conormal field along a frontal: n polynomial head entries
    followed by a constant tail of length l (the -e_i block for constructed
    conormals, arbitrary for hand-stated candidates)."""

    head: tuple[Poly, ...]
    tail: tuple[Scalar, ...]

    @property
    def length(self) -> int:
        return len(self.head) + len(self.tail)

    def value_at_zero(self) -> tuple[Scalar, ...]:
        return tuple(h.constant_term() for h in self.head) + self.tail

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.head + self.tail)) + ")"


@dataclass(frozen=True)
class CertifyReport:
    """Outcome of the three frontal conditions, with exact failure data."""

    condition1_failures: tuple[tuple[int, int, Poly], ...]  # (i, j, residual), 1-based
    condition2_values: tuple[tuple[Scalar, ...], ...]       # phi_i(0)
    condition2_failures: tuple[int, ...]                    # i with phi_i(0) = 0
    condition3_rank: int
    conormal_count: int

    @property
    def condition1_ok(self) -> bool:
        return not self.condition1_failures

    @property
    def condition2_ok(self) -> bool:
        return not self.condition2_failures

    @property
    def condition3_ok(self) -> bool:
        return self.condition3_rank == self.conormal_count

    @property
    def ok(self) -> bool:
        return self.condition1_ok and self.condition2_ok and self.condition3_ok


@dataclass(frozen=True)
class FrontalPackage:
    """A constructed frontal with its certificate: base germ, multipliers,
    assembled map, conormal fields, and the certification report."""

    base: PolyMap
    multipliers: tuple[Poly, ...]
    frontal_map: PolyMap
    conormal_fields: tuple[Conormal, ...]
    report: CertifyReport = field(compare=False)


def _check_build_inputs(f: PolyMap, mus: Sequence[Poly]) -> None:
    if not f.is_equidimensional:
        raise PolyError(
            f"frontal construction needs an equidimensional germ, got "
            f"{f.source_dim} -> {f.target_dim}")
    if not f.is_origin_preserving:
        raise PolyError("base germ must preserve the origin (zero constant terms)")
    if not mus:
        raise PolyError("at least one multiplier is required")
    for mu in mus:
        if mu.vars != f.source_vars:
            raise PolyError("multipliers must use the germ's source variables")


def build_frontal(f: PolyMap, mus: Sequence[Poly]) -> PolyMap:
    """Append mu_i * det(Jf)^2 to f, giving a map R^n -> R^(n+l)."""
    _check_build_inputs(f, mus)
    jsq = jacobian_det(f) ** 2
    return PolyMap(tuple(f.components) + tuple(mu * jsq for mu in mus))


def conormals(f: PolyMap, mus: Sequence[Poly]) -> tuple[Conormal, ...]:
    """The explicit conormal fields of the Jacobian-squared construction."""
    _check_build_inputs(f, mus)
    n = f.source_dim
    vs = f.source_vars
    _, adj, det = jacobian_adjugate(f)
    ddet = differential(det)
    zero, minus_one = Fraction(0), Fraction(-1)
    out = []
    for i, mu in enumerate(mus):
        dmu = differential(mu)
        mu2 = mu.scale(2)
        row = tuple(sum_of_products(vs, ((det, dmu[j]), (mu2, ddet[j]))) for j in range(n))
        head = tuple(
            sum_of_products(vs, ((row[r], adj.entry(r, j)) for r in range(n)))
            for j in range(n)
        )
        out.append(Conormal(head=head, tail=tuple(
            minus_one if t == i else zero for t in range(len(mus)))))
    return tuple(out)


def certify_frontal(F: PolyMap, phis: Sequence[Conormal]) -> CertifyReport:
    """Check the three frontal conditions for F with candidate conormals.

    Condition (1) is verified against the n coordinate vector fields as exact
    polynomial identities; a failure records the first offending (i, j) pair
    and the nonzero residual.  Conditions (2) and (3) are checked at the
    origin by exact evaluation and exact rank.
    """
    phis = tuple(phis)
    if not phis:
        raise PolyError("certification needs at least one conormal candidate")
    n = F.source_dim
    p = F.target_dim
    for phi in phis:
        if len(phi.head) != n or phi.length != p:
            raise PolyError(
                f"conormal has {len(phi.head)}+{len(phi.tail)} entries, expected "
                f"{n}+{p - n} for a map {n} -> {p}")

    vs = F.source_vars
    jac = jacobian_matrix(F)  # p x n
    cond1_failures = []
    for i, phi in enumerate(phis, start=1):
        # (entry, row of JF) for each entry of phi; a zero tail entry adds
        # nothing to a pairing, so it is not lifted to a polynomial
        terms = tuple(zip(phi.head, jac.rows)) + tuple(
            (Poly.const(vs, t), jac.rows[n + s]) for s, t in enumerate(phi.tail) if t)
        for j in range(1, n + 1):
            residual = sum_of_products(vs, ((e, row[j - 1]) for e, row in terms))
            if not residual.is_zero():
                cond1_failures.append((i, j, residual))

    values = tuple(phi.value_at_zero() for phi in phis)
    cond2_failures = tuple(
        i for i, v in enumerate(values, start=1) if not any(v)
    )
    rank = linalg.scalar_rank(values)
    return CertifyReport(
        condition1_failures=tuple(cond1_failures),
        condition2_values=values,
        condition2_failures=cond2_failures,
        condition3_rank=rank,
        conormal_count=len(phis),
    )


def build_certified(f: PolyMap, mus: Sequence[Poly]) -> FrontalPackage:
    """Construct F and its conormals, certify, and bundle the results."""
    F = build_frontal(f, mus)
    phis = conormals(f, mus)
    report = certify_frontal(F, phis)
    return FrontalPackage(
        base=f,
        multipliers=tuple(mus),
        frontal_map=F,
        conormal_fields=phis,
        report=report,
    )
