"""Jet-level membership tests with re-checkable witness certificates.

Two module membership questions, both answered modulo m^(k+1) by exact
linear algebra over the rationals:

* gradient module: does d(psi) lie in the module generated by the df_i over
  function-germ coefficients?  Unknowns are coefficient polynomials a_i of
  degree <= k; the jet-k coefficients of d(psi) - sum a_i df_i must vanish
  componentwise.

* Jacobian-squared plus pullback: is psi = mu * det(Jf)^2 + eta o f modulo
  m^(k+1), with mu a source polynomial and eta a polynomial in n target
  variables, both of degree <= k?

A feasible system yields MEMBER with explicit witnesses, re-checked by
substitution before the verdict is returned; an infeasible system is a proof
of non-membership at that jet order (membership in the smooth category would
make every finite jet feasible), reported as NOT-MEMBER-MOD-JET.  The degree
bound on the unknowns equals the jet order, which makes jet feasibility
exactly equivalent to solvability of the finite system.  MEMBER verdicts are
always "modulo m^(k+1)": a finite-jet tool proves nothing about flat
directions.

Both systems are built one degree at a time (`linalg.jet_solve`).  Each
unknown is streamed with a lower bound on the degree of its terms, in
nondecreasing order: |m| + ord(row i of Jf) for the coefficient of x^m in
a_i, |m| + ord(det(Jf)^2) for that of x^m in mu, and sum alpha_i * ord(f_i)
for that of y^alpha in eta, which is exact because the coefficients form a
field, so f^alpha is formed only when the stream reaches it and never when
its k-jet is zero.  Each f^alpha is kept as the packed form of its k-jet,
one cut product of the packed forms of f^beta and f_i (`poly._cut_product`),
and is its column's form as it is over Q, its numerators grouped by
monomial over Q(c): no Poly, `.jet` or `scaled_form` per power.  The solve
stops at the first inconsistent equation, of some degree d <= k; the
equations entered up to it are rows of the whole order-k system, so
NOT-MEMBER-MOD-JET(k) is proved all the same, at the cost of the unknowns
of bound <= d.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence, Union

from .linalg import _entries, jet_solve, scaled_form
from .maps import PolyMap, differential, jacobian_det, jacobian_matrix
from .poly import (FIELD_BITS, Poly, PolyError, VariableMismatchError, _common_field,
                   _cut_product, _level, _monomial_keys, _unpacker, _weights,
                   sum_of_products)
from .scalars import Scalar

MEMBER = "MEMBER"
NOT_MEMBER_MOD_JET = "NOT-MEMBER-MOD-JET"
UNDECIDED = "UNDECIDED"

# the most unknowns a membership system may have; a larger one is UNDECIDED
# before any of it is built
MAX_UNKNOWNS = 20000


@dataclass(frozen=True)
class GradientCertificate:
    """Witnesses a_1..a_n with jet_k(d(psi) - sum a_i df_i) = 0 componentwise."""

    kind = "gradient-module"
    jet_order: int
    psi: Poly
    germ: PolyMap
    witnesses: tuple[Poly, ...]

    def residuals(self) -> tuple[Poly, ...]:
        jac = jacobian_matrix(self.germ)
        vs = self.germ.source_vars
        return tuple(
            (dpsi - sum_of_products(vs, zip(self.witnesses, jac.column(j)))).jet(self.jet_order)
            for j, dpsi in enumerate(differential(self.psi)))

    def recheck(self) -> bool:
        return all(r.is_zero() for r in self.residuals())


@dataclass(frozen=True)
class PullbackCertificate:
    """Witnesses mu, eta with jet_k(psi - mu*det(Jf)^2 - eta o f) = 0."""

    kind = "jsq-plus-pullback"
    jet_order: int
    psi: Poly
    germ: PolyMap
    mu: Poly
    eta: Poly  # in the target variables

    def residual(self) -> Poly:
        # only the k-jet is compared, so every factor is cut at degree k first
        k = self.jet_order
        det = jacobian_det(self.germ).jet(k)
        jsq = (det * det).jet(k)
        pulled = self.eta.substitute(list(self.germ.components), jet=k)
        return (self.psi - self.mu * jsq - pulled).jet(k)

    def recheck(self) -> bool:
        return self.residual().is_zero()


Certificate = Union[GradientCertificate, PullbackCertificate]


@dataclass(frozen=True)
class MembershipVerdict:
    status: str  # MEMBER | NOT-MEMBER-MOD-JET | UNDECIDED
    jet_order: int
    certificate: Certificate | None = None
    reason: str | None = None

    @property
    def is_member(self) -> bool:
        return self.status == MEMBER

    def __str__(self) -> str:
        if self.status == MEMBER:
            return f"MEMBER (modulo m^{self.jet_order + 1})"
        if self.status == NOT_MEMBER_MOD_JET:
            return f"NOT-MEMBER-MOD-JET({self.jet_order})"
        return f"UNDECIDED ({self.reason})"


def _check_inputs(psi: Poly, f: PolyMap, k: int) -> None:
    if psi.vars != f.source_vars:
        raise VariableMismatchError(
            f"psi uses variables {psi.vars}, germ uses {f.source_vars}")
    if not f.is_equidimensional:
        raise PolyError("membership tests are defined for equidimensional germs")
    if k < 0:  # comb(n + k, n) sizes the system before any jet is taken
        raise PolyError(f"jet order must be >= 0, got {k}")


def _target_vars(source_vars: tuple[str, ...]) -> tuple[str, ...]:
    upper = tuple(v.upper() for v in source_vars)
    if len(set(upper)) == len(upper):
        return upper
    return tuple(f"X{i + 1}" for i in range(len(source_vars)))


def _decide(k: int, unknown_count: int,
            solve: Callable[[], Certificate | None]) -> MembershipVerdict:
    """The steps both tests share: a system over the cap is UNDECIDED before
    any of it is built, an infeasible one proves NOT-MEMBER-MOD-JET, and a
    solution is MEMBER once its certificate rechecks."""
    if unknown_count > MAX_UNKNOWNS:
        return MembershipVerdict(
            status=UNDECIDED, jet_order=k,
            reason=f"{unknown_count} unknowns exceed the cap {MAX_UNKNOWNS}")
    cert = solve()
    if cert is None:
        return MembershipVerdict(status=NOT_MEMBER_MOD_JET, jet_order=k)
    if not cert.recheck():
        raise AssertionError("solver produced a witness that fails its recheck")
    return MembershipVerdict(status=MEMBER, jet_order=k, certificate=cert)


def _block(values: dict[int, Scalar], offset: int,
           vars: tuple[str, ...], keys: Sequence[int]) -> Poly:
    """The polynomial whose coefficient at the monomial of packed key
    keys[t] is unknown offset + t."""
    unpack = _unpacker(len(vars))
    return Poly(vars, {unpack(key): values[offset + t] for t, key in enumerate(keys)
                       if offset + t in values})


def gradient_module_membership(psi: Poly, f: PolyMap, k: int) -> MembershipVerdict:
    """Decide d(psi) in <df_1, ..., df_n> at jet order k."""
    _check_inputs(psi, f, k)
    n = f.source_dim
    vs = f.source_vars

    def solve():
        # unknown i*|keys| + t is the coefficient in a_i of x^m, of key
        # keys[t]; its terms x^m * (row i of Jf) have degree >= |m| + ord(row i)
        keys = _monomial_keys(n, k)
        grads = [tuple(e.jet(k) for e in row) for row in jacobian_matrix(f).rows]
        columns = [(scaled_form(grad), min(k + 1, *(e.order() for e in grad)))
                   for grad in grads]

        def unknowns():
            for bound in range(k + 1):
                for i, (form, order) in enumerate(columns):
                    for t in _level(n, bound - order):
                        yield bound, i * len(keys) + t, keys[t], form

        values = jet_solve(k, keys, [d.jet(k) for d in differential(psi)], unknowns())
        if values is None:
            return None
        witnesses = tuple(_block(values, i * len(keys), vs, keys) for i in range(n))
        return GradientCertificate(jet_order=k, psi=psi, germ=f, witnesses=witnesses)

    return _decide(k, n * comb(n + k, n), solve)


def jsq_plus_pullback_membership(psi: Poly, f: PolyMap, k: int) -> MembershipVerdict:
    """Decide psi in <det(Jf)^2>_{E_n} + f^*(E_n) at jet order k."""
    _check_inputs(psi, f, k)
    n = f.source_dim
    vs = f.source_vars
    tvs = _target_vars(vs)

    def solve():
        # unknowns: mu's coefficients at keys, then eta's at the same keys as
        # target monomials y^alpha.  x^m * jsq has degree >= |m| + ord(jsq),
        # and f^alpha has order sum alpha_i * ord(f_i) exactly, as the
        # coefficients form a field.  f^alpha = f^beta * f_i, where i is the
        # first nonzero alpha_i, whose field is the highest nonzero exponent
        # field of alpha's key, and beta's key is alpha's minus w_i; so
        # bound(alpha) = bound(beta) + ord(f_i), and beta is listed earlier
        keys = _monomial_keys(n, k)
        jsq = (jacobian_det(f) ** 2).jet(k)
        comps = [comp.jet(k) for comp in f.components]
        field = _common_field({comp.field for comp in comps})
        jsq_order = min(jsq.order(), k + 1)
        orders = [min(comp.order(), k + 1) for comp in comps]
        weights, exponents = _weights(n), (1 << n * FIELD_BITS) - 1
        bounds = {0: 0}
        by_bound: list[list[tuple[int, int, int]]] = [[(0, 0, 0)]] + [[] for _ in range(k)]
        for j, key in enumerate(keys[1:], 1):
            i = n - 1 - ((key & exponents).bit_length() - 1) // FIELD_BITS
            bound = bounds[key] = bounds[key - weights[i]] + orders[i]
            if bound <= k:
                by_bound[bound].append((j, key, i))

        def unknowns():
            # the packed form (nums, den) of the k-jet of each f^alpha
            pulled = {0: ({0: 1}, 1)}
            mu = scaled_form([jsq])
            for bound, etas in enumerate(by_bound):
                for t in _level(n, bound - jsq_order):
                    yield bound, t, keys[t], mu
                for j, key, i in etas:
                    if key:
                        pulled[key] = _cut_product(pulled[key - weights[i]], comps[i]._ints,
                                                   n, field, k)
                    nums, den = pulled[key]
                    column = nums if field is None else _entries(nums, n, field)
                    yield bound, len(keys) + j, 0, ([column], den)

        values = jet_solve(k, keys, [psi.jet(k)], unknowns())
        if values is None:
            return None
        return PullbackCertificate(jet_order=k, psi=psi, germ=f, mu=_block(values, 0, vs, keys),
                                   eta=_block(values, len(keys), tvs, keys))

    return _decide(k, 2 * comb(n + k, n), solve)
