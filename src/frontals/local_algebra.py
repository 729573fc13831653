"""Multiplicity of an equidimensional germ via jet-truncated ideal linear algebra.

With I = (f_1, ..., f_n) and m the maximal ideal at the origin, the
codimension c_k = dim E_n / (I + m^(k+1)) is computed at each jet order k
(the class of 1 counted).  The first order k with c_(k-1) = c_k ends the
search, and the value there is dim Q(f) = dim E_n / I exactly, not an
estimate: equal codimensions give I + m^k = I + m^(k+1), so m^k is contained
in I + m*m^k, and Nakayama's lemma (m^k is finitely generated) gives m^k
contained in I.

Two exact steps keep each order small.

Corank reduction.  Row-reducing the components by Jf(0) keeps the ideal and
gives r components h_j = x_(p_j) + (linear in the c = n - r free variables)
+ (higher order) and n - r components without linear part.  Modulo
I + m^(k+1), x_p = phi(x_free): phi is 0 at order 0, and one substitution
round x_p := x_p - h(x_p, x_free) on the order-(k-1) phi gains one degree.
Since E_n / (h) is E_c by x_p -> the exact solution, which phi matches mod
m^(k+1), E_n / (I + m^(k+1)) is isomorphic to E_c / (g + m_c^(k+1)) with g
the other components at x_p = phi.  So each c_k is unchanged while the
search runs in the c corank variables.

One solver for all orders.  The equation "coefficient of x^a in
sum_(m,i) u_(m,i) x^m g_i" involves the unknowns with |m| < |a| (g has no
constant term) and the degree-(|a| - |m|) parts of g, which are final once
g is right to order |a|, so it does not depend on the order k >= |a|.
Order k therefore adds only the rows of the degree-k monomials
(`linalg.order_rows`, each row scaled to integers, which changes no rank)
to one SparseSolver whose columns keep their numbers, and c_k is the count
of monomials of degree <= k in c variables minus its rank.  A shift x^m
enters these rows only through the terms of g of degree k - |m|, so with
the terms of g of degrees lo..hi order k visits only the shifts of degree
k - hi .. k - lo, one index range of the graded monomial list.

When no two consecutive orders up to the cap agree, the result is reported
as not stabilized.  So is a search that stops before an order k at which
what the reduced search builds would exceed MAX_UNKNOWNS: order j lists the
C(c+j-1, c) monomials of degree < j in the c corank variables and enters c
unknowns for each, so orders 0..k build (c+1) * C(c+k, c+1) in all.  Its
`reason` names that cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import comb
from typing import Iterator

from .linalg import SparseSolver, order_rows
from .maps import PolyMap, _jacobian_at_zero
from .poly import Poly, PolyError

MAX_UNKNOWNS = 100_000


@dataclass(frozen=True)
class MultiplicityResult:
    """Dimension of the local algebra, or evidence that it did not stabilize."""

    value: int | None            # None <=> not stabilized by the cap
    jet_order: int               # order where stabilization was seen, else the cap
    dimension_sequence: tuple[int, ...]  # codimension at orders 0..jet_order
    reason: str | None = None    # set when MAX_UNKNOWNS stopped the search

    @property
    def stabilized(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        seq = ", ".join(str(d) for d in self.dimension_sequence)
        if self.stabilized:
            return f"multiplicity {self.value} (stabilized at jet order {self.jet_order}; sequence {seq})"
        line = f"not stabilized at jet order {self.jet_order} (sequence {seq})"
        return f"{line}; {self.reason}" if self.reason else line


def _reduce_linear_part(f: PolyMap) -> tuple[list[int], list[Poly], list[Poly]]:
    """Gauss-Jordan on the components by Jf(0), which leaves the ideal as it is.

    Returns the pivot variables p_j, the components h_j = x_(p_j) + (linear
    in the free variables) + (higher order), and the other components, whose
    linear parts vanish.
    """
    rows = list(zip(_jacobian_at_zero(f), f.components))
    pivots: list[int] = []
    for col in range(f.source_dim):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][0][col]), None)
        if i is None:
            continue
        lin, comp = rows[i]
        if lin[col] != 1:
            inv = 1 / lin[col]
            lin, comp = [v * inv for v in lin], comp.scale(inv)
        rows[i], rows[r] = rows[r], (lin, comp)
        for o, (olin, ocomp) in enumerate(rows):
            a = olin[col]
            if o != r and a:
                rows[o] = ([u - a * v for u, v in zip(olin, lin)], ocomp - comp.scale(a))
        pivots.append(col)
    comps = [comp for _, comp in rows]
    return pivots, comps[:len(pivots)], comps[len(pivots):]


def _codimensions(f: PolyMap, reduction: tuple[list[int], list[Poly], list[Poly]]
                  ) -> Iterator[int]:
    """c_0, c_1, ... of I = (f_1, ..., f_n), one order per step, from the
    reduction of f by `_reduce_linear_part`.

    Unknown (m, i) of sum_(m,i) u_(m,i) x^m g_i is column |g| * index(m) + i
    (`linalg.order_rows`), m running over the monomials of degree < k in
    the free variables, a prefix of the next order's list, so rows entered
    at lower orders keep their meaning.
    """
    vs = f.source_vars
    pivots, heads, others = reduction
    free = tuple(v for j, v in enumerate(vs) if j not in pivots)
    zero = Poly.zero(free)
    # x_(p_j) = psi_j on the zero set of h_j; psi_j = 0 when h_j is x_(p_j)
    # itself, and when every psi_j is, so is every phi at every order
    psis = [Poly.variable(vs, vs[p]) - h for p, h in zip(pivots, heads)]
    # x_p -> phi (0 at order 0), x_free -> x_free
    images = [zero if j in pivots else Poly.variable(free, v) for j, v in enumerate(vs)]
    lifts = others and any(not psi.is_zero() for psi in psis)
    # order k reads the terms of degree <= k: without lifts, one substitution serves all
    gs = [g.substitute(images) for g in others] if pivots and not lifts else others
    solver = SparseSolver()
    for k in count():
        if k and lifts:
            phi = [psi.substitute(images, jet=k) for psi in psis]
            for p, image in zip(pivots, phi):
                images[p] = image
            gs = [g.substitute(images, jet=k) for g in others]
        for row in order_rows(k, gs):
            solver.add_row(row)
        yield comb(len(free) + k, k) - solver.rank


def multiplicity(f: PolyMap, k_max: int = 12) -> MultiplicityResult:
    """dim_R Q(f) via stabilized jet codimensions (window of two equal orders)."""
    if not f.is_equidimensional:
        raise PolyError("multiplicity is defined here for equidimensional germs only")
    if not f.is_origin_preserving:
        raise PolyError("multiplicity needs an origin-preserving germ")
    if k_max < 0:
        raise PolyError(f"jet cap must be >= 0, got {k_max}")
    reduction = _reduce_linear_part(f)
    # the search runs in the variables that are not pivots of the reduction
    c = f.source_dim - len(reduction[0])
    sequence: list[int] = []
    codimensions = _codimensions(f, reduction)
    for k in range(k_max + 1):
        built = (c + 1) * comb(c + k, c + 1)
        if built > MAX_UNKNOWNS:
            return MultiplicityResult(
                value=None, jet_order=k - 1, dimension_sequence=tuple(sequence),
                reason=f"order {k} would bring the monomials and unknowns of orders 0..{k}"
                       f" to {built}, over the cap MAX_UNKNOWNS = {MAX_UNKNOWNS}")
        d = next(codimensions)
        sequence.append(d)
        if k >= 1 and sequence[k] == sequence[k - 1]:
            return MultiplicityResult(value=d, jet_order=k,
                                      dimension_sequence=tuple(sequence))
    return MultiplicityResult(value=None, jet_order=k_max,
                              dimension_sequence=tuple(sequence))
