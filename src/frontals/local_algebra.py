"""Multiplicity of an equidimensional germ via jet-truncated ideal linear algebra.

With I = (f_1, ..., f_n) and m the maximal ideal at the origin, the
codimension c_k = dim E_n / (I + m^(k+1)) is computed at each jet order k as
the codimension of span{ jet_k(m * f_i) : deg(m) <= k } inside the space of
polynomials of degree <= k (the constant monomial included, so the class of 1
is counted).  The first order k with c_(k-1) = c_k ends the search, and the
value there is dim Q(f) = dim E_n / I exactly, not an estimate: equal
codimensions give I + m^k = I + m^(k+1), so m^k is contained in I + m*m^k,
and Nakayama's lemma (m^k is finitely generated) gives m^k contained in I.
When no two consecutive orders up to the cap agree, the result is reported
as not stabilized.  So is a search that stops before an order k at which the
unknowns of orders 0..k, n * C(n+k+1, n+1) in all, would exceed MAX_UNKNOWNS;
its `reason` names that cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .linalg import SparseSolver, jet_rows
from .maps import PolyMap
from .poly import PolyError, monomials_up_to

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


def _codimension_at_order(f: PolyMap, k: int) -> int:
    """len(P_k) minus the rank of the jet equations of sum_(i,m) u_(i,m) m f_i."""
    monos = monomials_up_to(f.source_vars, k)
    comps = [(comp.jet(k),) for comp in f.components]
    solver = SparseSolver()
    for row in jet_rows(k, [(m, comp) for comp in comps for m in monos]).values():
        solver.add_row(row)
    return len(monos) - solver.rank


def multiplicity(f: PolyMap, k_max: int = 12) -> MultiplicityResult:
    """dim_R Q(f) via stabilized jet codimensions (window of two equal orders)."""
    if not f.is_equidimensional:
        raise PolyError("multiplicity is defined here for equidimensional germs only")
    if not f.is_origin_preserving:
        raise PolyError("multiplicity needs an origin-preserving germ")
    if k_max < 0:
        raise PolyError(f"jet cap must be >= 0, got {k_max}")
    n = f.source_dim
    sequence: list[int] = []
    for k in range(k_max + 1):
        unknowns = n * comb(n + k + 1, n + 1)
        if unknowns > MAX_UNKNOWNS:
            return MultiplicityResult(
                value=None, jet_order=k - 1, dimension_sequence=tuple(sequence),
                reason=f"order {k} would bring the unknowns of orders 0..{k} to "
                       f"{unknowns}, over the cap MAX_UNKNOWNS = {MAX_UNKNOWNS}")
        d = _codimension_at_order(f, k)
        sequence.append(d)
        if k >= 1 and sequence[k] == sequence[k - 1]:
            return MultiplicityResult(value=d, jet_order=k,
                                      dimension_sequence=tuple(sequence))
    return MultiplicityResult(value=None, jet_order=k_max,
                              dimension_sequence=tuple(sequence))
