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
as not stabilized.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SparseSolver
from .maps import PolyMap
from .poly import PolyError, monomials_up_to


@dataclass(frozen=True)
class MultiplicityResult:
    """Dimension of the local algebra, or evidence that it did not stabilize."""

    value: int | None            # None <=> not stabilized by the cap
    jet_order: int               # order where stabilization was seen, else the cap
    dimension_sequence: tuple[int, ...]  # codimension at orders 0..jet_order

    @property
    def stabilized(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        seq = ", ".join(str(d) for d in self.dimension_sequence)
        if self.stabilized:
            return f"multiplicity {self.value} (stabilized at jet order {self.jet_order}; sequence {seq})"
        return f"not stabilized at jet order {self.jet_order} (sequence {seq})"


def _codimension_at_order(f: PolyMap, k: int) -> int:
    vs = f.source_vars
    monos = monomials_up_to(vs, k)
    index = {m: i for i, m in enumerate(monos)}
    solver = SparseSolver()
    for comp in f.components:
        comp_k = comp.jet(k)
        if comp_k.is_zero():
            continue
        for m in monos:
            row: dict = {}
            for term, coeff in comp_k.terms.items():
                shifted = tuple(a + b for a, b in zip(m, term))
                if sum(shifted) <= k:
                    row[index[shifted]] = row.get(index[shifted], 0) + coeff
            if row:
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
    sequence: list[int] = []
    for k in range(k_max + 1):
        d = _codimension_at_order(f, k)
        sequence.append(d)
        if k >= 1 and sequence[k] == sequence[k - 1]:
            return MultiplicityResult(value=d, jet_order=k,
                                      dimension_sequence=tuple(sequence))
    return MultiplicityResult(value=None, jet_order=k_max,
                              dimension_sequence=tuple(sequence))
