"""Polynomial map-germs, Jacobian/adjugate calculus, and composition.

A ``PolyMap`` is a tuple of polynomials sharing one source variable list; it
represents a map-germ based at the origin when every component has zero
constant term.  All determinants are expanded by exact cofactors, each
minor once per call: an n x n determinant forms at most n * 2^(n-1)
products and an adjugate at most n times that.  The chain rule, adjugate
identity and composition associativity hold as exact polynomial statements.

Callers that need both det(Jf) and adj(Jf) take them, with Jf, from
`jacobian_adjugate`, the one place that reads det(Jf) off adj(Jf).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import Poly, PolyError, VariableMismatchError, _weights, parse_poly, sum_of_products
from .scalars import ExtField, Scalar

Covector = tuple[Poly, ...]


@dataclass(frozen=True)
class PolyMap:
    """A polynomial map R^n -> R^p given by p components in n shared variables."""

    components: tuple[Poly, ...]

    def __post_init__(self):
        if not self.components:
            raise PolyError("a map needs at least one component")
        vars0 = self.components[0].vars
        for comp in self.components[1:]:
            if comp.vars != vars0:
                raise VariableMismatchError("map components must share one variable list")
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def from_exprs(cls, exprs: Sequence[str], vars: Sequence[str],
                   field: ExtField | None = None) -> "PolyMap":
        return cls(tuple(parse_poly(e, vars, field) for e in exprs))

    @property
    def source_vars(self) -> tuple[str, ...]:
        return self.components[0].vars

    @property
    def source_dim(self) -> int:
        return len(self.source_vars)

    @property
    def target_dim(self) -> int:
        return len(self.components)

    @property
    def is_equidimensional(self) -> bool:
        return self.source_dim == self.target_dim

    @property
    def is_origin_preserving(self) -> bool:
        return not any(c.constant_term() for c in self.components)

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of polynomials over one shared variable list."""

    rows: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        if not rows or not rows[0]:
            raise PolyError("matrix must be non-empty")
        width = len(rows[0])
        vars0 = rows[0][0].vars
        for row in rows:
            if len(row) != width:
                raise PolyError("matrix rows must have equal length")
            for entry in row:
                if entry.vars != vars0:
                    raise VariableMismatchError("matrix entries must share one variable list")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def vars(self) -> tuple[str, ...]:
        return self.rows[0][0].vars

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[Poly, ...]:
        return tuple(row[j] for row in self.rows)

    def det(self) -> Poly:
        r, c = self.shape
        if r != c:
            raise PolyError(f"determinant of a non-square {self.shape} matrix")
        full = tuple(range(r))
        return _minors(self.rows, self.vars)(full, full)


def _minors(rows: tuple[tuple[Poly, ...], ...], vars: tuple[str, ...]):
    """The determinant of rows restricted to a row tuple and a column tuple,
    by cofactor expansion along the first row.  Each (rows, columns) minor
    is expanded once and kept for the life of the returned function, so an
    n x n determinant forms at most n * 2^(n-1) products.  Expansions skip
    zero entries and start from the first nonzero term.  The empty minor
    is 1."""
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], Poly] = {}

    def minor(rs: tuple[int, ...], cs: tuple[int, ...]) -> Poly:
        if len(rs) <= 1:
            return rows[rs[0]][cs[0]] if rs else Poly.const(vars, 1)
        got = memo.get((rs, cs))
        if got is None:
            top, below = rows[rs[0]], rs[1:]
            for t, c in enumerate(cs):
                if not top[c].is_zero():
                    term = top[c] * minor(below, cs[:t] + cs[t + 1:])
                    if t % 2:
                        term = -term
                    got = term if got is None else got + term
            if got is None:
                got = Poly.zero(vars)
            memo[(rs, cs)] = got
        return got

    return minor


def adjugate(matrix: PolyMatrix) -> PolyMatrix:
    """Adjugate (transposed cofactor matrix): adj(M)*M = M*adj(M) = det(M)*I.

    The n^2 cofactors share one table of minors, so each minor below them
    is expanded once per call.  The 1x1 adjugate is [[1]], the determinant
    of the empty minor, which keeps the identity det(M)*I = adj(M)*M valid
    in every dimension.
    """
    r, c = matrix.shape
    if r != c:
        raise PolyError(f"adjugate of a non-square {matrix.shape} matrix")
    minor = _minors(matrix.rows, matrix.vars)
    full = tuple(range(r))

    def cofactor(i: int, j: int) -> Poly:
        det = minor(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
        return -det if (i + j) % 2 else det

    return PolyMatrix(tuple(tuple(cofactor(i, j) for i in range(r)) for j in range(r)))


def jacobian_matrix(f: PolyMap) -> PolyMatrix:
    """Matrix of partials: entry (i, j) = d f_i / d x_j, shape p x n."""
    vs = f.source_vars
    return PolyMatrix(tuple(
        tuple(comp.diff(v) for v in vs) for comp in f.components
    ))


def _check_square(f: PolyMap) -> None:
    if not f.is_equidimensional:
        raise PolyError(
            f"Jacobian determinant needs an equidimensional map, got "
            f"{f.source_dim} -> {f.target_dim}")


def jacobian_det(f: PolyMap) -> Poly:
    _check_square(f)
    return jacobian_matrix(f).det()


def jacobian_adjugate(f: PolyMap) -> tuple[PolyMatrix, PolyMatrix, Poly]:
    """(Jf, adj(Jf), det(Jf)) of an equidimensional germ.  det(Jf) is read off
    the (0, 0) entry of Jf*adj(Jf) = det(Jf)*I: n products instead of a
    second cofactor expansion."""
    _check_square(f)
    jac = jacobian_matrix(f)
    adj = adjugate(jac)
    return jac, adj, sum_of_products(f.source_vars, zip(jac.rows[0], adj.column(0)))


def differential(h: Poly) -> Covector:
    """Exterior differential of a function-germ as the row (dh/dx_1, ..., dh/dx_n)."""
    return tuple(h.diff(v) for v in h.vars)


def compose(g: PolyMap, f: PolyMap) -> PolyMap:
    """Exact composition g o f; f's target arity must equal g's source arity."""
    if f.target_dim != g.source_dim:
        raise PolyError(
            f"cannot compose: inner map has target dimension {f.target_dim}, "
            f"outer map expects {g.source_dim}")
    images = list(f.components)
    return PolyMap(tuple(comp.substitute(images) for comp in g.components))


def _jacobian_at_zero(f: PolyMap) -> list[list[Scalar]]:
    """Jf(0): entry (i, j) is the coefficient of x_j in f_i, read at the
    packed key of x_j."""
    keys = _weights(f.source_dim)
    return [[comp._coefficient(key) for key in keys] for comp in f.components]

