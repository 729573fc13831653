"""Worked normal-form reductions, replayed by literal symbolic composition.

Each entry records a base germ, multipliers, the classical chain of source
and target diffeomorphism-germs, and the claimed normal form.  Running an
entry certifies the constructed frontal, composes the chain exactly as
recorded, and compares with the claim.  Entries never patch a recorded
transform silently: where the literal chain does not compose to the stated
result, a corrected transform is stored alongside with a note, and the
report shows both outcomes and the exact residual.  That every recorded
transform is a diffeomorphism germ fixing the origin, and every claimed form
fixes it, is a fact about this built-in data: the tests check it, a run
does not.

Known corrections (confirmed here by running both variants):

* fold / cuspidal edge: the first target map must be (X + 1/2*Y^2, Y, Z);
  the usually quoted X - 1/2*Y^2 does not reproduce the intermediate form
  (1/2*(x+y)^2, y, ...).
* cuspidal edge: the second target map needs Z + 2*X*Y, not Z - 2*X*Y.
* cuspidal crosscap alternative form: the quartic correction term in the
  third slot of the last target map must be +1/48*Y^4, not -1/16*Y^4;
  the literal map leaves a residual of 1/2*y^4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .frontal import FrontalPackage, build_certified
from .maps import PolyMap, compose
from .poly import Poly, parse_poly
from .scalars import ExtField

SOURCE = "source"
TARGET = "target"


@dataclass(frozen=True)
class ChainStep:
    side: str  # SOURCE | TARGET
    name: str
    transform: PolyMap


@dataclass(frozen=True)
class Correction:
    step_name: str
    transform: PolyMap
    note: str


@dataclass
class CorpusEntry:
    name: str
    parameters: dict
    base: PolyMap
    multipliers: tuple[Poly, ...]
    chain: tuple[ChainStep, ...]
    claimed: PolyMap
    corrections: tuple[Correction, ...] = ()


@dataclass
class CompositionOutcome:
    result: PolyMap            # over Q where no power of c is left
    matches: bool
    rational: bool             # all final coefficients rational
    residual: PolyMap | None   # claimed - result when it does not match


@dataclass
class EntryReport:
    entry: CorpusEntry
    package: FrontalPackage
    literal: CompositionOutcome
    corrected: CompositionOutcome | None
    notes: tuple[str, ...]

    @property
    def certified(self) -> bool:
        return self.package.report.ok

    @property
    def reached(self) -> bool:
        return self.path != "failed"

    @property
    def path(self) -> str:
        if self.literal.matches:
            return "literal"
        if self.corrected is not None and self.corrected.matches:
            return "corrected"
        return "failed"

    @property
    def ok(self) -> bool:
        return self.certified and self.reached


@dataclass
class CorpusSummary:
    reports: list[EntryReport]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.reports)

    @property
    def discrepancies(self) -> list[str]:
        out = []
        for r in self.reports:
            if not r.literal.matches:
                for note in r.notes:
                    out.append(f"{r.entry.name}: {note}")
                if not r.notes:
                    out.append(f"{r.entry.name}: literal chain does not reach the claim")
        return out


# ---------------------------------------------------------------------------
# entry definitions
# ---------------------------------------------------------------------------

_XY = ("x", "y")
_XYZ = ("X", "Y", "Z")
_XYU = ("X", "Y", "U1", "U2", "U3")

def _pmap(exprs, vars, ext=None) -> PolyMap:
    return PolyMap.from_exprs(exprs, vars, ext)


def _fold_base() -> PolyMap:
    return _pmap(["1/2*x^2 + x*y", "y"], _XY)


def _swallowtail_base() -> PolyMap:
    return _pmap(["1/3*x^3 + x*y", "y"], _XY)


def fold_entry() -> CorpusEntry:
    h1_literal = _pmap(["X - 1/2*Y^2", "Y", "Z"], _XYZ)
    h1_fixed = _pmap(["X + 1/2*Y^2", "Y", "Z"], _XYZ)
    return CorpusEntry(
        name="fold",
        parameters={},
        base=_fold_base(),
        multipliers=(parse_poly("1", _XY),),
        chain=(
            ChainStep(TARGET, "H1", h1_literal),
            ChainStep(SOURCE, "h1", _pmap(["x - y", "y"], _XY)),
            ChainStep(TARGET, "H2", _pmap(["2*X", "Y", "Z - 2*X"], _XYZ)),
        ),
        claimed=_pmap(["x^2", "y", "0"], _XY),
        corrections=(
            Correction("H1", h1_fixed,
                       "H1 sign: X + 1/2*Y^2 reproduces the intermediate form"
                       " (1/2*(x+y)^2, y, (x+y)^2); X - 1/2*Y^2 does not"),
        ),
    )


def cuspidal_edge_entry() -> CorpusEntry:
    return CorpusEntry(
        name="cuspidal_edge",
        parameters={},
        base=_fold_base(),
        multipliers=(parse_poly("x", _XY),),
        chain=(
            ChainStep(TARGET, "H1", _pmap(["X - 1/2*Y^2", "Y", "Z"], _XYZ)),
            ChainStep(SOURCE, "h1", _pmap(["x - y", "y"], _XY)),
            ChainStep(TARGET, "H2", _pmap(["2*X", "Y", "Z - 2*X*Y"], _XYZ)),
        ),
        claimed=_pmap(["x^2", "y", "x^3"], _XY),
        corrections=(
            Correction("H1", _pmap(["X + 1/2*Y^2", "Y", "Z"], _XYZ),
                       "H1 sign as in the fold entry"),
            Correction("H2", _pmap(["2*X", "Y", "Z + 2*X*Y"], _XYZ),
                       "H2 cross-term sign: Z + 2*X*Y removes the x^2*y term;"
                       " Z - 2*X*Y doubles it"),
        ),
    )


def folded_umbrella_entry() -> CorpusEntry:
    return CorpusEntry(
        name="folded_umbrella",
        parameters={},
        base=_fold_base(),
        multipliers=(parse_poly("x^2", _XY),),
        chain=(
            ChainStep(TARGET, "H1", _pmap(["X", "Y", "Z - X^2"], _XYZ)),
            ChainStep(SOURCE, "h1", _pmap(["x", "1/2*y"], _XY)),
            ChainStep(TARGET, "H2", _pmap(["2*X", "2*Y", "4/3*Z"], _XYZ)),
        ),
        claimed=_pmap(["x^2 + x*y", "y", "x^4 + 2/3*x^3*y"], _XY),
    )


def cuspidal_crosscap_alt_entry() -> CorpusEntry:
    base = folded_umbrella_entry()
    h3_literal = _pmap([
        "4*(X + 1/4*Y^2)",
        "Y",
        "-6*(Z - (X + 1/4*Y^2)^2 - 1/2*(X + 1/4*Y^2)*Y^2 - 1/16*Y^4)",
    ], _XYZ)
    h3_fixed = _pmap([
        "4*(X + 1/4*Y^2)",
        "Y",
        "-6*(Z - (X + 1/4*Y^2)^2 - 1/2*(X + 1/4*Y^2)*Y^2 + 1/48*Y^4)",
    ], _XYZ)
    return CorpusEntry(
        name="cuspidal_crosscap_alt",
        parameters={},
        base=base.base,
        multipliers=base.multipliers,
        chain=base.chain + (
            ChainStep(SOURCE, "h2", _pmap(["1/2*x - 1/2*y", "y"], _XY)),
            ChainStep(TARGET, "H3", h3_literal),
        ),
        claimed=_pmap(["x^2", "y", "x^3*y"], _XY),
        corrections=(
            Correction("H3", h3_fixed,
                       "H3 quartic term: +1/48*Y^4 cancels the residual 1/2*y^4"
                       " left by the uncorrected -1/16*Y^4"),
        ),
    )


def open_folded_umbrella_entry() -> CorpusEntry:
    return CorpusEntry(
        name="open_folded_umbrella",
        parameters={},
        base=_fold_base(),
        multipliers=(
            parse_poly("x^2", _XY),
            parse_poly("x^3 + x^2*y", _XY),  # x^2 * det(Jf)
            parse_poly("0", _XY),
        ),
        chain=(
            ChainStep(TARGET, "H1",
                      _pmap(["X", "Y", "U1 - X^2", "U2 - Y*U1", "U3"], _XYU)),
            ChainStep(SOURCE, "h1", _pmap(["x", "1/2*y"], _XY)),
            ChainStep(TARGET, "H2",
                      _pmap(["X", "Y", "U1", "U2 - Y*U1", "U3"], _XYU)),
            ChainStep(TARGET, "H3",
                      _pmap(["2*X", "2*Y", "4/3*U1", "U2", "U3"], _XYU)),
        ),
        claimed=_pmap(
            ["x^2 + x*y", "y", "x^4 + 2/3*x^3*y", "x^5 + 5/8*x^4*y", "0"], _XY),
    )


def swallowtail_entry() -> CorpusEntry:
    return CorpusEntry(
        name="swallowtail",
        parameters={},
        base=_swallowtail_base(),
        multipliers=(parse_poly("1", _XY),),
        chain=(
            ChainStep(TARGET, "H1", _pmap(["X", "Y", "Z - Y^2"], _XYZ)),
            ChainStep(TARGET, "H2", _pmap(["-12*X", "6*Y", "3*Z"], _XYZ)),
            ChainStep(SOURCE, "h1", _pmap(["x", "1/6*y"], _XY)),
        ),
        claimed=_pmap(["-4*x^3 - 2*x*y", "y", "3*x^4 + x^2*y"], _XY),
    )


def open_swallowtail_entry() -> CorpusEntry:
    return CorpusEntry(
        name="open_swallowtail",
        parameters={},
        base=_swallowtail_base(),
        multipliers=(
            parse_poly("1", _XY),
            parse_poly("x", _XY),
            parse_poly("0", _XY),
        ),
        chain=(
            ChainStep(TARGET, "H1",
                      _pmap(["X", "Y", "U1 - Y^2", "U2 - X*Y", "U3"], _XYU)),
            ChainStep(SOURCE, "h1", _pmap(["x", "1/3*y"], _XY)),
            ChainStep(TARGET, "H2",
                      _pmap(["3*X", "3*Y", "U1", "U2", "U3"], _XYU)),
        ),
        claimed=_pmap(
            ["x^3 + x*y", "y", "x^4 + 2/3*x^2*y", "x^5 + 5/9*x^3*y", "0"], _XY),
    )


def four_k_entry(k: int, sign: str) -> CorpusEntry:
    """Opening of the 4_k family over Q(6^(1/k)); k must exceed 1."""
    if not isinstance(k, int) or k <= 1:
        raise ValueError("the 4_k family requires k to be an integer greater than 1")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    ext = ExtField(k)
    s = "+" if sign == "+" else "-"
    base = _pmap([f"1/3*x^3 {s} x*y^{k}", "y"], _XY)
    # h1 scales y by 6^(-1/k) = c^(k-1)/6; H3 scales Y by 6^(1/k)/6 = c/6
    h1 = _pmap(["x", f"1/6*c^{k - 1}*y"], _XY, ext)
    H3 = _pmap(["X", "1/6*c*Y", "Z"], _XYZ, ext)
    return CorpusEntry(
        name="four_k",
        parameters={"k": k, "sign": sign},
        base=base,
        multipliers=(parse_poly("1", _XY),),
        chain=(
            ChainStep(TARGET, "H1", _pmap(["X", "Y", f"Z - Y^{2 * k}"], _XYZ)),
            ChainStep(TARGET, "H2", _pmap(["6*X", "6*Y", "3*Z"], _XYZ)),
            ChainStep(SOURCE, "h1", h1),
            ChainStep(TARGET, "H3", H3),
        ),
        claimed=_pmap(
            [f"2*x^3 {s} x*y^{k}", "y", f"3*x^4 {s} x^2*y^{k}"], _XY),
    )


_FIXED_BUILDERS = {
    "fold": fold_entry,
    "cuspidal_edge": cuspidal_edge_entry,
    "folded_umbrella": folded_umbrella_entry,
    "cuspidal_crosscap_alt": cuspidal_crosscap_alt_entry,
    "open_folded_umbrella": open_folded_umbrella_entry,
    "swallowtail": swallowtail_entry,
    "open_swallowtail": open_swallowtail_entry,
}

FIXED_ENTRY_NAMES = tuple(_FIXED_BUILDERS)
ENTRY_NAMES = FIXED_ENTRY_NAMES + ("four_k",)


def get_entry(name: str, **parameters) -> CorpusEntry:
    if name == "four_k":
        return four_k_entry(parameters.get("k", 2), parameters.get("sign", "+"))
    builder = _FIXED_BUILDERS.get(name)
    if builder is None:
        raise KeyError(f"unknown corpus entry {name!r} (have {', '.join(ENTRY_NAMES)})")
    if parameters:
        raise ValueError(f"entry {name!r} takes no parameters")
    return builder()


# ---------------------------------------------------------------------------
# running entries
# ---------------------------------------------------------------------------


def compose_chain(F: PolyMap, chain: tuple[ChainStep, ...],
                  replacements: dict[str, PolyMap] | None = None) -> PolyMap:
    """Apply the chain in listed order: target maps compose on the left,
    source maps on the right."""
    replacements = replacements or {}
    result = F
    for step in chain:
        transform = replacements.get(step.name, step.transform)
        if step.side == TARGET:
            result = compose(transform, result)
        elif step.side == SOURCE:
            result = compose(result, transform)
        else:
            raise ValueError(f"unknown chain side {step.side!r}")
    return result


def _outcome(result: PolyMap, claimed: PolyMap) -> CompositionOutcome:
    rational = result.is_rational()
    matches = rational and result == claimed
    residual = None
    if not matches:
        residual = PolyMap(tuple(
            a - b for a, b in zip(claimed.components, result.components)
        )) if rational else None
    return CompositionOutcome(result=result, matches=matches, rational=rational,
                              residual=residual)


def run_entry(name: str, **parameters) -> EntryReport:
    """Certify the entry's frontal, compose its chain, compare with the claim.
    The built-in transforms themselves are checked by the tests, not here."""
    entry = get_entry(name, **parameters)
    package = build_certified(entry.base, entry.multipliers)
    literal = _outcome(compose_chain(package.frontal_map, entry.chain), entry.claimed)
    corrected = None
    notes = tuple(c.note for c in entry.corrections)
    if entry.corrections:
        replacements = {c.step_name: c.transform for c in entry.corrections}
        corrected = _outcome(
            compose_chain(package.frontal_map, entry.chain, replacements), entry.claimed)
    return EntryReport(entry=entry, package=package, literal=literal,
                       corrected=corrected, notes=notes)


def run_all(k_values: tuple[int, ...] = (2, 3)) -> CorpusSummary:
    """Run every fixed entry plus the 4_k family at each k, both signs."""
    reports = [run_entry(name) for name in FIXED_ENTRY_NAMES]
    for k in k_values:
        for sign in ("+", "-"):
            reports.append(run_entry("four_k", k=k, sign=sign))
    return CorpusSummary(reports=reports)


# ---------------------------------------------------------------------------
# A_k fronts
# ---------------------------------------------------------------------------


def a_k_front(k: int) -> PolyMap:
    """The corank-one stable germ (sum of x1-powers weighted by x2..xk, x2, ..., xk)."""
    if k < 2:
        raise ValueError(f"the A_k front germ needs k >= 2, got {k}")
    vs = tuple(f"x{i}" for i in range(1, k + 1))
    first = Poly(vs, {
        (k + 1,) + (0,) * (k - 1): Fraction(1, k + 1),
    })
    for j in range(2, k + 1):
        mono = [0] * k
        mono[0] = k + 1 - j
        mono[j - 1] = 1
        first = first + Poly(vs, {tuple(mono): Fraction(1, k + 1 - j)})
    components = [first] + [Poly.variable(vs, v) for v in vs[1:]]
    return PolyMap(tuple(components))
