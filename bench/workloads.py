"""Seeded task lists for the three benchmark workloads.

Every input is generated here from the workload seed, as term tables or
expression strings that this module builds itself; the program under test
only sees the `Poly`/`PolyMap` objects made from them, or germ files written
to a scratch directory.  Each task knows its expected answer by construction
and checks it outside the timed region.

Task costs vary by two orders of magnitude inside a workload, so the task
lists are stratified: every "round" holds the same mix of task kinds and
sizes, and the seed only draws the random parts within each stratum.  That
keeps the work per second of measuring nearly independent of the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

PINS_FILE = Path(__file__).with_name("cli_pins.json")

_COEFFS = (-3, -2, -1, 1, 2, 3)
_DENOMS = (1, 1, 2, 3)
# a uniform pick from this table is a uniform numerator over a uniform denominator
_COEFF_TABLE = tuple(Fraction(a, b) for a in _COEFFS for b in _DENOMS)


@dataclass
class Task:
    """One timed call into the program.

    ``run`` is the timed call; it looks the program's functions up when it
    runs, so that it goes through a tracer installed after set-up.
    ``check`` returns a failure message or None and ``fingerprint`` a
    canonical rendering of the answer, both computed outside the timed
    region.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    fingerprint: Callable[[Any], str]
    info: dict = field(default_factory=dict)
    output_bytes: Callable[[Any], int] = lambda out: 0


@dataclass
class Workload:
    """A task sequence in round order; a run cycles through it."""

    tasks: list[Task]
    warmup: list[Task]   # run untimed during set-up, one of each kind
    trace_tasks: int     # fixed prefix run by a traced pass


# ---------------------------------------------------------------------------
# small term-table helpers, independent of the program under test
# ---------------------------------------------------------------------------


def _monomials(n: int, max_degree: int, min_degree: int = 0) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()]
    for _ in range(n):
        out = [m + (e,) for m in out for e in range(max_degree + 1)]
    out = [m for m in out if min_degree <= sum(m) <= max_degree]
    return sorted(out, key=lambda m: (sum(m), m))


def _random_terms(rng: random.Random, monos, max_terms: int = 4) -> dict:
    """The acceptance-test draw: 1..max_terms monomials with small rational
    coefficients, repeated monomials summed (and dropped if they cancel)."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = rng.choice(monos)
        c = rng.choice(_COEFF_TABLE)
        terms[m] = terms[m] + c if m in terms else c
    return {m: c for m, c in terms.items() if c}


def _bit_reverse_order(k: int) -> list[int]:
    """0..k-1 (k a power of two) in bit-reversed order: every prefix of the
    order samples the range evenly."""
    bits = k.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(k)]


def _det_support(rows: list[list[set]]) -> set:
    """Support of a determinant of polynomial entries, ignoring cancellation."""
    if len(rows) == 1:
        return rows[0][0]
    out: set = set()
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = _det_support([r[:j] + r[j + 1:] for r in rows[1:]])
        out |= {tuple(a + b for a, b in zip(p, q)) for p in entry for q in minor}
    return out


def _certify_cost_proxy(f_terms: list[dict], mu_terms: list[dict]) -> int:
    """Cheap stand-in for the cost of one certify task: the work is dominated
    by products with det(Jf)^2, so it grows with the square of the support of
    det(Jf), with the number of multipliers and with their term counts."""
    n = len(f_terms)
    jac = [[{m[:j] + (m[j] - 1,) + m[j + 1:] for m in comp if m[j]} for j in range(n)]
           for comp in f_terms]
    det = len(_det_support(jac))
    return det * det * len(mu_terms) * (1 + sum(len(t) for t in mu_terms))


# ---------------------------------------------------------------------------
# certify: build_frontal -> conormals -> certify_frontal on random draws
# ---------------------------------------------------------------------------

_CERTIFY_PER_CLASS = 256    # tasks per (n, l) class in the pool, a power of two
_CERTIFY_CANDIDATES = 4     # draws per pool slot, for the cost stratification
_VARSETS = {1: ("x",), 2: ("x", "y"), 3: ("x", "y", "z")}


def certify(lib, rng: random.Random, scratch: Path) -> Workload:
    """Theorem 1 on the acceptance-test distribution: n, l uniform in {1,2,3},
    germ components of degree 1..3, multipliers of degree <= 2.

    Each (n, l) class gets the same number of tasks.  Within a class, the
    tasks are picked at evenly spaced quantiles of a cost proxy out of
    several times as many draws, and run in bit-reversed quantile order, one
    class after another, so any prefix of the run holds the same mix.
    """
    Poly, PolyMap = lib.poly.Poly, lib.maps.PolyMap
    frontal = lib.frontal
    classes = [(n, l) for n in (1, 2, 3) for l in (1, 2, 3)]
    picked: dict[tuple[int, int], list] = {}
    for n, l in classes:
        germ_monos = _monomials(n, 3, 1)
        mu_monos = _monomials(n, 2)
        draws = []
        for i in range(_CERTIFY_PER_CLASS * _CERTIFY_CANDIDATES):
            f_terms = [_random_terms(rng, germ_monos) for _ in range(n)]
            mu_terms = [_random_terms(rng, mu_monos) for _ in range(l)]
            draws.append((_certify_cost_proxy(f_terms, mu_terms), i, f_terms, mu_terms))
        draws.sort(key=lambda d: d[:2])
        picked[(n, l)] = [draws[int((q + 0.5) * _CERTIFY_CANDIDATES)]
                          for q in range(_CERTIFY_PER_CLASS)]

    tasks = []
    for q in _bit_reverse_order(_CERTIFY_PER_CLASS):
        for n, l in classes:
            _, _, f_terms, mu_terms = picked[(n, l)][q]
            vs = _VARSETS[n]
            f = PolyMap(tuple(Poly(vs, t) for t in f_terms))
            mus = [Poly(vs, t) for t in mu_terms]
            tasks.append(_certify_task(frontal, f, mus, f"certify n={n} l={l} q={q}"))
    per_round = len(classes)
    return Workload(tasks=tasks, warmup=tasks[:per_round], trace_tasks=32 * per_round)


def _certify_task(frontal, f, mus, label: str) -> Task:
    def run():
        F = frontal.build_frontal(f, mus)
        phis = frontal.conormals(f, mus)
        return F, phis, frontal.certify_frontal(F, phis)

    def check(out):
        report = out[2]
        if report.condition1_failures:
            return f"condition 1 residuals at {[(i, j) for i, j, _ in report.condition1_failures]}"
        if not report.ok:
            return "certification failed"
        return None

    def fingerprint(out):
        F, phis, report = out
        return f"{F} | {' ; '.join(str(p) for p in phis)} | {report.condition3_rank}"

    return Task(label, run, check, fingerprint, {"conormals": len(mus)})


# ---------------------------------------------------------------------------
# jets: multiplicity and jet-level membership
# ---------------------------------------------------------------------------

# exponent vectors d of the seeded germs x_i^(d_i) + higher-order terms
_MULT_DEGREES = ((2, 3), (3, 4), (4, 4), (2, 2, 2), (2, 3, 3), (3, 3, 3), (3, 3, 4))
_AK_ORDERS = (4, 5, 6)
_JET_ORDERS = (8, 12, 16, 20, 24)
_JETS_ROUNDS = 8

# (name, first component g of f = (g, y), det(Jf) = dg/dx)
_MEMBERSHIP_GERMS = (
    ("fold", "1/2*x^2 + x*y", "x + y"),
    ("swallowtail", "1/3*x^3 + x*y", "x^2 + y"),
    ("4_2+", "1/3*x^3 + x*y^2", "x^2 + y^2"),
    ("4_3-", "1/3*x^3 - x*y^3", "x^2 - y^3"),
)


def _rational_text(rng: random.Random) -> str:
    q = Fraction(rng.choice(_COEFFS), rng.choice(_DENOMS))
    return str(q)


def _poly_text(rng: random.Random, atoms: tuple[str, ...], max_degree: int,
               terms: int, min_degree: int = 1) -> str:
    """A random polynomial in the given atoms (variables or parenthesised
    expressions), as an unexpanded expression string."""
    monos = _monomials(len(atoms), max_degree, min_degree)
    pieces = []
    for m in rng.sample(monos, terms):
        factors = [_rational_text(rng)]
        factors += [a if e == 1 else f"{a}^{e}" for a, e in zip(atoms, m) if e]
        pieces.append("*".join(factors))
    return " + ".join(pieces).replace("+ -", "- ")


def _membership_psi(rng: random.Random, g: str, jac: str, mode: str, member: bool) -> str:
    """psi = eta o f (gradient) or mu*det(Jf)^2 + eta o f (jsq); both are
    members of their module.  Adding x makes a non-member: f has no linear
    x-term and det(Jf)(0) = 0, so no combination can produce one."""
    eta = _poly_text(rng, (f"({g})", "y"), 3, 3)
    psi = eta
    if mode == "jsq":
        psi = f"({_poly_text(rng, ('x', 'y'), 2, 2, 0)})*({jac})^2 + {eta}"
    return psi if member else f"x + {psi}"


def jets(lib, rng: random.Random, scratch: Path) -> Workload:
    """Jet-truncated linear algebra over Q.  Every round holds the same task
    kinds and sizes: seeded multiplicity germs of known value, the A_k front
    germs, and both membership tests at rotating jet orders on four germs."""
    Poly, PolyMap, parse_poly = lib.poly.Poly, lib.maps.PolyMap, lib.poly.parse_poly
    xy = ("x", "y")
    tasks: list[Task] = []
    for r in range(_JETS_ROUNDS):
        rnd: list[Task] = []
        for d in _MULT_DEGREES:
            n = len(d)
            vs = _VARSETS[n]
            comps = []
            for i, di in enumerate(d):
                terms = {tuple(di if j == i else 0 for j in range(n)): Fraction(1)}
                for m in rng.sample(_monomials(n, di + 2, di + 1), 2):
                    terms[m] = Fraction(rng.choice(_COEFFS), rng.choice(_DENOMS))
                comps.append(Poly(vs, terms))
            expected = 1
            for di in d:
                expected *= di
            rnd.append(_multiplicity_task(lib, PolyMap(tuple(comps)), expected,
                                          f"multiplicity d={d}"))
        for k in _AK_ORDERS:
            rnd.append(_multiplicity_task(lib, lib.corpus.a_k_front(k), k + 1,
                                          f"multiplicity a_k_front k={k}"))
        slot = r
        for name, g, jac in _MEMBERSHIP_GERMS:
            f = PolyMap((parse_poly(g, xy), parse_poly("y", xy)))
            for mode in ("gradient", "jsq"):
                for member in (True, False):
                    k = _JET_ORDERS[slot % len(_JET_ORDERS)]
                    slot += 1
                    psi = parse_poly(_membership_psi(rng, g, jac, mode, member), xy)
                    rnd.append(_membership_task(
                        lib, psi, f, k, mode, member,
                        f"{mode} {name} jet={k} {'member' if member else 'non-member'}"))
        tasks += rnd
    per_round = len(tasks) // _JETS_ROUNDS
    first_membership = len(_MULT_DEGREES) + len(_AK_ORDERS)
    warmup = [tasks[0], tasks[len(_MULT_DEGREES)],
              tasks[first_membership], tasks[first_membership + 2]]
    return Workload(tasks=tasks, warmup=warmup, trace_tasks=4 * per_round)


def _multiplicity_task(lib, f, expected: int, label: str) -> Task:
    def check(result):
        if result.value != expected:
            return f"multiplicity {result.value}, expected {expected}"
        return None

    return Task(label, lambda: lib.local_algebra.multiplicity(f), check, str)


def _membership_task(lib, psi, f, k: int, mode: str, member: bool, label: str) -> Task:
    ram = lib.ramification
    decide = "gradient_module_membership" if mode == "gradient" else "jsq_plus_pullback_membership"

    def check(verdict):
        if member:
            if verdict.status != ram.MEMBER:
                return f"verdict {verdict}, expected MEMBER"
            if not verdict.certificate.recheck():
                return "certificate fails its recheck"
        elif verdict.status != ram.NOT_MEMBER_MOD_JET:
            return f"verdict {verdict}, expected {ram.NOT_MEMBER_MOD_JET}"
        return None

    def fingerprint(verdict):
        cert = verdict.certificate
        if cert is None:
            return str(verdict)
        if mode == "gradient":
            return f"{verdict} | {' ; '.join(str(a) for a in cert.witnesses)}"
        return f"{verdict} | {cert.mu} | {cert.eta}"

    return Task(label, lambda: getattr(ram, decide)(psi, f, k), check, fingerprint)


# ---------------------------------------------------------------------------
# cli_ext: the command-line tool over Q(6^(1/k)) germ files
# ---------------------------------------------------------------------------

EXT_ORDERS = (2, 3, 4, 5, 6)
SIGNS = ("+", "-")
# coefficient variants (a, b, mu) of the germ (a*x^3 +- b*x*y^k, y) with mu
GERM_VARIANTS = (
    ("1/3", "c", "1 + c*x"),
    ("1/3", "2*c", "c + x*y"),
    ("1/3*c", "c^2", "2 - c*y"),
)
# mesh germs need a rational frontal: every coefficient is a rational power of c
MESH_VARIANTS = ("1/6*c^{k}", "1/3*c^{k}", "1/12*c^{k}")
# eta(X, Y) and mu for the ramify members, in terms of the germ components
ETA_VARIANTS = ("c*{F1} + 2*{F2}^2", "{F1}*{F2} - 1/2*c^2*{F2}^3", "3*{F2}^2 + c*{F1}^2")
MU_VARIANTS = ("1", "c*x", "2 + y")
CORPUS_ARGV = ("corpus", "--k", "2-8")
_CLI_ROUNDS = 6  # each variant of every slot twice


def _ramify_jet(k: int) -> int:
    return 6 + 2 * (k % 3)


def cli_catalog() -> dict[str, dict]:
    """Every CLI task any seed can draw, by key: the germ file text, the
    argument list (with {file} for the germ path) and the exit code that the
    construction implies."""
    out: dict[str, dict] = {}
    for k in EXT_ORDERS:
        for s in SIGNS:
            for v, (a, b, mu) in enumerate(GERM_VARIANTS):
                g = f"{a}*x^3 {s} {b}*x*y^{k}"
                jac = f"3*{a}*x^2 {s} {b}*y^{k}"
                text = (f"# 4_{k}{s} over Q(6^(1/{k})), variant {v}\nvars: x y\next: {k}\n"
                        f"map:\nf1 = {g}\nf2 = y\nmu:\nm1 = {mu}\n")
                base = f"k{k}{s}v{v}"
                for cmd in ("jacobian", "frontal", "multiplicity"):
                    out[f"{base}:{cmd}"] = {"germ": text, "argv": [cmd, "{file}"], "exit": 0}
                jet = str(_ramify_jet(k))
                for p, eta in enumerate(ETA_VARIANTS):
                    pulled = eta.format(F1=f"({g})", F2="(y)")
                    for mode in ("gradient", "jsq"):
                        psi = pulled
                        if mode == "jsq":
                            psi = f"({MU_VARIANTS[p]})*({jac})^2 + {pulled}"
                        for member, code in ((True, 0), (False, 1)):
                            tag = "member" if member else "nonmember"
                            out[f"{base}:ramify-{mode}-{tag}-p{p}"] = {
                                "germ": text,
                                "argv": ["ramify", "{file}", "--psi",
                                         psi if member else f"x + {psi}",
                                         "--jet", jet, "--mode", mode],
                                "exit": code,
                            }
            for v, b in enumerate(MESH_VARIANTS):
                coeff = b.format(k=k)
                text = (f"# rational 4_{k}{s} frontal written over Q(6^(1/{k}))\n"
                        f"vars: x y\next: {k}\nmap:\nf1 = 1/3*x^3 {s} {coeff}*x*y^{k}\n"
                        f"f2 = y\nmu:\nm1 = {coeff}\n")
                out[f"k{k}{s}v{v}:mesh"] = {
                    "germ": text, "argv": ["mesh", "{file}", "--range", "1", "--res", "20"],
                    "exit": 0}
    out["corpus"] = {"germ": None, "argv": list(CORPUS_ARGV), "exit": 0}
    return out


def _cli_keys(rng: random.Random) -> list[str]:
    """_CLI_ROUNDS rounds.  A round holds, for each germ order and sign, every
    command once, except that the mesh export, which costs as much as all
    the others together, runs for one sign per order (alternating by round);
    the corpus run sits mid-round.  Each germ, mesh and psi variant is used
    equally often over the rounds, from a seeded offset per slot, so the
    seed changes which variants meet but not how much work a pass holds."""
    def variant(count: int):
        offset = rng.randrange(count)
        return lambda r: (offset + r) % count

    keys = []
    germ, mesh, psi = {}, {}, {}
    for r in range(_CLI_ROUNDS):
        round_keys = []
        for k in EXT_ORDERS:
            for s in SIGNS:
                v = germ.setdefault((k, s), variant(len(GERM_VARIANTS)))(r)
                base = f"k{k}{s}v{v}"
                round_keys += [f"{base}:{cmd}" for cmd in ("jacobian", "frontal", "multiplicity")]
                for mode in ("gradient", "jsq"):
                    for tag in ("member", "nonmember"):
                        p = psi.setdefault((k, s, mode, tag), variant(len(ETA_VARIANTS)))(r)
                        round_keys.append(f"{base}:ramify-{mode}-{tag}-p{p}")
                if s == SIGNS[(k + r) % 2]:
                    m = mesh.setdefault((k, s), variant(len(MESH_VARIANTS)))(r // 2)
                    round_keys.append(f"k{k}{s}v{m}:mesh")
        round_keys.insert(len(round_keys) // 2, "corpus")
        keys += round_keys
    return keys


def run_cli(main, argv: list[str]) -> tuple[int, str, str]:
    """Call the CLI entry point in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def stdout_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cli_ext(lib, rng: random.Random, scratch: Path) -> Workload:
    """`frontals.cli.main` over germ files with `ext: k`, k = 2..6, written
    to the scratch directory."""
    catalog = cli_catalog()
    pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
    keys = _cli_keys(rng)
    paths: dict[str, Path] = {}
    tasks = []
    for key in keys:
        spec = catalog[key]
        argv = list(spec["argv"])
        if spec["germ"] is not None:
            germ_key = key.split(":")[0] + (":mesh" if argv[0] == "mesh" else "")
            if germ_key not in paths:
                paths[germ_key] = scratch / f"{germ_key.replace(':', '_')}.germ"
                paths[germ_key].write_text(spec["germ"], encoding="utf-8")
            argv[1] = str(paths[germ_key])
        tasks.append(_cli_task(lib, key, argv, spec["exit"], pins[key]))
    per_round = len(tasks) // _CLI_ROUNDS
    per_germ = 8  # commands of the first germ in a round, mesh included
    return Workload(tasks=tasks, warmup=tasks[:per_germ], trace_tasks=3 * per_round)


def _cli_task(lib, key: str, argv: list[str], exit_code: int, pin: str) -> Task:
    def check(out):
        code, stdout, stderr = out
        if code != exit_code:
            return f"exit {code}, expected {exit_code}: {stderr.strip()[:200]}"
        if stdout_digest(stdout) != pin:
            return "stdout differs from the pinned report"
        return None

    def fingerprint(out):
        return f"{out[0]} {stdout_digest(out[1])}"

    return Task(key, lambda: run_cli(lib.cli.main, argv), check, fingerprint,
                output_bytes=lambda out: len(out[1].encode("utf-8")))


GENERATORS = {"certify": certify, "jets": jets, "cli_ext": cli_ext}
