"""Command-line surface: germ files in, deterministic reports out.

Subcommands mirror the library: jacobian, frontal, multiplicity, ramify,
corpus, mesh.  Text reports are byte-deterministic for fixed inputs; JSON
reports carry the same payload plus an integer timing_ms field, with every
exact value rendered as a canonical string (rationals as "a/b", never
floats).  Exit codes: 2 for input/parse errors everywhere; frontal exits 1
on a failed certification; ramify exits 0/1/3 for MEMBER / NOT-MEMBER /
UNDECIDED; corpus exits 1 when some claimed form was not reached.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .frontal import CertifyReport, build_certified
from .germfile import GermFile, GermFileError, load_germ_file
from .local_algebra import multiplicity
from .maps import jacobian_adjugate
from .mesh import build_obj, frontal_surface, parse_range
from .poly import PolyError, PolyParseError, parse_poly
from .ramification import (
    MEMBER,
    NOT_MEMBER_MOD_JET,
    gradient_module_membership,
    jsq_plus_pullback_membership,
)
from .scalars import MAX_EXT_ORDER

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3


class _Report:
    """Collects text lines and a JSON payload side by side."""

    def __init__(self, command: str):
        self.lines: list[str] = []
        self.payload: dict = {"command": command}

    def line(self, text: str) -> None:
        self.lines.append(text)

    def set(self, key: str, value) -> None:
        self.payload[key] = value

    def render(self, fmt: str, timing_ms: int) -> str:
        if fmt == "json":
            payload = dict(self.payload)
            payload["timing_ms"] = timing_ms
            return json.dumps(payload, indent=2)
        return "\n".join(self.lines)


def _matrix_strs(matrix) -> list[list[str]]:
    return [[str(e) for e in row] for row in matrix.rows]


def _tuple_str(strs: list[str]) -> str:
    """The rendering of a PolyMap or a vector from its entries' strings: each
    polynomial of a report is rendered once, for its text line and its JSON
    value."""
    return "(" + ", ".join(strs) + ")"


def _germ_summary(report: _Report, gf: GermFile) -> None:
    components = [str(c) for c in gf.germ.components]
    report.line(f"vars: {' '.join(gf.vars)}")
    if gf.ext_order is not None:
        report.line(f"ext: {gf.ext_order}")
    report.line(f"f = {_tuple_str(components)}")
    report.set("vars", list(gf.vars))
    report.set("ext", gf.ext_order)
    report.set("map", components)
    if gf.multipliers:
        multipliers = [str(m) for m in gf.multipliers]
        report.line(f"mu = {_tuple_str(multipliers)}")
        report.set("multipliers", multipliers)


def _certify_lines(report: _Report, cert: CertifyReport) -> None:
    failures = [(i, j, str(r)) for i, j, r in cert.condition1_failures]
    values = [[str(x) for x in v] for v in cert.condition2_values]
    report.line(f"condition 1 (annihilates tF): {'PASS' if cert.condition1_ok else 'FAIL'}")
    for i, j, residual in failures:
        report.line(f"  failure at (i, j) = ({i}, {j}): residual {residual}")
    report.line(f"condition 2 (phi_i(0) != 0): {'PASS' if cert.condition2_ok else 'FAIL'}"
                f"  [{', '.join(map(_tuple_str, values))}]")
    report.line(f"condition 3 (independent at 0): "
                f"{'PASS' if cert.condition3_ok else 'FAIL'}  "
                f"[rank {cert.condition3_rank} of {cert.conormal_count}]")
    report.set("certification", {
        "condition1": cert.condition1_ok,
        "condition1_failures": [{"i": i, "j": j, "residual": r} for i, j, r in failures],
        "condition2": cert.condition2_ok,
        "condition2_values": values,
        "condition3": cert.condition3_ok,
        "condition3_rank": cert.condition3_rank,
        "pass": cert.ok,
    })


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, exit_code)
# ---------------------------------------------------------------------------


def cmd_jacobian(args) -> tuple[_Report, int]:
    gf = load_germ_file(args.file)
    report = _Report("jacobian")
    _germ_summary(report, gf)
    jac, adj, det = jacobian_adjugate(gf.germ)
    jac_rows, adj_rows, det_str = _matrix_strs(jac), _matrix_strs(adj), str(det)
    jsq_str = str(det * det)
    report.line("Jf =")
    for row in jac_rows:
        report.line("  [" + ", ".join(row) + "]")
    report.line(f"|Jf| = {det_str}")
    report.line("adj(Jf) =")
    for row in adj_rows:
        report.line("  [" + ", ".join(row) + "]")
    report.line(f"|Jf|^2 = {jsq_str}")
    report.set("jacobian_matrix", jac_rows)
    report.set("jacobian_det", det_str)
    report.set("adjugate", adj_rows)
    report.set("jacobian_squared", jsq_str)
    report.set("status", "ok")
    return report, EXIT_OK


def cmd_frontal(args) -> tuple[_Report, int]:
    gf = load_germ_file(args.file)
    report = _Report("frontal")
    _germ_summary(report, gf)
    package = build_certified(gf.germ, gf.multipliers)
    components = [str(c) for c in package.frontal_map.components]
    conormals = [str(phi) for phi in package.conormal_fields]
    report.line(f"F = {_tuple_str(components)}")
    for i, phi in enumerate(conormals, start=1):
        report.line(f"phi{i} = {phi}")
    _certify_lines(report, package.report)
    ok = package.report.ok
    report.line(f"frontal certification: {'PASS' if ok else 'FAIL'}")
    report.set("frontal_map", components)
    report.set("conormals", conormals)
    report.set("status", "pass" if ok else "fail")
    return report, EXIT_OK if ok else EXIT_FAIL


def cmd_multiplicity(args) -> tuple[_Report, int]:
    gf = load_germ_file(args.file)
    report = _Report("multiplicity")
    _germ_summary(report, gf)
    result = multiplicity(gf.germ, args.jet_cap)
    report.line(str(result))
    report.set("value", result.value)
    report.set("stabilized", result.stabilized)
    report.set("jet_order", result.jet_order)
    report.set("dimension_sequence", list(result.dimension_sequence))
    if result.reason:
        report.set("reason", result.reason)
    report.set("status", "ok" if result.stabilized else "not-stabilized")
    return report, EXIT_OK


def cmd_ramify(args) -> tuple[_Report, int]:
    gf = load_germ_file(args.file)
    psi = parse_poly(args.psi, gf.vars, gf.field)
    psi_str = str(psi)
    report = _Report("ramify")
    _germ_summary(report, gf)
    report.line(f"psi = {psi_str}")
    report.line(f"mode = {args.mode}, jet order = {args.jet}")
    report.set("psi", psi_str)
    report.set("mode", args.mode)
    report.set("jet_order", args.jet)
    if args.mode == "gradient":
        verdict = gradient_module_membership(psi, gf.germ, args.jet)
    else:
        verdict = jsq_plus_pullback_membership(psi, gf.germ, args.jet)
    report.line(f"verdict: {verdict}")
    report.set("verdict", verdict.status)
    report.set("status", verdict.status.lower())
    if verdict.status == MEMBER:
        cert = verdict.certificate
        witnesses: dict[str, str] = {}
        if args.mode == "gradient":
            for i, a in enumerate(cert.witnesses, start=1):
                text = witnesses[f"a{i}"] = str(a)
                report.line(f"witness a{i} = {text}")
        else:
            mu = witnesses["mu"] = str(cert.mu)
            eta = witnesses["eta"] = str(cert.eta)
            report.line(f"witness mu = {mu}")
            report.line(f"witness eta = {eta}  [in variables {' '.join(cert.eta.vars)}]")
        report.line("recheck: zero jet residual")
        report.set("witnesses", witnesses)
        report.set("rechecked", verdict.is_member)  # MEMBER only after the recheck passed
        code = EXIT_OK
    elif verdict.status == NOT_MEMBER_MOD_JET:
        code = EXIT_FAIL
    else:
        report.line(f"reason: {verdict.reason}")
        report.set("reason", verdict.reason)
        code = EXIT_UNDECIDED
    return report, code


def _entry_label(entry_report) -> str:
    params = entry_report.entry.parameters
    if params:
        inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{entry_report.entry.name}[{inner}]"
    return entry_report.entry.name


def _corpus_entry_lines(report: _Report, er) -> dict:
    label = _entry_label(er)
    claimed = [str(c) for c in er.entry.claimed.components]
    literal = [str(c) for c in er.literal.result.components]
    report.line(f"[{label}] certify: {'PASS' if er.certified else 'FAIL'}"
                f" | literal: {'MATCH' if er.literal.matches else 'MISMATCH'}"
                + (f" | corrected: {'MATCH' if er.corrected.matches else 'MISMATCH'}"
                   if er.corrected is not None else "")
                + f" | path: {er.path}")
    report.line(f"  claimed = {_tuple_str(claimed)}")
    if not er.literal.matches:
        if er.literal.rational:
            report.line(f"  literal result = {_tuple_str(literal)}")
            report.line(f"  residual (claimed - literal) = {er.literal.residual}")
        else:
            report.line("  literal result has irrational coefficients")
    for note in er.notes:
        report.line(f"  note {note}")
    return {
        "entry": label,
        "certified": er.certified,
        "claimed": claimed,
        "literal_match": er.literal.matches,
        "literal_result": literal,
        "corrected_match": er.corrected.matches if er.corrected is not None else None,
        "path": er.path,
        "notes": list(er.notes),
    }


def cmd_corpus(args) -> tuple[_Report, int]:
    if args.k and args.name not in (None, "four_k"):
        raise ValueError(f"--k applies to the four_k family only, not to {args.name!r}")
    report = _Report("corpus")
    k_values = _parse_k_range(args.k) if args.k else (2, 3)
    if args.name:
        if args.name == "four_k":
            reports = [corpus_mod.run_entry("four_k", k=k, sign=s)
                       for k in k_values for s in ("+", "-")]
        else:
            reports = [corpus_mod.run_entry(args.name)]
        summary = corpus_mod.CorpusSummary(reports=reports)
    else:
        summary = corpus_mod.run_all(k_values=k_values)
    entries_payload = [_corpus_entry_lines(report, er) for er in summary.reports]
    reached = sum(1 for er in summary.reports if er.reached)
    report.line(f"summary: {reached}/{len(summary.reports)} entries reached their"
                f" claimed normal form")
    if summary.discrepancies:
        report.line("discrepancies (recorded transforms vs composition):")
        for d in summary.discrepancies:
            report.line(f"  - {d}")
    report.set("entries", entries_payload)
    report.set("discrepancies", summary.discrepancies)
    report.set("status", "ok" if summary.all_ok else "fail")
    return report, EXIT_OK if summary.all_ok else EXIT_FAIL


def cmd_mesh(args) -> tuple[_Report, int]:
    gf = load_germ_file(args.file)
    r = parse_range(args.range)
    F = frontal_surface(gf.germ, gf.multipliers)
    obj_text = build_obj(F, r, args.res)
    report = _Report("mesh")
    if args.out:
        Path(args.out).write_text(obj_text, encoding="utf-8")
        vertex_count = (args.res + 1) ** 2
        faces = 2 * args.res**2
        report.line(f"wrote {args.out}: {vertex_count} vertices, {faces} triangles")
        report.set("out", args.out)
        report.set("vertices", vertex_count)
        report.set("faces", faces)
    else:
        report.lines = [obj_text.rstrip("\n")]
        report.set("obj", obj_text)
    report.set("status", "ok")
    return report, EXIT_OK


# a --k piece: an integer in ASCII digits, or a range lo-hi of two, spaces
# around each; the groups are the sign and the digits after leading zeros
# of lo, then of hi.  The digits start with 1-9 unless they are one 0, so
# that a failed match backtracks in linear time
_K_PIECE = re.compile(r"(-?)0*([1-9][0-9]*|0) *(?:- *(-?)0*([1-9][0-9]*|0))?")
# the smallest k of the 4_k family
MIN_K = 2


def _k_bound(sign: str, digits: str) -> int:
    """The value of one end of a --k piece.  One with more digits than
    MAX_EXT_ORDER is refused from its digit count, before int() reads it."""
    if len(digits) > len(str(MAX_EXT_ORDER)):
        side = f"below {MIN_K}" if sign else f"above {MAX_EXT_ORDER}"
        raise ValueError(f"--k values {side} are not supported, got an integer of"
                         f" {len(digits)} digits")
    return int(sign + digits)


def _parse_k_range(text: str) -> tuple[int, ...]:
    values: list[int] = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        match = _K_PIECE.fullmatch(piece)
        if not match:
            shown = repr(piece)
            if len(shown) > 60:
                shown = f"a piece of {len(piece)} characters"
            raise ValueError(f"--k takes integers and ranges lo-hi, not {shown}")
        lo_sign, lo_digits, hi_sign, hi_digits = match.groups()
        lo = _k_bound(lo_sign, lo_digits)
        hi = lo if hi_digits is None else _k_bound(hi_sign, hi_digits)
        if lo < MIN_K:
            raise ValueError(f"--k values below {MIN_K} are not supported, got {lo}")
        if hi > MAX_EXT_ORDER:
            raise ValueError(f"--k values above {MAX_EXT_ORDER} are not supported, got {hi}")
        if lo > hi:
            raise ValueError(f"--k range {lo}-{hi} is empty")
        values.extend(range(lo, hi + 1))
    if not values:
        raise ValueError("--k names no value")
    return tuple(values)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontals",
        description="Exact frontal construction, certification and normal-form corpus",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("jacobian", help="print Jf, |Jf|, adj(Jf), |Jf|^2")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_jacobian)

    p = sub.add_parser("frontal", help="build F and conormals, certify")
    p.add_argument("file")
    add_common(p)
    p.set_defaults(handler=cmd_frontal)

    p = sub.add_parser("multiplicity", help="dimension of the local algebra")
    p.add_argument("file")
    p.add_argument("--jet-cap", type=int, default=12, dest="jet_cap")
    add_common(p)
    p.set_defaults(handler=cmd_multiplicity)

    p = sub.add_parser("ramify", help="jet-level ramification-module membership")
    p.add_argument("file")
    p.add_argument("--psi", required=True)
    p.add_argument("--jet", type=int, default=6)
    p.add_argument("--mode", choices=("gradient", "jsq"), default="gradient")
    add_common(p)
    p.set_defaults(handler=cmd_ramify)

    p = sub.add_parser("corpus", help="replay the worked normal-form reductions")
    p.add_argument("name", nargs="?", default=None,
                   help="optional entry name: " + ", ".join(corpus_mod.ENTRY_NAMES))
    p.add_argument("--k", default=None, help="k values for the 4_k family, e.g. 2,3 or 2-4")
    add_common(p)
    p.set_defaults(handler=cmd_corpus)

    p = sub.add_parser("mesh", help="OBJ export of an n=2, l=1 frontal")
    p.add_argument("file")
    p.add_argument("--range", required=True, help="half-width r of the grid (rational)")
    p.add_argument("--res", required=True, type=int, help="grid resolution m")
    p.add_argument("--out", default=None)
    add_common(p)
    p.set_defaults(handler=cmd_mesh)
    return parser


# parse_args leaves the parser unchanged, so one instance serves every call
PARSER = build_arg_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    start = time.perf_counter()
    try:
        report, code = args.handler(args)
    except (GermFileError, PolyParseError, PolyError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT
    timing_ms = int((time.perf_counter() - start) * 1000)
    try:
        print(report.render(args.format, timing_ms))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at interpreter exit fails quietly too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
