"""Command-line surface: scenario files in, certificates and reports out.

Subcommands:

* ``check {involutive,cinf-structure,independence} SCENARIO`` certifies the
  named property of the scenario's distribution and ordered fields.
* ``reduce SCENARIO`` runs the scenario's reduction script end to end and
  reports the integral-manifold equations.
* ``factors SCENARIO [--emit-solvable]`` runs the reduction, derives the
  per-level integrating and symmetrizing factors, and optionally certifies
  the rescaled fields as a solvable structure.
* ``verify factor SCENARIO --level K --kind ... --expr TEXT`` certifies a
  candidate factor.
* ``convert factor SCENARIO --direction {f2mu,mu2f} --level K --expr TEXT``
  converts between the two kinds and confirms the round trip.

Exit codes: 0 when every certificate is ok, 1 when a certificate fails or a
computation refutes the claim, 2 for unusable input (bad file, bad
expression, bad flags: --samples below 1, a --tol that is not a finite
number > 0, a --level outside 1..m).  Stdout carries the human-readable
report; --report writes the machine-readable JSON document, byte-identical
for identical scenario and seed (no timestamps, no paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__, syntax
from .errors import (
    BadArgumentError,
    CertificationError,
    ChartError,
    CinfstructError,
    DegreeError,
    ExpressionSyntaxError,
    ScenarioError,
    UnknownSymbolError,
)
from .factors import (
    _check_level,
    check_relative_integrating_factor,
    check_symmetrizing_factor,
    factor_to_integrating,
    integrating_to_factor,
)
from .reduction import (
    build_solvable_structure,
    derive_factors,
    final_report,
    init_reduction,
    run_reduction,
)
from .scenario import Scenario, load_scenario
from .structures import check_cinf_structure, check_independent, check_involutive, dual_one_forms

__all__ = ["main"]

_INPUT_ERRORS = (
    BadArgumentError,
    ScenarioError,
    ExpressionSyntaxError,
    UnknownSymbolError,
    ChartError,
    DegreeError,
)


# ---------------------------------------------------------------------------
# Small formatting helpers for the human-readable side.


def _fmt_decomposition(dec) -> str:
    if dec is None:
        return "(outside the span)"
    parts = []
    for name, coeff in zip(dec.basis_names, dec.coefficients):
        if coeff.is_zero_expr():
            continue
        text = syntax.format_expression(coeff)
        parts.append(name if text == "1" else "(%s)*%s" % (text, name))
    return " + ".join(parts) if parts else "0"


def _fmt_field(V) -> str:
    parts = []
    for comp, coord in zip(V.components, V.chart.coords):
        if comp.is_zero_expr():
            continue
        text = syntax.format_expression(comp)
        basis = "d/d%s" % coord
        parts.append(basis if text == "1" else "(%s)*%s" % (text, basis))
    return " + ".join(parts) if parts else "0"


def _fmt_witness(witness) -> str:
    if witness is None:
        return ""
    data = witness.as_json()
    return ", ".join("%s = %s" % (k, data[k]) for k in sorted(data))


def _cert_lines(cert) -> list[str]:
    if cert.ok:
        return ["certified (%d checks)" % len(cert.items)]
    lines = ["FAILED"]
    for item in cert.failing():
        lines.append("  failing: %s" % item.label)
        w = item.result.witness
        if w is not None:
            lines.append("    witness: %s" % _fmt_witness(w))
        if item.result.witness_value is not None:
            lines.append("    value there: %s" % item.result.witness_value)
    return lines


def _write_report(path: Optional[str], doc: dict) -> None:
    if not path:
        return
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (exit_code, human_lines, json_doc).


def _cmd_check(scn: Scenario, what: str, policy) -> tuple[int, list[str], dict]:
    lines: list[str] = []
    doc: dict = {"command": "check", "what": what}
    if what == "involutive":
        cert, records = check_involutive(scn.distribution, policy)
        for rec in records:
            lines.append(
                "[%s, %s] = %s" % (rec.left, rec.right, _fmt_decomposition(rec.decomposition))
            )
    elif what == "independence":
        frame = list(scn.generators) + list(scn.structure_fields)
        cert = check_independent(scn.chart, frame, policy)
        lines.append(
            "frame of %d fields on a %d-dimensional chart" % (len(frame), scn.chart.dim)
        )
    else:  # cinf-structure
        structure = check_cinf_structure(scn.distribution, scn.structure_fields, policy)
        for level, sym in enumerate(structure.levels, start=1):
            lam_texts = [syntax.format_expression(l) for l in sym.lambdas]
            lines.append(
                "level %d (%s): lambda = [%s]%s"
                % (
                    level,
                    sym.field.name or "X%d" % level,
                    ", ".join(lam_texts),
                    "" if sym.ok else "  <- not a symmetry",
                )
            )
        cert = structure.certificate()
    lines.extend(_cert_lines(cert))
    doc["ok"] = cert.ok
    doc["certificate"] = cert.as_json()
    return (0 if cert.ok else 1), lines, doc


def _start_pipeline(scn: Scenario, policy):
    """The scenario's step specs and a reduction state opened with `policy`."""
    specs = scn.steps
    if not specs:
        raise ScenarioError("the scenario has no reduction script")
    return init_reduction(scn.distribution, scn.structure_fields, policy), specs


def _cmd_reduce(scn: Scenario, policy) -> tuple[int, list[str], dict]:
    lines: list[str] = []
    doc: dict = {"command": "reduce"}
    state, specs = _start_pipeline(scn, policy)
    failure = None
    try:
        run_reduction(state, specs)
    except CertificationError as exc:
        failure = exc
    # descend records a step only when it succeeds.
    for step, spec in zip(state.steps, specs):
        lines.append(
            "level %d: I = %s, constant %s, solved %s  ->  ok"
            % (step.level, spec.integral, spec.constant, spec.solve_for)
        )
    doc["steps"] = [s.as_json() for s in state.steps]
    if failure is not None:
        lines.append("step failed: %s" % failure)
        if failure.certificate is not None:
            lines.extend(_cert_lines(failure.certificate))
            doc["failure"] = failure.certificate.as_json()
        doc["ok"] = False
        doc["complete"] = False
        return 1, lines, doc
    if not state.complete:
        lines.append(
            "reduction script is incomplete: %d level(s) remain" % state.current.depth
        )
        doc["ok"] = False
        doc["complete"] = False
        return 1, lines, doc
    report = final_report(state)
    lines.append("")
    lines.append("integral manifolds (parameters: %s):" % ", ".join(report.solution_map.source.coords))
    for eq in report.equations:
        lines.append("  %s" % eq)
    lines.extend(_cert_lines(report.certificate))
    doc["ok"] = bool(state.ok and report.ok)
    doc["complete"] = True
    doc["report"] = report.as_json()
    return (0 if doc["ok"] else 1), lines, doc


def _cmd_factors(scn: Scenario, policy, emit_solvable: bool) -> tuple[int, list[str], dict]:
    lines: list[str] = []
    doc: dict = {"command": "factors"}
    state, specs = _start_pipeline(scn, policy)
    run_reduction(state, specs)
    if not state.complete:
        raise ScenarioError("the reduction script does not reach level 1")
    entries = derive_factors(state)
    ok = all(e.ok for e in entries)
    for e in sorted(entries, key=lambda e: -e.level):
        lines.append("level %d:" % e.level)
        lines.append("  mu = %s" % syntax.format_expression(e.mu))
        lines.append("  f  = %s" % syntax.format_expression(e.f))
        lines.append("  %s" % (" / ".join(_cert_lines(e.certificate))))
    doc["factors"] = [e.as_json() for e in sorted(entries, key=lambda e: -e.level)]
    if emit_solvable:
        fs = {e.level: e.f for e in entries}
        rescaled, cert = build_solvable_structure(state.structure, fs, policy)
        lines.append("")
        lines.append("solvable structure:")
        for Y in rescaled.fields:
            lines.append("  %s = %s" % (Y.name, _fmt_field(Y)))
        lines.extend(_cert_lines(cert))
        doc["solvable"] = cert.as_json()
        ok = ok and cert.ok
    doc["ok"] = ok
    return (0 if ok else 1), lines, doc


def _structure_and_dual(scn: Scenario, policy, level: int):
    # A bad level is an input error even where the structure fails.
    _check_level(len(scn.structure_fields), level)
    structure = check_cinf_structure(scn.distribution, scn.structure_fields, policy)
    if not structure.ok:
        raise CertificationError(
            "the scenario's ordered fields are not a certified structure",
            certificate=structure.certificate(),
        )
    return structure, dual_one_forms(structure, policy)


def _cmd_verify_factor(
    scn: Scenario, policy, level: int, kind: str, expr: str
) -> tuple[int, list[str], dict]:
    structure, dual = _structure_and_dual(scn, policy, level)
    candidate = scn.chart.parse(expr)
    if kind == "symmetrizing":
        cert = check_symmetrizing_factor(structure, level, candidate, policy)
    else:
        cert = check_relative_integrating_factor(dual, level, candidate, policy)
    lines = ["%s factor at level %d: %s" % (kind, level, expr)]
    lines.extend(_cert_lines(cert))
    doc = {
        "command": "verify-factor",
        "kind": kind,
        "level": level,
        "expr": syntax.format_expression(candidate),
        "ok": cert.ok,
        "certificate": cert.as_json(),
    }
    return (0 if cert.ok else 1), lines, doc


def _cmd_convert_factor(
    scn: Scenario, policy, level: int, direction: str, expr: str
) -> tuple[int, list[str], dict]:
    _structure, dual = _structure_and_dual(scn, policy, level)
    candidate = scn.chart.parse(expr)
    if direction == "f2mu":
        res = factor_to_integrating(dual, level, candidate, policy)
        back = integrating_to_factor(dual, level, res.value, policy, verify=False)
        out_name = "mu"
    else:
        res = integrating_to_factor(dual, level, candidate, policy)
        back = factor_to_integrating(dual, level, res.value, policy, verify=False)
        out_name = "f"
    round_trip = back.value == candidate
    lines = [
        "%s = %s" % (out_name, syntax.format_expression(res.value)),
        "round trip returns the input: %s" % ("yes" if round_trip else "NO"),
    ]
    lines.extend(_cert_lines(res.certificate))
    ok = res.certificate.ok and round_trip
    doc = {
        "command": "convert-factor",
        "direction": direction,
        "level": level,
        "input": syntax.format_expression(candidate),
        "value": syntax.format_expression(res.value),
        "round_trip_ok": round_trip,
        "ok": ok,
        "certificate": res.certificate.as_json(),
    }
    return (0 if ok else 1), lines, doc


# ---------------------------------------------------------------------------
# Argument surface.


def _build_parser() -> argparse.ArgumentParser:
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--seed", type=int, default=None, help="zero-test sampling seed (default 0)")
    flags.add_argument("--samples", type=int, default=None, help="sample count per zero test (default 20)")
    flags.add_argument("--tol", type=float, default=None, help="numeric zero tolerance (default 1e-9)")
    flags.add_argument("--report", default=None, help="write the JSON report to this path")

    parser = argparse.ArgumentParser(
        prog="cinfstruct",
        description="certified calculus for ordered symmetry structures of involutive distributions",
    )
    parser.add_argument("--version", action="version", version="cinfstruct %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[flags], help="certify a property of the scenario")
    p_check.add_argument("scenario", help="path to a scenario JSON file")
    p_check.add_argument(
        "what",
        choices=["involutive", "cinf-structure", "independence"],
        help="which property to certify",
    )

    p_reduce = sub.add_parser("reduce", parents=[flags], help="run the scenario's reduction script")
    p_reduce.add_argument("scenario", help="path to a scenario JSON file")

    p_factors = sub.add_parser("factors", parents=[flags], help="derive per-level factors from the reduction")
    p_factors.add_argument("scenario", help="path to a scenario JSON file")
    p_factors.add_argument(
        "--emit-solvable",
        action="store_true",
        help="also certify the rescaled fields as a solvable structure",
    )

    p_verify = sub.add_parser("verify", parents=[flags], help="certify a candidate factor")
    p_verify.add_argument("target", choices=["factor"])
    p_verify.add_argument("scenario", help="path to a scenario JSON file")
    p_verify.add_argument("--level", type=int, required=True)
    p_verify.add_argument("--kind", choices=["symmetrizing", "relative-integrating"], required=True)
    p_verify.add_argument("--expr", required=True, help="candidate expression")

    p_convert = sub.add_parser("convert", parents=[flags], help="convert between factor kinds")
    p_convert.add_argument("target", choices=["factor"])
    p_convert.add_argument("scenario", help="path to a scenario JSON file")
    p_convert.add_argument("--direction", choices=["f2mu", "mu2f"], required=True)
    p_convert.add_argument("--level", type=int, required=True)
    p_convert.add_argument("--expr", required=True, help="input factor expression")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scn = load_scenario(args.scenario)
        policy = scn.merged_policy(args.seed, args.samples, args.tol)
        if args.command == "check":
            code, lines, doc = _cmd_check(scn, args.what, policy)
        elif args.command == "reduce":
            code, lines, doc = _cmd_reduce(scn, policy)
        elif args.command == "factors":
            code, lines, doc = _cmd_factors(scn, policy, args.emit_solvable)
        elif args.command == "verify":
            code, lines, doc = _cmd_verify_factor(scn, policy, args.level, args.kind, args.expr)
        else:
            code, lines, doc = _cmd_convert_factor(scn, policy, args.level, args.direction, args.expr)
    except _INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CertificationError as exc:
        print("refuted: %s" % exc, file=sys.stderr)
        if exc.certificate is not None:
            for line in _cert_lines(exc.certificate):
                print(line, file=sys.stderr)
            _write_report(
                args.report,
                {"command": args.command, "ok": False, "certificate": exc.certificate.as_json()},
            )
        return 1
    except CinfstructError as exc:
        print("failed: %s" % exc, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    _write_report(args.report, doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
