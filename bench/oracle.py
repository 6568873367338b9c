"""Correctness checks computed outside cinfstruct: sympy, math and mpmath.

Each ``check_<kind>`` takes a generated case and the worker's record for it
and returns None when the output is right, or a one-line reason.  No check
trusts the package's certainty labels: verdicts are compared with the truth
the generator built in, graphs are substituted into the unpushed integrals,
witnesses are re-evaluated, and linear-algebra answers are recomputed.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

import mpmath
import sympy
from sympy.polys.domains import QQ
from sympy.polys.fields import field
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

import gen

# -- the package's expression syntax as sympy -------------------------------

_JET = re.compile(r"D\(\s*(\w+)\s*,\s*x\s*(?:,\s*(\d+)\s*)?\)")
_APPLIED = re.compile(r"(?<![A-Za-z0-9_])(phi1|phi2|exp_half|G|H)\(x\)")


def _opaque(text: str) -> str:
    """Jet slots and applied abstract functions become plain symbol names."""
    text = _JET.sub(lambda m: "D_%s_%s" % (m.group(1), m.group(2) or "1"), text)
    return _APPLIED.sub(lambda m: "%s_of_x" % m.group(1), text)


def to_sympy(text: str):
    return sympy.sympify(_opaque(text).replace("^", "**"))


def _point(witness: dict) -> dict:
    return {sympy.Symbol(_opaque(k)): sympy.Rational(v) for k, v in witness.items()}


# -- pushed-pipeline ----------------------------------------------------------


def _old_coords(shear):
    """Old coordinates in terms of the new: x_k = y_k - p(y_<k)."""
    y = sympy.Symbol(shear["coord"])
    return {y: y - to_sympy(gen.poly_text(shear["poly"]))}


def check_reduce_report(shear, report) -> str | None:
    """The reported graph, carried back through the shear, satisfies every
    unpushed integral of the reduction script (I_k = C_k)."""
    base = gen.load_base(shear["base"])
    graph = {}
    for eq in report["report"]["equations"]:
        lhs, rhs = eq.split("=", 1)
        graph[sympy.Symbol(lhs.strip())] = to_sympy(rhs)
    back = _old_coords(shear)
    # Old coordinates as functions of the parameters: shear back, then graph.
    old = {}
    for coord in base["chart"]["coords"]:
        y = sympy.Symbol(coord)
        old[y] = back.get(y, y).xreplace(graph)
    for entry in base["reduction"]:
        lhs = to_sympy(entry["integral"]).xreplace(old)
        if sympy.cancel(sympy.together(lhs - sympy.Symbol(entry["constant"]))) != 0:
            return "level-%d integral is not constant on the reported graph" % entry["level"]
    return None


def check_pipeline(case, rec) -> str | None:
    out = rec["output"]
    if out["exit"] != 0:
        return "%s exited %d on a certified structure" % (case["command"], out["exit"])
    if case["command"] == "reduce":
        return check_reduce_report(case["shear"], rec["report"])
    return None


# -- factor-queries -------------------------------------------------------------

_MEMBER_ITEM = re.compile(r"^(\w+)\(f\) = lambda\*f$")


def check_query(case, rec) -> str | None:
    """A true claim is certified; a false one f*y is refuted, and at each
    witness of a failing V(f) = lambda*f item the defining residual, which
    for f*y with f a true factor is f*V(y), is nonzero."""
    out = rec["output"]
    if case["truth"]:
        return None if out["exit"] == 0 else "true claim refuted (exit %d)" % out["exit"]
    if out["exit"] != 1:
        return "false claim not refuted (exit %d)" % out["exit"]
    doc = gen.push_scenario(gen.load_base(case["shear"]["base"]), case["shear"])
    j = doc["chart"]["coords"].index(case["spoiler"])
    true_part = to_sympy(case["expr"]) / sympy.Symbol(case["spoiler"])
    seen = 0
    for item in rec["report"]["certificate"]["checks"]:
        m = _MEMBER_ITEM.match(item["check"])
        if item["ok"] or m is None or "witness" not in item:
            continue
        comp = to_sympy(doc["fields"][m.group(1)][j])
        value = (true_part * comp).xreplace(_point(item["witness"]))
        if sympy.nsimplify(value) == 0:
            return "witness %s does not refute %s" % (item["witness"], item["check"])
        seen += 1
    return None if seen else "refutation names no failing V(f) = lambda*f check"


# -- elementary-numeric -----------------------------------------------------------

_MATH = {"exp": math.exp, "sin": math.sin, "cos": math.cos}


def _float_fn(text: str):
    code = compile(text.replace("^", "**"), "<F>", "eval")
    return lambda x, u: eval(code, {"__builtins__": {}}, dict(_MATH, x=x, u=u))


def check_primitive(case, rec) -> str | None:
    out = rec["output"]
    if not out["ok"]:
        return "primitive of an exact form not certified"
    F = _float_fn(case["F"])
    bx, bu = case["base"]
    f0 = F(bx, bu)
    for row, dx in zip(out["table"], gen.GRID):
        for got, du in zip(row, gen.GRID):
            want = F(bx + dx, bu + du) - f0
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                return "primitive off by %.3g at (%g, %g)" % (got - want, bx + dx, bu + du)
    return None


_MP = {"exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos}


def check_identity(case, rec) -> str | None:
    out = rec["output"]
    said_zero = out["certainty"] in ("proved-zero", "probably-zero")
    if case["truth"]:
        return None if said_zero else "true identity reported %s" % out["certainty"]
    if said_zero:
        return "false identity reported %s" % out["certainty"]
    if out["witness"] is None:
        return "false identity reported without a witness"
    code = compile(case["expr"].replace("^", "**"), "<id>", "eval")
    with mpmath.workdps(50):
        env = {v: mpmath.mpf(0) for v in ("x", "u", "v")}
        for k, val in out["witness"].items():
            fr = Fraction(val)
            env[k] = mpmath.mpf(fr.numerator) / fr.denominator
        value = eval(code, {"__builtins__": {}}, dict(_MP, **env))
        if abs(value) < mpmath.mpf(10) ** -30:
            return "witness %s does not refute the identity" % out["witness"]
    return None


# -- dense-linear -----------------------------------------------------------------

_RING, *_GENS = ring(",".join(gen.LINEAR_VARS), QQ)
_FIELD, *_FGENS = field(",".join(gen.LINEAR_VARS), QQ)
_INT = re.compile(r"(?<![A-Za-z0-9_])(?<!\*\*)(\d+)")
EXACT_LINEAR_CASES = 60


def _in(text: str, gens, domain):
    code = _INT.sub(r"QQ(\1)", text.replace("^", "**"))
    env = dict(zip(gen.LINEAR_VARS, gens), QQ=QQ)
    return domain(eval(code, {"__builtins__": {}}, env))


def _at(text: str, point: dict) -> Fraction:
    code = _INT.sub(r"F(\1)", text.replace("^", "**"))
    return eval(code, {"__builtins__": {}}, dict(point, F=Fraction))


def check_linear(case, rec) -> str | None:
    """At a random integer point, A x - b vanishes, det matches elimination,
    and the rank is full (the generator made det nonzero).  The first cases
    of a run are also checked exactly: A x - b cancels in sympy's Q(x1..x4),
    and det and rank equal DomainMatrix's (exact checks of every case would
    take longer than the timed phase)."""
    out = rec["output"]
    n = case["n"]
    if out["rank"] != n:
        return "rank %d of a nonsingular %dx%d matrix" % (out["rank"], n, n)
    rng = random.Random(json.dumps(case["matrix"]))
    while True:
        point = {v: Fraction(rng.randint(-10**9, 10**9)) for v in gen.LINEAR_VARS}
        try:
            x = [_at(t, point) for t in out["x"]]
        except ZeroDivisionError:
            continue
        break
    A = [[_at(t, point) for t in row] for row in case["matrix"]]
    for i in range(n):
        if sum(A[i][j] * x[j] for j in range(n)) != _at(case["rhs"][i], point):
            return "row %d of A x - b is nonzero at %s" % (i, point)
    if _at(out["det"], point) != gen.det_at_point(case["matrix"], point):
        return "determinant differs from elimination at %s" % point
    if rec.get("round", 0) != 0 or rec.get("index", 0) >= EXACT_LINEAR_CASES:
        return None
    A = [[_in(t, _FGENS, _FIELD) for t in row] for row in case["matrix"]]
    b = [_in(t, _FGENS, _FIELD) for t in case["rhs"]]
    x = [_in(t, _FGENS, _FIELD) for t in out["x"]]
    for i in range(n):
        if sum((A[i][j] * x[j] for j in range(n)), _FIELD.zero) - b[i] != 0:
            return "row %d of A x - b does not cancel" % i
    rows = [[_in(t, _GENS, _RING) for t in row] for row in case["matrix"]]
    Ar = DomainMatrix(rows, (n, n), _RING.to_domain())
    if Ar.det() != _in(out["det"], _GENS, _RING):
        return "determinant differs from sympy's"
    if Ar.convert_to(_FIELD.to_domain()).rank() != out["rank"]:
        return "rank differs from sympy's"
    return None


def check(case, rec) -> str | None:
    kind = case["kind"]
    if kind == "cli":
        return check_query(case, rec) if "truth" in case else check_pipeline(case, rec)
    return {"primitive": check_primitive, "identity": check_identity, "linear": check_linear}[kind](
        case, rec
    )
