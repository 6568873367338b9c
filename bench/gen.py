"""Seeded inputs for the benchmark workloads (standard library only).

Every generator takes a ``random.Random`` and returns plain data: scenario
documents and expression texts in the package's input syntax.  The same
(workload, seed, round) always gives the same inputs, because each round's
generator is seeded from the string ``"<workload>:<seed>:<round>"``.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random("%s:%d:%d" % (workload, seed, rnd))


def load_base(name: str) -> dict:
    return json.loads((SCENARIOS / ("%s.json" % name)).read_text())


# ---------------------------------------------------------------------------
# Closed forms of the two shipped scenarios.  Each symmetrizing factor is
# f_k = 1 / X_k(I_k), with I_k the level-k integral of the reduction script
# lifted to the original chart; the self-test re-derives them with sympy.

BASE_FACTORS = {
    "example31": {
        2: "(x2 - x3*x4)^2/x2",
        1: "x3^3*x4 - x2*x3^2",
    },
    "airy": {
        3: "(2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))^2"
        "/(4*u1*(D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x)))",
        2: "2*u1*(phi1(x)*D(phi2, x) - D(phi1, x)*phi2(x))"
        "/(exp_half(x)*((2*u2 + u1 + 2*x)*phi1(x) - 2*u1*D(phi1, x)))",
        1: "1",
    },
}

# The top-level integral, a first integral of every member below the top
# field, hence a joint first integral at every level.
TOP_INTEGRAL = {
    "example31": "x1 + x4/(x2 - x3*x4)",
    "airy": "-(2*u1*D(phi2, x) - (2*u2 + u1 + 2*x)*phi2(x))"
    "/(2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))",
}


# ---------------------------------------------------------------------------
# Triangular shears x_k -> x_k + p(x_<k) of one coordinate.
#
# Only one coordinate moves per change: shearing all three upper coordinates
# of example31 at once makes `reduce` run for 4-47 s, which no time-boxed
# round can hold.  The first coordinate never moves, so rewrite rules in x
# (the Airy functions) stay valid.  Each template names the scenario, the
# sheared coordinate and the monomials p is drawn from (exponent maps over
# lower coordinates); the coefficients come from the seed.

SHEARS = {
    "example31": [
        ("x2", [{"x1": 2}]),
        ("x3", [{"x1": 1}, {"x2": 1}]),
        ("x4", [{"x1": 1}, {"x3": 1}]),
    ],
    "airy": [
        ("u", [{"x": 2}]),
        ("u2", [{"u": 1}, {"u1": 1}]),
    ],
}


def _coef(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-2, -1, 1, 2]))


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def _mono_text(mono: dict) -> str:
    parts = []
    for v in sorted(mono):
        e = mono[v]
        parts.append(v if e == 1 else "%s^%d" % (v, e))
    return "*".join(parts) if parts else "1"


def poly_text(poly) -> str:
    """poly: list of (Fraction, {var: exp}) terms."""
    if not poly:
        return "0"
    return " + ".join("(%s)*%s" % (_frac_text(c), _mono_text(m)) for c, m in poly)


def poly_diff(poly, var: str):
    out = []
    for c, m in poly:
        e = m.get(var, 0)
        if e:
            m2 = dict(m)
            if e == 1:
                del m2[var]
            else:
                m2[var] = e - 1
            out.append((c * e, m2))
    return out


def draw_shear(rng: random.Random, base: str, template: int):
    coord, monos = SHEARS[base][template]
    poly = [(_coef(rng), dict(m)) for m in monos]
    return {"base": base, "coord": coord, "poly": poly}


def _token_re(name: str):
    return re.compile(r"(?<![A-Za-z0-9_])%s(?![A-Za-z0-9_])" % re.escape(name))


def pull_text(text: str, shear) -> str:
    """Express a function of the old coordinates in the new ones."""
    inverse = "(%s - (%s))" % (shear["coord"], poly_text(shear["poly"]))
    return _token_re(shear["coord"]).sub(lambda _m: inverse, text)


def push_scenario(doc: dict, shear) -> dict:
    """The scenario in the coordinates y_k = x_k + p(x_<k), script included."""
    coords = doc["chart"]["coords"]
    k = coords.index(shear["coord"])
    poly = shear["poly"]
    fields = {}
    for name, comps in doc["fields"].items():
        new = [pull_text(c, shear) for c in comps]
        extra = []
        for j in range(k):
            dp = poly_diff(poly, coords[j])
            if dp and comps[j].strip() != "0":
                extra.append("(%s)*(%s)" % (poly_text(dp), new[j]))
        if extra:
            new[k] = " + ".join(["(%s)" % new[k]] + extra)
        fields[name] = new
    out = dict(doc)
    out["fields"] = fields
    steps = []
    live = list(coords)
    for entry in doc.get("reduction", []):
        e = dict(entry)
        e["integral"] = pull_text(entry["integral"], shear)
        par = list(entry["parametrization"])
        moved = [i for i, (c, comp) in enumerate(zip(live, par)) if comp.strip() != c]
        (i,) = moved
        if live[i] == shear["coord"]:
            par[i] = "(%s) + (%s)" % (par[i], poly_text(poly))
        else:
            par[i] = pull_text(par[i], shear)
        e["parametrization"] = par
        steps.append(e)
        live.pop(i)
    out["reduction"] = steps
    return out


def shear_json(shear) -> dict:
    return {
        "base": shear["base"],
        "coord": shear["coord"],
        "poly": poly_text(shear["poly"]),
    }


# ---------------------------------------------------------------------------
# pushed-pipeline: every template of both scenarios once per round, each run
# through check, reduce and factors.

PIPELINE_COMMANDS = ("check", "reduce", "factors")


def pipeline_round(rng: random.Random):
    cases = []
    for base in ("example31", "airy"):
        for t in range(len(SHEARS[base])):
            shear = draw_shear(rng, base, t)
            for cmd in PIPELINE_COMMANDS:
                cases.append({"kind": "cli", "command": cmd, "shear": shear})
    return cases


# ---------------------------------------------------------------------------
# factor-queries: pushed copies of both scenarios, then an interleaved stream
# of verify/convert commands, half of them true claims.

# Templates (indices into SHEARS) the queries run on.
QUERY_SHEARS = {"example31": (0, 2), "airy": (0, 1)}


def _query(rng: random.Random, base, shear, doc: dict, command: str, truth: bool,
           level: int, joint: bool):
    f = pull_text("(%s)" % BASE_FACTORS[base][level], shear)
    if joint:
        # A joint first integral: the top integral plus a constant on
        # example31, a constant on Airy (f*J with J the Airy top integral
        # spends seconds in poly_gcd).
        c = rng.choice([-2, -1, 2, 3])
        if base == "example31":
            f = "%s*(%s + %d)" % (f, pull_text("(%s)" % TOP_INTEGRAL[base], shear), c)
        else:
            f = "%s*(%d)" % (f, c)
    spoiler = None
    if not truth:
        # A coordinate that some member below the level moves: not an integral.
        coords = doc["chart"]["coords"]
        members = _members(doc, level)
        moving = [
            c
            for j, c in enumerate(coords)
            if c != shear["coord"] and any(doc["fields"][m][j].strip() != "0" for m in members)
        ]
        spoiler = rng.choice(moving)
        f = "%s*%s" % (f, spoiler)
    return {
        "kind": "cli",
        "command": command,
        "shear": shear,
        "level": level,
        "expr": f,
        "truth": truth,
        "spoiler": spoiler,
    }


def _members(doc: dict, level: int):
    """Names of the generators and structure fields below a level."""
    st = doc["structure"]
    return list(st["generators"]) + list(st["fields"][: level - 1])


def queries_round(rng: random.Random):
    """Four sheared scenarios; at every level each gets four verify claims
    (true and false, each plain and times a joint integral) and two convert
    claims (true and false, plain: converting f*J at level 1 spends tens of
    seconds in poly_gcd).  Two thirds of the cases are verifies, so the
    median case time falls inside their cluster rather than on the edge
    between verify and convert times.  The four streams interleave
    round-robin in a fixed order: the first query of a scenario pays for its
    cold certification, and a shuffled order would move that cost from kind
    to kind with the seed."""
    streams = []
    for base, templates in QUERY_SHEARS.items():
        for t in templates:
            shear = draw_shear(rng, base, t)
            doc = push_scenario(load_base(base), shear)
            stream = []
            for level in sorted(BASE_FACTORS[base]):
                for truth in (True, False):
                    for joint in (False, True):
                        stream.append(_query(rng, base, shear, doc, "verify", truth, level, joint))
                    stream.append(_query(rng, base, shear, doc, "convert", truth, level, False))
            streams.append(stream)
    cases = []
    for i in range(max(len(s) for s in streams)):
        cases.extend(s[i] for s in streams if i < len(s))
    return cases


# ---------------------------------------------------------------------------
# elementary-numeric: primitives of exact forms dF by quadrature, and zero
# tests of elementary identities that the canonical form cannot cancel.

PRIMITIVES_PER_ROUND = 6
IDENTITIES_PER_ROUND = 24
GRID = (-0.4, 0.0, 0.4)


def _small_poly(rng: random.Random, vars_, degree: int, terms: int):
    monos = []
    for _ in range(terms):
        m = {}
        for _k in range(rng.randint(1, degree)):
            v = rng.choice(vars_)
            m[v] = m.get(v, 0) + 1
        monos.append(m)
    return [(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([2, 3, 4])), m) for m in monos]


def primitive_case(rng: random.Random):
    pieces = []
    for func in rng.sample(["exp", "sin", "cos", "poly"], 3):
        arg = poly_text(_small_poly(rng, ["x", "u"], 2, rng.randint(1, 2)))
        c = _frac_text(Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])))
        if func == "poly":
            pieces.append("(%s)*(%s)" % (c, arg))
        else:
            pieces.append("(%s)*%s(%s)" % (c, func, arg))
    base = (rng.choice([-0.25, 0.0, 0.25]), rng.choice([-0.25, 0.0, 0.25]))
    return {"kind": "primitive", "F": " + ".join(pieces), "base": list(base)}


_IDENTITIES = (
    ("exp(%(a)s)*exp(-(%(a)s))", "1", "exp(%(a)s)*exp(-(%(a)s) + %(d)s)"),
    ("sin(%(a)s)^2 + cos(%(a)s)^2", "1", "sin(%(a)s)^2 + cos(%(a)s + %(d)s)^2"),
    ("sin(2*(%(a)s))", "2*sin(%(a)s)*cos(%(a)s)", "sin(2*(%(a)s) + %(d)s)"),
)


def identity_case(rng: random.Random, truth: bool, form: int):
    lhs, rhs, spoiled = _IDENTITIES[form]
    while True:
        a_poly = _small_poly(rng, ["x", "u", "v"], 2, rng.randint(2, 3))
        d_poly = [(Fraction(rng.choice([-1, 1]), rng.choice([3, 5, 7])),
                   rng.choice([{"x": 1}, {"u": 1}, {"v": 1}, {}]))]
        # cos(a + d)^2 = cos(a)^2 when d = -2a: that shift spoils nothing.
        if _collect(d_poly) != _collect([(-2 * c, m) for c, m in a_poly]):
            break
    a, d = poly_text(a_poly), poly_text(d_poly)
    left = (lhs if truth else spoiled) % {"a": a, "d": d}
    return {"kind": "identity", "expr": "%s - (%s)" % (left, rhs % {"a": a}), "truth": truth}


def _collect(poly) -> dict:
    out = {}
    for c, m in poly:
        key = tuple(sorted(m.items()))
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def numeric_round(rng: random.Random):
    prims = [primitive_case(rng) for _ in range(PRIMITIVES_PER_ROUND)]
    # Every form, true and false, equally often: true identities draw all
    # their samples and false ones stop at the first, so the mix sets the
    # median case time.
    ids = [
        identity_case(rng, truth, form)
        for _ in range(IDENTITIES_PER_ROUND // (2 * len(_IDENTITIES)))
        for form in range(len(_IDENTITIES))
        for truth in (True, False)
    ]
    # Interleave: one primitive, then its share of identities.
    per = IDENTITIES_PER_ROUND // PRIMITIVES_PER_ROUND
    cases = []
    for i, p in enumerate(prims):
        cases.append(p)
        cases.extend(ids[i * per : (i + 1) * per])
    return cases


# ---------------------------------------------------------------------------
# dense-linear: random 2x2 systems over Q(x1..x4), plus a fixed 4x4
# frontier system that the kernel cannot finish today.

LINEAR_VARS = ("x1", "x2", "x3", "x4")
# 2x2 systems, entries of at most two terms of degree <= 1: 76 305 generated
# systems all finished within 0.12 s.  Denser or larger families do not
# finish on some seeds (a 3x3 with single-monomial linear entries ran 49 s,
# a 2x2 with quadratic entries and a 3x3 with two-term entries passed 3 s),
# which no seeded workload can keep.
LINEAR_PER_ROUND = 600
FRONTIER_CAP_S = 0.5


def _entry(rng: random.Random, degree: int, terms: int, nonzero: bool) -> str:
    if not nonzero and rng.random() < 0.4:
        return "0"
    out = []
    for _ in range(rng.randint(1, terms)):
        m = {}
        for _k in range(rng.randint(0, degree)):
            v = rng.choice(LINEAR_VARS)
            m[v] = m.get(v, 0) + 1
        out.append((_unit(rng), m))
    return poly_text(out)


def det_at_point(matrix, point) -> Fraction:
    """Determinant of the matrix evaluated at a rational point (Gauss)."""
    rows = [[_eval_poly_text(e, point) for e in row] for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


_TERM_RE = re.compile(r"\((-?\d+(?:/\d+)?)\)\*([A-Za-z0-9_^*]+)")


def _eval_poly_text(text: str, point) -> Fraction:
    if text == "0":
        return Fraction(0)
    total = Fraction(0)
    for coef, mono in _TERM_RE.findall(text):
        val = Fraction(coef)
        if mono != "1":
            for factor in mono.split("*"):
                name, _, exp = factor.partition("^")
                val *= point[name] ** int(exp or 1)
        total += val
    return total


def linear_system(rng: random.Random, n: int, degree: int, terms: int):
    """A nonsingular n x n system: det is nonzero at a random rational point."""
    while True:
        matrix = [[_entry(rng, degree, terms, i == j) for j in range(n)] for i in range(n)]
        rhs = [_entry(rng, degree, terms, True) for _ in range(n)]
        point = {v: Fraction(rng.randint(-50, 50), rng.randint(1, 13)) for v in LINEAR_VARS}
        if det_at_point(matrix, point) != 0:
            return {"kind": "linear", "n": n, "matrix": matrix, "rhs": rhs}


def frontier_system():
    """A fixed 4x4 system, entries c*x_i + c0, that the kernel cannot finish
    today.  It does not depend on the seed, so it fails in every run."""
    rng = random.Random("dense-linear:frontier")
    while True:
        matrix = [
            [
                poly_text([(_unit(rng), {rng.choice(LINEAR_VARS): 1}), (_unit(rng), {})])
                for _j in range(4)
            ]
            for _i in range(4)
        ]
        point = {v: Fraction(rng.randint(-50, 50), rng.randint(1, 13)) for v in LINEAR_VARS}
        if det_at_point(matrix, point) != 0:
            break
    rhs = [poly_text([(Fraction(1 + i), {})]) for i in range(4)]
    return {"kind": "linear", "n": 4, "matrix": matrix, "rhs": rhs, "cap_s": FRONTIER_CAP_S}


def _unit(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))


def linear_round(rng: random.Random):
    cases = [linear_system(rng, 2, 1, 2) for _ in range(LINEAR_PER_ROUND)]
    return cases + [frontier_system()]


ROUNDS = {
    "pushed-pipeline": pipeline_round,
    "factor-queries": queries_round,
    "elementary-numeric": numeric_round,
    "dense-linear": linear_round,
}

WORKLOADS = tuple(ROUNDS)

# The module each workload enters the package through; set-up time is the
# time to import it in a fresh interpreter.
ENTRY = {
    "pushed-pipeline": "cinfstruct.cli",
    "factor-queries": "cinfstruct.cli",
    "elementary-numeric": "cinfstruct.factors",
    "dense-linear": "cinfstruct.linalg",
}


def make_round(workload: str, seed: int, rnd: int):
    return ROUNDS[workload](round_rng(workload, seed, rnd))
