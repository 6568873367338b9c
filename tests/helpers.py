"""Builders for the two worked examples plus small randomized generators.

Both examples appear in several test modules, so the charts, fields, and
reduction scripts live here.  The random generators intentionally produce
tiny polynomials: every law under test is checked by canonical equality,
and small inputs keep the exact arithmetic fast.
"""

from __future__ import annotations

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath

from cinfstruct import kernel, syntax
from cinfstruct import reduction as rd
from cinfstruct import structures as st
from cinfstruct.calculus import KForm, VectorField, interior_product, volume_form
from cinfstruct.charts import Chart, parse_rule
from cinfstruct.errors import (
    EvaluationError,
    ExpressionSyntaxError,
    RewriteError,
    SingularExpressionError,
    SingularPointError,
    UnknownSymbolError,
)


def field(chart, name, *comps):
    return VectorField(chart, tuple(chart.coerce(c) for c in comps), name=name)


# ---------------------------------------------------------------------------
# The 4-coordinate rank-2 example.

DIM4_INTEGRAL_2 = "x1 + x4/(x2 - x3*x4)"
DIM4_SOLUTION_2 = "x2*(C2 - x1)/(1 + x3*(C2 - x1))"
DIM4_INTEGRAL_1 = "(1 + x3*(C2 - x1))/(x2*x3)"
DIM4_SOLUTION_1 = "1/(x1 + C1*x2 - C2)"

DIM4_F2 = "(x2 - x3*x4)^2/x2"
DIM4_MU2 = "-1/(x2 - x3*x4)^2"
DIM4_F1 = "-x3^2*(x2 - x3*x4)"
DIM4_MU1 = "-1/(x2*x3^2*(x2 - x3*x4))"


def dim4_chart():
    return Chart("M", ("x1", "x2", "x3", "x4"))


def dim4_fields(ch):
    Z1 = field(ch, "Z1", 0, "x2 - x3*x4", "-x3", "x4")
    Z2 = field(ch, "Z2", 1, 0, "-x3^2", "2*x3*x4 - x2")
    X1 = field(ch, "X1", 0, "x4", 1, 0)
    X2 = field(ch, "X2", 0, 0, 0, 1)
    return Z1, Z2, X1, X2


def dim4_steps():
    return [
        rd.StepSpec(DIM4_INTEGRAL_2, "C2", "x4", DIM4_SOLUTION_2, ()),
        rd.StepSpec(DIM4_INTEGRAL_1, "C1", "x3", DIM4_SOLUTION_1, ()),
    ]


def dim4_reduced():
    ch = dim4_chart()
    Z1, Z2, X1, X2 = dim4_fields(ch)
    state = rd.init_reduction(st.Distribution(ch, (Z1, Z2)), [X1, X2])
    rd.run_reduction(state, dim4_steps())
    return state


# ---------------------------------------------------------------------------
# The third-order ODE example (coefficients built from Airy-type solutions
# phi1, phi2 of phi'' = (x + 1/4) phi, handled through rewrite rules).

AIRY_RULES = (
    "D(phi1, x, 2) = (x + 1/4)*phi1",
    "D(phi2, x, 2) = (x + 1/4)*phi2",
    "D(exp_half, x) = exp_half/2",
)

AIRY_RHS = "(u1*(x*u1 - x - 1) - u2*(u1 + x) - x^2)/u1"

AIRY_INTEGRAL_3 = (
    "-(2*u1*D(phi2, x) - (2*u2 + u1 + 2*x)*phi2(x))"
    "/(2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))"
)
AIRY_SOLUTION_3 = (
    "((C3*D(phi1, x) + D(phi2, x))/(C3*phi1(x) + phi2(x)))*u1 - u1/2 - x"
)
AIRY_INTEGRAL_2 = "G(x) + u1*exp_half(x)/(C3*phi1(x) + phi2(x))"
AIRY_SOLUTION_2 = "(C3*phi1(x) + phi2(x))*(C2 - G(x))/exp_half(x)"
AIRY_INTEGRAL_1 = "H(x) + u"
AIRY_SOLUTION_1 = "C1 - H(x)"

AIRY_RULE_G = "D(G, x) = x*exp_half(x)/(C3*phi1(x) + phi2(x))"
AIRY_RULE_H = "D(H, x) = -(C2 - G(x))*(C3*phi1(x) + phi2(x))/exp_half(x)"

AIRY_MU3 = (
    "4*u1*(D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x))"
    "/(2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))^2"
)
AIRY_F3 = (
    "(2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))^2"
    "/(4*u1*(D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x)))"
)
AIRY_MU2 = (
    "-(2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))*exp_half(x)"
    "/(2*u1*(D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x)))"
)
AIRY_F2 = (
    "2*u1*(D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x))"
    "/((2*u1*D(phi1, x) - (2*u2 + u1 + 2*x)*phi1(x))*exp_half(x))"
)


def airy_chart():
    base = Chart("J2", ("x", "u", "u1", "u2"))
    return base.with_rules([parse_rule(r, base) for r in AIRY_RULES])


def airy_fields(ch):
    A = field(ch, "A", 1, "u1", "u2", AIRY_RHS)
    X1 = field(ch, "X1", 0, 1, 0, 0)
    X2 = field(ch, "X2", 0, 0, 1, "(u2 + x)/u1")
    X3 = field(ch, "X3", 0, 0, 0, 1)
    return A, X1, X2, X3


def airy_steps():
    return [
        rd.StepSpec(AIRY_INTEGRAL_3, "C3", "u2", AIRY_SOLUTION_3, (AIRY_RULE_G,)),
        rd.StepSpec(AIRY_INTEGRAL_2, "C2", "u1", AIRY_SOLUTION_2, (AIRY_RULE_H,)),
        rd.StepSpec(AIRY_INTEGRAL_1, "C1", "u", AIRY_SOLUTION_1, ()),
    ]


def airy_reduced():
    ch = airy_chart()
    A, X1, X2, X3 = airy_fields(ch)
    state = rd.init_reduction(st.Distribution(ch, (A,)), [X1, X2, X3])
    rd.run_reduction(state, airy_steps())
    return state


# ---------------------------------------------------------------------------
# The jet family: u^(n) = 0 on the chart (x, u0, ..., u_(n-1)), sheared.

BENCH_GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


def jet_scenario(dim, degree=1, seed=0):
    """The scenario document of u^(n) = 0 on a chart of dimension dim = n + 1.

    The generator is A = d/dx + sum u_(j+1) d/du_j, the structure is
    X_k = d/du_(k-1) for k = 1..n, and the script runs from level n down to 1
    with the closed-form integrals u_(k-1) - sum C_(i+1) x^(i-k+1)/(i-k+1)!.
    Then, for j = 1..n-1 in order, bench/gen.py's push_scenario shears
    u_j += a*u_(j-1)^degree + b*x^degree, with a and b drawn from +-1, +-2 by
    random.Random(seed).
    """
    spec = importlib.util.spec_from_file_location("gen", BENCH_GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    n = dim - 1
    us = ["u%d" % i for i in range(n)]
    coords = ["x"] + us
    fields = {"A": ["1"] + us[1:] + ["0"]}
    for k in range(1, n + 1):
        fields["X%d" % k] = ["1" if c == us[k - 1] else "0" for c in coords]
    steps, live = [], list(coords)
    for k in range(n, 0, -1):
        tail = " + ".join(
            "C%d*x^%d/%d" % (i + 1, i - k + 1, math.factorial(i - k + 1)) for i in range(k, n)
        )
        solution = "C%d + %s" % (k, tail) if tail else "C%d" % k
        integral = "%s - (%s)" % (us[k - 1], tail) if tail else us[k - 1]
        steps.append({
            "level": k,
            "integral": integral,
            "constant": "C%d" % k,
            "parametrization": [solution if c == us[k - 1] else c for c in live],
        })
        live.remove(us[k - 1])
    doc = {
        "chart": {"name": "J", "coords": coords},
        "fields": fields,
        "structure": {"generators": ["A"], "fields": ["X%d" % k for k in range(1, n + 1)]},
        "reduction": steps,
    }
    rng = random.Random(seed)
    for j in range(1, n):
        a, b = (Fraction(rng.choice([-2, -1, 1, 2])) for _ in range(2))
        poly = [(a, {us[j - 1]: degree}), (b, {"x": degree})]
        doc = gen.push_scenario(doc, {"base": "jet", "coord": us[j], "poly": poly})
    return doc


def coframe_by_contraction(structure):
    """(Delta, omegas) of structures.dual_one_forms as it was built before it
    read them off the cofactors: Delta is the volume form contracted with the
    generators, then the structure fields; omega_i skips X_i in that chain."""
    vol = volume_form(structure.chart)
    frame = list(structure.distribution.generators) + list(structure.fields)
    r = structure.distribution.rank

    def contract(fields):
        w = vol
        for F in fields:
            w = interior_product(F, w)
        return w

    delta = contract(frame).coeff(())
    omegas = tuple(contract(frame[: r + i] + frame[r + i + 1 :]) for i in range(structure.corank))
    return delta, omegas


# ---------------------------------------------------------------------------
# Randomized instances.

_COEFFS = (-3, -2, -1, 1, 2, 3)


def random_poly(rng, chart, degree=2, terms=2):
    """A random polynomial expression on the chart, never identically zero."""
    while True:
        parts = []
        for _ in range(rng.randint(1, terms)):
            atoms = [str(rng.choice(_COEFFS))]
            for _ in range(rng.randint(0, degree)):
                atoms.append(rng.choice(chart.coords))
            parts.append("*".join(atoms))
        e = chart.parse(" + ".join(parts))
        if not e.is_zero_expr():
            return e


def random_field(rng, chart, degree=2, name=""):
    comps = tuple(random_poly(rng, chart, degree) for _ in chart.coords)
    return VectorField(chart, comps, name=name)


def random_one_form(rng, chart, degree=2):
    data = {(i,): random_poly(rng, chart, degree) for i in range(chart.dim)}
    return KForm.make(chart, 1, data)


# ---------------------------------------------------------------------------
# Reference evaluators: tree walkers in the order of operations that
# zerotest.compile_evaluator reproduces, kept here to test it against.

_MATH_ELEM = {
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
}


def _float_gen(g, env):
    if g.kind == kernel.SYM_KIND:
        try:
            return env[g.name]
        except KeyError:
            raise EvaluationError("no value for %s" % g.name) from None
    if g.kind == kernel.ELEM_KIND:
        arg = walk_float(g.args[0], env)
        try:
            return _MATH_ELEM[g.name](arg)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError("%s(%r): %s" % (g.name, arg, exc)) from None
    raise EvaluationError("quadrature needs numeric coefficients; %r is abstract" % g.name)


def _float_poly(p, env):
    total = 0.0
    for mono, coeff in p.rational_terms():
        try:
            val = float(coeff)
        except OverflowError:
            raise EvaluationError("coefficient %s overflows" % coeff) from None
        for g, e in mono:
            base = _float_gen(g, env)
            try:
                val *= base**e
            except OverflowError:
                raise EvaluationError("%r ** %d overflows" % (base, e)) from None
        total += val
    return total


def walk_float(e, env) -> float:
    """Plain-float value of e; env maps symbol names to floats."""
    num = _float_poly(e.num, env)
    den = _float_poly(e.den, env)
    if den == 0.0:
        raise EvaluationError("denominator vanished at %r" % (env,))
    return num / den


def walk_scaled(e, values, tofloat=None, eps=None):
    """(value, scale) of e as the zero test computes them: exact Fractions
    when tofloat is None, else numbers made by tofloat (mpmath.mpf)."""
    num, scale = _ev_poly(e.num, values, tofloat, eps)
    if e.den.is_one():
        return num, max(scale, 1)
    den, _ = _ev_poly(e.den, values, tofloat, eps)
    _guard_den(den, eps)
    return num / den, max(scale / abs(den), 1)


def _guard_den(den, eps):
    if den == 0:
        raise SingularPointError("denominator vanished at sample point")
    if eps is None:
        return
    bound = eps if isinstance(den, Fraction) else float(eps)
    if abs(den) < bound:
        raise SingularPointError("denominator within singularity guard at sample point")


def _ev_poly(p, values, tofloat, eps):
    total = Fraction(0) if tofloat is None else tofloat(0)
    biggest = 0
    for m, c in p.rational_terms():
        term = Fraction(c) if tofloat is None else tofloat(c.numerator) / c.denominator
        for g, k in m:
            gv = _ev_gen(g, values, tofloat, eps)
            term = term * gv**k
        total = total + term
        a = abs(term)
        if a > biggest:
            biggest = a
    return total, biggest


def _ev_gen(g, values, tofloat, eps):
    if g.kind == kernel.SYM_KIND:
        key = g.name
    elif g.kind == kernel.APP_KIND:
        key = syntax.format_gen(g)
    else:
        arg, _ = walk_scaled(g.args[0], values, tofloat, eps)
        if g.name == "ln" and arg <= 0:
            raise SingularPointError("ln of a nonpositive sample")
        if g.name == "sqrt" and arg < 0:
            raise SingularPointError("sqrt of a negative sample")
        return getattr(mpmath, g.name)(arg)
    try:
        v = values[key]
    except KeyError:
        raise EvaluationError("no value for %r" % key) from None
    if tofloat is None:
        return Fraction(v)
    if isinstance(v, Fraction):
        return tofloat(v.numerator) / v.denominator
    return tofloat(v)


# ---------------------------------------------------------------------------
# Reference substitution: kernel.substitute as it was before it summed over
# one denominator.  Every term is a canonical Expression and every partial
# sum is normalized, so its sums share no code with the kernel's; a rewrite
# rule applied to a substituted argument still goes through kernel.app.


def substitute_termwise(e, bindings, rules=()):
    """Simultaneous substitution of symbols by expressions, term by term."""
    rules = tuple(rules)
    b = {k: kernel.const_expr(v) if isinstance(v, (int, Fraction)) else v
         for k, v in bindings.items()}
    return _subst_expr_termwise(e, b, rules)


def _subst_expr_termwise(e, b, rules):
    n = _subst_poly_termwise(e.num, b, rules)
    d = _subst_poly_termwise(e.den, b, rules)
    if d.is_zero_expr():
        raise SingularExpressionError("substitution makes a denominator identically zero")
    return n / d


def _subst_poly_termwise(p, b, rules):
    total = kernel.ZERO
    for m, c in p.rational_terms():
        piece = kernel.const_expr(c)
        for g, e in m:
            piece = piece * (_subst_gen_termwise(g, b, rules) ** e)
        total = total + piece
    return total


def _subst_gen_termwise(g, b, rules):
    if g.kind == kernel.SYM_KIND:
        image = b.get(g.name)
        return image if image is not None else kernel.from_gen(g)
    new_args = tuple(_subst_expr_termwise(a, b, rules) for a in g.args)
    if new_args == g.args:
        return kernel.from_gen(g)
    if g.kind == kernel.APP_KIND:
        return kernel.app(g.name, new_args, g.orders, rules)
    return kernel.elem(g.name, new_args[0])


# ---------------------------------------------------------------------------
# Reference structural key: Poly.struct_key as it was computed when every
# coefficient was a Fraction.


def struct_key_reference(p):
    """Per term in descending graded-lex order: the monomial's (gen key,
    exponent) pairs, then the Fraction coefficient's numerator and
    denominator."""
    ordered = sorted(p.rational_terms(), key=lambda mc: kernel._mono_key(mc[0]), reverse=True)
    return tuple((tuple((g.key, e) for g, e in m), c.numerator, c.denominator) for m, c in ordered)


# ---------------------------------------------------------------------------
# Reference derivatives: kernel.differentiate and calculus.apply_field as
# they were before both went through kernel.derive.  Each chain-rule term
# is a canonical Expression added into a running sum, the quotient rule
# divides by the squared denominator, and a directional derivative adds one
# partial derivative per nonzero component.  A raised derivative order
# still goes through kernel.app, and so through its rewrite rules.

_HALF = Fraction(1, 2)


def derive_reference(e, pairs, rules=()):
    """X(e) for X = sum of c * d/dvar over (var, c) pairs, one partial at a time."""
    total = kernel.ZERO
    for var, c in pairs:
        if not c.is_zero_expr():
            total = total + c * differentiate_reference(e, var, rules)
    return total


def differentiate_reference(e, var, rules=()):
    """Partial derivative by the quotient rule over the squared denominator."""
    dn = _diff_poly_reference(e.num, var, rules)
    if e.den.is_one():
        return dn
    dd = _diff_poly_reference(e.den, var, rules)
    den, num = kernel.Expression(e.den), kernel.Expression(e.num)
    return (dn * den - num * dd) / (den * den)


def _diff_poly_reference(p, var, rules):
    total = kernel.ZERO
    for m, c in p.rational_terms():
        for idx, (g, e) in enumerate(m):
            dg = _diff_gen_reference(g, var, rules)
            if dg.is_zero_expr():
                continue
            piece = kernel.const_expr(c * e) * kernel.from_gen(g) ** (e - 1)
            for other, k in m[:idx] + m[idx + 1:]:
                piece = piece * kernel.from_gen(other) ** k
            total = total + piece * dg
    return total


def _diff_gen_reference(g, var, rules):
    if g.kind == kernel.SYM_KIND:
        return kernel.ONE if g.name == var else kernel.ZERO
    darg = [differentiate_reference(a, var, rules) for a in g.args]
    if all(d.is_zero_expr() for d in darg):
        return kernel.ZERO
    if g.kind == kernel.APP_KIND:
        if len(g.args) != 1:
            raise RewriteError("multi-argument function %r in %s" % (g.name, var))
        return kernel.app(g.name, g.args, (g.orders[0] + 1,), rules) * darg[0]
    (arg,) = g.args
    outer = {
        "exp": lambda: kernel.from_gen(g),
        "ln": lambda: kernel.ONE / arg,
        "sin": lambda: kernel.elem("cos", arg),
        "cos": lambda: -kernel.elem("sin", arg),
        "sqrt": lambda: kernel.const_expr(_HALF) / kernel.from_gen(g),
    }[g.name]()
    return outer * darg[0]


# ---------------------------------------------------------------------------
# Reference parser and printer: syntax.parse and syntax.format_expression as
# they were before the parser kept polynomials as Polys and the printer
# cached its text.  Every token and every operator builds a canonical
# Expression through the kernel's operators, and every call prints afresh
# from Fraction coefficients with each monomial's generators sorted again.
# The tokenizer is the package's own.

_NUM, _NAME, _OP, _END = syntax._NUM, syntax._NAME, syntax._OP, syntax._END


class _ReferenceParser:
    def __init__(self, text, allowed, rules, auto_apply_var):
        self.text = text
        self.toks = syntax._tokenize(text)
        self.pos = 0
        self.allowed = allowed
        self.rules = tuple(rules)
        self.auto_apply_var = auto_apply_var

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, value):
        kind, val, at = self.next()
        if kind != _OP or val != value:
            raise ExpressionSyntaxError("expected %r at position %d in %r" % (value, at, self.text))

    def parse_expr(self):
        e = self.parse_term()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "+-":
                self.next()
                rhs = self.parse_term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def parse_term(self):
        e = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "*/":
                self.next()
                rhs = self.parse_unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def parse_unary(self):
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, val, _ = self.peek()
        if kind == _OP and val == "^":
            self.next()
            return base ** self.parse_int_exponent()
        return base

    def parse_int_exponent(self):
        kind, val, _ = self.peek()
        paren = kind == _OP and val == "("
        if paren:
            self.next()
        sign = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            sign = -1
        kind, val, at = self.next()
        if kind != _NUM or "." in val:
            raise ExpressionSyntaxError("expected integer exponent at position %d" % at)
        if paren:
            self.expect(")")
        return sign * int(val)

    def parse_int_literal(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == "-":
            self.next()
            sign = -1
        kind, val, at = self.next()
        if kind != _NUM or "." in val:
            raise ExpressionSyntaxError("expected integer at position %d" % at)
        return sign * int(val)

    def parse_atom(self):
        kind, val, at = self.next()
        if kind == _NUM:
            return kernel.const_expr(Fraction(val))
        if kind == _OP and val == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        if kind == _NAME:
            nk, nv, _ = self.peek()
            if nk == _OP and nv == "(":
                self.next()
                if val == "D":
                    return self.parse_derivative_node()
                args = [self.parse_expr()]
                while True:
                    k2, v2, _ = self.peek()
                    if k2 == _OP and v2 == ",":
                        self.next()
                        args.append(self.parse_expr())
                    else:
                        break
                self.expect(")")
                if val in kernel.ELEMENTARY_FUNCTIONS:
                    if len(args) != 1:
                        raise ExpressionSyntaxError("%s takes exactly one argument" % val)
                    return kernel.elem(val, args[0])
                return kernel.app(val, tuple(args), (0,) * len(args), self.rules)
            return self.symbol(val, at)
        raise ExpressionSyntaxError("unexpected token %r at position %d in %r" % (val, at, self.text))

    def parse_derivative_node(self):
        kind, fname, at = self.next()
        if kind != _NAME:
            raise ExpressionSyntaxError("D(...) needs a function name (position %d)" % at)
        if fname in kernel.ELEMENTARY_FUNCTIONS:
            raise ExpressionSyntaxError("D(...) is for abstract functions, not %r" % fname)
        self.expect(",")
        arg = self.parse_expr()
        order = 1
        kind, val, _ = self.peek()
        if kind == _OP and val == ",":
            self.next()
            order = self.parse_int_literal()
            if order < 0:
                raise ExpressionSyntaxError("derivative order must be nonnegative")
        self.expect(")")
        return kernel.app(fname, (arg,), (order,), self.rules)

    def symbol(self, name, at):
        if self.allowed is None or name in self.allowed:
            return kernel.sym(name)
        if self.auto_apply_var is not None:
            return kernel.app(name, (kernel.sym(self.auto_apply_var),), (0,), self.rules)
        raise UnknownSymbolError("unknown symbol %r at position %d in %r" % (name, at, self.text))


def parse_reference(text, allowed=None, rules=(), auto_apply_var=None):
    """Text into a canonical Expression, one Expression per token."""
    p = _ReferenceParser(text, None if allowed is None else set(allowed), rules, auto_apply_var)
    e = p.parse_expr()
    kind, val, at = p.peek()
    if kind != _END:
        raise ExpressionSyntaxError("trailing input %r at position %d in %r" % (val, at, text))
    return e


def format_gen_reference(g):
    if g.kind == kernel.SYM_KIND:
        return g.name
    if g.kind == kernel.ELEM_KIND:
        return "%s(%s)" % (g.name, format_expression_reference(g.args[0]))
    total = sum(g.orders)
    args = ", ".join(format_expression_reference(a) for a in g.args)
    if total == 0:
        return "%s(%s)" % (g.name, args)
    return "D(%s, %s, %d)" % (g.name, args, total)


def _format_mono_reference(m, coeff):
    if not m:
        return str(abs(coeff))
    parts = []
    ac = abs(coeff)
    if ac != 1:
        parts.append(str(ac))
    for g, e in sorted(m, key=lambda t: t[0].key):
        s = format_gen_reference(g)
        parts.append(s if e == 1 else "%s^%d" % (s, e))
    return "*".join(parts)


def format_poly_reference(p):
    if p.is_zero():
        return "0"
    pieces = []
    ordered = sorted(p.terms, key=kernel._mono_key, reverse=True)
    for i, m in enumerate(ordered):
        c = p.coeff(m)
        body = _format_mono_reference(m, c)
        if i == 0:
            pieces.append("-" + body if c < 0 else body)
        else:
            pieces.append((" - " if c < 0 else " + ") + body)
    return "".join(pieces)


def format_expression_reference(e):
    if e.den.is_one():
        return format_poly_reference(e.num)
    return "(%s)/(%s)" % (format_poly_reference(e.num), format_poly_reference(e.den))
