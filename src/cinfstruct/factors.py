"""Symmetrizing factors, relative integrating factors, and conversions.

A symmetrizing factor at level i0 is a nonvanishing f with V(f) = lambda_V f
for every member V below that level, where lambda_V is the certified
coefficient of X_{i0} in [X_{i0}, V].  A relative integrating factor at the
same level is a nonvanishing mu with d(mu omega_{i0}) wedge omega_{i0+1}
wedge ... wedge omega_m = 0 (plain closedness at the top level).  The two
are interchangeable through mu = 1 / (f * (X_{i0} . omega_{i0})), and a
first integral F at that level yields f = 1 / X_{i0}(F).

The bottom of the ladder is classical: an exact M dx + N du integrates to a
primitive by two one-dimensional quadratures along an L-shaped path.  Each
is an adaptive 21-point Gauss-Kronrod rule, QUADPACK's qk21 (Piessens et
al., 1983) with global bisection as in its QAG driver.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import kernel, syntax
from .calculus import KForm, apply_field, exterior_derivative, interior_product, wedge
from .certs import Certificate, CheckItem, bundle
from .charts import Chart
from .errors import EvaluationError, SingularExpressionError
from .kernel import Expression
from .structures import CinfStructure, DualForms
from .zerotest import DEFAULT_POLICY, Certainty, ZeroTestPolicy, ZeroTestResult, is_zero

__all__ = [
    "check_symmetrizing_factor",
    "check_relative_integrating_factor",
    "ConversionResult",
    "factor_to_integrating",
    "integrating_to_factor",
    "factor_from_first_integral",
    "factor_quotient_check",
    "PrimitiveResult",
    "primitive_by_quadrature",
]


def _check_level(m: int, i0: int) -> None:
    if not 1 <= i0 <= m:
        raise ValueError("level %d out of range 1..%d" % (i0, m))


def check_symmetrizing_factor(
    structure: CinfStructure,
    i0: int,
    f,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> Certificate:
    """Certify V(f) = lambda_V * f for every member below level i0."""
    _check_level(structure.corank, i0)
    chart = structure.chart
    f = chart.coerce(f)
    members, lambdas = structure.level_factor_data(i0)
    items = [CheckItem("f is nonvanishing", is_zero(f, policy), expect_zero=False)]
    for k, (V, lam) in enumerate(zip(members, lambdas)):
        vname = V.name or "V%d" % (k + 1)
        residual = apply_field(V, f) - lam * f
        items.append(
            CheckItem("%s(f) = lambda*f" % vname, is_zero(residual, policy))
        )
    return bundle(
        "symmetrizing-factor",
        items,
        loci=[f],
        level=i0,
        f=syntax.format_expression(f),
    )


def _trailing_wedge(dual: DualForms, i0: int) -> Optional[KForm]:
    """omega_{i0+1} wedge ... wedge omega_m, or None at the top level."""
    m = len(dual.omegas)
    tail = None
    for j in range(i0, m):
        tail = dual.omegas[j] if tail is None else wedge(tail, dual.omegas[j])
    return tail


def check_relative_integrating_factor(
    dual: DualForms,
    i0: int,
    mu,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> Certificate:
    """Certify d(mu omega_i0) wedge (trailing omegas) = 0."""
    m = len(dual.omegas)
    _check_level(m, i0)
    chart = dual.chart
    mu = chart.coerce(mu)
    items = [CheckItem("mu is nonvanishing", is_zero(mu, policy), expect_zero=False)]
    closed = exterior_derivative(dual.omega(i0).scaled(mu))
    tail = _trailing_wedge(dual, i0)
    target = closed if tail is None else wedge(closed, tail)
    what = (
        "d(mu omega_%d) = 0" % i0
        if tail is None
        else "d(mu omega_%d) wedge omega_%d..omega_%d = 0" % (i0, i0 + 1, m)
    )
    if not target.coeffs:
        items.append(CheckItem(what, is_zero(kernel.ZERO, policy)))
    for idx, c in target.coeffs:
        items.append(
            CheckItem(
                "%s [%s]" % (what, target.basis_label(idx)),
                is_zero(c, policy),
            )
        )
    return bundle(
        "relative-integrating-factor",
        items,
        loci=[mu],
        level=i0,
        mu=syntax.format_expression(mu),
    )


@dataclass(frozen=True)
class ConversionResult:
    """A converted factor with the pairing it divides by and its certificate."""

    value: Expression
    pairing: Expression
    certificate: Certificate

    @property
    def ok(self) -> bool:
        return self.certificate.ok


def _pairing(dual: DualForms, i0: int) -> Expression:
    X = dual.structure.fields[i0 - 1]
    return interior_product(X, dual.omega(i0)).coeff(())


def factor_to_integrating(
    dual: DualForms,
    i0: int,
    f,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
    verify: bool = True,
) -> ConversionResult:
    """mu = 1 / (f * (X_i0 . omega_i0)), certified on both ends."""
    _check_level(len(dual.omegas), i0)
    chart = dual.chart
    f = chart.coerce(f)
    pairing = _pairing(dual, i0)
    if f.is_zero_expr() or pairing.is_zero_expr():
        raise SingularExpressionError("conversion divides by a vanishing product")
    mu = kernel.ONE / (f * pairing)
    items = []
    payload = {"level": i0, "direction": "f->mu", "mu": syntax.format_expression(mu)}
    if verify:
        inp = check_symmetrizing_factor(dual.structure, i0, f, policy)
        out = check_relative_integrating_factor(dual, i0, mu, policy)
        items = list(inp.items) + list(out.items)
        payload["input"] = inp.as_json()
        payload["output"] = out.as_json()
    cert = bundle("factor-conversion", items, loci=[f, pairing], **payload)
    return ConversionResult(mu, pairing, cert)


def integrating_to_factor(
    dual: DualForms,
    i0: int,
    mu,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
    verify: bool = True,
) -> ConversionResult:
    """f = 1 / (mu * (X_i0 . omega_i0)), certified on both ends."""
    _check_level(len(dual.omegas), i0)
    chart = dual.chart
    mu = chart.coerce(mu)
    pairing = _pairing(dual, i0)
    if mu.is_zero_expr() or pairing.is_zero_expr():
        raise SingularExpressionError("conversion divides by a vanishing product")
    f = kernel.ONE / (mu * pairing)
    items = []
    payload = {"level": i0, "direction": "mu->f", "f": syntax.format_expression(f)}
    if verify:
        inp = check_relative_integrating_factor(dual, i0, mu, policy)
        out = check_symmetrizing_factor(dual.structure, i0, f, policy)
        items = list(inp.items) + list(out.items)
        payload["input"] = inp.as_json()
        payload["output"] = out.as_json()
    cert = bundle("factor-conversion", items, loci=[mu, pairing], **payload)
    return ConversionResult(f, pairing, cert)


def factor_from_first_integral(
    dual: DualForms,
    i0: int,
    F,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
    verify: bool = True,
) -> ConversionResult:
    """f = 1 / X_i0(F) for a first integral F of everything below level i0.

    Raises SingularExpressionError when X_i0 annihilates F, since no factor
    lies along that field.  The precondition dF wedge omega_i0 = 0 enters
    the certificate when verify is set.
    """
    _check_level(len(dual.omegas), i0)
    chart = dual.chart
    F = chart.coerce(F)
    X = dual.structure.fields[i0 - 1]
    derivative = apply_field(X, F)
    if derivative.is_zero_expr():
        raise SingularExpressionError(
            "the level-%d field annihilates the candidate integral" % i0
        )
    f = kernel.ONE / derivative
    items = []
    payload = {"level": i0, "f": syntax.format_expression(f)}
    if verify:
        from .calculus import d_of_function

        dF = d_of_function(chart, F)
        prec = wedge(dF, dual.omega(i0))
        for idx, c in prec.coeffs:
            items.append(
                CheckItem(
                    "dF wedge omega_%d = 0 [%s]" % (i0, prec.basis_label(idx)),
                    is_zero(c, policy),
                )
            )
        items.append(
            CheckItem("X_%d(F) is nonvanishing" % i0, is_zero(derivative, policy), expect_zero=False)
        )
        out = check_symmetrizing_factor(dual.structure, i0, f, policy)
        items.extend(out.items)
        payload["output"] = out.as_json()
    cert = bundle("factor-from-integral", items, loci=[derivative], **payload)
    return ConversionResult(f, derivative, cert)


def factor_quotient_check(
    structure: CinfStructure,
    i0: int,
    f_a,
    f_b,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> Certificate:
    """The ratio of two level-i0 factors is a joint first integral below it."""
    _check_level(structure.corank, i0)
    chart = structure.chart
    f_a = chart.coerce(f_a)
    f_b = chart.coerce(f_b)
    ratio = f_b / f_a
    members, _lambdas = structure.level_factor_data(i0)
    items = [
        CheckItem("f_a is nonvanishing", is_zero(f_a, policy), expect_zero=False),
        CheckItem("f_b is nonvanishing", is_zero(f_b, policy), expect_zero=False),
    ]
    for k, V in enumerate(members):
        vname = V.name or "V%d" % (k + 1)
        items.append(
            CheckItem(
                "%s(f_b/f_a) = 0" % vname,
                is_zero(apply_field(V, ratio), policy),
            )
        )
    return bundle(
        "factor-quotient",
        items,
        loci=[f_a, f_b],
        level=i0,
        ratio=syntax.format_expression(ratio),
    )


# ---------------------------------------------------------------------------
# Classical two-variable quadrature.

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
        arg = _float_expr(g.args[0], env)
        try:
            return _MATH_ELEM[g.name](arg)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError("%s(%r): %s" % (g.name, arg, exc)) from None
    raise EvaluationError(
        "quadrature needs numeric coefficients; %r is abstract" % g.name
    )


def _float_poly(p, env):
    total = 0.0
    for mono, coeff in p.terms.items():
        val = float(coeff)
        for g, e in mono:
            base = _float_gen(g, env)
            try:
                val *= base ** e
            except OverflowError:
                raise EvaluationError("%r ** %d overflows" % (base, e)) from None
        total += val
    return total


def _float_expr(e: Expression, env) -> float:
    num = _float_poly(e.num, env)
    den = _float_poly(e.den, env)
    if den == 0.0:
        raise EvaluationError("denominator vanished at %r" % (env,))
    return num / den


def float_evaluator(chart: Chart, expr) -> Callable[..., float]:
    """A plain-float callable in the chart's coordinate order."""
    expr = chart.coerce(expr)
    coords = chart.coords

    def fn(*args: float) -> float:
        if len(args) != len(coords):
            raise EvaluationError(
                "expected %d coordinates, got %d" % (len(coords), len(args))
            )
        return _float_expr(expr, dict(zip(coords, args)))

    return fn


# QUADPACK's qk21 rule on [-1, 1]: the Kronrod abscissae from the outside
# in, ending at the centre, with their weights; the odd-indexed abscissae
# are the 10-point Gauss nodes, weighted by _WG.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# Gauss nodes first, then the rest, as qk21 sums them.
_GK_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

_QUAD_TOL = 1e-10  # absolute and relative
_QUAD_LIMIT = 200  # subintervals
_SPOT_CHECKS = 4


def _gk21(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """qk21: the Kronrod estimate of int_a^b f and its error estimate."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv = [(0.0, 0.0)] * 10
    for j in _GK_ORDER:
        absc = hlgth * _XGK[j]
        f1 = f(centr - absc)
        f2 = f(centr + absc)
        fv[j] = (f1, f2)
        fsum = f1 + f2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv[j][0] - reskh) + abs(fv[j][1] - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * hlgth, err


def _integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """int_a^b f, signed, by bisecting the worst subinterval until the
    summed error estimate is within _QUAD_TOL or _QUAD_LIMIT is reached."""
    if a == b:
        return 0.0
    value, err = _gk21(f, a, b)
    total, total_err = value, err
    heap = [(-err, a, b, value)]
    while total_err > max(_QUAD_TOL, _QUAD_TOL * abs(total)) and len(heap) < _QUAD_LIMIT:
        neg_err, lo, hi, whole = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left, left_err = _gk21(f, lo, mid)
        right, right_err = _gk21(f, mid, hi)
        total += left + right - whole
        total_err += left_err + right_err + neg_err
        heapq.heappush(heap, (-left_err, lo, mid, left))
        heapq.heappush(heap, (-right_err, mid, hi, right))
    return math.fsum(item[3] for item in heap)


@dataclass(frozen=True)
class PrimitiveResult:
    """A primitive of an exact form, evaluable by quadrature from a base point."""

    chart: Chart
    form: KForm
    base: tuple[float, float]
    func: Callable[[float, float], float]
    certificate: Certificate

    @property
    def ok(self) -> bool:
        return self.certificate.ok

    def __call__(self, x: float, u: float) -> float:
        return self.func(x, u)


def primitive_by_quadrature(
    form: KForm,
    base: tuple[float, float] = (0.0, 0.0),
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> PrimitiveResult:
    """Integrate an exact M dx + N du along the L-shaped path from base.

    F(x, u) = int_{x0}^{x} M(t, u) dt + int_{u0}^{u} N(x0, t) dt.  Closedness
    is certified symbolically; the gradient of F is spot-checked against
    (M, N) by central differences near the base point.
    """
    chart = form.chart
    if chart.dim != 2 or form.degree != 1:
        raise ValueError("quadrature expects a 1-form on a 2-coordinate chart")
    M = form.coeff((0,))
    N = form.coeff((1,))
    closed = exterior_derivative(form)
    items = [
        CheckItem("the form is closed", is_zero(closed.coeff((0, 1)), policy))
    ]

    m_fn = float_evaluator(chart, M)
    n_fn = float_evaluator(chart, N)
    x0, u0 = float(base[0]), float(base[1])

    def F(x: float, u: float) -> float:
        first = _integrate(lambda t: m_fn(t, u), x0, x)
        second = _integrate(lambda t: n_fn(x0, t), u0, u)
        return first + second

    # Central-difference spot checks on a small ring around the base point.
    h = 1e-5
    tol = 1e-5
    errors = []
    for k in range(_SPOT_CHECKS):
        ang = 2.0 * math.pi * (k + 0.5) / _SPOT_CHECKS
        px = x0 + 0.7 * math.cos(ang)
        pu = u0 + 0.7 * math.sin(ang)
        try:
            dx = (F(px + h, pu) - F(px - h, pu)) / (2 * h)
            du = (F(px, pu + h) - F(px, pu - h)) / (2 * h)
            err = max(abs(dx - m_fn(px, pu)), abs(du - n_fn(px, pu)))
        except EvaluationError:
            continue
        errors.append(err)
    # A check with no evaluable spot is no evidence: it fails.
    worst = max(errors, default=math.inf)
    items.append(
        CheckItem(
            "gradient of F matches the form (central differences)",
            ZeroTestResult(
                Certainty.PROVED_ZERO if worst <= tol else Certainty.NONZERO,
                1.0,
                witness_value="%.3e" % worst,
            ),
        )
    )
    cert = bundle(
        "primitive-by-quadrature",
        items,
        base=[x0, u0],
        max_gradient_error="%.3e" % worst,
    )
    return PrimitiveResult(chart, form, (x0, u0), F, cert)