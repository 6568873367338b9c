"""Factor certification and conversion, plus the two-variable quadrature.

The worked four-coordinate example provides goldens for every factor kind;
the exactness claims (mu_2 omega_2 equals the differential of the step
integral, mu_1 only relatively integrating) were re-derived by hand before
being frozen here.
"""

import math
import time

import pytest

from cinfstruct import factors, kernel
from cinfstruct.calculus import KForm, d_of_function, exterior_derivative, wedge
from cinfstruct.charts import Chart
from cinfstruct.errors import EvaluationError, SingularExpressionError
from cinfstruct.factors import (
    check_relative_integrating_factor,
    check_symmetrizing_factor,
    factor_from_first_integral,
    factor_quotient_check,
    factor_to_integrating,
    float_evaluator,
    integrating_to_factor,
    primitive_by_quadrature,
)
from cinfstruct.zerotest import Certainty

import helpers


def test_symmetrizing_factors_certify(dim4):
    assert check_symmetrizing_factor(dim4.structure, 2, helpers.DIM4_F2).ok
    assert check_symmetrizing_factor(dim4.structure, 1, helpers.DIM4_F1).ok


def test_symmetrizing_factor_refuted_with_witness(dim4):
    cert = check_symmetrizing_factor(dim4.structure, 2, "x4")
    assert not cert.ok
    assert cert.witness is not None


def test_relative_integrating_factors_certify(dim4):
    top = check_relative_integrating_factor(dim4.dual, 2, helpers.DIM4_MU2)
    assert top.ok
    # at the top level the condition degenerates to plain closedness
    assert any("d(mu omega_2) = 0" in it.label for it in top.items)
    assert check_relative_integrating_factor(dim4.dual, 1, helpers.DIM4_MU1).ok


def test_mu2_omega2_is_the_differential_of_the_integral(dim4):
    p = dim4.chart.parse
    scaled = dim4.dual.omega(2).scaled(p(helpers.DIM4_MU2))
    dI = d_of_function(dim4.chart, p(helpers.DIM4_INTEGRAL_2))
    assert (scaled - dI).is_zero_form()


def test_mu1_is_integrating_only_relative_to_omega2(dim4):
    p = dim4.chart.parse
    scaled = dim4.dual.omega(1).scaled(p(helpers.DIM4_MU1))
    assert scaled.coeff((0,)) == p("-1/x2")
    assert scaled.coeff((1,)) == p("-1/(x2*x3*(x2 - x3*x4))")
    assert scaled.coeff((2,)) == p("-1/(x2*x3^2)")
    assert scaled.coeff((3,)) == kernel.ZERO

    closed = exterior_derivative(scaled)
    assert not closed.is_zero_form()
    assert closed.coeff((0, 1)) == p("-1/x2^2")
    assert closed.coeff((1, 2)) == p("x4^2/(x2^2*(x2 - x3*x4)^2)")
    assert closed.coeff((1, 3)) == p("1/(x2*(x2 - x3*x4)^2)")
    assert wedge(closed, dim4.dual.omega(2)).is_zero_form()


def test_conversions_round_trip_both_levels(dim4):
    p = dim4.chart.parse
    to_mu = factor_to_integrating(dim4.dual, 2, helpers.DIM4_F2)
    assert to_mu.ok
    assert to_mu.value == p(helpers.DIM4_MU2)
    assert to_mu.pairing == p("-x2")
    back = integrating_to_factor(dim4.dual, 2, helpers.DIM4_MU2)
    assert back.ok
    assert back.value == p(helpers.DIM4_F2)

    to_mu1 = factor_to_integrating(dim4.dual, 1, helpers.DIM4_F1)
    assert to_mu1.ok
    assert to_mu1.value == p(helpers.DIM4_MU1)
    assert to_mu1.pairing == p("x2")
    back1 = integrating_to_factor(dim4.dual, 1, helpers.DIM4_MU1)
    assert back1.ok
    assert back1.value == p(helpers.DIM4_F1)


def test_conversion_rejects_a_vanishing_factor(dim4):
    with pytest.raises(SingularExpressionError):
        factor_to_integrating(dim4.dual, 2, "0")
    with pytest.raises(ValueError, match="out of range"):
        factor_to_integrating(dim4.dual, 3, "1")


def test_factor_from_first_integral(dim4):
    p = dim4.chart.parse
    res = factor_from_first_integral(dim4.dual, 2, helpers.DIM4_INTEGRAL_2)
    assert res.ok
    assert res.value == p(helpers.DIM4_F2)
    assert res.pairing == p("x2/(x2 - x3*x4)^2")
    # the level-1 field annihilates I2, so no factor lies along it
    with pytest.raises(SingularExpressionError, match="annihilates"):
        factor_from_first_integral(dim4.dual, 1, helpers.DIM4_INTEGRAL_2)


def test_factor_quotient_check(dim4):
    p = dim4.chart.parse
    f2 = p(helpers.DIM4_F2)
    good = factor_quotient_check(dim4.structure, 2, f2, f2 * p(helpers.DIM4_INTEGRAL_2))
    assert good.ok
    assert not any(it.result.witness is None for it in good.items if not it.ok)

    bad = factor_quotient_check(dim4.structure, 2, f2, f2 * p("x4"))
    assert not bad.ok
    assert bad.witness is not None


def test_float_evaluator_matches_exact_arithmetic():
    ch = Chart("P", ("x", "u"))
    fn = float_evaluator(ch, "(x + u^2)/(x - u)")
    assert fn(2.0, 0.5) == pytest.approx(2.25 / 1.5)
    fn2 = float_evaluator(ch, "exp(x)*sin(u)")
    assert fn2(0.3, 1.1) == pytest.approx(math.exp(0.3) * math.sin(1.1))
    with pytest.raises(EvaluationError, match="expected 2"):
        fn(1.0)
    with pytest.raises(EvaluationError):
        fn(1.0, 1.0)  # denominator vanishes


def test_float_evaluator_refuses_abstract_functions(airy):
    fn = float_evaluator(airy.chart, "phi1(x)")
    with pytest.raises(EvaluationError, match="abstract"):
        fn(1.0, 0.0, 0.0, 0.0)


def test_primitive_by_quadrature_recovers_a_known_primitive():
    ch = Chart("P", ("x", "u"))
    # F = x^2*u + sin(x), dF = (2*x*u + cos(x)) dx + x^2 du
    form = KForm.make(ch, 1, {(0,): ch.parse("2*x*u + cos(x)"), (1,): ch.parse("x^2")})
    res = primitive_by_quadrature(form)
    assert res.ok
    for x, u in [(0.3, -0.2), (1.1, 0.7), (-0.5, 0.4)]:
        expect = x * x * u + math.sin(x)
        assert abs(res(x, u) - expect) < 1e-8


def test_primitive_by_quadrature_flags_a_non_closed_form():
    ch = Chart("P", ("x", "u"))
    form = KForm.make(ch, 1, {(0,): ch.parse("u"), (1,): kernel.ZERO})
    res = primitive_by_quadrature(form)
    assert not res.ok
    assert any(it.label == "the form is closed" and not it.ok for it in res.certificate.items)


def test_primitive_by_quadrature_fails_when_no_spot_check_evaluates():
    # ln(x - 5) has no real value near the base point, so every spot check
    # raises; zero evidence must not pass as a proved gradient match.
    ch = Chart("P", ("x", "u"))
    res = primitive_by_quadrature(d_of_function(ch, ch.parse("x*ln(x - 5)")))
    assert not res.ok
    (grad,) = [it for it in res.certificate.items if it.label.startswith("gradient of F")]
    assert not grad.ok
    assert grad.result.certainty is not Certainty.PROVED_ZERO


def test_float_overflow_is_an_evaluation_error():
    ch = Chart("P", ("x", "u"))
    with pytest.raises(EvaluationError):
        float_evaluator(ch, "exp(1000*x)")(1.0, 0.0)
    with pytest.raises(EvaluationError):
        float_evaluator(ch, "x^400")(10.0, 0.0)
    # Spot checks right of x = 0.71 overflow and are skipped; the two left of
    # it difference values near -exp(500), whose rounding swamps the
    # gradient, so the check fails instead of raising.
    res = primitive_by_quadrature(d_of_function(ch, ch.parse("exp(1000*x)")), base=(0.5, 0.0))
    assert not res.ok


def test_quadrature_zero_length_and_reversed_legs():
    def never(t):
        raise AssertionError("a zero-length leg evaluates nothing")

    assert factors._integrate(never, 0.3, 0.3) == 0.0
    # A kink makes the rule bisect, so the reversed leg runs the whole loop.
    kinked = lambda t: math.sqrt(abs(t))
    forward = factors._integrate(kinked, -0.2, 0.7)
    assert forward == pytest.approx((0.2**1.5 + 0.7**1.5) * 2 / 3, abs=1e-10)
    assert factors._integrate(kinked, 0.7, -0.2) == -forward

    ch = Chart("P", ("x", "u"))
    res = primitive_by_quadrature(d_of_function(ch, ch.parse("x^2*u + sin(x)")), base=(0.5, 0.2))
    assert res(0.5, 0.2) == 0.0
    want = lambda x, u: x * x * u + math.sin(x) - (0.05 + math.sin(0.5))
    for x, u in [(-0.3, 0.2), (0.5, -0.4), (-0.1, -0.6)]:
        assert abs(res(x, u) - want(x, u)) < 1e-10


def test_quadrature_stops_at_the_subinterval_limit():
    calls = []

    def inverse_square(t):
        # Bisection reaches the pole itself once the subintervals are a few
        # ulps wide; the package's evaluators raise there instead.
        calls.append(t)
        return 1.0 / (t - 0.1) ** 2 if t != 0.1 else 0.0

    factors._integrate(inverse_square, -0.2, 0.3)
    # One rule on the whole leg, then two per bisection up to the limit.
    assert len(calls) == 21 * (2 * factors._QUAD_LIMIT - 1)

    # d(u/x) from (0.25, 0): the spot checks left of x = 0 integrate across
    # the pole, so the gradient check fails, within a fixed time.
    ch = Chart("P", ("x", "u"))
    t0 = time.perf_counter()
    res = primitive_by_quadrature(d_of_function(ch, ch.parse("u/x")), base=(0.25, 0.0))
    assert time.perf_counter() - t0 < 5.0
    (grad,) = [it for it in res.certificate.items if it.label.startswith("gradient of F")]
    assert not grad.ok
    assert not res.ok


def test_primitive_by_quadrature_rejects_wrong_shapes():
    ch3 = Chart("Q", ("x", "y", "z"))
    with pytest.raises(ValueError):
        primitive_by_quadrature(KForm.make(ch3, 1, {(0,): kernel.ONE}))
    ch = Chart("P", ("x", "u"))
    with pytest.raises(ValueError):
        primitive_by_quadrature(KForm.make(ch, 2, {(0, 1): kernel.ONE}))


def test_derived_factor_entries_match_the_goldens(dim4, dim4_factors):
    p = dim4.chart.parse
    assert set(dim4_factors) == {1, 2}
    top = dim4_factors[2]
    assert top.ok
    assert top.f == p(helpers.DIM4_F2)
    assert top.mu == p(helpers.DIM4_MU2)
    assert top.mu_reduced == top.mu  # stage 0 runs on the original chart
    low = dim4_factors[1]
    assert low.ok
    assert low.f == p(helpers.DIM4_F1)
    assert low.mu == p(helpers.DIM4_MU1)
