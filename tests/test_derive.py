"""Partial and directional derivatives against the term-by-term references.

``kernel.derive`` applies X = sum of c * d/dvar as one polynomial derivation
over the common denominator w of the generators' images, and reduces the
quotient rule's numerator against gcd(d, D d) and w only.  On quotients built
from one pool of factors (repeated factors, factors free of a variable,
exp(.) factors that divide their own derivative, ln and sqrt) and on the
Airy chart's ruled functions, it must give the very canonical form that
``helpers.derive_reference`` and ``helpers.differentiate_reference`` build
one chain-rule term and one partial derivative at a time.  A counting
``poly_gcd`` pins the cost model.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from cinfstruct import kernel  # noqa: E402
from cinfstruct.calculus import VectorField, apply_field  # noqa: E402
from cinfstruct.charts import Chart  # noqa: E402

CH = Chart("D", ("x", "y", "z"))
FACTORS = [
    CH.parse(t)
    for t in (
        "x", "y", "x + 1", "x - y", "2*x*y - 3", "y^2 + z", "x*z + 2*y + 1",
        "exp(x)", "exp(y)", "exp(x*y) + 1", "ln(x + 1)", "sqrt(y^2 + z)", "x*sqrt(x) - y",
    )
]
CONSTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4))
COMPONENTS = [
    CH.parse(t)
    for t in ("0", "1", "-2/3", "x", "y*z - 1", "1/(x + 1)", "1/(x + 1)^2", "(y - z)/(x*y)",
              "exp(x)/(y^2 + z)")
]


def _quotient(c, num_factors, den_factors):
    num = reduce(lambda p, q: p * q, (FACTORS[i] for i in num_factors), kernel.const_expr(c))
    den = reduce(lambda p, q: p * q, (FACTORS[i] for i in den_factors), kernel.ONE)
    return num / den


_indices = st.lists(st.integers(0, len(FACTORS) - 1), max_size=3)
quotients = st.builds(_quotient, st.sampled_from(CONSTS), _indices, _indices)
quotients |= st.just(kernel.ZERO)
fields = st.lists(st.sampled_from(COMPONENTS), min_size=3, max_size=3)


def _same(got, want):
    assert got.num.struct_key() == want.num.struct_key()
    assert got.den.struct_key() == want.den.struct_key()


@settings(max_examples=150, deadline=None)
@given(quotients, st.sampled_from(CH.coords))
def test_partial_derivatives_match_the_quotient_rule(e, var):
    _same(kernel.differentiate(e, var), helpers.differentiate_reference(e, var))


@settings(max_examples=150, deadline=None)
@given(quotients, fields)
def test_directional_derivatives_match_the_sum_of_partials(e, comps):
    pairs = list(zip(CH.coords, comps))
    want = helpers.derive_reference(e, pairs)
    _same(kernel.derive(e, [(v, c) for v, c in pairs if not c.is_zero_expr()]), want)
    _same(apply_field(VectorField(CH, tuple(comps)), e), want)


def test_worked_cases_over_repeated_and_self_dividing_factors():
    for text in (
        "(x + y)/((x + 1)^2*(x - y))",        # p^2 q
        "x/((y^2 + z)^3*(x + 1))",            # a factor free of x
        "(x*y + 1)/y",                        # D d = 0, gcd(D n, d) = y
        "y/(exp(x)^2*(x + 1))",               # p = exp(x) divides D p
        "ln(x + 1)/sqrt(x^2 + y)^3",
    ):
        e = CH.parse(text)
        for var in CH.coords:
            _same(kernel.differentiate(e, var), helpers.differentiate_reference(e, var))
        for comps in (("1/(x + 1)", "0", "x"), ("exp(x)/(y^2 + z)", "-2/3", "(y - z)/(x*y)")):
            X = VectorField(CH, tuple(CH.parse(c) for c in comps))
            want = helpers.derive_reference(e, list(zip(CH.coords, X.components)))
            _same(apply_field(X, e), want)


AIRY = helpers.airy_chart()
AIRY_EXPRS = [
    AIRY.parse(t)
    for t in (
        helpers.AIRY_INTEGRAL_3, helpers.AIRY_MU3, helpers.AIRY_F3, helpers.AIRY_MU2,
        helpers.AIRY_F2, "D(phi1, x)^2/(phi2(x)*u1)", "u1*exp_half(x)/(phi1(x) + 2*phi2(x))^2",
    )
]


@pytest.mark.parametrize("e", AIRY_EXPRS, ids=range(len(AIRY_EXPRS)))
def test_ruled_airy_functions_match_the_references(e):
    for var in AIRY.coords:
        _same(kernel.differentiate(e, var, AIRY.rules),
              helpers.differentiate_reference(e, var, AIRY.rules))
    for X in helpers.airy_fields(AIRY):
        want = helpers.derive_reference(e, list(zip(AIRY.coords, X.components)), AIRY.rules)
        _same(apply_field(X, e), want)


def _primitive_terms(p):
    return frozenset(kernel._normalize_primitive(p).terms.items())


def test_derivatives_take_gcds_of_the_denominator_and_its_derivative_only(monkeypatch):
    f = CH.parse("(x^2*y + z)/(x*y^2 + x*z - 3*y + 1)")  # squarefree denominator in x
    d = f.den
    dd = kernel.differentiate(kernel.Expression(d), "x").num
    square = _primitive_terms(d * d)
    calls = []
    gcd = kernel.poly_gcd

    def recorded(a, b):
        calls.append((_primitive_terms(a), _primitive_terms(b)))
        return gcd(a, b)

    monkeypatch.setattr(kernel, "poly_gcd", recorded)
    got = kernel.differentiate(f, "x")
    assert calls == [(_primitive_terms(d), _primitive_terms(dd))]
    monkeypatch.setattr(kernel, "poly_gcd", gcd)
    _same(got, helpers.differentiate_reference(f, "x"))

    monkeypatch.setattr(kernel, "poly_gcd", recorded)
    calls.clear()
    X = VectorField(CH, tuple(CH.parse(c) for c in ("y", "x*z - 1", "2")))
    got = apply_field(X, f)
    assert len(calls) <= 2
    assert all(square not in call for call in calls)
    monkeypatch.setattr(kernel, "poly_gcd", gcd)
    _same(got, helpers.derive_reference(f, list(zip(CH.coords, X.components))))
