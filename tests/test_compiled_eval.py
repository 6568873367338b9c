"""The compiled evaluator against the reference tree walkers in helpers.

The float backend must agree with the walker bit for bit, the mpmath
backend must return the same (value, scale) pairs, the direct exact
evaluation the same Fraction value, and a point the walker cannot evaluate
must raise the same error class in both.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import helpers  # noqa: E402
from cinfstruct.charts import Chart  # noqa: E402
from cinfstruct.errors import CinfstructError, EvaluationError  # noqa: E402
from cinfstruct.zerotest import _exact_value, compile_evaluator  # noqa: E402

CH = Chart("H", ("x", "u"))
FUNCS = ("exp", "ln", "sin", "cos", "sqrt")
COEFFS = ("1", "-1", "2", "-3", "1/2", "-5/3", "7")


def _mono(t):
    c, a, b = t
    parts = [c] + ["x"] * a + ["u"] * b
    return "*".join(parts)


polys = st.lists(
    st.tuples(st.sampled_from(COEFFS), st.integers(0, 2), st.integers(0, 2)).map(_mono),
    min_size=1,
    max_size=3,
).map(lambda ms: "(%s)" % " + ".join(ms))
atoms = st.recursive(
    polys,
    lambda inner: st.tuples(st.sampled_from(FUNCS), inner, polys).map(
        lambda t: "%s(%s + %s)" % t
    ),
    max_leaves=3,
)
sums = st.lists(st.lists(atoms, min_size=1, max_size=3).map("*".join), min_size=1, max_size=3)
texts = st.tuples(sums.map(" + ".join), st.one_of(st.none(), polys)).map(
    lambda t: t[0] if t[1] is None else "(%s)/%s" % t
)
floats = st.floats(-3.0, 3.0, allow_nan=False)
fractions = st.integers(-64, 64).map(lambda k: Fraction(k, 32))

_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _parse(text):
    try:
        return CH.parse(text)
    except CinfstructError:
        assume(False)


def _outcome(fn, *args):
    """The value, or the class of the package error raised."""
    try:
        return fn(*args)
    except EvaluationError as exc:
        return type(exc)


def _bits(v):
    return v.hex() if isinstance(v, float) else v


@_SETTINGS
@given(texts, floats, floats)
def test_float_backend_matches_the_walker_bit_for_bit(text, x, u):
    e = _parse(text)
    fn = compile_evaluator(e, CH.coords)
    want = _outcome(helpers.walk_float, e, {"x": x, "u": u})
    got = _outcome(fn, x, u)
    assert _bits(got) == _bits(want)


@_SETTINGS
@given(texts, fractions, fractions, st.sampled_from([None, Fraction(1, 1000)]))
def test_mpmath_backend_matches_the_walker_at_50_digits(text, x, u, eps):
    e = _parse(text)
    with mpmath.workdps(50):
        fn = compile_evaluator(e, CH.coords, "mpmath", eps)
        values = {"x": x, "u": u}
        want = _outcome(helpers.walk_scaled, e, values, mpmath.mpf, eps)
        got = _outcome(fn, *(mpmath.mpf(v.numerator) / v.denominator for v in (x, u)))
    assert got == want


@_SETTINGS
@given(
    st.tuples(st.lists(polys, min_size=1, max_size=3).map("*".join), polys).map(
        lambda t: "%s + 1/%s" % t
    ),
    st.integers(-64, 64),
    st.integers(-64, 64),
    st.sampled_from([1, 3, 32]),
    st.sampled_from([None, Fraction(1, 1000)]),
)
def test_exact_backend_matches_the_walker(text, kx, ku, q, eps):
    # The exact evaluation takes each value v as the integer v * q.
    e = _parse(text)
    want = _outcome(helpers.walk_scaled, e, {"x": Fraction(kx, q), "u": Fraction(ku, q)}, None, eps)
    got = _outcome(_exact_value, e, {"x": kx, "u": ku}, q, eps)
    if isinstance(want, tuple):
        assert isinstance(got, Fraction) and got == want[0]
    else:
        assert got == want
