"""kernel.substitute against sympy and against the term-by-term reference.

substitute sums each polynomial over one common denominator and normalizes
once per expression; helpers.substitute_termwise normalizes every term and
every partial sum, and sympy cancels the simultaneous substitution on its
own.  Canonical forms are unique, so all three must give equal Expressions,
and a substitution that makes a denominator vanish must raise.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from cinfstruct import kernel, syntax  # noqa: E402
from cinfstruct.charts import Chart, parse_rule  # noqa: E402
from cinfstruct.errors import SingularExpressionError  # noqa: E402

CH = Chart("S", ("x", "y", "z"))
SYMS = {v: sympy.Symbol(v) for v in CH.coords}
COEFFS = ("1", "-1", "2", "-3", "1/2", "-5/3")


def _mono(t):
    c, exps = t
    return "*".join([c] + ["%s^%d" % (v, k) for v, k in zip(CH.coords, exps) if k])


polys = st.lists(
    st.tuples(st.sampled_from(COEFFS), st.tuples(*[st.integers(0, 2)] * 3)).map(_mono),
    min_size=1,
    max_size=3,
).map(lambda ms: "(%s)" % " + ".join(ms))
nonzero_polys = polys.filter(lambda t: not CH.parse(t).is_zero_expr())
rationals = st.tuples(polys, nonzero_polys).map(lambda t: CH.parse("%s/%s" % t))


@st.composite
def bindings(draw):
    """Images of a subset of the coordinates: the identity, a constant, a
    polynomial, a rational function, or a numerator over one denominator
    that every image of that kind shares."""
    shared = draw(nonzero_polys)
    out = {}
    for v in CH.coords:
        kind = draw(st.sampled_from(("free", "identity", "constant", "poly", "rational", "shared")))
        if kind == "identity":
            out[v] = CH.parse(v)
        elif kind == "constant":
            out[v] = CH.parse(draw(st.sampled_from(COEFFS)))
        elif kind == "poly":
            out[v] = CH.parse(draw(polys))
        elif kind == "rational":
            out[v] = draw(rationals)
        elif kind == "shared":
            out[v] = CH.parse("%s/%s" % (draw(polys), shared))
    return out


def _to_sympy(text: str):
    return sympy.sympify(text.replace("^", "**"), locals=SYMS)


def _from_sympy(r):
    num, den = sympy.fraction(sympy.cancel(r))
    return CH.parse("(%s)/(%s)" % (str(num).replace("**", "^"), str(den).replace("**", "^")))


def _sympy_substitute(text: str, b):
    subs = {SYMS[v]: _to_sympy(str(img)) for v, img in b.items()}
    return _to_sympy(text).subs(subs, simultaneous=True)


def _sympy_den_vanishes(e, b):
    return sympy.cancel(_sympy_substitute(syntax.format_poly(e.den), b)) == 0


@settings(max_examples=100, deadline=None)
@given(rationals, bindings())
def test_substitute_agrees_with_sympy_and_the_termwise_reference(e, b):
    try:
        got = kernel.substitute(e, b)
    except SingularExpressionError:
        assert _sympy_den_vanishes(e, b)
        with pytest.raises(SingularExpressionError):
            helpers.substitute_termwise(e, b)
        return
    assert got == _from_sympy(_sympy_substitute(str(e), b))
    assert got == helpers.substitute_termwise(e, b)


# Generators with arguments: the images reach inside exp, sqrt and an
# abstract function and its derivative.  sympy would merge exp(a)*exp(b),
# which the kernel keeps as two generators, so only the reference compares.
applied = st.tuples(
    rationals, st.sampled_from(("exp(x - y)", "sqrt(z)", "phi(x)", "D(phi, x)", "phi(x)*exp(z)"))
).map(lambda t: t[0] * CH.parse(t[1]) + CH.parse(t[1]) ** 2)


@settings(max_examples=60, deadline=None)
@given(applied, bindings())
def test_substitute_inside_applications_agrees_with_the_termwise_reference(e, b):
    try:
        expected = helpers.substitute_termwise(e, b)
    except SingularExpressionError:
        with pytest.raises(SingularExpressionError):
            kernel.substitute(e, b)
        return
    assert kernel.substitute(e, b) == expected


def test_images_over_one_denominator_share_it():
    # Three images over one denominator: grouped, the common denominator is
    # q^4, not q^12.
    q = "(x^2 - y*z + 1)"
    b = {v: CH.parse("(%s)/%s" % (n, q)) for v, n in zip(CH.coords, ("x + z", "y - 2", "x*y"))}
    e = CH.parse("x^4 - 3*x*y^2*z + y*z^3/(x + y)")
    got = kernel.substitute(e, b)
    assert got == _from_sympy(_sympy_substitute(str(e), b))
    assert got == helpers.substitute_termwise(e, b)


def test_a_vanishing_denominator_raises():
    e = CH.parse("1/(x - y)")
    with pytest.raises(SingularExpressionError, match="substitution makes a denominator"):
        kernel.substitute(e, {"y": CH.parse("x")})
    assert _sympy_den_vanishes(e, {"y": CH.parse("x")})
    # Only the denominator's substitution decides: a vanishing numerator is zero.
    assert kernel.substitute(CH.parse("(x - y)/z"), {"y": CH.parse("x")}) == kernel.ZERO


def test_rule_applications_stay_canonical_under_substitution():
    ch = CH.with_rules([parse_rule("D(phi, x, 2) = x*phi", CH)])
    arg = ch.parse("y^2 + z")
    first = kernel.app("phi", (ch.parse("x"),), (1,), ch.rules)
    moved = kernel.substitute(first, {"x": arg}, ch.rules)
    assert moved == kernel.app("phi", (arg,), (1,), ch.rules)
    # d/dy phi'(y^2 + z) = phi''(y^2 + z)*2y, which the rule folds to
    # (y^2 + z)*phi(y^2 + z)*2y: the second derivative never appears.
    dy = kernel.differentiate(moved, "y", ch.rules)
    phi = kernel.app("phi", (arg,), (0,), ch.rules)
    assert dy == arg * phi * ch.parse("2*y")
    assert all(max(g.orders, default=0) < 2 for g in dy.atoms() if g.kind == kernel.APP_KIND)
    # Substituting into the folded form gives the fold of the substituted form.
    folded = kernel.differentiate(first, "x", ch.rules)
    assert folded == ch.parse("x*phi(x)")
    assert kernel.substitute(folded, {"x": arg}, ch.rules) == arg * phi
    assert kernel.substitute(folded, {"x": arg}, ch.rules) == helpers.substitute_termwise(
        folded, {"x": arg}, ch.rules
    )
