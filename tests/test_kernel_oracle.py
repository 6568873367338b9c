"""Canonical forms and differentiate against sympy, and the Poly rules.

Random rational expressions in x, y, z are built twice, once with the
kernel's arithmetic and once in sympy.  The kernel's canonical form must
equal sympy's ``cancel`` of the same expression, its derivative must
equal ``sympy.diff``, and its derivative along a field with such
components over x, y and z must equal the sum of components times
``sympy.diff``.  Every Poly the kernel makes on the way must keep the
representation's rules: a primitive integer part (nonzero ints with gcd 1)
and a positive content in lowest terms; a canonical denominator has content
1 and a positive leading term.  Its ``struct_key`` must be the tuple built
from Fraction coefficients in ``helpers.struct_key_reference``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from cinfstruct import kernel  # noqa: E402
from cinfstruct.charts import Chart  # noqa: E402

CH = Chart("O", ("x", "y", "z"))
SYMS = {v: sympy.Symbol(v) for v in CH.coords}
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-5, 3),
          Fraction(7, 4))


def _rational(c: Fraction):
    return sympy.Rational(c.numerator, c.denominator)


# Expression trees: a coordinate, a constant, ("p", terms) for a sum of
# up to three terms c*x^a*y^b*z^c, (op, left, right) or ("^", base, k).
# They are built inside the test, so that every Poly the arithmetic makes
# is seen.
_terms = st.lists(
    st.tuples(st.sampled_from(COEFFS), st.tuples(*[st.integers(0, 2)] * 3)), min_size=1, max_size=3
)
trees = st.recursive(
    st.sampled_from(CH.coords) | st.sampled_from(COEFFS) | _terms.map(lambda t: ("p", t)),
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids)
    | st.tuples(st.just("^"), kids, st.integers(-2, 2)),
    max_leaves=6,
)


def _build(tree):
    """(kernel Expression, sympy expression) of a tree; a division by zero
    or a negative power of zero is left out."""
    if isinstance(tree, str):
        return CH.parse(tree), SYMS[tree]
    if isinstance(tree, Fraction):
        return kernel.const_expr(tree), _rational(tree)
    if tree[0] == "p":
        e, s = kernel.ZERO, sympy.Integer(0)
        for c, exps in tree[1]:
            e = e + kernel.const_expr(c) * CH.parse("x^%d*y^%d*z^%d" % exps)
            s = s + _rational(c) * sympy.Mul(*[SYMS[v] ** k for v, k in zip(CH.coords, exps)])
        return e, s
    op, left, right = tree
    ea, sa = _build(left)
    if op == "^":
        if right < 0 and ea.is_zero_expr():
            return ea, sa
        return ea**right, sa**right
    eb, sb = _build(right)
    if op == "+":
        return ea + eb, sa + sb
    if op == "-":
        return ea - eb, sa - sb
    if op == "*":
        return ea * eb, sa * sb
    if eb.is_zero_expr():
        return ea, sa
    return ea / eb, sa / sb


def _poly_to_sympy(p):
    return sympy.Add(*[
        _rational(c) * sympy.Mul(*[SYMS[g.name] ** e for g, e in m]) for m, c in p.rational_terms()
    ])


def _from_sympy(r):
    num, den = sympy.fraction(sympy.cancel(r))
    return CH.parse("(%s)/(%s)" % (str(num).replace("**", "^"), str(den).replace("**", "^")))


@contextmanager
def _every_poly():
    """Collect every Poly constructed inside the block."""
    made = []
    init = kernel.Poly.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    kernel.Poly.__init__ = record
    try:
        yield made
    finally:
        kernel.Poly.__init__ = init


def _assert_rules(p):
    assert all(type(t) is int and t for t in p.terms.values())
    assert p.cn > 0 and p.cd > 0 and math.gcd(p.cn, p.cd) == 1
    if p.terms:
        assert math.gcd(*p.terms.values()) == 1
    else:
        assert (p.cn, p.cd) == (1, 1)
    assert p.struct_key() == helpers.struct_key_reference(p)


def _assert_canonical(e):
    _assert_rules(e.num)
    _assert_rules(e.den)
    assert (e.den.cn, e.den.cd) == (1, 1)
    assert e.den.leading()[1] > 0
    if e.num.is_zero():
        assert e.den.is_one()
    # Reduced: sympy finds no common factor of numerator and denominator.
    assert sympy.gcd(_poly_to_sympy(e.num), _poly_to_sympy(e.den)).is_number


def _check(e, s, made):
    for p in made:
        _assert_rules(p)
    _assert_canonical(e)
    assert e == _from_sympy(s)
    ours = _poly_to_sympy(e.num) / _poly_to_sympy(e.den)
    assert sympy.cancel(ours - s) == 0


@settings(max_examples=150, deadline=None)
@given(trees)
def test_canonical_form_matches_sympy_cancel(tree):
    with _every_poly() as made:
        e, s = _build(tree)
    _check(e, s, made)


@settings(max_examples=100, deadline=None)
@given(trees, st.sampled_from(CH.coords))
def test_differentiate_matches_sympy_diff(tree, var):
    e, s = _build(tree)
    with _every_poly() as made:
        de = kernel.differentiate(e, var)
    _check(de, sympy.diff(s, SYMS[var]), made)


@settings(max_examples=60, deadline=None)
@given(trees, st.lists(trees, min_size=3, max_size=3))
def test_directional_derivatives_match_sympy(tree, comp_trees):
    e, s = _build(tree)
    comps = [_build(t) for t in comp_trees]
    pairs = [(v, c) for v, (c, _) in zip(CH.coords, comps) if not c.is_zero_expr()]
    with _every_poly() as made:
        de = kernel.derive(e, pairs)
    want = sympy.Add(*[c * sympy.diff(s, SYMS[v]) for v, (_, c) in zip(CH.coords, comps)])
    _check(de, want, made)


def test_contents_and_signs_in_a_worked_case():
    # (3/4)*x - (3/2)*y over -(2/3)*x*y: the content goes to the numerator,
    # the denominator keeps the integer part with a positive leading term.
    e = CH.parse("(3/4*x - 3/2*y)/(-2/3*x*y)")
    assert e.num.struct_key() == helpers.struct_key_reference(e.num)
    assert [e.num.coeff(m) for m in e.num.descending()] == [Fraction(9, 4), Fraction(-9, 8)]
    assert sorted(e.num.terms.values()) == [-1, 2]
    assert (e.num.cn, e.num.cd) == (9, 8)
    assert (e.den.cn, e.den.cd) == (1, 1) and list(e.den.terms.values()) == [1]
    assert str(e) == "(9/4*y - 9/8*x)/(x*y)"
