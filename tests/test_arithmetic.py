"""Expression arithmetic against the full normalization.

The operators cancel before they multiply (Henrici 1956): a product takes
the gcds of each numerator with the other denominator, a sum the gcd of the
two denominators and then of the new numerator with that gcd, and a power
none.  On canonical operands built from one shared pool of factors, so that
denominators share factors and numerators cancel across the operands, each
operator must give the very Poly pair that ``Expression(n, d)`` gives for the
unreduced quotient n/d.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cinfstruct import kernel  # noqa: E402
from cinfstruct.charts import Chart  # noqa: E402

CH = Chart("A", ("x", "y", "z"))
FACTORS = [
    CH.parse(t).num
    for t in ("x", "y", "x + 1", "x - y", "2*x*y - 3", "y^2 + z", "x*z + 2*y + 1", "3*x - 2*z")
]
CONSTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 4), Fraction(5, 7))


def _operand(c, num_factors, den_factors):
    num = reduce(lambda p, q: p * q, (FACTORS[i] for i in num_factors), kernel.Poly.const(c))
    den = reduce(lambda p, q: p * q, (FACTORS[i] for i in den_factors), kernel._POLY_ONE)
    return kernel.Expression(num, den)


_indices = st.lists(st.integers(0, len(FACTORS) - 1), max_size=3)
operands = st.builds(_operand, st.sampled_from(CONSTS), _indices, _indices) | st.just(kernel.ZERO)


def _same(got, want):
    """The same canonical Poly pair: terms, content and struct_key."""
    for p, q in ((got.num, want.num), (got.den, want.den)):
        assert (p.terms, p.cn, p.cd) == (q.terms, q.cn, q.cd)
        assert p.struct_key() == q.struct_key()


@settings(max_examples=200, deadline=None)
@given(operands, operands)
def test_sums_products_and_quotients_match_the_full_normalization(p, q):
    a, b, c, d = p.num, p.den, q.num, q.den
    _same(p + q, kernel.Expression(a * d + c * b, b * d))
    _same(p - q, kernel.Expression(a * d - c * b, b * d))
    _same(p * q, kernel.Expression(a * c, b * d))
    if not q.is_zero_expr():
        _same(p / q, kernel.Expression(a * d, b * c))
        _same(p * q / q, p)
    # Sums that cancel to zero, and back to an operand.
    _same(p - p, kernel.ZERO)
    _same(p + q - q, p)
    _same(p * q - q * p, kernel.ZERO)


@settings(max_examples=100, deadline=None)
@given(operands, st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_powers_match_the_full_normalization(p, k):
    num, den = p.num, p.den
    if k < 0:
        if p.is_zero_expr():
            return
        num, den = den, num
    _same(p**k, kernel.Expression(num.pow_int(abs(k)), den.pow_int(abs(k))))


def test_a_sum_whose_numerator_shares_the_denominators_gcd():
    # b = x*y and d = x share g = x; t = (x - y) + y = x shares x with g.
    got = CH.parse("(x - y)/(x*y)") + CH.parse("1/x")
    _same(got, CH.parse("1/y"))


def test_coprime_sums_and_powers_take_no_gcd_of_products(monkeypatch):
    sizes = []
    gcd = kernel.poly_gcd

    def counted(a, b):
        sizes.append(max(len(a.terms), len(b.terms)))
        return gcd(a, b)

    monkeypatch.setattr(kernel, "poly_gcd", counted)
    p = CH.parse("(x^2 + y)/(x*z + 2*y + 1)")
    q = CH.parse("(y - z)/(3*x - 2*z + y^2)")
    largest = max(len(e.num.terms) + len(e.den.terms) for e in (p, q))
    # The product of the denominators, which the sum used to reduce against.
    assert len((p.den * q.den).terms) > largest

    total = p + q
    assert sizes and max(sizes) <= largest
    assert total == kernel.Expression(p.num * q.den + q.num * p.den, p.den * q.den)

    sizes.clear()
    for k in (-3, -1, 2, 3):
        p**k
    assert sizes == []
