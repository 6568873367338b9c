"""Kernel behavior: parsing, canonical forms, differentiation, substitution."""

import random
from fractions import Fraction

import pytest

from cinfstruct import kernel
from cinfstruct.charts import Chart, format_expression as fmt, parse_rule
from cinfstruct.errors import (
    ExpressionSyntaxError,
    RewriteError,
    SingularExpressionError,
    UnknownSymbolError,
)

import helpers

CH = Chart("M", ("x1", "x2", "x3", "x4"))


def test_rational_constants_fold():
    assert CH.parse("1/2 + 1/3") == CH.parse("5/6")
    assert CH.parse("2^10") == CH.parse("1024")
    assert CH.parse("(2/3)^2 - 4/9").is_zero_expr()
    assert CH.parse("x1^0") == CH.parse("1")


def test_canonical_form_ignores_written_order():
    assert CH.parse("x1*x2 + x3") == CH.parse("x3 + x2*x1")
    assert CH.parse("(x1 + x2)^2") == CH.parse("x1^2 + 2*x1*x2 + x2^2")


def test_common_factors_cancel():
    e = CH.parse("(x1^2 - x2^2)/(x1 - x2)")
    assert e == CH.parse("x1 + x2")
    assert (CH.parse("x1/x2") * CH.parse("x2/x1")) == kernel.ONE


def test_unary_minus_binds_tighter_than_power_base():
    # -x^2 reads as -(x^2); the squared negation needs parentheses
    assert CH.parse("-x1^2") == -(CH.parse("x1") ** 2)
    assert CH.parse("(-x1)^2") == CH.parse("x1^2")
    assert CH.parse("x1 - -x2") == CH.parse("x1 + x2")


def test_format_parse_round_trip_on_random_rationals():
    rng = random.Random(7)
    for _ in range(40):
        num = helpers.random_poly(rng, CH, degree=3, terms=3)
        den = helpers.random_poly(rng, CH, degree=2, terms=2)
        e = num / den
        assert CH.parse(fmt(e)) == e


def test_quotient_rule_derivative():
    e = CH.parse("x1 + x4/(x2 - x3*x4)")
    expect = CH.parse("x2/(x2 - x3*x4)^2")
    assert CH.differentiate(e, "x4") == expect
    assert CH.differentiate(e, "x1") == kernel.ONE


def test_elementary_chain_rules():
    x = "x1"
    assert CH.differentiate(CH.parse("exp(x1^2)"), x) == CH.parse("2*x1*exp(x1^2)")
    assert CH.differentiate(CH.parse("ln(x1)"), x) == CH.parse("1/x1")
    assert CH.differentiate(CH.parse("sin(cos(x1))"), x) == CH.parse(
        "-cos(cos(x1))*sin(x1)"
    )
    assert CH.differentiate(CH.parse("sqrt(x1)"), x) == CH.parse("1/(2*sqrt(x1))")


def _gens(e):
    """e's generators by key, through application arguments."""
    return {g.key: g for g in e.atoms()}


def test_every_route_to_a_generator_gives_the_one_interned_object():
    # Generators hash and compare by identity, so parsing, differentiating,
    # substituting and rewriting must all return the object interned for a key.
    ch = Chart("J", ("x", "y"))
    first = ch.parse("phi(x)*exp(x*y) + D(phi, x)/(y + sin(x))")
    second = ch.parse("D(phi, x, 1)/(sin(x) + y) + exp(y*x)*phi(x)")
    assert first == second
    gens = _gens(first)
    assert len(gens) == 6
    assert all(_gens(second)[key] is g for key, g in gens.items())
    # Monomials from one parse find their entries in a dict built from another.
    table = {m: c for m, c in first.num.terms.items()}
    assert all(table[m] == c for m, c in second.num.terms.items())
    assert len(table) == len(second.num.terms) == 3

    # A jet from differentiate, and an application with substituted arguments.
    (jet,) = ch.differentiate(ch.parse("phi(x)"), "x").num.gens()
    assert jet is _gens(ch.parse("D(phi, x)"))[jet.key]
    moved = kernel.substitute(ch.parse("phi(x)*exp(x)"), {"x": ch.parse("y + 1")}, ())
    direct = _gens(ch.parse("exp(1 + y)*phi(y + 1)"))
    assert sorted(direct) == sorted(g.key for g in moved.atoms())
    assert all(direct[g.key] is g for g in moved.atoms())

    # An Airy rewrite rule: D(phi1, x, 2) = (x + 1/4)*phi1.
    airy = helpers.airy_chart()
    rewritten = airy.differentiate(airy.parse("D(phi1, x)"), "x")
    assert rewritten == airy.parse("(x + 1/4)*phi1(x)")
    phi1 = _gens(airy.parse("phi1(x)"))
    assert [g for g in rewritten.atoms() if g.key in phi1] == list(phi1.values())


def test_substituting_the_step_constant_recovers_the_lifted_factor():
    # The reduced-chart factor mentions the constant; replacing it by the
    # first integral must give the factor on the full chart.
    lower = Chart("Mc", ("x1", "x2", "x3"), constants=("C2",))
    reduced = lower.parse("-(1 + (C2 - x1)*x3)/(x2^2*x3^2)")
    integral = CH.parse(helpers.DIM4_INTEGRAL_2)
    lifted = kernel.substitute(reduced, {"C2": integral}, ())
    assert lifted == CH.parse(helpers.DIM4_MU1)


def test_mixed_partials_commute_through_rewrite_rules():
    base = Chart("J", ("x", "u1"))
    ch = base.with_rules([parse_rule("D(phi, x, 2) = (x + 1/4)*phi", base)])
    e = ch.parse("D(phi, x)*u1^2 + phi(x)/u1")
    one_way = ch.differentiate(ch.differentiate(e, "x"), "u1")
    other = ch.differentiate(ch.differentiate(e, "u1"), "x")
    assert one_way == other


def test_higher_derivatives_fold_through_the_rule():
    base = Chart("J", ("x", "u1"))
    ch = base.with_rules([parse_rule("D(phi, x, 2) = (x + 1/4)*phi", base)])
    # phi''' = (phi'')' = ((x + 1/4) phi)' = phi + (x + 1/4) phi'
    assert ch.parse("D(phi, x, 3)") == ch.parse("phi(x) + (x + 1/4)*D(phi, x)")
    # and the second derivative itself is no longer a jet symbol
    assert ch.parse("D(phi, x, 2)") == ch.parse("(x + 1/4)*phi(x)")


def test_multi_argument_jets_refuse_differentiation():
    ch = Chart("N", ("x", "y"))
    e = ch.parse("F(x, y)")
    with pytest.raises(RewriteError):
        kernel.differentiate(e, "x", ())


@pytest.mark.parametrize(
    "text",
    ["x1 +", "(x1 + x2", "x1 $ 3", "D(F)", "2x1", "", "^2", "x1 * * x2"],
)
def test_malformed_input_is_a_syntax_error(text):
    with pytest.raises(ExpressionSyntaxError):
        CH.parse(text)


def test_unknown_symbols_are_rejected_with_position():
    with pytest.raises(UnknownSymbolError, match="position 5"):
        CH.parse("x1 + q")


def test_division_by_the_zero_expression_raises():
    with pytest.raises(SingularExpressionError):
        CH.parse("x1") / CH.parse("x2 - x2")
    with pytest.raises(SingularExpressionError):
        CH.parse("1/(x1 - x1)")


def test_denominator_normalization_invariants():
    # Reduced fractions: numerator and denominator share no factor, and the
    # denominator is integer-coprime with a positive leading coefficient.
    rng = random.Random(21)
    for _ in range(25):
        e = helpers.random_poly(rng, CH, 3, 3) / helpers.random_poly(rng, CH, 2, 2)
        g = kernel.poly_gcd(e.num, e.den)
        assert g.total_degree() == 0
        content = Fraction(e.den.cn, e.den.cd)
        assert content == 1
        _, lead = e.den.leading()
        assert lead > 0


def test_expression_symbols_and_constants():
    e = CH.parse("x1*x3 + 2")
    assert e.symbols() == {"x1", "x3"}
    c = CH.parse("-7/3")
    assert c.is_const() and c.const_value() == Fraction(-7, 3)
    assert not e.is_const()


def test_chart_validation_rejects_foreign_coordinates():
    small = Chart("S", ("x1", "x2"))
    e = CH.parse("x1*x4")
    with pytest.raises(UnknownSymbolError):
        small.validate(e)
    assert small.validate(CH.parse("x1 + x2")) == small.parse("x1 + x2")


def test_gcd_memo_drops_its_oldest_half(monkeypatch):
    # gcd(x1 + k, x2 + k) reaches the memo once per k.  With a limit of 8 the
    # memo never holds more than 8 entries, and a full memo forgets its
    # oldest half: the four it kept at its last drop (k = 13..16) and the
    # pairs since are still answered from it, the oldest are computed again.
    # A memo cleared all at once would have kept only k = 17..20.
    monkeypatch.setattr(kernel, "_GCD_CACHE", {})
    monkeypatch.setattr(kernel, "_GCD_CACHE_LIMIT", 8)
    computed = []
    heuristic = kernel._gcd_heuristic

    def counted(a, b):
        computed.append((a, b))
        return heuristic(a, b)

    monkeypatch.setattr(kernel, "_gcd_heuristic", counted)
    pairs = [(CH.parse("x1 + %d" % k).num, CH.parse("x2 + %d" % k).num) for k in range(1, 21)]
    for a, b in pairs:
        assert kernel.poly_gcd(a, b).is_one()
        assert len(kernel._GCD_CACHE) <= 8
    assert len(computed) == 20
    for a, b in pairs[-8:]:
        assert kernel.poly_gcd(b, a).is_one()
    assert len(computed) == 20
    kernel.poly_gcd(*pairs[0])
    assert len(computed) == 21
