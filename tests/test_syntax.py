"""The parser and the printer against their references, and their cost model.

``syntax.parse`` keeps polynomial sub-expressions as kernel Polys, and
``syntax.format_expression`` formats each canonical form once.  Both must
agree with ``helpers.parse_reference`` and
``helpers.format_expression_reference``, the Expression-per-token parser and
the uncached printer they replace: the same canonical form, or the same
exception with the same message, for every text; the same text for every
expression.  Texts are generated over the Airy chart, so jets and ``D(...)``
go through its rewrite rules.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import helpers  # noqa: E402
from cinfstruct import kernel, syntax  # noqa: E402
from cinfstruct.errors import CinfstructError  # noqa: E402

AIRY = helpers.airy_chart()

LEAVES = (
    "x", "u", "u1", "u2",
    "0", "1", "2", "7", "12", "0.5", "1.25", "3/4",
    "phi1(x)", "D(phi1, x)", "D(phi2, x, 2)", "D(phi1, x, 3)", "D(phi1, u1, 2)",
    "exp_half(x)", "G(x)", "F(x, u)", "D(G, x, 0)",
)


def _combine(kids):
    pair = st.tuples(kids, kids)
    return (
        pair.map(lambda t: "%s + %s" % t)
        | pair.map(lambda t: "%s - %s" % t)
        | pair.map(lambda t: "%s*%s" % t)
        | pair.map(lambda t: "(%s)*(%s)" % t)
        | pair.map(lambda t: "(%s)/(%s)" % t)
        | pair.map(lambda t: "%s/%s" % t)
        | kids.map(lambda a: "-%s" % a)
        | kids.map(lambda a: "-(%s)" % a)
        | kids.map(lambda a: "((%s))" % a)
        | st.tuples(kids, st.integers(-2, 3)).map(lambda t: "(%s)^%d" % t)
        | st.tuples(kids, st.integers(0, 3)).map(lambda t: "%s^(%d)" % t)
        | kids.map(lambda a: "exp(%s)" % a)
        | kids.map(lambda a: "sin(%s)" % a)
        | kids.map(lambda a: "phi2(%s)" % a)
        | kids.map(lambda a: "D(phi1, %s, 2)" % a)
    )


texts = st.recursive(st.sampled_from(LEAVES), _combine, max_leaves=8)

# Token soup: mostly malformed, sometimes well formed.
TOKENS = (
    "x", "u1", "q", "phi1", "exp", "D", "0", "2", "0.5", "+", "-", "*", "/", "^",
    "(", ")", ",", " ", "$", "²",
)
soups = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)


def _outcome(parse, text):
    """The canonical key, or the exception's type and message."""
    try:
        return ("ok", parse(text).key)
    except CinfstructError as exc:
        return (type(exc).__name__, str(exc))


def _parse_new(text):
    return syntax.parse(text, allowed=AIRY.allowed, rules=AIRY.rules)


def _parse_old(text):
    return helpers.parse_reference(text, allowed=AIRY.allowed, rules=AIRY.rules)


@settings(max_examples=200, deadline=None)
@given(texts)
def test_parse_matches_the_reference_parser(text):
    assert _outcome(_parse_new, text) == _outcome(_parse_old, text)


@settings(max_examples=200, deadline=None)
@given(soups)
def test_parse_matches_the_reference_on_malformed_text(text):
    assert _outcome(_parse_new, text) == _outcome(_parse_old, text)


@pytest.mark.parametrize(
    "text",
    [
        "((x - (u + (u1 - 2))))*((u2))",
        "-x^2 - -u + -(-u1)",
        "(x + u)^3 - (x - u)^-2 + u1^(0)",
        "0.25*x - 1.5 + 2/4",
        "x/3/5 - u/(x + 1)",
        "(x^2 - u^2)/(x - u)",
        "exp(x/2)*sin(u1^2 - 1)",
        "D(phi1, x, 3) - D(phi2, x)*phi1(x)",
        "D(phi1, u1 + 1, 2)",
        "x/0",
        "(x - x)^-1",
        "D(exp, x)",
        "exp(x, u)",
        "x + q",
    ],
)
def test_parse_matches_the_reference_on_each_construct(text):
    assert _outcome(_parse_new, text) == _outcome(_parse_old, text)


def test_rule_right_hand_sides_still_apply_bare_names():
    rhs = "(x + 1/4)*psi - u1*psi^2"
    got = syntax.parse(rhs, allowed={"x", "u1"}, auto_apply_var="x")
    assert got == helpers.parse_reference(rhs, allowed={"x", "u1"}, auto_apply_var="x")
    assert syntax.format_expression(got) == "-u1*psi(x)^2 + x*psi(x) + 1/4*psi(x)"


POLYNOMIAL_TEXTS = (
    "(-2)*x3 + (2)*x2",
    "((x1 - 2*x2)^3 - x3/4)*(0.5*x4 + 1/3) - -x1^2",
    "x1^0 - 7 + (x2 + x3)^2/(-6)",
    "0",
)


@pytest.mark.parametrize("text", POLYNOMIAL_TEXTS)
def test_a_polynomial_text_builds_one_expression_and_takes_no_gcd(monkeypatch, text):
    ch = helpers.dim4_chart()
    want = helpers.parse_reference(text, allowed=ch.allowed)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError("%s called while parsing %r" % (name, text))

        return call

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
        monkeypatch.setattr(kernel.Expression, op, refuse("Expression." + op))
    monkeypatch.setattr(kernel, "poly_gcd", refuse("poly_gcd"))
    built = []
    init = kernel.Expression.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel.Expression, "__init__", counting_init)
    got = ch.parse(text)
    assert len(built) == 1
    assert got.key == want.key


# ---------------------------------------------------------------------------
# The printer.


def _kernel_outputs(e, f):
    """Sums, quotients, products, derivatives and substitutions of e and f."""
    outs = [e, f, e + f, e - f, e * f]
    if not f.is_zero_expr():
        outs.append(e / f)
    for var in ("x", "u1"):
        outs.append(kernel.differentiate(e, var, AIRY.rules))
    outs.append(kernel.derive(f, (("x", e), ("u", kernel.ONE)), AIRY.rules))
    outs.append(kernel.substitute(e, {"u": f, "x": AIRY.parse("x + 1")}, AIRY.rules))
    return outs


@settings(max_examples=100, deadline=None)
@given(texts, texts)
def test_the_cached_printer_matches_the_reference_printer(a, b):
    try:
        e, f = _parse_new(a), _parse_new(b)
        outs = _kernel_outputs(e, f)
    except CinfstructError:
        return
    for out in outs:
        want = helpers.format_expression_reference(out)
        assert syntax.format_expression(out) == want
        assert syntax.format_expression(out) == want  # the cached text


@pytest.mark.parametrize(
    "text",
    [
        helpers.AIRY_MU3,
        helpers.AIRY_F2,
        "-(3/4)*x^2*u + 5/6*u1 - 1/2 + exp(x)^2*sin(x/3)",
        "(2*x*u - 4)/(6*u1^2 + 3)",
        "D(phi1, x, 3)/G(x) + phi2(u1)^2",
    ],
)
def test_the_printer_matches_on_jets_and_elementary_functions(text):
    e = AIRY.parse(text)
    for out in [e] + [kernel.differentiate(e, v, AIRY.rules) for v in AIRY.coords]:
        assert syntax.format_expression(out) == helpers.format_expression_reference(out)


def test_a_second_call_formats_nothing(monkeypatch):
    calls = []
    format_poly = syntax.format_poly

    def counting(p):
        calls.append(p)
        return format_poly(p)

    monkeypatch.setattr(syntax, "format_poly", counting)
    e = AIRY.parse(helpers.AIRY_F3)
    deriv = kernel.differentiate(e, "x", AIRY.rules)
    first = syntax.format_expression(deriv)
    n = len(calls)
    assert n >= 2
    assert syntax.format_expression(deriv) == first
    assert repr(deriv) == first
    assert len(calls) == n
    # The generators inside keep their text too: a new expression over the
    # same jets formats only its own two polynomials.
    syntax.format_expression(deriv + kernel.ONE)
    assert len(calls) == n + 2


# ---------------------------------------------------------------------------
# Monomial order: every monomial the kernel builds lists its generators in
# strictly ascending key order, which _mono_key and the printer rely on.


def _ascending(p):
    return all(
        all(a[0].key < b[0].key for a, b in zip(m, m[1:])) and all(e > 0 for _, e in m)
        for m in p.terms
    )


@settings(max_examples=100, deadline=None)
@given(texts, texts, texts)
def test_every_kernel_monomial_is_in_ascending_generator_order(a, b, c):
    try:
        e, f, g = _parse_new(a), _parse_new(b), _parse_new(c)
    except CinfstructError:
        return
    p, q, r = e.num, f.num, g.num
    polys = [p * q, p * r, (p * q) * r]
    if not q.is_zero():
        polys.append(kernel.exact_div(p * q, q))
    if not q.is_zero() and not r.is_zero():
        polys.append(kernel.exact_div((p + r) * q, q))
        # GCDHEU packs the inputs and unpacks its gcd.
        polys.append(kernel.poly_gcd((p + r) * q, (r - p) * q))
    try:
        derived = [
            kernel.derive(e, (("x", f), ("u1", kernel.ONE)), AIRY.rules),
            kernel.substitute(e, {"u": f, "u1": g}, AIRY.rules),
        ]
    except CinfstructError:
        derived = []
    for d in derived:
        polys += [d.num, d.den]
    for poly in polys:
        assert _ascending(poly)


def test_the_gcdheu_unpack_lists_generators_in_ascending_order():
    ch = helpers.dim4_chart()
    p = ch.parse("x4^3*x1 - 2*x2*x3^2 + x1*x2*x3*x4").num
    pk = kernel._Packing((p,))
    unpacked = kernel.Poly(pk.unpack(pk.pack(p)))
    assert unpacked.terms == p.terms
    assert _ascending(unpacked)
