"""The kernel's polynomial gcd: GCDHEU against sympy and against the PRS.

poly_gcd tries the heuristic integer gcd first and keeps the primitive PRS
as its fallback.  Both must return the same normalized polynomial, since
every canonical form rests on it, and both must agree with sympy up to a
unit.  The monomial order key must sort exactly as the comparator it
replaced.
"""

import functools
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cinfstruct import kernel  # noqa: E402
from cinfstruct.kernel import Poly, app_gen, elem_gen, sym, sym_gen  # noqa: E402

GENS = (
    sym_gen("x"),
    sym_gen("y"),
    sym_gen("C1"),
    app_gen("phi", (sym("x"),), (1,)),
    elem_gen("exp", sym("y")),
)


def _poly(terms) -> Poly:
    out = {}
    for coeff, exps in terms:
        mono = tuple(sorted(((GENS[i], e) for i, e in exps.items() if e), key=lambda t: t[0].key))
        out[mono] = out.get(mono, Fraction(0)) + coeff
    return Poly({m: c for m, c in out.items() if c})


# Exponents stay at most 2: the PRS, run on the same cases for comparison,
# can take minutes on products of higher degree in these five generators.
_exps = st.dictionaries(st.integers(0, len(GENS) - 1), st.integers(1, 2), max_size=3)
_terms = st.lists(
    st.tuples(st.integers(-9, 9).filter(bool).map(Fraction), _exps), min_size=1, max_size=4
)
# a*c and b*c with a planted common factor c; c may be a constant.
_pairs = st.tuples(_terms, _terms, _terms).map(
    lambda t: (_poly(t[0]) * _poly(t[2]), _poly(t[1]) * _poly(t[2]))
).filter(lambda ab: not ab[0].is_zero() and not ab[1].is_zero())


@contextmanager
def _gcd_path(max_size):
    """Run poly_gcd with the given size bound and a fresh memo."""
    saved = kernel._HEU_MAX_SIZE, kernel._GCD_CACHE
    kernel._HEU_MAX_SIZE, kernel._GCD_CACHE = max_size, {}
    try:
        yield
    finally:
        kernel._HEU_MAX_SIZE, kernel._GCD_CACHE = saved


def _gcd_heu(a, b):
    with _gcd_path(10**9):
        return kernel.poly_gcd(a, b)


def _gcd_prs(a, b):
    with _gcd_path(0):
        return kernel.poly_gcd(a, b)


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_gcd_agrees_with_sympy_up_to_a_unit(ab):
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("g0:%d" % len(GENS))
    index = {g: i for i, g in enumerate(GENS)}

    def to_sympy(p):
        return sympy.Poly(
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(syms[index[g]] ** e for g, e in m))
                for m, c in p.terms.items()
            ),
            *syms,
        )

    a, b = ab
    ours = to_sympy(_gcd_heu(a, b))
    _, theirs = sympy.gcd(to_sympy(a), to_sympy(b)).primitive()
    assert ours == theirs or ours == -theirs


@settings(max_examples=60, deadline=None)
@given(_pairs)
def test_prs_fallback_gives_the_identical_poly(ab):
    a, b = ab
    heu = _gcd_heu(a, b)
    prs = _gcd_prs(a, b)
    assert heu.terms == prs.terms
    assert heu.struct_key() == prs.struct_key()


def test_gcdheu_answers_without_the_fallback():
    # (x + y + 1)^2 * (x - 2*y) against (x + y + 1) * (3*x*y - 1): the
    # heuristic must settle this itself, and agree with the PRS.
    x, y, one = Poly.from_gen(GENS[0]), Poly.from_gen(GENS[1]), Poly.const(1)
    c = x + y + one
    a = c * c * (x - y.scale(2))
    b = c * (x * y.scale(3) - one)
    got = kernel._gcd_heuristic(a, b)
    assert got is not None
    assert got.terms == c.terms
    assert _gcd_prs(a, b).terms == c.terms


def test_a_candidate_dividing_only_one_input_is_rejected():
    # The first evaluation point makes x + 6 the candidate for
    # gcd(x + 6, x^2 + 1); it divides the first input only, so GCDHEU must
    # move on to the cofactors and further points instead of accepting it.
    x, one = Poly.from_gen(GENS[0]), Poly.const(1)
    a = x + Poly.const(6)
    b = x * x + one
    assert kernel._gcd_heuristic(a, b).terms == one.terms
    assert _gcd_prs(a, b).terms == one.terms


def test_gcdheu_matches_the_prs_on_a_seeded_battery():
    rng = random.Random(0)

    def rand_poly():
        terms = []
        for _ in range(rng.randint(1, 4)):
            exps = {i: rng.randint(1, 2) for i in rng.sample(range(len(GENS)), rng.randint(0, 3))}
            terms.append((Fraction(rng.randint(-9, 9)), exps))
        return _poly(terms)

    for _ in range(300):
        c = rand_poly()
        a, b = rand_poly() * c, rand_poly() * c
        if a.is_zero() or b.is_zero():
            continue
        assert _gcd_heu(a, b).terms == _gcd_prs(a, b).terms


def _reference_mono_cmp(m1, m2) -> int:
    """Graded lex: total degree first, then exponents along descending gen key."""
    d1, d2 = sum(e for _, e in m1), sum(e for _, e in m2)
    if d1 != d2:
        return -1 if d1 < d2 else 1
    i, j = len(m1) - 1, len(m2) - 1
    while i >= 0 or j >= 0:
        if i < 0:
            return -1
        if j < 0:
            return 1
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1.key == g2.key:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i -= 1
            j -= 1
        elif g1.key > g2.key:
            return 1
        else:
            return -1
    return 0


_monos = st.lists(
    st.dictionaries(st.integers(0, len(GENS) - 1), st.integers(1, 4), max_size=len(GENS)),
    min_size=2,
    max_size=12,
).map(
    lambda es: [next(iter(_poly([(Fraction(1), e)]).terms)) for e in es]
)


@settings(max_examples=200, deadline=None)
@given(_monos)
def test_order_key_sorts_as_the_reference_comparator(monos):
    expect = sorted(monos, key=functools.cmp_to_key(_reference_mono_cmp))
    assert sorted(monos, key=kernel._mono_key) == expect
    assert max(monos, key=kernel._mono_key) == expect[-1]
