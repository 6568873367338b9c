"""Exact rational-function arithmetic over opaque generators.

Every symbolic object downstream (vector field components, form coefficients,
certificates) is an :class:`Expression`: a quotient of two sparse multivariate
polynomials whose "variables" are *generators*.  A generator is either a plain
symbol (chart coordinate or constant), an abstract-function application such
as ``phi1(x)`` carrying a derivative multi-index, or an elementary application
such as ``exp(x)``.  Generators are interned, one object per key, and
compare by identity.  Construction canonicalizes eagerly: products are
expanded, the gcd of numerator and denominator is removed, and the denominator
is scaled to integer-coprime coefficients with a positive leading coefficient
in a fixed graded-lexicographic monomial order.  Two expressions therefore
compare equal exactly when they are the same rational function of their
generators.

The operators rely on their operands being canonical already and take gcds
of the operands, not of their products (Henrici 1956; Knuth, TAOCP 2,
4.5.1): a product (a/b)(c/d) takes gcd(a, d) and gcd(c, b); a sum over equal
denominators takes one gcd against the denominator, and over other
denominators gcd(b, d), then, unless that is 1, the new numerator's gcd with
it; a power takes none.  No gcd is taken with a constant side.

A :class:`Poly` is a primitive integer part (int coefficients with gcd 1)
times a positive rational content kept as two ints, so no coefficient
arithmetic runs on Fractions.  A product of primitive parts is primitive
(Gauss's lemma), so a product takes no gcd; a sum takes one integer gcd, and
the gcd memo is keyed by the primitive parts themselves.  A monomial lists
its generators in strictly ascending key order.  ``Poly.descending()`` sorts
a Poly's monomials into descending graded-lex order once, and both
``struct_key`` and the printer read that list.  An :class:`Expression` and
a :class:`Gen` each hold their printed text in a ``_text`` slot, which
``syntax`` fills on first use, so each canonical form is formatted once.
The parser builds polynomial text with Poly arithmetic and wraps the result
with :func:`from_poly`: a polynomial over 1 is already canonical.

The gcd behind every canonical form is the heuristic integer gcd GCDHEU
(Char, Geddes & Gonnet 1989): it evaluates the integer-coefficient inputs at
large integers, takes an integer gcd, rebuilds the polynomial from its
xi-adic digits and keeps it only after exact trial division.  The primitive
PRS over the rationals is the fallback.  It runs when a size test predicts
huge evaluated integers, and when GCDHEU fails at all of its evaluation
points.  Both return the same normalized polynomial, so the choice never
shows in a canonical form.

A derivative along X = sum c d/dvar (a partial derivative is one term) is
one polynomial derivation D = w X, w the lcm of the generators' image
denominators: D n and D d are each one sum, and with g = gcd(d, D d) the
only other gcds are of the new numerator with g and with w (Bronstein,
Symbolic Integration I, ch. 3), never with d^2.
Differentiation applies registered rewrite rules on the fly, so derivative
applications at or above a rule's order never appear in a canonical
expression.  Rules must strictly lower derivative orders; a depth guard turns
accidental cross-rule cycles into :class:`~cinfstruct.errors.RewriteError`.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

from .errors import RewriteError, SingularExpressionError

__all__ = [
    "Expression",
    "Gen",
    "RewriteRule",
    "sym",
    "const_expr",
    "app",
    "elem",
    "derive",
    "differentiate",
    "substitute",
    "ELEMENTARY_FUNCTIONS",
]

ELEMENTARY_FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt")

_SYM, _APP, _ELEM = 0, 1, 2
SYM_KIND, APP_KIND, ELEM_KIND = _SYM, _APP, _ELEM


class Gen:
    """An interned opaque generator (symbol, jet, or elementary application).

    ``_intern`` builds the one Gen of each key, so two generators are equal
    exactly when they are the same object: a Gen hashes and compares by
    identity, and orders by key.  ``_text`` holds its printed form once
    ``syntax.format_gen`` has built it.
    """

    __slots__ = ("kind", "name", "args", "orders", "key", "_text")

    def __init__(self, kind, name, args, orders, key):
        self.kind = kind
        self.name = name
        self.args = args        # tuple[Expression, ...] for _APP/_ELEM, () for _SYM
        self.orders = orders    # tuple[int, ...] derivative multi-index (_APP only)
        self.key = key
        self._text = None

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        from . import syntax

        return syntax.format_gen(self)


_GEN_CACHE: dict[tuple, Gen] = {}


def _intern(kind, name, args, orders, key) -> Gen:
    g = _GEN_CACHE.get(key)
    if g is None:
        g = Gen(kind, name, args, orders, key)
        _GEN_CACHE[key] = g
    return g


def sym_gen(name: str) -> Gen:
    return _intern(_SYM, name, (), (), (_SYM, name))


def app_gen(name: str, args, orders) -> Gen:
    args = tuple(args)
    orders = tuple(int(k) for k in orders)
    if len(args) != len(orders):
        raise ValueError("argument/order arity mismatch")
    key = (_APP, name, orders, tuple(a.key for a in args))
    return _intern(_APP, name, args, orders, key)


def elem_gen(func: str, arg) -> Gen:
    if func not in ELEMENTARY_FUNCTIONS:
        raise ValueError("not an elementary function: %r" % (func,))
    key = (_ELEM, func, arg.key)
    return _intern(_ELEM, func, (arg,), (), key)


# --------------------------------------------------------------------------
# Monomials: tuples of (generator, positive exponent) pairs in strictly
# ascending generator-key order.  _mono_key and the printer read that order.

_MONO_ONE: tuple = ()


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1 is g2:
            out.append((g1, e1 + e2))
            i += 1
            j += 1
        elif g1.key < g2.key:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_div(m1, m2):
    """m1 / m2 as a monomial, or None when not divisible."""
    if not m2:
        return m1
    out = dict(m1)
    for g, e in m2:
        r = out.get(g, 0) - e
        if r < 0:
            return None
        if r == 0:
            out.pop(g, None)
        else:
            out[g] = r
    return tuple(sorted(out.items(), key=lambda t: t[0].key))


def _mono_degree(m) -> int:
    return sum(e for _, e in m)


def _mono_key(m):
    """Graded lex: total degree first, then exponents along descending gen key."""
    return (sum([e for _, e in m]), [(g.key, e) for g, e in reversed(m)])


# --------------------------------------------------------------------------
# Sparse polynomials.


class Poly:
    """Sparse polynomial cn/cd * sum(t * m) with a primitive integer part.

    `terms` maps each monomial to a nonzero int, and those ints have gcd 1;
    signs stay in `terms`.  The content cn/cd is two coprime positive ints.
    The zero polynomial has empty `terms` (and content 1).  A Poly is never
    mutated, so copies that differ only in content share one `terms` dict.
    ``rational_terms()`` reads the rational coefficients in `terms` order.
    ``descending()`` sorts the monomials into descending graded-lex order
    once per Poly; ``struct_key`` and the printer both read that list.
    """

    __slots__ = ("terms", "cn", "cd", "_lead", "_desc", "_skey")

    def __init__(self, terms: dict, cn: int = 1, cd: int = 1, lead=None):
        self.terms = terms
        self.cn = cn
        self.cd = cd
        self._lead = lead  # leading monomial, found on first use
        self._desc = None
        self._skey = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        if isinstance(c, int):
            n, d = c, 1
        else:
            c = Fraction(c)
            n, d = c.numerator, c.denominator
        if not n:
            return _POLY_ZERO
        return Poly({_MONO_ONE: 1 if n > 0 else -1}, abs(n), d, _MONO_ONE)

    @staticmethod
    def from_gen(g: Gen) -> "Poly":
        return Poly({((g, 1),): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _MONO_ONE in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.coeff(_MONO_ONE)

    def is_one(self) -> bool:
        terms = self.terms
        return len(terms) == 1 and terms.get(_MONO_ONE) == 1 and self.cn == 1 and self.cd == 1

    # -- inspection --------------------------------------------------------

    def coeff(self, m) -> Fraction:
        """The rational coefficient of the monomial m, a term of self."""
        return Fraction(self.terms[m] * self.cn, self.cd)

    def rational_terms(self) -> list:
        """(monomial, Fraction coefficient) pairs in `terms` order."""
        cn, cd = self.cn, self.cd
        return [(m, Fraction(t * cn, cd)) for m, t in self.terms.items()]

    def gens(self) -> set:
        out = set()
        for m in self.terms:
            for g, _ in m:
                out.add(g)
        return out

    def total_degree(self) -> int:
        return max((_mono_degree(m) for m in self.terms), default=0)

    def _lead_mono(self):
        m = self._lead
        if m is None:
            m = self._lead = max(self.terms, key=_mono_key)
        return m

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        m = self._lead_mono()
        return m, self.coeff(m)

    def descending(self) -> list:
        """The monomials in descending graded-lex order, sorted once."""
        order = self._desc
        if order is None:
            order = self._desc = sorted(self.terms, key=_mono_key, reverse=True)
        return order

    def struct_key(self) -> tuple:
        """Per term in descending graded-lex order: the monomial's (gen key,
        exponent) pairs, then the coefficient's numerator and denominator
        in lowest terms."""
        key = self._skey
        if key is None:
            terms, cn, cd = self.terms, self.cn, self.cd
            rows = []
            for m in self.descending():
                n = terms[m] * cn
                g = math.gcd(n, cd)
                rows.append((tuple((gen.key, e) for gen, e in m), n // g, cd // g))
            key = self._skey = tuple(rows)
        return key

    def primitive(self) -> "Poly":
        """The integer part, signs kept: self over its content."""
        if self.cn == 1 and self.cd == 1:
            return self
        return Poly(self.terms, 1, 1, self._lead)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        # Both integer parts over the common content n/d, the gcd of the
        # numerators over the lcm of the denominators (n and d are coprime).
        a, b, c, d = self.cn, self.cd, other.cn, other.cd
        if a == c and b == d:
            n, ka, kc = a, 1, 1
        else:
            n = math.gcd(a, c)
            d = b * d // math.gcd(b, d)
            ka, kc = a // n * (d // b), c // n * (d // other.cd)
        out = dict(self.terms) if ka == 1 else {m: ka * t for m, t in self.terms.items()}
        for m, t in other.terms.items():
            if kc != 1:
                t *= kc
            s = out.get(m)
            if s is None:
                out[m] = t
            else:
                s += t
                if s:
                    out[m] = s
                else:
                    del out[m]
        if not out:
            return _POLY_ZERO
        h = math.gcd(*out.values())
        if h != 1:
            out = {m: t // h for m, t in out.items()}
            g = math.gcd(h, d)
            n, d = n * (h // g), d // g
        return Poly(out, n, d)

    def _scaled(self, neg: bool, n: int, d: int) -> "Poly":
        """self * n/d, negated when neg, for coprime positive n and d."""
        if not self.terms:
            return self
        cn, cd = _qmul(self.cn, self.cd, n, d)
        if neg:
            return Poly({m: -t for m, t in self.terms.items()}, cn, cd, self._lead)
        if cn == self.cn and cd == self.cd:
            return self
        return Poly(self.terms, cn, cd, self._lead)

    def over(self, c: "Poly") -> "Poly":
        """self / c for a nonzero constant c."""
        return self._scaled(c.terms[_MONO_ONE] < 0, c.cd, c.cn)

    def __neg__(self) -> "Poly":
        return self._scaled(True, 1, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _POLY_ZERO
        if self.is_const():
            return other._scaled(self.terms[_MONO_ONE] < 0, self.cn, self.cd)
        if other.is_const():
            return self._scaled(other.terms[_MONO_ONE] < 0, other.cn, other.cd)
        # Gauss's lemma: a product of primitive polynomials is primitive.
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                if s is None:
                    out[m] = c
                else:
                    s += c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Poly(out, *_qmul(self.cn, self.cd, other.cn, other.cd))

    def pow_int(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power on Poly")
        result = _POLY_ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- univariate views ---------------------------------------------------

    def deg_in(self, g: Gen) -> int:
        d = 0
        for m in self.terms:
            for gg, e in m:
                if gg is g and e > d:
                    d = e
        return d

    def univ(self, g: Gen) -> dict:
        """View as univariate in g: degree -> Poly coefficient (g removed)."""
        out: dict = {}
        for m, c in self.terms.items():
            e = 0
            rest = []
            for gg, ee in m:
                if gg is g:
                    e = ee
                else:
                    rest.append((gg, ee))
            out.setdefault(e, {})[tuple(rest)] = c
        return {e: _from_ints(terms, self.cn, self.cd) for e, terms in out.items()}

    @staticmethod
    def from_univ(univ: dict, g: Gen) -> "Poly":
        pieces = []
        for e, coeff in univ.items():
            gm = ((g, e),) if e else _MONO_ONE
            shifted = {_mono_mul(m, gm): c for m, c in coeff.terms.items()}
            pieces.append((1, Poly(shifted, coeff.cn, coeff.cd)))
        return _sum(pieces)


_POLY_ZERO = Poly({})
_POLY_ONE = Poly({_MONO_ONE: 1}, 1, 1, _MONO_ONE)


def _qmul(a: int, b: int, c: int, d: int):
    """(a/b)(c/d) in lowest terms, for a/b and c/d positive in lowest terms."""
    if b == 1 and d == 1:
        return a * c, 1
    g1, g2 = math.gcd(a, d), math.gcd(c, b)
    return (a // g1) * (c // g2), (b // g2) * (d // g1)


def _from_ints(terms: dict, n: int, d: int) -> Poly:
    """n/d * terms as a Poly: terms maps monomials to nonzero ints, n and d
    are positive."""
    if not terms:
        return _POLY_ZERO
    h = math.gcd(*terms.values())
    if h != 1:
        terms = {m: t // h for m, t in terms.items()}
        n *= h
    g = math.gcd(n, d)
    return Poly(terms, n // g, d // g)


def _sum(pairs) -> Poly:
    """The sum of k * p over pairs of an int k and a Poly p, built over one
    common content with one gcd; a term that cancels keeps its place until
    the end."""
    n, d = 0, 1
    for _, p in pairs:
        n = math.gcd(n, p.cn)
        d = math.lcm(d, p.cd)
    out: dict = {}
    for k, p in pairs:
        k *= p.cn // n * (d // p.cd)
        for m, t in p.terms.items():
            out[m] = out.get(m, 0) + k * t
    return _from_ints({m: t for m, t in out.items() if t}, n, d)


# --------------------------------------------------------------------------
# Polynomial gcd and exact division.  poly_gcd tries the heuristic integer
# gcd (GCDHEU) first and falls back to the primitive PRS when the size test
# rejects the inputs or every evaluation point fails.


def _normalize_primitive(p: Poly) -> Poly:
    """p's integer part with a positive leading coefficient."""
    if not p.terms:
        return p
    lead = p._lead_mono()
    if p.terms[lead] < 0:
        return Poly({m: -t for m, t in p.terms.items()}, 1, 1, lead)
    return p.primitive()


def exact_div(p: Poly, d: Poly) -> Poly:
    """Quotient p/d when the division is exact; raises otherwise."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return _POLY_ZERO
    if d.is_const():
        return p.over(d)
    # The contents divide apart.  Gauss's lemma: a primitive divisor of a
    # primitive polynomial leaves a primitive quotient, so the integer
    # parts divide over Z.
    cn, cd = _qmul(p.cn, p.cd, d.cd, d.cn)
    if len(d.terms) == 1:
        ((dm, unit),) = d.terms.items()  # unit is 1 or -1
        out = {}
        for m, t in p.terms.items():
            qm = _mono_div(m, dm)
            if qm is None:
                raise ArithmeticError("non-exact polynomial division")
            out[qm] = t * unit
        return Poly(out, cn, cd)
    pk = _Packing((p, d))
    q = _zz_quo(pk.pack(p), pk.pack(d), *_guard_bound(pk.degs, pk.width))
    if q is None:
        raise ArithmeticError("non-exact polynomial division")
    return Poly(pk.unpack(q), cn, cd)


def _prem(p: Poly, q: Poly, g: Gen) -> Poly:
    """Pseudo-remainder of p by q with respect to g (both nonzero in g)."""
    dq = q.deg_in(g)
    lq = q.univ(g)[dq]
    r = p
    while not r.is_zero():
        dr = r.deg_in(g)
        if dr < dq:
            break
        lr = r.univ(g)[dr]
        shift = Poly.from_gen(g).pow_int(dr - dq) if dr > dq else _POLY_ONE
        r = (r * lq - q * lr * shift).primitive()
    return r


def _gcd_list(polys) -> Poly:
    ordered = sorted(polys, key=lambda p: (len(p.terms), p.total_degree()))
    acc = ordered[0]
    for p in ordered[1:]:
        if acc.is_one():
            return acc
        acc = poly_gcd(acc, p)
    return acc


def _mono_content(p: Poly):
    """Largest monomial dividing every term of p (as a sorted exponent tuple)."""
    it = iter(p.terms)
    common = dict(next(it))
    for m in it:
        if not common:
            return ()
        d = dict(m)
        for g in list(common):
            e = d.get(g, 0)
            if e <= 0:
                del common[g]
            elif e < common[g]:
                common[g] = e
    return tuple(sorted(common.items(), key=lambda t: t[0].key))


def _mono_gcd(m1, m2):
    d2 = dict(m2)
    out = []
    for g, e in m1:
        e2 = d2.get(g, 0)
        if e2:
            out.append((g, min(e, e2)))
    return tuple(out)


def _shift_out(p: Poly, m) -> Poly:
    """Divide every term of p by the monomial m (must divide all of them)."""
    if not m:
        return p
    return Poly({_mono_div(t, m): c for t, c in p.terms.items()}, p.cn, p.cd)


# The gcd memo, keyed by the unordered pair of normalized inputs.  When it
# holds _GCD_CACHE_LIMIT entries, the oldest half is dropped.
_GCD_CACHE: dict = {}
_GCD_CACHE_LIMIT = 100_000


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive positive gcd over the rationals (unit -> 1)."""
    if a.is_zero():
        return _normalize_primitive(b)
    if b.is_zero():
        return _normalize_primitive(a)
    if a.is_const() or b.is_const():
        return _POLY_ONE
    a = _normalize_primitive(a)
    b = _normalize_primitive(b)
    # Both have content 1, so their integer parts are the whole polynomials.
    if a.terms == b.terms:
        return a
    ka, kb = frozenset(a.terms.items()), frozenset(b.terms.items())
    ckey = (ka, kb) if hash(ka) <= hash(kb) else (kb, ka)
    hit = _GCD_CACHE.get(ckey)
    if hit is not None:
        return hit

    # Monomial factors split off multiplicatively and cheaply.
    ma, mb = _mono_content(a), _mono_content(b)
    mc = _mono_gcd(ma, mb)
    a1 = _shift_out(a, ma)
    b1 = _shift_out(b, mb)

    g = _gcd_heuristic(a1, b1)
    if g is None:
        g = _gcd_deflated(a1, b1)
    if mc:
        g = Poly({_mono_mul(m, mc): c for m, c in g.terms.items()})
    if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
        for old in list(_GCD_CACHE)[: len(_GCD_CACHE) // 2]:
            del _GCD_CACHE[old]
    _GCD_CACHE[ckey] = g
    return g


# GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7, 1989).  The inputs
# are evaluated at the largest generator, v = xi, recursively down to two
# integers whose gcd is the image of the polynomial gcd; the candidate is
# rebuilt from its symmetric xi-adic digits.  With xi > 1 + 2*min(|f|, |g|)
# (max-norms of the integer coefficients at that level) a candidate that
# divides both inputs exactly over Z is their gcd, so the result is the same
# polynomial the PRS returns.

_HEU_TRIES = 6  # evaluation points per level, as in CGG
# Size test: the product over generators of (degree + 1) predicts the length
# of the evaluated integers.  Above this bound the PRS runs instead.  Timed
# on the gcds of the benchmark's pushed-pipeline and factor-queries rounds,
# GCDHEU was faster on sizes up to 62 500 and the PRS 10-30 times faster on
# sizes of 117 649 and more (e.g. 680 against 210 terms in 8 generators).
_HEU_MAX_SIZE = 65536


class _Packing:
    """Integer polynomials with each monomial packed into one int.

    One field of `width` bits per generator, the largest generator in the
    most significant field, so integer order is lex order.  The top bit of
    every field is a guard: a componentwise difference borrows exactly when a
    guard bit clears.  A field holds twice the largest degree, room for the
    product of a quotient term within the degree bounds and a divisor term.
    """

    __slots__ = ("gens", "degs", "width", "shift")

    def __init__(self, polys):
        deg: dict = {}
        for p in polys:
            for m in p.terms:
                for g, e in m:
                    if e > deg.get(g, 0):
                        deg[g] = e
        self.gens = sorted(deg, reverse=True)
        self.degs = tuple(deg[g] for g in self.gens)
        self.width = (2 * max(self.degs, default=0)).bit_length() + 1
        n = len(self.gens)
        self.shift = {g: self.width * (n - 1 - i) for i, g in enumerate(self.gens)}

    def pack(self, p: Poly) -> dict:
        """p's integer part with each monomial packed."""
        shift = self.shift
        return {sum(e << shift[g] for g, e in m): c for m, c in p.terms.items()}

    def unpack(self, f: dict) -> dict:
        """Packed monomials back to tuples: a `terms` dict."""
        field = (1 << self.width) - 1
        ascending = [(g, self.shift[g]) for g in reversed(self.gens)]
        out = {}
        for key, c in f.items():
            m = []
            for g, sh in ascending:
                e = (key >> sh) & field
                if e:
                    m.append((g, e))
            out[tuple(m)] = c
        return out


def _guard_bound(degs: tuple, width: int):
    """Guard bits and packed degree bounds for fields holding degs."""
    guard = 0
    bound = 0
    for k, d in enumerate(reversed(degs)):
        guard |= 1 << (width * (k + 1) - 1)
        bound |= d << (width * k)
    return guard, bound


def _gcd_heuristic(a: Poly, b: Poly) -> Optional[Poly]:
    """GCDHEU of two primitive polys with no monomial content, or None."""
    if a.is_const() or b.is_const():
        return _POLY_ONE
    if a.terms == b.terms:  # both have content 1: the inputs are normalized
        return a
    pk = _Packing((a, b))
    if math.prod(d + 1 for d in pk.degs) > _HEU_MAX_SIZE:
        return None
    got = _heu(pk.pack(a), pk.pack(b), pk.degs, pk.width)
    if got is None:
        return None
    # A divisor of a primitive polynomial is primitive.
    return _normalize_primitive(Poly(pk.unpack(got[0])))


def _heu(f: dict, g: dict, degs: tuple, width: int):
    """(h, f/h, g/h) with h = gcd(f, g) over Z, or None when GCDHEU fails.

    f and g are packed polynomials in len(degs) generators, degs[0] the
    degree bound of the one in the most significant field.
    """
    n = len(degs)
    if n == 0:
        a, b = f[0], g[0]
        h = math.gcd(a, b)
        return {0: h}, {0: a // h}, {0: b // h}
    cont = math.gcd(math.gcd(*f.values()), math.gcd(*g.values()))
    if cont != 1:
        f = {m: c // cont for m, c in f.items()}
        g = {m: c // cont for m, c in g.items()}
    guard, bound = _guard_bound(degs, width)
    quo = functools.partial(_zz_quo, guard=guard, bound=bound)
    top = width * (n - 1)
    # The bound plus a margin: a larger first point is more often lucky.
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        fe = _heu_eval(f, xi, top)
        ge = _heu_eval(g, xi, top)
        if fe and ge:
            sub = _heu(fe, ge, degs[1:], width)
            if sub is None:
                return None
            he, cfe, cge = sub
            h = _heu_interp(he, xi, top, degs[0])
            if h is not None:
                c = math.gcd(*h.values())
                if c != 1:
                    h = {m: v // c for m, v in h.items()}
                cff = quo(f, h)
                if cff is not None:
                    cfg = quo(g, h)
                    if cfg is not None:
                        return _heu_scale(h, cont), cff, cfg
            # The cofactors are images too: rebuild one and divide by it.
            cff = _heu_interp(cfe, xi, top, degs[0])
            if cff is not None:
                h = quo(f, cff)
                if h is not None:
                    cfg = quo(g, h)
                    if cfg is not None:
                        return _heu_scale(h, cont), cff, cfg
            cfg = _heu_interp(cge, xi, top, degs[0])
            if cfg is not None:
                h = quo(g, cfg)
                if h is not None:
                    cff = quo(f, h)
                    if cff is not None:
                        return _heu_scale(h, cont), cff, cfg
        xi = xi * 73794 * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _heu_scale(h: dict, c: int) -> dict:
    return h if c == 1 else {m: v * c for m, v in h.items()}


def _heu_eval(f: dict, xi: int, top: int) -> dict:
    """f with its most significant generator (field at bit `top`) set to xi."""
    powers = [1]
    out: dict = {}
    low = (1 << top) - 1
    for m, c in f.items():
        e = m >> top
        while len(powers) <= e:
            powers.append(powers[-1] * xi)
        rest = m & low
        out[rest] = out.get(rest, 0) + c * powers[e]
    return {m: c for m, c in out.items() if c}


def _heu_interp(h: dict, xi: int, top: int, dmax: int) -> Optional[dict]:
    """Rebuild a polynomial in one more generator from symmetric xi-adic digits."""
    half = xi // 2
    out = {}
    for m, c in h.items():
        e = 0
        while c:
            c, r = divmod(c, xi)
            if r > half:
                r -= xi
                c += 1
            if r:
                if e > dmax:
                    return None
                out[m | (e << top)] = r
            e += 1
    return out


def _zz_quo(f: dict, h: dict, guard: int, bound: int) -> Optional[dict]:
    """f/h over Z for packed polynomials, or None when h does not divide f.

    Every quotient monomial must lie within the degree bound, which keeps
    every monomial formed inside its fields.
    """
    hs = sum(h.values())
    if hs and sum(f.values()) % hs:
        return None
    hm = max(h)
    hc = h[hm]
    rest = [(m, c) for m, c in h.items() if m != hm]
    limit = bound | guard
    r = dict(f)
    heap = [-m for m in r]
    heapq.heapify(heap)
    q = {}
    while heap:
        m = -heapq.heappop(heap)
        c = r.pop(m, 0)
        if not c:
            continue
        t = (m | guard) - hm
        if t & guard != guard:
            return None
        qm = t ^ guard
        if (limit - qm) & guard != guard:
            return None
        qc, rem = divmod(c, hc)
        if rem:
            return None
        q[qm] = qc
        for tm, tc in rest:
            k = qm + tm
            v = r.get(k)
            if v is None:
                r[k] = -qc * tc
                heapq.heappush(heap, -k)
            else:
                v -= qc * tc
                if v:
                    r[k] = v
                else:
                    del r[k]
    return q


def _gcd_deflated(a: Poly, b: Poly) -> Poly:
    """Primitive PRS gcd of two distinct, non-constant primitive polys with no
    monomial content: its caller runs it only where GCDHEU gave up."""
    # A one-shot exact division settles the common divisible case quickly.
    da, db = a.total_degree(), b.total_degree()
    if da != db:
        big, small = (a, b) if da > db else (b, a)
        try:
            exact_div(big, small)
            return small
        except ArithmeticError:
            pass

    g = max(a.gens() | b.gens())
    au, bu = a.univ(g), b.univ(g)
    cont_a = _gcd_list(au.values())
    cont_b = _gcd_list(bu.values())
    cont = poly_gcd(cont_a, cont_b)

    pa = Poly.from_univ({e: exact_div(c, cont_a) for e, c in au.items()}, g)
    pb = Poly.from_univ({e: exact_div(c, cont_b) for e, c in bu.items()}, g)
    if pa.deg_in(g) < pb.deg_in(g):
        pa, pb = pb, pa
    while not pb.is_zero():
        r = _prem(pa, pb, g)
        if r.is_zero():
            pa = pb
            break
        if r.deg_in(g) == 0:
            pa = _POLY_ONE
            break
        ru = r.univ(g)
        r = Poly.from_univ({e: exact_div(c, _gcd_list(ru.values())) for e, c in ru.items()}, g)
        pa, pb = pb, r

    if pa.deg_in(g) == 0:
        pp = _POLY_ONE
    else:
        pau = pa.univ(g)
        pp = Poly.from_univ({e: exact_div(c, _gcd_list(pau.values())) for e, c in pau.items()}, g)
    return _normalize_primitive(cont * pp)


# --------------------------------------------------------------------------
# Expressions: canonical quotients of polynomials.


def _normalize_pair(num: Poly, den: Poly):
    if den.is_zero():
        raise SingularExpressionError("denominator is identically zero")
    return _canon_coprime(*_cancel(num, den))


def _canon_coprime(num: Poly, den: Poly):
    """The canonical pair of num/den for coprime num and nonzero den."""
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    # The denominator keeps its integer part with a positive leading
    # coefficient, and the numerator takes its content and sign; dividing
    # by a monic-making rational instead lets huge fractions compound
    # across chained arithmetic.
    if den.is_const():
        return num.over(den), _POLY_ONE
    neg = den.terms[den._lead_mono()] < 0
    return num._scaled(neg, den.cd, den.cn), _normalize_primitive(den)


def _gcd(p: Poly, q: Poly) -> Poly:
    """poly_gcd, with no call when a side is constant: it shares no factor."""
    if p.is_const() or q.is_const():
        return _POLY_ONE
    return poly_gcd(p, q)


def _cancel(p: Poly, q: Poly):
    """p and q divided by their gcd."""
    g = _gcd(p, q)
    if g.is_one():
        return p, q
    return exact_div(p, g), exact_div(q, g)


def _product(a: Poly, b: Poly, c: Poly, d: Poly) -> "Expression":
    """(a/b)(c/d) for coprime a, b and coprime c, d: cancelling a against d
    and c against b leaves a coprime product (Henrici 1956)."""
    if a.is_zero() or c.is_zero():
        return ZERO
    a, d = _cancel(a, d)
    c, b = _cancel(c, b)
    return Expression(*_canon_coprime(a * c, b * d), _raw=True)


_Scalar = Union[int, Fraction]


class Expression:
    """Immutable canonical rational function of opaque generators.

    ``_text`` holds the printed form once ``syntax.format_expression`` has
    built it.
    """

    __slots__ = ("num", "den", "_key", "_hash", "_complexity", "_text")

    def __init__(self, num: Poly, den: Poly = _POLY_ONE, _raw: bool = False):
        if not _raw:
            num, den = _normalize_pair(num, den)
        self.num = num
        self.den = den
        self._key = None
        self._hash = None
        self._complexity = None
        self._text = None

    # -- identity ----------------------------------------------------------

    @property
    def key(self) -> tuple:
        k = self._key
        if k is None:
            k = ("q", self.num.struct_key(), self.den.struct_key())
            self._key = k
        return k

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key)
            self._hash = h
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, (int, Fraction)):
            other = const_expr(other)
        if not isinstance(other, Expression):
            return NotImplemented
        return self.key == other.key

    def __repr__(self):
        from . import syntax

        return syntax.format_expression(self)

    # -- predicates ----------------------------------------------------------

    def is_zero_expr(self) -> bool:
        """Canonical (syntactic) zero; see zerotest.is_zero for the graded test."""
        return self.num.is_zero()

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant expression")
        return self.num.const_value() / self.den.const_value()

    # -- structure ------------------------------------------------------------

    def atoms(self) -> set:
        """All generators, descending through application arguments."""
        seen: set = set()
        stack = [self]
        while stack:
            e = stack.pop()
            for g in e.num.gens() | e.den.gens():
                if g not in seen:
                    seen.add(g)
                    stack.extend(g.args)
        return seen

    def symbols(self) -> set:
        return {g.name for g in self.atoms() if g.kind == _SYM}

    def has_elementary(self) -> bool:
        return any(g.kind == _ELEM for g in self.atoms())

    def complexity(self) -> int:
        """Node count used for pivot simplicity: smaller is simpler."""
        c = self._complexity
        if c is None:
            c = 0
            for poly in (self.num, self.den):
                for m, _ in poly.terms.items():
                    c += 1
                    for g, _e in m:
                        c += 1 + sum(a.complexity() for a in g.args)
            self._complexity = c
        return c

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Expression):
            return other
        if isinstance(other, (int, Fraction)):
            return const_expr(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.num, self.den, o.num, o.den
        # Canonical denominators have content 1, so equal terms are equal
        # denominators; the sum then takes one gcd against the denominator.
        if b is d or b.terms == d.terms:
            return Expression(a + c, b)
        # Otherwise the gcds are of denominators, never of products
        # (Henrici 1956): with g = gcd(b, d) and t = a (d/g) + c (b/g), the
        # sum is t / (b d/g) and gcd(t, b d/g) = gcd(t, g).  Over coprime
        # denominators no gcd is left to take.
        g = _gcd(b, d)
        if g.is_one():
            return Expression(*_canon_coprime(a * d + c * b, b * d), _raw=True)
        b, d = exact_div(b, g), exact_div(d, g)
        t, g = _cancel(a * d + c * b, g)
        return Expression(*_canon_coprime(t, b * d * g), _raw=True)

    __radd__ = __add__

    def __neg__(self):
        return Expression(-self.num, self.den, _raw=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _product(self.num, self.den, o.num, o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise SingularExpressionError("division by an identically zero expression")
        return _product(self.num, self.den, o.den, o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        k = int(k)
        if k == 0:
            return ONE
        num, den = self.num, self.den
        if k < 0:
            if num.is_zero():
                raise SingularExpressionError("zero raised to a negative power")
            num, den, k = den, num, -k
        # Powers of coprime polynomials are coprime: no gcd.
        return Expression(*_canon_coprime(num.pow_int(k), den.pow_int(k)), _raw=True)


ZERO = Expression(_POLY_ZERO, _POLY_ONE, _raw=True)
ONE = Expression(_POLY_ONE, _POLY_ONE, _raw=True)


def const_expr(c) -> Expression:
    c = Fraction(c)
    if not c:
        return ZERO
    if c == 1:
        return ONE
    return Expression(Poly.const(c), _POLY_ONE, _raw=True)


def sym(name: str) -> Expression:
    return Expression(Poly.from_gen(sym_gen(name)), _POLY_ONE, _raw=True)


def from_gen(g: Gen) -> Expression:
    return Expression(Poly.from_gen(g), _POLY_ONE, _raw=True)


def from_poly(p: Poly) -> Expression:
    """p over 1, which is canonical as it stands."""
    return Expression(p, _POLY_ONE, _raw=True)


# --------------------------------------------------------------------------
# Rewrite rules.


class RewriteRule:
    """``D(func, var, order) -> rhs``: defines the order-th derivative of func.

    The right-hand side is an expression in ``var`` (and anything else in
    scope) whose occurrences of ``func`` have derivative order strictly below
    ``order``, so rewriting always lowers orders and terminates.
    """

    __slots__ = ("func", "var", "order", "rhs", "text")

    def __init__(self, func: str, var: str, order: int, rhs: Expression, text: str = ""):
        order = int(order)
        if order < 1:
            raise RewriteError("rewrite order must be >= 1")
        for g in rhs.atoms():
            if g.kind == _APP and g.name == func and max(g.orders, default=0) >= order:
                raise RewriteError(
                    "rule for %s does not lower its own derivative order" % func
                )
        self.func = func
        self.var = var
        self.order = order
        self.rhs = rhs
        self.text = text

    def __repr__(self):
        return "RewriteRule(%s^(%d))" % (self.func, self.order)

    def __eq__(self, other):
        return (
            isinstance(other, RewriteRule)
            and (self.func, self.var, self.order, self.rhs)
            == (other.func, other.var, other.order, other.rhs)
        )

    def __hash__(self):
        return hash((self.func, self.var, self.order, self.rhs))


Rules = Sequence[RewriteRule]

_expansion_depth = 0
_MAX_EXPANSION_DEPTH = 200


def _rule_for(rules: Rules, name: str) -> Optional[RewriteRule]:
    for r in rules:
        if r.func == name:
            return r
    return None


@functools.lru_cache(maxsize=4096)
def _expanded_rhs_cached(rules_t: tuple, func: str, order: int) -> Expression:
    """func's order-th derivative, by its rule, as an expression in the rule's var."""
    rule = _rule_for(rules_t, func)
    body = rule.rhs
    for _ in range(order - rule.order):
        body = differentiate(body, rule.var, rules_t)
    return body


def app(name: str, args, orders, rules: Rules = ()) -> Expression:
    """Abstract application with rewrite rules applied to closure."""
    global _expansion_depth
    args = tuple(args)
    orders = tuple(int(k) for k in orders)
    rules_t = tuple(rules)
    if len(args) == 1 and rules_t:
        rule = _rule_for(rules_t, name)
        if rule is not None and orders[0] >= rule.order:
            if _expansion_depth >= _MAX_EXPANSION_DEPTH:
                raise RewriteError("rewrite expansion did not terminate (cycle?)")
            _expansion_depth += 1
            try:
                body = _expanded_rhs_cached(rules_t, name, orders[0])
                arg = args[0]
                if arg == sym(rule.var):
                    return body
                return substitute(body, {rule.var: arg}, rules_t)
            finally:
                _expansion_depth -= 1
    return from_gen(app_gen(name, args, orders))


def elem(func: str, arg: Expression) -> Expression:
    return from_gen(elem_gen(func, arg))


# --------------------------------------------------------------------------
# Differentiation.

_HALF = Fraction(1, 2)


def _derive_gen(g: Gen, field: dict, rules: Rules) -> Expression:
    """X(g) for X = sum of c * d/dvar over field's (var, c) items."""
    if g.kind == _SYM:
        return field.get(g.name, ZERO)
    if g.kind == _APP and len(g.args) != 1:
        # Multi-argument applications are opaque: representable only while
        # their derivative in each direction of the field vanishes.
        for var in field:
            if not all(derive(a, ((var, ONE),), rules).is_zero_expr() for a in g.args):
                raise RewriteError(
                    "cannot differentiate multi-argument function %r in %s; "
                    "model it as univariate applications with rewrite rules" % (g.name, var)
                )
        return ZERO
    arg = g.args[0]
    darg = derive(arg, field, rules)
    if darg.is_zero_expr():
        return ZERO
    f = g.name
    if g.kind == _APP:
        outer = app(f, g.args, (g.orders[0] + 1,), rules)
    elif f == "exp":
        outer = from_gen(g)
    elif f == "ln":
        outer = ONE / arg
    elif f == "sin":
        outer = elem("cos", arg)
    elif f == "cos":
        outer = -elem("sin", arg)
    elif f == "sqrt":
        outer = const_expr(_HALF) / from_gen(g)
    else:  # pragma: no cover - elem_gen rejects unknown names
        raise RewriteError("no derivative rule for %r" % f)
    return outer * darg


def _derive_poly(p: Poly, images: dict) -> Poly:
    """D(p) for the derivation D with D(g) = images.get(g, 0), as one _sum."""
    pieces = []
    for m, c in p.terms.items():
        for i, (g, e) in enumerate(m):
            dg = images.get(g)
            if dg is not None:
                rest = m[:i] + ((g, e - 1),) + m[i + 1:] if e > 1 else m[:i] + m[i + 1:]
                shifted = {_mono_mul(rest, k): t for k, t in dg.terms.items()}
                pieces.append((c * e, Poly(shifted, dg.cn, dg.cd)))
    return _sum(pieces)._scaled(False, p.cn, p.cd)


def derive(e: Expression, pairs, rules: Rules = ()) -> Expression:
    """X(e) for X = sum of c * d/dvar over (var, c) pairs of distinct
    variables and Expression coefficients, rewrite rules applied.

    With D = w X, g = gcd(d, D d) and h = d/g, X(n/d) = t/(w g h^2) for
    t = D(n) h - n (D d/g).  t is coprime to h: an irreducible p with
    p^k || d either divides D p, and then not h, or divides h once and not t.
    """
    field = dict(pairs)
    n, d = e.num, e.den
    images: dict = {}
    for p in (n, d):
        for m in p.terms:
            for gen, _ in m:
                if gen not in images:
                    images[gen] = _derive_gen(gen, field, rules)
    w, dens = _POLY_ONE, []
    for x in images.values():
        if not x.den.is_one() and all(x.den.terms != b.terms for b in dens):
            dens.append(x.den)
            w = w * exact_div(x.den, _gcd(w, x.den))
    images = {
        gen: x.num * (w if x.den.is_one() else exact_div(w, x.den))
        for gen, x in images.items()
        if x.num.terms
    }
    dn, dd = _derive_poly(n, images), _derive_poly(d, images)
    if dd.is_zero():
        g, h, t = d, _POLY_ONE, dn
    else:
        g = _gcd(d, dd)
        h, q = (d, dd) if g.is_one() else (exact_div(d, g), exact_div(dd, g))
        t = dn * h - n * q
    if t.is_zero():
        return ZERO
    t, g = _cancel(t, g)
    t, w = _cancel(t, w)
    return Expression(*_canon_coprime(t, w * g * h * h), _raw=True)


def differentiate(e: Expression, var: str, rules: Rules = ()) -> Expression:
    """Partial derivative with rewrite rules applied to closure."""
    return derive(e, ((var, ONE),), rules)


# --------------------------------------------------------------------------
# Substitution.


def substitute(e: Expression, bindings: Mapping[str, Expression], rules: Rules = ()) -> Expression:
    """Simultaneous substitution of symbols by expressions.

    Each generator is substituted once per call (a memo keyed by the
    interned generator).  Numerator and denominator are each summed over
    one common denominator: images with equal denominators share one
    group, and a group's denominator D is raised only to the largest total
    exponent any term puts on that group's generators.  Polynomial images
    form no group.  Each substituted expression (the argument of an
    application is one) is normalized once, with one gcd, instead of once
    per term.
    """
    coerced = {}
    for k, v in bindings.items():
        if isinstance(v, (int, Fraction)):
            v = const_expr(v)
        coerced[k] = v
    return _subst_expr(e, coerced, tuple(rules), {})


def _subst_expr(e: Expression, b, rules, memo) -> Expression:
    nn, nd = _subst_poly(e.num, b, rules, memo)
    dn, dd = _subst_poly(e.den, b, rules, memo)
    if dn.is_zero():
        raise SingularExpressionError("substitution makes a denominator identically zero")
    return Expression(nn * dd, dn * nd)


def _subst_poly(p: Poly, b, rules, memo):
    """p with its generators substituted, as (numerator, denominator) Polys."""
    images = {}  # generator -> (image numerator, index of its denominator in dens)
    dens = []
    for m in p.terms:
        for g, _ in m:
            if g not in images:
                image = _subst_gen(g, b, rules, memo)
                den = image.den
                k = None  # a polynomial image joins no group
                if not den.is_one():
                    # Canonical denominators have content 1: the terms decide.
                    k = next((i for i, d in enumerate(dens) if d.terms == den.terms), len(dens))
                    if k == len(dens):
                        dens.append(den)
                images[g] = (image.num, k)
    counts = []
    top = [0] * len(dens)
    for m in p.terms:
        n = [0] * len(dens)
        for g, e in m:
            k = images[g][1]
            if k is not None:
                n[k] += e
        top = [max(a, c) for a, c in zip(top, n)]
        counts.append(n)
    powers: dict = {}

    def power(base: Poly, e: int) -> Poly:
        got = powers.get((base, e))  # Poly hashes by identity
        if got is None:
            got = powers[(base, e)] = base.pow_int(e)
        return got

    pieces = []
    for (m, c), n in zip(p.terms.items(), counts):
        piece = _POLY_ONE
        for g, e in m:
            piece = piece * power(images[g][0], e)
        for k, d in enumerate(dens):
            piece = piece * power(d, top[k] - n[k])
        pieces.append((c, piece))
    den = _POLY_ONE
    for k, d in enumerate(dens):
        den = den * power(d, top[k])
    return _sum(pieces)._scaled(False, p.cn, p.cd), den


def _subst_gen(g: Gen, b, rules, memo) -> Expression:
    image = memo.get(g)
    if image is None:
        if g.kind == _SYM:
            image = b.get(g.name)
            if image is None:
                image = from_gen(g)
        else:
            new_args = tuple(_subst_expr(a, b, rules, memo) for a in g.args)
            if new_args == g.args:
                image = from_gen(g)
            elif g.kind == _APP:
                image = app(g.name, new_args, g.orders, rules)
            else:
                image = elem(g.name, new_args[0])
        memo[g] = image
    return image
