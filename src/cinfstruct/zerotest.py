"""Graded zero testing: canonical decision where possible, sampling otherwise.

Pure rational identities in the generators are decided exactly by the
canonicalizer (``ProvedZero`` / witnessed ``Nonzero``).  Identities involving
elementary transcendental functions are tested at randomly drawn rational
points (independent values per coordinate, constant, and jet slot) with
high-precision floating evaluation, yielding ``ProbablyZero`` with a
Schwartz-Zippel style confidence or a concrete ``Nonzero`` witness.  All
draws come from a policy-seeded generator, so results are reproducible.

An expression with no elementary generator is evaluated directly in
integers over a common denominator, giving an exact ``Fraction``.  Floating
evaluation goes through one compiler, ``compile_evaluator``: an expression
becomes straight-line Python once, with one of two number backends --
``math`` floats (the quadrature in ``factors``, which reuses one evaluator
thousands of times) and ``mpmath`` (the elementary zero test, with its
singularity guard and term scale).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Optional

import mpmath

from . import kernel, syntax
from .errors import BadArgumentError, EvaluationError, SamplingError, SingularPointError
from .kernel import Expression, Gen

__all__ = [
    "Certainty",
    "PROVED",
    "Point",
    "ZeroTestPolicy",
    "ZeroTestResult",
    "DEFAULT_POLICY",
    "compile_evaluator",
    "evaluate",
    "is_zero",
    "sample_slots",
    "weakest",
]

_SAMPLE_DEN = 32
_SAMPLE_MAX = 64  # numerators in [-64, 64] -> 129 candidate values in [-2, 2]
_EPS_SING = Fraction(1, 1000)  # a sampled denominator this near 0 is singular
_DIGITS = 50  # mpmath working precision
_MAX_REDRAWS = 80  # singular draws before a sample gives up


class Certainty(str, Enum):
    PROVED_ZERO = "proved-zero"
    PROBABLY_ZERO = "probably-zero"
    # Within a tolerance in floating point, e.g. a central-difference check.
    FLOAT_CHECKED = "float-checked"
    NONZERO = "nonzero"
    PROVED_NONZERO = "proved-nonzero"

    @property
    def is_zero(self) -> bool:
        return self in (Certainty.PROVED_ZERO, Certainty.PROBABLY_ZERO, Certainty.FLOAT_CHECKED)


@dataclass(frozen=True)
class ZeroTestPolicy:
    """What a scenario or the command line may set for sampled identity
    testing: the draw seed, the samples per test and the numeric tolerance.

    Every policy is checked on construction, so no zero test runs on zero
    samples or against a tolerance that no value can exceed (NaN, infinity).
    """

    seed: int = 0
    samples: int = 20
    tol: float = 1e-9

    def __post_init__(self):
        for name in ("seed", "samples"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise BadArgumentError("policy %s must be an integer, got %r" % (name, value))
        if self.samples < 1:
            raise BadArgumentError("policy samples must be at least 1, got %d" % self.samples)
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
            raise BadArgumentError("policy tol must be a finite number > 0, got %r" % (tol,))

    def replace(self, **kw) -> "ZeroTestPolicy":
        return replace(self, **kw)


DEFAULT_POLICY = ZeroTestPolicy()


@dataclass(frozen=True)
class Point:
    """An assignment of rational values to symbol and jet slots."""

    values: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def of(mapping: Mapping[str, object]) -> "Point":
        vals = tuple(sorted((k, Fraction(v)) for k, v in mapping.items()))
        return Point(vals)

    def as_dict(self) -> dict:
        return dict(self.values)

    def __getitem__(self, name: str) -> Fraction:
        for k, v in self.values:
            if k == name:
                return v
        raise KeyError(name)

    def as_json(self) -> dict:
        return {k: str(v) for k, v in self.values}

    def __repr__(self):
        return "{%s}" % ", ".join("%s=%s" % kv for kv in self.values)


@dataclass(frozen=True)
class ZeroTestResult:
    certainty: Certainty
    confidence: float
    witness: Optional[Point] = None
    witness_value: Optional[str] = None
    samples_used: int = 0

    @property
    def is_zero(self) -> bool:
        return self.certainty.is_zero

    def as_json(self) -> dict:
        out = {
            "certainty": self.certainty.value,
            "confidence": round(self.confidence, 12),
            "samples": self.samples_used,
        }
        if self.witness is not None:
            out["witness"] = self.witness.as_json()
        if self.witness_value is not None:
            out["witness_value"] = self.witness_value
        return out


PROVED = ZeroTestResult(Certainty.PROVED_ZERO, 1.0)
# Sampled confidence rounds to 1.0 after a few samples, so the kind of
# evidence ranks first.
_STRENGTH = {Certainty.FLOAT_CHECKED: 0, Certainty.PROBABLY_ZERO: 1, Certainty.PROVED_ZERO: 2}


def weakest(results) -> ZeroTestResult:
    """The weakest of some zero verdicts: float-checked before sampled before
    proved, then the lowest confidence, the first among equals; a proved
    zero when there are none."""
    out = PROVED
    for r in results:
        if (_STRENGTH[r.certainty], r.confidence) < (_STRENGTH[out.certainty], out.confidence):
            out = r
    return out


# ---------------------------------------------------------------------------
# Evaluation: exact values directly, floats through one compiler.
#
# An expression is compiled once into straight-line Python in the order of
# operations of a term-by-term walk: each term is coeff * g1**e1 * g2**e2 ...
# in ``Poly.rational_terms()`` order, a polynomial is the sum of its terms
# from zero, and each generator is computed once into a temporary.  Slot
# values arrive as positional arguments, and coefficients as float
# literals or, for mpmath, through the function's namespace, so the source
# holds only temporaries, literals and the backend's function names; no
# symbol or jet-slot name ever enters it.


def sample_slots(e: Expression) -> list:
    """Names needing values: symbols plus opaque jet applications."""
    acc: set = set()
    _collect_slots(e, acc)
    return sorted(acc)


def _collect_slots(e: Expression, acc: set) -> None:
    for g in e.num.gens() | e.den.gens():
        if g.kind == kernel.SYM_KIND:
            acc.add(g.name)
        elif g.kind == kernel.APP_KIND:
            acc.add(syntax.format_gen(g))
        else:
            _collect_slots(g.args[0], acc)


def _mp_ln(a):
    if a <= 0:
        raise SingularPointError("ln of a nonpositive sample")
    return mpmath.ln(a)


def _mp_sqrt(a):
    if a < 0:
        raise SingularPointError("sqrt of a negative sample")
    return mpmath.sqrt(a)


def _guard(d, bound):
    if d == 0 or abs(d) < bound:
        raise SingularPointError("denominator vanished or within the singularity guard")
    return d


def _scaled(bound, zero, terms, den):
    """The numerator's terms summed from zero, over the guarded denominator
    (None for 1), and the scale: the largest |term| over |den|, at least 1."""
    total, biggest = zero, 0
    for t in terms:
        total = total + t
        if abs(t) > biggest:
            biggest = abs(t)
    if den is None:
        return total, max(biggest, 1)
    _guard(den, bound)
    return total / den, max(biggest / abs(den), 1)


def _exact_value(e: Expression, at: Mapping[str, int], q: int, eps_sing) -> Fraction:
    """e where each slot s has the value at[s] / q: each polynomial is summed
    in integers over q**degree, with one Fraction at the end.  A denominator
    that is 0 or below eps_sing (None for 0) in absolute value is singular."""
    vals = {}

    def total(p):
        top, acc = p.total_degree(), 0
        for m, t in p.terms.items():
            d = top
            for g, k in m:
                if g not in vals:
                    vals[g] = _slot(g, at)
                t *= vals[g] ** k
                d -= k
            acc += t * q**d
        return acc * p.cn, p.cd * q**top

    (num, s), (den, r) = total(e.num), total(e.den)
    if den == 0 or eps_sing and abs(Fraction(den, r)) < eps_sing:
        raise SingularPointError("denominator vanished or within the singularity guard")
    return Fraction(num * r, s * den)


def _slot(g: Gen, slots: Mapping):
    """The entry of `slots` for the symbol or jet slot g, keyed by its printed
    name; EvaluationError when there is none, or when g is elementary."""
    if g.kind == kernel.ELEM_KIND:
        raise EvaluationError("%s needs a numeric backend" % g.name)
    key = g.name if g.kind == kernel.SYM_KIND else syntax.format_gen(g)
    if key in slots:
        return slots[key]
    if g.kind == kernel.SYM_KIND:
        raise EvaluationError("no value for symbol %r" % key)
    raise EvaluationError("no value for jet slot %r: the function is abstract" % key)


def _float_failed(exc):
    raise EvaluationError("float evaluation failed: %s" % exc) from None


_FLOAT_FUNCS = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}
_MP_FUNCS = {"exp": mpmath.exp, "ln": _mp_ln, "sin": mpmath.sin, "cos": mpmath.cos, "sqrt": _mp_sqrt}
_FUNCS = {"float": _FLOAT_FUNCS, "mpmath": _MP_FUNCS}


_SUM_CHUNK = 64  # terms added per line, so no line nests too deep to compile


class _Emitter:
    """Writes one evaluator: a temporary per elementary generator, then one
    return expression."""

    def __init__(self, slots, backend: str):
        self.backend = backend
        self.args = {name: "a%d" % i for i, name in enumerate(slots)}
        self.consts: dict = {}  # Fraction -> global name (mpmath)
        self.zero = self.coeff(Fraction(0))
        self.temps: dict = {}  # Gen -> temporary or argument
        self.lines: list = []

    def temp(self, rhs: str) -> str:
        name = "t%d" % len(self.lines)
        self.lines.append("%s = %s" % (name, rhs))
        return name

    def coeff(self, c) -> str:
        if self.backend == "float":
            try:
                return repr(float(c))
            except OverflowError:
                raise EvaluationError("a coefficient overflows a float") from None
        return self.consts.setdefault(c, "k%d" % len(self.consts))

    def gen(self, g: Gen) -> str:
        name = self.temps.get(g)
        if name is not None:
            return name
        if g.kind == kernel.ELEM_KIND:
            name = self.temp("%s(%s)" % (g.name, self.expr(g.args[0])))
        else:
            name = _slot(g, self.args)
        self.temps[g] = name
        return name

    def terms(self, items) -> list:
        out = []
        for mono, c in items:
            # A unit coefficient is left out: 1 * v is v, bit for bit, in
            # every backend.
            factors = [] if c == 1 and mono else [self.coeff(c)]
            for g, e in mono:
                name = self.gen(g)
                factors.append(name if e == 1 else "%s ** %d" % (name, e))
            out.append(" * ".join(factors))
        return out

    def total(self, p) -> str:
        terms = self.terms(p.rational_terms())
        acc = self.zero
        for i in range(0, len(terms), _SUM_CHUNK):
            acc = " + ".join([acc] + terms[i:i + _SUM_CHUNK])
            if i + _SUM_CHUNK < len(terms):
                acc = self.temp(acc)
        return "(%s)" % acc

    def expr(self, e: Expression) -> str:
        num = self.total(e.num)
        if e.den.is_one():
            return num
        if self.backend == "float":
            return "(%s / %s)" % (num, self.total(e.den))
        return "(%s / guard(%s, bound))" % (num, self.total(e.den))

    def body(self, e: Expression) -> str:
        """The return expression; the temporaries it needs are in lines."""
        if self.backend == "float":
            return self.expr(e)
        terms = "".join(t + ", " for t in self.terms(e.num.rational_terms()))
        den = "None" if e.den.is_one() else self.total(e.den)
        return "scaled(bound, %s, (%s), %s)" % (self.zero, terms, den)


def compile_evaluator(
    e: Expression,
    slots,
    backend: str = "float",
    eps_sing: Optional[Fraction] = None,
) -> Callable:
    """Compile e into a function of its slot values, given positionally in
    the order of `slots` (symbol names and printed jet slots).

    ``"float"`` takes floats, computes through ``math`` and returns a float;
    a domain error, an overflow, a vanishing denominator or a slot with no
    value raises EvaluationError when the function is called.

    ``"mpmath"`` takes mpfs, converting the coefficients at the working
    precision in force when this is called, and returns (value, scale), the
    scale being the largest absolute numerator term over |denominator|, at
    least 1.  It raises SingularPointError at a denominator within
    ``eps_sing`` of zero, or equal to zero, and at ln or sqrt outside its
    domain.  An expression with no elementary generator has an exact value,
    which ``evaluate`` and ``is_zero`` compute without compiling.
    """
    funcs = _FUNCS[backend]
    em = _Emitter(slots, backend)
    try:
        ret = em.body(e)
    except EvaluationError as exc:
        msg = str(exc)

        def refuse(*_values):
            raise EvaluationError(msg)

        return refuse
    bound = Fraction(0) if eps_sing is None else Fraction(eps_sing)
    names = list(em.args.values())
    body = em.lines + ["return " + ret]
    if backend == "float":
        body = ["try:"] + ["    " + line for line in body]
        body += ["except ARITH as exc:", "    failed(exc)"]
    src = "def evaluator(%s):\n%s" % (", ".join(names), "".join("    %s\n" % ln for ln in body))
    ns = dict(funcs, scaled=_scaled, guard=_guard, failed=_float_failed,
              ARITH=(ArithmeticError, ValueError), __builtins__={})
    if backend == "mpmath":
        ns.update(((k, _to_mpf(c)) for c, k in em.consts.items()), bound=float(bound))
    exec(compile(src, "<compiled %s evaluator>" % backend, "exec"), ns)
    return ns.pop("evaluator")  # no cycle through its globals


def _to_mpf(v):
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


def evaluate(
    e: Expression,
    values: Mapping[str, object],
    eps_sing: Optional[Fraction] = None,
):
    """Evaluate at a point; exact Fraction when no elementary functions occur.

    Jet slots are keyed by their printed form (e.g. ``D(phi1, x, 1)``).
    Raises SingularPointError when a denominator is (near-)zero or an
    elementary function is evaluated outside its domain.
    """
    if isinstance(values, Point):
        values = values.as_dict()
    exact = not e.has_elementary() and not any(
        isinstance(v, float) for v in values.values()
    )
    slots = [s for s in sample_slots(e) if s in values]
    if exact:
        args = {s: Fraction(values[s]) for s in slots}
        q = math.lcm(*(a.denominator for a in args.values()))
        return _exact_value(e, {s: int(a * q) for s, a in args.items()}, q, eps_sing)
    with mpmath.workdps(_DIGITS):
        fn = compile_evaluator(e, slots, "mpmath", eps_sing)
        return fn(*(_to_mpf(values[s]) for s in slots))[0]


# ---------------------------------------------------------------------------
# The graded zero test.


def _draw_point(rng: random.Random, slots) -> dict:
    """Numerators over _SAMPLE_DEN, one per slot."""
    return {name: rng.randint(-_SAMPLE_MAX, _SAMPLE_MAX) for name in slots}


def _witness(pt: dict) -> Point:
    return Point(tuple(sorted((name, Fraction(k, _SAMPLE_DEN)) for name, k in pt.items())))


def _confidence(e: Expression, samples: int) -> float:
    d = max(1, e.num.total_degree())
    per = min(1.0, d / (2 * _SAMPLE_MAX + 1))
    return 1.0 - per**samples


def is_zero(e: Expression, policy: ZeroTestPolicy = DEFAULT_POLICY) -> ZeroTestResult:
    """Decide whether e is (generically) the zero function; see module docs."""
    if e.is_zero_expr():
        return PROVED
    if e.is_const():
        return ZeroTestResult(
            Certainty.PROVED_NONZERO,
            1.0,
            witness=Point(()),
            witness_value=str(e.const_value()),
        )
    rng = random.Random(policy.seed)
    slots = sample_slots(e)
    exact = not e.has_elementary()
    if exact:
        def shown_if_nonzero(pt):
            value = _exact_value(e, pt, _SAMPLE_DEN, _EPS_SING)
            return str(value) if value else None
    else:
        with mpmath.workdps(_DIGITS):
            fn = compile_evaluator(e, slots, "mpmath", _EPS_SING)

        def shown_if_nonzero(pt):
            with mpmath.workdps(_DIGITS):
                value, scale = fn(*(mpmath.mpf(k) / _SAMPLE_DEN for k in pt.values()))
            return mpmath.nstr(value, 17) if abs(value) > policy.tol * max(1, scale) else None
    rounds = 11 * policy.samples if exact else policy.samples
    for used in range(1, rounds + 1):
        pt, shown = _sample_once(shown_if_nonzero, rng, slots)
        if shown is not None:
            return ZeroTestResult(
                Certainty.NONZERO,
                1.0,
                witness=_witness(pt),
                witness_value=shown,
                samples_used=used,
            )
    if exact:
        # Every draw hit the zero set, but a canonical form that is not ZERO
        # is a nonzero rational function: proved, only without a witness.
        return ZeroTestResult(Certainty.PROVED_NONZERO, 1.0, samples_used=rounds)
    return ZeroTestResult(
        Certainty.PROBABLY_ZERO, _confidence(e, rounds), samples_used=rounds
    )


def _sample_once(shown_if_nonzero, rng, slots):
    """Draw points until one clears the singularity guard, then evaluate."""
    for _ in range(_MAX_REDRAWS):
        pt = _draw_point(rng, slots)
        try:
            return pt, shown_if_nonzero(pt)
        except SingularPointError:
            continue
    raise SamplingError(
        "all %d candidate points hit the singularity guard" % _MAX_REDRAWS
    )
