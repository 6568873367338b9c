"""Graded zero testing: canonical decision where possible, sampling otherwise.

Pure rational identities in the generators are decided exactly by the
canonicalizer (``ProvedZero`` / witnessed ``Nonzero``).  Identities involving
elementary transcendental functions are tested at randomly drawn rational
points (independent values per coordinate, constant, and jet slot) with
high-precision floating evaluation, yielding ``ProbablyZero`` with a
Schwartz-Zippel style confidence or a concrete ``Nonzero`` witness.  All
draws come from a policy-seeded generator, so results are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Optional, Union

import mpmath

from . import kernel, syntax
from .errors import EvaluationError, SamplingError, SingularPointError
from .kernel import Expression, Gen

__all__ = [
    "Certainty",
    "Point",
    "ZeroTestPolicy",
    "ZeroTestResult",
    "DEFAULT_POLICY",
    "evaluate",
    "is_zero",
    "sample_slots",
]

_SAMPLE_DEN = 32
_SAMPLE_MAX = 64  # numerators in [-64, 64] -> 129 candidate values in [-2, 2]


class Certainty(str, Enum):
    PROVED_ZERO = "proved-zero"
    PROBABLY_ZERO = "probably-zero"
    NONZERO = "nonzero"
    PROVED_NONZERO = "proved-nonzero"

    @property
    def is_zero(self) -> bool:
        return self in (Certainty.PROVED_ZERO, Certainty.PROBABLY_ZERO)


@dataclass(frozen=True)
class ZeroTestPolicy:
    """Knobs for sampled identity testing; defaults match the toolkit contract."""

    seed: int = 0
    samples: int = 20
    tol: float = 1e-9
    eps_sing: Fraction = Fraction(1, 1000)
    digits: int = 50
    max_redraws: int = 80

    def replace(self, **kw) -> "ZeroTestPolicy":
        from dataclasses import replace as _replace

        return _replace(self, **kw)


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


# ---------------------------------------------------------------------------
# Evaluation.


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


def evaluate(
    e: Expression,
    values: Mapping[str, object],
    digits: int = 50,
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
    if exact:
        v, _ = _ev_expr(e, values, None, eps_sing)
        return v
    with mpmath.workdps(digits):
        v, _ = _ev_expr(e, values, mpmath.mpf, eps_sing)
        return v


def _ev_expr(e: Expression, values, tofloat, eps):
    num, scale = _ev_poly(e.num, values, tofloat, eps)
    if e.den.is_one():
        return num, max(scale, 1)
    den, _ = _ev_poly(e.den, values, tofloat, eps)
    _guard_den(den, eps)
    return num / den, max(scale / abs(den), 1)


def _guard_den(den, eps):
    if den == 0:
        raise SingularPointError("denominator vanished at sample point")
    if eps is None:
        return
    # mpf refuses to compare with Fraction, so degrade the guard bound to a
    # float on the numeric path; the exact path keeps the Fraction bound.
    bound = eps if isinstance(den, Fraction) else float(eps)
    if abs(den) < bound:
        raise SingularPointError("denominator within singularity guard at sample point")


def _ev_poly(p, values, tofloat, eps):
    total = Fraction(0) if tofloat is None else tofloat(0)
    biggest = 0
    for m, c in p.terms.items():
        term = Fraction(c) if tofloat is None else tofloat(c.numerator) / c.denominator
        for g, k in m:
            gv = _ev_gen(g, values, tofloat, eps)
            term = term * gv**k
        total = total + term
        a = abs(term)
        if a > biggest:
            biggest = a
    return total, biggest


def _ev_gen(g: Gen, values, tofloat, eps):
    if g.kind == kernel.SYM_KIND:
        try:
            v = values[g.name]
        except KeyError:
            raise EvaluationError("no value for symbol %r" % g.name)
        return _as_number(v, tofloat)
    if g.kind == kernel.APP_KIND:
        key = syntax.format_gen(g)
        try:
            v = values[key]
        except KeyError:
            raise EvaluationError("no value for jet slot %r" % key)
        return _as_number(v, tofloat)
    arg, _ = _ev_expr(g.args[0], values, tofloat, eps)
    f = g.name
    if f == "exp":
        return mpmath.exp(arg)
    if f == "ln":
        if arg <= 0:
            raise SingularPointError("ln of a nonpositive sample")
        return mpmath.ln(arg)
    if f == "sin":
        return mpmath.sin(arg)
    if f == "cos":
        return mpmath.cos(arg)
    if f == "sqrt":
        if arg < 0:
            raise SingularPointError("sqrt of a negative sample")
        return mpmath.sqrt(arg)
    raise EvaluationError("unknown elementary function %r" % f)  # pragma: no cover


def _as_number(v, tofloat):
    if tofloat is None:
        return Fraction(v)
    if isinstance(v, Fraction):
        return tofloat(v.numerator) / v.denominator
    return tofloat(v)


# ---------------------------------------------------------------------------
# The graded zero test.


def _draw_point(rng: random.Random, slots) -> dict:
    return {
        name: Fraction(rng.randint(-_SAMPLE_MAX, _SAMPLE_MAX), _SAMPLE_DEN)
        for name in slots
    }


def _confidence(e: Expression, samples: int) -> float:
    d = max(1, e.num.total_degree())
    per = min(1.0, d / (2 * _SAMPLE_MAX + 1))
    return 1.0 - per**samples


def is_zero(e: Expression, policy: ZeroTestPolicy = DEFAULT_POLICY) -> ZeroTestResult:
    """Decide whether e is (generically) the zero function; see module docs."""
    if e.is_zero_expr():
        return ZeroTestResult(Certainty.PROVED_ZERO, 1.0)
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
    used = 0
    rounds = policy.samples if not exact else 11 * policy.samples
    for trial in range(rounds):
        pt, value, scale = _sample_once(e, rng, slots, policy, exact)
        used += 1
        if exact:
            if value != 0:
                return ZeroTestResult(
                    Certainty.NONZERO,
                    1.0,
                    witness=Point.of(pt),
                    witness_value=str(value),
                    samples_used=used,
                )
        else:
            if abs(value) > policy.tol * max(1, scale):
                return ZeroTestResult(
                    Certainty.NONZERO,
                    1.0,
                    witness=Point.of(pt),
                    witness_value=mpmath.nstr(value, 17),
                    samples_used=used,
                )
    if exact:
        # Every draw hit the zero set, but a canonical form that is not ZERO
        # is a nonzero rational function: proved, only without a witness.
        return ZeroTestResult(Certainty.PROVED_NONZERO, 1.0, samples_used=used)
    return ZeroTestResult(
        Certainty.PROBABLY_ZERO, _confidence(e, used), samples_used=used
    )


def _sample_once(e, rng, slots, policy, exact):
    """Draw points until one clears the singularity guard, then evaluate."""
    for _ in range(policy.max_redraws):
        pt = _draw_point(rng, slots)
        try:
            if exact:
                value, scale = _ev_expr(e, pt, None, policy.eps_sing)
            else:
                with mpmath.workdps(policy.digits):
                    value, scale = _ev_expr(e, pt, mpmath.mpf, policy.eps_sing)
        except SingularPointError:
            continue
        return pt, value, scale
    raise SamplingError(
        "all %d candidate points hit the singularity guard" % policy.max_redraws
    )
