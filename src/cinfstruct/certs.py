"""Certificate objects: the uniform result type of every check.

A certificate bundles labeled zero-test items (each expected zero or expected
nonzero), the singular loci accumulated along the way (denominators, pivots,
determinants), and an optional JSON-able payload.  Refutations carry the
witness point of the first failing item.  Certificates serialize to sorted
deterministic JSON for reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import syntax
from .calculus import KForm
from .kernel import Expression
from .zerotest import PROVED, Certainty, Point, ZeroTestPolicy, ZeroTestResult, is_zero

__all__ = ["CheckItem", "Certificate", "bundle", "fmt_loci", "form_vanishes"]


@dataclass(frozen=True)
class CheckItem:
    label: str
    result: ZeroTestResult
    expect_zero: bool = True

    @property
    def ok(self) -> bool:
        if self.expect_zero:
            return self.result.is_zero
        return self.result.certainty in (Certainty.NONZERO, Certainty.PROVED_NONZERO)

    def as_json(self) -> dict:
        out = {"check": self.label, "ok": self.ok, "expect": "zero" if self.expect_zero else "nonzero"}
        out.update(self.result.as_json())
        return out


@dataclass(frozen=True)
class Certificate:
    kind: str
    ok: bool
    items: tuple[CheckItem, ...] = ()
    loci: tuple[str, ...] = ()
    payload: tuple[tuple[str, object], ...] = ()

    @property
    def witness(self) -> Optional[Point]:
        for it in self.items:
            if not it.ok and it.result.witness is not None:
                return it.result.witness
        return None

    def failing(self) -> tuple[CheckItem, ...]:
        return tuple(it for it in self.items if not it.ok)

    def as_json(self) -> dict:
        out = {
            "kind": self.kind,
            "ok": self.ok,
            "checks": [it.as_json() for it in self.items],
        }
        if self.loci:
            out["singular_loci"] = sorted(set(self.loci))
        w = self.witness
        if w is not None:
            out["witness"] = w.as_json()
        for k, v in self.payload:
            out[k] = v
        return out


def form_vanishes(label: str, form: KForm, policy: ZeroTestPolicy) -> list[CheckItem]:
    """The items showing that a form vanishes: one proved item under the bare
    label when it has no coefficients, else one "label [basis]" item per
    coefficient, in the form's order."""
    if not form.coeffs:
        return [CheckItem(label, PROVED)]
    return [
        CheckItem("%s [%s]" % (label, form.basis_label(idx)), is_zero(c, policy))
        for idx, c in form.coeffs
    ]


def fmt_loci(exprs: Sequence[Expression]) -> tuple[str, ...]:
    """Format, deduplicate, and drop constant (nowhere-vanishing) loci."""
    out = []
    seen = set()
    for e in exprs:
        if e.is_const():
            continue
        s = syntax.format_expression(e)
        if s not in seen:
            seen.add(s)
            out.append(s)
    return tuple(out)


def bundle(
    kind: str,
    items: Sequence[CheckItem],
    loci: Sequence[Expression] = (),
    ok: bool = True,
    **payload,
) -> Certificate:
    """A certificate that is ok when `ok` holds and every item passes."""
    items = tuple(items)
    return Certificate(
        kind=kind,
        ok=ok and all(it.ok for it in items),
        items=items,
        loci=fmt_loci(loci),
        payload=tuple(sorted(payload.items())),
    )
