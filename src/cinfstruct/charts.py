"""Charts: named coordinate systems with constants and rewrite rules.

A chart fixes which bare identifiers an expression may reference (its
coordinates and symbolic constants) and carries the rewrite rules that define
derivatives of the abstract functions in play.  Charts are cheap immutable
values; the reduction pipeline derives smaller charts from larger ones as
coordinates are traded for constants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

from . import kernel, syntax
from .errors import ChartError, ExpressionSyntaxError, UnknownSymbolError
from .kernel import Expression, RewriteRule

__all__ = ["Chart", "parse_expression", "parse_rule", "format_expression"]

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_RULE_HEAD = re.compile(
    r"^\s*(?:rule\s+)?D\(\s*([A-Za-z_]\w*)\s*,\s*([A-Za-z_]\w*)\s*(?:,\s*(\d+)\s*)?\)\s*$"
)


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate system plus constants and rewrite rules."""

    name: str
    coords: tuple[str, ...]
    constants: tuple[str, ...] = ()
    rules: tuple[RewriteRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        object.__setattr__(self, "constants", tuple(self.constants))
        object.__setattr__(self, "rules", tuple(self.rules))
        names = list(self.coords) + list(self.constants)
        for n in names:
            if not _IDENT.match(n):
                raise ChartError("bad symbol name %r in chart %r" % (n, self.name))
        if len(set(names)) != len(names):
            raise ChartError("duplicate symbol names in chart %r" % self.name)
        if not self.coords:
            raise ChartError("chart %r has no coordinates" % self.name)
        seen = set()
        for r in self.rules:
            if r.func in seen:
                raise ChartError("duplicate rewrite rule for %r" % r.func)
            seen.add(r.func)

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def allowed(self) -> tuple[str, ...]:
        return self.coords + self.constants

    @cached_property
    def _names(self) -> frozenset:
        """The allowed names as one set, built once per chart."""
        return frozenset(self.allowed)

    def index(self, coord: str) -> int:
        try:
            return self.coords.index(coord)
        except ValueError:
            raise ChartError("%r is not a coordinate of chart %r" % (coord, self.name))

    # -- expression operations, chart-aware -----------------------------------

    def parse(self, text: str) -> Expression:
        return syntax.parse(text, allowed=self._names, rules=self.rules)

    def validate(self, e: Expression) -> Expression:
        bad = e.symbols() - self._names
        if bad:
            raise UnknownSymbolError(
                "expression uses %s, not symbols of chart %r"
                % (", ".join(sorted(bad)), self.name)
            )
        return e

    def coerce(self, e) -> Expression:
        if isinstance(e, str):
            return self.parse(e)
        if isinstance(e, Expression):
            return self.validate(e)
        return kernel.const_expr(e)

    def differentiate(self, e: Expression, coord: str) -> Expression:
        self.index(coord)
        return kernel.differentiate(e, coord, self.rules)

    # -- derived charts --------------------------------------------------------

    def with_rules(self, extra: Sequence[RewriteRule]) -> "Chart":
        if not extra:
            return self
        return replace(self, rules=self.rules + tuple(extra))

    def restricted(
        self,
        name: str,
        coords: Sequence[str],
        add_constants: Sequence[str] = (),
    ) -> "Chart":
        coords = tuple(coords)
        for c in coords:
            if c not in self.coords:
                raise ChartError("%r is not a coordinate of chart %r" % (c, self.name))
        new_consts = self.constants + tuple(
            c for c in add_constants if c not in self.constants
        )
        return Chart(name, coords, new_consts, self.rules)


def parse_expression(text: str, chart: Optional[Chart] = None) -> Expression:
    """Parse against a chart (validated) or freely when chart is None."""
    if chart is None:
        return syntax.parse(text)
    return chart.parse(text)


def format_expression(e: Expression) -> str:
    return syntax.format_expression(e)


def parse_rule(text: str, chart: Optional[Chart] = None) -> RewriteRule:
    """Parse ``rule D(f, x, k) = rhs`` (the ``rule`` keyword is optional).

    Inside the right-hand side the rule variable is in scope and a bare
    identifier that is not a chart symbol denotes that function applied at
    the rule variable, so ``(x + 1/4) * phi1`` means ``(x + 1/4) * phi1(x)``.
    """
    if "=" not in text:
        raise ExpressionSyntaxError("rewrite rule needs '=': %r" % text)
    head, rhs_text = text.split("=", 1)
    m = _RULE_HEAD.match(head)
    if not m:
        raise ExpressionSyntaxError(
            "rewrite rule head must look like 'rule D(f, x, k)': %r" % text
        )
    func, var, order = m.group(1), m.group(2), int(m.group(3) or 1)
    allowed = {var}
    if chart is not None:
        allowed.update(chart.allowed)
    rhs = syntax.parse(rhs_text, allowed=allowed, auto_apply_var=var)
    return RewriteRule(func, var, order, rhs, text=text.strip())
