"""Exterior calculus on explicit charts.

Vector fields are component tuples in the coordinate frame; k-forms are
sparse coefficient maps on strictly increasing index tuples (parity is
normalized on construction); smooth maps are coordinate component lists
between two charts.  The Lie derivative is *defined* through the Cartan
identity, and evaluation of a 2-form on a pair of fields provides the
independent route used by cross-checks.  Fields pushed through one map share
one linear solve against its Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import kernel, linalg, syntax
from .charts import Chart
from .errors import ChartError, DegreeError, NotTangentError
from .kernel import ZERO, Expression
from .zerotest import DEFAULT_POLICY, ZeroTestPolicy, ZeroTestResult

__all__ = [
    "VectorField",
    "KForm",
    "SmoothMap",
    "apply_field",
    "lie_bracket",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "lie_derivative_form",
    "pullback_form",
    "pushforward_field",
    "pushforward_fields",
    "volume_form",
    "d_of_function",
    "compose_maps",
]


def _same_chart(a, b):
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartError(
            "objects live on different charts (%r vs %r)" % (a.chart.name, b.chart.name)
        )


@dataclass(frozen=True)
class VectorField:
    """A vector field written in a chart's coordinate frame."""

    chart: Chart
    components: tuple[Expression, ...]
    name: str = ""

    def __post_init__(self):
        comps = tuple(self.chart.coerce(c) for c in self.components)
        if len(comps) != self.chart.dim:
            raise ChartError(
                "field %r needs %d components on chart %r"
                % (self.name or "?", self.chart.dim, self.chart.name)
            )
        object.__setattr__(self, "components", comps)

    def scaled(self, h, name: str = "") -> "VectorField":
        h = self.chart.coerce(h)
        return VectorField(self.chart, tuple(h * c for c in self.components), name)

    def __repr__(self):
        body = ", ".join(syntax.format_expression(c) for c in self.components)
        return "%s[%s]" % (self.name or "Field", body)

    def as_json(self):
        return [syntax.format_expression(c) for c in self.components]


def apply_field(X: VectorField, f) -> Expression:
    """Directional derivative X(f), as one derivation of f over one common
    denominator (kernel.derive): one gcd of f's denominator with its
    derivative, then the new numerator's gcds with the leftover factors."""
    pairs = [(x, c) for x, c in zip(X.chart.coords, X.components) if not c.is_zero_expr()]
    return kernel.derive(X.chart.coerce(f), pairs, X.chart.rules)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] = X(Y^j) - Y(X^j) componentwise."""
    _same_chart(X, Y)
    comps = tuple(
        apply_field(X, yc) - apply_field(Y, xc)
        for xc, yc in zip(X.components, Y.components)
    )
    name = ""
    if X.name and Y.name:
        name = "[%s, %s]" % (X.name, Y.name)
    return VectorField(X.chart, comps, name)


# ---------------------------------------------------------------------------
# Forms.


def _normalize_indices(idx: Sequence[int], dim: int):
    """(sorted strictly increasing tuple, sign) or (None, 0) when degenerate."""
    idx = list(idx)
    for i in idx:
        if not 0 <= i < dim:
            raise DegreeError("form index %d outside chart of dimension %d" % (i, dim))
    sign = 1
    # insertion sort, tracking parity
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return None, 0
    return tuple(idx), sign


@dataclass(frozen=True)
class KForm:
    """A differential k-form with sparse canonical coefficients."""

    chart: Chart
    degree: int
    coeffs: tuple[tuple[tuple[int, ...], Expression], ...]

    @staticmethod
    def make(chart: Chart, degree: int, data: Mapping[Sequence[int], object]) -> "KForm":
        # Degrees above the chart dimension are allowed but necessarily empty.
        if degree < 0:
            raise DegreeError("negative form degree %d" % degree)
        acc: dict = {}
        for idx, raw in data.items():
            e = chart.coerce(raw)
            if len(tuple(idx)) != degree:
                raise DegreeError("index tuple %r has wrong length" % (tuple(idx),))
            canon, sign = _normalize_indices(idx, chart.dim)
            if sign == 0 or e.is_zero_expr():
                continue
            e = e if sign > 0 else -e
            prev = acc.get(canon)
            acc[canon] = e if prev is None else prev + e
        cleaned = tuple(
            (i, c) for i, c in sorted(acc.items()) if not c.is_zero_expr()
        )
        return KForm(chart, degree, cleaned)

    def coeff(self, idx: Sequence[int]) -> Expression:
        canon, sign = _normalize_indices(idx, self.chart.dim)
        if sign == 0:
            return ZERO
        for i, c in self.coeffs:
            if i == canon:
                return c if sign > 0 else -c
        return ZERO

    def is_zero_form(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "KForm") -> "KForm":
        _same_chart(self, other)
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of degree %d and %d" % (self.degree, other.degree))
        data: dict = dict(self.coeffs)
        for i, c in other.coeffs:
            data[i] = data.get(i, ZERO) + c
        return KForm.make(self.chart, self.degree, data)

    def __sub__(self, other: "KForm") -> "KForm":
        return self + other.scaled(-1)

    def scaled(self, h) -> "KForm":
        h = self.chart.coerce(h)
        return KForm.make(self.chart, self.degree, {i: h * c for i, c in self.coeffs})

    def __call__(self, *fields: VectorField) -> Expression:
        """Evaluate on degree-many fields (full antisymmetric contraction)."""
        if len(fields) != self.degree:
            raise DegreeError(
                "%d-form evaluated on %d fields" % (self.degree, len(fields))
            )
        out = self
        for X in fields:
            out = interior_product(X, out)
        return out.coeff(())

    def basis_label(self, idx: tuple[int, ...]) -> str:
        return "^".join("d %s" % self.chart.coords[i] for i in idx) if idx else "1"

    def as_json(self) -> dict:
        return {
            self.basis_label(i): syntax.format_expression(c) for i, c in self.coeffs
        }

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in self.coeffs:
            cs = syntax.format_expression(c)
            if i:
                parts.append("(%s) %s" % (cs, self.basis_label(i)))
            else:
                parts.append(cs)
        return " + ".join(parts)


def d_of_function(chart: Chart, f) -> KForm:
    """The differential of a scalar as a 1-form."""
    f = chart.coerce(f)
    return KForm.make(
        chart,
        1,
        {(j,): kernel.differentiate(f, c, chart.rules) for j, c in enumerate(chart.coords)},
    )


def _merge_sign(I: tuple, J: tuple) -> int:
    """Sign of sorting I+J, 0 on overlap (I, J each strictly increasing)."""
    inversions = 0
    for a in I:
        for b in J:
            if a == b:
                return 0
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


def wedge(a: KForm, b: KForm) -> KForm:
    _same_chart(a, b)
    deg = a.degree + b.degree
    data: dict = {}
    for i1, c1 in a.coeffs:
        for i2, c2 in b.coeffs:
            s = _merge_sign(i1, i2)
            if s == 0:
                continue
            idx = tuple(sorted(i1 + i2))
            term = c1 * c2 if s > 0 else -(c1 * c2)
            data[idx] = data.get(idx, ZERO) + term
    return KForm.make(a.chart, deg, data)


def exterior_derivative(a: KForm) -> KForm:
    chart = a.chart
    data: dict = {}
    for idx, c in a.coeffs:
        for j, coord in enumerate(chart.coords):
            if j in idx:
                continue
            dc = chart.differentiate(c, coord)
            if dc.is_zero_expr():
                continue
            s = _merge_sign((j,), idx)
            new = tuple(sorted((j,) + idx))
            term = dc if s > 0 else -dc
            data[new] = data.get(new, ZERO) + term
    return KForm.make(chart, a.degree + 1, data)


def interior_product(X: VectorField, a: KForm) -> KForm:
    _same_chart(X, a)
    if a.degree == 0:
        raise DegreeError("interior product with a 0-form")
    data: dict = {}
    for idx, c in a.coeffs:
        for pos, i in enumerate(idx):
            xi = X.components[i]
            if xi.is_zero_expr():
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            term = xi * c
            if pos % 2:
                term = -term
            data[rest] = data.get(rest, ZERO) + term
    return KForm.make(a.chart, a.degree - 1, data)


def lie_derivative_form(X: VectorField, a: KForm) -> KForm:
    """Cartan identity L_X = d(X .) + X . d, taken as the definition."""
    _same_chart(X, a)
    if a.degree == 0:
        return KForm.make(a.chart, 0, {(): apply_field(X, a.coeff(()))})
    term1 = exterior_derivative(interior_product(X, a))
    term2 = interior_product(X, exterior_derivative(a))
    return term1 + term2


def volume_form(chart: Chart) -> KForm:
    return KForm.make(chart, chart.dim, {tuple(range(chart.dim)): kernel.ONE})


# ---------------------------------------------------------------------------
# Smooth maps.


@dataclass(frozen=True)
class SmoothMap:
    """A map between charts given by target-coordinate component expressions."""

    source: Chart
    target: Chart
    components: tuple[Expression, ...]
    name: str = ""

    def __post_init__(self):
        comps = tuple(self.source.coerce(c) for c in self.components)
        if len(comps) != self.target.dim:
            raise ChartError(
                "map %r needs %d components (target chart %r)"
                % (self.name or "?", self.target.dim, self.target.name)
            )
        object.__setattr__(self, "components", comps)

    def bindings(self) -> dict:
        return dict(zip(self.target.coords, self.components))

    def pull_scalar(self, f) -> Expression:
        """f on the target composed with the map: an expression on the source."""
        f = self.target.coerce(f)
        return kernel.substitute(f, self.bindings(), self.source.rules)

    def jacobian(self) -> list:
        """Rows: target components; columns: source coordinates."""
        return [list(row) for row in self._jacobian]

    @cached_property
    def _jacobian(self) -> tuple[tuple[Expression, ...], ...]:
        # Every pullback and pushforward through the map reads it.
        return tuple(
            tuple(
                kernel.differentiate(comp, s, self.source.rules)
                for s in self.source.coords
            )
            for comp in self.components
        )

    def graph_coords(self) -> tuple[str, ...]:
        """Target coordinates carried over unchanged (component == coordinate)."""
        out = []
        for coord, comp in zip(self.target.coords, self.components):
            if comp == kernel.sym(coord):
                out.append(coord)
        return tuple(out)

    def as_json(self):
        return {
            t: syntax.format_expression(c)
            for t, c in zip(self.target.coords, self.components)
        }

    def __repr__(self):
        body = ", ".join(
            "%s=%s" % (t, syntax.format_expression(c))
            for t, c in zip(self.target.coords, self.components)
        )
        return "%s(%s -> %s: %s)" % (
            self.name or "Map",
            self.source.name,
            self.target.name,
            body,
        )


def compose_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """outer after inner (inner's target must be outer's source)."""
    if inner.target != outer.source:
        raise ChartError(
            "cannot compose: inner lands on %r, outer starts on %r"
            % (inner.target.name, outer.source.name)
        )
    comps = tuple(inner.pull_scalar(c) for c in outer.components)
    return SmoothMap(
        inner.source,
        outer.target,
        comps,
        name=("%s.%s" % (outer.name, inner.name)) if outer.name and inner.name else "",
    )


def pullback_form(m: SmoothMap, a: KForm) -> KForm:
    if a.chart != m.target:
        raise ChartError("form lives on %r, map lands on %r" % (a.chart.name, m.target.name))
    if a.degree == 0:
        return KForm.make(m.source, 0, {(): m.pull_scalar(a.coeff(()))})
    if a.degree > m.source.dim:
        return KForm.make(m.source, a.degree, {})
    jac = m.jacobian()
    differentials = [
        KForm.make(m.source, 1, {(j,): jac[i][j] for j in range(m.source.dim)})
        for i in range(m.target.dim)
    ]
    total = KForm.make(m.source, a.degree, {})
    for idx, c in a.coeffs:
        piece = KForm.make(m.source, 0, {(): m.pull_scalar(c)})
        for i in idx:
            piece = wedge(piece, differentials[i])
        total = total + piece
    return total


def pushforward_field(
    m: SmoothMap, Z: VectorField, policy: ZeroTestPolicy = DEFAULT_POLICY
) -> VectorField:
    """The unique W on the source with dm(W) = Z along the map.

    Raises NotTangentError when Z is not tangent to the image (with a witness
    point of the inconsistency) and RankDeficientError when the map is not an
    immersion (so no unique W exists).
    """
    ((W, residual),) = pushforward_fields(m, [Z], policy)
    if W is None:
        raise NotTangentError(
            "field %s is not tangent to the image of %s"
            % (Z.name or "?", m.name or "the map"),
            witness=residual.witness,
        )
    return W


def pushforward_fields(
    m: SmoothMap, fields: Sequence[VectorField], policy: ZeroTestPolicy = DEFAULT_POLICY
) -> list[tuple[Optional[VectorField], ZeroTestResult]]:
    """Each field's W, or None when it is not tangent to the image, with the
    residual zero test of one linear solve against the Jacobian for the whole
    family: how the tangency was shown, proved or sampled, or the NONZERO
    result and witness point that refute it.  RankDeficientError when the map
    is not an immersion."""
    for Z in fields:
        if Z.chart != m.target:
            raise ChartError("field lives on %r, map lands on %r" % (Z.chart.name, m.target.name))
    columns = [[m.pull_scalar(c) for c in Z.components] for Z in fields]
    sols = linalg.solve_columns(m.jacobian(), columns, policy)
    return [
        (None if s.values is None else VectorField(m.source, s.values, name=Z.name), s.residual)
        for Z, s in zip(fields, sols)
    ]
