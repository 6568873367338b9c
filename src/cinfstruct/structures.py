"""Involutive distributions, ordered symmetry structures, dual 1-forms.

A distribution is spanned by independent generators Z_1..Z_r; an ordered
family X_1..X_{n-r} is certified level by level: X_k must bracket back into
the span of {X_k} and the previous members, i.e. [X_k, V] = lambda_V X_k +
(span part) for every earlier member V; all of a level's brackets decompose
over that one basis in a single elimination.  The dual coframe is read off one
elimination of the field matrix: Delta is its determinant and each omega_i
is a row of cofactors, which is the contraction of the volume form with all
fields but X_i; the annihilation and pairing identities certify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import kernel, linalg
from .calculus import (
    KForm,
    VectorField,
    apply_field,
    interior_product,
    lie_bracket,
)
from .certs import Certificate, CheckItem, bundle
from .charts import Chart
from .errors import ChartError
from .kernel import Expression
from .zerotest import DEFAULT_POLICY, ZeroTestPolicy, ZeroTestResult, is_zero

__all__ = [
    "Distribution",
    "Decomposition",
    "SymmetryResult",
    "CinfStructure",
    "DualForms",
    "NormalizedDual",
    "RescaleResult",
    "check_independent",
    "check_involutive",
    "decompose_in_span",
    "check_cinf_symmetry",
    "check_cinf_structure",
    "dual_one_forms",
    "normalize_dual",
    "rescale_symmetry",
]


def _label(field: VectorField, fallback: str) -> str:
    return field.name or fallback


@dataclass(frozen=True)
class Distribution:
    """The span of an ordered tuple of generator fields."""

    chart: Chart
    generators: tuple[VectorField, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.chart != self.chart:
                raise ChartError("generator %r lives off-chart" % (g.name or "?",))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def names(self) -> tuple[str, ...]:
        return tuple(
            _label(g, "Z%d" % (i + 1)) for i, g in enumerate(self.generators)
        )


def check_independent(
    chart: Chart,
    fields: Sequence[VectorField],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> Certificate:
    """Certify generic pointwise independence of the fields.

    The rank comes from symbolic elimination; the pivots are the singular
    loci, and the witness point (in the payload) makes all pivots nonzero.
    """
    matrix = [list(f.components) for f in fields]
    rank, pivots, product_test, leftover = linalg.rank_evidence(matrix, policy)
    items = []
    payload = {"rank": rank, "fields": len(matrix)}
    if product_test is not None:
        items.append(CheckItem("pivot product is nonzero", product_test, expect_zero=False))
        if product_test.witness is not None:
            payload["witness_point"] = product_test.witness.as_json()
    if leftover is not None:
        # The rows that took no pivot vanish: the frame is dependent.
        items.append(
            CheckItem(
                "rows left without a pivot are nonzero (rank %d of %d)" % (rank, len(matrix)),
                leftover,
                expect_zero=False,
            )
        )
    return bundle("independence", items, loci=pivots, ok=rank == len(matrix), **payload)


@dataclass(frozen=True)
class Decomposition:
    """Coefficients of a field over an ordered basis of fields."""

    # None when the field leaves the span.
    coefficients: Optional[tuple[Expression, ...]]
    basis_names: tuple[str, ...]
    pivots: tuple[Expression, ...]
    # How the field's membership in the span was shown or refuted (see
    # solve_columns).
    residual: ZeroTestResult

    def coefficient(self, name: str) -> Expression:
        return self.coefficients[self.basis_names.index(name)]

    def as_json(self):
        from . import syntax

        return {
            n: syntax.format_expression(c)
            for n, c in zip(self.basis_names, self.coefficients)
        }


def decompose_in_span(
    fields: Sequence[VectorField],
    basis: Sequence[VectorField],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> list[Decomposition]:
    """Write each field as a sum of coefficients * basis, in one elimination.

    A field outside the span gets coefficients None and a NONZERO residual
    with a witness point; RankDeficientError when the basis is dependent so
    coefficients are not unique.
    """
    if not fields:
        return []
    basis = list(basis)
    if not basis:
        raise ValueError("empty basis")
    chart = basis[0].chart
    if any(f.chart != chart for f in fields):
        raise ChartError("field and basis live on different charts")
    matrix = [[b.components[i] for b in basis] for i in range(chart.dim)]
    sols = linalg.solve_columns(matrix, [f.components for f in fields], policy)
    names = tuple(_label(b, "B%d" % (i + 1)) for i, b in enumerate(basis))
    return [Decomposition(s.values, names, s.pivots, s.residual) for s in sols]


@dataclass(frozen=True)
class BracketRecord:
    left: str
    right: str
    # None when the bracket leaves the span.
    decomposition: Optional[Decomposition]


def check_involutive(
    dist: Distribution, policy: ZeroTestPolicy = DEFAULT_POLICY
) -> tuple[Certificate, tuple[BracketRecord, ...]]:
    """All pairwise brackets of generators decompose back into the span."""
    gens = dist.generators
    names = dist.names()
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    brackets = [lie_bracket(gens[i], gens[j]) for i, j in pairs]
    records = []
    items = []
    loci: list[Expression] = []
    table = {}
    for (i, j), dec in zip(pairs, decompose_in_span(brackets, gens, policy)):
        items.append(CheckItem("[%s, %s] in span" % (names[i], names[j]), dec.residual))
        if dec.coefficients is None:
            records.append(BracketRecord(names[i], names[j], None))
            continue
        loci.extend(dec.pivots)
        records.append(BracketRecord(names[i], names[j], dec))
        table["[%s, %s]" % (names[i], names[j])] = dec.as_json()
    cert = bundle("involutivity", items, loci=loci, structure_constants=table)
    return cert, tuple(records)


@dataclass(frozen=True)
class SymmetryResult:
    """Certified bracket decompositions of one candidate symmetry field."""

    field: VectorField
    members: tuple[VectorField, ...]
    lambdas: tuple[Expression, ...]          # coefficient of the field itself
    coefficients: tuple[tuple[Expression, ...], ...]  # span part per member
    certificate: Certificate
    # Independence of (members..., field), also in the certificate payload.
    independence: Certificate

    @property
    def ok(self) -> bool:
        return self.certificate.ok

    @property
    def standard(self) -> bool:
        """True when every lambda is canonically zero (a standard symmetry)."""
        return all(l.is_zero_expr() for l in self.lambdas)


def check_cinf_symmetry(
    members: Sequence[VectorField],
    field: VectorField,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> SymmetryResult:
    """Certify [field, V] = lambda_V field + span(members) for each member V.

    All brackets decompose, in one elimination, over the basis (members...,
    field), so the last coefficient of each decomposition is lambda_V.
    """
    members = tuple(members)
    basis = list(members) + [field]
    fname = _label(field, "X")
    indep = check_independent(field.chart, basis, policy)
    # Independence enters through the certificate payload; items hold the
    # bracket checks.  Over a dependent basis the brackets have no unique
    # decomposition, so the level is refuted by the failing independence
    # items and every lambda and coefficient is left zero.
    if not indep.ok:
        zeros = tuple(kernel.ZERO for _ in members)
        cert = bundle(
            "cinf-symmetry",
            indep.failing(),
            ok=False,
            field=fname,
            independence=indep.as_json(),
        )
        return SymmetryResult(field, members, zeros, tuple(zeros for _ in members), cert, indep)
    items = []
    lambdas = []
    coeffs = []
    loci: list[Expression] = []
    brackets = [lie_bracket(field, V) for V in members]
    span = ", ".join(_label(m, "?") for m in members)
    for k, (V, dec) in enumerate(zip(members, decompose_in_span(brackets, basis, policy))):
        vname = _label(V, "V%d" % (k + 1))
        items.append(CheckItem("[%s, %s] in span{%s, %s}" % (fname, vname, span, fname), dec.residual))
        if dec.coefficients is None:
            lambdas.append(kernel.ZERO)
            coeffs.append(tuple(kernel.ZERO for _ in members))
            continue
        lambdas.append(dec.coefficients[-1])
        coeffs.append(dec.coefficients[:-1])
        loci.extend(dec.pivots)
    cert = bundle(
        "cinf-symmetry",
        items,
        loci=loci,
        ok=indep.ok,
        field=fname,
        independence=indep.as_json(),
    )
    return SymmetryResult(field, members, tuple(lambdas), tuple(coeffs), cert, indep)


@dataclass(frozen=True)
class CinfStructure:
    """An ordered family certified level by level over a distribution."""

    distribution: Distribution
    fields: tuple[VectorField, ...]
    levels: tuple[SymmetryResult, ...]
    independence: Certificate
    involutivity: Certificate

    @property
    def chart(self) -> Chart:
        return self.distribution.chart

    @property
    def ok(self) -> bool:
        return (
            self.independence.ok
            and self.involutivity.ok
            and all(l.ok for l in self.levels)
        )

    @property
    def corank(self) -> int:
        return len(self.fields)

    def field_names(self) -> tuple[str, ...]:
        return tuple(_label(f, "X%d" % (i + 1)) for i, f in enumerate(self.fields))

    def level(self, i0: int) -> SymmetryResult:
        """1-based level access (level i0 certifies X_{i0})."""
        return self.levels[i0 - 1]

    def certificate(self) -> Certificate:
        """The level items, then any failing involutivity or independence
        item, so that every refutation names a failing check."""
        items = []
        for lv in self.levels:
            items.extend(lv.certificate.items)
        # A level over a dependent basis already holds the independence
        # items that fail.
        for item in self.involutivity.failing() + self.independence.failing():
            if item not in items:
                items.append(item)
        loci = []
        for lv in self.levels:
            loci.extend(lv.certificate.loci)
        payload = {
            "independence": self.independence.as_json(),
            "involutivity": self.involutivity.as_json(),
            "levels": [lv.certificate.as_json() for lv in self.levels],
            "standard_flags": [lv.standard for lv in self.levels],
        }
        return Certificate(
            "cinf-structure",
            self.ok,
            tuple(items),
            tuple(loci),
            tuple(sorted(payload.items())),
        )


def check_cinf_structure(
    dist: Distribution,
    fields: Sequence[VectorField],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> CinfStructure:
    """Certify an ordered family as a structure over the distribution.

    Level k checks X_k against members {generators, X_1..X_{k-1}}; the full
    family {generators, X_1..X_{n-r}} must have rank n on the chart.  The last
    level already certifies the independence of exactly that family.
    """
    fields = tuple(fields)
    chart = dist.chart
    if dist.rank + len(fields) != chart.dim:
        raise ChartError(
            "structure needs %d fields on top of rank %d in dimension %d"
            % (chart.dim - dist.rank, dist.rank, chart.dim)
        )
    invol, _records = check_involutive(dist, policy)
    levels = []
    for k in range(1, len(fields) + 1):
        members = tuple(dist.generators) + tuple(fields[: k - 1])
        levels.append(check_cinf_symmetry(members, fields[k - 1], policy))
    if levels:
        indep = levels[-1].independence
    else:
        indep = check_independent(chart, dist.generators, policy)
    return CinfStructure(dist, fields, tuple(levels), indep, invol)


# ---------------------------------------------------------------------------
# Dual coframe.


@dataclass(frozen=True)
class DualForms:
    """The 1-forms dual (up to sign and Delta) to the structure fields."""

    structure: CinfStructure
    delta: Expression
    omegas: tuple[KForm, ...]
    certificate: Certificate

    @property
    def chart(self) -> Chart:
        return self.structure.chart

    def omega(self, i0: int) -> KForm:
        return self.omegas[i0 - 1]

    def pairing(self, i0: int) -> Expression:
        """X_i0 . omega_i0, the scalar that converts between the factor kinds."""
        return interior_product(self.structure.fields[i0 - 1], self.omega(i0)).coeff(())


def dual_one_forms(
    structure: CinfStructure, policy: ZeroTestPolicy = DEFAULT_POLICY
) -> DualForms:
    """The dual coframe, read off the cofactors of the field matrix.

    M has the generators, then the structure fields in order, as rows, and
    Delta = det(M).  omega_i is the contraction of the volume form with every
    row but X_i: its d(x_j) coefficient is (-1)^(n-1-p) times cofactor (p, j)
    of M, p = r + i.  Delta and every cofactor come from one elimination
    (linalg.cofactors).  While Delta is nonzero, the annihilation and pairing
    items are n independent linear conditions on each omega_i, so they
    certify it; a singular M gets Delta = 0, no forms, and a failing Delta
    item.
    """
    chart = structure.chart
    zs = list(structure.distribution.generators)
    xs = list(structure.fields)
    n = chart.dim
    r = len(zs)
    m = len(xs)

    got = linalg.cofactors([list(f.components) for f in zs + xs], range(r, n), policy)
    delta, cofs = got if got is not None else (kernel.ZERO, [])
    omegas = tuple(
        KForm.make(chart, 1, {(j,): -c if (n - 1 - r - i) % 2 else c for j, c in enumerate(row)})
        for i, row in enumerate(cofs)
    )

    items = []
    loci: list[Expression] = [delta]
    items.append(CheckItem("Delta is nonzero", is_zero(delta, policy), expect_zero=False))

    # Annihilation and pairing.
    for zi, Z in enumerate(zs):
        zname = _label(Z, "Z%d" % (zi + 1))
        for i, w in enumerate(omegas):
            val = interior_product(Z, w).coeff(())
            items.append(
                CheckItem("%s . omega_%d = 0" % (zname, i + 1), is_zero(val, policy))
            )
    for xi, X in enumerate(xs):
        xname = _label(X, "X%d" % (xi + 1))
        for i, w in enumerate(omegas):
            val = interior_product(X, w).coeff(())
            if xi == i:
                sign = -1 if (m - 1 - i) % 2 else 1
                expected = delta if sign > 0 else -delta
                items.append(
                    CheckItem(
                        "%s . omega_%d = %sDelta" % (xname, i + 1, "" if sign > 0 else "-"),
                        is_zero(val - expected, policy),
                    )
                )
            else:
                items.append(
                    CheckItem("%s . omega_%d = 0" % (xname, i + 1), is_zero(val, policy))
                )

    cert = bundle("dual-forms", items, loci=loci, delta=_fmt(delta))
    return DualForms(structure, delta, omegas, cert)


def _fmt(e: Expression) -> str:
    from . import syntax

    return syntax.format_expression(e)


@dataclass(frozen=True)
class NormalizedDual:
    """sigma_i = (-1)^(m-i)/Delta * omega_i with X_i . sigma_j = delta_ij."""

    dual: DualForms
    sigmas: tuple[KForm, ...]
    certificate: Certificate


def normalize_dual(
    dual: DualForms, policy: ZeroTestPolicy = DEFAULT_POLICY
) -> NormalizedDual:
    m = len(dual.omegas)
    sigmas = []
    for i, w in enumerate(dual.omegas, start=1):
        sign = -1 if (m - i) % 2 else 1
        scale = kernel.const_expr(sign) / dual.delta
        sigmas.append(w.scaled(scale))
    items = []
    xs = dual.structure.fields
    for i, X in enumerate(xs):
        for j, s in enumerate(sigmas):
            val = interior_product(X, s).coeff(())
            expected = kernel.ONE if i == j else kernel.ZERO
            items.append(
                CheckItem(
                    "X%d . sigma_%d = %d" % (i + 1, j + 1, 1 if i == j else 0),
                    is_zero(val - expected, policy),
                )
            )
    cert = bundle("normalized-dual", items, loci=[dual.delta])
    return NormalizedDual(dual, tuple(sigmas), cert)


# ---------------------------------------------------------------------------
# Rescaling.


@dataclass(frozen=True)
class RescaleResult:
    field: VectorField
    lambdas: tuple[Expression, ...]
    coefficients: tuple[tuple[Expression, ...], ...]
    certificate: Certificate


def rescale_symmetry(
    field_or_result,
    h,
    members: Optional[Sequence[VectorField]],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> RescaleResult:
    """Rescale a certified symmetry X by nonvanishing h and re-certify hX.

    The predicted law lambda' = lambda - V(h)/h and span' = h * span is
    verified coefficient by coefficient against a direct re-decomposition of
    the brackets of hX.  The members below X are read only when X is given as
    a field rather than as its SymmetryResult.
    """
    if isinstance(field_or_result, SymmetryResult):
        base = field_or_result
    else:
        base = check_cinf_symmetry(members, field_or_result, policy)
        if not base.ok:
            from .errors import CertificationError

            raise CertificationError(
                "cannot rescale: the field is not a certified symmetry",
                certificate=base.certificate,
            )
    X = base.field
    chart = X.chart
    h = chart.coerce(h)
    items = [CheckItem("h is nonvanishing", is_zero(h, policy), expect_zero=False)]
    newname = ("h*%s" % X.name) if X.name else "h*X"
    Y = X.scaled(h, name=newname)
    direct = check_cinf_symmetry(base.members, Y, policy)
    lam_pred = []
    coef_pred = []
    for k, V in enumerate(base.members):
        vname = _label(V, "V%d" % (k + 1))
        lp = base.lambdas[k] - apply_field(V, h) / h
        cp = tuple(h * c for c in base.coefficients[k])
        lam_pred.append(lp)
        coef_pred.append(cp)
        items.append(
            CheckItem(
                "lambda'[%s] matches rescaling law" % vname,
                is_zero(direct.lambdas[k] - lp, policy),
            )
        )
        for j, (a, b) in enumerate(zip(direct.coefficients[k], cp)):
            items.append(
                CheckItem(
                    "span coefficient %d of [%s] scales by h" % (j + 1, vname),
                    is_zero(a - b, policy),
                )
            )
    cert = bundle(
        "rescale-symmetry", items, loci=[h], ok=direct.ok, direct=direct.certificate.as_json()
    )
    return RescaleResult(Y, tuple(lam_pred), tuple(coef_pred), cert)