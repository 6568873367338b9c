"""Stepwise reduction along an ordered symmetry structure.

Each step consumes the top level: a first integral I of everything below the
top field is certified (dI wedge top-form = 0, top field does not kill I),
the level set I = C is parametrized as a graph by solving one coordinate,
and the remaining fields and forms move to the lower chart by pushforward
and pullback.  Constants accumulate on the descending charts; factors found
down there lift back to the original chart by substituting each constant
with its integral until none remain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from . import kernel, syntax
from .calculus import (
    KForm,
    SmoothMap,
    VectorField,
    apply_field,
    compose_maps,
    d_of_function,
    interior_product,
    pullback_form,
    pushforward_fields,
    pushforward_tangent,
    wedge,
)
from .certs import Certificate, CheckItem, bundle, form_vanishes
from .charts import Chart, parse_rule
from .errors import CertificationError, ChartError
from .factors import check_relative_integrating_factor, check_symmetrizing_factor
from .kernel import Expression
from .linalg import pick_pivot
from .structures import (
    CinfStructure,
    Distribution,
    DualForms,
    check_cinf_structure,
    dual_one_forms,
)
from .zerotest import (
    DEFAULT_POLICY,
    PROVED,
    Certainty,
    ZeroTestPolicy,
    ZeroTestResult,
    is_zero,
    weakest,
)

__all__ = [
    "Stage",
    "ReductionStep",
    "ReductionState",
    "StepSpec",
    "init_reduction",
    "verify_first_integral",
    "descend",
    "run_reduction",
    "FactorEntry",
    "derive_factors",
    "lift_to_original",
    "verify_integral_manifold",
    "final_report",
    "ReductionReport",
    "build_solvable_structure",
]


@dataclass(frozen=True)
class Stage:
    """The data living on one chart of the descent."""

    chart: Chart
    generators: tuple[VectorField, ...]
    fields: tuple[VectorField, ...]
    forms: tuple[KForm, ...]
    structure: Optional[CinfStructure]

    @property
    def depth(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class ReductionStep:
    index: int
    level: int
    constant: str
    integral: Expression
    solve_for: str
    solution: Expression
    embedding: SmoothMap
    first_integral: Certificate
    certificate: Certificate

    @property
    def ok(self) -> bool:
        return self.first_integral.ok and self.certificate.ok

    def as_json(self):
        return {
            "level": self.level,
            "constant": self.constant,
            "integral": syntax.format_expression(self.integral),
            "solve_for": self.solve_for,
            "solution": syntax.format_expression(self.solution),
            "embedding": self.embedding.as_json(),
            "first_integral": self.first_integral.as_json(),
            "certificate": self.certificate.as_json(),
        }


@dataclass
class ReductionState:
    structure: CinfStructure
    dual: Optional[DualForms]  # None when the structure is refuted
    policy: ZeroTestPolicy
    stages: list[Stage] = field(default_factory=list)
    steps: list[ReductionStep] = field(default_factory=list)

    @property
    def chart(self) -> Chart:
        return self.structure.chart

    @property
    def current(self) -> Stage:
        return self.stages[-1]

    @property
    def ok(self) -> bool:
        return (
            self.structure.ok
            and self.dual.certificate.ok
            and all(s.ok for s in self.steps)
        )

    @property
    def complete(self) -> bool:
        return not self.current.fields

    def level_of_next_step(self) -> int:
        return self.current.depth

    def step_constants(self) -> tuple[str, ...]:
        return tuple(s.constant for s in self.steps)


def init_reduction(
    dist: Distribution,
    fields: Sequence[VectorField],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> ReductionState:
    """Certify the structure, then its dual coframe; open the first stage.

    A refuted structure gets no dual coframe and its stage no forms:
    nothing can descend from it.
    """
    structure = check_cinf_structure(dist, fields, policy)
    dual = dual_one_forms(structure, policy) if structure.ok else None
    state = ReductionState(structure, dual, policy)
    state.stages.append(
        Stage(
            structure.chart,
            tuple(structure.distribution.generators),
            tuple(structure.fields),
            tuple(dual.omegas) if dual else (),
            structure,
        )
    )
    return state


def _require_certified(state: ReductionState) -> None:
    if not state.structure.ok:
        raise CertificationError(
            "the ordered family is not a certified structure",
            certificate=state.structure.certificate(),
        )
    if not state.dual.certificate.ok:
        raise CertificationError(
            "the dual coframe did not certify", certificate=state.dual.certificate
        )


def verify_first_integral(state: ReductionState, integral) -> Certificate:
    """Certify a first integral for the current top level.

    Items: every member below the top kills I; dI wedge (top form) vanishes;
    dI itself does not; the top field does not kill I.  A refuted structure
    raises CertificationError.
    """
    _require_certified(state)
    policy = state.policy
    stage = state.current
    if not stage.fields:
        raise ChartError("the reduction is already complete; nothing to verify")
    chart = stage.chart
    I = chart.coerce(integral)
    top_field = stage.fields[-1]
    top_form = stage.forms[-1]
    members = tuple(stage.generators) + tuple(stage.fields[:-1])
    items = []
    for k, V in enumerate(members):
        vname = V.name or "V%d" % (k + 1)
        items.append(CheckItem("%s(I) = 0" % vname, is_zero(apply_field(V, I), policy)))
    dI = d_of_function(chart, I)
    items.extend(form_vanishes("dI wedge top form = 0", wedge(dI, top_form), policy))
    nz = None
    for _idx, c in dI.coeffs:
        nz = is_zero(c, policy)
        if not nz.is_zero:
            break
    items.append(
        CheckItem(
            "dI is nonvanishing",
            nz if nz is not None else PROVED,
            expect_zero=False,
        )
    )
    items.append(
        CheckItem(
            "%s(I) is nonvanishing" % (top_field.name or "the top field"),
            is_zero(apply_field(top_field, I), policy),
            expect_zero=False,
        )
    )
    return bundle(
        "first-integral",
        items,
        level=state.level_of_next_step(),
        integral=syntax.format_expression(I),
    )


def _rules_blocking(chart: Chart, coord: str):
    for r in chart.rules:
        if r.var == coord or coord in r.rhs.symbols():
            return r
    return None


def descend(
    state: ReductionState,
    integral,
    constant: str,
    solve_for: str,
    solution,
    add_rules: Sequence[str] = (),
) -> ReductionStep:
    """Consume the top level along the level set {integral = constant}.

    The integral is first certified by verify_first_integral.  The level set
    is presented as a graph: solve_for is expressed by `solution` on the
    lower chart (which gains the constant and any `add_rules`).  The identity
    I(graph point) = constant must hold exactly; remaining generators and
    fields push forward, remaining forms pull back, the consumed form must
    pull back to zero, and the pushed family is re-certified as a structure
    on the lower chart.  Every zero test runs under state.policy.
    """
    policy = state.policy
    _require_certified(state)
    stage = state.current
    if not stage.fields:
        raise ChartError("the reduction is already complete")
    chart = stage.chart
    level = state.level_of_next_step()
    I = chart.coerce(integral)

    fic = verify_first_integral(state, I)
    if not fic.ok:
        raise CertificationError(
            "not a certified first integral at level %d" % level, certificate=fic
        )

    if solve_for not in chart.coords:
        raise ChartError("%r is not a coordinate of %r" % (solve_for, chart.name))
    if constant in chart.allowed:
        raise ChartError("constant name %r already in use" % constant)
    blocking = _rules_blocking(chart, solve_for)
    if blocking is not None:
        raise ChartError(
            "cannot eliminate %r: the rule for %s depends on it"
            % (solve_for, blocking.func)
        )

    lower_coords = tuple(c for c in chart.coords if c != solve_for)
    lower_name = "%s_r%d" % (state.chart.name, len(state.steps) + 1)
    lower = chart.restricted(lower_name, lower_coords, add_constants=(constant,))
    if add_rules:
        lower = lower.with_rules([parse_rule(t, lower) for t in add_rules])
    sol = lower.coerce(solution)

    # The exact level-set gate: I with solve_for replaced by the solution
    # must collapse to the bare constant.
    residual = kernel.substitute(I, {solve_for: sol}, lower.rules) - kernel.sym(
        constant
    )
    gate = is_zero(residual, policy)
    items = [
        CheckItem("I on the graph equals %s exactly" % constant, gate)
    ]
    if gate.certainty is not Certainty.PROVED_ZERO:
        cert = bundle(
            "reduction-step",
            items,
            level=level,
            constant=constant,
            solve_for=solve_for,
            note="the level-set identity must hold exactly",
        )
        raise CertificationError(
            "the graph does not parametrize the level set at level %d" % level,
            certificate=cert,
        )

    comps = tuple(
        sol if c == solve_for else kernel.sym(c) for c in chart.coords
    )
    iota = SmoothMap(lower, chart, comps, name="step%d" % (len(state.steps) + 1))

    consumed = pullback_form(iota, stage.forms[-1])
    items.extend(form_vanishes("consumed form pulls back to zero", consumed, policy))

    pushed = pushforward_tangent(iota, stage.generators + stage.fields[:-1], policy)
    new_gens, new_fields = pushed[: len(stage.generators)], pushed[len(stage.generators) :]
    new_forms = tuple(pullback_form(iota, w) for w in stage.forms[:-1])

    for i, W in enumerate(new_fields):
        for j, w in enumerate(new_forms):
            how = "pairs nonzero with" if i == j else "annihilates"
            items.append(
                CheckItem(
                    "pushed %s %s pulled form %d" % (W.name or "X%d" % (i + 1), how, j + 1),
                    is_zero(interior_product(W, w).coeff(()), policy),
                    expect_zero=i != j,
                )
            )
    for Z in new_gens:
        for j, w in enumerate(new_forms):
            items.append(
                CheckItem(
                    "pushed %s annihilates pulled form %d" % (Z.name or "Z", j + 1),
                    is_zero(interior_product(Z, w).coeff(()), policy),
                )
            )

    sub_structure = check_cinf_structure(Distribution(lower, new_gens), new_fields, policy)
    # As strong as the weakest zero test the substructure's verdict rests on.
    if sub_structure.ok:
        sub_items = (
            sub_structure.independence.items
            + sub_structure.involutivity.items
            + sub_structure.certificate().items
        )
        verdict = weakest(it.result for it in sub_items if it.expect_zero)
    else:
        verdict = ZeroTestResult(Certainty.NONZERO, 1.0)
    items.append(CheckItem("pushed family is a structure on the lower chart", verdict))

    cert = bundle(
        "reduction-step",
        items,
        level=level,
        constant=constant,
        solve_for=solve_for,
        solution=syntax.format_expression(sol),
        lower_chart=lower.name,
        lower_coords=list(lower.coords),
        substructure=sub_structure.certificate().as_json(),
    )
    step = ReductionStep(
        index=len(state.steps),
        level=level,
        constant=constant,
        integral=I,
        solve_for=solve_for,
        solution=sol,
        embedding=iota,
        first_integral=fic,
        certificate=cert,
    )
    state.steps.append(step)
    state.stages.append(Stage(lower, new_gens, new_fields, new_forms, sub_structure))
    return step


@dataclass(frozen=True)
class StepSpec:
    """One descent, as named in a scenario."""

    integral: str
    constant: str
    solve_for: str
    solution: str
    add_rules: tuple[str, ...] = ()


def run_reduction(
    state: ReductionState, specs: Sequence[StepSpec]
) -> list[ReductionStep]:
    out = []
    for spec in specs:
        out.append(
            descend(
                state,
                spec.integral,
                spec.constant,
                spec.solve_for,
                spec.solution,
                add_rules=spec.add_rules,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Factor derivation and lifting.


def lift_to_original(state: ReductionState, expr: Expression, upto: int) -> Expression:
    """Replace step constants by their integrals until none remain.

    `upto` is the number of earlier steps whose constants may occur.  Each
    pass substitutes all present constants at once; an integral may mention
    constants of strictly earlier steps, so the passes shrink and stop.
    """
    table = {
        state.steps[t].constant: state.steps[t].integral for t in range(upto)
    }
    names = set(table)
    rules = state.stages[upto].chart.rules
    passes = 0
    while True:
        present = expr.symbols() & names
        if not present:
            return expr
        expr = kernel.substitute(
            expr, {k: v for k, v in table.items() if k in present}, rules
        )
        passes += 1
        if passes > len(state.steps) + 1:
            raise CertificationError(
                "constant substitution did not close after %d passes" % passes,
                certificate=bundle("lift", [], constants=sorted(present)),
            )


@dataclass(frozen=True)
class FactorEntry:
    """Per-level factors recovered from one reduction step."""

    level: int
    mu_reduced: Expression
    mu: Expression
    f: Expression
    pairing: Expression
    certificate: Certificate

    @property
    def ok(self) -> bool:
        return self.certificate.ok

    def as_json(self):
        return {
            "level": self.level,
            "mu_reduced": syntax.format_expression(self.mu_reduced),
            "mu": syntax.format_expression(self.mu),
            "f": syntax.format_expression(self.f),
            "pairing": syntax.format_expression(self.pairing),
            "certificate": self.certificate.as_json(),
        }


def derive_factors(state: ReductionState) -> list[FactorEntry]:
    """Recover per-level factors from the recorded steps.

    On each stage the differential of the step integral is proportional to
    the top form; the ratio is the reduced factor, its constant-free lift is
    the relative integrating factor on the original chart, and dividing the
    pairing of the level's field and form turns it into the symmetrizing
    factor.  Both ends are re-certified on the original chart.
    """
    policy = state.policy
    out = []
    for s, step in enumerate(state.steps):
        stage = state.stages[s]
        top_form = stage.forms[-1]
        I = step.integral
        dI = d_of_function(stage.chart, I)
        pos = pick_pivot([c for _, c in top_form.coeffs], policy)
        if pos is None:
            raise CertificationError(
                "the stage-%d top form vanished; no factor can be read off" % s,
                certificate=stage.structure.certificate() if stage.structure else None,
            )
        idx, c = top_form.coeffs[pos]
        mu_red = dI.coeff(idx) / c
        items = [
            CheckItem(
                "reduced factor is nonvanishing", is_zero(mu_red, policy), expect_zero=False
            )
        ]
        resid = dI - top_form.scaled(mu_red)
        items.extend(form_vanishes("dI = (reduced factor) * top form", resid, policy))
        mu = lift_to_original(state, mu_red, s)
        level = step.level
        payload = {
            "level": level,
            "mu_reduced": syntax.format_expression(mu_red),
            "mu": syntax.format_expression(mu),
        }
        pairing = state.dual.pairing(level)
        f = kernel.ONE / (mu * pairing)
        payload["f"] = syntax.format_expression(f)
        leftovers = mu.symbols() - set(state.chart.allowed)
        if leftovers:
            payload["unlifted_symbols"] = sorted(leftovers)
        else:
            mu_cert = check_relative_integrating_factor(state.dual, level, mu, policy)
            f_cert = check_symmetrizing_factor(state.structure, level, f, policy)
            items.extend(mu_cert.items)
            items.extend(f_cert.items)
            payload["mu_certificate"] = mu_cert.as_json()
            payload["f_certificate"] = f_cert.as_json()
        cert = bundle("derived-factors", items, loci=[pairing], **payload)
        out.append(FactorEntry(level, mu_red, mu, f, pairing, cert))
    return out


# ---------------------------------------------------------------------------
# Final assembly.


def verify_integral_manifold(
    dual: DualForms, imap: SmoothMap, policy: ZeroTestPolicy = DEFAULT_POLICY
) -> Certificate:
    """Certify a parametrized manifold as integral for the distribution.

    Every generator must be tangent along the map (its pushforward exists)
    and every dual form must pull back to zero.
    """
    items = []
    gens = dual.structure.distribution.generators
    for Z, (_, tangency) in zip(gens, pushforward_fields(imap, gens, policy)):
        items.append(CheckItem("%s is tangent to the manifold" % (Z.name or "Z"), tangency))
    for i, w in enumerate(dual.omegas, start=1):
        pulled = pullback_form(imap, w)
        items.extend(form_vanishes("form %d pulls back to zero" % i, pulled, policy))
    return bundle("integral-manifold", items, map=imap.as_json())


@dataclass(frozen=True)
class ReductionReport:
    state: ReductionState
    solution_map: Optional[SmoothMap]
    equations: tuple[str, ...]
    certificate: Certificate

    @property
    def ok(self) -> bool:
        return self.certificate.ok

    def as_json(self):
        return {
            "complete": self.state.complete,
            "constants": list(self.state.step_constants()),
            "solution_map": self.solution_map.as_json() if self.solution_map else None,
            "equations": list(self.equations),
            "steps": [s.as_json() for s in self.state.steps],
            "certificate": self.certificate.as_json(),
        }


def final_report(state: ReductionState) -> ReductionReport:
    """Compose the descents and certify the resulting solution manifold."""
    if not state.steps:
        cert = bundle("reduction-report", [], note="no steps recorded")
        return ReductionReport(state, None, (), cert)
    total = state.steps[0].embedding
    for step in state.steps[1:]:
        total = compose_maps(total, step.embedding)
    equations = []
    for coord, comp in zip(state.chart.coords, total.components):
        if comp != kernel.sym(coord):
            equations.append("%s = %s" % (coord, syntax.format_expression(comp)))
    manifold = verify_integral_manifold(state.dual, total, state.policy)
    payload = {
        "parameters": list(total.source.coords),
        "constants": list(state.step_constants()),
        "manifold": manifold.as_json(),
    }
    cert = bundle("reduction-report", list(manifold.items), **payload)
    return ReductionReport(state, total, tuple(equations), cert)


def build_solvable_structure(
    structure: CinfStructure,
    fs: Sequence,
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> tuple[CinfStructure, Certificate]:
    """Scale each field by its factor and certify all levels as standard.

    With Y_k = f_k X_k the brackets with lower members must land in the span
    with no Y_k component at all; every lambda is certified zero.
    """
    chart = structure.chart
    if isinstance(fs, Mapping):
        try:
            fs = [fs[k] for k in range(1, len(structure.fields) + 1)]
        except KeyError as exc:
            raise ValueError("missing factor for level %s" % exc) from None
    fs = [chart.coerce(f) for f in fs]
    if len(fs) != len(structure.fields):
        raise ValueError(
            "need one factor per field (%d given, %d fields)"
            % (len(fs), len(structure.fields))
        )
    ys = tuple(
        X.scaled(f, name="Y%d" % (k + 1))
        for k, (X, f) in enumerate(zip(structure.fields, fs))
    )
    rebuilt = check_cinf_structure(structure.distribution, ys, policy)
    items = []
    for k, lv in enumerate(rebuilt.levels, start=1):
        for m, lam in enumerate(lv.lambdas):
            mname = lv.members[m].name or "V%d" % (m + 1)
            items.append(
                CheckItem(
                    "lambda of [Y%d, %s] vanishes" % (k, mname),
                    is_zero(lam, policy),
                )
            )
    base = rebuilt.certificate()
    cert = bundle(
        "solvable-structure",
        items,
        ok=base.ok,
        structure=base.as_json(),
        factors=[syntax.format_expression(f) for f in fs],
    )
    return rebuilt, cert