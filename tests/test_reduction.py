"""Stepwise descent along certified level sets, and what it yields.

Uses the session-scoped completed reductions for golden checks (those state
objects are never mutated here) and builds fresh states for every failure
path, since a refused descent must leave its state exactly as it was.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from cinfstruct import kernel
from cinfstruct import reduction as rd
from cinfstruct.calculus import SmoothMap
from cinfstruct.charts import Chart
from cinfstruct.cli import main
from cinfstruct.errors import CertificationError, ChartError
from cinfstruct.reduction import (
    build_solvable_structure,
    derive_factors,
    descend,
    final_report,
    init_reduction,
    lift_to_original,
    run_reduction,
    verify_first_integral,
    verify_integral_manifold,
)
from cinfstruct.scenario import load_scenario
from cinfstruct.structures import Distribution, check_cinf_symmetry
from cinfstruct.zerotest import Certainty

import helpers


def fresh_dim4():
    ch = helpers.dim4_chart()
    Z1, Z2, X1, X2 = helpers.dim4_fields(ch)
    return ch, init_reduction(Distribution(ch, (Z1, Z2)), [X1, X2])


def test_completed_reduction_shape(dim4_state):
    assert dim4_state.complete
    assert dim4_state.ok
    assert [s.level for s in dim4_state.steps] == [2, 1]
    assert dim4_state.step_constants() == ("C2", "C1")
    assert len(dim4_state.stages) == 3
    assert dim4_state.stages[1].chart.coords == ("x1", "x2", "x3")
    assert dim4_state.stages[2].chart.coords == ("x1", "x2")


def test_pulled_form_after_the_first_descent(dim4_state):
    stage = dim4_state.stages[1]
    assert len(stage.forms) == 1
    p = stage.chart.parse
    w = stage.forms[0]
    assert w.coeff((0,)) == p("x2*x3^2/(1 + x3*(C2 - x1))")
    assert w.coeff((1,)) == p("x3")
    assert w.coeff((2,)) == p("x2/(1 + x3*(C2 - x1))")


def test_verify_first_integral(dim4_state):
    ch, state = fresh_dim4()
    good = verify_first_integral(state, helpers.DIM4_INTEGRAL_2)
    assert good.ok
    labels = [it.label for it in good.items]
    assert any(l.startswith("dI wedge top form = 0") for l in labels)
    bad = verify_first_integral(state, "x1 + x4")
    assert not bad.ok
    with pytest.raises(ChartError, match="already complete"):
        verify_first_integral(dim4_state, "x1")


def test_descend_rejects_a_perturbed_graph_and_leaves_state_alone():
    ch, state = fresh_dim4()
    with pytest.raises(CertificationError, match="does not parametrize"):
        descend(
            state,
            helpers.DIM4_INTEGRAL_2,
            "C2",
            "x4",
            helpers.DIM4_SOLUTION_2 + " + 1",
        )
    assert state.steps == []
    assert len(state.stages) == 1


def test_descend_rejects_a_non_integral():
    ch, state = fresh_dim4()
    with pytest.raises(CertificationError, match="not a certified first integral"):
        descend(state, "x1 + x4", "C2", "x4", "C2 - x1")
    assert state.steps == []


def test_descend_name_collisions():
    ch, state = fresh_dim4()
    with pytest.raises(ChartError, match="already in use"):
        descend(state, helpers.DIM4_INTEGRAL_2, "x1", "x4", helpers.DIM4_SOLUTION_2)
    with pytest.raises(ChartError, match="not a coordinate"):
        descend(state, helpers.DIM4_INTEGRAL_2, "C2", "x9", helpers.DIM4_SOLUTION_2)
    run_reduction(state, helpers.dim4_steps()[:1])
    with pytest.raises(ChartError, match="already in use"):
        descend(state, helpers.DIM4_INTEGRAL_1, "C2", "x3", helpers.DIM4_SOLUTION_1)


def test_descend_refuses_coordinates_pinned_by_rules():
    ch = helpers.airy_chart()
    A, X1, X2, X3 = helpers.airy_fields(ch)
    state = init_reduction(Distribution(ch, (A,)), [X1, X2, X3])
    with pytest.raises(ChartError, match="cannot eliminate"):
        descend(state, helpers.AIRY_INTEGRAL_3, "C3", "x", "0")


def test_descend_requires_a_certified_structure():
    ch = Chart("N", ("x", "y", "z"))
    Za = helpers.field(ch, "Za", 1, 0, 0)
    Zb = helpers.field(ch, "Zb", 0, 1, "x")
    X = helpers.field(ch, "X", 0, 0, 1)
    state = init_reduction(Distribution(ch, (Za, Zb)), [X])
    assert not state.structure.ok
    with pytest.raises(CertificationError, match="not a certified structure"):
        descend(state, "z", "K", "z", "0")


def test_run_reduction_matches_stepwise_descent(dim4_state):
    ch, state = fresh_dim4()
    specs = helpers.dim4_steps()
    for spec in specs:
        descend(state, spec.integral, spec.constant, spec.solve_for, spec.solution)
    assert [s.level for s in state.steps] == [s.level for s in dim4_state.steps]
    for a, b in zip(state.steps, dim4_state.steps):
        assert a.integral == b.integral
        assert a.solution == b.solution
        assert a.constant == b.constant
    assert state.current.chart.coords == dim4_state.current.chart.coords


def test_lift_to_original_replaces_step_constants(dim4, dim4_state):
    stage1 = dim4_state.stages[1].chart
    lifted = lift_to_original(dim4_state, stage1.parse("C2 - x1"), 1)
    assert lifted == dim4.chart.parse("x4/(x2 - x3*x4)")
    # an expression without constants passes through untouched
    same = lift_to_original(dim4_state, stage1.parse("x2*x3"), 1)
    assert same == dim4.chart.parse("x2*x3")


def test_final_report_dim4(dim4_state):
    rep = final_report(dim4_state)
    assert rep.ok
    assert rep.state.complete
    src = rep.solution_map.source
    assert src.coords == ("x1", "x2")
    assert rep.solution_map.components[2] == src.parse("1/(x1 + C1*x2 - C2)")
    assert rep.solution_map.components[3] == src.parse(
        "(C2 - x1)*(x1 + C1*x2 - C2)/C1"
    )
    assert len(rep.equations) == 2
    assert rep.equations[0].startswith("x3 = ")
    assert rep.equations[1].startswith("x4 = ")
    assert rep.as_json()["complete"] is True


def test_final_report_airy(airy):
    rep = final_report(airy.state)
    assert rep.ok
    src = rep.solution_map.source
    assert src.coords == ("x",)
    assert rep.solution_map.components[1] == src.parse("C1 - H(x)")
    assert rep.solution_map.components[2] == src.parse(helpers.AIRY_SOLUTION_2)
    assert [e.split(" = ")[0] for e in rep.equations] == ["u", "u1", "u2"]


def test_final_report_on_an_unstarted_state():
    ch, state = fresh_dim4()
    rep = final_report(state)
    assert rep.solution_map is None
    assert rep.equations == ()


def test_perturbed_manifold_is_refuted(dim4, dim4_state):
    rep = final_report(dim4_state)
    good = rep.solution_map
    bumped = list(good.components)
    bumped[3] = bumped[3] + kernel.ONE
    bad = SmoothMap(good.source, good.target, tuple(bumped))
    cert = verify_integral_manifold(dim4.dual, bad)
    assert not cert.ok
    assert cert.witness is not None


def test_airy_factor_entries(airy, airy_factors):
    p = airy.chart.parse
    assert set(airy_factors) == {1, 2, 3}
    e3, e2, e1 = airy_factors[3], airy_factors[2], airy_factors[1]
    assert e3.ok and e2.ok and e1.ok
    assert e3.mu == p(helpers.AIRY_MU3)
    assert e3.f == p(helpers.AIRY_F3)
    assert e3.pairing == kernel.ONE
    assert e2.mu == p(helpers.AIRY_MU2)
    assert e2.f == p(helpers.AIRY_F2)
    assert e2.pairing == p("-1")
    assert e1.mu == kernel.ONE
    assert e1.f == kernel.ONE
    for e in (e3, e2, e1):
        assert "f_certificate" in dict(e.certificate.payload)


def test_build_solvable_structure_dim4(dim4, dim4_factors):
    fs = {k: e.f for k, e in dim4_factors.items()}
    rebuilt, cert = build_solvable_structure(dim4.structure, fs)
    assert cert.ok
    assert all(lv.standard for lv in rebuilt.levels)
    assert rebuilt.field_names() == ("Y1", "Y2")
    # the sequence form is the same call
    rebuilt2, cert2 = build_solvable_structure(
        dim4.structure, [helpers.DIM4_F1, helpers.DIM4_F2]
    )
    assert cert2.ok
    assert [y.components for y in rebuilt2.fields] == [
        y.components for y in rebuilt.fields
    ]


def test_build_solvable_structure_airy(airy, airy_factors):
    fs = {k: e.f for k, e in airy_factors.items()}
    rebuilt, cert = build_solvable_structure(airy.structure, fs)
    assert cert.ok
    assert all(lv.standard for lv in rebuilt.levels)
    # the top field alone: f3*X3 is a plain symmetry of the span below it
    res = check_cinf_symmetry(
        (airy.drift,) + airy.fields[:2], airy.fields[2].scaled(airy.chart.parse(helpers.AIRY_F3), name="Y3")
    )
    assert res.ok
    assert res.standard


def test_build_solvable_structure_argument_errors(dim4):
    with pytest.raises(ValueError, match="missing factor for level"):
        build_solvable_structure(dim4.structure, {2: helpers.DIM4_F2})
    with pytest.raises(ValueError, match="one factor per field"):
        build_solvable_structure(dim4.structure, [helpers.DIM4_F1])


def test_derive_factors_needs_no_completed_state():
    ch, state = fresh_dim4()
    run_reduction(state, helpers.dim4_steps()[:1])
    entries = derive_factors(state)
    assert [e.level for e in entries] == [2]
    assert entries[0].f == ch.parse(helpers.DIM4_F2)


def test_sampled_residuals_are_not_reported_proved():
    # exp(2x) - exp(x)^2 vanishes, but only sampling can tell: Z2 moves w by
    # it, so [Z1, Z2] lies in span{Z1, Z2} by a sampled residual alone.
    ch = Chart("E", ("x", "y", "w", "z"))
    Z1 = helpers.field(ch, "Z1", 1, 0, 0, 0)
    Z2 = helpers.field(ch, "Z2", 0, 1, "exp(2*x) - exp(x)^2", 0)
    X1 = helpers.field(ch, "X1", 0, 0, 1, 0)
    X2 = helpers.field(ch, "X2", 0, 0, 0, 1)
    state = init_reduction(Distribution(ch, (Z1, Z2)), [X1, X2])
    step = descend(state, "z", "C2", "z", "C2")
    assert step.certificate.ok
    (pushed,) = [it for it in step.certificate.items if it.label.startswith("pushed family")]
    assert pushed.ok
    assert pushed.result.certainty is Certainty.PROBABLY_ZERO
    assert pushed.result.samples_used > 0

    # The leaf w = 1, z = 0 is tangent to Z2 by the same sampled residual.
    leaf = SmoothMap(Chart("L", ("x", "y")), ch, ("x", "y", "1", "0"))
    cert = verify_integral_manifold(state.dual, leaf)
    assert cert.ok
    tangent = {it.label: it.result.certainty for it in cert.items if "tangent" in it.label}
    assert tangent == {
        "Z1 is tangent to the manifold": Certainty.PROVED_ZERO,
        "Z2 is tangent to the manifold": Certainty.PROBABLY_ZERO,
    }


# [Z1, Z2] leaves the span by x/1000: the structure is refuted.  The digests
# are of the exit code, stdout, stderr and --report text, as in test_golden.
SAMPLED_FALSE = str(Path(__file__).resolve().parent / "data" / "sampled_shear_false.json")
REFUTED_DIGESTS = {
    "reduce": "6e8ceb0c47dbeaa9c3375ca10a03b0772c4a195a518251ed0d393f2a41f73f9d",
    "factors": "de3a00c6332e45a5d44da48f5d608ca21f29517459221617453b6be6490cbbbc",
}


def test_a_refuted_structure_builds_no_dual_forms(monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("dual forms built for a refuted structure")

    monkeypatch.setattr(rd, "dual_one_forms", refuse)
    sc = load_scenario(SAMPLED_FALSE)
    state = init_reduction(sc.distribution, sc.structure_fields, sc.policy)
    assert state.dual is None and state.current.forms == () and not state.ok
    with pytest.raises(CertificationError, match="not a certified structure"):
        verify_first_integral(state, "x")

    report = tmp_path / "report.json"
    for command, want in REFUTED_DIGESTS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, SAMPLED_FALSE, "--report", str(report)])
        blob = json.dumps([code, out.getvalue(), err.getvalue(), report.read_text()])
        assert code == 1
        assert hashlib.sha256(blob.encode()).hexdigest() == want
