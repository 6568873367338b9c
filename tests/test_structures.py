"""Span certification: involutivity, symmetry levels, dual coframes, rescaling.

Expected bracket decompositions below were derived by hand from the field
components; the dual-form coefficients were checked against cofactor
determinants independently of the contraction code.
"""

from pathlib import Path

import pytest

from cinfstruct import kernel, linalg, structures
from cinfstruct.calculus import VectorField
from cinfstruct.certs import CheckItem, bundle
from cinfstruct.charts import Chart
from cinfstruct.errors import CertificationError, ChartError
from cinfstruct.structures import (
    Distribution,
    check_cinf_structure,
    check_cinf_symmetry,
    check_independent,
    check_involutive,
    normalize_dual,
    rescale_symmetry,
)
from cinfstruct.scenario import load_scenario
from cinfstruct.zerotest import PROVED, Certainty, ZeroTestResult

import helpers

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_sampled_span_membership_is_not_labeled_proved():
    # exp(2x) - exp(x)^2 vanishes, but only sampling shows it: the bracket
    # lies in the span by a sampled residual test, not a proved one.
    ch = Chart("M", ("x", "y", "z"))
    Z1 = helpers.field(ch, "Z1", 1, 0, 0)
    Z2 = helpers.field(ch, "Z2", 0, 1, "exp(2*x) - exp(x)^2")
    cert, _records = check_involutive(Distribution(ch, (Z1, Z2)))
    (item,) = cert.items
    assert item.label == "[Z1, Z2] in span"
    assert item.ok
    assert item.result.certainty is Certainty.PROBABLY_ZERO
    assert item.result.samples_used > 0


def test_involutivity_records_the_structure_constants(dim4):
    cert, records = check_involutive(dim4.dist)
    assert cert.ok
    assert len(records) == 1
    rec = records[0]
    assert (rec.left, rec.right) == ("Z1", "Z2")
    assert rec.decomposition.coefficient("Z1") == dim4.chart.parse("-x3")
    assert rec.decomposition.coefficient("Z2") == kernel.ZERO
    assert dict(cert.payload)["structure_constants"]["[Z1, Z2]"]["Z1"] == "-x3"


def test_non_involutive_pair_is_refuted_with_witness():
    ch = Chart("N", ("x", "y", "z"))
    Za = helpers.field(ch, "Za", 1, 0, 0)
    Zb = helpers.field(ch, "Zb", 0, 1, "x")
    cert, records = check_involutive(Distribution(ch, (Za, Zb)))
    assert not cert.ok
    assert records[0].decomposition is None
    assert cert.witness is not None


def test_independence_certificate_carries_the_rank(dim4):
    cert = check_independent(dim4.chart, dim4.gens + dim4.fields)
    assert cert.ok
    assert dict(cert.payload)["rank"] == 4

    X1 = dim4.fields[0]
    doubled = X1.scaled(kernel.const_expr(2), name="2X1")
    dep = check_independent(dim4.chart, [X1, doubled])
    assert not dep.ok
    assert dict(dep.payload)["rank"] == 1
    # The certificate names the failing item: the row without a pivot is
    # proved to vanish.
    (failing,) = dep.failing()
    assert failing.label == "rows left without a pivot are nonzero (rank 1 of 2)"
    assert failing.result == PROVED


def test_a_level_over_a_dependent_basis_decomposes_nothing(monkeypatch):
    ch = Chart("D", ("x", "y", "z"))
    Z1 = helpers.field(ch, "Z1", 1, 0, 0)
    X1 = helpers.field(ch, "X1", 0, 1, 0)
    X2 = helpers.field(ch, "X2", 0, "x", 0)

    def refuse(*_args):
        raise AssertionError("decomposed over a dependent basis")

    monkeypatch.setattr(structures, "decompose_in_span", refuse)
    level = check_cinf_symmetry((Z1, X1), X2)
    assert not level.ok
    assert level.certificate.items == level.independence.failing()
    assert level.lambdas == (kernel.ZERO, kernel.ZERO)
    monkeypatch.undo()
    structure = check_cinf_structure(Distribution(ch, (Z1,)), (X1, X2))
    assert not structure.ok
    failing = structure.certificate().failing()
    assert [it.label for it in failing] == ["rows left without a pivot are nonzero (rank 2 of 3)"]


@pytest.mark.parametrize("name", ["example31.json", "airy.json"])
def test_structure_independence_is_that_of_the_full_frame(name):
    sc = load_scenario(SCENARIOS / name)
    frame = list(sc.generators) + list(sc.structure_fields)
    direct = check_independent(sc.chart, frame).as_json()
    structure = check_cinf_structure(sc.distribution, sc.structure_fields)
    assert structure.independence.as_json() == direct
    # With no fields on top, the generators alone make the frame.
    full = check_cinf_structure(Distribution(sc.chart, tuple(frame)), ())
    assert full.independence.as_json() == direct


@pytest.mark.parametrize("name, expected", [("example31.json", 5), ("airy.json", 6)])
def test_each_bracket_family_takes_one_elimination(name, expected, monkeypatch):
    # One elimination for all generator brackets (none below rank 2), and per
    # level one for the independence and one for all of its brackets.
    calls = []
    eliminate = linalg._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    sc = load_scenario(SCENARIOS / name)
    structure = check_cinf_structure(sc.distribution, sc.structure_fields)
    assert structure.ok
    rank = sc.distribution.rank
    assert len(calls) == (1 if rank >= 2 else 0) + 2 * structure.corank == expected


def test_bundle_ands_its_ok_with_the_items():
    passing = CheckItem("passes", ZeroTestResult(Certainty.PROVED_ZERO, 1.0))
    assert passing.ok
    cert = bundle("demo", [passing], ok=False, note="x")
    assert cert.ok is False
    assert cert.as_json()["ok"] is False
    assert bundle("demo", [passing]).ok is True


def test_level_one_brackets(dim4):
    p = dim4.chart.parse
    lv = dim4.structure.level(1)
    assert lv.ok
    assert not lv.standard
    # [X1, Z1] = -X1 and [X1, Z2] = Z1 - x3*X1
    assert lv.lambdas == (p("-1"), p("-x3"))
    assert lv.coefficients == ((kernel.ZERO, kernel.ZERO), (kernel.ONE, kernel.ZERO))


def test_level_two_brackets(dim4):
    p = dim4.chart.parse
    lv = dim4.structure.level(2)
    assert lv.ok
    assert lv.lambdas == (p("(x3*x4 + x2)/x2"), p("2*x3"), p("-x4/x2"))
    assert lv.coefficients == (
        (p("-x3/x2"), kernel.ZERO, p("-x3^2/x2")),
        (kernel.ZERO, kernel.ZERO, kernel.ZERO),
        (p("1/x2"), kernel.ZERO, p("x3/x2")),
    )
    assert dim4.structure.ok
    assert dim4.structure.field_names() == ("X1", "X2")


def test_structure_rejects_wrong_field_count(dim4):
    with pytest.raises(ChartError, match="needs 2 fields"):
        check_cinf_structure(dim4.dist, dim4.fields[:1])


def test_scaled_field_leaves_the_bare_span(dim4):
    f2 = dim4.chart.parse(helpers.DIM4_F2)
    Y2 = dim4.fields[1].scaled(f2, name="Y2")
    res = check_cinf_symmetry(dim4.gens, Y2)
    assert not res.ok
    assert res.certificate.witness is not None


def test_scaled_field_is_standard_over_the_extended_span(dim4):
    p = dim4.chart.parse
    f2 = p(helpers.DIM4_F2)
    Y2 = dim4.fields[1].scaled(f2, name="Y2")
    members = dim4.gens + (dim4.fields[0],)
    res = check_cinf_symmetry(members, Y2)
    assert res.ok
    assert res.standard
    # [Y2, Z1] decomposes with no Y2 component at all
    assert res.lambdas[0] == kernel.ZERO
    assert res.coefficients[0] == (
        p("-x3*(x2 - x3*x4)^2/x2^2"),
        kernel.ZERO,
        p("-x3^2*(x2 - x3*x4)^2/x2^2"),
    )


def test_rescaling_follows_the_lambda_law(dim4):
    p = dim4.chart.parse
    res = rescale_symmetry(dim4.fields[0], "x2", dim4.gens)
    assert res.certificate.ok
    assert res.field.name == "h*X1"
    assert res.field.components == (kernel.ZERO, p("x2*x4"), p("x2"), kernel.ZERO)
    # lambda' = lambda - V(h)/h with h = x2
    assert res.lambdas[0] == p("(x3*x4 - 2*x2)/x2")
    assert res.lambdas[1] == p("-x3")
    # span coefficients pick up a factor of h
    assert res.coefficients[0] == (kernel.ZERO, kernel.ZERO)
    assert res.coefficients[1] == (p("x2"), kernel.ZERO)


def test_rescaling_refuses_an_uncertified_base(dim4):
    with pytest.raises(CertificationError):
        rescale_symmetry(dim4.fields[1], "x2", dim4.gens[:1])


def test_dual_forms_dim4(dim4):
    p = dim4.chart.parse
    dual = dim4.dual
    assert dual.certificate.ok
    assert dual.delta == p("-x2")
    w1, w2 = dual.omega(1), dual.omega(2)
    assert w1.coeff((0,)) == p("x3^2*(x2 - x3*x4)")
    assert w1.coeff((1,)) == p("x3")
    assert w1.coeff((2,)) == p("x2 - x3*x4")
    assert w1.coeff((3,)) == kernel.ZERO
    assert w2.coeff((0,)) == p("-(x2 - x3*x4)^2")
    assert w2.coeff((1,)) == p("x4")
    assert w2.coeff((2,)) == p("-x4^2")
    assert w2.coeff((3,)) == p("-x2")
    labels = [it.label for it in dual.certificate.items]
    assert "X1 . omega_1 = -Delta" in labels
    assert "X2 . omega_2 = Delta" in labels


def test_normalized_dual_pairs_to_kronecker_delta(dim4):
    from cinfstruct.calculus import interior_product

    p = dim4.chart.parse
    nd = normalize_dual(dim4.dual)
    assert nd.certificate.ok
    for i, X in enumerate(dim4.structure.fields):
        for j, s in enumerate(nd.sigmas):
            val = interior_product(X, s).coeff(())
            assert val == (kernel.ONE if i == j else kernel.ZERO)
    # sigma_1 = -omega_1/Delta = omega_1/x2
    assert nd.sigmas[0].coeff((1,)) == p("x3/x2")


def test_airy_levels(airy):
    p = airy.chart.parse
    st = airy.structure
    assert st.ok
    assert st.level(1).standard  # [X1, A] = 0 outright
    lv2 = st.level(2)
    assert lv2.lambdas == (p("(u2 + x)/u1"), kernel.ZERO)
    assert lv2.coefficients == ((kernel.ZERO, kernel.ONE), (kernel.ZERO, kernel.ZERO))
    lv3 = st.level(3)
    assert lv3.lambdas == (p("-(u1 + u2 + 2*x)/u1"), kernel.ZERO, p("1/u1"))
    assert lv3.coefficients[0] == (kernel.ZERO, kernel.ZERO, kernel.ONE)
    assert lv3.coefficients[1] == (kernel.ZERO, kernel.ZERO, kernel.ZERO)
    assert lv3.coefficients[2] == (kernel.ZERO, kernel.ZERO, kernel.ZERO)


def test_airy_dual_forms(airy):
    p = airy.chart.parse
    dual = airy.dual
    assert dual.certificate.ok
    assert dual.delta == kernel.ONE
    w1, w2, w3 = dual.omega(1), dual.omega(2), dual.omega(3)
    assert w1.coeff((0,)) == p("-u1")
    assert w1.coeff((1,)) == kernel.ONE
    assert w1.coeff((2,)) == kernel.ZERO
    assert w1.coeff((3,)) == kernel.ZERO
    assert w2.coeff((0,)) == p("u2")
    assert w2.coeff((1,)) == kernel.ZERO
    assert w2.coeff((2,)) == p("-1")
    assert w2.coeff((3,)) == kernel.ZERO
    assert w3.coeff((0,)) == p("(u2 + x)^2/u1 + u2 + x + 1 - x*u1")
    assert w3.coeff((1,)) == kernel.ZERO
    assert w3.coeff((2,)) == p("-(u2 + x)/u1")
    assert w3.coeff((3,)) == kernel.ONE


def test_distribution_rejects_off_chart_generators(dim4):
    other = Chart("O", ("a", "b"))
    stray = VectorField(other, (kernel.ONE, kernel.ZERO), name="S")
    with pytest.raises(ChartError):
        Distribution(dim4.chart, (dim4.gens[0], stray))
