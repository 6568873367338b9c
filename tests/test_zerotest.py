"""The graded zero test: proved/probable/refuted outcomes and evaluation."""

from fractions import Fraction

import pytest

from cinfstruct.certs import CheckItem
from cinfstruct.charts import Chart, parse_rule
from cinfstruct.errors import EvaluationError, SamplingError, SingularPointError
from cinfstruct.zerotest import (
    DEFAULT_POLICY,
    Certainty,
    Point,
    ZeroTestPolicy,
    evaluate,
    is_zero,
    sample_slots,
)

CH = Chart("M", ("x1", "x2", "x3", "x4"))


def test_polynomial_identities_are_proved():
    r = is_zero(CH.parse("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2"))
    assert r.certainty is Certainty.PROVED_ZERO
    assert r.is_zero and r.confidence == 1.0 and r.witness is None


def test_rewrite_rules_close_jet_identities_exactly():
    base = Chart("J", ("x", "u"))
    ch = base.with_rules([parse_rule("D(phi, x, 2) = (x + 1/4)*phi", base)])
    r = is_zero(ch.parse("D(phi, x, 2) - (x + 1/4)*phi(x)"))
    assert r.certainty is Certainty.PROVED_ZERO


def test_nonzero_constants_short_circuit():
    r = is_zero(CH.parse("3/7"))
    assert r.certainty is Certainty.PROVED_NONZERO
    assert not r.is_zero and r.witness_value == "3/7"


def test_refutation_witness_is_checkable():
    e = CH.parse("x2 - x3*x4")
    r = is_zero(e)
    assert r.certainty is Certainty.NONZERO
    # The witness must actually refute: the stored value is the exact value
    # at the witness point and it exceeds the tolerance.
    val = evaluate(e, r.witness)
    assert val == Fraction(r.witness_value)
    assert abs(val) > DEFAULT_POLICY.tol


def test_seeded_sampling_is_deterministic():
    e = CH.parse("x1*x2 - x3")
    a = is_zero(e, ZeroTestPolicy(seed=5))
    b = is_zero(e, ZeroTestPolicy(seed=5))
    assert a.witness == b.witness and a.witness_value == b.witness_value
    c = is_zero(e, ZeroTestPolicy(seed=6))
    assert c.certainty is Certainty.NONZERO  # any seed refutes this one


def test_numeric_identities_report_probable_zero():
    # exp(x)exp(-x) = 1 does not cancel canonically (no product rule for
    # exponentials in the kernel) so only sampling can speak, and it must
    # not overclaim.
    r = is_zero(CH.parse("exp(x1)*exp(-x1) - 1"))
    assert r.certainty is Certainty.PROBABLY_ZERO
    assert r.is_zero
    assert 0.0 < r.confidence <= 1.0
    assert r.samples_used == DEFAULT_POLICY.samples


def test_numerically_nonzero_elementary_expression_is_refuted():
    r = is_zero(CH.parse("exp(x1) - x1"))
    assert r.certainty is Certainty.NONZERO
    assert r.witness is not None


def test_everywhere_singular_expressions_raise():
    # sqrt(x)^2 - x vanishes numerically at every admissible draw, so the
    # denominator guard rejects every candidate point.
    with pytest.raises(SamplingError):
        is_zero(CH.parse("x1/(sqrt(x2)^2 - x2)"))


def test_sample_slots_cover_jets_and_symbols():
    base = Chart("J", ("x", "u"))
    ch = base.with_rules([])
    e = ch.parse("u*phi(x)*D(phi, x)")
    assert set(sample_slots(e)) == {"u", "phi(x)", "D(phi, x, 1)"}


def test_evaluate_is_exact_on_rational_input():
    e = CH.parse("x1/x2 + x3^2")
    v = evaluate(e, {"x1": 3, "x2": 2, "x3": Fraction(1, 2)})
    assert v == Fraction(7, 4)
    assert isinstance(v, Fraction)


def test_evaluate_jet_slots_by_printed_name():
    base = Chart("J", ("x", "u"))
    ch = base.with_rules([])
    e = ch.parse("phi(x) + 2*D(phi, x)")
    v = evaluate(e, {"phi(x)": 5, "D(phi, x, 1)": Fraction(1, 4), "x": 0})
    assert v == Fraction(11, 2)
    with pytest.raises(EvaluationError):
        evaluate(e, {"phi(x)": 5, "x": 0})


def test_evaluate_numeric_path_with_elementary_functions():
    v = evaluate(CH.parse("exp(x1)"), {"x1": 0})
    assert abs(v - 1) < 1e-30
    with pytest.raises(SingularPointError):
        evaluate(CH.parse("ln(x1)"), {"x1": -1})
    with pytest.raises(SingularPointError):
        evaluate(CH.parse("sqrt(x1)"), {"x1": -4})


def test_evaluate_guards_singular_denominators():
    e = CH.parse("1/x1")
    with pytest.raises(SingularPointError):
        evaluate(e, {"x1": 0})
    with pytest.raises(SingularPointError):
        evaluate(e, {"x1": Fraction(1, 10**9)}, eps_sing=Fraction(1, 1000))
    assert evaluate(e, {"x1": Fraction(1, 10**9)}) == 10**9


def test_policy_replace_is_nondestructive():
    p = ZeroTestPolicy(seed=1)
    q = p.replace(seed=9, samples=3)
    assert (q.seed, q.samples) == (9, 3)
    assert (p.seed, p.samples) == (1, DEFAULT_POLICY.samples)


def test_point_mapping_round_trip():
    pt = Point.of({"x1": Fraction(1, 2), "x2": 3})
    assert pt["x1"] == Fraction(1, 2)
    assert pt.as_dict() == {"x1": Fraction(1, 2), "x2": Fraction(3)}
    assert pt.as_json() == {"x1": "1/2", "x2": "3"}


def test_exact_nonzero_form_is_never_called_zero():
    # Every sample point has x = k/32 with |k| <= 64, a root of this product,
    # so every draw vanishes; the canonical form is still not ZERO.
    ch = Chart("Z", ("x", "u"))
    e = ch.parse("*".join("(32*x - (%d))" % k for k in range(-64, 65)))
    r = is_zero(e)
    assert r.certainty is Certainty.PROVED_NONZERO
    assert r.witness is None
    assert r.samples_used == 11 * DEFAULT_POLICY.samples
    assert not CheckItem("e = 0", r).ok
