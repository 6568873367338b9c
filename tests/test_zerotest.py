"""The graded zero test: proved/probable/refuted outcomes and evaluation."""

from fractions import Fraction

import mpmath
import pytest

import helpers
from cinfstruct import zerotest
from cinfstruct.certs import CheckItem
from cinfstruct.charts import Chart, parse_rule
from cinfstruct.errors import BadArgumentError, EvaluationError, SamplingError, SingularPointError
from cinfstruct.zerotest import (
    DEFAULT_POLICY,
    Certainty,
    Point,
    ZeroTestPolicy,
    ZeroTestResult,
    _exact_value,
    compile_evaluator,
    evaluate,
    is_zero,
    sample_slots,
    weakest,
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


@pytest.mark.parametrize(
    "bad",
    [
        {"samples": 0},
        {"samples": -1},
        {"samples": True},
        {"samples": 2.0},
        {"seed": False},
        {"seed": "1"},
        {"tol": 0.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": True},
        {"tol": "1e-9"},
    ],
)
def test_a_policy_that_could_pass_on_no_evidence_is_refused(bad):
    with pytest.raises(BadArgumentError, match="policy"):
        ZeroTestPolicy(**bad)
    with pytest.raises(ValueError):
        DEFAULT_POLICY.replace(**bad)


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


def test_exact_backend_refuses_elementary_functions():
    e = CH.parse("exp(x1)")
    with pytest.raises(EvaluationError, match="numeric backend"):
        _exact_value(e, dict.fromkeys(CH.coords, 1), 1, None)


def test_names_never_enter_the_source():
    # Coordinates named like Python builtins, keywords, the package's
    # elementary functions and the evaluator's own temporaries.
    names = ("lambda", "None", "exp", "abs", "t0", "a1", "a0", "k0", "bound", "__builtins__")
    ch = Chart("B", names)
    text = "exp(lambda)*None^2 + abs/t0 + sqrt(k0)*a1 - a0/3 + ln(bound)*__builtins__"
    e = ch.parse(text)
    point = (0.5, -1.25, 0.75, 2.0, 1.5, 0.25, -0.5, 3.0, 4.0, 1.75)
    want = helpers.walk_float(e, dict(zip(names, point)))
    assert compile_evaluator(e, names)(*point).hex() == want.hex()
    exact = dict(zip(names, map(Fraction, point)))
    with mpmath.workdps(50):
        ref, _ = helpers.walk_scaled(e, exact, mpmath.mpf)
    assert evaluate(e, exact) == ref
    # The slots are bound by position, whatever order the names sort in.
    swapped = ch.parse("a0 - 2*a1")
    assert compile_evaluator(swapped, ("a1", "a0"))(1.0, 5.0) == 3.0


def test_jet_slots_evaluate_by_their_printed_name(airy):
    ch = airy.chart
    e = ch.parse("D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x) + u1/(x + 2)")
    slots = sample_slots(e)
    assert "D(phi1, x, 1)" in slots and "phi2(x)" in slots
    values = {s: Fraction(k + 2, 3) for k, s in enumerate(slots)}
    value = _exact_value(e, {s: k + 2 for k, s in enumerate(slots)}, 3, None)
    assert value == helpers.walk_scaled(e, values)[0]
    assert evaluate(e, values) == value
    # Left out of the slots, a jet is abstract: an EvaluationError at call.
    fn = compile_evaluator(e, ch.coords)
    with pytest.raises(EvaluationError, match="abstract"):
        fn(1.0, 0.0, 0.5, 0.25)
    with pytest.raises(EvaluationError):
        evaluate(e, {s: v for s, v in values.items() if s != "phi2(x)"})


def test_long_sums_compile_in_chunks():
    # Hundreds of terms in one polynomial: summed in chunks, still in order.
    ch = Chart("W", ("x", "u"))
    e = ch.parse(" + ".join("%d*x^%d*u^%d" % (k % 7 - 3 or 1, k // 20, k % 20) for k in range(400)))
    assert len(e.num.terms) == 400
    x, u = 0.9, -1.05
    assert compile_evaluator(e, ch.coords)(x, u).hex() == helpers.walk_float(e, {"x": x, "u": u}).hex()
    fr = (Fraction(9, 10), Fraction(-21, 20))
    assert _exact_value(e, {"x": 18, "u": -21}, 20, None) == helpers.walk_scaled(e, dict(zip("xu", fr)))[0]


def test_weakest_ranks_the_kind_of_evidence_before_confidence():
    proved = ZeroTestResult(Certainty.PROVED_ZERO, 1.0)
    # Twenty samples give a confidence that rounds to 1.0.
    sampled = is_zero(CH.parse("exp(2*x1) - exp(x1)^2"))
    assert sampled.certainty is Certainty.PROBABLY_ZERO and sampled.confidence == 1.0
    floated = ZeroTestResult(Certainty.FLOAT_CHECKED, 1.0)
    assert floated.is_zero
    assert weakest([]).certainty is Certainty.PROVED_ZERO
    assert weakest([proved, sampled, proved]) is sampled
    assert weakest([sampled, floated]) is floated
    low = ZeroTestResult(Certainty.PROBABLY_ZERO, 0.5)
    assert weakest([sampled, low, proved]) is low


def test_rational_zero_tests_and_evaluation_compile_nothing(monkeypatch, airy):
    # Exact values are computed directly; only float backends compile.
    def refuse(*_args, **_kw):
        raise AssertionError("compiled a rational expression")

    monkeypatch.setattr(zerotest, "compile_evaluator", refuse)
    r = is_zero(CH.parse("x1*x2 - x3/(x4 + 1)"))
    assert (r.certainty, r.samples_used) == (Certainty.NONZERO, 1)
    assert repr(r.witness) == "{x1=17/16, x2=43/32, x3=-27/16, x4=1/16}"
    assert r.witness_value == "26251/8704"
    jet = airy.chart.parse("D(phi1, x)*phi2(x) - phi1(x)*D(phi2, x) + u1/(x + 2)")
    r = is_zero(jet)
    assert r.witness["u1"] == Fraction(15, 8) and r.witness_value == "153805/52736"
    # The first draw puts x1 at 34/32, where the denominator vanishes.
    r = is_zero(CH.parse("x2/(32*x1 - 34)"))
    assert (r.certainty, r.samples_used) == (Certainty.NONZERO, 1)
    assert repr(r.witness) == "{x1=-27/16, x2=1/16}" and r.witness_value == "-1/1408"
    assert evaluate(CH.parse("x1^2/(x2 - 3)"), {"x1": Fraction(1, 3), "x2": 1}) == Fraction(-1, 18)


def test_exact_evaluation_of_zero_and_constants():
    zero = CH.parse("x1 - x1")
    assert evaluate(zero, {}) == 0
    assert _exact_value(zero, {}, 32, None) == 0
    assert evaluate(CH.parse("1/(x1 - 3)"), {"x1": Fraction(1, 2)}) == Fraction(-2, 5)
