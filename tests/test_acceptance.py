"""End-to-end acceptance: eight criteria, one test (one report line) each.

Criteria 1-3 time a cold start: the kernel's memo tables are cleared and the
whole pipeline (parsing, certification, descent) runs inside the measured
window, so warm caches from earlier modules cannot flatter the budget.  The
remaining criteria are exactness or tolerance statements; where the object
under test is the same frozen instance the session fixtures are reused.

Every symbolic comparison here is canonical equality, never sampling, except
where a sampled verdict is itself the thing being checked.
"""

from __future__ import annotations

import random
import time

import helpers
from cinfstruct import factors as fc
from cinfstruct import kernel
from cinfstruct import reduction as rd
from cinfstruct import structures as st
from cinfstruct.calculus import (
    VectorField,
    apply_field,
    d_of_function,
    exterior_derivative,
    interior_product,
    lie_bracket,
    wedge,
)
from cinfstruct.charts import Chart
from cinfstruct.zerotest import DEFAULT_POLICY, Certainty, compile_evaluator, is_zero


def _cold_kernel():
    kernel._GCD_CACHE.clear()
    kernel._expanded_rhs_cached.cache_clear()


def _report(n, detail):
    print("criterion %d PASS  %s" % (n, detail), flush=True)


# ---------------------------------------------------------------------------
# 1. The 4-coordinate rank-2 example, end to end, exact, under 5 seconds.


def test_criterion_01_golden_run_rank2_example():
    _cold_kernel()
    t0 = time.monotonic()

    ch = helpers.dim4_chart()
    Z1, Z2, X1, X2 = helpers.dim4_fields(ch)
    state = rd.init_reduction(st.Distribution(ch, (Z1, Z2)), [X1, X2])
    p = ch.parse
    assert state.ok
    assert state.dual.delta == p("-x2")

    w1, w2 = state.dual.omega(1), state.dual.omega(2)
    assert w1.coeff((0,)) == p("x3^2*(x2 - x3*x4)")
    assert w1.coeff((1,)) == p("x3")
    assert w1.coeff((2,)) == p("x2 - x3*x4")
    assert w1.coeff((3,)) == kernel.ZERO
    assert w2.coeff((0,)) == p("-(x2 - x3*x4)^2")
    assert w2.coeff((1,)) == p("x4")
    assert w2.coeff((2,)) == p("-x4^2")
    assert w2.coeff((3,)) == p("-x2")

    # dI wedge omega_2 = 0, proved symbolically: every vanishing item in the
    # certificate is a proved zero, not a sampled one.
    integral = rd.verify_first_integral(state, helpers.DIM4_INTEGRAL_2)
    assert integral.ok
    assert all(
        it.result.certainty is Certainty.PROVED_ZERO
        for it in integral.items
        if it.expect_zero
    )
    assert wedge(d_of_function(ch, p(helpers.DIM4_INTEGRAL_2)), w2).is_zero_form()

    # First descent: the pulled-back form on the 3-coordinate stage.
    rd.run_reduction(state, helpers.dim4_steps()[:1])
    stage = state.current
    q = stage.chart.parse
    w = state.stages[1].forms[0]
    assert w.coeff((0,)) == q("x2*x3^2/(1 + x3*(C2 - x1))")
    assert w.coeff((1,)) == q("x3")
    assert w.coeff((2,)) == q("x2/(1 + x3*(C2 - x1))")

    # Second descent and the certified manifold equations.
    rd.run_reduction(state, helpers.dim4_steps()[1:])
    rep = rd.final_report(state)
    assert state.complete and rep.ok
    src = rep.solution_map.source
    assert src.coords == ("x1", "x2")
    assert rep.solution_map.components[2] == src.parse("1/(x1 + C1*x2 - C2)")
    assert rep.solution_map.components[3] == src.parse(
        "(C2 - x1)*(x1 + C1*x2 - C2)/C1"
    )
    assert len(rep.equations) == 2
    for eq, coord in zip(rep.equations, ("x3", "x4")):
        lhs, rhs = eq.split(" = ", 1)
        assert lhs == coord
    assert src.parse(rep.equations[0].split(" = ", 1)[1]) == src.parse(
        "1/(x1 + C1*x2 - C2)"
    )
    assert src.parse(rep.equations[1].split(" = ", 1)[1]) == src.parse(
        "(C2 - x1)*(x1 + C1*x2 - C2)/C1"
    )

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, "golden run exact, %.2fs < 5s" % elapsed)


# ---------------------------------------------------------------------------
# 2. Factor suite on the same example: both factor kinds, both directions,
#    the relative-only refutation, and the solvable rescaling.  Under 5s.


def test_criterion_02_factor_suite_rank2_example():
    _cold_kernel()
    t0 = time.monotonic()

    state = helpers.dim4_reduced()
    ch = state.chart
    p = ch.parse
    dual = state.dual
    entries = {e.level: e for e in rd.derive_factors(state)}
    e1, e2 = entries[1], entries[2]
    assert e1.ok and e2.ok
    assert e2.mu == p(helpers.DIM4_MU2)
    assert e2.f == p(helpers.DIM4_F2)
    assert e1.mu == p(helpers.DIM4_MU1)
    assert e1.f == p(helpers.DIM4_F1)

    # mu_2 omega_2 is exactly dI_2: an integrating factor in the plain sense.
    dI2 = d_of_function(ch, p(helpers.DIM4_INTEGRAL_2))
    assert (dual.omega(2).scaled(e2.mu) - dI2).is_zero_form()

    # mu_1 is only relative: the wedge with omega_2 dies, the derivative
    # alone does not, and the refutation carries a numeric witness.
    closed1 = exterior_derivative(dual.omega(1).scaled(e1.mu))
    assert wedge(closed1, dual.omega(2)).is_zero_form()
    assert not closed1.is_zero_form()
    verdict = is_zero(closed1.coeff((0, 1)))
    assert verdict.certainty in (Certainty.NONZERO, Certainty.PROVED_NONZERO)
    assert verdict.witness is not None

    # Conversions reproduce the symmetrizing factors exactly, certified.
    back1 = fc.integrating_to_factor(dual, 1, e1.mu)
    back2 = fc.integrating_to_factor(dual, 2, e2.mu)
    assert back1.ok and back2.ok
    assert back1.value == p(helpers.DIM4_F1)
    assert back2.value == p(helpers.DIM4_F2)

    # Y_k = f_k X_k: every lambda of the rescaled family is proved zero.
    rebuilt, cert = rd.build_solvable_structure(
        state.structure, {1: e1.f, 2: e2.f}
    )
    assert cert.ok and rebuilt.ok
    lam_items = [it for it in cert.items if it.label.startswith("lambda of")]
    assert lam_items
    assert all(it.result.certainty is Certainty.PROVED_ZERO for it in lam_items)

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(2, "factor suite exact, %.2fs < 5s" % elapsed)


# ---------------------------------------------------------------------------
# 3. The third-order equation: commutators, dual frame, first-integral check
#    through both the exact and the sampled route, pairings, and the scaled
#    symmetry of the enlarged family.  Under 30 seconds.


def test_criterion_03_third_order_equation_suite():
    _cold_kernel()
    t0 = time.monotonic()

    ch = helpers.airy_chart()
    A, X1, X2, X3 = helpers.airy_fields(ch)
    p = ch.parse

    # The commutation relations that make the family work.
    assert all(c.is_zero_expr() for c in lie_bracket(X1, A).components)
    assert all(c.is_zero_expr() for c in lie_bracket(X2, X1).components)
    q = p("(u2 + x)/u1")
    br = lie_bracket(X2, A)
    for got, a, b in zip(br.components, X1.components, X2.components):
        assert (got - (a + q * b)).is_zero_expr()

    structure = st.check_cinf_structure(st.Distribution(ch, (A,)), (X1, X2, X3))
    assert structure.ok
    dual = st.dual_one_forms(structure)
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

    # dI_3 wedge omega_3 = 0 two ways: exact after the rewrite rules
    # eliminate the second derivatives, and sampled at the default policy
    # (20 points, tolerance 1e-9) coefficient by coefficient.
    assert DEFAULT_POLICY.samples == 20
    assert float(DEFAULT_POLICY.tol) == 1e-9
    blocked = wedge(d_of_function(ch, p(helpers.AIRY_INTEGRAL_3)), w3)
    for i in range(4):
        for j in range(i + 1, 4):
            c = blocked.coeff((i, j))
            assert c.is_zero_expr()
            verdict = is_zero(c, DEFAULT_POLICY)
            assert verdict.certainty in (
                Certainty.PROVED_ZERO,
                Certainty.PROBABLY_ZERO,
            )

    # Pairings, exact.
    assert interior_product(X3, w3).coeff(()) == kernel.ONE
    assert interior_product(X2, w2).coeff(()) == p("-1")

    # Y_3 = f_3 X_3 is a standard symmetry of the enlarged family.
    Y3 = X3.scaled(p(helpers.AIRY_F3), name="Y3")
    sym = st.check_cinf_symmetry((A, X1, X2), Y3)
    assert sym.ok and sym.standard

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(3, "third-order suite exact+sampled, %.2fs < 30s" % elapsed)


# ---------------------------------------------------------------------------
# 4. Factor conversion round trips: every level of both examples with full
#    certification, then 50 randomized rescalings of a structure field.
#    The converted value must land on the golden integrating factor (the
#    dual form at the rescaled level does not change) and the return trip
#    must close, all canonically.


def test_criterion_04_factor_conversion_round_trip(dim4, airy):
    p4 = dim4.chart.parse
    pa = airy.chart.parse
    base_cases = [
        (dim4.dual, 1, p4(helpers.DIM4_F1), p4(helpers.DIM4_MU1)),
        (dim4.dual, 2, p4(helpers.DIM4_F2), p4(helpers.DIM4_MU2)),
        (airy.dual, 1, kernel.ONE, kernel.ONE),
        (airy.dual, 2, pa(helpers.AIRY_F2), pa(helpers.AIRY_MU2)),
        (airy.dual, 3, pa(helpers.AIRY_F3), pa(helpers.AIRY_MU3)),
    ]
    for dual, k, f, mu in base_cases:
        fwd = fc.factor_to_integrating(dual, k, f)
        assert fwd.ok
        assert fwd.value == mu
        back = fc.integrating_to_factor(dual, k, fwd.value)
        assert back.ok
        assert back.value == f

    golden4 = {
        1: (helpers.DIM4_F1, helpers.DIM4_MU1),
        2: (helpers.DIM4_F2, helpers.DIM4_MU2),
    }
    goldena = {
        1: ("1", "1"),
        2: (helpers.AIRY_F2, helpers.AIRY_MU2),
        3: (helpers.AIRY_F3, helpers.AIRY_MU3),
    }
    rng = random.Random(45)
    for trial in range(50):
        if trial < 40:
            ch = helpers.dim4_chart()
            Z1, Z2, X1, X2 = helpers.dim4_fields(ch)
            gens, fields, table = (Z1, Z2), [X1, X2], golden4
        else:
            ch = helpers.airy_chart()
            A, X1, X2, X3 = helpers.airy_fields(ch)
            gens, fields, table = (A,), [X1, X2, X3], goldena
        k = rng.randint(1, len(fields))
        h = helpers.random_poly(rng, ch, degree=2)
        scaled = list(fields)
        scaled[k - 1] = fields[k - 1].scaled(h, name="h*%s" % fields[k - 1].name)
        structure = st.check_cinf_structure(st.Distribution(ch, gens), scaled)
        assert structure.ok
        dual = st.dual_one_forms(structure)
        assert dual.certificate.ok

        f_txt, mu_txt = table[k]
        f_prime = ch.parse(f_txt) / h
        verify = trial % 10 == 0
        conv = fc.factor_to_integrating(dual, k, f_prime, verify=verify)
        assert conv.ok
        assert conv.value == ch.parse(mu_txt)
        back = fc.integrating_to_factor(dual, k, conv.value, verify=verify)
        assert back.ok
        assert back.value == f_prime
    _report(4, "5 certified levels + 50 rescaled round trips, all canonical")


# ---------------------------------------------------------------------------
# 5. The calculus laws the whole machine leans on, canonically exact on 100
#    randomized instances in each of dimensions 3, 4, and 5.


def test_criterion_05_exterior_algebra_laws():
    total = 0
    for n in (3, 4, 5):
        ch = Chart("R%d" % n, tuple("x%d" % (i + 1) for i in range(n)))
        rng = random.Random(500 + n)
        for _ in range(100):
            f = helpers.random_poly(rng, ch, degree=2)
            a = helpers.random_one_form(rng, ch, degree=1)
            b = helpers.random_one_form(rng, ch, degree=1)
            c = helpers.random_one_form(rng, ch, degree=1)
            X = helpers.random_field(rng, ch, degree=1, name="X")
            Y = helpers.random_field(rng, ch, degree=1, name="Y")
            W = helpers.random_field(rng, ch, degree=1, name="W")

            # d after d dies on functions and on 1-forms.
            assert exterior_derivative(d_of_function(ch, f)).is_zero_form()
            assert exterior_derivative(exterior_derivative(a)).is_zero_form()

            # The interior product is an antiderivation: checked on a 1-form
            # wedge a 1-form and on a 2-form wedge a 1-form.
            lhs = interior_product(X, wedge(a, b))
            rhs = b.scaled(interior_product(X, a).coeff(())) - a.scaled(
                interior_product(X, b).coeff(())
            )
            assert (lhs - rhs).is_zero_form()
            ab = wedge(a, b)
            lhs = interior_product(X, wedge(ab, c))
            rhs = wedge(interior_product(X, ab), c) + ab.scaled(
                interior_product(X, c).coeff(())
            )
            assert (lhs - rhs).is_zero_form()

            # The coordinate-free formula for d on a 1-form.
            left = exterior_derivative(a)(X, Y)
            right = (
                apply_field(X, a(Y))
                - apply_field(Y, a(X))
                - a(lie_bracket(X, Y))
            )
            assert (left - right).is_zero_expr()

            # Bracket antisymmetry and the Jacobi identity, componentwise.
            fwd = lie_bracket(X, Y)
            rev = lie_bracket(Y, X)
            for u, v in zip(fwd.components, rev.components):
                assert (u + v).is_zero_expr()
            j1 = lie_bracket(X, lie_bracket(Y, W))
            j2 = lie_bracket(Y, lie_bracket(W, X))
            j3 = lie_bracket(W, lie_bracket(X, Y))
            for u, v, w in zip(j1.components, j2.components, j3.components):
                assert (u + v + w).is_zero_expr()
            total += 1
    assert total == 300
    _report(5, "calculus laws on 300 randomized instances (n = 3, 4, 5)")


# ---------------------------------------------------------------------------
# 6. The rescaling law lambda' = lambda - V(h)/h on 50 randomized symmetries,
#    certified by the rescaling check and confirmed by an independent
#    decomposition of the scaled field.


def test_criterion_06_rescaling_law():
    ch = Chart("R", ("x", "y", "z"))
    p = ch.parse
    rng = random.Random(46)
    monos = ("y", "z", "y*z", "y^2", "z^2")

    def poly_yz():
        picks = rng.sample(monos, rng.randint(1, 2))
        return p(
            " + ".join("%d*%s" % (rng.choice((-3, -2, -1, 1, 2, 3)), m) for m in picks)
        )

    Z = helpers.field(ch, "Z", 1, 0, 0)
    for _ in range(50):
        beta, gamma = poly_yz(), poly_yz()
        g = helpers.random_poly(rng, ch, degree=2)
        h = helpers.random_poly(rng, ch, degree=2)
        X = VectorField(ch, (kernel.ZERO, g * beta, g * gamma), name="X")

        base = st.check_cinf_symmetry([Z], X)
        assert base.ok
        want = base.lambdas[0] - apply_field(Z, h) / h

        res = st.rescale_symmetry(base, h, None)
        assert res.certificate.ok
        assert res.lambdas[0] == want

        direct = st.check_cinf_symmetry([Z], X.scaled(h, name="hX"))
        assert direct.ok
        assert direct.lambdas[0] == want
    _report(6, "rescaling law on 50 randomized instances, exact both routes")


# ---------------------------------------------------------------------------
# 7. Multiplying a factor by a joint first integral keeps it a factor;
#    multiplying by a non-integral is refuted with a witness.


def test_criterion_07_factor_quotient_property(dim4):
    p = dim4.chart.parse
    f2 = p(helpers.DIM4_F2)
    I2 = p(helpers.DIM4_INTEGRAL_2)

    good = fc.check_symmetrizing_factor(dim4.structure, 2, f2 * I2)
    assert good.ok
    ratio_good = fc.factor_quotient_check(dim4.structure, 2, f2, f2 * I2)
    assert ratio_good.ok

    bad = fc.check_symmetrizing_factor(dim4.structure, 2, f2 * p("x4"))
    assert not bad.ok
    assert bad.witness is not None
    ratio_bad = fc.factor_quotient_check(dim4.structure, 2, f2, f2 * p("x4"))
    assert not ratio_bad.ok
    assert ratio_bad.witness is not None
    _report(7, "factor * integral re-certifies; factor * x4 refuted with witness")


# ---------------------------------------------------------------------------
# 8. Quadrature primitives of ten exact forms agree with the closed-form
#    potential to 1e-8 absolute at ten points each.

_POTENTIALS = (
    "x^2*u + sin(x)",
    "exp(x)*cos(u)",
    "x^3/3 - x*u + u^2",
    "sin(x)*sin(u) + x",
    "exp(u)*x^2",
    "cos(x*u)",
    "(x + u)^4/4",
    "x/(u^2 + 4)",
    "exp(x/2)*u + cos(u)",
    "x*u^3 - 2*x^2 + sin(u)*cos(u)",
)


def test_criterion_08_quadrature_primitives():
    ch = Chart("P", ("x", "u"))
    rng = random.Random(8)
    worst = 0.0
    for text in _POTENTIALS:
        F = ch.parse(text)
        res = fc.primitive_by_quadrature(d_of_function(ch, F))
        assert res.ok
        ref = compile_evaluator(F, ch.coords)
        offset = ref(0.0, 0.0)
        for _ in range(10):
            x = rng.uniform(-0.8, 0.8)
            u = rng.uniform(-0.8, 0.8)
            err = abs(res(x, u) - (ref(x, u) - offset))
            worst = max(worst, err)
            assert err <= 1e-8
    _report(8, "10 forms x 10 points, worst quadrature error %.2e <= 1e-8" % worst)
