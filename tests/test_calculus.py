"""Exterior calculus: forms, fields, maps, and the laws tying them together.

The acceptance suite runs the same laws at volume; here each one gets a
handful of randomized instances plus deterministic cases with hand-checked
values, and the error paths get exercised.
"""

import random

import pytest

from cinfstruct import kernel, linalg
from cinfstruct.calculus import (
    KForm,
    SmoothMap,
    VectorField,
    apply_field,
    compose_maps,
    d_of_function,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    pullback_form,
    pushforward_field,
    pushforward_tangent,
    volume_form,
    wedge,
)
from cinfstruct.charts import Chart
from cinfstruct.errors import (
    ChartError,
    DegreeError,
    NotTangentError,
    RankDeficientError,
)

import helpers

CH3 = Chart("N", ("x", "y", "z"))


def test_differential_of_a_product():
    w = d_of_function(CH3, CH3.parse("x*y + z^2"))
    assert w.coeff((0,)) == CH3.parse("y")
    assert w.coeff((1,)) == CH3.parse("x")
    assert w.coeff((2,)) == CH3.parse("2*z")


def test_wedge_is_antisymmetric_on_one_forms():
    rng = random.Random(11)
    for _ in range(10):
        a = helpers.random_one_form(rng, CH3)
        b = helpers.random_one_form(rng, CH3)
        assert (wedge(a, b) + wedge(b, a)).is_zero_form()
        assert wedge(a, a).is_zero_form()


def test_d_squared_vanishes():
    rng = random.Random(13)
    for _ in range(10):
        f = helpers.random_poly(rng, CH3, 3, 3)
        assert exterior_derivative(d_of_function(CH3, f)).is_zero_form()
        a = helpers.random_one_form(rng, CH3)
        assert exterior_derivative(exterior_derivative(a)).is_zero_form()


def test_interior_product_is_an_antiderivation():
    rng = random.Random(17)
    for _ in range(10):
        X = helpers.random_field(rng, CH3, 1)
        a = helpers.random_one_form(rng, CH3)
        b = helpers.random_one_form(rng, CH3)
        left = interior_product(X, wedge(a, b))
        # iota_X(a ^ b) = (iota_X a) b - a (iota_X b) for 1-forms a, b
        right = b.scaled(interior_product(X, a).coeff(())) - a.scaled(
            interior_product(X, b).coeff(())
        )
        assert (left - right).is_zero_form()


def test_evaluation_agrees_with_iterated_contraction():
    rng = random.Random(19)
    a = helpers.random_one_form(rng, CH3)
    b = helpers.random_one_form(rng, CH3)
    X = helpers.random_field(rng, CH3, 1)
    Y = helpers.random_field(rng, CH3, 1)
    w = wedge(a, b)
    assert w(X, Y) == interior_product(Y, interior_product(X, w)).coeff(())
    # evaluation of a wedge of 1-forms is the 2x2 pairing determinant
    expect = a(X) * b(Y) - a(Y) * b(X)
    assert w(X, Y) == expect


def test_cartan_formula_for_one_forms():
    rng = random.Random(23)
    for _ in range(10):
        a = helpers.random_one_form(rng, CH3)
        X = helpers.random_field(rng, CH3, 1)
        Y = helpers.random_field(rng, CH3, 1)
        lhs = exterior_derivative(a)(X, Y)
        rhs = apply_field(X, a(Y)) - apply_field(Y, a(X)) - a(lie_bracket(X, Y))
        assert (lhs - rhs).is_zero_expr()


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(29)
    for _ in range(6):
        X = helpers.random_field(rng, CH3, 2)
        Y = helpers.random_field(rng, CH3, 2)
        Z = helpers.random_field(rng, CH3, 2)
        anti = lie_bracket(X, Y).components
        for c, d in zip(anti, lie_bracket(Y, X).components):
            assert (c + d).is_zero_expr()
        cyc1 = lie_bracket(X, lie_bracket(Y, Z)).components
        cyc2 = lie_bracket(Y, lie_bracket(Z, X)).components
        cyc3 = lie_bracket(Z, lie_bracket(X, Y)).components
        for a, b, c in zip(cyc1, cyc2, cyc3):
            assert (a + b + c).is_zero_expr()


def test_lie_derivative_commutes_with_d_on_functions():
    rng = random.Random(31)
    for _ in range(6):
        X = helpers.random_field(rng, CH3, 1)
        f = helpers.random_poly(rng, CH3, 2, 3)
        lhs = lie_derivative_form(X, d_of_function(CH3, f))
        rhs = d_of_function(CH3, apply_field(X, f))
        assert (lhs - rhs).is_zero_form()


def test_volume_evaluation_is_the_component_determinant():
    rng = random.Random(37)
    vol = volume_form(CH3)
    fields = [helpers.random_field(rng, CH3, 1) for _ in range(3)]
    det = linalg.det([list(f.components) for f in fields])
    assert vol(*fields) == det


def test_pullback_is_functorial_and_respects_d_and_wedge():
    src = Chart("A", ("s", "t"))
    mid = Chart("B", ("p", "q", "r"))
    dst = CH3
    inner = SmoothMap(src, mid, (src.parse("s + t"), src.parse("s*t"), src.parse("t^2")))
    outer = SmoothMap(mid, dst, (mid.parse("p*q"), mid.parse("q - r"), mid.parse("p")))
    rng = random.Random(41)
    w = helpers.random_one_form(rng, dst)
    both = compose_maps(outer, inner)
    assert (
        pullback_form(both, w) - pullback_form(inner, pullback_form(outer, w))
    ).is_zero_form()
    f = helpers.random_poly(rng, dst, 2, 2)
    assert (
        pullback_form(inner, pullback_form(outer, d_of_function(dst, f)))
        - d_of_function(src, both.pull_scalar(f))
    ).is_zero_form()
    w2 = helpers.random_one_form(rng, dst)
    assert (
        pullback_form(outer, wedge(w, w2))
        - wedge(pullback_form(outer, w), pullback_form(outer, w2))
    ).is_zero_form()


def test_pullback_beyond_source_dimension_is_zero():
    src = Chart("A", ("s", "t"))
    m = SmoothMap(src, CH3, (src.parse("s"), src.parse("t"), src.parse("s*t")))
    vol = volume_form(CH3)
    assert pullback_form(m, vol).is_zero_form()


def test_pushforward_recovers_the_source_field_on_a_graph():
    src = Chart("A", ("x", "y"))
    graph = SmoothMap(src, CH3, (src.parse("x"), src.parse("y"), src.parse("x*y")))
    assert graph.graph_coords() == ("x", "y")
    # z = x*y, so d/dx + y d/dz is tangent and projects to d/dx
    tangent = VectorField(CH3, (kernel.ONE, kernel.ZERO, CH3.parse("y")))
    back = pushforward_field(graph, tangent)
    assert back.components[0] == kernel.ONE
    assert back.components[1].is_zero_expr()


def test_pushforward_refuses_non_tangent_fields_with_witness():
    src = Chart("A", ("x", "y"))
    graph = SmoothMap(src, CH3, (src.parse("x"), src.parse("y"), src.parse("x*y")))
    off = VectorField(CH3, (kernel.ZERO, kernel.ZERO, kernel.ONE))
    with pytest.raises(NotTangentError) as exc:
        pushforward_field(graph, off)
    assert exc.value.witness is not None


def test_a_tangent_family_pushes_forward_in_one_solve_as_each_field_alone():
    src = Chart("A", ("x", "y"))
    graph = SmoothMap(src, CH3, (src.parse("x"), src.parse("y"), src.parse("x*y")), name="g")
    family = [
        VectorField(CH3, (kernel.ONE, kernel.ZERO, CH3.parse("y")), name="T1"),
        VectorField(CH3, (CH3.parse("z"), CH3.parse("x"), CH3.parse("y*z + x^2")), name="T2"),
    ]
    off = [
        VectorField(CH3, (kernel.ZERO, kernel.ZERO, kernel.ONE), name="N1"),
        VectorField(CH3, (kernel.ONE, kernel.ZERO, kernel.ZERO), name="N2"),
    ]
    assert pushforward_tangent(graph, family) == tuple(pushforward_field(graph, V) for V in family)
    # The first field off the image, in the family's order, is the one named.
    for first, second in (off, off[::-1]):
        with pytest.raises(NotTangentError) as alone:
            pushforward_field(graph, first)
        with pytest.raises(NotTangentError) as together:
            pushforward_tangent(graph, family[:1] + [first, family[1], second])
        assert str(together.value) == str(alone.value)
        assert "field %s is not tangent to the image of g" % first.name == str(alone.value)
        assert alone.value.witness is not None
        assert together.value.witness == alone.value.witness


def test_pushforward_needs_an_immersion():
    src = Chart("A", ("x", "y"))
    squash = SmoothMap(src, CH3, (src.parse("x"), src.parse("x"), src.parse("0")))
    ok_field = VectorField(CH3, (kernel.ONE, kernel.ONE, kernel.ZERO))
    with pytest.raises(RankDeficientError):
        pushforward_field(squash, ok_field)


def test_chart_mixing_is_rejected():
    other = Chart("O", ("x", "y", "z"))
    a = helpers.random_one_form(random.Random(1), CH3)
    b = helpers.random_one_form(random.Random(2), other)
    with pytest.raises(ChartError):
        wedge(a, b)
    with pytest.raises(ChartError):
        lie_bracket(
            helpers.random_field(random.Random(3), CH3),
            helpers.random_field(random.Random(4), other),
        )


def test_degree_guards():
    with pytest.raises(DegreeError):
        KForm.make(CH3, 4, {(0, 1, 2, 3): kernel.ONE})
    vol = volume_form(CH3)
    with pytest.raises(DegreeError):
        vol(helpers.random_field(random.Random(5), CH3))  # arity mismatch
    f0 = KForm.make(CH3, 0, {(): CH3.parse("x")})
    with pytest.raises(DegreeError):
        interior_product(helpers.random_field(random.Random(6), CH3), f0)


def test_form_indices_normalize_parity_on_construction():
    a = KForm.make(CH3, 2, {(1, 0): CH3.parse("x")})
    b = KForm.make(CH3, 2, {(0, 1): CH3.parse("-x")})
    assert (a - b).is_zero_form()


def test_identity_map_jacobian_and_composition():
    ident = SmoothMap(CH3, CH3, tuple(CH3.parse(c) for c in CH3.coords))
    jac = ident.jacobian()
    for i in range(3):
        for j in range(3):
            expected = kernel.ONE if i == j else kernel.ZERO
            assert jac[i][j] == expected
    src = Chart("A", ("s", "t"))
    m = SmoothMap(src, CH3, (src.parse("s"), src.parse("t"), src.parse("s - t")))
    assert compose_maps(ident, m).pull_scalar(CH3.parse("z")) == src.parse("s - t")
    with pytest.raises(ChartError):
        compose_maps(m, m)


def test_a_map_differentiates_its_components_once(monkeypatch):
    calls = []
    real = kernel.differentiate

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    dz = d_of_function(CH3, CH3.parse("z"))
    monkeypatch.setattr(kernel, "differentiate", counting)
    src = Chart("A", ("s", "t"))
    m = SmoothMap(src, CH3, (src.parse("s"), src.parse("t"), src.parse("s*t")))
    jac = m.jacobian()
    jac[2][0] = kernel.ZERO  # the caller's copy, not the map's
    pullback_form(m, dz)
    assert m.jacobian()[2][0] == src.parse("t")
    assert len(calls) == 3 * 2
