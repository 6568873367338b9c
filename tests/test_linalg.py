"""Linear systems: former gcd hangs under a time budget, several
right-hand sides solved by one elimination, and cofactors from one
elimination checked against the Laplace determinant.

A 3x3 system with single-monomial entries took tens of seconds and a 4x4
system with entries c*x_i + c0 did not finish in a minute while the gcd was
a primitive PRS alone.  Each must now solve within a few seconds, the
solution must satisfy the system canonically, and the determinant must
match sympy's.  A seeded 6x6 system from the benchmark's generator solves
the same way.
"""

import contextlib
import importlib.util
import io
import random
import time
from pathlib import Path

import pytest

import helpers
from cinfstruct import cli, kernel, linalg, syntax
from cinfstruct import structures as st
from cinfstruct.charts import Chart
from cinfstruct.errors import RankDeficientError
from cinfstruct.linalg import cofactors, det, rank_certified, solve_columns, solve_linear
from cinfstruct.zerotest import PROVED, Certainty, evaluate

CH = Chart("L", ("x1", "x2", "x3", "x4"))
BENCH = Path(__file__).resolve().parent.parent / "bench"

SYSTEM_3 = (
    [["-3*x2", "3*x3", "-2*x3"], ["-1", "-3*x4", "3"], ["3*x4", "-x3", "x1"]],
    ["3*x4", "1", "-3*x1"],
)

SYSTEM_4 = (
    [
        ["3*x1 - 3", "-x4 - 2", "-3*x1 - 2", "x4 + 2"],
        ["2*x2 - 3", "3*x4 - 3", "-x2 - 1", "2*x1 + 1"],
        ["-3*x2 - 2", "-2*x4 - 2", "3*x3 - 1", "x2 + 1"],
        ["-2*x3 - 1", "-2*x3 - 2", "2*x3 - 1", "-x4 - 1"],
    ],
    ["1", "2", "3", "4"],
)


@pytest.mark.parametrize("system", [SYSTEM_3, SYSTEM_4], ids=["3x3", "4x4"])
def test_former_gcd_hangs_solve_within_budget(system):
    kernel._GCD_CACHE.clear()
    rows, rhs = system
    matrix = [[CH.parse(t) for t in row] for row in rows]
    b = [CH.parse(t) for t in rhs]
    t0 = time.monotonic()
    sol = solve_linear(matrix, b)
    rank, _pivots, _witness = rank_certified(matrix)
    d = det(matrix)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    assert rank == len(rows)
    for row, bi in zip(matrix, b):
        residual = sum((a * x for a, x in zip(row, sol.values)), kernel.ZERO) - bi
        assert residual.is_zero_expr()

    sympy = pytest.importorskip("sympy")
    expect = sympy.Matrix([[sympy.sympify(t) for t in row] for row in rows]).det()
    got = sympy.sympify(syntax.format_expression(d).replace("^", "**"))
    assert sympy.expand(got - expect) == 0


def test_seeded_6x6_system_solves():
    spec = importlib.util.spec_from_file_location("gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    case = gen.linear_system(random.Random(3), 6, 1, 2)
    matrix = [[CH.parse(t) for t in row] for row in case["matrix"]]
    b = [CH.parse(t) for t in case["rhs"]]
    kernel._GCD_CACHE.clear()
    t0 = time.monotonic()
    sol = solve_linear(matrix, b)
    assert time.monotonic() - t0 < 5.0
    for row, bi in zip(matrix, b):
        residual = sum((a * x for a, x in zip(row, sol.values)), kernel.ZERO) - bi
        assert residual.is_zero_expr()


def _random_entry(rng):
    c, c0 = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-3, 3)
    return CH.parse("%d*x%d + %d" % (c, rng.randint(1, 4), c0))


@pytest.mark.parametrize("seed", range(6))
def test_each_column_solves_as_it_would_alone(seed):
    rng = random.Random(seed)
    n = 2 + seed % 3
    matrix = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
    columns = [[_random_entry(rng) for _ in range(n)] for _ in range(3)]
    sols = solve_columns(matrix, columns)
    assert sols == [solve_linear(matrix, b) for b in columns]
    for sol, b in zip(sols, columns):
        for row, bi in zip(matrix, b):
            residual = sum((a * x for a, x in zip(row, sol.values)), kernel.ZERO) - bi
            assert residual.is_zero_expr()


def _column(*texts):
    return [CH.parse(t) for t in texts]


def test_an_inconsistent_column_is_a_value_between_solved_ones():
    # Rows 1 and 2 pivot, so row 3 holds the consistency condition
    # b3 - x1*b1 - x2*b2 = 0.
    matrix = [_column("1", "0"), _column("0", "1"), _column("x1", "x2")]
    inside = _column("x3", "1", "x1*x3 + x2")
    outside = _column("1", "x4", "0")
    first, middle, last = solve_columns(matrix, [inside, outside, inside])
    assert first == last
    assert first.values == (CH.parse("x3"), kernel.ONE)
    assert first.residual == PROVED
    assert middle.values is None
    assert middle.pivots == first.pivots
    assert middle.residual.certainty is Certainty.NONZERO
    condition = CH.parse("0 - x1*1 - x2*x4")
    assert evaluate(condition, middle.residual.witness) != 0
    assert middle == solve_linear(matrix, outside)


def test_rank_deficiency_raises_at_the_first_column_with_a_solution():
    matrix = [_column("1", "x1"), _column("x2", "x1*x2"), _column("1", "x1")]
    inconsistent = _column("1", "0", "0")
    consistent = _column("1", "x2", "1")
    with pytest.raises(RankDeficientError, match="rank 1 of 2"):
        solve_columns(matrix, [inconsistent, consistent])
    sols = solve_columns(matrix, [inconsistent, _column("0", "0", "x3")])
    assert [s.values for s in sols] == [None, None]
    assert all(s.residual.certainty is Certainty.NONZERO for s in sols)


# ---------------------------------------------------------------------------
# Cofactors from one elimination.


def _key(e):
    return e.num.struct_key(), e.den.struct_key()


def _unit(n, j):
    return [kernel.ONE if c == j else kernel.ZERO for c in range(n)]


def _assert_cofactors_are_laplace(matrix):
    """Cofactor (p, j) is det of the matrix with row p replaced by e_j, and
    (-1)^(n-1-p) times det of the matrix with row p dropped and e_j bordered
    below, as dual_one_forms compares them."""
    n = len(matrix)
    cofs = cofactors(matrix, range(n))
    assert len(cofs) == n
    for p, row in enumerate(cofs):
        assert len(row) == n
        for j, cof in enumerate(row):
            replaced = [_unit(n, j) if k == p else r for k, r in enumerate(matrix)]
            assert _key(cof) == _key(det(replaced))
            bordered = [r for k, r in enumerate(matrix) if k != p] + [_unit(n, j)]
            moved = -cof if (n - 1 - p) % 2 else cof
            assert _key(moved) == _key(det(bordered))


HAND_BUILT = {
    "3x3": SYSTEM_3[0],
    "4x4": SYSTEM_4[0],
    "3x3 with exp": [["x1", "exp(x2)", "1"], ["0", "x3", "exp(x2)*x1"], ["2", "x4", "x2 - 1"]],
    "4x4 permuted": [
        ["0", "0", "x1", "1"],
        ["x2", "0", "0", "0"],
        ["0", "1", "x3", "0"],
        ["1", "x4", "0", "x1*x2"],
    ],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_cofactors_of_hand_built_matrices_are_laplace(name):
    _assert_cofactors_are_laplace([[CH.parse(t) for t in row] for row in HAND_BUILT[name]])


@pytest.mark.parametrize("seed", range(6))
def test_cofactors_of_random_matrices_are_laplace(seed):
    rng = random.Random(100 + seed)
    n = 3 + seed % 2
    _assert_cofactors_are_laplace([[_random_entry(rng) for _ in range(n)] for _ in range(n)])


def test_cofactors_come_in_the_order_of_the_rows_asked_for():
    matrix = [[CH.parse(t) for t in row] for row in SYSTEM_3[0]]
    every = cofactors(matrix, range(3))
    assert cofactors(matrix, [2, 0]) == [every[2], every[0]]


@pytest.mark.parametrize(
    "rows",
    [[["x1", "x2"], ["2*x1", "2*x2"]], [["1", "x1", "x2"], ["x3", "0", "1"], ["1 + x3", "x1", "x2 + 1"]]],
    ids=["2x2", "3x3"],
)
def test_a_singular_matrix_has_no_cofactors(rows):
    matrix = [[CH.parse(t) for t in row] for row in rows]
    assert cofactors(matrix, range(len(rows))) is None


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("example", ["dim4", "airy"])
def test_the_dual_coframe_takes_one_elimination_and_no_determinant(example, monkeypatch):
    if example == "dim4":
        ch = helpers.dim4_chart()
        Z1, Z2, X1, X2 = helpers.dim4_fields(ch)
        gens, fields = (Z1, Z2), (X1, X2)
    else:
        ch = helpers.airy_chart()
        A, X1, X2, X3 = helpers.airy_fields(ch)
        gens, fields = (A,), (X1, X2, X3)
    structure = st.check_cinf_structure(st.Distribution(ch, gens), fields)
    dets = _counting(monkeypatch, linalg, "det")
    eliminations = _counting(monkeypatch, linalg, "_eliminate")
    dual = st.dual_one_forms(structure)
    assert dual.certificate.ok
    assert (len(dets), len(eliminations)) == (0, 1)
    cofactor_items = [it for it in dual.certificate.items if "matches cofactor" in it.label]
    assert len(cofactor_items) == len(fields) * ch.dim


def test_a_dependent_frame_gets_a_failing_coframe_without_cofactor_items():
    ch = Chart("D", ("x", "y", "z"))
    Z1 = helpers.field(ch, "Z1", 1, 0, 0)
    X1 = helpers.field(ch, "X1", 0, 1, 0)
    X2 = helpers.field(ch, "X2", 0, "x", 0)
    structure = st.check_cinf_structure(st.Distribution(ch, (Z1,)), (X1, X2))
    assert not structure.ok
    dual = st.dual_one_forms(structure)
    assert dual.delta.is_zero_expr()
    assert [it.label for it in dual.certificate.failing()] == ["Delta is nonzero"]
    assert not any("matches cofactor" in it.label for it in dual.certificate.items)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "scenario, level, expr",
    [
        ("example31.json", 2, helpers.DIM4_F2),
        ("example31.json", 1, helpers.DIM4_F1 + "*x2"),
        ("airy.json", 3, helpers.AIRY_F3),
        ("airy.json", 2, "u1"),
    ],
)
def test_a_symmetrizing_verify_builds_no_dual_coframe(scenario, level, expr, monkeypatch, tmp_path):
    path = str(BENCH.parent / "scenarios" / scenario)
    runs = []
    for patched in (False, True):
        if patched:
            def refuse(*_args, **_kwargs):
                raise AssertionError("dual_one_forms called")

            monkeypatch.setattr(cli, "dual_one_forms", refuse)
            monkeypatch.setattr(st, "dual_one_forms", refuse)
        report = tmp_path / ("report_%d.json" % patched)
        argv = ["verify", "factor", path, "--level", str(level), "--kind", "symmetrizing",
                "--expr", expr, "--report", str(report)]
        runs.append(_run_cli(argv) + (report.read_text(),))
    assert runs[0] == runs[1]
