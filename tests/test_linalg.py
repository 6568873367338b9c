"""Linear systems: former gcd hangs under a time budget, and several
right-hand sides solved by one elimination.

A 3x3 system with single-monomial entries took tens of seconds and a 4x4
system with entries c*x_i + c0 did not finish in a minute while the gcd was
a primitive PRS alone.  Each must now solve within a few seconds, the
solution must satisfy the system canonically, and the determinant must
match sympy's.  A seeded 6x6 system from the benchmark's generator solves
the same way.
"""

import importlib.util
import random
import time
from pathlib import Path

import pytest

from cinfstruct import kernel, syntax
from cinfstruct.charts import Chart
from cinfstruct.errors import RankDeficientError
from cinfstruct.linalg import det, rank_certified, solve_columns, solve_linear
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
