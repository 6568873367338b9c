"""Linear systems that once hung in the kernel's gcd, under a time budget.

A 3x3 system with single-monomial entries took tens of seconds and a 4x4
system with entries c*x_i + c0 did not finish in a minute while the gcd was
a primitive PRS alone.  Each must now solve within a few seconds, the
solution must satisfy the system canonically, and the determinant must
match sympy's.
"""

import time

import pytest

from cinfstruct import kernel, syntax
from cinfstruct.charts import Chart
from cinfstruct.linalg import det, rank_certified, solve_linear

CH = Chart("L", ("x1", "x2", "x3", "x4"))

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
