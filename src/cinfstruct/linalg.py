"""Symbolic linear algebra over the expression field.

Entries are canonical gcd-reduced rational functions, and the elimination
divides at every step: every intermediate is re-reduced by the kernel, whose
operators take their gcds of the operands (the kernel docstring gives the
cost per operator).  Pivots are chosen as the syntactically simplest certified
nonzero entry (node count, ties by position); the chosen pivots are the
singular loci of the computation and are reported with every result.  They
depend only on the matrix, so one elimination of [matrix | columns] solves a
whole family of right-hand sides, and a column outside the span is a value,
not an error; with unit columns it gives the cofactors of chosen rows.

``det`` stays a Laplace expansion: the benchmark times it on 2x2 systems,
where it beats an elimination, and tests use it as a reference for cofactors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

from .errors import RankDeficientError
from .kernel import ONE, ZERO, Expression
from .zerotest import DEFAULT_POLICY, Certainty, ZeroTestPolicy, ZeroTestResult, is_zero, weakest

__all__ = [
    "LinearSolution", "solve_columns", "solve_linear", "rank_certified", "rank_evidence",
    "cofactors", "det",
]


@dataclass(frozen=True)
class LinearSolution:
    # None when the right-hand side lies outside the column span.
    values: Optional[tuple[Expression, ...]]
    pivots: tuple[Expression, ...]
    # The weakest of the residual zero tests: proved unless one was sampled.
    # NONZERO, with a witness point, when values is None.
    residual: ZeroTestResult


def pick_pivot(entries: Sequence[Expression], policy: ZeroTestPolicy) -> Optional[int]:
    """Position of the simplest certified-nonzero entry (node count, ties by
    position), or None.  Only an entry with an elementary generator takes a
    zero test: any other canonical form but ZERO is a nonzero function."""
    ranked = sorted((e.complexity(), pos) for pos, e in enumerate(entries) if not e.is_zero_expr())
    for _, pos in ranked:
        e = entries[pos]
        if not e.has_elementary() or not is_zero(e, policy).is_zero:
            return pos
    return None


def _eliminate(rows, ncols, policy) -> tuple[list[tuple[int, int]], list[int]]:
    """Eliminate columns 0..ncols-1 in place, stopping once no rows remain.

    Rows may be wider than ncols (an augmented right-hand side is carried
    along).  Returns the (row index, column) of each pivot in order, and the
    indices of the rows that took no pivot.
    """
    remaining = list(range(len(rows)))
    where: list[tuple[int, int]] = []
    for col in range(ncols):
        if not remaining:
            break
        pos = pick_pivot([rows[ri][col] for ri in remaining], policy)
        if pos is None:
            continue
        ri = remaining.pop(pos)
        where.append((ri, col))
        p = rows[ri][col]
        for rj in remaining:
            factor = rows[rj][col]
            if factor.is_zero_expr():
                continue
            scale = factor / p
            rows[rj] = [a - scale * b for a, b in zip(rows[rj], rows[ri])]
    return where, remaining


def solve_columns(
    matrix: Sequence[Sequence[Expression]],
    columns: Sequence[Sequence[Expression]],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> list[LinearSolution]:
    """Solve matrix @ x = b for the unique x, for each column b in order, with
    one elimination of [matrix | every column].

    A column with no solution gets values None and a NONZERO residual carrying
    the witness point of its first nonzero residual; the residual tests stop
    there.  The first column that has a solution raises RankDeficientError
    when the solution would not be unique.  A solved column carries the
    weakest residual zero test, so a consistency shown only by sampling is not
    reported as proved.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows = [list(r) + list(bs) for r, bs in zip(matrix, zip(*columns))]
    where, remaining = _eliminate(rows, ncols, policy)
    pivots = tuple(rows[ri][col] for ri, col in where)
    out = []
    for b in range(ncols, ncols + len(columns)):
        tests = []
        for rj in remaining:
            residual = rows[rj][b]
            if residual.is_zero_expr():
                continue
            zt = is_zero(residual, policy)
            if not zt.certainty.is_zero:
                outside = ZeroTestResult(Certainty.NONZERO, 1.0, zt.witness)
                out.append(LinearSolution(None, pivots, outside))
                break
            tests.append(zt)
        else:
            if len(where) < ncols:
                raise RankDeficientError(
                    "linear system does not determine a unique solution (rank %d of %d)"
                    % (len(where), ncols)
                )
            values = _back_substitute(rows, where, b, ncols)
            out.append(LinearSolution(values, pivots, weakest(tests)))
    return out


def _back_substitute(rows, where, b, ncols) -> tuple[Expression, ...]:
    """The unique solution for the eliminated column b, in reverse pivot order."""
    values: list[Expression] = [ZERO] * ncols
    for (ri, col) in reversed(where):
        acc = rows[ri][b]
        for c2 in range(col + 1, ncols):
            entry = rows[ri][c2]
            if not entry.is_zero_expr():
                acc = acc - entry * values[c2]
        values[col] = acc / rows[ri][col]
    return tuple(values)


def solve_linear(
    matrix: Sequence[Sequence[Expression]],
    rhs: Sequence[Expression],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> LinearSolution:
    """solve_columns for the single column rhs."""
    return solve_columns(matrix, [rhs], policy)[0]


def rank_certified(
    matrix: Sequence[Sequence[Expression]],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> tuple[int, tuple[Expression, ...], Optional[ZeroTestResult]]:
    """Generic rank, the pivot loci, and the zero test of the pivot product.

    The rank is the generic one: it holds off the vanishing locus of the
    returned pivots.  The zero test of their product (None when there are no
    pivots) carries, when it found one, a witness point that makes every
    pivot nonzero simultaneously.
    """
    return rank_evidence(matrix, policy)[:3]


def rank_evidence(
    matrix: Sequence[Sequence[Expression]],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> tuple[int, tuple[Expression, ...], Optional[ZeroTestResult], Optional[ZeroTestResult]]:
    """rank_certified, then the evidence that the rank is no higher: the
    weakest zero test of the entries left in the rows that took no pivot
    (None when every row took one)."""
    rows = [list(r) for r in matrix]
    where, remaining = _eliminate(rows, len(rows[0]) if rows else 0, policy)
    pivots = tuple(rows[ri][col] for ri, col in where)
    product_test = is_zero(reduce(operator.mul, pivots), policy) if pivots else None
    leftover = None
    if remaining:
        leftover = weakest(
            is_zero(e, policy) for ri in remaining for e in rows[ri] if not e.is_zero_expr()
        )
    return len(pivots), pivots, product_test, leftover


def cofactors(
    matrix: Sequence[Sequence[Expression]],
    rows: Sequence[int],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> Optional[list[tuple[Expression, ...]]]:
    """Cofactor (p, j) = (-1)^(p+j) * minor(p, j) of the square matrix for
    each p in rows and every column j; None when the matrix is singular.

    One elimination of [matrix | e_p for each p]: det is the pivot product,
    signed by the order the rows took their pivots in, e_p solves to column p
    of the inverse, and cofactor (p, j) = det * inverse[j][p].
    """
    n = len(matrix)
    aug = [list(r) + [ONE if i == p else ZERO for p in rows] for i, r in enumerate(matrix)]
    where, _remaining = _eliminate(aug, n, policy)
    if len(where) < n:
        return None
    order = [ri for ri, _col in where]
    swaps = sum(a > b for k, a in enumerate(order) for b in order[k + 1 :])
    d = reduce(operator.mul, (aug[ri][col] for ri, col in where))
    if swaps % 2:
        d = -d
    return [tuple(d * v for v in _back_substitute(aug, where, n + k, n)) for k in range(len(rows))]


def det(matrix: Sequence[Sequence[Expression]]) -> Expression:
    """Determinant by Laplace expansion with column-subset memoization."""
    n = len(matrix)
    if n == 0:
        return ONE
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    memo: dict = {}

    def minor(row: int, cols: tuple) -> Expression:
        if row == n:
            return ONE
        got = memo.get(cols)
        if got is not None:
            return got
        acc = ZERO
        for pos, c in enumerate(cols):
            a = matrix[row][c]
            if a.is_zero_expr():
                continue
            sub = minor(row + 1, cols[:pos] + cols[pos + 1 :])
            term = a * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(0, tuple(range(n)))