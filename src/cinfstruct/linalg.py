"""Symbolic linear algebra over the expression field.

Entries are canonical gcd-reduced rational functions, so straightforward
elimination stays fraction-free in effect: every intermediate is re-reduced
by the kernel.  Pivots are chosen as the syntactically simplest certified
nonzero entry (node count, ties by position); the chosen pivots are the
singular loci of the computation and are reported with every result.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

from .errors import InconsistentSystemError, RankDeficientError
from .kernel import ZERO, Expression
from .zerotest import (
    DEFAULT_POLICY,
    Certainty,
    ZeroTestPolicy,
    ZeroTestResult,
    is_zero,
)

__all__ = ["LinearSolution", "solve_linear", "rank_certified", "det"]


_PROVED = ZeroTestResult(Certainty.PROVED_ZERO, 1.0)


@dataclass(frozen=True)
class LinearSolution:
    values: tuple[Expression, ...]
    pivots: tuple[Expression, ...]
    # The weakest of the residual zero tests: proved unless one was sampled.
    residual: ZeroTestResult


def _pick_pivot(rows, row_ids, col, policy) -> Optional[int]:
    """Index into row_ids of the simplest certified-nonzero entry, else None."""
    best = None
    best_score = None
    for pos, ri in enumerate(row_ids):
        e = rows[ri][col]
        if e.is_zero_expr():
            continue
        if not e.is_const() and e.has_elementary():
            if not is_zero(e, policy).certainty.is_zero:
                score = (e.complexity(), pos)
            else:
                continue
        else:
            score = (e.complexity(), pos)
        if best_score is None or score < best_score:
            best = pos
            best_score = score
    return best


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
        pos = _pick_pivot(rows, remaining, col, policy)
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


def solve_linear(
    matrix: Sequence[Sequence[Expression]],
    rhs: Sequence[Expression],
    policy: ZeroTestPolicy = DEFAULT_POLICY,
) -> LinearSolution:
    """Solve matrix @ x = rhs for the unique x over the expression field.

    Raises InconsistentSystemError (with a witness point on the residual) when
    no solution exists and RankDeficientError when the solution would not be
    unique.  The solution carries the weakest residual zero test, so a
    consistency shown only by sampling is not reported as proved.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows = [list(r) + [b] for r, b in zip(matrix, rhs)]
    where, remaining = _eliminate(rows, ncols, policy)
    weakest = _PROVED
    for rj in remaining:
        residual = rows[rj][ncols]
        if residual.is_zero_expr():
            continue
        zt = is_zero(residual, policy)
        if not zt.certainty.is_zero:
            raise InconsistentSystemError(
                "linear system is inconsistent", witness=zt.witness, residual=residual
            )
        if weakest is _PROVED or zt.confidence < weakest.confidence:
            weakest = zt
    if len(where) < ncols:
        raise RankDeficientError(
            "linear system does not determine a unique solution (rank %d of %d)"
            % (len(where), ncols)
        )
    # Back substitution in reverse pivot order.
    values: list[Expression] = [ZERO] * ncols
    for (ri, col) in reversed(where):
        acc = rows[ri][ncols]
        for c2 in range(col + 1, ncols):
            entry = rows[ri][c2]
            if not entry.is_zero_expr():
                acc = acc - entry * values[c2]
        values[col] = acc / rows[ri][col]
    pivots = tuple(rows[ri][col] for ri, col in where)
    return LinearSolution(tuple(values), pivots, weakest)


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
    rows = [list(r) for r in matrix]
    where, _remaining = _eliminate(rows, len(rows[0]) if rows else 0, policy)
    pivots = tuple(rows[ri][col] for ri, col in where)
    product_test = is_zero(reduce(operator.mul, pivots), policy) if pivots else None
    return len(pivots), pivots, product_test


def det(matrix: Sequence[Sequence[Expression]]) -> Expression:
    """Determinant by Laplace expansion with column-subset memoization."""
    n = len(matrix)
    if n == 0:
        from .kernel import ONE

        return ONE
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant needs a square matrix")
    memo: dict = {}

    def minor(row: int, cols: tuple) -> Expression:
        if row == n:
            from .kernel import ONE

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