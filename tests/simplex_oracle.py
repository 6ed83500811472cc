"""Dense-tableau reference simplex, kept only as a test oracle.

This is the straightforward textbook form of :func:`hammix.simplex.simplex_max`:
one dense row of Fractions per constraint, the same Bland rule
(smallest-index entering column with a positive reduced cost; ratio ties go
to the smallest basic index) and the same read-out of the primal vertex,
the duals and the objective.  The library's sparse integer tableau
must return a :class:`~hammix.simplex.SimplexResult` equal to this one,
``pivots`` included.  No certificate check is done here.

:func:`standard_form` gives a polytope LP's rows with rational
coefficients, the oracle for ``solve_lp``'s int-coefficient rows.
"""

from __future__ import annotations

from numbers import Rational
from typing import Mapping, Sequence

from hammix.lipschitz_lp import LpProblem
from hammix.rational import rat
from hammix.simplex import SimplexError, SimplexResult


def standard_form(
    problem: LpProblem,
) -> tuple[list[dict[int, Rational]], list[Rational]]:
    """Rational rows and right-hand sides of an LpProblem: box rows, then difference rows."""
    one = rat(1)
    rows: list[dict[int, Rational]] = [{j: one} for j in range(problem.num_vars)]
    rhs = [problem.upper_bound] * problem.num_vars
    for x, y, bound in problem.difference_constraints:
        rows.append({x: one, y: -one})
        rhs.append(bound)
    return rows, rhs


def dense_simplex_max(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> SimplexResult:
    """Maximize objective . x over {x >= 0 : rows x <= rhs} on a dense tableau."""
    nv = len(objective)
    nr = len(rows)
    zero = rat(0)
    one = rat(1)
    for i, b in enumerate(rhs):
        if b < 0:
            raise ValueError(f"negative right-hand side {b} in row {i}")

    ncols = nv + nr + 1
    tableau: list[list[Rational]] = []
    for i, coeffs in enumerate(rows):
        row = [zero] * ncols
        for j, a in coeffs.items():
            if not 0 <= j < nv:
                raise ValueError(f"variable index {j} out of range in row {i}")
            row[j] = rat(a)
        row[nv + i] = one
        row[-1] = rat(rhs[i])
        tableau.append(row)
    # Objective row: reduced costs; its rhs cell accumulates -(objective value).
    obj = [rat(c) for c in objective] + [zero] * (nr + 1)

    basis = list(range(nv, nv + nr))
    pivots = 0
    while True:
        enter = next((j for j in range(ncols - 1) if obj[j] > 0), -1)
        if enter < 0:
            break

        leave = -1
        best = None
        for i in range(nr):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise SimplexError("unbounded direction in a box-bounded polytope")
        pivots += 1

        prow = tableau[leave]
        pval = prow[enter]
        if pval != 1:
            inv = one / pval
            prow = [x * inv if x else x for x in prow]
            tableau[leave] = prow
        for i in range(nr):
            if i == leave:
                continue
            f = tableau[i][enter]
            if f:
                r = tableau[i]
                tableau[i] = [a - f * p if p else a for a, p in zip(r, prow)]
        f = obj[enter]
        if f:
            obj = [a - f * p if p else a for a, p in zip(obj, prow)]
        basis[leave] = enter

    primal = [zero] * nv
    for i, bvar in enumerate(basis):
        if bvar < nv:
            primal[bvar] = tableau[i][-1]
    # At optimality the slack column j of the objective row holds -y_j.
    dual = tuple(-obj[nv + i] for i in range(nr))
    return SimplexResult(tuple(primal), dual, -obj[-1], pivots)
