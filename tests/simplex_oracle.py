"""Dense-tableau reference simplex, kept only as a test oracle.

This is the straightforward textbook form of :func:`hammix.simplex.simplex_max`:
one dense row of Fractions per constraint, the same Bland rule
(smallest-index entering column with a positive reduced cost; ratio ties go
to the smallest basic index) and the same read-out of the primal vertex,
the duals and the objective.  It returns them as rationals,
``(primal, dual, objective_value, pivots)``, and the library's sparse
integer tableau must return a :class:`~hammix.simplex.SimplexResult`
whose :func:`rational_view` equals them, ``pivots`` included.  No
certificate check is done here.

:func:`standard_form` gives a polytope LP's objective and rows with
rational coefficients, the oracle for ``solve_lp``'s integer rows.

The all-pairs LP is the polytope with one difference row per ordered word
pair, phi[x] - phi[y] <= d_w(x, y), the formulation that the library's
adjacent-pair rows reduce.  :func:`all_pairs_form` builds it as rational
rows (for ``simplex_max`` and :func:`dense_simplex_max`) and
:func:`all_pairs_lp` as the integer problem ``simplex.solve`` takes.
"""

from __future__ import annotations

from math import lcm
from numbers import Rational
from typing import Mapping, Sequence

from hammix.lipschitz_lp import LpProblem
from hammix.rational import RationalLike, rat
from hammix.simplex import IntegerLp, SimplexError, SimplexResult
from hammix.words import TableFunction, WeightVector
from mixing_oracle import words
from table_oracle import hamming_distance

#: A solve's primal vertex, duals, objective value and pivot count.
RationalResult = tuple[tuple[Rational, ...], tuple[Rational, ...], Rational, int]


def rational_view(result: SimplexResult) -> RationalResult:
    """The rationals of a library solve, in the form the oracle returns."""
    return result.primal, result.dual, result.objective_value, result.pivots


def standard_form(
    problem: LpProblem,
) -> tuple[tuple[Rational, ...], list[dict[int, Rational]], list[Rational]]:
    """Rational objective, rows and right-hand sides of an LpProblem: box rows, then difference rows."""
    one = rat(1)
    rows: list[dict[int, Rational]] = [{j: one} for j in range(problem.num_vars)]
    rhs = [problem.upper_bound] * problem.num_vars
    for x, y, bound in problem.difference_constraints:
        rows.append({x: one, y: -one})
        rhs.append(bound)
    return problem.objective, rows, rhs


def all_pairs_form(
    k: TableFunction, w: WeightVector, v: RationalLike = 0
) -> tuple[tuple[Rational, ...], list[dict[int, Rational]], list[Rational]]:
    """Rational objective, rows and right-hand sides of the all-pairs LP.

    The box rows phi[j] <= v + sum(w) come first, then one row per ordered
    pair x != y, x major, both in word order.
    """
    all_words = list(words(k.alphabet_size, k.arity))
    one = rat(1)
    rows: list[dict[int, Rational]] = [{j: one} for j in range(len(all_words))]
    rhs = [rat(v) + w.total()] * len(all_words)
    for x, wx in enumerate(all_words):
        for y, wy in enumerate(all_words):
            if y != x:
                rows.append({x: one, y: -one})
                rhs.append(hamming_distance(wx, wy, w))
    return k.values, rows, rhs


def all_pairs_lp(k: TableFunction, w: WeightVector, v: RationalLike = 0) -> IntegerLp:
    """The all-pairs LP in integers, rows in the order of :func:`all_pairs_form`.

    As ``solve_lp`` builds its problem: the objective is the table's
    numerators over its denominator, and every right-hand side is over
    D = lcm(v's denominator, w.den).
    """
    v = rat(v)
    den = lcm(v.denominator, w.den)
    costs = [c * (den // w.den) for c in w.nums]
    all_words = list(words(k.alphabet_size, k.arity))
    upper = v.numerator * (den // v.denominator) + sum(costs)
    rows = [({j: 1}, upper) for j in range(len(all_words))]
    for x, wx in enumerate(all_words):
        for y, wy in enumerate(all_words):
            if y != x:
                rows.append(({x: 1, y: -1}, sum(c for c, a, b in zip(costs, wx, wy) if a != b)))
    objective = {j: c for j, c in enumerate(k.nums) if c}
    return IntegerLp(len(all_words), objective, k.den, rows, den)


def dense_simplex_max(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> RationalResult:
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
    return tuple(primal), dual, -obj[-1], pivots
