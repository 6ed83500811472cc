"""Exact-rational primal simplex with optimality certificates.

Solves the standard form

    maximize    c . x
    subject to  A x <= b,   x >= 0,   b >= 0 entrywise,

on a fraction-free sparse tableau: each row is a ``{column: int}`` map of
its nonzero numerators, its right-hand side's numerator and one positive
integer denominator, so a pivot is integer arithmetic (``row * pe - f *
pivot_row``, then division by the row's gcd) and zero cells cost nothing.
:func:`simplex_max` puts each input row over one denominator; a row of
int coefficients, as :func:`hammix.lipschitz_lp.solve_lp` builds every
polytope row, takes its rhs's denominator with no rational arithmetic.
Nonnegative right-hand sides make the all-slack basis feasible, so no
phase-1 is needed; every polytope built in this package has that shape.
Pivoting uses Bland's anti-cycling rule (smallest-index entering column
with positive reduced cost; ratio ties broken by smallest basic variable
index), which terminates on degenerate polytopes.  Row denominators cancel
in the ratio test, so the pivot sequence is the one a tableau of rationals
would take; only the final vertex, duals and objective are rationals.

Every solve returns a :class:`SimplexResult` carrying the optimal vertex
and the dual multipliers read off the final tableau, and one integer
checker re-checks primal feasibility, dual feasibility and equality of the
two objectives exactly, against the integer rows rather than the tableau;
:func:`verify_certificate` converts rational rows and runs it.  A
certificate failure means a solver bug, never a caller error, hence the
dedicated exception type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Mapping, Sequence

from .rational import over_common_denominator, rat

# Values whose numerator and denominator are read without conversion.
_EXACT = frozenset({int, Fraction, type(rat(0))})

# Bland's rule terminates; this cap only trips on an implementation bug.
_MAX_PIVOTS = 200_000

#: Nonzero numerators by column, the rhs numerator, their positive denominator.
_IntegerRow = tuple[dict[int, int], int, int]


class SimplexError(RuntimeError):
    """Internal solver failure (never caused by caller input)."""


class CertificateError(SimplexError):
    """An optimality certificate failed exact re-verification."""


@dataclass(frozen=True)
class SimplexResult:
    """Optimal vertex, dual multipliers and their common objective value."""

    primal: tuple[Rational, ...]
    dual: tuple[Rational, ...]
    objective_value: Rational
    pivots: int


def simplex_max(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> SimplexResult:
    """Maximize objective . x over {x >= 0 : rows x <= rhs}, certificate checked.

    ``rows`` holds one sparse coefficient mapping per constraint; a row of
    int coefficients is put over its rhs's denominator without building a
    rational.  Raises ValueError if some rhs entry is negative (the
    all-slack start would be infeasible) and SimplexError on unboundedness,
    which cannot happen for the box-bounded polytopes built here.
    """
    nv = len(objective)
    c, c_den, integer_rows = _integer_lp(objective, rows, rhs)
    for i, (_, b, _) in enumerate(integer_rows):
        if b < 0:
            raise ValueError(f"negative right-hand side {rhs[i]} in row {i}")
    result = _pivot(nv, c, c_den, integer_rows)
    _check(nv, c, c_den, integer_rows, result)
    return result


def verify_certificate(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
    result: SimplexResult,
) -> None:
    """Exact strong-duality check against the original problem data.

    Converts the rows to integers and runs the checker every solve runs;
    raises CertificateError unless x >= 0, Ax <= b, y >= 0, A^T y >= c and
    c.x == b.y == the reported value.
    """
    _check(len(objective), *_integer_lp(objective, rows, rhs), result)


def _integer_lp(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> tuple[dict[int, int], int, list[_IntegerRow]]:
    """Objective numerators, their denominator, and the integer rows."""
    nv = len(objective)
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} constraint rows but {len(rhs)} right-hand sides")
    integer_rows = []
    for i, coeffs in enumerate(rows):
        for j in coeffs:
            if not 0 <= j < nv:
                raise ValueError(f"variable index {j} out of range in row {i}")
        integer_rows.append(_integer_row(coeffs, rhs[i]))
    nums, c_den = over_common_denominator([c if type(c) in _EXACT else rat(c) for c in objective])
    return {j: c for j, c in enumerate(nums) if c}, c_den, integer_rows


def _integer_row(coeffs: Mapping[int, Rational], rhs: Rational) -> _IntegerRow:
    """Nonzero ``coeffs`` and ``rhs`` as numerators over one common denominator."""
    rhs = rhs if type(rhs) in _EXACT else rat(rhs)
    den = rhs.denominator
    row = {}
    for j, a in coeffs.items():
        if type(a) is not int:
            break
        if a:
            row[j] = a * den
    else:
        # Int coefficients take the rhs's denominator as they are.
        return row, rhs.numerator, den
    values = {j: a if type(a) in _EXACT else rat(a) for j, a in coeffs.items()}
    columns = [j for j, a in values.items() if a]
    nums, den = over_common_denominator([values[j] for j in columns] + [rhs])
    return dict(zip(columns, nums[:-1])), nums[-1], den


def _pivot(
    nv: int, objective: dict[int, int], objective_den: int, rows: Sequence[_IntegerRow]
) -> SimplexResult:
    """The simplex itself: Bland pivots, then the vertex, duals and value."""
    # Row i of the tableau is nums[i][j] / dens[i] in column j (slacks are
    # columns nv + i) and rhs_nums[i] / dens[i] on the right; zeros are not
    # stored.  Pivots rewrite rows in place, so the input rows are copied.
    nums = [{**coeffs, nv + i: den} for i, (coeffs, _, den) in enumerate(rows)]
    rhs_nums = [b for _, b, _ in rows]
    dens = [den for _, _, den in rows]
    # Objective row: reduced costs; its rhs cell accumulates -(objective value).
    obj, obj_rhs, obj_den = dict(objective), 0, objective_den

    basis = list(range(nv, nv + len(rows)))
    pivots = 0
    while True:
        enter = min((j for j, a in obj.items() if a > 0), default=-1)
        if enter < 0:
            break

        # Ratio rhs_i / a_i,enter: the row denominator cancels, so compare
        # numerator cross products.
        leave, best_b, best_a = -1, 0, 1
        for i, row in enumerate(nums):
            a = row.get(enter, 0)
            if a > 0:
                b = rhs_nums[i]
                order = b * best_a - best_b * a
                if leave < 0 or order < 0 or (order == 0 and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, b, a
        if leave < 0:
            raise SimplexError("unbounded direction in a box-bounded polytope")

        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexError(f"pivot cap exceeded ({_MAX_PIVOTS}); cycling suspected")

        # Dividing the pivot row by its entry keeps its numerators and makes
        # that entry the denominator.
        prow = nums[leave]
        prhs = rhs_nums[leave]
        g = gcd(prhs, *prow.values())
        if g > 1:
            prow = {j: a // g for j, a in prow.items()}
            prhs //= g
            nums[leave] = prow
            rhs_nums[leave] = prhs
        pden = dens[leave] = prow[enter]
        for i, row in enumerate(nums):
            if i != leave and enter in row:
                nums[i], rhs_nums[i], dens[i] = _eliminate(
                    row, rhs_nums[i], dens[i], enter, prow, prhs, pden
                )
        if enter in obj:
            obj, obj_rhs, obj_den = _eliminate(
                obj, obj_rhs, obj_den, enter, prow, prhs, pden
            )
        basis[leave] = enter

    zero = rat(0)
    primal = [zero] * nv
    for i, bvar in enumerate(basis):
        if bvar < nv and rhs_nums[i]:
            primal[bvar] = rat(rhs_nums[i], dens[i])
    # At optimality the slack column nv + i of the objective row holds -y_i.
    dual = tuple(
        rat(-obj[nv + i], obj_den) if nv + i in obj else zero for i in range(len(rows))
    )
    return SimplexResult(tuple(primal), dual, rat(-obj_rhs, obj_den), pivots)


def _eliminate(
    row: dict[int, int],
    rhs: int,
    den: int,
    enter: int,
    prow: dict[int, int],
    prhs: int,
    pden: int,
) -> tuple[dict[int, int], int, int]:
    """Clear column ``enter`` of a row with the pivot row, fraction-free.

    The pivot row reads prow / pden with prow[enter] == pden, so the new row
    is (row * pden - f * prow) / (den * pden) with f = row[enter], divided
    through by the gcd of its numerators and denominator.
    """
    f = row[enter]
    if pden != 1:
        row = {j: a * pden for j, a in row.items()}
        rhs *= pden
        den *= pden
    for j, p in prow.items():
        a = row.get(j, 0) - f * p
        if a:
            row[j] = a
        else:
            del row[j]
    rhs -= f * prhs
    g = gcd(den, rhs, *row.values())
    if g > 1:
        row = {j: a // g for j, a in row.items()}
        rhs //= g
        den //= g
    return row, rhs, den


def _check(
    nv: int,
    objective: dict[int, int],
    objective_den: int,
    rows: Sequence[_IntegerRow],
    result: SimplexResult,
) -> None:
    """Exact strong-duality check of ``result`` against integer rows.

    Confirms primal feasibility (x >= 0, Ax <= b), dual feasibility
    (y >= 0, A^T y >= c) and objective equality (c.x == b.y == value);
    raises CertificateError otherwise.  Row i reads coeffs / den_i, so y_i
    multiplies its numerators as z_i = y_i / den_i.  x and z are put over
    common denominators X and Z, and every comparison is one between
    integers multiplied by positive factors.
    """
    x, y = result.primal, result.dual
    if len(x) != nv or len(y) != len(rows):
        raise CertificateError("certificate dimensions do not match the problem")
    x_nums, x_den = over_common_denominator(x)
    for j, a in enumerate(x_nums):
        if a < 0:
            raise CertificateError(f"primal variable {j} negative: {x[j]}")
    for i, (coeffs, b, den) in enumerate(rows):
        lhs = sum(a * x_nums[j] for j, a in coeffs.items())
        if lhs > b * x_den:
            raise CertificateError(
                f"primal row {i} violated: {rat(lhs, den * x_den)} > {rat(b, den)}"
            )

    z_den = lcm(*(yi.denominator * den for yi, (_, _, den) in zip(y, rows) if yi))
    columns = [0] * nv
    dual_num = 0
    for i, (yi, (coeffs, b, den)) in enumerate(zip(y, rows)):
        if yi.numerator < 0:
            raise CertificateError(f"dual multiplier {i} negative: {yi}")
        if yi:
            z = yi.numerator * (z_den // (yi.denominator * den))
            dual_num += b * z
            for j, a in coeffs.items():
                columns[j] += a * z
    for j, total in enumerate(columns):
        c = objective.get(j, 0)
        if total * objective_den < c * z_den:
            raise CertificateError(
                f"dual row for variable {j} violated: "
                f"{rat(total, z_den)} < {rat(c, objective_den)}"
            )

    value = result.objective_value
    primal_num = sum(c * x_nums[j] for j, c in objective.items())
    primal_den = objective_den * x_den
    if (
        primal_num * value.denominator != value.numerator * primal_den
        or dual_num * value.denominator != value.numerator * z_den
    ):
        raise CertificateError(
            f"objective mismatch: primal {rat(primal_num, primal_den)}, "
            f"dual {rat(dual_num, z_den)}, reported {value}"
        )
