"""Exact primal simplex for totally unimodular LPs, with optimality certificates.

Solves the standard form

    maximize    c . x
    subject to  A x <= b,   x >= 0,   b >= 0 entrywise,

where A is an integer matrix met with unit pivots only, as a totally
unimodular (TU) matrix is: every square submatrix has determinant 0, 1 or
-1 (Hoffman-Kruskal).  The box rows ``x_j <= U`` and difference rows
``x - y <= b`` that :func:`hammix.lipschitz_lp.solve_lp` builds form such
a (network) matrix.  The sparse tableau holds Python ints: row i maps each
column to its nonzero coefficient, and its rhs is a numerator over the
LP's one rhs denominator D.  A pivot element is 1, so a pivot subtracts
multiples of the pivot row in place from the rows holding its column and
the tableau stays the rational one.  A pivot element other than 1, which
no TU matrix yields, raises ValueError, as does a coefficient that is not
an integer: an LP is solved exactly or refused, never solved wrongly.

Nonnegative right-hand sides make the all-slack basis feasible, so no
phase-1 is needed.  Pivoting uses Bland's anti-cycling rule (smallest-index
entering column with positive reduced cost; ratio ties broken by smallest
basic variable index), which terminates on degenerate polytopes.  Only the
final vertex, duals and value are rationals.

Every solve returns a :class:`SimplexResult` carrying the optimal vertex
and the dual multipliers read off the final tableau, and one integer
checker re-checks primal feasibility, dual feasibility and equality of the
two objectives exactly, against the integer rows rather than the tableau;
:func:`verify_certificate` converts the rows and runs it.  A certificate
failure means a solver bug, never a caller error, hence the dedicated
exception type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, Sequence

from .rational import over_common_denominator, rat

# Values whose numerator and denominator are read without conversion.
_EXACT = frozenset({int, Fraction})

# Bland's rule terminates; this cap only trips on an implementation bug.
_MAX_PIVOTS = 200_000

#: Nonzero int coefficients by column, and the rhs's numerator over the
#: LP's rhs denominator.
_IntegerRow = tuple[dict[int, int], int]


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

    ``rows`` holds one sparse coefficient mapping per constraint, of ints
    or of rationals with denominator 1, forming a totally unimodular
    matrix.  Raises ValueError if some rhs entry is negative (the
    all-slack start would be infeasible), if a coefficient is not an
    integer or if a pivot element is not 1 (the matrix is not totally
    unimodular), and SimplexError on unboundedness, which cannot happen
    for the box-bounded polytopes built here.
    """
    nv = len(objective)
    c, c_den, integer_rows, rhs_den = _integer_lp(objective, rows, rhs)
    for i, (_, b) in enumerate(integer_rows):
        if b < 0:
            raise ValueError(f"negative right-hand side {rhs[i]} in row {i}")
    result = _pivot(nv, c, c_den, integer_rows, rhs_den)
    _check(nv, c, c_den, integer_rows, rhs_den, result)
    return result


def verify_certificate(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
    result: SimplexResult,
) -> None:
    """Exact strong-duality check against the original problem data.

    Converts the rows to integers as :func:`simplex_max` does (ValueError
    on a coefficient that is not an integer) and runs the checker every
    solve runs; raises CertificateError unless x >= 0, Ax <= b, y >= 0,
    A^T y >= c and c.x == b.y == the reported value.
    """
    _check(len(objective), *_integer_lp(objective, rows, rhs), result)


def _integer_lp(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> tuple[dict[int, int], int, list[_IntegerRow], int]:
    """Objective numerators and denominator, the integer rows, the rhs denominator."""
    nv = len(objective)
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} constraint rows but {len(rhs)} right-hand sides")
    int_rows = []
    for i, coeffs in enumerate(rows):
        row = {}
        for j, a in coeffs.items():
            if not 0 <= j < nv:
                raise ValueError(f"variable index {j} out of range in row {i}")
            if type(a) is not int:
                a = a if type(a) in _EXACT else rat(a)
                if a.denominator != 1:
                    raise ValueError(f"coefficient {a} of variable {j} in row {i} is not an integer")
                a = int(a)
            if a:
                row[j] = a
        int_rows.append(row)
    b_nums, rhs_den = over_common_denominator([b if type(b) in _EXACT else rat(b) for b in rhs])
    nums, c_den = over_common_denominator([c if type(c) in _EXACT else rat(c) for c in objective])
    return {j: c for j, c in enumerate(nums) if c}, c_den, list(zip(int_rows, b_nums)), rhs_den


def _pivot(
    nv: int,
    objective: dict[int, int],
    objective_den: int,
    rows: Sequence[_IntegerRow],
    rhs_den: int,
) -> SimplexResult:
    """The simplex itself: Bland's unit pivots, then the vertex, duals and value."""
    # Row i is tab[i][j] in column j (its slack is column nv + i) and
    # b[i] / rhs_den on the right; zeros are not stored.  The last row
    # holds the reduced costs times objective_den, and in b -(objective
    # value) times objective_den * rhs_den.
    tab = [{**coeffs, nv + i: 1} for i, (coeffs, _) in enumerate(rows)]
    tab.append(dict(objective))
    b = [rhs for _, rhs in rows] + [0]

    basis = list(range(nv, nv + len(rows)))
    pivots = 0
    while True:
        enter = min((j for j, a in tab[-1].items() if a > 0), default=-1)
        if enter < 0:
            break
        # The objective row holds column enter and comes last.
        holding = [i for i, row in enumerate(tab) if enter in row]

        # Ratio b_i / a_i,enter: compare numerator cross products.
        leave, best_b, best_a = -1, 0, 1
        for i in holding[:-1]:
            a = tab[i][enter]
            if a > 0:
                bi = b[i]
                order = bi * best_a - best_b * a
                if leave < 0 or order < 0 or (order == 0 and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, bi, a
        if leave < 0:
            raise SimplexError("unbounded direction in a box-bounded polytope")
        if best_a != 1:
            raise ValueError(
                f"pivot element {best_a} in row {leave}: the constraint matrix is not totally unimodular"
            )

        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexError(f"pivot cap exceeded ({_MAX_PIVOTS}); cycling suspected")

        # Subtract the pivot row from the rows holding column enter, in place.
        prow = tab[leave]
        for i in holding:
            if i != leave:
                row = tab[i]
                f = row[enter]
                for j, a in prow.items():
                    c = row.get(j, 0) - f * a
                    if c:
                        row[j] = c
                    else:
                        del row[j]
                b[i] -= f * best_b
        basis[leave] = enter

    zero = rat(0)
    primal = [zero] * nv
    for i, bvar in enumerate(basis):
        if bvar < nv and b[i]:
            primal[bvar] = rat(b[i], rhs_den)
    # At optimality the slack column nv + i of the objective row holds -y_i.
    obj = tab[-1]
    dual = tuple(rat(-obj[nv + i], objective_den) if nv + i in obj else zero for i in range(len(rows)))
    return SimplexResult(tuple(primal), dual, rat(-b[-1], objective_den * rhs_den), pivots)


def _check(
    nv: int,
    objective: dict[int, int],
    objective_den: int,
    rows: Sequence[_IntegerRow],
    rhs_den: int,
    result: SimplexResult,
) -> None:
    """Exact strong-duality check of ``result`` against integer rows.

    Confirms primal feasibility (x >= 0, Ax <= b), dual feasibility
    (y >= 0, A^T y >= c) and objective equality (c.x == b.y == value);
    raises CertificateError otherwise.  x and y are put over common
    denominators X and Y, and every comparison is one between integers
    multiplied by positive factors.
    """
    x, y = result.primal, result.dual
    if len(x) != nv or len(y) != len(rows):
        raise CertificateError("certificate dimensions do not match the problem")
    x_nums, x_den = over_common_denominator(x)
    for j, a in enumerate(x_nums):
        if a < 0:
            raise CertificateError(f"primal variable {j} negative: {x[j]}")
    for i, (coeffs, b) in enumerate(rows):
        lhs = sum(a * x_nums[j] for j, a in coeffs.items())
        if lhs * rhs_den > b * x_den:
            raise CertificateError(
                f"primal row {i} violated: {rat(lhs, x_den)} > {rat(b, rhs_den)}"
            )

    y_nums, y_den = over_common_denominator(y)
    columns = [0] * nv
    dual_num = 0
    for i, (z, (coeffs, b)) in enumerate(zip(y_nums, rows)):
        if z < 0:
            raise CertificateError(f"dual multiplier {i} negative: {y[i]}")
        if z:
            dual_num += b * z
            for j, a in coeffs.items():
                columns[j] += a * z
    for j, total in enumerate(columns):
        c = objective.get(j, 0)
        if total * objective_den < c * y_den:
            raise CertificateError(
                f"dual row for variable {j} violated: "
                f"{rat(total, y_den)} < {rat(c, objective_den)}"
            )

    value = result.objective_value
    primal_num = sum(c * x_nums[j] for j, c in objective.items())
    primal_den = objective_den * x_den
    if (
        primal_num * value.denominator != value.numerator * primal_den
        or dual_num * value.denominator != value.numerator * y_den * rhs_den
    ):
        raise CertificateError(
            f"objective mismatch: primal {rat(primal_num, primal_den)}, "
            f"dual {rat(dual_num, y_den * rhs_den)}, reported {value}"
        )
