"""Exact-rational primal simplex with optimality certificates.

Solves the standard form

    maximize    c . x
    subject to  A x <= b,   x >= 0,   b >= 0 entrywise,

on a sparse integer-preserving tableau (Bareiss's fraction-free
elimination).  :func:`simplex_max` scales each row by the lcm of its
coefficients' denominators (a row of ints, as every polytope row
:func:`hammix.lipschitz_lp.solve_lp` builds, by 1) and puts the scaled
right-hand sides over one denominator D.  The tableau then shares one
positive denominator d, the last pivot element (1 at the start): row i
maps each column to its nonzero numerator over d, and its rhs's numerator
is over d * D.  A pivot with element p turns every other row into
``(row * p - row[enter] * pivot_row) / d``, an exact division, and sets
d = p.  On a totally unimodular matrix, as the box and difference rows of
every polytope here are, p and d stay 1, and a pivot subtracts the pivot
row in place from the rows holding its column.

Nonnegative right-hand sides make the all-slack basis feasible, so no
phase-1 is needed.  Pivoting uses Bland's anti-cycling rule (smallest-index
entering column with positive reduced cost; ratio ties broken by smallest
basic variable index), which terminates on degenerate polytopes.  Positive
row scales change no ratio and no reduced cost's sign, so the pivot
sequence is the one a tableau of rationals would take; the duals are
scaled back per row, and only the final vertex, duals and value are
rationals.

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
from math import lcm
from numbers import Rational
from typing import Mapping, Sequence

from .rational import over_common_denominator, rat

# Values whose numerator and denominator are read without conversion.
_EXACT = frozenset({int, Fraction, type(rat(0))})

# Bland's rule terminates; this cap only trips on an implementation bug.
_MAX_PIVOTS = 200_000

#: A row times its positive scale: nonzero int coefficients by column, the
#: rhs's numerator over the LP's rhs denominator, and the scale.
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
    int coefficients is used as it is.  Raises ValueError if some rhs entry
    is negative (the all-slack start would be infeasible) and SimplexError
    on unboundedness, which cannot happen for the box-bounded polytopes
    built here.
    """
    nv = len(objective)
    c, c_den, integer_rows, rhs_den = _integer_lp(objective, rows, rhs)
    for i, (_, b, _) in enumerate(integer_rows):
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

    Converts the rows to integers and runs the checker every solve runs;
    raises CertificateError unless x >= 0, Ax <= b, y >= 0, A^T y >= c and
    c.x == b.y == the reported value.
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
    scaled = []
    for i, coeffs in enumerate(rows):
        for j in coeffs:
            if not 0 <= j < nv:
                raise ValueError(f"variable index {j} out of range in row {i}")
        scaled.append(_scaled_row(coeffs, rhs[i]))
    b_nums, rhs_den = over_common_denominator([b for _, b, _ in scaled])
    nums, c_den = over_common_denominator([c if type(c) in _EXACT else rat(c) for c in objective])
    integer_rows = [(row, b, scale) for (row, _, scale), b in zip(scaled, b_nums)]
    return {j: c for j, c in enumerate(nums) if c}, c_den, integer_rows, rhs_den


def _scaled_row(coeffs: Mapping[int, Rational], rhs: Rational) -> tuple[dict, Rational, int]:
    """Nonzero ``coeffs`` and ``rhs`` times ``scale``, the lcm of the coefficients' denominators."""
    rhs = rhs if type(rhs) in _EXACT else rat(rhs)
    row = {}
    for j, a in coeffs.items():
        if type(a) is not int:
            break
        if a:
            row[j] = a
    else:
        return row, rhs, 1
    values = [a if type(a) in _EXACT else rat(a) for a in coeffs.values()]
    nums, scale = over_common_denominator(values)
    return {j: a for j, a in zip(coeffs, nums) if a}, rhs * scale, scale


def _pivot(
    nv: int,
    objective: dict[int, int],
    objective_den: int,
    rows: Sequence[_IntegerRow],
    rhs_den: int,
) -> SimplexResult:
    """The simplex itself: Bland pivots, then the vertex, duals and value."""
    # Row i is tab[i][j] / d in column j (the scaled row's slack is column
    # nv + i) and b[i] / (d * rhs_den) on the right; zeros are not stored.
    # The last row holds the reduced costs times objective_den, and in b
    # -(objective value) times objective_den * rhs_den.
    tab = [{**coeffs, nv + i: 1} for i, (coeffs, _, _) in enumerate(rows)]
    tab.append(dict(objective))
    b = [rhs for _, rhs, _ in rows] + [0]
    d = 1

    basis = list(range(nv, nv + len(rows)))
    pivots = 0
    while True:
        enter = min((j for j, a in tab[-1].items() if a > 0), default=-1)
        if enter < 0:
            break
        # The objective row holds column enter and comes last.
        holding = [i for i, row in enumerate(tab) if enter in row]

        # Ratio b_i / a_i,enter: the shared denominators cancel, so compare
        # numerator cross products.
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

        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise SimplexError(f"pivot cap exceeded ({_MAX_PIVOTS}); cycling suspected")

        if best_a == d == 1:
            # A unit pivot leaves every other row over d = 1: subtract the
            # pivot row from the rows holding column enter, in place.
            prow, prhs = tab[leave], best_b
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
                    b[i] -= f * prhs
        else:
            _scaled_pivot(tab, b, leave, enter, d)
            d = best_a
        basis[leave] = enter

    zero = rat(0)
    primal = [zero] * nv
    for i, bvar in enumerate(basis):
        if bvar < nv and b[i]:
            primal[bvar] = rat(b[i], d * rhs_den)
    # At optimality the slack column nv + i of the objective row holds
    # -y_i / scale_i, the dual of row i as scaled.
    obj, obj_den = tab[-1], d * objective_den
    dual = tuple(
        rat(-obj[nv + i] * scale, obj_den) if nv + i in obj else zero
        for i, (_, _, scale) in enumerate(rows)
    )
    return SimplexResult(tuple(primal), dual, rat(-b[-1], obj_den * rhs_den), pivots)


def _scaled_pivot(
    tab: list[dict[int, int]], b: list[int], leave: int, enter: int, d: int
) -> None:
    """A non-unit pivot: every other row becomes (row * p - row[enter] * pivot_row) / d."""
    prow, prhs = tab[leave], b[leave]
    p = prow[enter]
    for i, row in enumerate(tab):
        if i != leave:
            f = row.get(enter, 0)
            new = {j: a * p for j, a in row.items()}
            if f:
                for j, a in prow.items():
                    new[j] = new.get(j, 0) - f * a
            tab[i] = {j: a // d for j, a in new.items() if a}
            b[i] = (b[i] * p - f * prhs) // d


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
    raises CertificateError otherwise.  Row i reads coeffs / scale_i <=
    b_i / (scale_i * rhs_den), so y_i multiplies its coefficients as
    z_i = y_i / scale_i.  x and z are put over common denominators X and Z,
    and every comparison is one between integers multiplied by positive
    factors.
    """
    x, y = result.primal, result.dual
    if len(x) != nv or len(y) != len(rows):
        raise CertificateError("certificate dimensions do not match the problem")
    x_nums, x_den = over_common_denominator(x)
    for j, a in enumerate(x_nums):
        if a < 0:
            raise CertificateError(f"primal variable {j} negative: {x[j]}")
    for i, (coeffs, b, scale) in enumerate(rows):
        lhs = sum(a * x_nums[j] for j, a in coeffs.items())
        if lhs * rhs_den > b * x_den:
            raise CertificateError(
                f"primal row {i} violated: {rat(lhs, scale * x_den)} > {rat(b, scale * rhs_den)}"
            )

    z_den = lcm(*(yi.denominator * scale for yi, (_, _, scale) in zip(y, rows) if yi))
    columns = [0] * nv
    dual_num = 0
    for i, (yi, (coeffs, b, scale)) in enumerate(zip(y, rows)):
        if yi.numerator < 0:
            raise CertificateError(f"dual multiplier {i} negative: {yi}")
        if yi:
            z = yi.numerator * (z_den // (yi.denominator * scale))
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
        or dual_num * value.denominator != value.numerator * z_den * rhs_den
    ):
        raise CertificateError(
            f"objective mismatch: primal {rat(primal_num, primal_den)}, "
            f"dual {rat(dual_num, z_den * rhs_den)}, reported {value}"
        )
