"""Exact-rational primal simplex with optimality certificates.

Solves the standard form

    maximize    c . x
    subject to  A x <= b,   x >= 0,   b >= 0 entrywise,

on a fraction-free sparse tableau: each row is a ``{column: int}`` map of
its nonzero numerators with one positive integer denominator, so a pivot
is integer arithmetic (``row * pe - f * pivot_row``, then division by the
row's gcd) and zero cells cost nothing.  Nonnegative right-hand sides make
the all-slack basis feasible, so no phase-1 is needed; every polytope built
in this package has that shape.  Pivoting uses Bland's anti-cycling rule
(smallest-index entering column with positive reduced cost; ratio ties
broken by smallest basic variable index), which terminates on degenerate
polytopes.  Row denominators cancel in the ratio test, so the pivot
sequence is the one a tableau of rationals would take; only the final
vertex, duals and objective are converted to the backend rational type.

Every solve returns a :class:`SimplexResult` carrying the optimal vertex
and the dual multipliers read off the final tableau, and
:func:`verify_certificate` re-checks primal feasibility, dual feasibility
and equality of the two objectives exactly, against the *original* data
rather than the tableau.  A certificate failure means a solver bug, never a
caller error, hence the dedicated exception type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from numbers import Rational
from typing import Iterable, Mapping, Sequence

from .rational import over_common_denominator, rat

# Values whose numerator and denominator are read without conversion.
_EXACT = frozenset({int, Fraction, type(rat(0))})

# Bland's rule terminates; this cap only trips on an implementation bug.
_MAX_PIVOTS = 200_000


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
    """Maximize objective . x over {x >= 0 : rows x <= rhs}.

    ``rows`` holds one sparse coefficient mapping per constraint.  Raises
    ValueError if some rhs entry is negative (the all-slack start would be
    infeasible) and SimplexError on unboundedness, which cannot happen for
    the box-bounded polytopes built here.
    """
    nv = len(objective)
    nr = len(rows)
    if len(rhs) != nr:
        raise ValueError(f"{nr} constraint rows but {len(rhs)} right-hand sides")
    for i, b in enumerate(rhs):
        if b < 0:
            raise ValueError(f"negative right-hand side {b} in row {i}")

    # Row i of the tableau is nums[i][j] / dens[i] in column j (slacks are
    # columns nv + i) and rhs_nums[i] / dens[i] on the right; zeros are not
    # stored.
    nums: list[dict[int, int]] = []
    rhs_nums: list[int] = []
    dens: list[int] = []
    for i, coeffs in enumerate(rows):
        for j in coeffs:
            if not 0 <= j < nv:
                raise ValueError(f"variable index {j} out of range in row {i}")
        row, b, den = _integer_row(coeffs, rhs[i])
        row[nv + i] = den
        nums.append(row)
        rhs_nums.append(b)
        dens.append(den)
    # Objective row: reduced costs; its rhs cell accumulates -(objective value).
    obj, obj_rhs, obj_den = _integer_row(dict(enumerate(objective)), 0)

    basis = list(range(nv, nv + nr))
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
        rat(-obj[nv + i], obj_den) if nv + i in obj else zero for i in range(nr)
    )
    value = rat(-obj_rhs, obj_den)

    result = SimplexResult(tuple(primal), dual, value, pivots)
    verify_certificate(objective, rows, rhs, result)
    return result


def _integer_row(
    coeffs: Mapping[int, Rational], rhs: Rational
) -> tuple[dict[int, int], int, int]:
    """Nonzero ``coeffs`` and ``rhs`` as numerators over one common denominator."""
    values = {j: a if type(a) in _EXACT else rat(a) for j, a in coeffs.items()}
    columns = [j for j, a in values.items() if a]
    rhs = rhs if type(rhs) in _EXACT else rat(rhs)
    nums, den = over_common_denominator([values[j] for j in columns] + [rhs])
    return dict(zip(columns, nums[:-1])), nums[-1], den


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


def verify_certificate(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
    result: SimplexResult,
) -> None:
    """Exact strong-duality check against the original problem data.

    Confirms primal feasibility (x >= 0, Ax <= b), dual feasibility
    (y >= 0, A^T y >= c) and objective equality (c.x == b.y); raises
    CertificateError otherwise.  x and y are put over their common
    denominators X and Y, so every inequality is compared in integers after
    multiplying both sides by a positive factor.
    """
    x = result.primal
    y = result.dual
    nv = len(objective)
    if len(x) != nv or len(y) != len(rows):
        raise CertificateError("certificate dimensions do not match the problem")
    for j, xj in enumerate(x):
        if xj < 0:
            raise CertificateError(f"primal variable {j} negative: {xj}")
    x_nums, x_den = over_common_denominator(x)
    y_nums, y_den = over_common_denominator(y)
    columns: list[list[tuple[Rational, int]]] = [[] for _ in range(nv)]
    for i, coeffs in enumerate(rows):
        num, den = _dot((a, x_nums[j]) for j, a in coeffs.items())
        b = rhs[i]
        # lhs = num / (den * X) <= b
        if num * b.denominator > b.numerator * den * x_den:
            lhs = rat(num, den * x_den)
            raise CertificateError(f"primal row {i} violated: {lhs} > {b}")
        if y[i] < 0:
            raise CertificateError(f"dual multiplier {i} negative: {y[i]}")
        yi = y_nums[i]
        if yi:
            for j, a in coeffs.items():
                columns[j].append((a, yi))
    for j, terms in enumerate(columns):
        num, den = _dot(terms)
        c = objective[j]
        # column sum = num / (den * Y) >= c
        if num * c.denominator < c.numerator * den * y_den:
            total = rat(num, den * y_den)
            raise CertificateError(f"dual row for variable {j} violated: {total} < {c}")
    value = result.objective_value
    primal_num, primal_den = _dot(zip(objective, x_nums))
    dual_num, dual_den = _dot(zip(rhs, y_nums))
    primal_den *= x_den
    dual_den *= y_den
    if (
        primal_num * value.denominator != value.numerator * primal_den
        or dual_num * value.denominator != value.numerator * dual_den
    ):
        raise CertificateError(
            f"objective mismatch: primal {rat(primal_num, primal_den)}, "
            f"dual {rat(dual_num, dual_den)}, reported {value}"
        )


def _dot(terms: Iterable[tuple[Rational, int]]) -> tuple[int, int]:
    """sum(a * z) over (rational a, int z) pairs, as (numerator, denominator > 0)."""
    num, den = 0, 1
    for a, z in terms:
        q = a.denominator
        if q == den:
            num += a.numerator * z
        else:
            g = gcd(den, q)
            num = num * (q // g) + a.numerator * z * (den // g)
            den = den // g * q
    return num, den
