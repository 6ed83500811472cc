"""Exact primal simplex for totally unimodular LPs, with integer certificates.

Solves the standard form

    maximize    c . x
    subject to  A x <= b,   x >= 0,   b >= 0 entrywise,

where A is an integer matrix met with unit pivots only, as a totally
unimodular (TU) matrix is: every square submatrix has determinant 0, 1 or
-1 (Hoffman-Kruskal).  The box rows ``x_j <= U`` and difference rows
``x - y <= b`` that :func:`hammix.lipschitz_lp.solve_lp` builds form such
a (network) matrix.  An :class:`IntegerLp` holds the problem in integers:
c as numerators over one objective denominator, each row as its nonzero
int coefficients and its rhs's numerator over one rhs denominator D.
The sparse tableau holds Python ints.  A pivot element is 1, so a pivot
subtracts multiples of the pivot row in place from the rows holding its
column and the tableau stays the rational one.  A pivot element other
than 1, which no TU matrix yields, raises ValueError, as does a
coefficient that :func:`simplex_max` cannot read as an integer: an LP is
solved exactly or refused, never solved wrongly.

Nonnegative right-hand sides make the all-slack basis feasible, so no
phase-1 is needed.  Pivoting uses Bland's anti-cycling rule (smallest-index
entering column with positive reduced cost; ratio ties broken by smallest
basic variable index), which terminates on degenerate polytopes.

Every solve (:func:`solve`) returns a :class:`SimplexResult` whose
certificate is integer too: the vertex's numerators over D, the duals'
numerators over the objective denominator and the value's numerator.
Before it is returned, :func:`verify_certificate` re-checks primal
feasibility, dual feasibility and equality of the two objectives exactly,
on those integers against the problem's rows rather than the tableau.
The rationals are built only when ``primal``, ``dual`` or
``objective_value`` is read.  :func:`simplex_max` is the entry point for
rational input: it puts the problem over common denominators, then runs
the same solve.  A certificate failure means a solver bug, never a caller
error, hence the dedicated exception type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Mapping, NamedTuple, Sequence

from .rational import over_common_denominator, rat

# Bland's rule terminates; this cap only trips on an implementation bug.
_MAX_PIVOTS = 200_000


class SimplexError(RuntimeError):
    """Internal solver failure (never caused by caller input)."""


class CertificateError(SimplexError):
    """An optimality certificate failed exact re-verification."""


class IntegerLp(NamedTuple):
    """max (c . x) / objective_den over {x >= 0 : A x <= b / rhs_den}, in integers.

    ``objective`` maps each column with a nonzero c_j to its numerator;
    ``rows`` holds, per constraint, its nonzero int coefficients by column
    and the numerator of its rhs.
    """

    num_vars: int
    objective: dict[int, int]
    objective_den: int
    rows: list[tuple[dict[int, int], int]]
    rhs_den: int


@dataclass(frozen=True)
class SimplexResult:
    """Optimal vertex, dual multipliers and their common objective value.

    The certificate is integer: the vertex is ``primal_nums`` over
    ``rhs_den``, the duals are ``dual_nums`` over ``objective_den`` and the
    value is ``value_num`` over ``objective_den * rhs_den``.  ``primal``,
    ``dual`` and ``objective_value`` are those rationals, built when read.
    """

    primal_nums: tuple[int, ...]
    dual_nums: tuple[int, ...]
    value_num: int
    rhs_den: int
    objective_den: int
    pivots: int

    @property
    def primal(self) -> tuple[Fraction, ...]:
        return tuple(rat(x, self.rhs_den) for x in self.primal_nums)

    @property
    def dual(self) -> tuple[Fraction, ...]:
        return tuple(rat(y, self.objective_den) for y in self.dual_nums)

    @property
    def objective_value(self) -> Fraction:
        return rat(self.value_num, self.objective_den * self.rhs_den)


def simplex_max(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> SimplexResult:
    """Maximize objective . x over {x >= 0 : rows x <= rhs}, certificate checked.

    ``rows`` holds one sparse coefficient mapping per constraint, of ints
    or of rationals with denominator 1, forming a totally unimodular
    matrix.  Puts the problem in integers (:func:`integer_lp`) and runs
    :func:`solve`, so it raises what those raise.
    """
    return solve(integer_lp(objective, rows, rhs))


def integer_lp(
    objective: Sequence[Rational],
    rows: Sequence[Mapping[int, Rational]],
    rhs: Sequence[Rational],
) -> IntegerLp:
    """The rational problem over its least common denominators.

    Raises ValueError if the row and rhs counts differ, a variable index is
    out of range or a coefficient is not an integer.
    """
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
                a = rat(a)
                if a.denominator != 1:
                    raise ValueError(f"coefficient {a} of variable {j} in row {i} is not an integer")
                a = int(a)
            if a:
                row[j] = a
        int_rows.append(row)
    b_nums, rhs_den = over_common_denominator([rat(b) for b in rhs])
    nums, c_den = over_common_denominator([rat(c) for c in objective])
    c = {j: a for j, a in enumerate(nums) if a}
    return IntegerLp(nv, c, c_den, list(zip(int_rows, b_nums)), rhs_den)


def solve(lp: IntegerLp) -> SimplexResult:
    """The optimal vertex of ``lp``, its certificate checked.

    Raises ValueError if some rhs is negative (the all-slack start would
    be infeasible) or a pivot element is not 1 (the matrix is not totally
    unimodular), and SimplexError on unboundedness, which cannot happen
    for the box-bounded polytopes built here.
    """
    for i, (_, b) in enumerate(lp.rows):
        if b < 0:
            raise ValueError(f"negative right-hand side {rat(b, lp.rhs_den)} in row {i}")
    result = _pivot(lp)
    verify_certificate(lp, result)
    return result


def _pivot(lp: IntegerLp) -> SimplexResult:
    """The simplex itself: Bland's unit pivots, then the vertex, duals and value."""
    nv, rows = lp.num_vars, lp.rows
    # Row i is tab[i][j] in column j (its slack is column nv + i) and
    # b[i] / rhs_den on the right; zeros are not stored.  The last row
    # holds the reduced costs times objective_den, and in b -(objective
    # value) times objective_den * rhs_den.
    tab = [{**coeffs, nv + i: 1} for i, (coeffs, _) in enumerate(rows)]
    tab.append(dict(lp.objective))
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

    primal = [0] * nv
    for i, bvar in enumerate(basis):
        if bvar < nv:
            primal[bvar] = b[i]
    # At optimality the slack column nv + i of the objective row holds -y_i.
    obj = tab[-1]
    dual = tuple(-obj.get(nv + i, 0) for i in range(len(rows)))
    return SimplexResult(tuple(primal), dual, -b[-1], lp.rhs_den, lp.objective_den, pivots)


def verify_certificate(lp: IntegerLp, result: SimplexResult) -> None:
    """Exact strong-duality check of ``result`` against the problem's rows.

    Confirms primal feasibility (x >= 0, Ax <= b), dual feasibility
    (y >= 0, A^T y >= c) and objective equality (c.x == b.y == value);
    raises CertificateError otherwise.  x is the result's numerators over
    X = ``result.rhs_den`` and y over Y = ``result.objective_den``, so
    every comparison is one between integers multiplied by positive
    denominators; when X and Y are the problem's own, as for every
    :func:`solve`, each side's factor is the same.
    """
    nv, c, c_den, rows, rhs_den = lp
    x, y = result.primal_nums, result.dual_nums
    x_den, y_den = result.rhs_den, result.objective_den
    if len(x) != nv or len(y) != len(rows):
        raise CertificateError("certificate dimensions do not match the problem")
    for j, a in enumerate(x):
        if a < 0:
            raise CertificateError(f"primal variable {j} negative: {rat(a, x_den)}")
    for i, (coeffs, b) in enumerate(rows):
        lhs = sum(a * x[j] for j, a in coeffs.items())
        if lhs * rhs_den > b * x_den:
            raise CertificateError(
                f"primal row {i} violated: {rat(lhs, x_den)} > {rat(b, rhs_den)}"
            )

    columns = [0] * nv
    dual_num = 0
    for i, (z, (coeffs, b)) in enumerate(zip(y, rows)):
        if z < 0:
            raise CertificateError(f"dual multiplier {i} negative: {rat(z, y_den)}")
        if z:
            dual_num += b * z
            for j, a in coeffs.items():
                columns[j] += a * z
    for j, total in enumerate(columns):
        cj = c.get(j, 0)
        if total * c_den < cj * y_den:
            raise CertificateError(
                f"dual row for variable {j} violated: "
                f"{rat(total, y_den)} < {rat(cj, c_den)}"
            )

    # The value is value_num / (Y X), c.x is primal_num / (c_den X) and b.y
    # is dual_num / (rhs_den Y).
    primal_num = sum(cj * x[j] for j, cj in c.items())
    value = result.value_num
    if primal_num * y_den != value * c_den or dual_num * x_den != value * rhs_den:
        raise CertificateError(
            f"objective mismatch: primal {rat(primal_num, c_den * x_den)}, "
            f"dual {rat(dual_num, rhs_den * y_den)}, reported {result.objective_value}"
        )
