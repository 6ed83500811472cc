"""Linear programming over the polytope of 1-Lipschitz functions.

For weights w on S^n and a slack v >= 0, the feasible set is every table
phi with

    0 <= phi(x) <= v + sum_i w_i           (box)
    |phi(x) - phi(y)| <= d_w(x, y)         (1-Lipschitz)

where d_w is the weighted Hamming metric.  Since d_w is the shortest-path
metric of the graph whose edges flip a single coordinate (edge weight w_i),
imposing the difference constraints only on pairs at Hamming distance 1
already forces them for all pairs; that cuts the constraint count from
O(m^2n) pairs to O(n * m^(n+1)).  Selftest criterion 5 certifies the
reduction from each solve's own vertex: every row's right-hand side is
d_w of its pair, and the vertex meets d_w on every ordered pair, with d_w
read from the ``hamming_to`` builtin's tables.

The central quantities:

* ``phi_sup(k, w, v)``  -- sup of <k, phi> over the polytope (one LP);
* ``verify_phi_psi``    -- exact comparison of phi_sup against the psi
  functional, which dominates it:  phi_sup <= psi + v * ramp(total(k)).
  At v = 0 it also compares the norms: phi_norm, the sup of |<k, phi>|,
  is the max of the two signed suprema, and phi -> sum(w) - phi maps the
  v = 0 polytope onto itself, so that max is one LP plus
  :func:`~hammix.psi.norm_shift`.

An :class:`LpProblem` is integers from the start: the table's numerators
over its denominator as the objective, and every right-hand side as a
numerator over D, the lcm of the denominators of v and of the weights.
Its difference rows are generated from index strides when the LP is
solved, never stored.  :func:`solve_lp` hands the simplex these rows of
int coefficients, a totally unimodular matrix, which is what the simplex
requires: every pivot element is 1, so every pivot is an integer
subtraction.  Every solve returns the
:class:`~hammix.simplex.SimplexResult` whose integer certificate (the
vertex over D, the duals over the objective denominator, the value) the
simplex's checker has verified against those rows; the rationals are
built only when read.  See :mod:`hammix.simplex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from numbers import Rational
from typing import Iterator

from .psi import norm_shift, psi
from .rational import RationalLike, rat
from .simplex import IntegerLp, SimplexResult, solve
from .words import Builtin, TableFunction, WeightVector


@dataclass(frozen=True)
class LpProblem:
    """Maximize <objective, phi> over the 1-Lipschitz polytope, in integers.

    The objective is the table numerators ``nums`` over ``den``.  Every
    right-hand side is an integer over ``rhs_den``: the box ceiling
    ``upper`` (= (v + sum w) * rhs_den, shared by all variables) and, per
    coordinate i, ``costs[i]`` = w_i * rhs_den.  Difference rows read
    phi[x] - phi[y] <= d_w(x, y) for each ordered pair at Hamming distance
    1, whose rhs is the cost of the one coordinate where they differ;
    :meth:`difference_rows` generates them, none is stored.

    ``num_vars``, ``objective``, ``upper_bound`` and
    ``difference_constraints`` are the same problem as rationals, built
    when read: the objective in word order, and the triples (x, y, rhs) in
    the order of :meth:`difference_rows`.
    """

    alphabet_size: int
    arity: int
    nums: tuple[int, ...]
    den: int
    upper: int
    costs: tuple[int, ...]
    rhs_den: int

    def __post_init__(self) -> None:
        if len(self.nums) != self.num_vars:
            raise ValueError(f"objective length {len(self.nums)} != num_vars {self.num_vars}")
        if self.upper <= 0:
            raise ValueError(f"box upper bound must be positive, got {self.upper_bound}")
        if len(self.costs) != self.arity:
            raise ValueError(f"{len(self.costs)} coordinate costs for arity {self.arity}")
        for c in self.costs:
            if c <= 0:
                raise ValueError(f"difference constraint rhs must be positive, got {rat(c, self.rhs_den)}")

    @property
    def num_vars(self) -> int:
        return self.alphabet_size**self.arity

    @property
    def objective(self) -> tuple[Rational, ...]:
        return tuple(rat(x, self.den) for x in self.nums)

    @property
    def upper_bound(self) -> Rational:
        return rat(self.upper, self.rhs_den)

    @property
    def difference_constraints(self) -> tuple[tuple[int, int, Rational], ...]:
        return tuple((x, y, rat(b, self.rhs_den)) for x, y, b in self.difference_rows())

    def difference_rows(self) -> Iterator[tuple[int, int, int]]:
        """(x, y, b): the row phi[x] - phi[y] <= b / rhs_den, in build order.

        The pairs come from index strides: for each word x, each
        coordinate (the first, most significant, first) and each other
        symbol there.
        """
        m, size = self.alphabet_size, self.num_vars
        for x in range(size):
            stride = size
            for cost in self.costs:
                stride //= m
                digit = (x // stride) % m
                for other in range(m):
                    if other != digit:
                        yield x, x + (other - digit) * stride, cost


def build_polytope_lp(k: TableFunction, w: WeightVector, v: RationalLike = 0) -> LpProblem:
    """Construct the LP for sup <k, phi> over the polytope with slack v.

    The right-hand sides go over D, the lcm of v's denominator and the
    weights' (``w.den``); the weights' numerators are scaled to it.
    """
    w.check_arity(k.arity)
    v = rat(v)
    if v < 0:
        raise ValueError(f"box slack v must be >= 0, got {v}")
    den = lcm(v.denominator, w.den)
    # A list, not a generator: a generator per LP shifts the cyclic collector's
    # timing, which measured 0.4 MB more peak RSS over an lp_verify benchmark run.
    costs = tuple([c * (den // w.den) for c in w.nums])
    upper = v.numerator * (den // v.denominator) + sum(costs)
    return LpProblem(k.alphabet_size, k.arity, k.nums, k.den, upper, costs, den)


def solve_lp(p: LpProblem) -> SimplexResult:
    """Exact simplex solve of the problem, its certificate checked.

    Box row j reads x_j <= upper and each difference row (x, y, b) reads
    x - y <= b, all over rhs_den: int rows of a totally unimodular
    (network) matrix, the only kind the simplex accepts, so every pivot
    element is 1.  The dual vector is indexed by constraint rows in build
    order: first the num_vars box rows, then the difference rows.
    """
    nv, upper = p.num_vars, p.upper
    rows = [({j: 1}, upper) for j in range(nv)]
    rows += [({x: 1, y: -1}, b) for x, y, b in p.difference_rows()]
    objective = {j: c for j, c in enumerate(p.nums) if c}
    return solve(IntegerLp(nv, objective, p.den, rows, p.rhs_den))


def phi_sup(k: TableFunction, w: WeightVector, v: RationalLike = 0) -> Rational:
    """sup of <k, phi> over the polytope with slack v (no absolute value)."""
    return solve_lp(build_polytope_lp(k, w, v)).objective_value


@dataclass(frozen=True)
class PhiPsiReport:
    """Exact comparison of the polytope supremum against its psi bound.

    lhs = phi_sup(k, w, v), rhs = psi(w, k) + v * ramp(total(k)).  When
    v = 0 the report also compares the norms (norm_lhs = phi_norm =
    lhs + norm_shift, norm_rhs = psi_norm = rhs + norm_shift); for v > 0
    those fields are None.  The verdicts are derived from these numbers:
    holds is lhs <= rhs, and norm_holds is norm_lhs <= norm_rhs, or None
    when the report has no norms.
    """

    lhs: Rational
    rhs: Rational
    holds: bool = field(init=False)
    norm_lhs: Rational | None = None
    norm_rhs: Rational | None = None
    norm_holds: bool | None = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "holds", self.lhs <= self.rhs)
        norm_holds = None if self.norm_lhs is None else self.norm_lhs <= self.norm_rhs
        object.__setattr__(self, "norm_holds", norm_holds)


def verify_phi_psi(k: TableFunction, w: WeightVector, v: RationalLike = 0) -> PhiPsiReport:
    """Check phi_sup <= psi + v * ramp(total), exactly; at v = 0 the norms too, via norm_shift."""
    v = rat(v)
    lhs = phi_sup(k, w, v)
    rhs = psi(w, k) + v * max(k.total(), 0)
    if v != 0:
        return PhiPsiReport(lhs, rhs)
    shift = norm_shift(w, k)
    return PhiPsiReport(lhs, rhs, lhs + shift, rhs + shift)


def lipschitz_constant(f: TableFunction | Builtin, w: WeightVector) -> Rational:
    """Smallest c with |f(x) - f(y)| <= c * d_w(x, y) for all word pairs: max_i c_i / w_i.

    It suffices to compare words at Hamming distance 1 (path metric), so c
    is the largest oscillation c_i (``f.oscillations()``: a table's scan or
    a builtin's closed form) over its weight w_i.  Constant functions give 0.
    """
    w.check_arity(f.arity)
    return max((c / wi for c, wi in zip(f.oscillations(), w)), default=rat(0))
