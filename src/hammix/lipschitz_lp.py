"""Linear programming over the polytope of 1-Lipschitz functions.

For weights w on S^n and a slack v >= 0, the feasible set is every table
phi with

    0 <= phi(x) <= v + sum_i w_i           (box)
    |phi(x) - phi(y)| <= d_w(x, y)         (1-Lipschitz)

where d_w is the weighted Hamming metric.  Since d_w is the shortest-path
metric of the graph whose edges flip a single coordinate (edge weight w_i),
imposing the difference constraints only on pairs at Hamming distance 1
already forces them for all pairs; that cuts the constraint count from
O(m^2n) pairs to O(n * m^(n+1)) and is cross-checked against the all-pairs
formulation in the test suite.

The central quantities:

* ``phi_sup(k, w, v)``  -- sup of <k, phi> over the polytope (one LP);
* ``verify_phi_psi``    -- exact comparison of phi_sup against the psi
  functional, which dominates it:  phi_sup <= psi + v * ramp(total(k)).
  At v = 0 it also compares the norms: phi_norm, the sup of |<k, phi>|,
  is the max of the two signed suprema, and phi -> sum(w) - phi maps the
  v = 0 polytope onto itself, so that max is one LP plus
  :func:`~hammix.psi.norm_shift`.

:func:`solve_lp` hands the simplex rows of int coefficients, a totally
unimodular matrix, which is what the simplex requires: every pivot
element is 1, so every pivot is an integer subtraction.  Every solve
returns the :class:`~hammix.simplex.SimplexResult` whose strong-duality
certificate the simplex's integer checker has verified against those rows;
see :mod:`hammix.simplex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Rational
from operator import sub
from typing import Iterator, Literal

from .psi import norm_shift, psi, ramp
from .rational import RationalLike, rat
from .simplex import SimplexResult, simplex_max
from .words import Builtin, TableFunction, WeightVector, word_unindex


@dataclass(frozen=True)
class LpProblem:
    """Maximize <objective, phi> over the 1-Lipschitz polytope.

    ``upper_bound`` (= v + sum w, shared by all variables) is the box
    ceiling; each difference constraint (x, y, rhs) encodes
    phi[x] - phi[y] <= rhs for one ordered pair at Hamming distance 1
    (or an arbitrary ordered pair in the all-pairs cross-check build).
    """

    num_vars: int
    objective: tuple[Rational, ...]
    upper_bound: Rational
    difference_constraints: tuple[tuple[int, int, Rational], ...]

    def __post_init__(self) -> None:
        if len(self.objective) != self.num_vars:
            raise ValueError(
                f"objective length {len(self.objective)} != num_vars {self.num_vars}"
            )
        if self.upper_bound.numerator <= 0:
            raise ValueError(f"box upper bound must be positive, got {self.upper_bound}")
        for x, y, rhs in self.difference_constraints:
            if not (0 <= x < self.num_vars and 0 <= y < self.num_vars) or x == y:
                raise ValueError(f"bad difference constraint pair ({x}, {y})")
            if rhs.numerator <= 0:
                raise ValueError(f"difference constraint rhs must be positive, got {rhs}")


def _adjacent_pairs(m: int, n: int) -> Iterator[tuple[int, int, int]]:
    """Ordered index pairs of words differing in exactly one coordinate.

    Yields (x_index, y_index, coordinate); coordinate 0 is the first (most
    significant) symbol.
    """
    size = m**n
    for idx in range(size):
        stride = size
        for pos in range(n):
            stride //= m
            digit = (idx // stride) % m
            for other in range(m):
                if other == digit:
                    continue
                yield idx, idx + (other - digit) * stride, pos


def build_polytope_lp(
    k: TableFunction,
    w: WeightVector,
    v: RationalLike = 0,
    pairs: Literal["adjacent", "all"] = "adjacent",
) -> LpProblem:
    """Construct the LP for sup <k, phi> over the polytope with slack v.

    pairs="all" emits one constraint per arbitrary ordered word pair with
    rhs d_w(x, y); it is exponentially larger and exists only as the oracle
    for the adjacent-pair reduction.
    """
    if len(w) != k.arity:
        raise ValueError(f"weight length {len(w)} != table arity {k.arity}")
    v = rat(v)
    if v < 0:
        raise ValueError(f"box slack v must be >= 0, got {v}")
    m, n = k.alphabet_size, k.arity
    upper = v + w.total()
    constraints: list[tuple[int, int, Rational]] = []
    if pairs == "adjacent":
        for x, y, pos in _adjacent_pairs(m, n):
            constraints.append((x, y, w[pos]))
    elif pairs == "all":
        size = m**n
        cache = [word_unindex(i, m, n) for i in range(size)]
        for x in range(size):
            for y in range(size):
                if x == y:
                    continue
                dist = sum(
                    (w[i] for i in range(n) if cache[x][i] != cache[y][i]), rat(0)
                )
                constraints.append((x, y, dist))
    else:
        raise ValueError(f"unknown pair mode {pairs!r}")
    return LpProblem(m**n, k.values, upper, tuple(constraints))


def solve_lp(p: LpProblem) -> SimplexResult:
    """Exact simplex solve of the problem, its certificate checked.

    Box row j reads x_j <= upper_bound and the difference constraint
    (x, y, b) reads x - y <= b: int rows of a totally unimodular (network)
    matrix, the only kind the simplex accepts, so every pivot element is 1.
    The dual vector is indexed by constraint rows in build order: first
    the num_vars box rows, then the difference rows.
    """
    nv, pairs = p.num_vars, p.difference_constraints
    rows = [{j: 1} for j in range(nv)] + [{x: 1, y: -1} for x, y, _ in pairs]
    rhs = [p.upper_bound] * nv + [b for _, _, b in pairs]
    return simplex_max(p.objective, rows, rhs)


def phi_sup(k: TableFunction, w: WeightVector, v: RationalLike = 0) -> Rational:
    """sup of <k, phi> over the polytope with slack v (no absolute value)."""
    return solve_lp(build_polytope_lp(k, w, v)).objective_value


@dataclass(frozen=True)
class PhiPsiReport:
    """Exact comparison of the polytope supremum against its psi bound.

    lhs = phi_sup(k, w, v), rhs = psi(w, k) + v * ramp(total(k)).  When
    v = 0 the report also compares the norms (norm_lhs = phi_norm =
    lhs + norm_shift, norm_rhs = psi_norm = rhs + norm_shift); for v > 0
    those fields are None.
    """

    lhs: Rational
    rhs: Rational
    holds: bool
    norm_lhs: Rational | None = None
    norm_rhs: Rational | None = None
    norm_holds: bool | None = None


def verify_phi_psi(k: TableFunction, w: WeightVector, v: RationalLike = 0) -> PhiPsiReport:
    """Check phi_sup <= psi + v * ramp(total), exactly; at v = 0 the norms too, via norm_shift."""
    v = rat(v)
    lhs = phi_sup(k, w, v)
    rhs = psi(w, k) + v * ramp(k.total())
    if v != 0:
        return PhiPsiReport(lhs=lhs, rhs=rhs, holds=lhs <= rhs)
    shift = norm_shift(w, k)
    norm_lhs, norm_rhs = lhs + shift, rhs + shift
    return PhiPsiReport(lhs, rhs, lhs <= rhs, norm_lhs, norm_rhs, norm_lhs <= norm_rhs)


def oscillations(f: TableFunction | Builtin) -> tuple[Rational, ...]:
    """Per coordinate i, c_i = max |f(x) - f(y)| over words differing only at i.

    A builtin gives its closed form (:meth:`~hammix.words.Builtin.oscillations`)
    without a table.  A table is scanned in its integer numerators: each
    step rotates the first coordinate of the numerator table to the last
    place, where the words differing only there are the slices nums[a::m]
    and nums[b::m].
    """
    if isinstance(f, Builtin):
        return f.oscillations()
    m, nums = f.alphabet_size, f.nums
    block = len(nums) // m
    out = []
    for _ in range(f.arity):
        nums = list(chain.from_iterable(zip(*(nums[a * block : (a + 1) * block] for a in range(m)))))
        pairs = ((nums[a::m], nums[b::m]) for a in range(m) for b in range(a))
        out.append(rat(max((max(map(abs, map(sub, x, y))) for x, y in pairs), default=0), f.den))
    return tuple(out)


def lipschitz_constant(f: TableFunction | Builtin, w: WeightVector) -> Rational:
    """Smallest c with |f(x) - f(y)| <= c * d_w(x, y) for all word pairs: max_i c_i / w_i.

    It suffices to compare words at Hamming distance 1 (path metric), so c
    is the largest :func:`oscillations` entry c_i over its weight w_i.
    Constant functions give 0.
    """
    if len(w) != f.arity:
        raise ValueError(f"weight length {len(w)} != table arity {f.arity}")
    return max((c / wi for c, wi in zip(oscillations(f), w)), default=rat(0))
