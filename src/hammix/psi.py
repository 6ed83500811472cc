"""The recursive functional psi and its norm.

For a weight vector w of length n and a table k of arity n,

    psi(w, k) = w_1 * sum_x ramp(k(x)) + psi(w_2..n, k')        (arity n >= 1)
    psi(-, scalar) = 0                                          (arity 0)

where k' is the marginal projection over the first coordinate and
ramp(z) = max(z, 0).  psi dominates the supremum of <k, .> over the
1-Lipschitz polytope (see :mod:`hammix.lipschitz_lp`); the max over the two
signs of k, psi_norm = psi + :func:`norm_shift`, dominates the
corresponding norm.

psi also decomposes exactly over last-coordinate sections:

    psi(w, k) = sum_{y in S} [ psi(w_1..n-1, k_y) + w_n * ramp(total(k_y)) ]

:func:`psi_decomposition_rhs` evaluates that right-hand side independently
so the identity can be checked term by term.
"""

from __future__ import annotations

from numbers import Rational
from typing import Sequence

from .rational import RationalLike, rat
from .words import TableFunction, WeightVector, project_numerators


def ramp(z: RationalLike) -> Rational:
    """max(z, 0), exactly."""
    z = rat(z)
    return z if z > 0 else rat(0)


def _check_arity(w: WeightVector, k: TableFunction) -> None:
    if len(w) != k.arity:
        raise ValueError(f"weight length {len(w)} != table arity {k.arity}")


def _psi_scaled(w: Sequence[Rational], nums: Sequence[int], m: int) -> Rational:
    """psi times the table's denominator, from its numerators.

    One loop level per weight (the recursion is linear: each level adds one
    ramped sum and projects once), so arity is not limited by the
    interpreter stack; ramp is a sign test on the numerators.
    """
    total = rat(0)
    for wi in w:
        total += wi * sum(x for x in nums if x > 0)
        nums = project_numerators(nums, m)
    return total


def psi(w: WeightVector, k: TableFunction) -> Rational:
    """Evaluate psi(w, k)."""
    _check_arity(w, k)
    return _psi_scaled(w.entries, k.nums, k.alphabet_size) / k.den


def norm_shift(w: WeightVector, k: TableFunction) -> Rational:
    """sum(w) * ramp(-total(k)), what taking the max over both signs of k adds.

    Each projection level of k sums to total(k) and ramp(-z) = ramp(z) - z, so
    psi(w, -k) = psi(w, k) - sum(w) * total(k); phi -> sum(w) - phi maps the
    v = 0 polytope onto itself, so phi_sup(-k, w, 0) obeys the same identity.
    """
    return w.total() * ramp(-k.total())


def psi_decomposition_rhs(w: WeightVector, k: TableFunction) -> Rational:
    """Section-wise decomposition of psi, evaluated independently.

    Returns sum over y of psi(w_1..n-1, k_y) + w_n * ramp(total(k_y)), each
    section k_y being the strided slice of k's numerators.  Equals
    psi(w, k) exactly for every w, k with arity >= 1.
    """
    if k.arity < 1:
        raise ValueError("decomposition requires arity >= 1")
    _check_arity(w, k)
    m = k.alphabet_size
    *head, w_last = w.entries
    total = rat(0)
    for y in range(m):
        section = k.nums[y::m]
        total += _psi_scaled(head, section, m) + w_last * max(sum(section), 0)
    return total / k.den
