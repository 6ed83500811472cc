"""The recursive functional psi and its norm.

For a weight vector w of length n and a table k of arity n,

    psi(w, k) = w_1 * sum_x ramp(k(x)) + psi(w_2..n, k')        (arity n >= 1)
    psi(-, scalar) = 0                                          (arity 0)

where k' is the marginal projection over the first coordinate and
ramp(z) = max(z, 0).  psi dominates the supremum of <k, .> over the
1-Lipschitz polytope (see :mod:`hammix.lipschitz_lp`); the max over the two
signs of k, psi_norm (one psi plus :func:`norm_shift`), dominates the
corresponding norm.

psi also decomposes exactly over last-coordinate sections:

    psi(w, k) = sum_{y in S} [ psi(w_1..n-1, k_y) + w_n * ramp(total(k_y)) ]

:func:`psi_decomposition_rhs` evaluates that right-hand side independently
so the identity can be checked term by term.
"""

from __future__ import annotations

from numbers import Rational

from .rational import RationalLike, rat
from .words import TableFunction, WeightVector, marginal_projection, y_section


def ramp(z: RationalLike) -> Rational:
    """max(z, 0), exactly."""
    z = rat(z)
    return z if z > 0 else rat(0)


def _sum_ramp(values) -> Rational:
    return sum((v for v in values if v > 0), rat(0))


def psi(w: WeightVector, k: TableFunction) -> Rational:
    """Evaluate psi(w, k).

    Implemented as a loop over recursion depth (the recursion is linear:
    each level contributes one ramped sum and projects the table once), so
    arity is not limited by the interpreter stack.
    """
    if len(w) != k.arity:
        raise ValueError(f"weight length {len(w)} != table arity {k.arity}")
    total = rat(0)
    current = k
    for wi in w:
        total += wi * _sum_ramp(current.values)
        current = marginal_projection(current)
    return total


def norm_shift(w: WeightVector, k: TableFunction) -> Rational:
    """sum(w) * ramp(-total(k)), what taking the max over both signs of k adds.

    Each projection level of k sums to total(k) and ramp(-z) = ramp(z) - z, so
    psi(w, -k) = psi(w, k) - sum(w) * total(k); phi -> sum(w) - phi maps the
    v = 0 polytope onto itself, so phi_sup(-k, w, 0) obeys the same identity.
    """
    return w.total() * ramp(-k.total())


def psi_norm(w: WeightVector, k: TableFunction) -> Rational:
    """max(psi(w, k), psi(w, -k)) = psi(w, k) + norm_shift(w, k)."""
    return psi(w, k) + norm_shift(w, k)


def psi_decomposition_rhs(w: WeightVector, k: TableFunction) -> Rational:
    """Section-wise decomposition of psi, evaluated independently.

    Returns sum over y of psi(w_1..n-1, k_y) + w_n * ramp(total(k_y)).
    Equals psi(w, k) exactly for every w, k with arity >= 1.
    """
    if k.arity < 1:
        raise ValueError("decomposition requires arity >= 1")
    if len(w) != k.arity:
        raise ValueError(f"weight length {len(w)} != table arity {k.arity}")
    head = WeightVector(w.entries[:-1]) if k.arity > 1 else WeightVector(())
    w_last = w[len(w) - 1]
    total = rat(0)
    for y in range(k.alphabet_size):
        section = y_section(k, y)
        total += psi(head, section) + w_last * ramp(section.total())
    return total
