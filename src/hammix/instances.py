"""Seeded random instance generators for the verification harness.

All generators take a ``random.Random`` so runs are reproducible from a
single seed.  Rational entries are kept small (bounded numerators, small
denominators): the inequalities being checked are scale-invariant, and the
exact-by-construction families below already hit the interesting corners
(ties, zeros, degenerate measures).

Because the checked functionals are homogeneous and translation invariant
in f, nothing is lost by also generating normalized 1-Lipschitz functions;
:func:`random_lipschitz_function` builds them as a min of shifted cones
c_j + d_w(., anchor_j), each 1-Lipschitz, hence so is their minimum.  Each
cone is the ``hamming_to`` builtin's table, shifted.
"""

from __future__ import annotations

import random
from math import lcm
from numbers import Rational

from .mixing import MarkovSpec, Measure
from .rational import rat
from .words import Builtin, TableFunction, WeightVector


def random_rational(
    rng: random.Random, low: int, high: int, max_denominator: int = 6
) -> Rational:
    """Uniform-ish rational in [low, high] with denominator <= max_denominator."""
    den = rng.randint(1, max_denominator)
    return rat(rng.randint(low * den, high * den), den)


def random_table(rng: random.Random, m: int, n: int, max_denominator: int = 6) -> TableFunction:
    """Dense table with entries in [-3, 3]."""
    vals = tuple(random_rational(rng, -3, 3, max_denominator) for _ in range(m**n))
    return TableFunction(m, n, vals)


def random_weights(rng: random.Random, n: int) -> WeightVector:
    """Strictly positive weights in (0, 2]."""
    entries = []
    for _ in range(n):
        den = rng.randint(1, 6)
        entries.append(rat(rng.randint(1, 2 * den), den))
    return WeightVector(entries)


def random_dense_measure(
    rng: random.Random, m: int, n: int, allow_zeros: bool = True
) -> Measure:
    """Random probability table; with allow_zeros, some cells are exactly null.

    Null cells exercise the zero-prefix exclusion rules in eta_bar and
    the martingale profile.
    """
    size = m**n
    low = 0 if allow_zeros else 1
    while True:
        weights = [rng.randint(low, 9) for _ in range(size)]
        total = sum(weights)
        if total > 0:
            return Measure.from_numerators(m, n, weights, total)


def random_markov_spec(rng: random.Random, m: int, n: int) -> MarkovSpec:
    def distribution() -> tuple[Rational, ...]:
        weights = [rng.randint(1, 9) for _ in range(m)]
        total = sum(weights)
        return tuple(rat(c, total) for c in weights)

    return MarkovSpec(
        initial=distribution(),
        transitions=tuple(
            tuple(distribution() for _ in range(m)) for _ in range(n - 1)
        ),
    )


def random_product_measure(rng: random.Random, m: int, n: int) -> Measure:
    """Product of independent per-coordinate distributions.

    Each coordinate's law is integer weights over their sum, so the table is
    the products of the weights over the product of the sums.
    """
    nums, den = [1], 1
    for _ in range(n):
        weights = [rng.randint(1, 9) for _ in range(m)]
        nums = [p * c for p in nums for c in weights]
        den *= sum(weights)
    return Measure.from_numerators(m, n, nums, den)


def random_lipschitz_function(rng: random.Random, m: int, n: int, w: WeightVector) -> TableFunction:
    """A 1-Lipschitz (w.r.t. d_w) function: min of three shifted distance cones.

    The minimum is taken on the cones' numerators over one common denominator.
    """
    cones = []
    for _ in range(3):
        anchor = tuple(rng.randrange(m) for _ in range(n))
        cones.append(Builtin("hamming_to", m, n, anchor, w).table().shift(random_rational(rng, 0, 2)))
    den = lcm(*(cone.den for cone in cones))
    scaled = ([x * (den // cone.den) for x in cone.nums] for cone in cones)
    return TableFunction.from_numerators(m, n, map(min, *scaled), den)
