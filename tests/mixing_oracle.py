"""Per-entry rational mixing coefficients and sampler, kept only as test oracles.

This is the straightforward textbook form of :mod:`hammix.mixing`'s
``expand_markov`` and ``eta_bar``/``delta_matrix`` and of
:func:`hammix.montecarlo.sample_word`: a chain is expanded with one
rational product per cell and level, every conditional law is rebuilt
from its prefix block in Fractions and divided by its mass, every
total-variation distance is taken in rationals, and every ``(i, j)`` entry
is a separate pass.  The library's fraction-free code must return the same
rationals (and its integer sampler the same words) on every input.  The
prefix-mass helpers, point masses and ``||Delta w||^2`` that the tests
build their cases and checks from live here too, and so do the rational
forms of :mod:`hammix.instances`' measure generators, which must build the
same measures from the same draws.
"""

from __future__ import annotations

import random
from numbers import Rational
from typing import Sequence

from hammix.mixing import DeltaMatrix, MarkovSpec, Measure
from hammix.montecarlo import SampleStream
from hammix.rational import rat
from hammix.words import WeightVector, Word, word_index, words

_TWO64 = 1 << 64


class ZeroPrefixProbability(ValueError):
    """Conditioning event has probability zero."""


def point_mass(m: int, n: int, word: Word) -> Measure:
    """The measure that puts all its mass on one word."""
    nums = [0] * m**n
    nums[word_index(word, m, n)] = 1
    return Measure.from_numerators(m, n, nums)


def block_mass(P: Measure, lo: int, hi: int) -> Rational:
    """Total probability of the index range [lo, hi)."""
    return rat(P._cum[hi] - P._cum[lo], P.den)


def prefix_block(P: Measure, prefix: Sequence[int]) -> tuple[int, int]:
    """Index range [lo, hi) of all words starting with the prefix."""
    block = P.alphabet_size ** (P.arity - len(prefix))
    lo = word_index(prefix, P.alphabet_size) * block
    return lo, lo + block


def prefix_mass(P: Measure, prefix: Sequence[int]) -> Rational:
    return block_mass(P, *prefix_block(P, prefix))


def weighted_norm_sq(D: DeltaMatrix, w: WeightVector) -> Rational:
    """||Delta w||_2^2 as an exact rational."""
    return sum((x * x for x in D.apply(w)), rat(0))


def expand_markov(spec: MarkovSpec) -> Measure:
    """Dense measure of the chain, one rational product per cell and level."""
    m = spec.alphabet_size
    vals = list(spec.initial)
    for matrix in spec.transitions:
        nxt = [rat(0)] * (len(vals) * m)
        for p, mass in enumerate(vals):
            if mass:
                row = matrix[p % m]
                base = p * m
                for b in range(m):
                    nxt[base + b] = mass * row[b]
        vals = nxt
    return Measure(m, spec.arity, tuple(vals))


def random_dense_measure(rng: random.Random, m: int, n: int, allow_zeros: bool = True) -> Measure:
    """Random probability table, one rational per cell."""
    size = m**n
    while True:
        if allow_zeros:
            weights = [rng.randint(0, 9) for _ in range(size)]
        else:
            weights = [rng.randint(1, 9) for _ in range(size)]
        total = sum(weights)
        if total > 0:
            return Measure(m, n, tuple(rat(c, total) for c in weights))


def random_product_measure(rng: random.Random, m: int, n: int) -> Measure:
    """Product measure, one rational product per coordinate per word."""
    factors = []
    for _ in range(n):
        weights = [rng.randint(1, 9) for _ in range(m)]
        total = sum(weights)
        factors.append([rat(c, total) for c in weights])
    probs = []
    for x in words(m, n):
        p = rat(1)
        for i, s in enumerate(x):
            p *= factors[i][s]
        probs.append(p)
    return Measure(m, n, tuple(probs))


def conditional_law(P: Measure, prefix: Sequence[int], j: int) -> tuple[Rational, ...]:
    """Law of the tail X_j..n (1-based j) given X_1..i = prefix, i < j <= n.

    Returns a dense table over S^(n-j+1) summing to exactly 1; raises
    ZeroPrefixProbability when the conditioning event is null.
    """
    i = len(prefix)
    n = P.arity
    if not i < j <= n:
        raise ValueError(f"need len(prefix) < j <= arity, got i={i}, j={j}, n={n}")
    lo, hi = prefix_block(P, prefix)
    mass = block_mass(P, lo, hi)
    if mass == 0:
        raise ZeroPrefixProbability(f"prefix {tuple(prefix)} has probability zero")
    m = P.alphabet_size
    tail = m ** (n - j + 1)
    law = [rat(0)] * tail
    for offset in range(hi - lo):
        p = P.probabilities[lo + offset]
        if p:
            law[offset % tail] += p
    return tuple(v / mass for v in law)


def tv_distance(t1: Sequence[Rational], t2: Sequence[Rational]) -> Rational:
    """Total variation distance: half the l1 distance between the tables."""
    if len(t1) != len(t2):
        raise ValueError(f"length mismatch: {len(t1)} vs {len(t2)}")
    return sum((abs(rat(a) - rat(b)) for a, b in zip(t1, t2)), rat(0)) / 2


def eta(P: Measure, i: int, j: int, y: Sequence[int], z: int, z_prime: int) -> Rational:
    """Mixing coefficient for a single (past, swap) choice.

    Total variation between the tail laws after pasts y z and y z', where y
    has length i-1.  Both conditioning prefixes must have positive mass.
    """
    if not 1 <= i < j <= P.arity:
        raise ValueError(f"need 1 <= i < j <= arity, got i={i}, j={j}, n={P.arity}")
    if len(y) != i - 1:
        raise ValueError(f"past y must have length {i - 1}, got {len(y)}")
    law_z = conditional_law(P, tuple(y) + (z,), j)
    law_zp = conditional_law(P, tuple(y) + (z_prime,), j)
    return tv_distance(law_z, law_zp)


def eta_bar(P: Measure, i: int, j: int) -> Rational:
    """Worst-case eta over all pasts y and symbol pairs z, z'.

    Triples whose conditioning prefix is null are excluded; returns 0 when
    no admissible pair of pasts exists.
    """
    if not 1 <= i < j <= P.arity:
        raise ValueError(f"need 1 <= i < j <= arity, got i={i}, j={j}, n={P.arity}")
    m = P.alphabet_size
    best = rat(0)
    for y in words(m, i - 1):
        laws = []
        for z in range(m):
            prefix = y + (z,)
            if prefix_mass(P, prefix) == 0:
                continue
            laws.append(conditional_law(P, prefix, j))
        for a in range(len(laws)):
            for b in range(a + 1, len(laws)):
                d = tv_distance(laws[a], laws[b])
                if d > best:
                    best = d
    return best


def delta_matrix(P: Measure) -> DeltaMatrix:
    """The mixing matrix assembled from one eta_bar call per entry."""
    n = P.arity
    rows = []
    for i in range(1, n + 1):
        row = [rat(0)] * (i - 1) + [rat(1)]
        row += [eta_bar(P, i, j) for j in range(i + 1, n + 1)]
        rows.append(tuple(row))
    return DeltaMatrix(tuple(rows))


def sample_word(P: Measure, stream: SampleStream) -> Word:
    """Draw one word by scanning rational sub-block masses.

    Symbol i is drawn by comparing (r / 2^64) * mass, with mass the
    probability of the current prefix block, against the running sums of
    its sub-block masses.
    """
    m = P.alphabet_size
    block = m**P.arity
    lo = 0
    symbols = []
    for _ in range(P.arity):
        block //= m
        mass = block_mass(P, lo, lo + block * m)
        target = rat(stream.next_u64(), _TWO64) * mass
        acc = rat(0)
        for a in range(m):
            acc += block_mass(P, lo + a * block, lo + (a + 1) * block)
            if target < acc:
                symbols.append(a)
                lo += a * block
                break
        else:
            raise AssertionError("cumulative scan failed to select a symbol")
    return tuple(symbols)
