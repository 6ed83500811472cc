"""Table layers summed in Fractions, kept only as test oracles.

These are the straightforward forms of the library's integer table code:
``psi`` and its section decomposition ramp and project ``values`` level by
level, ``lipschitz_constant`` flips every symbol of every word, and the
martingale quantities build ``f * P`` prefix sums and divide every
conditional expectation out.  They read only a table's ``values`` (and a
measure's ``probabilities``), never its integer numerators, so the
library's numerator paths must return the same rationals on every input.

The table builders that only tests use live here too: :func:`from_callable`
(one value per word), :func:`constant` and :func:`scale`, and so do
:func:`hamming_distance`, d_w summed in Fractions for one word pair (the
library builds d_w only as the ``hamming_to`` builtin's table), and
:func:`ramp`, max(z, 0) on a rational (the library's psi ramps integer
numerators with a sign test).
"""

from __future__ import annotations

from numbers import Rational
from typing import Callable, Sequence

from hammix.martingale import MartingaleProfile
from hammix.mixing import Measure
from hammix.montecarlo import SimulationConfig, sample_word
from hammix.rational import RationalLike, rat, rat_from_float
from hammix.words import TableFunction, WeightVector, Word, word_index
from mixing_oracle import ZeroPrefixProbability, block_mass, prefix_block, stream_draws, words


def ramp(z: RationalLike) -> Rational:
    """max(z, 0), exactly."""
    z = rat(z)
    return z if z > 0 else rat(0)


def hamming_distance(x: Sequence[int], y: Sequence[int], w: WeightVector) -> Rational:
    """Weighted Hamming distance: sum of w_i over coordinates where x, y differ."""
    if len(x) != len(y) or len(x) != len(w):
        raise ValueError(
            f"length mismatch: |x|={len(x)}, |y|={len(y)}, |w|={len(w)}"
        )
    return sum((w[i] for i in range(len(w)) if x[i] != y[i]), rat(0))


def from_callable(m: int, n: int, fn: Callable[[Word], RationalLike]) -> TableFunction:
    """The table of fn on S^n, one call per word."""
    return TableFunction(m, n, tuple(fn(x) for x in words(m, n)))


def constant(m: int, n: int, value: RationalLike) -> TableFunction:
    """The table with every value equal to ``value``, built from its numerator."""
    value = rat(value)
    return TableFunction.from_numerators(m, n, (value.numerator,) * m**n, value.denominator)


def scale(k: TableFunction, a: RationalLike) -> TableFunction:
    """a * k, built from numerators over the unreduced denominator a.den * k.den."""
    a = rat(a)
    nums = (a.numerator * x for x in k.nums)
    return TableFunction.from_numerators(k.alphabet_size, k.arity, nums, a.denominator * k.den)


def marginal_projection(k: TableFunction) -> TableFunction:
    """k'(y) = sum_a k(a y), summing rationals."""
    if k.arity < 1:
        raise ValueError("cannot project an arity-0 table")
    m = k.alphabet_size
    block = m ** (k.arity - 1)
    vals = k.values
    projected = [sum((vals[a * block + j] for a in range(m)), rat(0)) for j in range(block)]
    return TableFunction(m, k.arity - 1, tuple(projected))


def y_section(k: TableFunction, y: int) -> TableFunction:
    """k_y(x) = k(x y), from the rational values."""
    if k.arity < 1:
        raise ValueError("cannot take a section of an arity-0 table")
    m = k.alphabet_size
    if not 0 <= y < m:
        raise ValueError(f"section symbol {y} out of range for alphabet of size {m}")
    return TableFunction(m, k.arity - 1, k.values[y::m])


def prefix_restrict(f: TableFunction, prefix: Sequence[int]) -> TableFunction:
    """Fix the first len(prefix) coordinates: returns x |-> f(prefix x)."""
    i = len(prefix)
    if i > f.arity:
        raise ValueError(f"prefix of length {i} too long for arity {f.arity}")
    m = f.alphabet_size
    block = m ** (f.arity - i)
    base = word_index(prefix, m) * block
    return TableFunction(m, f.arity - i, f.values[base : base + block])


def psi(w: WeightVector, k: TableFunction) -> Rational:
    """psi(w, k): per level, w_i times the ramped sum, then project."""
    if len(w) != k.arity:
        raise ValueError(f"weight length {len(w)} != table arity {k.arity}")
    total = rat(0)
    current = k
    for wi in w:
        total += wi * sum((v for v in current.values if v > 0), rat(0))
        current = marginal_projection(current)
    return total


def psi_decomposition_rhs(w: WeightVector, k: TableFunction) -> Rational:
    """sum over y of psi(w_1..n-1, k_y) + w_n * ramp(total(k_y))."""
    if k.arity < 1:
        raise ValueError("decomposition requires arity >= 1")
    head = WeightVector(w.entries[:-1])
    total = rat(0)
    for y in range(k.alphabet_size):
        section = y_section(k, y)
        total += psi(head, section) + w[len(w) - 1] * ramp(sum(section.values, rat(0)))
    return total


def lipschitz_constant(f: TableFunction, w: WeightVector) -> Rational:
    """max |f(x) - f(y)| / w_i over every pair differing only in coordinate i."""
    best = rat(0)
    for x in words(f.alphabet_size, f.arity):
        for i in range(f.arity):
            for a in range(f.alphabet_size):
                y = x[:i] + (a,) + x[i + 1 :]
                best = max(best, abs(f(x) - f(y)) / w[i])
    return best


def conditional_expectation(f: TableFunction, P: Measure, prefix: Sequence[int]) -> Rational:
    """E[f(X) | X_1..i = prefix], exact; the empty prefix gives E f."""
    if f.alphabet_size != P.alphabet_size or f.arity != P.arity:
        raise ValueError("function and measure shapes do not match")
    lo, hi = prefix_block(P, prefix)
    mass = block_mass(P, lo, hi)
    if mass == 0:
        raise ZeroPrefixProbability(f"prefix {tuple(prefix)} has probability zero")
    weighted = sum(
        (f.values[t] * P.probabilities[t] for t in range(lo, hi) if P.probabilities[t]),
        rat(0),
    )
    return weighted / mass


def v_i(f: TableFunction, P: Measure, y: Sequence[int]) -> Rational:
    """Martingale difference after revealing the len(y)-th coordinate."""
    if not 1 <= len(y) <= f.arity:
        raise ValueError(f"prefix length must be in [1, {f.arity}], got {len(y)}")
    return conditional_expectation(f, P, y) - conditional_expectation(f, P, y[:-1])


def _weighted_cum(f: TableFunction, P: Measure) -> tuple[Rational, ...]:
    total = rat(0)
    cum = [total]
    for fv, pv in zip(f.values, P.probabilities):
        total += fv * pv
        cum.append(total)
    return tuple(cum)


def _profile_level(f: TableFunction, P: Measure, fp_cum: Sequence[Rational], i: int) -> Rational:
    m = f.alphabet_size
    block = m ** (f.arity - i)
    parent_block = block * m
    best = rat(0)
    for p in range(m**i):
        lo = p * block
        mass = block_mass(P, lo, lo + block)
        if mass == 0:
            continue
        plo = (p // m) * parent_block
        parent_mass = block_mass(P, plo, plo + parent_block)
        child = (fp_cum[lo + block] - fp_cum[lo]) / mass
        parent = (fp_cum[plo + parent_block] - fp_cum[plo]) / parent_mass
        best = max(best, abs(child - parent))
    return best


def martingale_profile(f: TableFunction, P: Measure) -> MartingaleProfile:
    """E f, the sum of every f * P term, and every v_bar level from rational f * P prefix sums."""
    fp_cum = _weighted_cum(f, P)
    bars = tuple(_profile_level(f, P, fp_cum, i) for i in range(1, f.arity + 1))
    return MartingaleProfile(fp_cum[-1], bars)


def tail_mean_and_counts(
    f: TableFunction, P: Measure, cfg: SimulationConfig
) -> tuple[Rational, list[int]]:
    """E f and, per threshold t, how many seeded draws have |f - E f| > t."""
    mean = sum((fv * pv for fv, pv in zip(f.values, P.probabilities) if pv), rat(0))
    thresholds = [rat_from_float(t) for t in cfg.thresholds]
    counts = [0] * len(thresholds)
    for k in range(cfg.sample_count):
        deviation = abs(f(sample_word(P, stream_draws(cfg.seed, k, P.arity))) - mean)
        for idx, t in enumerate(thresholds):
            if deviation > t:
                counts[idx] += 1
    return mean, counts
