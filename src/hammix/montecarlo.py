"""Seeded Monte Carlo samples of the deviation |f - E f|.

Sampling is exact: a word is drawn symbol by symbol from its conditional
distribution given the sampled prefix, and every comparison against the
uniform variate is exact (the variate is the rational r / 2^64 of a 64-bit
draw, compared in integers against the measure's integer prefix sums over
their common denominator), so a run is a pure function of
(measure, seed, sample count) -- bit-identical across platforms and
schedules.  A block of mass M selects child c or a later one when
r >= ceil(C 2^64 / M), C the mass of the children before c, so each symbol
is the number of its block's child thresholds at or below its draw.  One
function builds those thresholds (:func:`_block_cuts`), once per call: for
a dense measure, of every prefix block of every level
(:func:`_level_cuts`); for a chain passed as its
:class:`~hammix.mixing.MarkovSpec`, of every row of every kernel, each
row one block (:func:`_chain_cuts`), which gives the draws of its
expanded table.

Randomness comes from one sequence per seed, u[s] = mix64(seed + s * GAMMA
mod 2^64) with mix64 the splitmix64 output function.  Sample k reads the
n draws u[k+2], ..., u[k+n+1], so it depends only on (seed, k).  Samples
are not independent, though: consecutive samples of an n-symbol word
share n - 1 uniforms.  :func:`empirical_tail` uses that overlap: a batch
of c samples reads one list of c + n - 1 draws, and symbol i of every
sample is the slice starting at i.

The sampler runs as whole-list integer passes over a batch of samples
(list comprehensions over slices of one draw list), not as a loop over
the symbols of each word: the draws are splitmix64 in list passes
(:func:`_draws`), the walk advances every sample of a batch one level at
a time (:func:`_dense_indices`, :func:`_chain_values`), and the
exceedances are counted with list passes.  A level costs m - 1 passes
over the batch plus one, so a word costs O(n m) integer steps; a dense
measure has m^n - 1 thresholds, a chain m - 1 per kernel row.

:func:`empirical_tail` estimates P(|f - E f| > t) by simulation and
reports Azuma's bound on the exact d_squared next to each estimated
frequency; it only samples.  E f is exact (removing one noise source):
it comes with d_squared from :func:`~hammix.martingale.martingale_profile`,
and each sample's test |f(x) - E f| > t runs on f's integer numerator at
x against the exact value of the float t, scaled to integers.  For
``sum_of_symbols`` or ``hamming_to`` on a chain that numerator is summed
from the builtin's per-coordinate terms as the symbols are drawn, and
neither f nor the chain is expanded to a table; otherwise the walk gives
the drawn word's index in f's table, and the numerator is read there.
The corollary bound from ||Delta_n||_2 is computed in
:mod:`hammix.martingale`, and the CLI's ``simulate`` reports it next to
these rows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain
from numbers import Rational
from typing import Sequence

from .martingale import Function, azuma_bound, kernel_terms, martingale_profile
from .mixing import MarkovSpec, Measure
from .rational import float_from_rat, rat_from_float
from .words import Word, word_unindex

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Samples drawn per batch of list passes: the batch's lists stay small at
# any sample count.
_BATCH = 1 << 14


def _draws(seed: int, start: int, count: int) -> list[int]:
    """u[start], ..., u[start + count - 1] of u[s] = mix64(seed + s * GAMMA mod 2^64).

    The states seed + s * GAMMA come from one ``range``, and each of the
    three steps of mix64, the splitmix64 output function, is one pass over
    the whole list.
    """
    z = [x & _MASK64 for x in range(seed + start * _GAMMA, seed + (start + count) * _GAMMA, _GAMMA)]
    z = [(x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64 for x in z]
    z = [(x ^ x >> 27) * 0x94D049BB133111EB & _MASK64 for x in z]
    return [x ^ x >> 31 for x in z]


@dataclass(frozen=True)
class SimulationConfig:
    """Sample count, seed and the tail thresholds to estimate."""

    sample_count: int
    seed: int
    thresholds: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {type(self.seed).__name__}")
        object.__setattr__(self, "seed", self.seed & _MASK64)
        thresholds = tuple(self.thresholds)
        if not thresholds:
            raise ValueError("thresholds must be nonempty")
        # Checked before float(), which raises OverflowError on a huge int.
        if any(not 0 < t <= sys.float_info.max for t in thresholds):
            raise ValueError(f"thresholds must be finite and positive, got {thresholds}")
        object.__setattr__(self, "thresholds", tuple(map(float, thresholds)))


def _advance(
    base: list[int], cuts: Sequence[Sequence[int]], keys: Sequence[int], draws: Sequence[int]
) -> list[int]:
    """Per sample k, base[k] plus the number of its thresholds at or below its draw.

    ``cuts`` holds one list per child c = 1..m-1, indexed by ``keys[k]``
    (a prefix or a state).  One sample's thresholds are nondecreasing, so
    the count is what ``bisect_right`` of the draw in them gives: the
    sampled symbol.
    """
    for cut in cuts:
        base = [b + (cut[key] <= r) for b, key, r in zip(base, keys, draws)]
    return base


def _block_cuts(cum: Sequence[int], block: int, m: int) -> list[list[int]]:
    """Per child c = 1..m-1, the draw threshold of c in each block of ``block`` cells.

    A draw r < 2^64 selects, in a block of mass M = cum[lo + block] - cum[lo],
    the first sub-block whose cumulative mass C satisfies r M < C 2^64
    (that is, r / 2^64 < C / M); for an integer r, child c or a later one
    is selected when r >= ceil((cum[lo + c block / m] - cum[lo]) 2^64 / M).
    A null sub-block's threshold equals the next one, so it is never
    selected.  A null block, which no draw reaches, is divided by 1.  This
    is the one place the rule is written: a dense measure's prefix blocks
    (:func:`_level_cuts`) and a chain's kernel rows (:func:`_chain_cuts`)
    both get their thresholds here.
    """
    starts = range(0, len(cum) - 1, block)
    base = [cum[lo] for lo in starts]
    mass = [cum[lo + block] - below or 1 for lo, below in zip(starts, base)]
    step = block // m
    return [
        [-(((below - cum[lo + c * step]) << 64) // total) for lo, below, total in zip(starts, base, mass)]
        for c in range(1, m)
    ]


def _level_cuts(P: Measure) -> list[list[list[int]]]:
    """Per level i, :func:`_block_cuts` of all m^i prefix blocks.

    That is m^n - 1 thresholds in all, one integer division each, built
    once per call and read by every batch of samples: work and memory of
    the order of the m^n conditional sums the exact mean already takes.
    """
    m, size = P.alphabet_size, len(P.nums)
    return [_block_cuts(P._cum, size // m**i, m) for i in range(P.arity)]


def _dense_indices(levels: list[list[list[int]]], m: int, draws: Sequence[int], count: int) -> list[int]:
    """Table indices of ``count`` samples; sample k's symbol i reads draws[k + i].

    The walk runs level by level over every sample at once: each sample's
    prefix index p becomes p m + its symbol, the number of its block's
    child thresholds (``levels[i]``, :func:`_level_cuts`) at or below its
    draw.
    """
    prefixes = [0] * count
    for i, cuts in enumerate(levels):
        prefixes = _advance([p * m for p in prefixes], cuts, prefixes, draws[i : i + count])
    return prefixes


def _chain_cuts(spec: MarkovSpec) -> list[list[list[int]]]:
    """Per law t, :func:`_block_cuts` of its rows laid end to end, one block per state.

    Each row sums to the law's denominator, so the blocks are the rows'
    own masses.  The initial law is one row, read under the state 0.
    """
    m = spec.alphabet_size
    return [_block_cuts((0, *accumulate(chain.from_iterable(rows))), m, m) for rows in spec.laws]


@lru_cache
def _index_digits(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per position i, symbol a's digit a * m^(n-1-i) of the table index."""
    return tuple(tuple(range(0, m * step, step)) for step in (m ** (n - 1 - i) for i in range(n)))


def _chain_values(
    levels: list[list[list[int]]], terms: Sequence[Sequence[int]], draws: Sequence[int], count: int
) -> list[int]:
    """sum_i terms[i][x_i] of ``count`` chain samples; sample k's symbol i reads draws[k + i].

    Level by level over every sample at once: the next state is the number
    of the current state's row thresholds (``levels[i]``,
    :func:`_chain_cuts`) at or below the draw.  With the table index's
    digits (:func:`_index_digits`) as terms, the sum is the index of the
    word the chain's table would give.
    """
    states = [0] * count
    values = [0] * count
    for i, (cuts, g) in enumerate(zip(levels, terms)):
        states = _advance([0] * count, cuts, states, draws[i : i + count])
        values = [v + g[s] for v, s in zip(values, states)]
    return values


def sample_word(P: Measure | MarkovSpec, draws: Sequence[int]) -> Word:
    """The word with probability exactly P(x) that n 64-bit draws select, one per symbol.

    Draw i selects symbol i from P(x_i | x_1..i-1) by exact integer
    thresholds (:func:`_block_cuts`, or the chain's kernel rows); anything
    but exactly n draws is refused.
    """
    m, n = P.alphabet_size, P.arity
    if len(draws) != n:
        raise ValueError(f"need exactly {n} draws, one per symbol, got {len(draws)}")
    if isinstance(P, MarkovSpec):
        (index,) = _chain_values(_chain_cuts(P), _index_digits(m, n), draws, 1)
    else:
        (index,) = _dense_indices(_level_cuts(P), m, draws, 1)
    return word_unindex(index, m, n)


@dataclass(frozen=True)
class ThresholdReport:
    """Simulation outcome for one threshold t, next to Azuma's bound on the exact d_squared."""

    threshold: float
    exceed_count: int
    frequency: float
    azuma: float


@dataclass(frozen=True)
class TailReport:
    sample_count: int
    seed: int
    mean: Rational
    d_squared: Rational
    rows: tuple[ThresholdReport, ...]


def empirical_tail(f: Function, P: Measure | MarkovSpec, cfg: SimulationConfig) -> TailReport:
    """Estimate P(|f - E f| > t) for each configured t.

    E f and the per-sample comparisons are exact (thresholds enter as the
    exact rational values of their floats); only the reported frequency and
    Azuma's bound are floating point.  The float of d_squared is 0.0 only
    when d_squared is 0, and Azuma's bound is then 0.0.  Identical (f, P, cfg) give
    bit-identical reports.  Where :func:`~hammix.martingale.kernel_terms`
    allows it, a sample's value is summed from its terms as its symbols are
    drawn, and no table is built; otherwise the walk gives table indices,
    at which f's numerators are read.
    """
    n = P.arity
    terms = kernel_terms(f, P)
    if terms is None:  # the walk gives table indices, at which f's numerators are read
        f = f.table()
        g, den, read = _index_digits(P.alphabet_size, n), f.den, partial(map, f.nums.__getitem__)
    else:  # a chain walk sums f's terms into each sample's numerator
        (g, den), read = terms, iter
    profile = martingale_profile(f, P)
    if isinstance(P, Measure):
        walk = partial(_dense_indices, _level_cuts(P), P.alphabet_size)
    else:
        walk = partial(_chain_values, _chain_cuts(P), g)
    # A sample's value is value / den; |value / den - E f| > t, with
    # E f = p / q in lowest terms and t = t_num / t_den the exact value of
    # the float, is |value * q - p * den| * t_den > t_num * den * q.
    q, weighted = profile.mean.denominator, profile.mean.numerator * den
    exact_thresholds = [rat_from_float(t) for t in cfg.thresholds]
    limits = [(t.denominator, t.numerator * den * q) for t in exact_thresholds]
    counts = [0] * len(limits)
    for start in range(0, cfg.sample_count, _BATCH):
        count = min(_BATCH, cfg.sample_count - start)
        # Sample k reads u[k+2], ..., u[k+n+1].
        draws = _draws(cfg.seed, start + 2, count + n - 1)
        deviations = [abs(v * q - weighted) for v in read(walk(draws, count))]
        for idx, (t_den, limit) in enumerate(limits):
            counts[idx] += sum([d * t_den > limit for d in deviations])

    d2 = float_from_rat(profile.d_squared)
    rows = tuple(
        ThresholdReport(
            threshold=t,
            exceed_count=count,
            frequency=count / cfg.sample_count,
            azuma=azuma_bound(t, d2),
        )
        for t, count in zip(cfg.thresholds, counts)
    )
    return TailReport(
        sample_count=cfg.sample_count,
        seed=cfg.seed,
        mean=profile.mean,
        d_squared=profile.d_squared,
        rows=rows,
    )
