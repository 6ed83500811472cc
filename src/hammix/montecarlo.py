"""Seeded Monte Carlo checks of the proved tail bounds.

Sampling is exact: a word is drawn symbol by symbol from its conditional
distribution given the sampled prefix, and every comparison against the
uniform variate is exact (the variate is the rational r / 2^64 of a 64-bit
draw, compared in integers against the measure's integer prefix sums over
their common denominator), so a run is a pure function of
(measure, seed, sample count) -- bit-identical across platforms and
schedules.  A block of mass M selects child c or a later one when
r >= ceil(C 2^64 / M), C the mass of the children before c, so each symbol
is the number of its block's child thresholds at or below its draw: of a
dense measure's prefix block (:func:`_block_cuts`), or, for a chain passed
as its :class:`~hammix.mixing.MarkovSpec`, of the current state's kernel
row (:attr:`~hammix.mixing.MarkovSpec.sampler_cuts`), with the same draws
as its expanded table.

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
measure's thresholds are built once per call for every prefix of every
level (m^n - 1 of them, :func:`_level_cuts`).

:func:`empirical_tail` estimates P(|f - E f| > t) by simulation and
reports the Azuma and mixing-matrix bounds next to each estimated
frequency.  E f is exact (removing one noise source): it comes with
d_squared from :func:`~hammix.martingale.mean_and_profile`, and each
sample's test |f(x) - E f| > t runs on f's integer numerator at x against
the exact value of the float t, scaled to integers.  For ``sum_of_symbols``
or ``hamming_to`` on a chain that numerator is summed from the builtin's
per-coordinate terms as the symbols are drawn, and neither f nor the
chain is expanded to a table; otherwise it is read from f's table at the
drawn word's index.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from numbers import Rational
from typing import Sequence

from .martingale import Function, azuma_bound, concentration_bound, kernel_terms, mean_and_profile
from .mixing import MarkovSpec, Measure
from .rational import float_from_rat, rat_from_float
from .words import WeightVector, Word, word_unindex

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
    is selected when r >= ceil((cum[lo + c block / m] - cum[lo]) 2^64 / M),
    the rule of :attr:`~hammix.mixing.MarkovSpec.sampler_cuts`.  A null
    sub-block's threshold equals the next one, so it is never selected.  A
    null block, which no draw reaches, is divided by 1.
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


@lru_cache
def _index_digits(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Per position i, symbol a's digit a * m^(n-1-i) of the table index."""
    return tuple(tuple(range(0, m * step, step)) for step in (m ** (n - 1 - i) for i in range(n)))


def _chain_values(
    chain: MarkovSpec, terms: Sequence[Sequence[int]], draws: Sequence[int], count: int
) -> list[int]:
    """sum_i terms[i][x_i] of ``count`` chain samples; sample k's symbol i reads draws[k + i].

    Level by level over every sample at once: the next state is the number
    of the current state's row thresholds
    (:attr:`~hammix.mixing.MarkovSpec.sampler_cuts`) at or below the draw.
    With the table index's digits (:func:`_index_digits`) as terms, the
    sum is the index of the word the chain's table would give.
    """
    states = [0] * count
    values = [0] * count
    for i, (rows, g) in enumerate(zip(chain.sampler_cuts, terms)):
        # Per child, its threshold in each state's row; the last child's
        # is 2^64, above every draw.
        cuts = list(zip(*rows))[:-1]
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
        (index,) = _chain_values(P, _index_digits(m, n), draws, 1)
    else:
        (index,) = _dense_indices(_level_cuts(P), m, draws, 1)
    return word_unindex(index, m, n)


@dataclass(frozen=True)
class ThresholdReport:
    """Simulation outcome for one threshold t, next to the proved bounds."""

    threshold: float
    exceed_count: int
    frequency: float
    azuma: float
    corollary: float


@dataclass(frozen=True)
class TailReport:
    sample_count: int
    seed: int
    mean: Rational
    d_squared: Rational
    rows: tuple[ThresholdReport, ...]


def empirical_tail(
    f: Function, P: Measure | MarkovSpec, w: WeightVector, cfg: SimulationConfig
) -> TailReport:
    """Estimate P(|f - E f| > t) for each configured t.

    E f and the per-sample comparisons are exact (thresholds enter as the
    exact rational values of their floats); only the reported frequency and
    bounds are floating point.  Identical (f, P, w, cfg) give bit-identical
    reports.  The weights are checked before any word is drawn.  Where
    :func:`~hammix.martingale.kernel_terms` allows it, a sample's value is
    summed from its terms as its symbols are drawn, and no table is built.
    """
    if len(w) != f.arity:
        raise ValueError(f"weight length {len(w)} != table arity {f.arity}")
    n = P.arity
    terms = kernel_terms(f, P)
    table = f.table() if terms is None else None
    mean, profile = mean_and_profile(f if table is None else table, P)
    # A sample's value is value / den; |value / den - E f| > t, with
    # E f = p / q in lowest terms and t = t_num / t_den the exact value of
    # the float, is |value * q - p * den| * t_den > t_num * den * q.
    den = terms[1] if table is None else table.den
    q, weighted = mean.denominator, mean.numerator * den
    exact_thresholds = [rat_from_float(t) for t in cfg.thresholds]
    limits = [(t.denominator, t.numerator * den * q) for t in exact_thresholds]
    counts = [0] * len(limits)
    if isinstance(P, Measure):
        levels = _level_cuts(P)
    else:  # a chain walk sums f's terms, or the table index's digits
        g = _index_digits(P.alphabet_size, n) if terms is None else terms[0]
    for start in range(0, cfg.sample_count, _BATCH):
        count = min(_BATCH, cfg.sample_count - start)
        # Sample k reads u[k+2], ..., u[k+n+1].
        draws = _draws(cfg.seed, start + 2, count + n - 1)
        if isinstance(P, Measure):
            values = _dense_indices(levels, P.alphabet_size, draws, count)
        else:
            values = _chain_values(P, g, draws, count)
        if table is not None:  # values are table indices
            nums = table.nums
            values = [nums[x] for x in values]
        deviations = [abs(v * q - weighted) for v in values]
        for idx, (t_den, limit) in enumerate(limits):
            counts[idx] += sum([d * t_den > limit for d in deviations])

    d2 = float_from_rat(profile.d_squared)
    corollary_bounds = concentration_bound(f, P, w, cfg.thresholds).bounds
    rows = []
    for t, count, corollary in zip(cfg.thresholds, counts, corollary_bounds):
        azuma = azuma_bound(t, d2) if d2 > 0 else 0.0
        rows.append(
            ThresholdReport(
                threshold=t,
                exceed_count=count,
                frequency=count / cfg.sample_count,
                azuma=azuma,
                corollary=corollary,
            )
        )
    return TailReport(
        sample_count=cfg.sample_count,
        seed=cfg.seed,
        mean=mean,
        d_squared=profile.d_squared,
        rows=tuple(rows),
    )
