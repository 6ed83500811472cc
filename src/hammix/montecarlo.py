"""Seeded Monte Carlo checks of the proved tail bounds.

Sampling is exact: a word is drawn symbol by symbol from its conditional
distribution given the sampled prefix, and every comparison against the
uniform variate is exact (the variate is the rational r / 2^64 of a 64-bit
draw, compared in integers against the measure's integer prefix sums over
their common denominator), so a run is a pure function of
(measure, seed, sample count) -- bit-identical across platforms and
schedules.  One kernel draws every word, straight to its table index,
by one bisection per symbol: of the prefix sums of a dense measure's
current block, or, for a chain passed as its
:class:`~hammix.mixing.MarkovSpec`, of the current state's kernel row
(O(n log m) a word, with the same draws as its expanded table).

Randomness comes from splitmix64 streams: sample k uses the stream whose
initial state is seed + (k+1) * GAMMA mod 2^64, advanced by the standard
splitmix64 output function.  Streams depend only on (seed, k), so samples
may be generated in any order or in parallel without changing the result.
They are not independent, though: stream k+1 is stream k advanced by one
draw, so consecutive samples of an n-symbol word share n - 1 uniforms.
:func:`empirical_tail` uses that overlap: it slides one window of n draws
along the single sequence, one mix64 per sample rather than n.

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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from numbers import Rational
from typing import Iterable, Iterator

from .martingale import Function, azuma_bound, concentration_bound, kernel_terms, mean_and_profile
from .mixing import MarkovSpec, Measure
from .rational import float_from_rat, rat_from_float
from .words import WeightVector, Word, word_unindex

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 output function."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SampleStream:
    """Deterministic 64-bit stream for one sample index."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, index: int) -> None:
        self._state = (seed + (index + 1) * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)


def _sample_windows(seed: int, n: int) -> Iterator[deque[int]]:
    """The n draws of SampleStream(seed, k), for k = 0, 1, 2, ...

    Sample k's stream yields u[k+2], u[k+3], ... of the one sequence
    u[s] = mix64(seed + s * GAMMA mod 2^64), so each sample's draws are the
    previous sample's shifted by one: one window slides along the sequence,
    one mix64 per sample.  The same deque is yielded each time, advanced.
    """
    state = (seed + _GAMMA) & _MASK64
    window: deque[int] = deque(maxlen=n)
    for _ in range(n - 1):
        state = (state + _GAMMA) & _MASK64
        window.append(_mix64(state))
    while True:
        state = (state + _GAMMA) & _MASK64
        window.append(_mix64(state))
        yield window


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


def _sample_index(P: Measure | MarkovSpec, draws: Iterable[int]) -> int:
    """Table index of the word drawn from n 64-bit draws, one per symbol.

    Symbol i is drawn from P(x_i | x_1..i-1) by comparing u = r / 2^64
    against the cumulative sub-block masses of the current prefix block,
    divided by the block's mass: the symbol is the first sub-block whose
    cumulative mass A exceeds u M.  With M and A integer numerators over
    the measure's common denominator, u M < A is r M < A 2^64, that is,
    floor(r M / 2^64) < A: all comparisons are exact integer ones, and
    zero-probability branches can never be selected.  So the symbol is the
    sub-block holding the cell that ``bisect_right`` finds for
    base + floor(r M / 2^64) in the block's prefix sums (base the prefix
    sum at the block's start): one bisection per symbol.

    On a chain, A / M is the cumulative row c / d of the current state's
    kernel row, so the same test is r d < c 2^64, that is,
    r < ceil(c 2^64 / d): one bisection over the row's thresholds
    (:attr:`~hammix.mixing.MarkovSpec.sampler_cuts`) per symbol, which
    selects the word the chain's table would.
    """
    m = P.alphabet_size
    if isinstance(P, MarkovSpec):
        index = state = 0
        for rows, r in zip(P.sampler_cuts, draws):
            # r < 2^64, the last threshold, so a symbol is always found; a
            # null symbol's threshold equals the one before it and is never first.
            state = bisect_right(rows[state], r)
            index = index * m + state
        return index
    cum = P._cum
    size = len(cum) - 1
    lo = 0
    for r in draws:
        hi = lo + size
        base = cum[lo]
        # base <= target < cum[hi], so the cell lies in [lo, hi) and has
        # positive mass; its sub-block starts at the cell's index rounded
        # down to a multiple of the sub-block size.
        cell = bisect_right(cum, base + (r * (cum[hi] - base) >> 64), lo, hi) - 1
        size //= m
        lo = cell - cell % size
    return lo


def _chain_value(chain: MarkovSpec, terms: list[tuple[int, ...]], draws: Iterable[int]) -> int:
    """sum_i terms[i][x_i] over the chain word x that :func:`_sample_index` draws.

    The same bisections select the same states; each adds its term instead
    of a digit of the table index.
    """
    value = state = 0
    for rows, g, r in zip(chain.sampler_cuts, terms, draws):
        state = bisect_right(rows[state], r)
        value += g[state]
    return value


def sample_word(P: Measure | MarkovSpec, stream: SampleStream) -> Word:
    """Draw one word with probability exactly P(x), from the stream's next n draws.

    The word is the one :func:`_sample_index` selects (see there for the
    exact comparisons); the stream advances by exactly n draws.
    """
    m, n = P.alphabet_size, P.arity
    return word_unindex(_sample_index(P, [stream.next_u64() for _ in range(n)]), m, n)


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
    windows = _sample_windows(cfg.seed, P.arity)
    terms = kernel_terms(f, P)
    if terms is None:
        f = f.table()
        den, nums = f.den, f.nums
        values = (nums[_sample_index(P, window)] for window in windows)
    else:
        g, den = terms
        values = (_chain_value(P, g, window) for window in windows)
    mean, profile = mean_and_profile(f, P)
    # A sample's value is value / den; |value / den - E f| > t, with
    # E f = p / q in lowest terms and t = t_num / t_den the exact value of
    # the float, is |value * q - p * den| * t_den > t_num * den * q.
    q, weighted = mean.denominator, mean.numerator * den
    exact_thresholds = [rat_from_float(t) for t in cfg.thresholds]
    limits = [(t.denominator, t.numerator * den * q) for t in exact_thresholds]
    counts = [0] * len(limits)
    for value in islice(values, cfg.sample_count):
        deviation = abs(value * q - weighted)
        for idx, (t_den, limit) in enumerate(limits):
            if deviation * t_den > limit:
                counts[idx] += 1

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
