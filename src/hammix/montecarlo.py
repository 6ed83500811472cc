"""Seeded Monte Carlo checks of the proved tail bounds.

Sampling is exact: a word is drawn symbol by symbol from its conditional
distribution given the sampled prefix, and every comparison against the
uniform variate is exact (the variate is the rational r / 2^64 of a 64-bit
draw, compared in integers against the measure's integer prefix sums over
their common denominator), so a run is a pure function of
(measure, seed, sample count) -- bit-identical across platforms and
schedules.  A dense measure is scanned symbol by symbol, O(n m) a word;
a chain, passed as its :class:`~hammix.mixing.MarkovSpec`, is sampled
from its kernels by one bisection per symbol, O(n log m) a word, with the
same draws as a scan of its expanded table.

Randomness comes from splitmix64 streams: sample k uses the stream whose
initial state is seed + (k+1) * GAMMA mod 2^64, advanced by the standard
splitmix64 output function.  Streams depend only on (seed, k), so samples
may be generated in any order or in parallel without changing the result.

:func:`empirical_tail` estimates P(|f - E f| > t) by simulation and
reports the Azuma and mixing-matrix bounds next to each estimated
frequency.  E f is exact (removing one noise source): it is the level-0
entry of :func:`~hammix.martingale.conditional_sums` (whose levels also
give d_squared), and each sample's test |f(x) - E f| > t runs on f's
integer numerators against the exact value of the float t, scaled to integers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from numbers import Rational

from .martingale import azuma_bound, concentration_bound, conditional_sums, profile_from_sums
from .mixing import MarkovSpec, Measure
from .rational import float_from_rat, rat, rat_from_float
from .words import TableFunction, WeightVector, Word, word_index

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
        thresholds = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", thresholds)
        if not thresholds:
            raise ValueError("thresholds must be nonempty")
        if any(t <= 0 for t in thresholds):
            raise ValueError(f"thresholds must be positive, got {thresholds}")


def sample_word(P: Measure | MarkovSpec, stream: SampleStream) -> Word:
    """Draw one word with probability exactly P(x).

    Symbol i is drawn from P(x_i | x_1..i-1) by comparing u = r / 2^64
    against the cumulative sub-block masses of the current prefix block,
    divided by the block's mass.  With M the block's mass and A a running
    sub-block sum, both integer numerators over the measure's common
    denominator, u * M < A is r * M < A * 2^64: all comparisons are exact
    integer ones, and zero-probability branches can never be selected.

    On a chain, A / M is the cumulative row c / d of the current state's
    kernel row, so the same test is r * d < c * 2^64: one bisection over
    the row's cut points (:attr:`~hammix.mixing.MarkovSpec.sampler_cuts`)
    per symbol, O(n log m) a word, with the same draws as the O(n m) scan
    of the chain's table.
    """
    if isinstance(P, MarkovSpec):
        symbols = []
        state = 0
        for rows in P.sampler_cuts:
            den, cuts = rows[state]
            # r * d < d * 2^64, the last cut, so a symbol is always found;
            # a null symbol's cut equals the one before it and is never first.
            state = bisect_right(cuts, stream.next_u64() * den)
            symbols.append(state)
        return tuple(symbols)
    m = P.alphabet_size
    cum = P._cum
    block = m**P.arity
    lo = 0
    symbols = []
    for _ in range(P.arity):
        block //= m
        base = cum[lo]
        # target = r * M with r < 2^64; strictly below the block mass times
        # 2^64, so the scan always terminates at some positive sub-block.
        target = stream.next_u64() * (cum[lo + block * m] - base)
        for a in range(m):
            if target < (cum[lo + (a + 1) * block] - base) << 64:
                symbols.append(a)
                lo += a * block
                break
        else:  # pragma: no cover - unreachable: target < mass * 2^64 == final acc
            raise AssertionError("cumulative scan failed to select a symbol")
    return tuple(symbols)


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
    f: TableFunction, P: Measure | MarkovSpec, w: WeightVector, cfg: SimulationConfig
) -> TailReport:
    """Estimate P(|f - E f| > t) for each configured t.

    E f and the per-sample comparisons are exact (thresholds enter as the
    exact rational values of their floats); only the reported frequency and
    bounds are floating point.  Identical (f, P, w, cfg) give bit-identical
    reports.
    """
    levels = conditional_sums(f, P)
    ((weighted,), (mass,)) = levels[0]
    # E f = weighted / (f.den * mass); |f(x) - E f| > t, with t = t_num / t_den
    # the exact value of the float, is |f_num(x) * mass - weighted| * t_den >
    # t_num * f.den * mass.
    scale = f.den * mass
    exact_thresholds = [rat_from_float(t) for t in cfg.thresholds]
    limits = [(t.denominator, t.numerator * scale) for t in exact_thresholds]
    profile = profile_from_sums(f, levels)
    counts = [0] * len(limits)
    m = f.alphabet_size
    for k in range(cfg.sample_count):
        word = sample_word(P, SampleStream(cfg.seed, k))
        deviation = abs(f.nums[word_index(word, m)] * mass - weighted)
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
        mean=rat(weighted, scale),
        d_squared=profile.d_squared,
        rows=tuple(rows),
    )
