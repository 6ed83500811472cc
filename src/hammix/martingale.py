"""Martingale differences of functions of dependent coordinates.

Revealing the coordinates of X ~ P one at a time turns any f : S^n -> R
into a Doob martingale; the increment after the i-th reveal is

    v_i(f; y_1..i) = E[f | X_1..i = y_1..i] - E[f | X_1..i-1 = y_1..i-1].

``v_bar(f, P, i)`` is the largest |v_i| over positive-probability prefixes
(conditioning on a null prefix is undefined, mirroring the exclusion rule
in :mod:`hammix.mixing`), and d_squared = sum_i v_bar_i^2 feeds Azuma's
tail bound  P(|f - Ef| > t) <= 2 exp(-t^2 / (2 d_squared)).

:func:`verify_sumvi` checks, entirely in exact arithmetic, that the
martingale spread is controlled by smoothness times mixing:

    v_bar_i(f)        <=  ||f||_Lip,w * (Delta_n w)_i        per coordinate,
    sum_i v_bar_i^2   <=  ||f||_Lip,w^2 * ||Delta_n w||_2^2  summed,

with Delta_n the mixing matrix of P.  :func:`concentration_bound` then
evaluates the resulting closed-form tail bound
2 exp(-t^2 / (2 ||f||^2 ||w||^2 ||Delta_n||_2^2)) -- Azuma's bound with that
d_squared -- for a list of thresholds, the only place floats enter (inside
exp and the operator norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational
from typing import Sequence

from .lipschitz_lp import lipschitz_constant
from .mixing import Measure, ZeroPrefixProbability, delta_matrix, operator_norm_2
from .rational import rat
from .words import TableFunction, WeightVector


def _check_compatible(f: TableFunction, P: Measure) -> None:
    if f.alphabet_size != P.alphabet_size or f.arity != P.arity:
        raise ValueError(
            f"function on {f.alphabet_size}^{f.arity} does not match "
            f"measure on {P.alphabet_size}^{P.arity}"
        )


def conditional_expectation(f: TableFunction, P: Measure, prefix: Sequence[int]) -> Rational:
    """E[f(X) | X_1..i = prefix], exact; the empty prefix gives E f."""
    _check_compatible(f, P)
    lo, hi = P.prefix_block(prefix)
    mass = P.block_mass(lo, hi)
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


def v_bar(f: TableFunction, P: Measure, i: int) -> Rational:
    """max |v_i| over prefixes y in S^i with positive probability."""
    _check_compatible(f, P)
    if not 1 <= i <= f.arity:
        raise ValueError(f"coordinate index must be in [1, {f.arity}], got {i}")
    return _profile_level(f, P, _weighted_cum(f, P), i)


def _weighted_cum(f: TableFunction, P: Measure) -> tuple[Rational, ...]:
    total = rat(0)
    cum = [total]
    for fv, pv in zip(f.values, P.probabilities):
        total += fv * pv
        cum.append(total)
    return tuple(cum)


def _profile_level(
    f: TableFunction, P: Measure, fp_cum: Sequence[Rational], i: int
) -> Rational:
    """One v_bar level via cumulative sums (O(m^i) block lookups)."""
    m = f.alphabet_size
    block = m ** (f.arity - i)
    parent_block = block * m
    best = rat(0)
    for p in range(m**i):
        lo = p * block
        mass = P.block_mass(lo, lo + block)
        if mass == 0:
            continue
        plo = (p // m) * parent_block
        parent_mass = P.block_mass(plo, plo + parent_block)
        child = (fp_cum[lo + block] - fp_cum[lo]) / mass
        parent = (fp_cum[plo + parent_block] - fp_cum[plo]) / parent_mass
        diff = abs(child - parent)
        if diff > best:
            best = diff
    return best


@dataclass(frozen=True)
class MartingaleProfile:
    """Per-coordinate worst-case martingale differences and their square sum."""

    v_bars: tuple[Rational, ...]
    d_squared: Rational

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.v_bars):
            raise ValueError("v_bar values must be nonnegative")
        if self.d_squared != sum((v * v for v in self.v_bars), rat(0)):
            raise ValueError("d_squared must equal the sum of squared v_bars")


def martingale_profile(f: TableFunction, P: Measure) -> MartingaleProfile:
    """All v_bar levels plus d_squared in one pass of cumulative sums."""
    _check_compatible(f, P)
    fp_cum = _weighted_cum(f, P)
    bars = tuple(_profile_level(f, P, fp_cum, i) for i in range(1, f.arity + 1))
    return MartingaleProfile(bars, sum((v * v for v in bars), rat(0)))


def azuma_bound(t: float, d_squared: float) -> float:
    """Sub-Gaussian tail bound 2 exp(-t^2 / (2 d_squared)).

    Exceeds 1 for small t; callers may clamp at 1 when reporting since any
    probability bound above 1 is vacuous.
    """
    if t <= 0:
        raise ValueError(f"threshold t must be positive, got {t}")
    if d_squared <= 0:
        raise ValueError(f"d_squared must be positive, got {d_squared}")
    return 2.0 * math.exp(-(t * t) / (2.0 * d_squared))


@dataclass(frozen=True)
class SumViReport:
    """Exact verdict on the mixing bound for martingale differences.

    lhs = d_squared, rhs = lipschitz^2 * ||Delta w||_2^2; per_i_holds[i]
    records the per-coordinate comparison v_bar_i <= lipschitz * (Delta w)_i.
    """

    v_bars: tuple[Rational, ...]
    lhs: Rational
    rhs: Rational
    lipschitz: Rational
    delta_w: tuple[Rational, ...]
    per_i_holds: tuple[bool, ...]
    holds: bool


def verify_sumvi(f: TableFunction, P: Measure, w: WeightVector) -> SumViReport:
    """Check sum_i v_bar_i^2 <= ||f||^2_Lip,w ||Delta_n w||_2^2, exactly."""
    _check_compatible(f, P)
    if len(w) != f.arity:
        raise ValueError(f"weight length {len(w)} != arity {f.arity}")
    profile = martingale_profile(f, P)
    lip = lipschitz_constant(f, w)
    delta = delta_matrix(P)
    dw = delta.apply(w)
    rhs = lip * lip * sum((x * x for x in dw), rat(0))
    per_i = tuple(profile.v_bars[i] <= lip * dw[i] for i in range(f.arity))
    return SumViReport(
        v_bars=profile.v_bars,
        lhs=profile.d_squared,
        rhs=rhs,
        lipschitz=lip,
        delta_w=dw,
        per_i_holds=per_i,
        holds=profile.d_squared <= rhs,
    )


@dataclass(frozen=True)
class ConcentrationReport:
    """Tail bounds of the concentration corollary, one per threshold.

    bounds[i] = 2 exp(-t_i^2 / (2 lipschitz^2 w_norm_sq
    delta_operator_norm^2)); lipschitz and w_norm_sq are exact, the
    operator norm and the bounds are floats.
    """

    lipschitz: Rational
    w_norm_sq: Rational
    delta_operator_norm: float
    bounds: tuple[float, ...]


def concentration_bound(
    f: TableFunction,
    P: Measure,
    w: WeightVector,
    thresholds: Sequence[float],
) -> ConcentrationReport:
    """Tail bound 2 exp(-t^2 / (2 ||f||^2_Lip,w ||w||_2^2 ||Delta_n||_2^2)) per t.

    The Lipschitz constant, ||w||_2^2 and ||Delta_n||_2 are computed once
    for all thresholds; each bound is Azuma's bound with that product as
    d_squared.  Constant f (Lipschitz constant 0) gets 0.0 for every t: its
    deviation probability is 0 and the formula's limit as the denominator
    vanishes is the correct bound.
    """
    if any(t <= 0 for t in thresholds):
        raise ValueError(f"thresholds must be positive, got {tuple(thresholds)}")
    _check_compatible(f, P)
    lip = lipschitz_constant(f, w)
    w_norm_sq = sum((x * x for x in w), rat(0))
    op = operator_norm_2(delta_matrix(P))
    if lip == 0:
        bounds = tuple(0.0 for _ in thresholds)
    else:
        d_squared = float(lip * lip * w_norm_sq) * op * op
        bounds = tuple(azuma_bound(t, d_squared) for t in thresholds)
    return ConcentrationReport(lip, w_norm_sq, op, bounds)
