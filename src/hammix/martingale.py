"""Martingale differences of functions of dependent coordinates.

Revealing the coordinates of X ~ P one at a time turns any f : S^n -> R
into a Doob martingale; the increment after the i-th reveal is

    v_i(f; y_1..i) = E[f | X_1..i = y_1..i] - E[f | X_1..i-1 = y_1..i-1].

v_bar_i, entry i of :func:`martingale_profile`'s ``v_bars``, is the largest
|v_i| over positive-probability prefixes (conditioning on a null prefix is
undefined, mirroring the exclusion rule in :mod:`hammix.mixing`), and the
profile's d_squared = sum_i v_bar_i^2 feeds Azuma's tail bound
P(|f - Ef| > t) <= 2 exp(-t^2 / (2 d_squared)).

The profile has two paths, chosen by :func:`kernel_terms`:

* Kernels: for an additive builtin f = sum_j g_j(x_j) (``sum_of_symbols``,
  ``hamming_to``) on a chain (a :class:`~hammix.mixing.MarkovSpec`),
  :func:`_chain_profile` reads only g and the kernels, in O(n m^2)
  integer operations: a backward recursion gives E[sum_{j>i} g_j | X_i],
  and E f is its first level.  No table is built, so n is not capped by
  m^n.
* Tables: otherwise (a table function, ``indicator``, or a dense
  measure) every conditional mean comes from :func:`conditional_sums`,
  which reads the integer numerators of f's table and P's (one table
  format, see :mod:`hammix.words`), expanding a chain to its table:
  E[f | y] is an integer sum of f_num * p_num over y's block, divided by
  f.den times y's integer mass.

Both paths compare differences of means as integers, and only the n
maxima v_bar_i become rationals; they give the same rationals.

:func:`verify_sumvi` checks, entirely in exact arithmetic, that the
martingale spread is controlled by smoothness times mixing:

    v_bar_i(f)        <=  ||f||_Lip,w * (Delta_n w)_i        per coordinate,
    sum_i v_bar_i^2   <=  ||f||_Lip,w^2 * ||Delta_n w||_2^2  summed,

with Delta_n the mixing matrix of P.  :func:`concentration_bound` then
evaluates the resulting closed-form tail bound
2 exp(-t^2 / (2 ||f||^2 ||w||^2 ||Delta_n||_2^2)) -- Azuma's bound with that
d_squared -- for a list of thresholds; it reads a chain's kernels, not its
table, and a builtin's closed-form oscillations, not its table.  Floats
enter there, each rounded to nearest: the operator norm, the float of the
exact ||f||^2 ||w||^2 and its product with the norm's square, the exponent
and exp.  :func:`hammix.montecarlo.empirical_tail` also rounds the exact
d_squared to a float for Azuma's bound.  So every reported tail bound is
an estimate, not a certified upper bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Rational
from operator import mul, sub
from typing import Sequence

from .lipschitz_lp import lipschitz_constant
from .mixing import MarkovSpec, Measure, delta_matrix, expand_markov, operator_norm_2
from .rational import float_from_rat, rat
from .words import Builtin, TableFunction, WeightVector

Function = TableFunction | Builtin


def _check_compatible(f: Function, P: Measure | MarkovSpec) -> None:
    if f.alphabet_size != P.alphabet_size or f.arity != P.arity:
        raise ValueError(
            f"function on {f.alphabet_size}^{f.arity} does not match "
            f"measure on {P.alphabet_size}^{P.arity}"
        )


def conditional_sums(
    f: TableFunction, P: Measure | MarkovSpec
) -> list[tuple[list[int], list[int]]]:
    """Entry i: (S, M) per prefix y of length i, E[f | y] = S[y] / (f.den M[y]).

    M[y] is y's integer mass over P's denominator (0 if y is null); each
    level is read off the prefix sums of f_num * p_num and p_num on its own.
    A chain is expanded to its table first.
    """
    _check_compatible(f, P)
    if isinstance(P, MarkovSpec):
        P = expand_markov(P)
    fp_cum = (0, *accumulate(map(mul, f.nums, P.nums)))
    levels = []
    block = len(f.nums)
    for _ in range(f.arity + 1):
        levels.append(tuple(list(map(sub, c[block::block], c[:-1:block])) for c in (fp_cum, P._cum)))
        block //= f.alphabet_size
    return levels


def _profile_level(f: TableFunction, parents: tuple, children: tuple) -> Rational:
    """max over y of |v_i(y)| = |S_y M_p - S_p M_y| / (f.den M_y M_p), p = parent(y)."""
    m = f.alphabet_size
    parent_sums, parent_masses = parents
    best_num, best_den = 0, 1
    for y, (s, mass) in enumerate(zip(*children)):
        if mass:
            p_sum, p_mass = parent_sums[y // m], parent_masses[y // m]
            num, den = abs(s * p_mass - p_sum * mass), mass * p_mass
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return rat(best_num, f.den * best_den)


@dataclass(frozen=True)
class MartingaleProfile:
    """Per-coordinate worst-case martingale differences; d_squared, their square sum, is derived."""

    v_bars: tuple[Rational, ...]
    d_squared: Rational = field(init=False)

    def __post_init__(self) -> None:
        if any(v < 0 for v in self.v_bars):
            raise ValueError("v_bars must be nonnegative")
        object.__setattr__(self, "d_squared", sum((v * v for v in self.v_bars), rat(0)))


def martingale_profile(f: Function, P: Measure | MarkovSpec) -> MartingaleProfile:
    """All v_bars plus d_squared, from the kernels or from one set of conditional sums."""
    return mean_and_profile(f, P)[1]


def kernel_terms(f: Function, P: Measure | MarkovSpec) -> tuple[list[tuple[int, ...]], int] | None:
    """f's additive terms (g, den) when the martingale stages read P's kernels alone.

    That is when f is an additive :class:`~hammix.words.Builtin` and P a
    chain; otherwise (None) they read f's table and P's.
    """
    return f.terms() if isinstance(f, Builtin) and isinstance(P, MarkovSpec) else None


def mean_and_profile(f: Function, P: Measure | MarkovSpec) -> tuple[Rational, MartingaleProfile]:
    """E f and the martingale profile of f under P.

    Read from the kernels (:func:`_chain_profile`) where :func:`kernel_terms`
    allows it, else from the level-0 entry and the levels of
    :func:`conditional_sums` on f's table.
    """
    _check_compatible(f, P)
    terms = kernel_terms(f, P)
    if terms is not None:
        return _chain_profile(*terms, P)
    f = f.table()
    levels = conditional_sums(f, P)
    ((weighted,), (mass,)) = levels[0]
    bars = tuple(_profile_level(f, parent, child) for parent, child in zip(levels, levels[1:]))
    return rat(weighted, f.den * mass), MartingaleProfile(bars)


def _chain_profile(
    g: list[tuple[int, ...]], den: int, chain: MarkovSpec
) -> tuple[Rational, MartingaleProfile]:
    """E f and the profile of f(x) = sum_i g[i][x_i] / den under a chain, in O(n m^2).

    Given X_1..i = y, the rest of the chain depends on y_i alone, so
    E[f | y] = sum_{j <= i} g_j(y_j) / den + h_i(y_i) with
    h_i(a) = E[sum_{j > i} g_j(X_j) / den | X_i = a], and

        v_i(y) = g_i(y_i) / den + h_i(y_i) - h_i-1(y_i-1),

    h_0 = E f for the empty prefix.  A backward recursion gives each h_i-1
    from row a of the kernel into position i.  y has positive mass when
    y_i-1 is in ``chain.reachable[i-1]`` and the kernel moves it to y_i
    with positive probability, so v_bar_i is the largest |v_i| over those
    state pairs (the initial law's charged states for i = 1).  Level i
    keeps g_i + h_i as integers over den times the product of the later
    kernels' denominators, so each maximum is an integer one.
    """
    laws, dens = chain.laws, chain.dens
    h = [0] * chain.alphabet_size
    scale = 1  # h and this level's g + h are over den * scale
    bars = []
    levels = zip(reversed(g), reversed(laws), reversed(dens), reversed(chain.reachable))
    for terms, rows, d, states in levels:
        values = [x * scale + y for x, y in zip(terms, h)]
        h = [sum(map(mul, row, values)) for row in rows]  # over den * scale * d
        best = max(abs(values[b] * d - h[a]) for a in states for b, p in enumerate(rows[a]) if p)
        scale *= d
        bars.append(rat(best, den * scale))
    bars.reverse()
    (mean,) = h
    return rat(mean, den * scale), MartingaleProfile(tuple(bars))


def azuma_bound(t: float, d_squared: float) -> float:
    """Sub-Gaussian tail bound 2 exp(-t^2 / (2 d_squared)).

    Exceeds 1 for small t; callers may clamp at 1 when reporting since any
    probability bound above 1 is vacuous.  An infinite d_squared (an exact
    one past the float range) gives the vacuous 2.0 for every t.
    """
    if t <= 0:
        raise ValueError(f"threshold t must be positive, got {t}")
    if d_squared <= 0:
        raise ValueError(f"d_squared must be positive, got {d_squared}")
    if d_squared == math.inf:
        return 2.0
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


def verify_sumvi(f: Function, P: Measure | MarkovSpec, w: WeightVector) -> SumViReport:
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
    f: Function,
    P: Measure | MarkovSpec,
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
    if any(not 0 < t <= sys.float_info.max for t in thresholds):
        raise ValueError(f"thresholds must be finite and positive, got {tuple(thresholds)}")
    _check_compatible(f, P)
    lip = lipschitz_constant(f, w)
    w_norm_sq = sum((x * x for x in w), rat(0))
    op = operator_norm_2(delta_matrix(P))
    if lip == 0:
        bounds = tuple(0.0 for _ in thresholds)
    else:
        d_squared = float_from_rat(lip * lip * w_norm_sq) * op * op
        bounds = tuple(azuma_bound(t, d_squared) for t in thresholds)
    return ConcentrationReport(lip, w_norm_sq, op, bounds)
