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
same measures from the same draws, and :class:`SampleStream`, one sample's
draws read one at a time by the word-at-a-time splitmix64 :func:`mix64`,
which :func:`hammix.montecarlo.empirical_tail`'s list passes must
reproduce.  Two integer kernels that the library replaced by whole-list
passes stay here as oracles for them: the dense eta_bar row with one
integer pass per past (:func:`eta_bar_row_per_past`) and the sampler with
one bisection per symbol (:func:`sample_index_by_bisection`).  Tests that
state a mixing matrix entry by entry build it with
:func:`delta_from_entries`, from its n x n rationals.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate, islice, product
from numbers import Rational
from operator import sub
from typing import Iterable, Iterator, Sequence

from hammix.mixing import DeltaMatrix, MarkovSpec, Measure
from hammix.montecarlo import _GAMMA, _MASK64
from hammix.rational import RationalLike, over_common_denominator, rat
from hammix.words import WeightVector, Word, project_numerators, word_index

_TWO64 = 1 << 64


def words(m: int, n: int) -> Iterator[Word]:
    """All words of S^n in lexicographic (index) order."""
    return product(range(m), repeat=n)


def mix64(z: int) -> int:
    """splitmix64 output function, one word at a time."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class SampleStream:
    """Deterministic 64-bit stream for one sample index.

    Sample k's stream starts at seed + (k+1) * GAMMA mod 2^64 and yields
    mix64 of each advanced state: u[k+2], u[k+3], ... of the sequence
    u[s] = mix64(seed + s * GAMMA mod 2^64).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, index: int) -> None:
        self._state = (seed + (index + 1) * _GAMMA) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)


def stream_draws(seed: int, index: int, n: int) -> list[int]:
    """The first n draws of SampleStream(seed, index): one n-symbol word's draws."""
    stream = SampleStream(seed, index)
    return [stream.next_u64() for _ in range(n)]


class ZeroPrefixProbability(ValueError):
    """Conditioning event has probability zero."""


def point_mass(m: int, n: int, word: Word) -> Measure:
    """The measure that puts all its mass on one word."""
    nums = [0] * m**n
    nums[word_index(word, m, n)] = 1
    return Measure.from_numerators(m, n, nums)


def null_block_measure(rng: random.Random, m: int, n: int) -> Measure:
    """A seeded dense measure with null cells and a null prefix block of lengths 1 and 2 (n >= 2)."""
    nums = [rng.randint(0, 9) for _ in range(m**n)]
    for block in (m ** (n - 1), m ** (n - 2)):
        lo = rng.randrange(m**n // block) * block
        nums[lo : lo + block] = [0] * block
    if not any(nums):
        nums[-1] = 1
    return Measure.from_numerators(m, n, nums, sum(nums))


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


def delta_from_entries(entries: Sequence[Sequence[RationalLike]]) -> DeltaMatrix:
    """The DeltaMatrix of an n x n rational matrix, which must be 0 below the diagonal.

    Its upper triangle is put over the least common denominator of its
    entries; the constructor checks the diagonal and the range [0, 1].
    """
    n = len(entries)
    triangle = []
    for i, row in enumerate(entries):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
        if any(rat(v) != 0 for v in row[:i]):
            raise ValueError(f"row {i} is not 0 below the diagonal")
        triangle.append([rat(v) for v in row[i:]])
    nums, den = over_common_denominator([v for row in triangle for v in row])
    cells = iter(nums)
    return DeltaMatrix(tuple(tuple(islice(cells, len(row))) for row in triangle), den)


def delta_matrix(P: Measure) -> DeltaMatrix:
    """The mixing matrix assembled from one eta_bar call per entry."""
    n = P.arity
    rows = []
    for i in range(1, n + 1):
        row = [rat(0)] * (i - 1) + [rat(1)]
        row += [eta_bar(P, i, j) for j in range(i + 1, n + 1)]
        rows.append(row)
    return delta_from_entries(rows)


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


def eta_bar_row_per_past(P: Measure, i: int) -> list[Rational]:
    """eta_bar(i, j) for j = i+1..n by one integer pass per past y.

    Under each past, one difference vector c = a M_z' - b M_z per
    admissible pair of blocks a, b of masses M_z, M_z', its absolute sum
    over 2 M_z M_z' the TV distance, its m chunks summed for the next j;
    the largest distance per j is kept as an integer pair.
    """
    m, n = P.alphabet_size, P.arity
    if i == n:
        return []
    cells, cum = P.nums, P._cum
    block = m ** (n - i)
    best = [(0, 1)] * (n - i)
    for lo in range(0, len(cells), m * block):
        bounds = cum[lo : lo + m * block + 1 : block]
        admissible = [
            (mass, cells[z_lo : z_lo + block])
            for mass, z_lo in zip(map(sub, bounds[1:], bounds), range(lo, lo + m * block, block))
            if mass
        ]
        for a, (mass_a, law_a) in enumerate(admissible):
            for mass_b, law_b in admissible[a + 1 :]:
                den = 2 * mass_a * mass_b
                diff = [p * mass_b - q * mass_a for p, q in zip(law_a, law_b)]
                for k in range(n - i):
                    if k:
                        diff = project_numerators(diff, m)
                    num = sum(map(abs, diff))
                    best_num, best_den = best[k]
                    if num * best_den > best_num * den:
                        best[k] = (num, den)
    return [rat(num, den) for num, den in best]


def sample_index_by_bisection(P: Measure | MarkovSpec, draws: Iterable[int]) -> int:
    """Table index of the word drawn from n 64-bit draws by one bisection per symbol.

    Dense: the cell that ``bisect_right`` finds for base + floor(r M / 2^64)
    in the current block's prefix sums (base the prefix sum at the block's
    start, M its mass), and the sub-block holding it.  Chain: per symbol,
    one bisection of the draw in the ceilings ceil(c_b 2^64) of the
    current state's rational law, c_b its cumulative sums in Fractions
    (``initial`` for the first symbol, then row ``state`` of the next
    transition matrix), the index summed digit by digit.  The library's
    thresholds are not read.
    """
    m, n = P.alphabet_size, P.arity
    if isinstance(P, MarkovSpec):
        index = state = 0
        laws = ((P.initial,), *P.transitions)
        for i, (rows, r) in enumerate(zip(laws, draws)):
            state = bisect_right([math.ceil(c * _TWO64) for c in accumulate(rows[state])], r)
            index += state * m ** (n - 1 - i)
        return index
    cum = P._cum
    size = len(cum) - 1
    lo = 0
    for r in draws:
        hi = lo + size
        base = cum[lo]
        cell = bisect_right(cum, base + (r * (cum[hi] - base) >> 64), lo, hi) - 1
        size //= m
        lo = cell - cell % size
    return lo
