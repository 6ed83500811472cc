"""Probability measures on S^n and their mixing structure.

A :class:`Measure` is a :class:`~hammix.words.TableFunction` whose entries
are nonnegative and sum to 1, so it shares the one exact table format: the
table's integer numerators over its denominator.  Because the first symbol
is most significant, the words sharing a prefix form one contiguous index
block, so prefix masses and conditional laws are block sums over the
measure's prefix sums of those numerators.  A Markov chain has one type,
:class:`MarkovSpec`, which holds its laws as integer kernels: both of its
constructors turn each law into integer columns and share one validation.
A chain is passed to :func:`delta_matrix` and :func:`eta_bar` as its
spec, which read the kernels alone; :func:`expand_markov` builds its
dense measure, in integers too (each level multiplies numerators by a
transition matrix's numerators), only for a layer that reads a table.
This module holds measures and their mixing coefficients only; how a
sampler draws from them (its 64-bit thresholds) is
:mod:`hammix.montecarlo`'s.

The eta coefficient for positions i < j measures how much the conditional
law of the tail X_j..n moves when the i-th symbol is swapped under a common
past:

    eta(i, j, y, z, z') = ||L(X_j..n | X_1..i = y z) - L(X_j..n | X_1..i = y z')||_tv

with total variation ||tau||_tv = (1/2) sum |tau(x)|.  eta_bar(i, j) is the
max over admissible (y, z, z'); the upper-triangular matrix with unit
diagonal and eta_bar entries (:class:`DeltaMatrix`) controls martingale
differences in :mod:`hammix.martingale`.

Conditioning on a zero-probability prefix is undefined; eta_bar therefore
maximizes only over triples whose two conditioning prefixes both have
positive mass (and is 0 when no admissible triple exists).  Product
measures have eta_bar = 0 everywhere and an identity DeltaMatrix.

eta_bar is computed fraction-free, a whole row i (every j > i) at a time,
on one of two paths, chosen by the argument's type:

* Dense (a :class:`Measure`): in the measure's integer numerators, the
  block of each admissible prefix y z holds the unnormalized tail law for
  j = i+1.  Each admissible pair z, z' under a past y gets an integer
  difference vector, its two blocks cross-scaled by each other's mass;
  its absolute sum is the TV numerator for j = i+1, and summing its m
  equal chunks (marginalizing is linear) gives the vector for the next j.
  The numerators are compared by cross-products, and the n - i maxima
  are put over their least common denominator.  A row costs O(m^(n+1))
  integer operations (m^2 / 2 pairs under each of m^(i-1) pasts, m^(n-i)
  entries each), so delta_matrix costs O(n m^(n+1)).  They run as whole-list
  passes (slices, ``map`` and comprehensions): a row with no more pasts
  than block cells keeps one vector per past and pair, and a row with
  more pasts lays its cells out suffix-major, so one vector per pair
  covers every past.  Either way the loop of a row runs over the fewer of
  its m^(i-1) pasts and m^(n-i) block cells, once per symbol pair, so a
  row takes O(min(m^(i-1), m^(n-i)) n m^3) steps, each one pass over a
  whole list.
* Kernel (a :class:`MarkovSpec`): given X_1..i = y z, X_j has law row z
  of T_i...T_j-1 for every past y, and the rest of the tail follows the
  same later kernels after either swap, so eta(i, j, y, z, z') is the TV
  distance between rows z and z' of that product (Kontorovich and
  Ramanan, Ann. Probab. 36(6), 2008, whose Dobrushin product
  theta_i...theta_j-1 bounds it).  The rows are multiplied in integers
  over the product of the kernels' denominators, and each maximum is
  scaled by the later kernels' denominators, which puts the whole row
  over 2 dens[i]...dens[n-1].  A pair z < z' is
  admissible when some state reachable at position i-1 moves to both with
  positive probability (for i = 1: when the initial law charges both).  A
  row costs O(n m^3) integer operations, so delta_matrix costs
  O(n^2 m^3) and reads no table.

Both paths return a row as integer numerators over one denominator,
reduced by the row's gcd, and the same rationals.  :class:`DeltaMatrix`
holds the matrix in the table's form, integer numerators over one
denominator in lowest terms; :func:`delta_matrix` gets that denominator as
the lcm of its rows' and builds no Fraction, and ``entries`` builds the
rationals when read.

:func:`operator_norm_2` bounds ||Delta||_2 from above with a certificate:
a float power iteration on Delta^T (Delta x) only chooses a positive x,
and the Collatz-Wielandt quotient max_j (Delta^T Delta x)_j / x_j, which
bounds the largest eigenvalue of Delta^T Delta from above, is evaluated
exactly for it, in the integer numerators that :class:`DeltaMatrix`
holds (its zeros below the diagonal are never read).  The norm is that
quotient's square root, rounded up to a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, combinations, compress, cycle, repeat
from math import gcd, lcm
from numbers import Rational
from operator import add, eq, mul, sub, truediv
from typing import Sequence

from .rational import RationalLike, lowest_terms, over_lcm, rat
from .words import TableFunction, WeightVector, project_numerators

# Dense tables beyond this size are refused at the CLI boundary; library
# callers constructing larger Measures directly are on their own.
MAX_DENSE_TABLE = 10**6


class Measure(TableFunction):
    """Dense exact-rational probability measure on S^n.

    A table (:class:`~hammix.words.TableFunction`) whose entries are
    nonnegative and sum to 1; ``_cum`` holds the prefix sums of its integer
    numerators, which the dense eta_bar kernel and the sampler read.
    """

    _cum: tuple[int, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, c in enumerate(self.nums):
            if c < 0:
                raise ValueError(f"negative probability {rat(c, self.den)} at index {i}")
        cum = (0, *accumulate(self.nums))
        if cum[-1] != self.den:
            raise ValueError(f"probabilities must sum to exactly 1, got {self.total()}")
        object.__setattr__(self, "_cum", cum)

    @property
    def probabilities(self) -> tuple[Rational, ...]:
        return self.values

    @classmethod
    def uniform(cls, alphabet_size: int, arity: int) -> "Measure":
        count = alphabet_size**arity
        return cls.from_numerators(alphabet_size, arity, (1,) * count, count)


def _columns(values: Sequence[RationalLike]) -> tuple[list[int], list[int]]:
    """The values as two integer columns, numerators and denominators."""
    values = [rat(v) for v in values]
    return [v.numerator for v in values], [v.denominator for v in values]


def _distribution(nums: Sequence[int], dens: Sequence[int], what: str) -> tuple[Sequence[int], int]:
    """A law given as columns (value nums[i] / dens[i]), checked, in lowest terms."""
    nums, den = over_lcm(nums, dens)
    if any(x < 0 for x in nums):
        raise ValueError(f"{what} has a negative entry")
    if sum(nums) != den:
        raise ValueError(f"{what} must sum to exactly 1")
    return lowest_terms(nums, den)


@dataclass(frozen=True, init=False)
class MarkovSpec:
    """Time-inhomogeneous Markov chain generator for a Measure.

    ``initial`` is a distribution over S; ``transitions`` holds n-1
    row-stochastic m x m matrices (entry [a][b] = P(next=b | current=a)).
    They are validated once, in integers, and kept as ``laws`` (the one row
    of the initial law, then each matrix), each law over its own least
    common denominator ``dens[t]``.  That form is unique, so equality and
    hashing compare it; ``initial`` and ``transitions`` read it back.
    """

    laws: tuple[tuple[tuple[int, ...], ...], ...]
    dens: tuple[int, ...]

    def __init__(self, initial: Sequence[RationalLike], transitions: Sequence) -> None:
        # Each row is converted as it is validated: a faulty row is reported before later rows are read.
        self._set_laws(_columns(initial), [map(_columns, matrix) for matrix in transitions])

    @classmethod
    def from_ratios(cls, initial: Sequence, transitions: Sequence) -> "MarkovSpec":
        """The chain whose laws are given as integer columns (nums, dens), dens > 0.

        ``initial`` is one pair of columns and each matrix of
        ``transitions`` one pair per row; entry i has value nums[i] / dens[i].
        """
        spec = cls.__new__(cls)
        spec._set_laws(initial, transitions)
        return spec

    def _set_laws(self, initial, transitions) -> None:
        """Validate the chain, one (nums, dens) pair of integer columns per row, and store its laws."""
        init_nums, init_dens = initial
        m = len(init_nums)
        if m < 1:
            raise ValueError("initial distribution must be nonempty")
        nums, den = _distribution(init_nums, init_dens, "initial distribution")
        laws, dens = [(tuple(nums),)], [den]
        for t, matrix in enumerate(transitions):
            rows = []
            for a, (row_nums, row_dens) in enumerate(matrix):
                if len(row_nums) != m:
                    raise ValueError(f"transition matrix {t} row {a} must have {m} entries")
                rows.append(_distribution(row_nums, row_dens, f"transition matrix {t} row {a}"))
            if len(rows) != m:
                raise ValueError(f"transition matrix {t} must have {m} rows")
            den = lcm(*(d for _, d in rows))
            laws.append(tuple(tuple(x * (den // d) for x in nums) for nums, d in rows))
            dens.append(den)
        object.__setattr__(self, "laws", tuple(laws))
        object.__setattr__(self, "dens", tuple(dens))

    @property
    def alphabet_size(self) -> int:
        return len(self.laws[0][0])

    @property
    def arity(self) -> int:
        return len(self.laws)

    @cached_property
    def initial(self) -> tuple[Rational, ...]:
        return tuple(rat(x, self.dens[0]) for x in self.laws[0][0])

    @cached_property
    def transitions(self) -> tuple[tuple[tuple[Rational, ...], ...], ...]:
        return tuple(
            tuple(tuple(rat(x, den) for x in row) for row in rows)
            for rows, den in zip(self.laws[1:], self.dens[1:])
        )

    @cached_property
    def reachable(self) -> tuple[tuple[int, ...], ...]:
        """Per law t, the states whose row of ``laws[t]`` a positive-mass prefix uses.

        Entry 0 is ``(0,)``, the one row of the initial law.  Entry t >= 1
        holds the states reachable at position t: the last symbols of the
        positive-mass prefixes of length t, which are the states some
        entry t - 1 state moves to with positive probability.  Conditioning
        on a null prefix is undefined, so the kernel paths of eta_bar and of
        the martingale profile read only these rows.
        """
        m = self.alphabet_size
        reach = [(0,)]
        for rows in self.laws[:-1]:
            reach.append(tuple(b for b in range(m) if any(rows[a][b] for a in reach[-1])))
        return tuple(reach)


def expand_markov(spec: MarkovSpec) -> Measure:
    """Dense measure of the chain: P(x) = init(x1) * prod_t T_t(x_t, x_{t+1}).

    In integers: each level multiplies the numerators of the previous one
    by the rows of the next law (the word with last symbol a continues
    with row a), and the table reduces the product by one gcd.
    """
    (nums,) = spec.laws[0]
    for rows in spec.laws[1:]:
        nums = [mass * x for mass, row in zip(nums, cycle(rows)) for x in row]
    return Measure.from_numerators(spec.alphabet_size, spec.arity, nums, math.prod(spec.dens))


def _eta_bar_row(P: Measure, i: int) -> tuple[Sequence[int], int]:
    """eta_bar(i, j) for j = i+1..n, from whole-list integer passes over row i.

    For each past y, the block of y z holds the unnormalized law of
    X_i+1..n after y z in integer numerators, with mass M_z.  The TV
    distance between the tails after y z and y z' is sum |c| / (2 M_z M_z')
    for the difference vector c = a M_z' - b M_z of their blocks a, b;
    marginalizing is linear, so summing the m equal chunks of c gives the
    difference vector for the next j.  A row has m^(i-1) pasts and blocks
    of m^(n-i) cells; its Python-level loop runs over the fewer of the two:

    * Long blocks (no more pasts than cells): one difference vector per
      past and admissible pair, built by one comprehension and
      projected by ``map``.
    * Many pasts: the row is laid out suffix-major, so cell s of every
      past's block y z is the one slice ``cells[z*block + s :: m*block]``
      and the m^(i-1) pasts sit side by side.  One difference vector per
      pair then covers every past, projections sum its chunks as above,
      and each past's sum |c| is the sum of the vector's per-suffix slices
      (see :func:`_largest_ratio` for the maximum over pasts).

    The per-past loop skips null blocks.  Suffix-major, a past under which
    one side's block is null gets c = 0 (that block's cells are 0, and so
    is its mass, which scales the other block) and denominator 1, so its
    distance 0 never raises the maximum.  The largest distance per j is
    kept as an integer pair compared by cross-products, and the row is
    returned as the maxima's numerators over their least common
    denominator.
    """
    m, n = P.alphabet_size, P.arity
    if i == n:
        return [], 1
    cells, cum = P.nums, P._cum
    block = m ** (n - i)
    span = m * block
    pasts = len(cells) // span
    best = [(0, 1)] * (n - i)
    if pasts <= block:
        for lo in range(0, len(cells), span):
            bounds = cum[lo : lo + span + 1 : block]
            admissible = [
                (mass, cells[z_lo : z_lo + block])
                for mass, z_lo in zip(map(sub, bounds[1:], bounds), range(lo, lo + span, block))
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
    else:
        # Suffix-major: entry s * pasts + y of laws[z] is cell s of past y's block y z.
        laws = [
            list(chain.from_iterable(cells[s::span] for s in range(z * block, (z + 1) * block))) for z in range(m)
        ]
        masses = [list(map(sub, cum[(z + 1) * block :: span], cum[z * block :: span])) for z in range(m)]
        for a, b in combinations(range(m), 2):
            dens = list(map(mul, masses[a], masses[b]))
            if not any(dens):
                continue
            dens = [d or 1 for d in dens]  # M_a M_b, or 1 where a block is null
            diff = [p * y - q * x for p, q, x, y in zip(laws[a], laws[b], masses[a] * block, masses[b] * block)]
            for k in range(n - i):
                if k:
                    diff = project_numerators(diff, m)
                num, den = _largest_ratio(project_numerators(list(map(abs, diff)), len(diff) // pasts), dens)
                den *= 2
                best_num, best_den = best[k]
                if num * best_den > best_num * den:
                    best[k] = (num, den)
    nums, dens = zip(*best)
    return lowest_terms(*over_lcm(nums, dens))


def _largest_ratio(nums: Sequence[int], dens: Sequence[int]) -> tuple[int, int]:
    """The largest nums[y] / dens[y] (every dens[y] > 0) as its integer pair.

    CPython rounds an int / int quotient correctly, and rounding is
    monotone, so the exact maximum is among the entries whose float
    quotient equals the largest one; only those are compared exactly, by
    cross-products.  The floats select candidates and reach no result.
    """
    quotients = list(map(truediv, nums, dens))
    top = max(quotients)
    best_num, best_den = 0, 1
    for y in compress(range(len(quotients)), map(eq, quotients, repeat(top))):
        num, den = nums[y], dens[y]
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return best_num, best_den


def _admissible_pairs(chain: MarkovSpec, i: int) -> list[tuple[int, int]]:
    """Symbol pairs z < z' for which some past y gives y z and y z' positive mass.

    Some state a in ``chain.reachable[i-1]`` must move to both, that is,
    row a of ``laws[i-1]`` charges both.
    """
    pairs = set()
    for a in chain.reachable[i - 1]:
        pairs.update(combinations([z for z, p in enumerate(chain.laws[i - 1][a]) if p], 2))
    return sorted(pairs)


def _chain_eta_row(chain: MarkovSpec, i: int) -> tuple[Sequence[int], int]:
    """eta_bar(i, j) for j = i+1..n from the kernels T_i, ..., T_n-1 alone.

    Row z of T_i...T_j-1 is kept in integers over the product D_j of those
    kernels' denominators, for every state z in an admissible pair; a
    pair's TV distance is the l1 distance of its two rows over 2 D_j, and
    one D_j serves every pair, so the maximum per j is an integer maximum.
    Each maximum is then scaled by the later kernels' denominators, which
    puts the row over 2 D_n, and reduced by the row's gcd.
    """
    m = chain.alphabet_size
    pairs = _admissible_pairs(chain, i)
    rows = {z: [int(a == z) for a in range(m)] for pair in pairs for z in pair}
    best = []
    for matrix in chain.laws[i:]:
        cols = list(zip(*matrix))
        rows = {z: [sum(map(mul, row, col)) for col in cols] for z, row in rows.items()}
        best.append(max((sum(map(abs, map(sub, rows[a], rows[b]))) for a, b in pairs), default=0))
    scales = list(accumulate(reversed(chain.dens[i + 1 :]), mul, initial=1))[::-1]  # dens[i+k+1]...dens[n-1]
    return lowest_terms(list(map(mul, best, scales)), 2 * math.prod(chain.dens[i:]))


def eta_bar(P: Measure | MarkovSpec, i: int, j: int) -> Rational:
    """Worst-case eta over all pasts y and symbol pairs z, z'.

    Triples whose conditioning prefix is null are excluded; returns 0 when
    no admissible pair of pasts exists.
    """
    if not 1 <= i < j <= P.arity:
        raise ValueError(f"need 1 <= i < j <= arity, got i={i}, j={j}, n={P.arity}")
    nums, den = _chain_eta_row(P, i) if isinstance(P, MarkovSpec) else _eta_bar_row(P, i)
    return rat(nums[j - i - 1], den)


@dataclass(frozen=True)
class DeltaMatrix:
    """Upper-triangular mixing matrix: unit diagonal, eta_bar above it.

    ``rows[i]`` holds row i's integer numerators from the diagonal on
    (n - i of them, the first equal to ``den``), all over one denominator
    ``den`` in lowest terms: the table's form (see
    :class:`~hammix.words.TableFunction`).  The constructor reduces a form
    that is not, so equal matrices compare equal.  ``entries``, the n x n
    matrix of Fractions with its zeros below the diagonal, is built on
    first read and then kept.
    """

    rows: tuple[tuple[int, ...], ...]
    den: int = 1

    def __post_init__(self) -> None:
        rows, den = tuple(map(tuple, self.rows)), self.den
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        for i, row in enumerate(rows):
            if len(row) != len(rows) - i:
                raise ValueError(f"row {i} has {len(row)} entries from the diagonal on, not {len(rows) - i}")
            if row[0] != den:
                raise ValueError(f"diagonal entry ({i},{i}) must be 1, got {rat(row[0], den)}")
            if min(row) < 0 or max(row) > den:
                raise ValueError(f"row {i} has an entry that does not lie in [0,1]")
        g = gcd(den, *chain.from_iterable(rows))
        if g != 1:
            rows, den = tuple(tuple(v // g for v in row) for row in rows), den // g
        self.__dict__.update(rows=rows, den=den)

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[Rational, ...], ...]:
        return tuple((rat(0),) * i + tuple(rat(v, self.den) for v in row) for i, row in enumerate(self.rows))

    @classmethod
    def identity(cls, n: int) -> "DeltaMatrix":
        return cls(tuple((1,) + (0,) * (n - 1 - i) for i in range(n)))

    def apply(self, w: WeightVector) -> tuple[Rational, ...]:
        """Matrix-vector product (Delta w), exact.

        Entry i is one integer dot product of row i's numerators with the
        weights' ``nums`` from i on, over ``den`` times ``w.den``.
        """
        w.check_arity(self.size)
        den = self.den * w.den
        return tuple(rat(sum(map(mul, row, w.nums[i:])), den) for i, row in enumerate(self.rows))


def delta_matrix(P: Measure | MarkovSpec) -> DeltaMatrix:
    """Assemble the mixing matrix, one pass per row.

    A chain is read from its kernels (O(n^2 m^3), no table), a measure from
    its table (O(n m^(n+1))); both give the same rationals.  Each row comes
    in lowest terms over its own denominator, so the lcm of those is the
    matrix's lowest-terms denominator; each row is scaled to it in place,
    so its unscaled form is dropped as the scaled one is made.
    """
    eta_row = _chain_eta_row if isinstance(P, MarkovSpec) else _eta_bar_row
    rows = [eta_row(P, i) for i in range(1, P.arity + 1)]
    den = lcm(*[d for _, d in rows])
    for i, (nums, d) in enumerate(rows):
        rows[i] = (den, *[x * (den // d) for x in nums])
    return DeltaMatrix(tuple(rows), den)


_OPNORM_REL_GAP = 1e-10
_OPNORM_MAX_STEPS = 1_000


def operator_norm_2(D: DeltaMatrix) -> float:
    """l2 operator norm (largest singular value) as a certified upper bound.

    D^T D is entrywise nonnegative, so for every entrywise positive x its
    largest eigenvalue is at most max_j (D^T D x)_j / x_j (Collatz and
    Wielandt).  A float power iteration on D^T (D x) from the all-ones
    vector only chooses x.  It stops once that quotient is within a relative
    _OPNORM_REL_GAP of the Rayleigh quotient |D x|^2 / |x|^2, a lower bound,
    or after _OPNORM_MAX_STEPS steps; each new x gets 2^-64 added, since an
    entry that reached 0.0 would void the bound.  So every stop leaves a
    valid x, whose quotient is then evaluated once, exactly, in integers:
    D's rows from the diagonal on over ``D.den`` as D holds them, and x's
    floats over their common power of 2.  The largest quotient is found by
    :func:`_largest_ratio`.  The result is the float square root of that
    quotient, stepped up with math.nextafter until its exact square
    (compared as integers) reaches it; the identity gives 1.0.

    A step costs O(n^2) float products: D's rows from their last entry back
    to the diagonal against x reversed, and its columns down to the
    diagonal.  They are added left to right in plain float arithmetic:
    builtin ``sum`` compensates its rounding since Python 3.12, which would
    make the chosen x depend on the version, and ``math.fsum`` is slower on
    a long chain's rows, whose entries span hundreds of orders of
    magnitude.  The 0x0 matrix (arity 0) has norm 0.0.
    """
    n = D.size
    if n == 0:
        return 0.0
    rows, den = D.rows, D.den  # row i from the diagonal on
    cols = [[rows[i][j - i] for i in range(j + 1)] for j in range(n)]  # column j down to it
    row_floats = [[v / den for v in reversed(row)] for row in rows]
    col_floats = [[v / den for v in col] for col in cols]
    x = [1.0] * n
    for _ in range(_OPNORM_MAX_STEPS):
        back = x[::-1]
        dx = [reduce(add, map(mul, row, back), 0.0) for row in row_floats]
        y = [reduce(add, map(mul, col, dx), 0.0) for col in col_floats]
        cw = max(map(truediv, y, x))
        rayleigh = reduce(add, map(mul, dx, dx), 0.0) / reduce(add, map(mul, x, x), 0.0)
        if cw - rayleigh <= _OPNORM_REL_GAP * cw:
            break
        x = [v / cw + 2.0**-64 for v in y]
    x_den = max(v.as_integer_ratio()[1] for v in x)  # a power of 2, so each v * x_den is an integer float
    xs = [int(v * x_den) for v in x]
    dxs = [sum(map(mul, row, xs[i:])) for i, row in enumerate(rows)]
    num, bound_den = _largest_ratio([sum(map(mul, col, dxs)) for col in cols], list(map(mul, xs, repeat(den**2))))
    root = math.sqrt(num / bound_den)
    while (r := root.as_integer_ratio())[0] ** 2 * bound_den < num * r[1] ** 2:
        root = math.nextafter(root, math.inf)
    return root
