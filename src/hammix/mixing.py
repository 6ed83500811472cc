"""Probability measures on S^n and their mixing structure.

A :class:`Measure` is a :class:`~hammix.words.TableFunction` whose entries
are nonnegative and sum to 1, so it shares the one exact table format: the
table's integer numerators over its denominator.  Because the first symbol
is most significant, the words sharing a prefix form one contiguous index
block, so prefix masses and conditional laws are block sums over the
measure's prefix sums of those numerators.  A Markov chain has one type,
:class:`MarkovSpec`, which holds its laws as integer kernels.  A chain is
passed to :func:`delta_matrix` and :func:`eta_bar` as its spec, which
read the kernels alone; :func:`expand_markov` builds its dense measure,
in integers too (each level multiplies numerators by a transition
matrix's numerators), only for a layer that reads a table.

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
  j = i+1.  Each admissible pair z, z' under a past y gets one integer
  difference vector, its two blocks cross-scaled by each other's mass;
  its absolute sum is the TV numerator for j = i+1, and summing its m
  equal chunks (marginalizing is linear) gives the vector for the next j.
  The numerators are compared by cross-products, and only the n - i
  maxima are converted to rationals.  A row costs O(m^(n+1)) integer
  operations (m^2 / 2 pairs under each of m^(i-1) pasts, m^(n-i) entries
  each), so delta_matrix costs O(n m^(n+1)).
* Kernel (a :class:`MarkovSpec`): given X_1..i = y z, X_j has law row z
  of T_i...T_j-1 for every past y, and the rest of the tail follows the
  same later kernels after either swap, so eta(i, j, y, z, z') is the TV
  distance between rows z and z' of that product (Kontorovich and
  Ramanan, Ann. Probab. 36(6), 2008, whose Dobrushin product
  theta_i...theta_j-1 bounds it).  The rows are multiplied in integers
  over the product of the kernels' denominators.  A pair z < z' is
  admissible when some state reachable at position i-1 moves to both with
  positive probability (for i = 1: when the initial law charges both).  A
  row costs O(n m^3) integer operations, so delta_matrix costs
  O(n^2 m^3) and reads no table.

Both paths return the same rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, combinations, cycle
from math import gcd, lcm
from numbers import Rational
from operator import add, mul, sub
from typing import Callable, Sequence

from .rational import RationalLike, float_from_rat, rat, rat_from_float
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


def _ratio(value: RationalLike) -> tuple[int, int]:
    value = rat(value)
    return value.numerator, value.denominator


def _distribution(pairs: Sequence[tuple[int, int]], what: str) -> tuple[list[int], int]:
    """A law given as pairs (p, q), checked, over its least common denominator."""
    den = lcm(*(q for _, q in pairs))
    nums = [p * (den // q) for p, q in pairs]
    if any(x < 0 for x in nums):
        raise ValueError(f"{what} has a negative entry")
    if sum(nums) != den:
        raise ValueError(f"{what} must sum to exactly 1")
    g = gcd(den, *nums)
    return [x // g for x in nums], den // g


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
        self._set_laws(initial, transitions, _ratio)

    @classmethod
    def from_ratios(cls, initial: Sequence, transitions: Sequence) -> "MarkovSpec":
        """The chain whose entries are the integer pairs (p, q), q > 0, with value p / q."""
        spec = cls.__new__(cls)
        spec._set_laws(initial, transitions, tuple)
        return spec

    def _set_laws(self, initial, transitions, ratio: Callable[..., tuple[int, int]]) -> None:
        """Validate the chain in integers and store its laws; ``ratio`` reads one entry."""
        init = [ratio(p) for p in initial]
        m = len(init)
        if m < 1:
            raise ValueError("initial distribution must be nonempty")
        nums, den = _distribution(init, "initial distribution")
        laws, dens = [(tuple(nums),)], [den]
        for t, matrix in enumerate(transitions):
            if len(matrix) != m:
                raise ValueError(f"transition matrix {t} must have {m} rows")
            rows = []
            for a, row in enumerate(matrix):
                if len(row) != m:
                    raise ValueError(f"transition matrix {t} row {a} must have {m} entries")
                rows.append(_distribution([ratio(p) for p in row], f"transition matrix {t} row {a}"))
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

    @cached_property
    def sampler_cuts(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per position and current state: the row's draw thresholds.

        A draw r < 2^64 selects the first symbol b whose cumulative row
        c_b / d satisfies r * d < c_b * 2^64; for an integer r that is
        r < ceil(c_b * 2^64 / d), so the row is kept as those ceilings and
        a symbol is one ``bisect_right``.  Position 1 has the single entry
        for the initial law (its "state" is 0); position t+1 has one entry
        per state a, for row a of ``laws[t]``.
        """
        return tuple(
            tuple(tuple(-((-c << 64) // den) for c in accumulate(row)) for row in rows)
            for rows, den in zip(self.laws, self.dens)
        )


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


def _eta_bar_row(P: Measure, i: int) -> list[Rational]:
    """eta_bar(i, j) for j = i+1..n, from one integer pass over row i.

    For each past y, the block of y z holds the unnormalized law of
    X_i+1..n after y z in integer numerators, with mass M_z.  The TV
    distance between the tails after y z and y z' is sum |c| / (2 M_z M_z')
    for the difference vector c = a M_z' - b M_z of their blocks a, b;
    marginalizing is linear, so summing the m equal chunks of c gives the
    difference vector for the next j.  The largest distance per j is kept
    as an integer pair compared by cross-products.
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


def _admissible_pairs(chain: MarkovSpec, i: int) -> list[tuple[int, int]]:
    """Symbol pairs z < z' for which some past y gives y z and y z' positive mass.

    Some state a in ``chain.reachable[i-1]`` must move to both, that is,
    row a of ``laws[i-1]`` charges both.
    """
    pairs = set()
    for a in chain.reachable[i - 1]:
        pairs.update(combinations([z for z, p in enumerate(chain.laws[i - 1][a]) if p], 2))
    return sorted(pairs)


def _chain_eta_row(chain: MarkovSpec, i: int) -> list[Rational]:
    """eta_bar(i, j) for j = i+1..n from the kernels T_i, ..., T_n-1 alone.

    Row z of T_i...T_j-1 is kept in integers over the product D of those
    kernels' denominators, for every state z in an admissible pair; a
    pair's TV distance is the l1 distance of its two rows over 2 D, and
    one D serves every pair, so the maximum per j is an integer maximum.
    """
    m = chain.alphabet_size
    pairs = _admissible_pairs(chain, i)
    rows = {z: [int(a == z) for a in range(m)] for pair in pairs for z in pair}
    den = 1
    out = []
    for matrix, matrix_den in zip(chain.laws[i:], chain.dens[i:]):
        cols = list(zip(*matrix))
        rows = {z: [sum(map(mul, row, col)) for col in cols] for z, row in rows.items()}
        den *= matrix_den
        best = max((sum(map(abs, map(sub, rows[a], rows[b]))) for a, b in pairs), default=0)
        out.append(rat(best, 2 * den))
    return out


def eta_bar(P: Measure | MarkovSpec, i: int, j: int) -> Rational:
    """Worst-case eta over all pasts y and symbol pairs z, z'.

    Triples whose conditioning prefix is null are excluded; returns 0 when
    no admissible pair of pasts exists.
    """
    if not 1 <= i < j <= P.arity:
        raise ValueError(f"need 1 <= i < j <= arity, got i={i}, j={j}, n={P.arity}")
    row = _chain_eta_row(P, i) if isinstance(P, MarkovSpec) else _eta_bar_row(P, i)
    return row[j - i - 1]


@dataclass(frozen=True)
class DeltaMatrix:
    """Upper-triangular mixing matrix: unit diagonal, eta_bar above it."""

    entries: tuple[tuple[Rational, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        converted = []
        for i, row in enumerate(self.entries):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
            row = tuple(rat(v) for v in row)
            for j, v in enumerate(row):
                if j < i and v != 0:
                    raise ValueError(f"entry ({i},{j}) below diagonal must be 0, got {v}")
                if j == i and v != 1:
                    raise ValueError(f"diagonal entry ({i},{i}) must be 1, got {v}")
                if j > i and not 0 <= v <= 1:
                    raise ValueError(f"entry ({i},{j}) must lie in [0,1], got {v}")
            converted.append(row)
        object.__setattr__(self, "entries", tuple(converted))

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "DeltaMatrix":
        return cls(
            tuple(
                tuple(rat(1) if i == j else rat(0) for j in range(n)) for i in range(n)
            )
        )

    def apply(self, w: WeightVector) -> tuple[Rational, ...]:
        """Matrix-vector product (Delta w), exact."""
        if len(w) != self.size:
            raise ValueError(f"weight length {len(w)} != matrix size {self.size}")
        return tuple(
            sum((row[j] * w[j] for j in range(self.size)), rat(0))
            for row in self.entries
        )


def delta_matrix(P: Measure | MarkovSpec) -> DeltaMatrix:
    """Assemble the mixing matrix, one pass per row.

    A chain is read from its kernels (O(n^2 m^3), no table), a measure from
    its table (O(n m^(n+1))); both give the same rationals.
    """
    eta_row = _chain_eta_row if isinstance(P, MarkovSpec) else _eta_bar_row
    rows = [tuple([rat(0)] * (i - 1) + [rat(1)] + eta_row(P, i)) for i in range(1, P.arity + 1)]
    return DeltaMatrix(tuple(rows))


_OPNORM_REL_TOL = 1e-12
_OPNORM_MAX_ITERATIONS = 100_000


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """sum u_i v_i, added left to right in plain float arithmetic.

    Builtin ``sum`` compensates its float rounding since Python 3.12, which
    would move the last bit of a norm between Python versions.
    """
    return reduce(add, map(mul, u, v), 0.0)


def operator_norm_2(D: DeltaMatrix) -> float:
    """l2 operator norm (largest singular value) as a float estimate.

    Power iteration on A = D^T D from the all-ones vector (never orthogonal
    to the dominant eigenvector: A is entrywise nonnegative).  Iterates
    until the residual ||A x - rho x|| drops below _OPNORM_REL_TOL * rho,
    where rho is the Rayleigh quotient of the unit iterate, then returns
    sqrt(rho + residual).  The residual pads the estimate upward, but float
    rounding can still leave it below the norm (0.9999999999999999 for the
    2x2 identity), so tail bounds computed from it are estimates too;
    ROADMAP item 4 replaces it with an exact bound.  If
    _OPNORM_MAX_ITERATIONS pass without convergence, the exact Schur bound
    sqrt(||D||_1 ||D||_inf) is returned instead, as the float square root
    stepped up with math.nextafter until its exact square reaches it.
    :func:`hammix.martingale.concentration_bound` multiplies the square of
    the result by another rounded float before it reaches exp().  The
    0x0 matrix (arity 0) has norm 0.0.
    """
    n = D.size
    if n == 0:
        return 0.0
    # A = D^T D, symmetric PSD, from inner products of D's columns.
    cols = list(zip(*([float(v) for v in row] for row in D.entries)))
    a = [[_dot(ci, cj) for cj in cols] for ci in cols]

    x = [1.0 / math.sqrt(n)] * n
    for _ in range(_OPNORM_MAX_ITERATIONS):
        ax = [_dot(row, x) for row in a]
        rho = _dot(ax, x)
        resid = math.sqrt(reduce(add, [(v - rho * xi) ** 2 for v, xi in zip(ax, x)], 0.0))
        if resid <= _OPNORM_REL_TOL * rho:
            return math.sqrt(rho + resid)
        norm = math.sqrt(_dot(ax, ax))
        x = [v / norm for v in ax]
    # Largest column sum times largest row sum; D is nonnegative.
    bound = max(map(sum, zip(*D.entries))) * max(map(sum, D.entries))
    root = math.sqrt(float_from_rat(bound))
    while rat_from_float(root) ** 2 < bound:
        root = math.nextafter(root, math.inf)
    return root
