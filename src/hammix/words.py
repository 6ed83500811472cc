"""Finite-alphabet words and the one exact table format over them.

A word of length n over an alphabet of size m is a tuple of ints in
[0, m).  A dense table (:class:`TableFunction`) holds one exact rational
per word of S^n, in lexicographic order with the *first* symbol most
significant: ``index((x1,...,xn)) = sum_i xi * m**(n-i)``.  Alongside its
rationals a table keeps their integer numerators ``nums`` over one common
denominator ``den``; this module is the only place that converts values to
that form, and every table layer (psi, the Lipschitz constant, the measures
of :mod:`hammix.mixing`, the martingale and Monte Carlo layers) computes on
the integers.  The index order makes the two structural operators strided
integer sums:

* marginal projection  k'(y) = sum_{a in S} k(a y)   -- sums the m blocks
  of the most significant digit;
* y-section            k_y(x) = k(x y)               -- fixes the least
  significant digit.

Arity-0 tables are length-1 tables (the single value indexed by the empty
word), so recursions over arity bottom out without a special scalar case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import lcm
from numbers import Rational
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .rational import RationalLike, _mpq, over_common_denominator, rat

Word = tuple[int, ...]


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive rational weights, one per word coordinate."""

    entries: tuple[Rational, ...]

    def __init__(self, entries: Iterable[RationalLike]) -> None:
        converted = tuple(rat(e) for e in entries)
        for i, e in enumerate(converted):
            if e <= 0:
                raise ValueError(f"weight entries must be > 0, got {e} at index {i}")
        object.__setattr__(self, "entries", converted)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Rational:
        return self.entries[i]

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.entries)

    def total(self) -> Rational:
        return sum(self.entries, rat(0))

    def suffix(self, start: int) -> "WeightVector":
        """Weights for coordinates start..n (0-based start index)."""
        return WeightVector(self.entries[start:])


@dataclass(frozen=True)
class TableFunction:
    """A dense real-valued (exact rational) function on S^n.

    ``values[i]`` is the value on the word with lexicographic index ``i``
    and equals ``nums[i] / den``; ``len(values) == alphabet_size ** arity``
    always holds.  :meth:`from_numerators` builds a table from integers
    without converting rationals.
    """

    alphabet_size: int
    arity: int
    values: tuple[Rational, ...]
    nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        if self.arity < 0:
            raise ValueError(f"arity must be >= 0, got {self.arity}")
        if "nums" not in self.__dict__:  # from_numerators sets nums and den itself
            values = tuple(rat(v) for v in self.values)
            nums, den = over_common_denominator(values)
            object.__setattr__(self, "values", values)
            object.__setattr__(self, "nums", tuple(nums))
            object.__setattr__(self, "den", den)
        expected = self.alphabet_size**self.arity
        if len(self.nums) != expected:
            raise ValueError(
                f"table for arity {self.arity} over {self.alphabet_size} symbols "
                f"needs {expected} values, got {len(self.nums)}"
            )

    @classmethod
    def from_numerators(
        cls, alphabet_size: int, arity: int, nums: Iterable[int], den: int = 1
    ) -> "TableFunction":
        """The table with values nums[i] / den (den > 0), built from the integers."""
        table, nums = cls.__new__(cls), tuple(nums)
        values = tuple(map(_mpq, nums)) if den == 1 else tuple(_mpq(x, den) for x in nums)
        table.__dict__.update(alphabet_size=alphabet_size, arity=arity, values=values, nums=nums, den=den)
        table.__post_init__()
        return table

    @classmethod
    def from_callable(
        cls, alphabet_size: int, arity: int, fn: Callable[[Word], RationalLike]
    ) -> "TableFunction":
        vals = [fn(x) for x in words(alphabet_size, arity)]
        return cls(alphabet_size, arity, tuple(vals))

    @classmethod
    def constant(cls, alphabet_size: int, arity: int, value: RationalLike) -> "TableFunction":
        return cls(alphabet_size, arity, (rat(value),) * alphabet_size**arity)

    def __call__(self, x: Word) -> Rational:
        return self.values[word_index(x, self.alphabet_size, self.arity)]

    def __neg__(self) -> "TableFunction":
        return TableFunction.from_numerators(self.alphabet_size, self.arity, (-x for x in self.nums), self.den)

    def scale(self, a: RationalLike) -> "TableFunction":
        a = rat(a)
        nums = (a.numerator * x for x in self.nums)
        return TableFunction.from_numerators(self.alphabet_size, self.arity, nums, a.denominator * self.den)

    def shift(self, a: RationalLike) -> "TableFunction":
        a = rat(a)
        den = lcm(self.den, a.denominator)
        nums = (x * (den // self.den) + a.numerator * (den // a.denominator) for x in self.nums)
        return TableFunction.from_numerators(self.alphabet_size, self.arity, nums, den)

    def total(self) -> Rational:
        return rat(sum(self.nums), self.den)


def words(m: int, n: int) -> Iterator[Word]:
    """All words of S^n in lexicographic (index) order."""
    return product(range(m), repeat=n)


def word_index(x: Sequence[int], m: int, n: int | None = None) -> int:
    """Lexicographic index of a word; first symbol most significant."""
    if n is not None and len(x) != n:
        raise ValueError(f"expected word of length {n}, got {len(x)}")
    idx = 0
    for s in x:
        if not 0 <= s < m:
            raise ValueError(f"symbol {s} out of range for alphabet of size {m}")
        idx = idx * m + s
    return idx


def word_unindex(idx: int, m: int, n: int) -> Word:
    """Inverse of :func:`word_index`."""
    if not 0 <= idx < m**n:
        raise ValueError(f"index {idx} out of range for {m}^{n} words")
    out = [0] * n
    for pos in range(n - 1, -1, -1):
        idx, out[pos] = divmod(idx, m)
    return tuple(out)


def hamming_distance(x: Sequence[int], y: Sequence[int], w: WeightVector) -> Rational:
    """Weighted Hamming distance: sum of w_i over coordinates where x, y differ."""
    if len(x) != len(y) or len(x) != len(w):
        raise ValueError(
            f"length mismatch: |x|={len(x)}, |y|={len(y)}, |w|={len(w)}"
        )
    return sum((w[i] for i in range(len(w)) if x[i] != y[i]), rat(0))


def hamming_table(m: int, target: Word, w: WeightVector) -> TableFunction:
    """x |-> d_w(x, target) on S^len(w), summed in the weights' numerators."""
    costs, den = over_common_denominator(w.entries)
    return TableFunction.from_numerators(
        m, len(w),
        (sum(c for c, a, b in zip(costs, x, target) if a != b) for x in words(m, len(w))),
        den,
    )


def project_numerators(nums: Sequence[int], m: int) -> list[int]:
    """k'(y) = sum_a k(a y) on numerators: the sum of the m equal blocks."""
    block = len(nums) // m
    projected = nums[:block]
    for lo in range(block, len(nums), block):
        projected = list(map(add, projected, nums[lo : lo + block]))
    return list(projected)


def marginal_projection(k: TableFunction) -> TableFunction:
    """Sum out the first coordinate: k'(y) = sum_{a in S} k(a y).

    Maps arity n to arity n-1; the arity-1 projection is the scalar table
    holding the total of k.
    """
    if k.arity < 1:
        raise ValueError("cannot project an arity-0 table")
    m = k.alphabet_size
    return TableFunction.from_numerators(m, k.arity - 1, project_numerators(k.nums, m), k.den)


def y_section(k: TableFunction, y: int) -> TableFunction:
    """Fix the last coordinate to y: k_y(x) = k(x y)."""
    if k.arity < 1:
        raise ValueError("cannot take a section of an arity-0 table")
    m = k.alphabet_size
    if not 0 <= y < m:
        raise ValueError(f"section symbol {y} out of range for alphabet of size {m}")
    return TableFunction.from_numerators(m, k.arity - 1, k.nums[y::m], k.den)
