"""Finite-alphabet words and the one exact table format over them.

A word of length n over an alphabet of size m is a tuple of ints in
[0, m).  A dense table (:class:`TableFunction`) holds one exact rational
per word of S^n, in lexicographic order with the *first* symbol most
significant: ``index((x1,...,xn)) = sum_i xi * m**(n-i)``.  A table is its
integer numerators ``nums`` over one denominator ``den`` in lowest terms;
its rationals are built only when ``values`` is read.  Tables and
measures (a :class:`~hammix.mixing.Measure` is a table) get that form
here, and so do the weights (:class:`WeightVector`'s ``nums`` over
``den``); the mixing matrix (:class:`~hammix.mixing.DeltaMatrix`) holds
the same form for its upper triangle, with its rationals built only when
``entries`` is read.  Two other places put values over a common
denominator of their own: a chain's laws (``MarkovSpec._set_laws``
through ``mixing._distribution``) and the polytope LP's right-hand sides
(``lipschitz_lp.build_polytope_lp``), whose denominator also carries the
slack v's.  The form's rules (the lcm of denominators, the gcd reduction)
are :mod:`hammix.rational`'s.  Every table layer (psi, the Lipschitz
constant, the measures of :mod:`hammix.mixing`, the martingale and Monte
Carlo layers) computes on the integers.  The index order makes the two
structural operators strided integer operators on ``nums``, run in place
by :mod:`hammix.psi`:

* marginal projection  k'(y) = sum_{a in S} k(a y)   -- sums the m blocks
  of the most significant digit (:func:`project_numerators`);
* y-section            k_y(x) = k(x y)               -- fixes the least
  significant digit, the slice ``nums[y::m]``.

Arity-0 tables are length-1 tables (the single value indexed by the empty
word), so recursions over arity bottom out without a special scalar case.

A problem file's named functions are :class:`Builtin` values, which keep
their parsed argument and build a table only when asked
(:meth:`Builtin.table`); the additive ones build it with
:func:`additive_table`.  The weighted Hamming metric d_w is stated once,
as the ``hamming_to`` builtin's per-coordinate terms: every distance
table the package builds is ``Builtin("hamming_to", m, n, y, w).table()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
from numbers import Rational
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .rational import RationalLike, lowest_terms, over_common_denominator, over_lcm, rat

Word = tuple[int, ...]


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive rational weights, one per word coordinate.

    ``entries`` are the weights as Fractions; ``nums`` over ``den`` are the
    same weights in the table's form (see :class:`TableFunction`), integer
    numerators over one denominator in lowest terms.  That form is unique,
    so equality and hashing compare it.
    """

    entries: tuple[Rational, ...] = field(compare=False)
    nums: tuple[int, ...]
    den: int

    def __init__(self, entries: Iterable[RationalLike]) -> None:
        converted = tuple(rat(e) for e in entries)
        for i, e in enumerate(converted):
            if e <= 0:
                raise ValueError(f"weight entries must be > 0, got {e} at index {i}")
        nums, den = over_common_denominator(converted)
        self.__dict__.update(entries=converted, nums=tuple(nums), den=den)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Rational:
        return self.entries[i]

    def __iter__(self) -> Iterator[Rational]:
        return iter(self.entries)

    def total(self) -> Rational:
        return rat(sum(self.nums), self.den)

    def check_arity(self, n: int) -> None:
        """Raise ValueError unless there is one weight per coordinate of S^n."""
        if len(self.nums) != n:
            raise ValueError(f"weight length {len(self.nums)} != arity {n}")


@dataclass(frozen=True, init=False, eq=False)
class TableFunction:
    """A dense real-valued (exact rational) function on S^n.

    The table is its integer numerators ``nums`` over one denominator
    ``den > 0``, reduced so that ``gcd(den, *nums) == 1``; that form is
    unique, so equal tables have equal integers, and equality and hashing
    compare them.  ``nums[i] / den`` is the value on the word with
    lexicographic index ``i``, and ``len(nums) == alphabet_size ** arity``
    always holds.  ``values``, the same numbers as Fractions, is built on
    first read and then kept.  ``TableFunction(m, n, values)``
    takes rationals; :meth:`from_numerators` and :meth:`from_ratios` build
    a table from integers without converting any.
    """

    alphabet_size: int
    arity: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, alphabet_size: int, arity: int, values: Iterable[RationalLike]) -> None:
        values = tuple(rat(v) for v in values)
        nums, den = over_common_denominator(values)  # reduced values give a reduced form
        self.__dict__.update(alphabet_size=alphabet_size, arity=arity, nums=tuple(nums), den=den, values=values)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        if self.arity < 0:
            raise ValueError(f"arity must be >= 0, got {self.arity}")
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
        """The table with values nums[i] / den (den > 0), reduced by their gcd."""
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        nums, den = lowest_terms(tuple(nums), den)
        table = cls.__new__(cls)
        table.__dict__.update(alphabet_size=alphabet_size, arity=arity, nums=nums, den=den)
        table.__post_init__()
        return table

    @classmethod
    def from_ratios(
        cls, alphabet_size: int, arity: int, nums: Sequence[int], dens: Sequence[int]
    ) -> "TableFunction":
        """The table with values nums[i] / dens[i] (integers, dens[i] > 0).

        The numerators are scaled to the least common denominator in one
        pass over the two columns.
        """
        return cls.from_numerators(alphabet_size, arity, *over_lcm(nums, dens))

    @cached_property
    def values(self) -> tuple[Rational, ...]:
        """The values nums[i] / den as Fractions."""
        den = self.den
        return tuple(map(Fraction, self.nums)) if den == 1 else tuple(Fraction(x, den) for x in self.nums)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet_size, self.arity, self.den, self.nums) == (
            other.alphabet_size, other.arity, other.den, other.nums
        )

    def __hash__(self) -> int:
        return hash((self.alphabet_size, self.arity, self.den, self.nums))

    def __call__(self, x: Word) -> Rational:
        return rat(self.nums[word_index(x, self.alphabet_size, self.arity)], self.den)

    def __neg__(self) -> "TableFunction":
        return TableFunction.from_numerators(self.alphabet_size, self.arity, (-x for x in self.nums), self.den)

    def shift(self, a: RationalLike) -> "TableFunction":
        a = rat(a)
        den = lcm(self.den, a.denominator)
        nums = (x * (den // self.den) + a.numerator * (den // a.denominator) for x in self.nums)
        return TableFunction.from_numerators(self.alphabet_size, self.arity, nums, den)

    def total(self) -> Rational:
        return rat(sum(self.nums), self.den)

    def table(self) -> "TableFunction":
        """The table itself; a :class:`Builtin` builds its own."""
        return self

    def oscillations(self) -> tuple[Rational, ...]:
        """Per coordinate i, max |f(x) - f(y)| over words differing only at i.

        Scanned in the integer numerators: each step rotates the first
        coordinate of the numerator table to the last place, where the
        words differing only there are the slices nums[a::m] and nums[b::m].
        """
        m, nums = self.alphabet_size, self.nums
        block = len(nums) // m
        out = []
        for _ in range(self.arity):
            nums = list(chain.from_iterable(zip(*(nums[a * block : (a + 1) * block] for a in range(m)))))
            pairs = ((nums[a::m], nums[b::m]) for a in range(m) for b in range(a))
            out.append(rat(max((max(map(abs, map(sub, x, y))) for x, y in pairs), default=0), self.den))
        return tuple(out)


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


def additive_table(m: int, terms: Sequence[Sequence[int]], den: int = 1) -> TableFunction:
    """x |-> (terms[0][x_1] + ... + terms[n-1][x_n]) / den on S^n, n = len(terms).

    Built one coordinate at a time: appending symbol a at coordinate i adds
    the integer terms[i][a] to every word's numerator.
    """
    nums = [0]
    for step in terms:
        nums = [x + c for x in nums for c in step]
    return TableFunction.from_numerators(m, len(terms), nums, den)


@dataclass(frozen=True)
class Builtin:
    """A named function on S^n, held as its parsed argument, not as a table.

        sum_of_symbols   f(x) = x_1 + ... + x_n
        indicator        1 at ``target``, else 0
        hamming_to       d_w(x, target), w = ``weights``

    ``sum_of_symbols`` and ``hamming_to`` are additive, f(x) = sum_i
    g_i(x_i) (:meth:`terms`), so stages that read only per-coordinate terms
    never build the m^n table; :meth:`table` builds it for those that do.
    """

    name: str
    alphabet_size: int
    arity: int
    target: Word | None = None
    weights: WeightVector | None = None

    def terms(self) -> tuple[list[tuple[int, ...]], int] | None:
        """(g, den) with f(x) = sum_i g[i][x_i] / den, or None for ``indicator``."""
        m, n = self.alphabet_size, self.arity
        if self.name == "sum_of_symbols":
            return [tuple(range(m))] * n, 1
        if self.name == "indicator":
            return None
        if self.weights is None:
            raise ValueError("hamming_to needs weights")
        w = self.weights
        return [tuple(0 if a == t else c for a in range(m)) for c, t in zip(w.nums, self.target)], w.den

    def table(self) -> TableFunction:
        """The dense table of f (m^n entries)."""
        m, n = self.alphabet_size, self.arity
        additive = self.terms()
        if additive is not None:
            return additive_table(m, *additive)
        nums = [0] * m**n
        nums[word_index(self.target, m, n)] = 1
        return TableFunction.from_numerators(m, n, nums)

    def oscillations(self) -> tuple[Rational, ...]:
        """Per coordinate i, max |f(x) - f(y)| over words differing only at i.

        An additive term's spread max g_i - min g_i (m - 1 for
        ``sum_of_symbols``, w_i for ``hamming_to``); 1 for ``indicator``;
        0 everywhere when m = 1.
        """
        additive = self.terms()
        if additive is None:
            return (rat(int(self.alphabet_size > 1)),) * self.arity
        g, den = additive
        return tuple(rat(max(t) - min(t), den) for t in g)


def project_numerators(nums: Sequence[int], m: int) -> list[int]:
    """k'(y) = sum_a k(a y) on numerators: the sum of the m equal blocks."""
    block = len(nums) // m
    projected = nums[:block]
    for lo in range(block, len(nums), block):
        projected = list(map(add, projected, nums[lo : lo + block]))
    return list(projected)

