"""Exact rational arithmetic.

Every inequality this package verifies is checked with exact rational
comparisons, so no module is allowed to round.  The one rational type is
``fractions.Fraction``.  The hot loops (the simplex, tables, eta_bar, the
martingale profile and the sampler) work on Python integers: numerators
over a common denominator.  Rationals carry only the inputs and the
reported values.  :func:`rat` accepts int, any ``numbers.Rational`` and
strings, so callers may hand any of them to the functions in this package.

That integer form has two rules, kept here: :func:`over_lcm` puts integer
ratios over their least common denominator (and
:func:`over_common_denominator` does so for rationals), and
:func:`lowest_terms` divides numerators and denominator by their gcd.

Floats are deliberately rejected by :func:`rat`: a float argument is almost
always a bug (silent precision loss).  Parse decimal *strings* instead,
which convert exactly ("0.125" -> 1/8).  Python limits int-to-string
conversion to ``sys.get_int_max_str_digits()`` digits, so :func:`rat`
refuses strings whose value would pass that limit, and :func:`rat_str`
raises :class:`DigitLimitError` for a value that does.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, inf, lcm, ulp
from numbers import Rational
from typing import Iterable, Sequence, Union

#: Accepted spellings of an exact rational in public signatures.
RationalLike = Union[int, str, Rational]


def rat(value: RationalLike, den: RationalLike | None = None) -> Fraction:
    """Construct an exact rational.

    Accepts ints, any ``numbers.Rational``, and strings in ratio ("3/2") or
    decimal ("0.125") form.  A second argument gives a numerator/denominator
    pair.  Floats raise TypeError; convert them deliberately via ``str`` or
    ``Fraction(f)`` at the call site if the binary value is truly intended.
    A Fraction is immutable and returned as is.
    """
    if den is None and type(value) is Fraction:
        return value
    if isinstance(value, float) or isinstance(den, float):
        raise TypeError(
            "refusing to convert float to exact rational; "
            "pass a decimal string such as '0.125' instead"
        )
    if den is not None:
        if type(value) is int and type(den) is int:
            return Fraction(value, den)
        return Fraction(rat(value), rat(den))
    if isinstance(value, str):
        # Fraction's parser accepts both "p/q" and decimal notation and is
        # exact in both cases; normalize through it for uniform errors.  It
        # builds 10**exponent outright, so exponents are held to the digit
        # limit Python already puts on int strings, and so is the value: a
        # numerator or denominator past the limit could never be printed.
        try:
            _, _, exponent = value.upper().partition("E")
            limit = sys.get_int_max_str_digits()
            if exponent and limit and abs(int(exponent)) > limit:
                raise ValueError(f"decimal exponent exceeds {limit} digits")
            parsed = Fraction(value.strip())
            if limit and _too_long(parsed, limit):
                raise ValueError(f"value has more than {limit} digits")
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}: {exc}") from None
        return parsed
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"cannot convert {type(value).__name__} to exact rational")


def over_lcm(nums: Iterable[int], dens: Sequence[int]) -> tuple[list[int], int]:
    """The ratios nums[i] / dens[i] (dens[i] > 0) over their least common denominator.

    Returns the scaled numerators and that denominator.
    """
    den = lcm(*dens)
    return [p * (den // q) for p, q in zip(nums, dens)], den


def over_common_denominator(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator.

    Returns the numerators and that denominator.
    """
    return over_lcm([v.numerator for v in values], [v.denominator for v in values])


def lowest_terms(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """nums over den (den > 0) divided by their gcd, which puts them in lowest terms.

    A reduced pair is returned as a new tuple of numerators; when the gcd
    is 1 the arguments come back unchanged.
    """
    g = gcd(den, *nums)
    if g == 1:
        return nums, den
    return tuple([x // g for x in nums]), den // g


def _too_long(value: Rational, limit: int) -> bool:
    """Whether the numerator or denominator has more than ``limit`` digits.

    10**limit has more than 3 * limit bits, so shorter ints are decided
    without building it.
    """
    return any(
        abs(x).bit_length() > 3 * limit and abs(x) >= 10**limit
        for x in (value.numerator, value.denominator)
    )


class DigitLimitError(ValueError):
    """A rational too long for Python's int-to-string digit limit."""


def rat_str(value: Rational) -> str:
    """Serialize a rational as "p/q" with the denominator always present.

    Raises :class:`DigitLimitError` when the numerator or denominator has
    more digits than ``sys.get_int_max_str_digits()`` allows.
    """
    limit = sys.get_int_max_str_digits()
    if limit and _too_long(value, limit):
        raise DigitLimitError(f"an exact value has more than {limit} digits, which cannot be printed")
    return f"{value.numerator}/{value.denominator}"


def float_from_rat(value: Rational) -> float:
    """float(value) for a nonnegative rational, kept away from the float limits.

    Inside the float range this is float()'s nearest rounding.  Past the
    largest float it is inf instead of an OverflowError, and a positive
    value below the smallest positive float becomes that float instead of
    0.0, so a positive variance never reads as zero.
    """
    try:
        result = float(value)
    except OverflowError:
        return inf
    return result if result or not value else ulp(0.0)


def rat_from_float(value: float) -> Fraction:
    """Exact rational value of a float (its binary expansion, no rounding)."""
    return Fraction(value)

