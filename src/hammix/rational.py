"""Exact rational arithmetic backend.

Every inequality this package verifies is checked with exact rational
comparisons, so no module is allowed to round.  The working type is
``gmpy2.mpq`` when gmpy2 is importable (its arithmetic is an order of
magnitude faster than ``fractions.Fraction``) and ``fractions.Fraction``
otherwise.  The simplex pivots on Python integers (fraction-free rows), so
there the backend only carries the inputs and the final vertex and duals.
The two types interoperate: ``==``, ``hash`` and mixed arithmetic agree,
so callers may hand any of int / Fraction / mpq / string to the functions
in this package.

Floats are deliberately rejected by :func:`rat`: a float argument is almost
always a bug (silent precision loss).  Parse decimal *strings* instead,
which convert exactly ("0.125" -> 1/8).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Sequence, Union

try:
    from gmpy2 import mpq as _mpq

    _HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpq = Fraction
    _HAVE_GMPY2 = False

#: Accepted spellings of an exact rational in public signatures.
RationalLike = Union[int, str, Rational]


def rat(value: RationalLike, den: RationalLike | None = None) -> Rational:
    """Construct an exact rational.

    Accepts ints, Fractions, mpq, and strings in ratio ("3/2") or decimal
    ("0.125") form.  A second argument gives a numerator/denominator pair.
    Floats raise TypeError; convert them deliberately via ``str`` or
    ``Fraction(f)`` at the call site if the binary value is truly intended.
    A value already of the backend type is immutable and returned as is.
    """
    if den is None and type(value) is _mpq:
        return value
    if isinstance(value, float) or isinstance(den, float):
        raise TypeError(
            "refusing to convert float to exact rational; "
            "pass a decimal string such as '0.125' instead"
        )
    if den is not None:
        if type(value) is int and type(den) is int:
            return _mpq(value, den)
        return _mpq(rat(value), rat(den))
    if isinstance(value, str):
        # Fraction's parser accepts both "p/q" and decimal notation and is
        # exact in both cases; normalize through it for uniform errors.  It
        # builds 10**exponent outright, so exponents are held to the digit
        # limit Python already puts on int strings.
        try:
            _, _, exponent = value.upper().partition("E")
            limit = sys.get_int_max_str_digits()
            if exponent and limit and abs(int(exponent)) > limit:
                raise ValueError(f"decimal exponent exceeds {limit} digits")
            return _mpq(Fraction(value.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}: {exc}") from None
    if isinstance(value, Rational):
        return _mpq(value)
    raise TypeError(f"cannot convert {type(value).__name__} to exact rational")


def over_common_denominator(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over their least common denominator.

    Returns the numerators and that denominator.
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def rat_str(value: Rational) -> str:
    """Serialize a rational as "p/q" with the denominator always present."""
    return f"{value.numerator}/{value.denominator}"


def rat_from_float(value: float) -> Rational:
    """Exact rational value of a float (its binary expansion, no rounding)."""
    return _mpq(Fraction(value))


ZERO = rat(0)
ONE = rat(1)
