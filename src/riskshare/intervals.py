"""Closed intervals with exact rational endpoints, and plain arithmetic on them.

Every endpoint is a `fractions.Fraction`, so interval sums, products and
differences are bit-exact: monetary results never depend on rounding order.
Floats are deliberately rejected at the boundary; callers pass ints, decimal
strings ("0.25"), ratio strings ("1/4") or Fractions. No policy lives here:
what a negative risk difference means is decided in :mod:`riskshare.risk`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ._frozen import frozen

Rationalish = Union[Fraction, int, str]

#: Most digits a decimal exponent may have: building 10**k for "1e<k>" takes time that grows with k.
_EXPONENT_DIGITS = 3


def as_fraction(value: Rationalish) -> Fraction:
    """Coerce an exact rational representation to Fraction.

    Accepts int, Fraction, and strings such as "3", "0.25", "1/4" or "2.5e3";
    an exponent has at most three digits. Floats raise TypeError: binary
    rounding must not leak into exact results.
    """
    return value if isinstance(value, Fraction) else Fraction(*_ratio(value))


def _ratio(value: Rationalish) -> tuple[int, int]:
    """``value`` read as :func:`as_fraction` reads it, and refused as it refuses it, as a numerator and a positive
    denominator, not always in lowest terms. A plain literal (:func:`_plain_ratio`) builds no Fraction."""
    if isinstance(value, str):
        text = value.strip()
        try:
            pair = _plain_ratio(text)
            if pair is None and len(text.lower().partition("e")[2].lstrip("+-0")) <= _EXPONENT_DIGITS:
                fraction = Fraction(text)
                return fraction.numerator, fraction.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
        if pair is None:
            raise ValueError(f"not a rational literal: {value!r} (exponent of more than {_EXPONENT_DIGITS} digits)")
        return pair
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(
        f"expected int, str or Fraction, got {type(value).__name__}; "
        "pass decimal strings instead of floats to keep arithmetic exact"
    )


def _plain_ratio(text: str) -> Optional[tuple[int, int]]:
    """``text`` as a ``(numerator, denominator)`` pair when it is an ASCII ``-?[0-9]+`` or ``-?[0-9]+/[0-9]+``
    with a nonzero denominator, else None: such a literal needs no regex. Beyond ``int``'s digit limit it raises
    ValueError, as ``Fraction`` does.
    """
    num, slash, den = text.partition("/")
    digits = num.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        return None
    if not slash:
        return int(num), 1
    if den.isascii() and den.isdigit() and den.strip("0"):
        return int(num), int(den)
    return None


@frozen
class Interval:
    """Closed range [lo, hi] of exact rationals, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo {self.lo} > hi {self.hi}")

    def contains(self, x: Rationalish) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


ZERO = Interval(Fraction(0), Fraction(0))


def interval_add(a: Interval, b: Interval) -> Interval:
    """[a.lo + b.lo, a.hi + b.hi]."""
    return Interval(a.lo + b.lo, a.hi + b.hi)


def interval_mul(a: Interval, b: Interval) -> Interval:
    """Endpoint-product interval, valid for all sign combinations."""
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def interval_sub(a: Interval, b: Interval) -> Interval:
    """[a.lo - b.hi, a.hi - b.lo], which may reach below zero."""
    return Interval(a.lo - b.hi, a.hi - b.lo)
