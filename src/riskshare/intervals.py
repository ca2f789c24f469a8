"""Closed intervals with exact rational endpoints.

Every endpoint is a `fractions.Fraction`, so interval sums, products and
differences are bit-exact: monetary results never depend on rounding order.
Floats are deliberately rejected at the boundary; callers pass ints, decimal
strings ("0.25"), ratio strings ("1/4") or Fractions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ClampWarning

Rationalish = Union[Fraction, int, str]


def as_fraction(value: Rationalish) -> Fraction:
    """Coerce an exact rational representation to Fraction.

    Accepts int, Fraction, and strings such as "3", "0.25" or "1/4".
    Floats raise TypeError: binary rounding must not leak into exact results.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    raise TypeError(
        f"expected int, str or Fraction, got {type(value).__name__}; "
        "pass decimal strings instead of floats to keep arithmetic exact"
    )


@dataclass(frozen=True)
class Interval:
    """Closed range [lo, hi] of exact rationals, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_fraction(self.lo))
        object.__setattr__(self, "hi", as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo {self.lo} > hi {self.hi}")

    @classmethod
    def point(cls, x: Rationalish) -> "Interval":
        x = as_fraction(x)
        return cls(x, x)

    def contains(self, x: Rationalish) -> bool:
        x = as_fraction(x)
        return self.lo <= x <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return interval_add(self, other)

    def __mul__(self, other: "Interval") -> "Interval":
        return interval_mul(self, other)

    def __sub__(self, other: "Interval") -> "Interval":
        return interval_sub(self, other)

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


def interval_sub(a: Interval, b: Interval, clamp_at_zero: bool = False) -> Interval:
    """[a.lo - b.hi, a.hi - b.lo], optionally clamped into the non-negative range.

    With ``clamp_at_zero`` both endpoints are raised to at least 0; a
    :class:`ClampWarning` is emitted when clamping actually changed the result,
    so negative "improvements" stay auditable instead of silently vanishing.
    """
    lo = a.lo - b.hi
    hi = a.hi - b.lo
    if clamp_at_zero and lo < 0:
        raw = Interval(lo, hi)
        lo = Fraction(0)
        hi = max(hi, Fraction(0))
        warnings.warn(
            f"interval difference {raw} clamped to [{lo}, {hi}]",
            ClampWarning,
            stacklevel=2,
        )
    return Interval(lo, hi)
