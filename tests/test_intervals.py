import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskshare import Interval, as_fraction, interval_add, interval_mul, interval_sub

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)


def intervals(draw_lo=rationals, draw_hi=rationals):
    return st.tuples(draw_lo, draw_hi).map(lambda t: Interval(min(t), max(t)))


class TestConstruction:
    def test_coerces_strings_and_ints(self):
        iv = Interval("0.5", 2)
        assert iv.lo == Fraction(1, 2)
        assert iv.hi == Fraction(2)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(2, 1)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Interval(0.5, 1)
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_point(self):
        assert Interval.point("3/4") == Interval(Fraction(3, 4), Fraction(3, 4))


class TestAdd:
    def test_additive_identity(self):
        assert interval_add(Interval(0, 0), Interval(3, 4)) == Interval(3, 4)

    def test_endpoint_addition(self):
        assert interval_add(Interval(1, 2), Interval(3, 4)) == Interval(4, 6)

    def test_single_threat_loss_range(self):
        loss = Interval(2125900, 15622700)
        assert interval_add(loss, Interval(0, 0)) == loss


class TestMul:
    def test_zero_annihilates(self):
        assert interval_mul(Interval(0, 0), Interval(5, 9)) == Interval(0, 0)

    def test_certain_likelihood_keeps_loss_range(self):
        loss = Interval(2125900, 15622700)
        assert interval_mul(Interval(1, 1), loss) == loss

    def test_endpoint_products(self):
        assert interval_mul(Interval("0.5", "0.7"), Interval(100, 200)) == Interval(50, 140)

    def test_mixed_signs(self):
        assert interval_mul(Interval(-2, 3), Interval(-5, 4)) == Interval(-15, 12)


class TestSub:
    def test_subtracting_zero(self):
        assert interval_sub(Interval(5, 9), Interval(0, 0)) == Interval(5, 9)

    def test_endpoint_subtraction(self):
        assert interval_sub(Interval(50, 140), Interval(10, 40)) == Interval(10, 130)


@given(intervals(), intervals())
def test_results_are_valid_intervals(a, b):
    for result in (interval_add(a, b), interval_mul(a, b), interval_sub(a, b)):
        assert result.lo <= result.hi


@given(intervals(), intervals())
def test_add_and_mul_commute(a, b):
    assert interval_add(a, b) == interval_add(b, a)
    assert interval_mul(a, b) == interval_mul(b, a)


@given(intervals(), intervals(), intervals())
def test_add_and_mul_associate(a, b, c):
    assert interval_add(interval_add(a, b), c) == interval_add(a, interval_add(b, c))
    assert interval_mul(interval_mul(a, b), c) == interval_mul(a, interval_mul(b, c))


@given(rationals, rationals)
def test_point_intervals_reproduce_scalar_arithmetic(x, y):
    px, py = Interval.point(x), Interval.point(y)
    assert interval_add(px, py) == Interval.point(x + y)
    assert interval_mul(px, py) == Interval.point(x * y)
    assert interval_sub(px, py) == Interval.point(x - y)


def _point_inside(rng: random.Random, iv: Interval) -> Fraction:
    t = Fraction(rng.randint(0, 1000), 1000)
    return iv.lo + t * (iv.hi - iv.lo)


def test_containment_fuzz():
    """x in a, y in b implies x+y, x*y, x-y land in the respective results."""
    rng = random.Random(20230117)
    for _ in range(2000):
        lo_a, hi_a = sorted(Fraction(rng.randint(-500, 500), rng.randint(1, 20)) for _ in range(2))
        lo_b, hi_b = sorted(Fraction(rng.randint(-500, 500), rng.randint(1, 20)) for _ in range(2))
        a, b = Interval(lo_a, hi_a), Interval(lo_b, hi_b)
        x, y = _point_inside(rng, a), _point_inside(rng, b)
        assert interval_add(a, b).contains(x + y)
        assert interval_mul(a, b).contains(x * y)
        assert interval_sub(a, b).contains(x - y)
