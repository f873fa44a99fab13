"""Formal power series: Catalan generating functions by Newton iteration."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalankit.exact import catalan
from catalankit.series import PowerSeries, gf_catalan2, series_mul


def test_gf_self_consistency():
    # the Catalan series c(x) satisfies c = 1 + x c^2
    order = 10
    c = gf_catalan2(Fraction(1, 2), Fraction(1, 4), order)
    c2 = series_mul(c, c)
    for n in range(1, order):
        assert c.coefficient(n) == c2.coefficient(n - 1)
    assert c.coefficient(0) == 1


def test_gf_catalan2_exact_rational_b():
    s = gf_catalan2(1, 4, 6)
    assert s.exact
    assert s.coefficient(0) == Fraction(1, 3)
    assert s.coefficient(1) == Fraction(1, 36)
    assert s.coefficient(2) == Fraction(7, 1728)


def test_gf_catalan2_reduces_to_catalan():
    # 1/(1/2 + sqrt(1/4 - x)) = 2/(1 + sqrt(1 - 4x)), the Catalan series
    for order in (2, 5, 10, 12, 40):
        s = gf_catalan2(Fraction(1, 2), Fraction(1, 4), order)
        assert s.exact
        assert [s.coefficient(n) for n in range(order)] == [catalan(n) for n in range(order)]


@pytest.mark.parametrize("b", [4, 2.0])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_gf_catalan2_has_the_requested_order(order, b):
    s = gf_catalan2(1, b, order)
    assert s.order == order
    assert s.exact == isinstance(b, int)


def test_gf_catalan2_float_fallback():
    s = gf_catalan2(1.0, 2.0, 8)
    assert not s.exact
    # against the closed form 1/(a + sqrt(b - x)) differentiated once:
    # coefficient 1 = 1 / (2 sqrt(b) (a + sqrt(b))^2)
    want = 1.0 / (2 * math.sqrt(2.0) * (1 + math.sqrt(2.0)) ** 2)
    assert s.coefficient(1) == pytest.approx(want, rel=1e-14)


def test_gf_catalan2_domain():
    with pytest.raises(ValueError):
        gf_catalan2(1, 0, 4)
    with pytest.raises(ValueError):
        gf_catalan2(-1, 4, 4)


def test_power_series_accessors():
    s = PowerSeries((Fraction(1), Fraction(2)))
    assert s.order == 2
    assert s.exact
    assert not PowerSeries((1.0, 2.0)).exact
    assert s.coefficient(1) == 2
    with pytest.raises(IndexError):
        s.coefficient(5)


def plain_product(s, t, order):
    """Schoolbook truncated convolution, the reference for series_mul."""
    out = [s[0] * 0] * order
    for i in range(order):
        if s[i]:
            for j in range(order - i):
                out[i + j] += s[i] * t[j]
    return out


# Exact series: a Fraction constant term (which makes the series exact),
# then any mix of ints and Fractions, zero and negative included.
_scalar = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=60),
)
exact_series = st.builds(
    lambda c0, rest: PowerSeries((Fraction(c0),) + tuple(rest)),
    _scalar,
    st.lists(_scalar, max_size=14),
)


@given(exact_series, exact_series)
@settings(max_examples=150, deadline=None)
def test_exact_mul_matches_fraction_convolution(s, t):
    order = min(s.order, t.order)
    want = plain_product(
        [Fraction(x) for x in s.coeffs], [Fraction(x) for x in t.coeffs], order
    )
    got = series_mul(s, t)
    assert got.order == order
    assert list(got.coeffs) == want
    assert all(type(x) is Fraction for x in got.coeffs)


@pytest.mark.parametrize("len_s, len_t", [(1, 1), (9, 5), (6, 12), (41, 41)])
def test_float_mul_bit_identical_to_plain_loop(len_s, len_t):
    rng = random.Random(len_s * 100 + len_t)
    s = tuple(rng.uniform(-3.0, 3.0) for _ in range(len_s))
    t = tuple(rng.choice((0.0, rng.uniform(-1e3, 1e3))) for _ in range(len_t))
    order = min(len_s, len_t)
    got = series_mul(PowerSeries(s), PowerSeries(t))
    want = plain_product(s, t, order)
    assert [x.hex() for x in got.coeffs] == [x.hex() for x in want]
