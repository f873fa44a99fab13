"""The two-parameter family C2(n; a, b): all representations cross-checked.

Frozen exact values were derived ahead of time from the power series of
1/(a + sqrt(b - x)), the generating function, and confirmed by
quadrature; the tests then hold every closed form to them.
"""

import math
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalankit.catalan2 import (
    Normalization,
    c2_double_factorial_sum,
    c2_gf_coefficient,
    c2_hyp_closed,
    c2_hyp_unbounded,
    c2_jacobi,
    c2_legendre,
    c2_legendre_eq0b,
    c2_quadrature,
)
from catalankit.checks import c2_table_check, printed_table_value
from catalankit.exact import catalan, double_factorial
from catalankit.quad import QuadratureError

# independently derived: series oracle, confirmed by quadrature
FROZEN = {
    (1, 4, 0): Fraction(1, 3),
    (1, 4, 1): Fraction(1, 36),
    (1, 4, 2): Fraction(7, 1728),
    (2, 1, 0): Fraction(1, 3),
    (2, 1, 1): Fraction(1, 18),
    (1, 1, 3): Fraction(5, 128),
}

EXACT_REPS = [c2_double_factorial_sum, c2_hyp_closed, c2_gf_coefficient]


@pytest.mark.parametrize("key", sorted(FROZEN))
@pytest.mark.parametrize("rep", EXACT_REPS)
def test_frozen_values_exact(key, rep):
    a, b, n = key
    v = rep(a, b, n)
    assert isinstance(v, Fraction)
    assert v == FROZEN[key]


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_frozen_values_jacobi(key):
    a, b, n = key
    if n >= 1:
        assert c2_jacobi(a, b, n) == FROZEN[key]


@pytest.mark.parametrize("key", sorted(FROZEN))
def test_frozen_values_quadrature(key):
    a, b, n = key
    got = c2_quadrature(a, b, n, tol=1e-12).value
    assert got == pytest.approx(float(FROZEN[key]), rel=1e-11)


def test_catalan_specialization():
    # C2(n; 1/2, 1/4) = C_n exactly, every exact route
    a, b = Fraction(1, 2), Fraction(1, 4)
    for n in range(11):
        target = catalan(n)
        assert c2_double_factorial_sum(a, b, n) == target
        assert c2_hyp_closed(a, b, n) == target
        assert c2_gf_coefficient(a, b, n) == target
        if n >= 1:
            assert c2_jacobi(a, b, n) == target


def test_unbounded_2f1_route():
    # valid wherever |1 - b/a^2| < 1; checked against the terminating form
    for a, b, n in [(1, 1, 2), (2, 4, 3), (1.5, 2.0, 5), (1, 1.5, 0)]:
        got = c2_hyp_unbounded(a, b, n)
        want = float(c2_hyp_closed(a, b, n))
        assert got == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        c2_hyp_unbounded(1, 4, 2)  # |1 - 4| = 3
    with pytest.raises(ValueError):
        c2_hyp_unbounded(0, 1, 2)


def test_legendre_sec2_matches_closed_form():
    for a, b, n in [(1, 4, 1), (1, 4, 2), (1, 4, 5), (1, 2, 3), (0.5, 1.0, 4)]:
        got = c2_legendre(a, b, n)
        want = float(c2_hyp_closed(a, b, n))
        assert got == pytest.approx(want, rel=1e-11)


def test_legendre_eq0b_known_offset():
    # the printed eq0b prefactor is off by a^n (b-a^2)^((n+1)/2)/(sqrt(b)-a)^(2n+1)
    a, b, n = 1, 4, 2
    ratio = c2_legendre_eq0b(a, b, n) / float(c2_hyp_closed(a, b, n))
    assert ratio == pytest.approx(3.0**1.5, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: the SEC2 prefactor overflows to inf "
                   "before its product with P brings it back into the float range")
def test_legendre_sec2_past_an_overflowed_prefactor():
    a, b, n = 9e-11, 1e-20, 15
    want = float(c2_hyp_closed(a, b, n))  # about 5.4617e307
    assert c2_legendre(a, b, n) == pytest.approx(want, rel=1e-9)


def test_legendre_domain():
    for rep in (c2_legendre, c2_legendre_eq0b):
        with pytest.raises(ValueError, match="n >= 1"):
            rep(1, 4, 0)
        with pytest.raises(ValueError, match="sqrt"):
            rep(2, 4, 1)  # a = sqrt(b)
        with pytest.raises(ValueError, match="sqrt"):
            rep(3, 4, 1)


def test_paper_normalization_is_pi_times_gf():
    for rep in (c2_hyp_closed, c2_jacobi):
        gf = rep(1, 4, 2)
        printed = rep(1, 4, 2, Normalization.PRINTED_PI)
        assert printed == pytest.approx(math.pi * float(gf), rel=1e-15)


def test_printed_table_against_quadrature():
    errors = c2_table_check()
    assert len(errors) == 30
    assert max(errors) < 1e-10


def test_printed_table_values_direct():
    # pi * C2 for the n = 1 entry at (1, 4): pi / (2 (1+2)^2 * 2)
    assert printed_table_value(1, 4, 1) == pytest.approx(math.pi / 36, rel=1e-15)
    with pytest.raises(ValueError):
        printed_table_value(1, 4, 6)


@pytest.mark.xfail(raises=QuadratureError, strict=True,
                   reason="ROADMAP item 10: the mass of a large b sits next to u = 1, "
                   "where a Kronrod node rounds onto the map's end")
def test_quadrature_at_a_large_b():
    a, b, n = 1, 3.7e35, 2
    want = float(c2_hyp_closed(a, b, n))  # about 4.5033e-90
    assert c2_quadrature(a, b, n).value == pytest.approx(want, rel=1e-8)


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="ROADMAP item 10: the integrand's mass sits far from the map's "
                   "scale 1, and the error estimate misses the value's error")
@pytest.mark.parametrize("a, b, n", [(1e-241, 3.7e45, 5), (1e118, 2e32, 1)])
def test_quadrature_error_estimate_covers_its_error(a, b, n):
    # (1e-241, 3.7e45, 5): 6.58e-257 against 5.834e-252, with err 6.6e-267;
    # (1e118, 2e32, 1): 1.6% low, with err 3.5e-263 after 494100 evaluations
    got = c2_quadrature(a, b, n)
    assert abs(got.value - c2_hyp_closed(a, b, n)) <= got.abs_err_est


def test_double_factorial_sum_at_a_zero():
    # a = 0 is inside the sum's domain: C2(0; 0, b) = 1/sqrt(b)
    assert c2_double_factorial_sum(0, 4, 0) == Fraction(1, 2)
    assert c2_double_factorial_sum(0, 4, 1) == c2_gf_coefficient(0, 4, 1)


def test_float_inputs_take_float_path():
    v = c2_double_factorial_sum(1.0, 4.0, 2)
    assert isinstance(v, float)
    assert v == pytest.approx(float(Fraction(7, 1728)), rel=1e-15)


def test_irrational_sqrt_falls_back_to_float():
    v = c2_hyp_closed(1, 2, 3)
    assert isinstance(v, float)
    assert v == pytest.approx(c2_quadrature(1, 2, 3, tol=1e-12).value, rel=1e-10)


def test_domain_validation():
    for bad in [(-1, 4, 0), (1, 0, 0), (1, -2, 1)]:
        with pytest.raises(ValueError):
            c2_double_factorial_sum(*bad)
    with pytest.raises(ValueError):
        c2_quadrature(0, 4, 1)
    with pytest.raises(ValueError):
        c2_jacobi(1, 4, 0)


@pytest.mark.parametrize("rep", [
    c2_double_factorial_sum, c2_quadrature, c2_hyp_closed, c2_hyp_unbounded, c2_jacobi,
    c2_legendre, c2_legendre_eq0b,
    c2_gf_coefficient, printed_table_value,
], ids=["double_factorial", "quadrature", "hyp_closed", "hyp_unbounded", "jacobi",
        "legendre_sec2", "legendre_eq0b", "gf_coefficient", "printed_table"])
@pytest.mark.parametrize("a, b", [(1, math.inf), (math.inf, 4), (math.inf, math.inf)])
def test_every_route_refuses_an_infinite_input(rep, a, b):
    # an infinity is no rational, and the quadrature once returned 0 with err 0
    with pytest.raises(ValueError, match="must be finite"):
        rep(a, b, 2)


@given(
    st.fractions(min_value=Fraction(1, 10), max_value=5),
    st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(4), Fraction(9, 4)]),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_exact_reps_agree_everywhere(a, b, n):
    # rational a, rational sqrt(b): all exact routes must agree exactly
    sum_v = c2_double_factorial_sum(a, b, n)
    assert isinstance(sum_v, Fraction)
    assert c2_hyp_closed(a, b, n) == sum_v
    assert c2_gf_coefficient(a, b, n) == sum_v
    if n >= 1:
        assert c2_jacobi(a, b, n) == sum_v


def _plain_double_factorial_sum(a, b, n):
    """The double-factorial sum term by term in Fraction arithmetic, for
    a rational sqrt(b)."""
    root = Fraction(math.isqrt(b.numerator), math.isqrt(b.denominator))
    base = 1 + a / root
    total = Fraction(0)
    for k in range(n + 1):
        top, bot = 2 * n - k - 1, 2 * (n - k)
        weight = (1 if bot == 0 else 0) if top < 0 else comb(top, bot)
        weight *= factorial(k) * double_factorial(2 * (n - k) - 1)
        total += weight / base ** (k + 1)
    return total / (double_factorial(2 * n) * b**n * root)


@given(
    st.one_of(
        st.integers(min_value=0, max_value=9),
        st.fractions(min_value=0, max_value=20, max_denominator=50),
    ),
    st.fractions(min_value=Fraction(1, 20), max_value=12, max_denominator=20).map(
        lambda r: r * r
    ),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=80, deadline=None)
def test_double_factorial_sum_matches_plain_fraction_loop(a, b, n):
    assert c2_double_factorial_sum(a, b, n) == _plain_double_factorial_sum(a, b, n)


@pytest.mark.parametrize(
    "a, b",
    [
        (0, 4), (1, 4), (2, 4), (3, 4),
        (0, Fraction(9, 4)), (Fraction(1, 3), Fraction(9, 4)),
        (Fraction(3, 2), Fraction(9, 4)), (Fraction(7, 3), Fraction(9, 4)),
    ],
)
def test_exact_gf_coefficient_at_n_40(a, b):
    # a = 0, a < sqrt(b), a = sqrt(b) and a > sqrt(b) at the largest n the
    # c2 benchmark draws; the gf route must agree exactly with the sums
    want = c2_double_factorial_sum(a, b, 40)
    assert isinstance(want, Fraction)
    assert c2_gf_coefficient(a, b, 40) == want
    assert c2_hyp_closed(a, b, 40) == want


@given(
    st.floats(min_value=0.2, max_value=4.0, allow_nan=False),
    st.floats(min_value=0.3, max_value=5.0, allow_nan=False),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_sum_matches_quadrature_on_floats(a, b, n):
    got = c2_double_factorial_sum(a, b, n)
    want = c2_quadrature(a, b, n, tol=1e-11).value
    assert got == pytest.approx(want, rel=1e-9)
