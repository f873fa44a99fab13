"""The fractional-order family cf(n; a, b, p) across its four routes."""

import math
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalankit import qfunc
from catalankit.catalan2 import c2_hyp_closed
from catalankit.checks import cf_half_reduction_check
from catalankit.exact import _power_arithmetic, _to_float, rising_factorial
from catalankit.functional import (
    cf_double_sum,
    cf_quadrature,
    cf_series_as_printed,
    cf_series_detailed,
    cf_via_q,
)

HALF = Fraction(1, 2)

# frozen: derived from the double sum in exact arithmetic, confirmed by
# quadrature before freezing
FROZEN = {
    (1, 4, HALF, 0): Fraction(1, 3),
    (1, 4, HALF, 1): Fraction(1, 36),
    (2, 1, HALF, 1): Fraction(1, 18),
    (4, 16, HALF, 0): Fraction(1, 8),
    (1, 1, Fraction(37, 100), 1): Fraction(37, 400),
}


@pytest.mark.parametrize("key", [k for k in FROZEN], ids=str)
def test_frozen_double_sum(key):
    a, b, p, n = key
    v = cf_double_sum(a, b, p, n)
    assert isinstance(v, Fraction)
    assert v == FROZEN[key]


@pytest.mark.parametrize("key", [k for k in FROZEN], ids=str)
def test_frozen_quadrature(key):
    a, b, p, n = key
    got = cf_quadrature(a, b, p, n, tol=1e-12).value
    assert got == pytest.approx(float(FROZEN[key]), rel=1e-11)


def test_n_zero_closed_form():
    # cf(0; a, b, p) = 1/(a + b^p); p = 0.37 at (2, 1) gives exactly 1/3
    assert cf_double_sum(2, 1, Fraction(37, 100), 0) == Fraction(1, 3)
    assert cf_quadrature(2, 1, 0.37, 0, tol=1e-12).value == pytest.approx(
        1 / 3, rel=1e-11
    )


def test_boundary_value_bp_equal_a():
    # at b^p = a the only convergent route is the Q closed form:
    # cf(0; b^p, b, p) = 1/(2 b^p)
    for b, p in [(1, Fraction(1, 3)), (4, HALF), (8, Fraction(2, 3))]:
        a = Fraction(b) ** p if p.denominator == 1 else None
        a = {1: 1, 4: 2, 8: 4}[b]
        assert cf_via_q(a, b, p, 0) == Fraction(1, 2 * a)
        assert cf_via_q(a, b, p, 0) == cf_double_sum(a, b, p, 0)


def test_series_ascending_branch():
    ev = cf_series_detailed(2, 1, HALF, 1)
    assert ev.branch == "ascending"
    assert ev.ratio == pytest.approx(0.5)
    assert ev.value == pytest.approx(float(Fraction(1, 18)), rel=1e-13)


def test_series_descending_branch():
    ev = cf_series_detailed(1, 4, HALF, 1)
    assert ev.branch == "descending"
    assert ev.ratio == pytest.approx(2.0)
    assert ev.value == pytest.approx(float(Fraction(1, 36)), rel=1e-13)


def test_series_max_terms_exhausted(monkeypatch):
    # the term budget is the private constant of qfunc's stopping rule
    monkeypatch.setattr(qfunc, "_MAX_TERMS", 2)
    for series in (cf_series_detailed, cf_series_as_printed):
        # descending branch: y = b^p/a = 10/9
        with pytest.raises(RuntimeError, match="descending series: not converged after 2"):
            series(Fraction(9, 10), 1, HALF, 6)
        # ascending branch (q_series_with_terms): y = 9/10
        with pytest.raises(RuntimeError, match="q_series: not converged after 2 terms"):
            series(Fraction(10, 9), Fraction(81, 100), HALF, 6)


def test_series_ratio_takes_the_sqrt_b_of_c2():
    # 2.315 ** 0.5 and math.sqrt(2.315) differ in the last bit; at p = 1/2
    # the functional uses math.sqrt, the float of sqrt(b) that c2 uses
    b = 2.315
    assert b**0.5 != math.sqrt(b)
    for a in (3, 1):  # ascending and descending branch
        assert cf_series_detailed(a, b, HALF, 2).ratio == math.sqrt(b) / a


def test_series_boundary_rejected():
    with pytest.raises(ValueError, match="cf_via_q"):
        cf_series_detailed(2, 4, HALF, 1)
    with pytest.raises(ValueError):
        cf_series_detailed(0, 4, HALF, 1)


def test_printed_series_prefactor_ratio():
    # printed form uses n+1 where n! belongs: ratio n!/(n+1) on both branches
    for a, b in [(2, 1), (1, 4)]:
        for n in range(1, 5):
            ratio = cf_series_as_printed(a, b, HALF, n) / cf_series_detailed(a, b, HALF, n).value
            assert ratio == pytest.approx(math.factorial(n) / (n + 1), rel=1e-12)


def test_printed_series_spurious_term_at_n0():
    # descending branch printed from k = 0 adds a spurious +1 at n = 0
    printed = cf_series_as_printed(1, 4, HALF, 0)
    corrected = cf_series_detailed(1, 4, HALF, 0).value
    a, b = 1.0, 4.0
    assert printed == pytest.approx(corrected - 1.0 / a, rel=1e-12)


def test_via_q_requires_bp_at_most_a():
    with pytest.raises(ValueError):
        cf_via_q(1, 4, HALF, 1)
    assert isinstance(cf_via_q(3, 4, HALF, 2), Fraction)


@pytest.mark.parametrize("a, b", [(1, 1), (1, 4), (2, 1), (HALF, Fraction(1, 4))])
def test_half_reduction(a, b):
    for n in range(9):
        assert cf_half_reduction_check(a, b, n)


def test_half_reduction_is_exact_comparison():
    # both sides Fractions here, so the check is equality, not tolerance
    lhs = cf_double_sum(1, 4, HALF, 3)
    rhs = c2_hyp_closed(1, 4, 3)
    assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    assert lhs == rhs


def _rising_factorial_double_sum(a, b, p, n):
    """cf_double_sum with each inner sum built from rising_factorial
    Fractions, term by term; the outer sum as the library takes it."""
    power, cast = _power_arithmetic(b, p)
    inner = [sum((-1) ** m * comb(k, m) * rising_factorial(-Fraction(p) * m, n)
                 for m in range(k + 1)) for k in range(n + 1)]
    weight = 1 / (1 + cast(a) / power)
    terms = [cast(Fraction(x)) * weight**k for k, x in enumerate(inner)]
    if cast is Fraction:
        return sum(terms, Fraction(0)) / ((a + power) * factorial(n) * Fraction(b) ** n)
    return _to_float(math.fsum(terms) / ((cast(a) + power) * factorial(n) * cast(b) ** n))


@pytest.mark.parametrize("n", range(13))
def test_double_sum_equals_the_rising_factorial_formula(n):
    # exact at rational b^p; bit for bit on the float path
    for a, b, p in [(1, 4, HALF), (Fraction(2, 3), 8, Fraction(2, 3)), (0, 1, Fraction(5, 7)),
                    (3, Fraction(9, 4), HALF), (7, 1, Fraction(37, 100))]:
        got = cf_double_sum(a, b, p, n)
        assert isinstance(got, Fraction) and got == _rising_factorial_double_sum(a, b, p, n)
    for a, b, p in [(1, 2, Fraction(1, 3)), (0.3, 5, HALF), (2.5, 0.7, Fraction(4, 11)),
                    (1e-3, 3.7, 0.37)]:
        got = cf_double_sum(a, b, p, n)
        assert isinstance(got, float) and got == _rising_factorial_double_sum(a, b, p, n)


def test_double_sum_allows_a_zero():
    v = cf_double_sum(0, 4, HALF, 1)
    assert isinstance(v, Fraction)
    assert v == c2_hyp_closed(0, 4, 1)


def test_quadrature_requires_positive_a():
    with pytest.raises(ValueError):
        cf_quadrature(0, 4, HALF, 1)


def test_domain_validation():
    for bad in [(-1, 1, HALF, 0), (1, 0, HALF, 0), (1, 1, Fraction(3, 2), 0),
                (1, 1, Fraction(0), 0)]:
        with pytest.raises(ValueError):
            cf_double_sum(*bad)


def test_irrational_power_takes_float_path():
    v = cf_double_sum(1, 2, Fraction(1, 3), 2)
    assert isinstance(v, float)
    assert v == pytest.approx(cf_quadrature(1, 2, Fraction(1, 3), 2, tol=1e-12).value,
                              rel=1e-10)
    # via_q too, at y = 2^(1/3)/3 < 1
    w = cf_via_q(3, 2, Fraction(1, 3), 4)
    assert isinstance(w, float)
    assert w == pytest.approx(cf_double_sum(3, 2, Fraction(1, 3), 4), rel=1e-12)


@given(
    st.sampled_from([Fraction(1, 2), 1, 2, 4]),
    st.sampled_from([Fraction(1, 2), 1, 4]),
    st.fractions(min_value=Fraction(1, 5), max_value=Fraction(4, 5)),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_double_sum_matches_quadrature(a, b, p, n):
    got = float(cf_double_sum(a, b, p, n))
    want = cf_quadrature(a, b, p, n, tol=1e-11).value
    assert got == pytest.approx(want, rel=1e-8, abs=1e-12)


@given(
    st.sampled_from([1, 2, 4]),
    st.sampled_from([Fraction(1, 4), 1, 4]),
    st.fractions(min_value=Fraction(1, 5), max_value=Fraction(4, 5)),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_series_matches_double_sum_off_boundary(a, b, p, n):
    y = float(b) ** float(p) / a
    if abs(y - 1.0) < 0.1:
        return  # near the boundary convergence is slow; covered by via_q
    got = cf_series_detailed(a, b, p, n).value
    want = float(cf_double_sum(a, b, p, n))
    assert got == pytest.approx(want, rel=1e-10, abs=1e-15)


# Valid inputs where a float route divides by a power that underflowed to 0,
# although the value lies inside the float range.
@pytest.mark.xfail(raises=ZeroDivisionError, strict=True,
                   reason="ROADMAP item 4: the series' float a * b**n underflows to 0")
def test_series_at_an_underflowed_b_to_the_n():
    a, b, p, n = 10**150, Fraction(1, 10**150), Fraction(1, 6), 3
    want = float(cf_double_sum(a, b, p, n))  # about 4.2438e123
    assert cf_series_detailed(a, b, p, n).value == pytest.approx(want, rel=1e-8)


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True,
                   reason="ROADMAP item 10: the integrand's (b + t) ** power underflows to 0")
def test_quadrature_at_an_underflowed_integrand_power():
    a, b, p, n = 10**150, Fraction(1, 10**160), Fraction(1, 6), 3
    want = 9.1430484530674078e151  # 80-digit double sum; the float one underflows too
    assert cf_quadrature(a, b, p, n, tol=1e-10).value == pytest.approx(want, rel=1e-8)


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True,
                   reason="ROADMAP item 4: the float b**n of the scale underflows to 0")
@pytest.mark.parametrize("route", [cf_double_sum, cf_via_q], ids=["double_sum", "via_q"])
def test_double_sum_and_via_q_at_an_underflowed_b_to_the_n(route):
    a, b, p, n = 10**150, Fraction(1, 10**160), Fraction(1, 6), 3
    want = 9.1430484530674078e151  # 80-digit double sum
    assert _to_float(route(a, b, p, n)) == pytest.approx(want, rel=1e-8)
