"""Hypergeometric series, Jacobi and associated Legendre evaluation."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catalankit import hyper
from catalankit.exact import rising_factorial
from catalankit.hyper import (
    HypConvergenceError,
    HypergeometricError,
    _sum_terminating,
    assoc_legendre_p,
    gauss_2f1,
    jacobi_p,
    pfq_series,
)

mpmath.mp.dps = 30


def test_terminating_2f1_is_exact():
    v = gauss_2f1(-3, -2, 2, 1)
    assert isinstance(v, Fraction)
    assert v == 5


@given(
    st.integers(min_value=0, max_value=8),
    st.fractions(min_value=Fraction(-3), max_value=3),
    st.fractions(min_value=Fraction(1, 4), max_value=4),
)
@settings(max_examples=50)
def test_chu_vandermonde(n, b, c):
    # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n, valid since c > 0 here
    lhs = gauss_2f1(-n, b, c, 1)
    assert lhs == rising_factorial(c - b, n) / rising_factorial(c, n)


@pytest.mark.parametrize(
    "a, b, c, z",
    [
        (0.5, 1.5, 2.5, 0.3),
        (1.0, 2.0, 3.5, -0.4),
        (0.25, 0.75, 1.25, 0.6),
        (2.0, 1.0, 4.0, 0.85),
    ],
)
def test_convergent_2f1_against_mpmath(a, b, c, z):
    got = gauss_2f1(a, b, c, z)
    want = float(mpmath.hyp2f1(a, b, c, z))
    assert got == pytest.approx(want, rel=1e-13)


def test_pfq_3f2_against_mpmath():
    got = pfq_series((0.5, 1.0, 1.5), (2.0, 2.5), 0.4)
    want = float(mpmath.hyper([0.5, 1.0, 1.5], [2.0, 2.5], 0.4))
    assert got == pytest.approx(want, rel=1e-13)


def test_lower_parameter_pole_rejected():
    with pytest.raises(HypergeometricError):
        gauss_2f1(0.5, 0.5, -2, 0.3)
    # but a terminating series may stop before reaching the pole
    v = gauss_2f1(-2, 1, Fraction(-7, 2), 1)
    assert isinstance(v, Fraction)


def _plain_fraction_sum(upper, lower, z, k_max):
    """The terminating sum term by term in Fraction arithmetic."""
    up = [Fraction(u) for u in upper]
    lo = [Fraction(v) for v in lower]
    zf = Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(k_max + 1):
        total += term
        if k == k_max:
            break
        num = Fraction(1)
        for u in up:
            num *= u + k
        if num == 0:
            break
        den = Fraction(k + 1)
        for v in lo:
            if v + k == 0:
                raise HypergeometricError(
                    f"lower parameter {v} hits a pole at term {k + 1}"
                )
            den *= v + k
        term = term * num * zf / den
    return total


def _outcome(f, *args):
    try:
        return f(*args)
    except HypergeometricError as exc:
        return type(exc), str(exc)


# ints and integer-valued floats reach early zeros and poles; floats are
# 53-bit dyadic rationals
_HYP_PARAM = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.fractions(min_value=-8, max_value=8, max_denominator=8),
    st.integers(min_value=-12, max_value=6).map(float),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)
_HYP_Z = st.one_of(
    st.just(0),
    st.fractions(min_value=-2, max_value=2, max_denominator=9),
    st.floats(min_value=-2, max_value=2, allow_nan=False),
)


@given(
    st.lists(_HYP_PARAM, max_size=3),
    st.lists(_HYP_PARAM, max_size=3),
    _HYP_Z,
    st.integers(min_value=0, max_value=40),
)
@example([], [-1], 0, 4)  # z = 0 still reaches the pole of a lower parameter
@example([-2, 0.5], [-3], Fraction(1, 3), 10)  # upper zero before the pole
@example([0.5, 1.5], [-2.0], 0.25, 0)  # k_max = 0 stops before any pole
@settings(max_examples=300, deadline=None)
def test_terminating_sum_matches_plain_fraction_loop(upper, lower, z, k_max):
    want = _outcome(_plain_fraction_sum, upper, lower, z, k_max)
    got = _outcome(_sum_terminating, upper, lower, z, k_max)
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize(
    "cut, kind",
    [(-3, float), (Fraction(-3), Fraction), (-3.0, float)],
)
def test_pfq_terminates_on_a_nonpositive_integer_upper_parameter(cut, kind):
    # z = 2 lies outside the disc, so only a terminating sum has a value
    other = Fraction(1, 2) if kind is Fraction else 0.5
    low = Fraction(3, 2) if kind is Fraction else 1.5
    got = pfq_series((cut, other), (low,), 2)
    assert type(got) is kind
    want = _plain_fraction_sum((-3, Fraction(1, 2)), (Fraction(3, 2),), 2, 3)
    assert got == (want if kind is Fraction else float(want))


def test_pfq_converges_without_a_nonpositive_integer_upper_parameter():
    got = pfq_series((Fraction(-5, 2), Fraction(1, 2)), (Fraction(3, 2),), Fraction(1, 2))
    assert isinstance(got, float)
    want = float(mpmath.hyper([-2.5, 0.5], [1.5], 0.5))
    assert got == pytest.approx(want, rel=1e-13)
    with pytest.raises(HypergeometricError):
        pfq_series((Fraction(-5, 2), Fraction(1, 2)), (Fraction(3, 2),), 2)


def test_divergent_argument_rejected():
    with pytest.raises(HypergeometricError):
        gauss_2f1(0.5, 1.5, 2.5, 1.2)


@pytest.mark.parametrize("z", [float("-inf"), float("inf"), float("nan")])
def test_terminating_sum_refuses_a_float_argument_that_is_not_finite(z):
    # a ValueError naming z, not Fraction's OverflowError or ValueError
    with pytest.raises(HypergeometricError, match=f"argument z = {z} is not finite"):
        gauss_2f1(-2, 1.5, 3, z)
    # an exact argument past the float range is still summed exactly
    assert gauss_2f1(-1, 1, 1, Fraction(10**400)) == 1 - 10**400


def test_convergence_budget_enforced(monkeypatch):
    monkeypatch.setattr(hyper, "_MAX_TERMS", 10)
    with pytest.raises(HypConvergenceError, match="not settled after 10 terms"):
        pfq_series((0.5, 1.5), (2.5,), 0.999)


def test_terminating_budget_refuses_before_summing(monkeypatch):
    # a cut of 10**65 terms once summed without end; now it raises at once
    with pytest.raises(HypConvergenceError, match="needs more than 100000 terms"):
        pfq_series((-(10**65), 2), (Fraction(1, 3),), Fraction(-1, 2))
    monkeypatch.setattr(hyper, "_MAX_TERMS", 3)
    assert pfq_series((-3, 1), (1,), -1) == 1 + 3 + 3 + 1
    with pytest.raises(HypConvergenceError, match="needs more than 3 terms"):
        jacobi_p(4, 0, 0, Fraction(1, 2))


@pytest.mark.parametrize(
    "n, alpha, beta, x",
    [
        (0, 1.0, 2.0, 0.3),
        (1, 0.5, -0.5, 0.7),
        (3, 2.0, 1.0, -0.2),
        (4, 3.0, -2.0, 0.5),
    ],
)
def test_jacobi_against_mpmath(n, alpha, beta, x):
    got = float(jacobi_p(n, alpha, beta, x))
    want = float(mpmath.jacobi(n, alpha, beta, x))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_jacobi_exact_rational():
    assert jacobi_p(2, 4, -4, Fraction(0)) == Fraction(15, 2)
    assert isinstance(jacobi_p(3, 1, 1, Fraction(1, 2)), Fraction)


@pytest.mark.parametrize(
    "nu, mu, x",
    [
        (0, -2, 0.5),
        (1, -2, 0.5),
        (1, -3, 0.25),
        (2, -4, 0.8),
        (4, -6, 0.6),
    ],
)
def test_assoc_legendre_against_mpmath(nu, mu, x):
    got = assoc_legendre_p(nu, mu, x)
    want = float(mpmath.legenp(nu, mu, x))
    assert got == pytest.approx(want, rel=1e-11)


def test_assoc_legendre_closed_forms():
    # P_0^(-2)(x) = ((1-x)/(1+x))/2, P_1^(-2)(x) = ((1-x)/(1+x)) (2+x)/6
    x = 0.5
    assert assoc_legendre_p(0, -2, x) == pytest.approx(1 / 6, rel=1e-13)
    assert assoc_legendre_p(1, -2, x) == pytest.approx(5 / 36, rel=1e-13)


def test_assoc_legendre_domain():
    with pytest.raises(ValueError):
        assoc_legendre_p(1, -2, 1.0)
    with pytest.raises(ValueError):
        assoc_legendre_p(1, -2, 0.0)
