"""The auxiliary series Q(n, y, p): closed forms, identities, published tables.

The partial-fraction table (n = 0..4) and the z = y+1 bracket rows
(n = 1..5) are transcribed from the published source; the n = 4 bracket
carries the degree repair -14z -> -14z^2 (see the errata command).
"""

import math
import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalankit.checks import (
    boyadzhiev_check,
    pochhammer_derivative_check,
    q_derivative_form_check,
    q_recurrence_check,
    zform_bracket,
    zform_check,
)
from catalankit.exact import Polynomial, RationalFunction, rising_factorial
from catalankit.functional import cf_series_detailed
from catalankit.qfunc import (
    _pochhammer_series,
    _predicted_terms,
    q_hyp,
    q_polylog,
    q_rational,
    q_rational_recurrence,
    q_recurrence_value,
    q_series_with_terms,
    q_stirling,
    series_tail_bound,
)

# published partial-fraction table: entry n -> [(denominator power j of
# (y+1), numerator polynomial in p, coefficients ascending)], signs folded in
PRINTED_Q_TABLE = {
    0: [(1, [1])],
    1: [(2, [0, -1]), (1, [0, 1])],
    2: [(3, [0, 0, 2]), (2, [0, -1, -3]), (1, [0, 1, 1])],
    3: [
        (4, [0, 0, 0, -6]),
        (3, [0, 0, 6, 12]),
        (2, [0, -2, -9, -7]),
        (1, [0, 2, 3, 1]),
    ],
    4: [
        (5, [0, 0, 0, 0, 24]),
        (4, [0, 0, 0, -36, -60]),
        (3, [0, 0, 22, 72, 50]),
        (2, [0, -6, -33, -42, -15]),
        (1, [0, 6, 11, 6, 1]),
    ],
}

# published z-form bracket rows as {(z_power, p_power): coefficient};
# n = 4 includes the -14z^2 repair
PRINTED_ZFORM = {
    1: {(0, 0): 1},
    2: {(1, 0): 1, (1, 1): 1, (0, 1): -2},
    3: {(2, 0): 2, (2, 1): 3, (1, 1): -6, (2, 2): 1, (1, 2): -6, (0, 2): 6},
    4: {
        (3, 0): 6,
        (3, 1): 11, (2, 1): -22,
        (3, 2): 6, (2, 2): -36, (1, 2): 36,
        (3, 3): 1, (2, 3): -14, (1, 3): 36, (0, 3): -24,
    },
    5: {
        (4, 0): 24,
        (4, 1): 50, (3, 1): -100,
        (4, 2): 35, (3, 2): -210, (2, 2): 210,
        (4, 3): 10, (3, 3): -140, (2, 3): 360, (1, 3): -240,
        (4, 4): 1, (3, 4): -30, (2, 4): 150, (1, 4): -240, (0, 4): 120,
    },
}

P_SAMPLES = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 7),
             Fraction(3, 7), Fraction(5, 11)]


def _table_rational(n: int, p: Fraction) -> RationalFunction:
    """Build the printed table entry as an exact rational function of y."""
    one_plus_y = Polynomial([1, 1])
    top_power = max(j for j, _ in PRINTED_Q_TABLE[n])
    den = Polynomial([1])
    for _ in range(top_power):
        den = den * one_plus_y
    num = Polynomial([])
    for j, coeffs in PRINTED_Q_TABLE[n]:
        c = sum(Fraction(ci) * p**i for i, ci in enumerate(coeffs))
        lift = Polynomial([c])
        for _ in range(top_power - j):
            lift = lift * one_plus_y
        num = num + lift
    return RationalFunction(num, den)


@pytest.mark.parametrize("n", sorted(PRINTED_Q_TABLE))
@pytest.mark.parametrize("p", P_SAMPLES)
def test_printed_table_matches_polylog_route(n, p):
    # both sides are rational in y; coefficients are degree-n in p, so
    # agreement at len(P_SAMPLES) >= n+2 sample values proves identity
    assert q_rational(n, p) == _table_rational(n, p)


@pytest.mark.parametrize("n", sorted(PRINTED_ZFORM))
def test_printed_zform_brackets(n):
    got = zform_bracket(n)
    want = {key: Fraction(c) for key, c in PRINTED_ZFORM[n].items()}
    assert got == want


@pytest.mark.parametrize("n", range(1, 6))
def test_zform_identity(n):
    assert zform_check(n)


@pytest.mark.parametrize("n", range(6))
def test_closed_forms_agree_exactly(n):
    for y in (Fraction(0), Fraction(1, 4), Fraction(9, 10), Fraction(1), Fraction(3)):
        for p in (Fraction(1, 2), Fraction(2, 7)):
            stirling = q_stirling(n, y, p)
            assert isinstance(stirling, Fraction)
            assert q_recurrence_value(n, y, p) == stirling
            if n >= 1:
                assert q_polylog(n, y, p) == stirling


@pytest.mark.parametrize("n", [16, 30])
@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 5)])
def test_closed_forms_agree_exactly_at_large_n(n, p):
    # n = 30 lies in the range where the recurrence route once hung. It is
    # built once per (n, p); q_recurrence_value rebuilds it per call, so
    # it is checked at one y only.
    recurrence = q_rational_recurrence(n, p)
    assert q_recurrence_value(n, Fraction(1, 2), p) == recurrence(Fraction(1, 2))
    for y in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 3)):
        stirling = q_stirling(n, y, p)
        assert isinstance(stirling, Fraction)
        assert recurrence(y) == stirling
        assert q_polylog(n, y, p) == stirling


def test_known_spot_values():
    assert q_stirling(0, Fraction(1), Fraction(1, 2)) == Fraction(1, 2)
    assert q_stirling(1, Fraction(1), Fraction(1, 2)) == Fraction(1, 8)
    # Q(n >= 1, 0, p) = 0 and Q(0, 0, p) = 1
    for n in range(1, 5):
        assert q_stirling(n, Fraction(0), Fraction(1, 3)) == 0
    assert q_stirling(0, Fraction(0), Fraction(1, 3)) == 1
    assert q_series_with_terms(0, 0, Fraction(1, 2))[0] == 1.0
    assert q_series_with_terms(3, 0, Fraction(1, 2))[0] == 0.0


@pytest.mark.parametrize(
    "n, y", [(0, Fraction(1, 2)), (2, Fraction(3, 10)), (6, Fraction(9, 10))]
)
def test_series_matches_closed_form(n, y):
    p = Fraction(1, 2)
    got, terms = q_series_with_terms(n, y, p)
    assert terms >= 1
    assert got == pytest.approx(float(q_stirling(n, y, p)), rel=1e-13)


def test_series_heavy_cancellation():
    # at y = 0.9, n = 6 individual terms reach ~1e7 while Q is O(1);
    # exact accumulation keeps full precision
    v = q_series_with_terms(6, Fraction(9, 10), Fraction(1, 2))[0]
    assert v == pytest.approx(float(q_stirling(6, Fraction(9, 10), Fraction(1, 2))),
                              rel=1e-13)


@given(
    st.integers(min_value=0, max_value=5),
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(17, 20)),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
    st.integers(min_value=1, max_value=25),
)
@settings(max_examples=60, deadline=None)
def test_tail_bound_is_sound(n, y, p, cut):
    # the partial sum must sit within the proven tail bound of the limit
    partial = sum(
        rising_factorial(-p * k, n) * (-y) ** k for k in range(cut)
    )
    limit = q_stirling(n, y, p)
    assert abs(partial - limit) <= series_tail_bound(n, y, p, cut)


def test_series_domain():
    with pytest.raises(ValueError):
        q_series_with_terms(2, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        q_series_with_terms(2, Fraction(-1, 10), Fraction(1, 2))
    with pytest.raises(ValueError):
        q_series_with_terms(2, Fraction(1, 2), Fraction(3, 2))


def test_tail_bound_domain():
    # y = 1 used to loop forever, y < 0 returned a negative "bound"
    with pytest.raises(ValueError, match="0 <= y < 1"):
        series_tail_bound(0, Fraction(1), Fraction(1, 2), 1)
    with pytest.raises(ValueError, match="0 <= y < 1"):
        series_tail_bound(2, Fraction(-1, 2), Fraction(1, 2), 1)
    assert series_tail_bound(2, Fraction(0), Fraction(1, 2), 1) == 0
    # with p <= 0 the factors of (-pk)_n are no longer at most pk+n: at
    # p = -1/2 the loop built (n - |p|k)^n and returned 53/32
    for p in (Fraction(-1, 2), 0, -0.5):
        with pytest.raises(ValueError, match="p > 0"):
            series_tail_bound(2, Fraction(1, 2), p, 0)
    with pytest.raises(ValueError, match="start >= 0"):
        series_tail_bound(2, Fraction(1, 2), Fraction(1, 2), -1)
    # such n used to reach Fraction, which raised TypeError
    for n in (-1, 1.5, True, "2"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            series_tail_bound(n, Fraction(1, 2), Fraction(1, 2), 0)
    # the domain is checked before the y = 0 shortcut
    with pytest.raises(ValueError, match="p > 0"):
        series_tail_bound(2, 0, Fraction(-1, 2), 0)
    # a float y or p is the Fraction it equals (a float y used to raise
    # AttributeError)
    assert series_tail_bound(3, 0.5, 0.25, 4) == series_tail_bound(
        3, Fraction(1, 2), Fraction(1, 4), 4)
    # a non-finite float is outside the domain too (Fraction raises
    # OverflowError for an infinity and ValueError for NaN)
    for y in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="0 <= y < 1"):
            series_tail_bound(2, y, Fraction(1, 2), 0)
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match="p > 0"):
            series_tail_bound(2, Fraction(1, 2), p, 0)


def _fraction_tail_bound(n, y, p, start):
    """series_tail_bound as the loop it restates on integers: B_k =
    (pk+n)^n y^k added explicitly while y ((k+1)/k)^n >= 1, then
    B_k/(1 - that ratio), all in Fraction arithmetic."""
    if y == 0:
        return Fraction(0)
    total = Fraction(1 if start == 0 and n == 0 else 0)
    k = max(start, 1)
    while y * Fraction(k + 1, k) ** n >= 1:
        total += (p * k + n) ** n * y**k
        k += 1
    return total + (p * k + n) ** n * y**k / (1 - y * Fraction(k + 1, k) ** n)


def test_tail_bound_equals_the_fraction_loop():
    # thresholds run from k = 1 to about 130 (n = 14 at y = 0.9); the starts
    # fall on both sides of each: before it the integer loop adds explicit
    # terms, past it (n = 0 always, with its k = 0 term at start = 0) it
    # runs zero times and only the closed-form tail is left
    rng = random.Random(18)
    ys = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(5, 7),
          Fraction(9, 10), Fraction(0.3), Fraction(0.9), Fraction(0.0625)]
    before = past = 0
    for n in range(15):
        for y in ys:
            p = Fraction(rng.randint(1, 11), 12)
            for start in (0, 1, rng.randint(2, 40), rng.randint(41, 200)):
                assert series_tail_bound(n, y, p, start) == _fraction_tail_bound(n, y, p, start)
                k0 = max(start, 1)
                if y and y * Fraction(k0 + 1, k0) ** n >= 1:
                    before += 1
                elif y:
                    past += 1
    assert before > 0 and past > 0
    assert series_tail_bound(0, Fraction(1, 3), Fraction(1, 2), 0) == Fraction(3, 2)


def _plain_fraction_series(n, y, p, tol, descending):
    """The series summed term by term in Fraction arithmetic, stopped by
    the shared tail bound: sum_{k>=0} (-pk)_n (-y)^k, or
    sum_{k>=1} (pk)_n (-y)^k on the descending branch."""
    reltol = Fraction(tol)
    total = Fraction(0)
    k = 1 if descending else 0
    while True:
        total += rising_factorial((p if descending else -p) * k, n) * (-y) ** k
        if total and series_tail_bound(n, y, p, k + 1) <= reltol * abs(total):
            return total, k if descending else k + 1
        k += 1


_SERIES_Y = st.one_of(
    st.fractions(min_value=Fraction(1, 12), max_value=Fraction(9, 10), max_denominator=12),
    st.floats(min_value=0.01, max_value=0.9),  # 53-bit dyadic rationals
)
_SERIES_P = st.integers(min_value=2, max_value=12).flatmap(
    lambda v: st.integers(min_value=1, max_value=v - 1).map(lambda u: Fraction(u, v))
)
# the relative tolerance of the library's stopping rule, restated for the oracle
_SERIES_TOL = 1e-15


@given(st.integers(min_value=0, max_value=12), _SERIES_Y, _SERIES_P)
@settings(max_examples=40, deadline=None)
def test_ascending_series_matches_plain_fraction_sum(n, y, p):
    total, terms = _plain_fraction_series(n, Fraction(y), p, _SERIES_TOL, descending=False)
    assert q_series_with_terms(n, y, p) == (float(total), terms)


@given(st.integers(min_value=0, max_value=12), _SERIES_Y, _SERIES_P)
@settings(max_examples=40, deadline=None)
def test_descending_series_matches_plain_fraction_sum(n, x, p):
    # b = 1 makes y = b^p/a = 1/a exactly, so the descending ratio is x = a
    a = Fraction(x)
    total, terms = _plain_fraction_series(n, a, p, _SERIES_TOL, descending=True)
    ev = cf_series_detailed(a, 1, p, n)
    assert ev.branch == "descending"
    assert (ev.value, ev.terms) == (-float(total) / (float(a) * factorial(n)), terms)


@pytest.mark.parametrize("n, y, p", [
    (0, Fraction(1, 2), Fraction(1, 2)),
    (6, Fraction(9, 10), Fraction(1, 2)),
    (5, Fraction(0.7), Fraction(1, 3)),
    (3, Fraction(19, 20), Fraction(1, 3)),
])
def test_predicted_terms_are_close_to_the_terms_taken(n, y, p):
    _, terms = _pochhammer_series(n, y, p, descending=False)
    assert terms / 2 <= _predicted_terms(n, y, p) <= 2 * terms


@pytest.mark.parametrize("n, y", [
    (1, Fraction(1, 10**450)),  # -log y past the float range
    (12, 1 - Fraction(1, 10**500)),  # 1 - y below the float range
    (10**6, Fraction(1, 2)),
])
def test_predicted_terms_stay_finite_at_the_extremes(n, y):
    assert _predicted_terms(n, y, Fraction(1, 2)) >= 1


def test_work_budget_refuses_before_summing():
    # q --n 12 --y 0.999 would need more than 100000 exact terms
    with pytest.raises(RuntimeError, match="q_series: needs about .* terms next to y = 1"):
        q_series_with_terms(12, Fraction(999, 1000), Fraction(1, 2))


def test_stirling_domain():
    with pytest.raises(ValueError):
        q_stirling(1, Fraction(-3, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        q_polylog(0, Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "n, y, p",
    [
        (0, Fraction(1, 4), Fraction(1, 2)),
        (1, Fraction(2, 3), Fraction(1, 3)),
        (2, Fraction(1), Fraction(1, 2)),
        (3, Fraction(9, 10), Fraction(2, 5)),
        (4, Fraction(1, 5), Fraction(1, 2)),
    ],
)
def test_recurrence_identity(n, y, p):
    assert q_recurrence_check(n, y, p)


def test_rational_routes_agree_symbolically():
    # n <= 16 is the range the benchmark's q_exact workload draws
    for n in range(17):
        for p in (Fraction(1, 2), Fraction(2, 7)):
            assert q_rational(n, p) == q_rational_recurrence(n, p)


@pytest.mark.parametrize("n, k_max", [(1, 20), (2, 30), (4, 60)])
def test_derivative_form(n, k_max):
    assert q_derivative_form_check(n, k_max, Fraction(1, 3), Fraction(1, 2))


@pytest.mark.parametrize(
    "coeffs, y",
    [
        ([1, 2, 3], Fraction(1, 3)),
        ([0, 1], Fraction(-1, 3)),
        ([2, 0, -1, 5], Fraction(1, 2)),
        ([1, -4, 0, 0, 2, -1], Fraction(-2, 5)),
    ],
)
def test_boyadzhiev_transform(coeffs, y):
    assert boyadzhiev_check(Polynomial(coeffs), y)


@given(st.integers(min_value=0, max_value=8))
@settings(max_examples=30)
def test_pochhammer_derivatives(n):
    for k in range(n + 1):
        assert pochhammer_derivative_check(n, k)


def test_hyp_form_n1_offset():
    # printed prefactor makes the n = 1 value y^-3 times the true one
    for y in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        ratio = q_hyp(1, y, Fraction(1, 3)) / float(q_stirling(1, y, Fraction(1, 3)))
        assert ratio == pytest.approx(float((1 / y) ** 3), rel=1e-12)


def test_hyp_form_n2_not_a_constant_rescale():
    p = Fraction(1, 2)
    r = [
        q_hyp(2, y, p) / float(q_stirling(2, y, p))
        for y in (Fraction(3, 10), Fraction(1, 2))
    ]
    assert abs(r[0] - r[1]) > 1e-3 * max(abs(x) for x in r)


def test_hyp_form_convergent_branch_against_mpmath():
    # n = 2, p = 2/5: 1 - 1/p = -3/2 is no integer, so the 2F1 converges
    n, p = 2, Fraction(2, 5)
    for y in (Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)):
        upper = [1 - Fraction(1) / p, 2]
        lower = [-Fraction(1) / p]
        series = mpmath.hyper([float(u) for u in upper], [float(v) for v in lower], -float(y))
        pref = (-1) ** (n - 1) * p * factorial(n - 1) / y ** (2 * n)
        assert q_hyp(n, y, p) == pytest.approx(float(pref) * float(series), rel=1e-13)


def test_series_value_past_float_range_raises_value_error():
    # Q(180, 1/2, 1/2) is about 1e325: the exact sum is fine, its float is not
    with pytest.raises(ValueError, match="outside float range"):
        q_series_with_terms(180, Fraction(1, 2), Fraction(1, 2))


def test_hyp_form_terminating_and_convergent_paths():
    # p = 1/2, n = 3: upper parameters hit a nonpositive integer -> exact cut
    v1 = q_hyp(3, Fraction(1, 2), Fraction(1, 2))
    assert isinstance(v1, float)
    # p = 2/5, n = 2: no integer m/p -> convergent summation
    v2 = q_hyp(2, Fraction(1, 2), Fraction(2, 5))
    assert isinstance(v2, float)
    with pytest.raises(ValueError):
        q_hyp(0, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        q_hyp(2, Fraction(3, 2), Fraction(1, 2))
