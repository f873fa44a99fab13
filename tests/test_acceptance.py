"""End-to-end acceptance battery.

Ten checks, each printing a single pass/fail line straight to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows the
verdicts alongside the test ids. Grids and tolerances are pinned; the
whole battery is budgeted to stay well under five minutes.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

import pytest

from catalankit import (
    Polynomial,
    c2_double_factorial_sum,
    c2_gf_coefficient,
    c2_hyp_closed,
    c2_hyp_unbounded,
    c2_jacobi,
    c2_legendre,
    c2_quadrature,
    catalan,
    catalan_formulas,
    catalan_stream,
    cf_double_sum,
    cf_quadrature,
    cf_series_as_printed,
    cf_series_detailed,
    cf_via_q,
    integrate_halfline,
    q_polylog,
    q_rational,
    q_recurrence_value,
    q_series_with_terms,
    q_stirling,
)
from catalankit.checks import (
    beta_halfline,
    boyadzhiev_check,
    c2_table_check,
    cf_half_reduction_check,
    euler_integral_2f1_check,
    geometric_inverse_check,
    pochhammer_derivative_check,
    zform_bracket,
)
from catalankit.reporting import max_pairwise_rel_diff

from test_qfunc import PRINTED_Q_TABLE, PRINTED_ZFORM, _table_rational


@contextmanager
def verdict(capsys, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")


def test_01_catalan_closed_forms(capsys):
    with verdict(capsys, "catalan_closed_forms"):
        t0 = time.perf_counter()
        stream = catalan_stream(301)
        assert stream[:8] == [1, 1, 2, 5, 14, 42, 132, 429]
        for n in range(301):
            forms = catalan_formulas(n)
            assert set(forms) == {
                "factorial_quotient", "central_binomial",
                "gamma_ratio", "terminating_2f1",
            }
            assert all(v == stream[n] for v in forms.values())
            assert catalan(n) == stream[n]
        assert time.perf_counter() - t0 < 1.0


def test_02_specialization_recovers_catalan(capsys):
    a, b = Fraction(1, 2), Fraction(1, 4)
    with verdict(capsys, "specialization_recovers_catalan"):
        for n in range(16):
            cn = catalan(n)
            assert c2_double_factorial_sum(a, b, n) == cn
            assert c2_hyp_closed(a, b, n) == cn
            assert c2_gf_coefficient(a, b, n) == cn
            if n >= 1:
                assert c2_jacobi(a, b, n) == cn
            quad = c2_quadrature(0.5, 0.25, n, tol=1e-10).value
            assert abs(quad - cn) <= 1e-10 * cn
            unb = c2_hyp_unbounded(0.5, 0.25, n)
            assert abs(unb - cn) <= 1e-10 * cn
        # the Legendre forms need a strictly below sqrt(b); the reduction
        # point sits exactly on that edge, so they are checked at an
        # interior point against the terminating closed form instead
        with pytest.raises(ValueError, match="sqrt"):
            c2_legendre(a, b, 1)
        for n in range(1, 16):
            reference = float(c2_hyp_closed(1, 4, n))
            got = c2_legendre(1, 4, n)
            assert abs(got - reference) <= 1e-10 * abs(reference)


def test_03_representation_grid_agreement(capsys):
    with verdict(capsys, "representation_grid_agreement"):
        t0 = time.perf_counter()
        worst = 0.0
        grid_a = (Fraction(3, 10), Fraction(1, 2), 1, 2, 5)
        grid_b = (Fraction(1, 4), 1, 4)
        for a, b in product(grid_a, grid_b):
            for n in range(13):
                values = [
                    c2_double_factorial_sum(a, b, n),
                    c2_hyp_closed(a, b, n),
                    c2_gf_coefficient(a, b, n),
                    c2_quadrature(float(a), float(b), n, tol=1e-10).value,
                ]
                if n >= 1:
                    values.append(c2_jacobi(a, b, n))
                worst = max(worst, max_pairwise_rel_diff(values))
        assert worst <= 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_04_printed_table_pi_ratio(capsys):
    with verdict(capsys, "printed_table_pi_ratio"):
        pairs = [
            (a, b)
            for a in (0.3, 0.5, 1.0, 2.0, 5.0)
            for b in (0.25, 1.0, 4.0)
        ]
        errors = c2_table_check(pairs)
        assert len(errors) == len(pairs) * 6
        assert max(errors) <= 1e-8


def test_05_functional_double_sum_vs_quadrature(capsys):
    with verdict(capsys, "functional_double_sum_vs_quadrature"):
        t0 = time.perf_counter()
        grid_a = (Fraction(1, 2), 1, 2, 4)
        grid_b = (Fraction(1, 2), 1, 4)
        grid_p = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for a, b, p in product(grid_a, grid_b, grid_p):
            for n in range(9):
                truth = float(cf_double_sum(a, b, p, n))
                quad = cf_quadrature(float(a), float(b), float(p), n).value
                assert abs(quad - truth) <= max(1e-8 * abs(truth), 1e-12)
                y = float(b) ** float(p) / float(a)
                if not 0.9 <= y <= 1.1:
                    ser = cf_series_detailed(a, b, p, n).value
                    assert abs(ser - truth) <= max(1e-8 * abs(truth), 1e-12)
        assert time.perf_counter() - t0 < 120.0


def test_06_printed_series_prefactor(capsys):
    half = Fraction(1, 2)
    with verdict(capsys, "printed_series_prefactor"):
        for a, b in ((2, 1), (1, 4)):
            for n in range(1, 5):
                corrected = cf_series_detailed(a, b, half, n).value
                printed = cf_series_as_printed(a, b, half, n)
                expected = math.factorial(n) / (n + 1)
                assert abs(printed / corrected - expected) <= 1e-8 * expected
                quad = cf_quadrature(float(a), float(b), 0.5, n).value
                assert abs(corrected - quad) <= 1e-8 * abs(quad)


def test_07_half_power_reduction(capsys):
    half = Fraction(1, 2)
    with verdict(capsys, "half_power_reduction"):
        for a, b in product((1, 2), (1, 4)):
            for n in range(9):
                assert cf_double_sum(a, b, half, n) == c2_double_factorial_sum(a, b, n)
                assert cf_half_reduction_check(a, b, n)


def test_08_q_routes_and_printed_tables(capsys):
    half, third = Fraction(1, 2), Fraction(1, 3)
    with verdict(capsys, "q_routes_and_printed_tables"):
        for n in range(5):
            for y in (Fraction(1, 4), Fraction(1, 2), 1, 2):
                for p in (half, third):
                    value = q_stirling(n, y, p)
                    assert q_recurrence_value(n, y, p) == value
                    if n >= 1:
                        assert q_polylog(n, y, p) == value
        for p in (half, third):
            for n in sorted(PRINTED_Q_TABLE):
                assert q_rational(n, p) == _table_rational(n, p)
        for n in sorted(PRINTED_ZFORM):
            assert zform_bracket(n) == PRINTED_ZFORM[n]
        for n in range(7):
            for y in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
                truth = float(q_stirling(n, y, half))
                approx = q_series_with_terms(n, float(y), half)[0]
                assert abs(approx - truth) <= max(1e-11 * abs(truth), 1e-15)
        assert q_stirling(1, 1, half) == Fraction(1, 8)
        for n in range(1, 7):
            assert q_stirling(n, 0, half) == 0
            assert q_recurrence_value(n, 0, third) == 0
        # boundary b^p = a of the single series, served by the Q route
        assert cf_via_q(2, 4, half, 0) == Fraction(1, 4)
        assert cf_via_q(1, 1, third, 0) == Fraction(1, 2)
        assert cf_via_q(4, 8, Fraction(2, 3), 0) == Fraction(1, 8)


def test_09_exact_combinatorial_identities(capsys):
    with verdict(capsys, "exact_combinatorial_identities"):
        rng = random.Random(20260816)
        checked = 0
        while checked < 20:
            degree = rng.randint(0, 5)
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(degree + 1)
            ]
            if not any(coeffs):
                continue
            y = Fraction(rng.randint(-9, 9), rng.randint(10, 15))
            assert boyadzhiev_check(Polynomial(coeffs), y)
            checked += 1
        for n in range(9):
            for k in range(n + 1):
                assert pochhammer_derivative_check(n, k)
            assert geometric_inverse_check(n)


def test_10_quadrature_calibration(capsys):
    with verdict(capsys, "quadrature_calibration"):
        rng = random.Random(20260816)
        tol = 1e-10
        for _ in range(50):
            s = rng.uniform(0.2, 3.0)
            r = s + rng.uniform(0.3, 5.0)
            b = rng.uniform(0.25, 4.0)
            truth = beta_halfline(s, r, b)
            got = integrate_halfline(
                lambda t: t ** (s - 1.0) * (b + t) ** (-r), s - 1.0, r - s + 1.0, tol
            ).value
            assert abs(got - truth) <= 10.0 * tol * abs(truth)
        euler_sets = (
            (0.5, 1.0, 0.8, 0.3),
            (1.5, 2.0, 1.2, 0.5),
            (2.0, 0.7, 0.5, 0.25),
            (1.0, 1.5, 1.0, 0.6),
            (0.8, 2.5, 1.5, 0.4),
            (2.5, 1.2, 0.9, 0.7),
            (1.2, 0.5, 0.3, 0.2),
            (3.0, 2.2, 1.8, 0.35),
            (0.6, 1.8, 1.1, 0.45),
            (1.7, 3.0, 2.4, 0.15),
        )
        for alpha, beta, gamma, z in euler_sets:
            assert euler_integral_2f1_check(alpha, beta, gamma, z)
