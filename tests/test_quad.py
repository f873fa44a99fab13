"""Adaptive half-line quadrature against closed-form targets."""

import math
import random

import pytest

from catalankit import quad
from catalankit.checks import beta_cases, beta_halfline, euler_integral_2f1_check
from catalankit.quad import QuadratureError, integrate_halfline


def _beta_integrand(s, r, b):
    """The arguments f, endpoint exponent, decay exponent of t^(s-1) (b+t)^(-r)."""
    return lambda t: t ** (s - 1.0) * (b + t) ** (-r), s - 1.0, r - s + 1.0


@pytest.mark.parametrize(
    "s, r, b",
    [
        (1.0, 2.0, 1.0),
        (0.5, 1.5, 1.0),   # sqrt singularity at 0 and slow decay
        (0.3, 4.0, 0.25),
        (2.5, 3.1, 3.0),
        (1.5, 6.5, 4.0),
    ],
)
def test_beta_cases(s, r, b):
    res = integrate_halfline(*_beta_integrand(s, r, b), tol=1e-12)
    want = beta_halfline(s, r, b)
    assert res.value == pytest.approx(want, rel=1e-11)
    assert abs(res.value - want) <= 10 * max(res.abs_err_est, 1e-16 * abs(want))


def test_randomized_beta_calibration():
    rng = random.Random(20260816)
    worst = 0.0
    for _ in range(50):
        s = rng.uniform(0.2, 3.0)
        r = s + rng.uniform(0.3, 5.0)
        b = rng.uniform(0.25, 4.0)
        res = integrate_halfline(*_beta_integrand(s, r, b), tol=1e-10)
        worst = max(worst, abs(res.value - beta_halfline(s, r, b)) / beta_halfline(s, r, b))
    assert worst <= 1e-9  # 10x the requested tolerance


def test_shared_beta_draw_matches_an_independent_draw():
    rng = random.Random(11)
    cases = list(beta_cases(6, 11))
    assert len(cases) == 6
    for (s, r, b), (f, sigma, tau), truth in cases:
        want_s = rng.uniform(0.2, 3.0)
        assert (s, r, b) == (want_s, want_s + rng.uniform(0.3, 5.0), rng.uniform(0.25, 4.0))
        assert truth == beta_halfline(s, r, b)
        assert f(1.5) == 1.5 ** (s - 1.0) * (b + 1.5) ** (-r)
        assert (sigma, tau) == (s - 1.0, r - s + 1.0)


def test_known_arctan_integral():
    # int_0^inf dt/(1+t^2) = pi/2
    res = integrate_halfline(lambda t: 1.0 / (1.0 + t * t), 0.0, 2.0, tol=1e-12)
    assert res.value == pytest.approx(math.pi / 2, rel=1e-12)


def test_result_is_deterministic():
    g = _beta_integrand(0.7, 2.3, 1.5)
    a = integrate_halfline(*g, tol=1e-11)
    b = integrate_halfline(*g, tol=1e-11)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_tolerance_range_enforced():
    g = _beta_integrand(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        integrate_halfline(*g, tol=1e-16)
    with pytest.raises(ValueError):
        integrate_halfline(*g, tol=0.5)


def test_exponent_validation():
    with pytest.raises(ValueError):
        integrate_halfline(lambda t: t, -1.5, 3.0, tol=1e-8)
    with pytest.raises(ValueError):
        integrate_halfline(lambda t: t, 0.0, 0.9, tol=1e-8)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_EVALS", 45)
    g = _beta_integrand(0.5, 1.5, 1.0)
    with pytest.raises(QuadratureError, match="evaluation budget 45 exhausted"):
        integrate_halfline(*g, tol=1e-14)


def test_map_leaving_the_float_range_raises():
    # tau = 1.01 clamps gamma at 24: t = (u/(1-u))^24 overflows near u = 1,
    # where the transformed integrand does not vanish
    with pytest.raises(QuadratureError, match="leaves the float range at u = "):
        integrate_halfline(lambda t: (1.0 + t) ** -1.01, 0.0, 1.01, 1e-10)


def test_a_node_rounded_onto_the_maps_end_raises():
    # the mass of (b + t)^-3 at b = 3.7e35 sits next to u = 1, where the
    # bisection puts a Kronrod node on u = 1.0 itself; this was once a bare
    # ZeroDivisionError from u / (1 - u)
    def f(t):
        return math.sqrt(t) / ((1.0 + t) * (3.7e35 + t) ** 3)

    with pytest.raises(QuadratureError, match=r"node rounds to u = 1\.0, the map's end"):
        integrate_halfline(f, 0.5, 3.5, 1e-10)


def test_kronrod_sums_past_the_float_range_raise_at_once():
    # these sums once went on to exhaust the budget, value=inf abs_err_est=nan
    with pytest.raises(QuadratureError, match=r"Kronrod sums on \[.*\] leave the float range"):
        integrate_halfline(lambda t: 1e308 / (1.0 + t) ** 2, 0.0, 2.0, 1e-10)


@pytest.mark.parametrize("s", [0.05, 0.04, 0.03, 0.02, 0.01])
def test_endpoint_exponent_near_minus_one(s):
    # gamma clamps at 24; from s = 0.03 the map's first t next to u = 0 is
    # subnormal and t^(s-1) overflows there, which is a QuadratureError
    f = lambda t: t ** (s - 1.0) * (1.0 + t) ** -2.0
    if s >= 0.04:
        res = integrate_halfline(f, s - 1.0, 3.0 - s, 1e-10)
        assert res.value == pytest.approx(beta_halfline(s, 2.0, 1.0), rel=1e-10)
    else:
        with pytest.raises(QuadratureError, match=f"subnormal t = .*exponent {s - 1.0!r}"):
            integrate_halfline(f, s - 1.0, 3.0 - s, 1e-10)


def test_overflow_at_a_normal_t_propagates():
    # only the subnormal t next to u = 0 is the map's fault
    with pytest.raises(OverflowError, match="math range error"):
        integrate_halfline(lambda t: 1.0 / (1.0 + math.exp(t)), 0.0, 2.0, 1e-10)


def test_unit_sums_round_as_fsum():
    # the running totals are exact sums in 2^-1074 units, rounded once
    rng = random.Random(11)
    for _ in range(300):
        xs = [rng.choice([-1.0, 1.0]) * rng.random() * 2.0 ** rng.randint(-1074, 1000)
              for _ in range(rng.randint(1, 40))]
        xs += [-x for x in xs[: rng.randint(0, len(xs))]]
        assert sum(map(quad._units, xs)) / quad._UNITS == math.fsum(xs)


@pytest.mark.parametrize(
    "alpha, beta, gamma, z",
    [
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
    ],
)
def test_euler_integral_cross_check(alpha, beta, gamma, z):
    assert euler_integral_2f1_check(alpha, beta, gamma, z)
