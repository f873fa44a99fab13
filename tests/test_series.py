"""The generating function of C2 as a power series: exact coefficients from
its ODE, float ones by Newton iteration, each held to a frozen Newton loop."""

import math
import random
from fractions import Fraction

import pytest

from catalankit.exact import catalan, exact_pow
from catalankit.series import PowerSeries, gf_catalan2
from catalankit.series import _convolve, _float_recip, _float_sqrt


def test_gf_self_consistency():
    # the Catalan series c(x) satisfies c = 1 + x c^2
    order = 10
    c = gf_catalan2(Fraction(1, 2), Fraction(1, 4), order)
    c2 = newton_mul(c.coeffs, c.coeffs, order)
    for n in range(1, order):
        assert c.coefficient(n) == c2[n - 1]
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
    for a, b in [(1, math.inf), (math.inf, 4), (math.nan, 4), (1, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            gf_catalan2(a, b, 3)


def test_power_series_accessors():
    s = PowerSeries((Fraction(1), Fraction(2)))
    assert s.order == 2
    assert s.exact
    assert not PowerSeries((1.0, 2.0)).exact
    assert s.coefficient(1) == 2
    with pytest.raises(IndexError):
        s.coefficient(5)


# Frozen copy of the generic Newton loops that once ran both modes, one
# coefficient type for the other. On Fractions they are the oracle of the
# ODE recurrence; on floats, the operation-for-operation reference.
def newton_mul(a, b, order):
    """Schoolbook truncated convolution, the reference for every product."""
    out = [a[0] * 0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return tuple(out)


def newton_recip(c, order):
    one = c[0] / c[0]
    v = (one / c[0],)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        cv = newton_mul(c[:prec] + (c[0] * 0,) * max(0, prec - len(c)), v, prec)
        two_minus = tuple((2 * one if i == 0 else one * 0) - x for i, x in enumerate(cv))
        v = newton_mul(v, two_minus, prec)
    return v


def newton_sqrt(c, order):
    exact = isinstance(c[0], Fraction)
    one = c[0] / c[0]
    half = one / 2
    r = (exact_pow(c[0], Fraction(1, 2)) if exact else math.sqrt(c[0]),)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        padded = c[:prec] + (c[0] * 0,) * max(0, prec - len(c))
        quotient = newton_mul(padded, newton_recip(r + (c[0] * 0,) * (prec - len(r)), prec), prec)
        r = tuple(half * (x + y) for x, y in zip(r + (c[0] * 0,) * (prec - len(r)), quotient))
    return r


def newton_gf(a, b, order):
    """1 / (a + sqrt(b - x)) by the frozen loops: Fraction when sqrt(b)
    is rational, else float."""
    num = Fraction if exact_pow(b, Fraction(1, 2)) is not None else float
    base = (num(b), num(-1)) + (num(0),) * max(0, order - 2)
    root = newton_sqrt(base, len(base))
    return newton_recip((root[0] + num(a),) + root[1:order], order)


def _hex(s):
    return [x.hex() for x in s]


@pytest.mark.parametrize("len_s, len_t", [(1, 1), (9, 5), (6, 12), (41, 41)])
def test_float_mul_bit_identical_to_plain_loop(len_s, len_t):
    # the float kernels' operands all have a positive constant term
    rng = random.Random(len_s * 100 + len_t)
    s = (rng.uniform(0.5, 3.0),) + tuple(rng.uniform(-3.0, 3.0) for _ in range(len_s - 1))
    t = tuple(rng.choice((0.0, rng.uniform(-1e3, 1e3))) for _ in range(len_t))
    order = min(len_s, len_t)
    assert _hex(_convolve(s, t, order)) == _hex(newton_mul(s, t, order))
    # the Newton loops on the same kind of series, against the frozen copy
    c = list(s)
    assert _hex(_float_recip(c, len(c))) == _hex(newton_recip(s, len(s)))
    assert _hex(_float_sqrt(c, math.sqrt(c[0]), len(c))) == _hex(newton_sqrt(s, len(s)))


def _exact_gf_cases():
    rng = random.Random(21)
    cases = [(0, 4, 64), (0, Fraction(9, 4), 17), (1, 4, 64), (3, 1, 33), (2.5, 4, 40),
             (0.1, Fraction(1, 4), 64), (Fraction(1, 2), Fraction(1, 4), 1)]
    for _ in range(40):
        r = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        a = rng.choice((0, rng.randint(0, 6), Fraction(rng.randint(0, 40), rng.randint(1, 9)),
                        rng.uniform(0.0, 4.0)))
        cases.append((a, r * r, rng.randint(1, 64)))
    # c = a^2 - b = 0 at a high order, Fraction a and float a, and a square b
    # whose integers span a hundred decimal digits
    cases += [(Fraction(3, 2), Fraction(9, 4), 64), (0.5, Fraction(1, 4), 64),
              (65 * 10**37, Fraction(1, 10**72), 24)]
    return cases


@pytest.mark.parametrize("a, b, order", _exact_gf_cases())
def test_exact_gf_matches_the_fraction_newton(a, b, order):
    got = gf_catalan2(a, b, order)
    assert got.exact
    assert all(type(x) is Fraction for x in got.coeffs)
    assert got.coeffs == newton_gf(a, b, order)


def _float_gf_cases():
    # c2_mixed's non-square b, a in quarter steps up to sqrt(b) + 3
    rng = random.Random(40)
    for b in ("1/2", "3/2", "5/3", "2", "3", "5", "6", "7", "10"):
        b = Fraction(b)
        for k in range(4 * math.ceil(math.sqrt(b) + 3) + 1):
            for n in {0, 40, rng.randint(1, 39), rng.randint(1, 39)}:
                yield Fraction(k, 4), b, n + 1


def test_float_gf_bit_identical_to_the_frozen_loops():
    cases = list(_float_gf_cases())
    assert len(cases) > 600
    for a, b, order in cases:
        got = gf_catalan2(a, b, order)
        assert not got.exact
        assert _hex(got.coeffs) == _hex(newton_gf(a, b, order)), (a, b, order)
