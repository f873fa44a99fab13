"""Truncated power series and the generating function of C2(n; a, b).

A PowerSeries is a fixed-length tuple of coefficients, index = power.
Coefficients are either all Fraction (exact mode) or all float. Both
modes compute reciprocal and square root by the same Newton steps, with
the same truncation orders; each step doubles the number of correct
coefficients.

Exact mode runs on integers. A series enters the kernel once, as integer
numerators over one common denominator (the lcm of its denominators),
and stays that way from the first Newton step to the last, through
gf_catalan2's square root and reciprocal alike. A product convolves the
numerators, multiplies the denominators, and divides all of them by
their one gcd; without that division the integers grow past the reduced
coefficients' size at every step. Fractions are built only for the
coefficients returned.

Float mode keeps its plain loops, operation for operation: float
coefficients are printed to 17 digits, so a reordered sum or a fused
Newton step would move their last bits."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import _power_arithmetic, exact_pow

__all__ = [
    "PowerSeries",
    "series_mul",
    "series_recip",
    "series_sqrt",
    "gf_catalan2",
]


class PowerSeries(namedtuple("PowerSeries", "coeffs")):
    """Coefficients c_0 .. c_(order-1) of a series truncated at x^order."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple):
        if not coeffs:
            raise ValueError("PowerSeries: need at least one coefficient")
        return super().__new__(cls, coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def exact(self) -> bool:
        return isinstance(self.coeffs[0], Fraction)

    def coefficient(self, n: int):
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]


def _convolve(a, b, order: int, zero) -> list:
    out = [zero] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return out


# Exact kernel: a series is (nums, den), integer numerators over one
# positive denominator.


def _over_common_denominator(c: tuple) -> tuple[list, int]:
    """Integer numerators of rational coefficients over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (den // x.denominator) for x in c], den


def _reduced(nums: list, den: int) -> tuple[list, int]:
    g = math.gcd(den, *nums)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


def _as_series(s: tuple[list, int]) -> PowerSeries:
    nums, den = s
    return PowerSeries(tuple(Fraction(x, den) for x in nums))


def _exact_mul(a: tuple[list, int], b: tuple[list, int], order: int) -> tuple[list, int]:
    return _reduced(_convolve(a[0], b[0], order, 0), a[1] * b[1])


def _exact_recip(c: tuple[list, int], order: int) -> tuple[list, int]:
    c_num, c_den = c
    if c_num[0] == 0:
        raise ValueError("series reciprocal: constant term is zero")
    v = ([-c_den if c_num[0] < 0 else c_den], abs(c_num[0]))
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # v <- v (2 - c v), truncated; doubles correct coefficients
        cv_num, cv_den = _exact_mul((c_num[:prec], c_den), v, prec)
        two_minus = [2 * cv_den - cv_num[0]] + [-x for x in cv_num[1:]]
        v = _exact_mul(v, (two_minus, cv_den), prec)
    return v


def _exact_sqrt(c: tuple[list, int], root: Fraction, order: int) -> tuple[list, int]:
    c_num, c_den = c
    r = ([root.numerator], root.denominator)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # r <- (r + c/r) / 2
        q_num, q_den = _exact_mul((c_num[:prec], c_den), _exact_recip(r, prec), prec)
        r_num, r_den = r
        r_num = r_num + [0] * (prec - len(r_num))
        r = _reduced([x * q_den + y * r_den for x, y in zip(r_num, q_num)], 2 * r_den * q_den)
    return r


# Float mode: the plain loops, kept operation for operation (see the module docstring).


def _mul(a: tuple, b: tuple, order: int) -> tuple:
    return tuple(_convolve(a, b, order, a[0] * 0))


def _recip_coeffs(c: tuple, order: int) -> tuple:
    if c[0] == 0:
        raise ValueError("series reciprocal: constant term is zero")
    one = c[0] / c[0]
    v = (one / c[0],)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # v <- v (2 - c v), truncated; doubles correct coefficients
        cv = _mul(c[:prec] + (c[0] * 0,) * max(0, prec - len(c)), v, prec)
        two_minus = tuple((2 * one if i == 0 else one * 0) - x for i, x in enumerate(cv))
        v = _mul(v, two_minus, prec)
    return v


def series_mul(s: PowerSeries, t: PowerSeries) -> PowerSeries:
    """Product truncated to the shorter operand's order."""
    order = min(s.order, t.order)
    if s.exact and t.exact:
        return _as_series(_exact_mul(_over_common_denominator(s.coeffs[:order]),
                                     _over_common_denominator(t.coeffs[:order]), order))
    return PowerSeries(_mul(s.coeffs, t.coeffs, order))


def series_recip(s: PowerSeries) -> PowerSeries:
    """Multiplicative inverse truncated to s.order; needs c_0 != 0."""
    if s.exact:
        return _as_series(_exact_recip(_over_common_denominator(s.coeffs), s.order))
    return PowerSeries(_recip_coeffs(s.coeffs, s.order))


def series_sqrt(s: PowerSeries) -> PowerSeries:
    """Square root with r_0 > 0, truncated to s.order.

    Newton iteration r <- (r + s/r) / 2. In exact mode the constant term
    must have a rational square root; in float mode it must be positive.
    """
    c = s.coeffs
    if s.exact:
        root = exact_pow(c[0], Fraction(1, 2))
        if root is None:
            raise ValueError(
                "series sqrt: constant term must be positive with a rational root"
            )
        return _as_series(_exact_sqrt(_over_common_denominator(c), root, s.order))
    if c[0] <= 0:
        raise ValueError("series sqrt: constant term must be positive")
    one = c[0] / c[0]
    half = one / 2
    r = (math.sqrt(c[0]),)
    prec = 1
    while prec < s.order:
        prec = min(2 * prec, s.order)
        padded = c[:prec] + (c[0] * 0,) * max(0, prec - len(c))
        r = r + (c[0] * 0,) * (prec - len(r))
        quotient = _mul(padded, _recip_coeffs(r, prec), prec)
        r = tuple(half * (x + y) for x, y in zip(r, quotient))
    return PowerSeries(r)


def gf_catalan2(a, b, order: int) -> PowerSeries:
    """Series of 1 / (a + sqrt(b - x)) truncated at x^order.

    Exact mode engages when b has a rational square root (a may be any
    rational, which every float already is); otherwise coefficients are
    floats. Requires finite a >= 0 and b > 0.
    """
    if order < 1:
        raise ValueError("gf_catalan2: order must be >= 1")
    if not (0 <= a < math.inf and 0 < b < math.inf):
        raise ValueError(f"gf_catalan2: need finite a >= 0 and b > 0, got a = {a}, b = {b}")
    root, num = _power_arithmetic(b, Fraction(1, 2))
    if num is Fraction:
        # One trip through the integer kernel: sqrt(b - x), then a joins its
        # constant term over the common denominator, then the reciprocal.
        b, a = Fraction(b), Fraction(a)
        r_num, r_den = _exact_sqrt(([b.numerator, -b.denominator], b.denominator), root, order)
        d_num = [x * a.denominator for x in r_num]
        d_num[0] += a.numerator * r_den
        return _as_series(_exact_recip((d_num, r_den * a.denominator), order))
    # The base keeps its x term at order 1, so a float coefficient 0 is rounded
    # as at every order (by a Newton step); the root is cut to order instead.
    base = PowerSeries((num(b), num(-1)) + (num(0),) * max(0, order - 2))
    root = series_sqrt(base)
    denom = PowerSeries((root.coeffs[0] + num(a),) + root.coeffs[1:order])
    return series_recip(denom)
