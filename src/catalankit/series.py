"""Truncated power series and the generating function of C2(n; a, b).

A PowerSeries is a fixed-length tuple of coefficients, index = power.
Coefficients are either all Fraction (exact mode) or all float; the
algorithms are identical, only the scalar type differs. Reciprocal and
square root are computed by Newton iteration, which doubles the number
of correct coefficients each step.

Products share one convolution loop. In exact mode it runs on integers:
each operand's numerators are put over one common denominator (the lcm
of its denominators), and each output coefficient is reduced once.
"""

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


def _over_common_denominator(c: tuple) -> tuple[list, int]:
    """Integer numerators of rational coefficients over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for x in c))
    return [x.numerator * (den // x.denominator) for x in c], den


def _mul(a: tuple, b: tuple, order: int) -> tuple:
    if isinstance(a[0], Fraction) and isinstance(b[0], Fraction):
        # Exact: convolve integer numerators, so each output coefficient
        # costs one gcd instead of one per product and per sum.
        a_num, a_den = _over_common_denominator(a[:order])
        b_num, b_den = _over_common_denominator(b[:order])
        den = a_den * b_den
        return tuple(Fraction(v, den) for v in _convolve(a_num, b_num, order, 0))
    return tuple(_convolve(a, b, order, a[0] * 0))


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def series_mul(s: PowerSeries, t: PowerSeries) -> PowerSeries:
    """Product truncated to the shorter operand's order."""
    order = min(s.order, t.order)
    return PowerSeries(_mul(s.coeffs, t.coeffs, order))


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


def series_recip(s: PowerSeries) -> PowerSeries:
    """Multiplicative inverse truncated to s.order; needs c_0 != 0."""
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
    else:
        if c[0] <= 0:
            raise ValueError("series sqrt: constant term must be positive")
        root = math.sqrt(c[0])
    one = c[0] / c[0]
    half = one / 2
    r = (root,)
    prec = 1
    while prec < s.order:
        prec = min(2 * prec, s.order)
        padded = c[:prec] + (c[0] * 0,) * max(0, prec - len(c))
        quotient = _mul(padded, _recip_coeffs(r + (c[0] * 0,) * (prec - len(r)), prec), prec)
        r = tuple(half * x for x in _add(r + (c[0] * 0,) * (prec - len(r)), quotient))
    return PowerSeries(r)


def gf_catalan2(a, b, order: int) -> PowerSeries:
    """Series of 1 / (a + sqrt(b - x)) truncated at x^order.

    Exact mode engages when b has a rational square root (a may be any
    rational, which every float already is); otherwise coefficients are
    floats. Requires a >= 0 and b > 0.
    """
    if order < 1:
        raise ValueError("gf_catalan2: order must be >= 1")
    if not (a >= 0 and b > 0):
        raise ValueError("gf_catalan2: need a >= 0 and b > 0")
    _, num = _power_arithmetic(b, Fraction(1, 2))
    # The base keeps its x term at order 1, so a float coefficient 0 is rounded
    # as at every order (by a Newton step); the root is cut to order instead.
    base = PowerSeries((num(b), num(-1)) + (num(0),) * max(0, order - 2))
    root = series_sqrt(base)
    denom = PowerSeries((root.coeffs[0] + num(a),) + root.coeffs[1:order])
    return series_recip(denom)
