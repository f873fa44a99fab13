"""Truncated power series and the generating function of C2(n; a, b).

gf_catalan2 expands 1/(a + sqrt(b - x)) by Newton iteration: the square
root of b - x, then the reciprocal of a plus that root. Each Newton step
doubles the number of correct coefficients. A PowerSeries holds the
result, its coefficients either all Fraction (exact mode, when sqrt(b) is
rational) or all float.

Exact mode runs on integers. A series is integer numerators over one
positive denominator from the first Newton step to the last, through the
square root and the reciprocal alike. A product convolves the numerators,
multiplies the denominators, and divides all of them by their one gcd;
without that division the integers grow past the reduced coefficients'
size at every step. Fractions are built only for the coefficients
returned.

Float mode runs the same Newton steps on float lists, for a positive
constant term. Its coefficients are printed to 17 digits, so the order of
every operation is fixed: a reordered sum or a fused Newton step would
move their last bits."""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .exact import _power_arithmetic

__all__ = ["PowerSeries", "gf_catalan2"]


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


# Float kernel: a series is a list of floats whose constant term is
# positive, so every product's zero is 0.0 (see the module docstring).


def _float_recip(c: list, order: int) -> list:
    v = [1.0 / c[0]]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # v <- v (2 - c v); 0.0 - x, not -x, which would turn a 0.0 into -0.0
        cv = _convolve(c[:prec], v, prec, 0.0)
        v = _convolve(v, [2.0 - cv[0]] + [0.0 - x for x in cv[1:]], prec, 0.0)
    return v


def _float_sqrt(c: list, root: float, order: int) -> list:
    r = [root]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # r <- (r + c/r) / 2
        q = _convolve(c[:prec], _float_recip(r, prec), prec, 0.0)
        r = [0.5 * (x + y) for x, y in zip(r + [0.0] * (prec - len(r)), q)]
    return r


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
    # The root runs to order 2 at least, so a float coefficient 0 is rounded
    # by a Newton step at every order, order 1 included; it is cut to order.
    r = _float_sqrt([num(b), -1.0], root, max(2, order))
    return PowerSeries(tuple(_float_recip([r[0] + num(a)] + r[1:order], order)))
