"""Truncated power series and the generating function of C2(n; a, b).

gf_catalan2 expands y(x) = 1/(a + sqrt(b - x)). A PowerSeries holds the
result, its coefficients either all Fraction (exact mode, when sqrt(b) is
rational) or all float.

Exact mode reads the coefficients off the generating function's own ODE.
With c = a^2 - b, (x + c) y = a - sqrt(b - x), and 2(b - x) times the
derivative of sqrt(b - x) is -sqrt(b - x), so

    2(b - x)(x + c) y' + (2b + c - x) y = a.

Its coefficients follow from y_0 = 1/(a + sqrt(b)): for c != 0,
2bc y_1 = a - (2b + c) y_0 and, for k >= 1,

    2bc(k+1) y_(k+1) = (2k-1) y_(k-1) - (2(b-c)k + 2b + c) y_k;

at c = 0 (a = sqrt(b)) the ODE is first order, y_k = y_(k-1) (2k-1) /
(2b(k+1)). The loop runs on integer numerators over a running
denominator and builds each returned Fraction once. The ODE's other
solution, sqrt(b - x)/(x + c), has a pole at x = -c that swamps y in
float arithmetic, so the recurrence never runs in floats.

Float mode runs Newton iteration on float lists, for a positive constant
term: the square root of b - x, then the reciprocal of a plus that root.
Each Newton step doubles the number of correct coefficients. Its
coefficients are printed to 17 digits, so the order of every operation
is fixed: a reordered sum or a fused Newton step would move their last
bits."""

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


# Float kernel: a series is a list of floats whose constant term is
# positive, so every product's zero is 0.0 (see the module docstring).


def _convolve(a, b, order: int) -> list:
    out = [0.0] * order
    for i, x in enumerate(a[:order]):
        if x:
            for j, y in enumerate(b[: order - i]):
                out[i + j] += x * y
    return out


def _float_recip(c: list, order: int) -> list:
    v = [1.0 / c[0]]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # v <- v (2 - c v); 0.0 - x, not -x, which would turn a 0.0 into -0.0
        cv = _convolve(c[:prec], v, prec)
        v = _convolve(v, [2.0 - cv[0]] + [0.0 - x for x in cv[1:]], prec)
    return v


def _float_sqrt(c: list, root: float, order: int) -> list:
    r = [root]
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        # r <- (r + c/r) / 2
        q = _convolve(c[:prec], _float_recip(r, prec), prec)
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
    if num is not Fraction:
        # The root runs to order 2 at least, so a float coefficient 0 is
        # rounded by a Newton step at every order, order 1 included; it is
        # cut to order.
        r = _float_sqrt([num(b), -1.0], root, max(2, order))
        return PowerSeries(tuple(_float_recip([r[0] + num(a)] + r[1:order], order)))
    # Over d, the lcm of the denominators of a and sqrt(b): a = A/d,
    # sqrt(b) = R/d, b = B/L and c = C/L. y_k is N_k / E_k, where
    # E_(k+1) = 2BC(k+1) E_k makes the ODE's step
    # N_(k+1) = 2BC L^2 k(2k-1) N_(k-1) - L(2(B-C)k + 2B + C) N_k
    # an integer one, with no gcd.
    a = Fraction(a)
    d = math.lcm(a.denominator, root.denominator)
    A, R, L = a.numerator * (d // a.denominator), root.numerator * (d // root.denominator), d * d
    B, C = R * R, A * A - R * R
    nums, dens = [d], [A + R]  # y_0 = 1/(a + sqrt(b))
    if C == 0:  # a = sqrt(b): y_k = y_(k-1) (2k-1) L / (2B(k+1))
        for k in range(1, order):
            nums.append(nums[-1] * (2 * k - 1) * L)
            dens.append(dens[-1] * 2 * B * (k + 1))
    else:
        bc2 = 2 * B * C
        # y_1 = 1/(2 sqrt(b) (a + sqrt(b))^2), over E_1 = 2BC E_0
        nums.append(L * d * R * (A - R))
        dens.append(bc2 * (A + R))
        for k in range(1, order - 1):
            nums.append(bc2 * L * L * k * (2 * k - 1) * nums[k - 1]
                        - L * (2 * (B - C) * k + 2 * B + C) * nums[k])
            dens.append(bc2 * (k + 1) * dens[k])
    return PowerSeries(tuple(map(Fraction, nums[:order], dens[:order])))
