"""Representations of the Catalan numbers of the second kind.

C2(n; a, b) is the coefficient of x^n in the generating function
1/(a + sqrt(b - x)), for a >= 0 and b > 0. Several published closed
forms exist for it, along with an integral representation; this module
implements all of them so they can be cross-checked against each other.

Normalization: the published closed forms and the published value table
carry an extra factor pi relative to the generating function (whose
integral representation includes a 1/pi prefactor). The library treats
the generating-function convention, where C2(0; a, b) = 1/(a+sqrt(b)),
as canonical; Normalization.PRINTED_PI reproduces the printed forms.
c2_legendre_eq0b, whose printed prefactor has no pi, takes no `norm`.

Return types: operations built from terminating sums return Fraction
when the inputs are rational scalars (int or Fraction), sqrt(b) is
rational, and the normalization is pi-free; float otherwise.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from math import comb, factorial

from .exact import _check_c2_domain, _exact_or_float, _float_pow, _float_range_error, _is_exact
from .exact import _power_arithmetic, _to_float, catalan, double_factorial
from .hyper import assoc_legendre_p, gauss_2f1, jacobi_p
from .quad import QuadResult, integrate_halfline
from .series import gf_catalan2

__all__ = [
    "Normalization",
    "c2_double_factorial_sum",
    "c2_quadrature",
    "c2_hyp_closed",
    "c2_hyp_unbounded",
    "c2_jacobi",
    "c2_legendre",
    "c2_legendre_eq0b",
    "c2_gf_coefficient",
]


class Normalization(enum.Enum):
    """Scale convention for the closed forms (values are CLI tokens)."""

    GENERATING_FUNCTION = "gf"
    PRINTED_PI = "paper"


def _norm_factor(norm: Normalization):
    """1 or pi; pi is a float, so a printed-scale value is rounded."""
    return math.pi if norm is Normalization.PRINTED_PI else 1


def c2_double_factorial_sum(a, b, n: int):
    """Finite double-factorial sum for C2(n; a, b).

    sum_{k=0..n} binom(2n-k-1, 2(n-k)) k! (2(n-k)-1)!! / (1+a/sqrt(b))^(k+1),
    all over (2n)!! b^(n+1/2). Conventions: (-1)!! = 1, and the n=k=0
    binomial binom(-1, 0) = 1; both are forced by the n=0 value
    1/(a+sqrt(b)). Generating-function normalization by construction.
    """
    _check_c2_domain(a, b, n)
    root, cast = _power_arithmetic(b, Fraction(1, 2))
    exact = _is_exact(root)
    af = cast(a)
    base = 1 + af / root
    if not exact and math.isinf(base):
        raise _float_range_error("1+a/sqrt(b)", math.log10(af) - math.log10(root))
    scale = double_factorial(2 * n) * _float_pow(cast(b), n, "b^n") * root
    weights = []
    for k in range(n + 1):
        top, bot = 2 * n - k - 1, 2 * (n - k)
        weight = (1 if bot == 0 else 0) if top < 0 else comb(top, bot)
        weights.append(weight * factorial(k) * double_factorial(2 * (n - k) - 1))
    if exact:
        # Integer Horner, 3x faster than a Fraction loop: with base = B_n/B_d,
        # term k is weight B_d^(k+1) B_n^(n-k) over the common denominator B_n^(n+1).
        bn, bd = base.numerator, base.denominator
        total, bd_power = 0, bd
        for weight in weights:
            total = total * bn + weight * bd_power
            bd_power *= bd
        value = Fraction(total * scale.denominator, bn ** (n + 1) * scale.numerator)
    else:
        total = 0.0  # term by term, in k order (sum() of floats is compensated from 3.12)
        for k, weight in enumerate(weights):
            if weight:
                total += weight / _float_pow(base, k + 1, "(1+a/sqrt(b))^(k+1)")
        value = total / scale
    return _exact_or_float(value, a, b)


def c2_quadrature(a, b, n: int, tol: float = 1e-10) -> QuadResult:
    """C2(n; a, b) as (1/pi) * integral of sqrt(t)/((a^2+t)(b+t)^(n+1)).

    Requires a > 0: at a = 0 the integrand endpoint exponent drops to
    -1/2 and the other representations cover that case.
    """
    _check_c2_domain(a, b, n)
    if not a > 0:
        raise ValueError("c2_quadrature needs a > 0")
    a2, bf, power = _float_pow(_to_float(a), 2, "a^2"), _to_float(b), n + 1

    def f(t: float) -> float:
        return math.sqrt(t) / ((a2 + t) * (bf + t) ** power)

    raw = integrate_halfline(f, 0.5, n + 1.5, tol)
    return QuadResult(raw.value / math.pi, raw.abs_err_est / math.pi, raw.evaluations)


def c2_hyp_closed(a, b, n: int, norm: Normalization = Normalization.GENERATING_FUNCTION):
    """Terminating-2F1 closed form.

    C_n * K / (2 sqrt(b))^n * (a+sqrt(b))^(-n-1)
        * 2F1(1-n, n; n+2; (sqrt(b)-a)/(2 sqrt(b))),
    K = 1 (gf) or pi (printed). At n = 0 the second upper parameter is 0
    and the 2F1 is 1, extending the published n >= 1 range.
    """
    _check_c2_domain(a, b, n)
    root, cast = _power_arithmetic(b, Fraction(1, 2))
    aa = cast(a)
    z = (root - aa) / (2 * root)
    two_root_n = _float_pow(2 * root, n, "(2 sqrt(b))^n")
    pref = catalan(n) / (two_root_n * _float_pow(aa + root, n + 1, "(a+sqrt(b))^(n+1)"))
    k = _norm_factor(norm)
    return _exact_or_float(pref * gauss_2f1(1 - n, n, n + 2, z), a, b, k) * k


def c2_hyp_unbounded(
    a, b, n: int, norm: Normalization = Normalization.GENERATING_FUNCTION
) -> float:
    """Non-terminating 2F1 form, valid only for |1 - b/a^2| < 1.

    C_n * K / 2^(2n+1) * b^(1/2-n) / a^2 * 2F1(1, 3/2; n+2; 1 - b/a^2).
    Exists as a cross-check against the terminating closed form on the
    shared domain; the series does not terminate, so the result is float.
    """
    _check_c2_domain(a, b, n)
    if not a > 0:
        raise ValueError("c2_hyp_unbounded needs a > 0")
    a2, bf = _float_pow(_to_float(a), 2, "a^2"), _to_float(b)
    z = 1.0 - bf / a2
    if not abs(z) < 1:
        raise ValueError(f"c2_hyp_unbounded needs |1 - b/a^2| < 1, got {z!r}")
    pref = catalan(n) / 2 ** (2 * n + 1) * _float_pow(bf, 0.5 - n, "b^(1/2-n)") / a2
    return pref * gauss_2f1(1.0, 1.5, n + 2, z) * _norm_factor(norm)


def c2_jacobi(a, b, n: int, norm: Normalization = Normalization.GENERATING_FUNCTION):
    """Jacobi-polynomial form, n >= 1 (the prefactor divides by n).

    K / (n (2 sqrt(b))^n) * (a+sqrt(b))^(-n-1) * P_{n-1}^{(n+1, -n-1)}(a/sqrt(b)).
    Equivalent to the terminating closed form via binom(2n, n-1) = n C_n.
    """
    _check_c2_domain(a, b, n)
    if n < 1:
        raise ValueError("c2_jacobi needs n >= 1")
    root, cast = _power_arithmetic(b, Fraction(1, 2))
    aa = cast(a)
    two_root_n = _float_pow(2 * root, n, "(2 sqrt(b))^n")
    pref = 1 / (n * two_root_n * _float_pow(aa + root, n + 1, "(a+sqrt(b))^(n+1)"))
    k = _norm_factor(norm)
    return _exact_or_float(pref * jacobi_p(n - 1, n + 1, -n - 1, aa / root), a, b, k) * k


def _legendre_args(a, b, n: int):
    """Checks both Legendre forms share; float a, b, sqrt(b) and P_{n-1}^{-n-1}(a/sqrt(b))."""
    _check_c2_domain(a, b, n)
    if n < 1:
        raise ValueError("c2_legendre needs n >= 1")
    af, bf = _to_float(a), _to_float(b)
    root = math.sqrt(bf)
    if not 0 < af < root:
        raise ValueError("c2_legendre needs 0 < a < sqrt(b)")
    return af, bf, root, assoc_legendre_p(n - 1, -n - 1, af / root)


def c2_legendre(a, b, n: int, norm: Normalization = Normalization.GENERATING_FUNCTION) -> float:
    """Published associated-Legendre form, 0 < a < sqrt(b) and n >= 1.

    C_n * K / (2 sqrt(b))^n * Gamma(n+2) / (b-a^2)^((n+1)/2) * P_{n-1}^{-n-1}(a/sqrt(b)),
    K = 1 (gf) or pi (printed). Equal to the terminating closed form, unlike
    the other printed prefactor, c2_legendre_eq0b.
    """
    af, bf, root, p_val = _legendre_args(a, b, n)
    pref = (
        catalan(n)
        * _norm_factor(norm)
        / _float_pow(2 * root, n, "(2 sqrt(b))^n")
        * factorial(n + 1)
        / _float_pow(bf - _float_pow(af, 2, "a^2"), (n + 1) / 2, "(b-a^2)^((n+1)/2)")
    )
    return float(pref * p_val)


def c2_legendre_eq0b(a, b, n: int) -> float:
    """The other published Legendre form, evaluated verbatim; domain as c2_legendre.

    C_n * (a/(2 sqrt(b)))^n * Gamma(n+2) / (sqrt(b)-a)^(2n+1) * P_{n-1}^{-n-1}(a/sqrt(b)).
    Its prefactor carries no pi and disagrees with c2_legendre's; the
    errata report measures both against the terminating closed form.
    """
    af, _, root, p_val = _legendre_args(a, b, n)
    ratio_n = _float_pow(af / (2 * root), n, "(a/(2 sqrt(b)))^n")
    pref = catalan(n) * ratio_n * factorial(n + 1)
    return float(pref / _float_pow(root - af, 2 * n + 1, "(sqrt(b)-a)^(2n+1)") * p_val)


def c2_gf_coefficient(a, b, n: int):
    """Coefficient n of the Maclaurin series of 1/(a + sqrt(b - x)).

    Independent of every closed form above: read off the generating
    function's own first-order ODE when sqrt(b) is rational, else computed
    by Newton iteration on the series square root and reciprocal.
    """
    _check_c2_domain(a, b, n)
    value = gf_catalan2(a, b, n + 1).coefficient(n)
    return _exact_or_float(value, a, b)
