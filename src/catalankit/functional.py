"""The Catalan functional cf(n; a, b, p) and its representations.

The functional generalizes the Catalan numbers of the second kind: it
is defined by the half-line integral

    (sin(p pi)/pi) * integral_0^inf
        t^p / ((a^2 + 2 a cos(p pi) t^p + t^(2p)) (b + t)^(n+1)) dt

for a >= 0, b > 0, 0 < p < 1, n >= 0, and reduces to C2(n; a, b) at
p = 1/2 (the cosine vanishes and the denominator collapses). Besides
the integral there are a finite double sum, a single series in powers
of b^p/a (two convergence branches), and a closed form through
Q(n, y, p) that covers the b^p = a boundary.

Prefactor correction: the published series and Q-form carry 1/(n+1)
where the derivation's inner Beta integral produces Gamma(n+2), i.e.
the prefactor should be 1/n!. This module implements the corrected
forms; cf_series_as_printed evaluates the published version verbatim
(including its k = 0 descending start) so the n!/(n+1) discrepancy can
be measured rather than silently patched.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .exact import _check_c2_domain, _check_p, _exact_or_float, _float_pow, _float_range_error
from .exact import _is_exact, _power_arithmetic, _to_float
from .qfunc import _pochhammer_series, q_series_with_terms, q_stirling
from .quad import QuadResult, integrate_halfline

__all__ = [
    "SeriesEvaluation",
    "cf_quadrature",
    "cf_double_sum",
    "cf_series_detailed",
    "cf_series_as_printed",
    "cf_via_q",
]


def _check_domain(a, b, p, n: int) -> None:
    _check_c2_domain(a, b, n)
    _check_p(p)


def _series_ratio(a, b, p) -> Fraction:
    """y = b^p/a for the single series: exact when b^p is rational, else
    the float quotient taken as a Fraction."""
    power, cast = _power_arithmetic(b, p)
    y = power / cast(a)
    if cast is Fraction:
        return y
    if math.isinf(y):
        raise _float_range_error("b^p/a", math.log10(power) - math.log10(a))
    return Fraction(y)


def cf_quadrature(a, b, p, n: int, tol: float = 1e-10) -> QuadResult:
    """The defining integral, by adaptive quadrature; needs a > 0.

    Endpoint exponent p, decay exponent n+1+p. The denominator is
    |t^p e^(i p pi) + a|^2 >= a^2 sin^2(p pi) > 0, so the integrand has
    no pole on the half-line.
    """
    _check_domain(a, b, p, n)
    if not a > 0:
        raise ValueError("cf_quadrature needs a > 0")
    af, bf, pf = _to_float(a), _to_float(b), _to_float(p)
    a2 = af * af  # not _float_pow: af ** 2 can differ from af * af in the last bit
    if math.isinf(a2):
        raise _float_range_error("a^2", 2 * math.log10(af))
    two_a_cos = 2.0 * af * math.cos(pf * math.pi)
    power = n + 1

    def f(t: float) -> float:
        tp = t**pf
        return tp / ((a2 + two_a_cos * tp + tp * tp) * (bf + t) ** power)

    raw = integrate_halfline(f, pf, n + 1 + pf, tol)
    scale = math.sin(pf * math.pi) / math.pi
    return QuadResult(raw.value * scale, raw.abs_err_est * scale, raw.evaluations)


def cf_double_sum(a, b, p, n: int):
    """Finite double-sum representation; always convergent, a = 0 allowed.

    (1/((a+b^p) n! b^n)) sum_{k=0..n} (1+a/b^p)^(-k)
        sum_{m=0..k} (-1)^m binom(k,m) (-pm)_n.

    The inner sum is the k-th finite difference of the degree-n
    polynomial m -> (-pm)_n, so terms with k > n vanish and the outer
    sum is finite. Inner sums cancel heavily and are always exact: with
    p = u/v, (-pm)_n is the integer prod_{j<n} (jv - um) over v^n, found
    once per m, so each inner sum is one integer over v^n. The outer sum
    runs in floats when b^p is irrational (weight = 1/(1 + a/b^p) lies in
    (0, 1], so its powers do not overflow); the result is a Fraction when
    a, b, p and b^p are all rational.
    """
    _check_domain(a, b, p, n)
    power, cast = _power_arithmetic(b, p)
    u, v = Fraction(p).as_integer_ratio()
    pochhammer = [math.prod(j * v - u * m for j in range(n)) for m in range(n + 1)]
    vn = v**n
    inner_sums = [
        Fraction(sum((-1) ** m * comb(k, m) * pochhammer[m] for m in range(k + 1)), vn)
        for k in range(n + 1)
    ]
    exact = _is_exact(power)
    af, bf = cast(a), cast(b)
    weight = 1 / (1 + af / power)
    terms = (cast(inner) * weight**k for k, inner in enumerate(inner_sums))
    total = sum(terms, Fraction(0)) if exact else math.fsum(terms)
    value = total / ((af + power) * factorial(n) * _float_pow(bf, n, "b^n"))
    return _exact_or_float(value, a, b, p)


class SeriesEvaluation(NamedTuple):
    """Outcome of a single-series evaluation: which branch, how many terms."""

    value: float
    branch: str  # "ascending" (powers of b^p/a) or "descending" (powers of a/b^p)
    ratio: float  # y = b^p/a
    terms: int


def _single_series(a, b, p, n: int):
    """What the corrected and the printed series share: the domain and
    a > 0 checks, y = b^p/a (refused at 1), a b^n and the branch sum, as
    (sum, a b^n, branch, y, terms). The sum is Q(n, y, p) as a float when
    ascending, the exact -sum_{k>=1} (pk)_n (-1/y)^k when descending."""
    _check_domain(a, b, p, n)
    if not a > 0:
        raise ValueError("cf_series needs a > 0 (the prefactor divides by a)")
    y = _series_ratio(a, b, p)
    if y == 1:
        raise ValueError("cf_series: b^p = a is the series boundary; use cf_via_q")
    ab_n = _to_float(a) * _float_pow(_to_float(b), n, "b^n")
    if y < 1:
        total, terms = q_series_with_terms(n, y, Fraction(p))
        return total, ab_n, "ascending", y, terms
    total, terms = _pochhammer_series(n, 1 / y, Fraction(p), descending=True)
    return -total, ab_n, "descending", y, terms


def cf_series_detailed(a, b, p, n: int) -> SeriesEvaluation:
    """Single-series representation with branch selection; needs b^p != a.

    Ascending branch (y = b^p/a < 1):   (1/(a b^n n!)) sum_{k>=0} (-pk)_n (-y)^k
    Descending branch (x = a/b^p < 1): -(1/(a b^n n!)) sum_{k>=1} (pk)_n (-x)^k

    Published form corrections applied here: prefactor n! (not n+1) and
    the descending sum starts at k = 1 (its k = 0 term comes from
    1/Gamma(0) = 0 in the derivation, so the printed k = 0 start adds a
    spurious 1 at n = 0). At b^p = a neither branch converges; use
    cf_via_q, which is exact there.
    """
    total, ab_n, branch, y, terms = _single_series(a, b, p, n)
    return SeriesEvaluation(_to_float(total) / (ab_n * factorial(n)), branch, _to_float(y), terms)


def cf_series_as_printed(a, b, p, n: int) -> float:
    """The published single series, evaluated verbatim: prefactor n+1 and
    both branches starting at k = 0.

    Exists for errata measurement: for n >= 1 the ratio to the corrected
    series is n!/(n+1) on either branch; the descending n = 0 case picks
    up the spurious k = 0 term as well.
    """
    total, ab_n, branch, _, _ = _single_series(a, b, p, n)
    if branch == "descending" and n == 0:
        total -= 1  # the printed k = 0 term, -(p*0)_0
    return _to_float(total) / (ab_n * (n + 1))


def cf_via_q(a, b, p, n: int):
    """Closed form through Q: cf = Q(n, b^p/a, p) / (a b^n n!), b^p <= a.

    The only route that covers the boundary b^p = a (where y = 1 and
    Q's closed form still applies); published with the same (n+1)
    prefactor slip, corrected to n! here. Exact Fraction result when
    a, b, p and b^p are all rational.
    """
    _check_domain(a, b, p, n)
    if not a > 0:
        raise ValueError("cf_via_q needs a > 0")
    power, cast = _power_arithmetic(b, p)
    af, bf = cast(a), cast(b)
    y = power / af
    if y > 1:
        raise ValueError(f"cf_via_q needs b^p <= a, got y = {_to_float(y)!r}")
    value = cast(q_stirling(n, Fraction(y), Fraction(p)))
    return _exact_or_float(value / (af * _float_pow(bf, n, "b^n") * factorial(n)), a, b, p)
