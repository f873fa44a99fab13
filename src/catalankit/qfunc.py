"""The auxiliary series Q(n, y, p) behind the Catalan functional.

Q(n, y, p) = sum_{k>=0} (-pk)_n (-y)^k with (x)_n the rising factorial,
for n >= 0, y in [0, 1], p in (0, 1). The series converges only for
y < 1, but Q extends to y = 1 through its closed forms, which are exact
rational functions of y. Routes provided:

  q_series_with_terms  direct summation with a proven tail bound (y < 1)
  q_stirling           geometric-polynomial closed form (valid at y = 1)
  q_polylog            negative-order-polylogarithm closed form (n >= 1)
  q_rational*          the closed forms as RationalFunction objects in y
  q_hyp                a published hypergeometric form, evaluated verbatim
                       for comparison only: its prefactor disagrees with the
                       other routes (at n = 1 by exactly y^-3) and the
                       comparison is reported rather than asserted

Exact summation: the series terms grow to ~1e7 before decaying (e.g.
y = 0.9, n = 6) while the sum stays O(1), so float accumulation loses
about seven digits to cancellation. Every float is a dyadic rational, so
with p = u/v and y = c/d in lowest terms each term and each partial sum
is kept as an integer numerator over v^n d^k: still exact, without a gcd
per term, and rounded once at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

from .exact import (
    Polynomial,
    RationalFunction,
    _check_n,
    _check_p,
    _exact_or_float,
    _is_exact,
    _to_float,
    geometric_polynomial,
    polylog_neg,
    stirling_first,
)

__all__ = [
    "q_series_with_terms",
    "series_tail_bound",
    "q_stirling",
    "q_polylog",
    "q_hyp",
    "q_rational",
    "q_rational_recurrence",
    "q_recurrence_value",
]

# The single series' stopping rule (both branches): the first nonzero partial
# sum whose tail bound is at most _REL_TOL times it, within _MAX_TERMS terms.
_REL_TOL = Fraction(1e-15)
_MAX_TERMS = 100_000
# Next to y = 1 the exact partial sum gains y's bits with every term, so a run
# costs about terms^2 * (bits of y + 32) before _MAX_TERMS matters. A series
# whose predicted work passes this budget is refused before it starts. The
# largest tier-1 case (n = 12, y = 0.9 as a float, p = 11/12) predicts 1.8e8;
# completing benchmark points reach 7e7, and 1e8 took about 1 s on a 2-core
# Linux host with Python 3.11.
_WORK_BUDGET = 3 * 10**8


def series_tail_bound(n: int, y, p, start: int) -> Fraction:
    """Upper bound on sum_{k>=start} |(-pk)_n| y^k, for 0 <= y < 1, p > 0.

    Each factor of (-pk)_n is at most pk+n in magnitude, so the k-th
    term is bounded by B_k = (pk+n)^n y^k, and B_{k+1}/B_k <=
    y ((k+1)/k)^n for k >= 1. Once that ratio r drops below 1 the tail
    is at most B_k/(1-r); earlier bounds are added explicitly. The same
    bound covers |(pk)_n| (every factor is at most pk+n there too), so
    the descending-branch series shares it.

    Computed on integers: with y = c/d, p = u/v and k0 = max(start, 1),
    the threshold K is the first k >= k0 with c (k+1)^n < d k^n, and the
    bound is y^k0 times [sum_{k0<=k<K} (uk+nv)^n c^(k-k0) d^(K-k) E
    + (uK+nv)^n c^(K-k0) d K^n] over v^n d^(K-k0) E, with
    E = d K^n - c (K+1)^n > 0, plus 1 for the k = 0 term when n = 0 and
    start = 0. The power of the reduced y needs no gcd, and each gcd of
    the product pairs y^k0 with an integer of size d^(K-k0), small when k0
    is at or near the threshold (the common case inside a series), so no
    gcd of two huge integers runs.

    Raises ValueError for n that is not a nonnegative integer, for
    p <= 0, for start < 0 and for y outside [0, 1), non-finite floats
    included. A finite float y or p is taken as the Fraction it equals.
    The checks read integers only, as the series calls this once per term.
    """
    _check_n(n)
    if start < 0:
        raise ValueError(f"series_tail_bound needs start >= 0, got {start!r}")
    # Fraction raises OverflowError for an infinity, ValueError for NaN
    if not isinstance(p, (int, Fraction)):
        try:
            p = Fraction(p)
        except (OverflowError, ValueError):
            raise ValueError(f"series_tail_bound needs a finite p > 0, got {p!r}") from None
    if not isinstance(y, (int, Fraction)):
        try:
            y = Fraction(y)
        except (OverflowError, ValueError):
            raise ValueError(f"series_tail_bound needs 0 <= y < 1, got {y!r}") from None
    u, v, c, d = p.numerator, p.denominator, y.numerator, y.denominator
    if u <= 0:
        raise ValueError(f"series_tail_bound needs p > 0, got {p}")
    if not 0 <= c < d:
        raise ValueError(f"series_tail_bound needs 0 <= y < 1, got {y}")
    if c == 0:
        return Fraction(0)
    nv = n * v
    k0 = k = max(start, 1)
    k_n, next_n = k**n, (k + 1) ** n
    below, c_k = 0, 1  # sum_{k0<=k<K} (uk+nv)^n c^(k-k0) d^(K-1-k), c^(k-k0)
    while c * next_n >= d * k_n:
        below = below * d + (u * k + nv) ** n * c_k
        k += 1
        c_k *= c
        k_n, next_n = next_n, (k + 1) ** n
    excess = d * k_n - c * next_n  # E > 0
    num = below * d * excess + (u * k + nv) ** n * c_k * d * k_n
    bound = y**k0 * Fraction(num, v**n * d ** (k - k0) * excess)
    return bound + 1 if start == 0 and n == 0 else bound


def _predicted_terms(n: int, y: Fraction, p: Fraction) -> int:
    """About how many terms the stopping rule takes for 0 < y < 1, if the
    sum is near 1: the first k, from series_tail_bound's ratio threshold
    (y ((k+1)/k)^n < 1) on, whose closed-form tail bound
    (pk+n)^n y^k / (1 - y ((k+1)/k)^n) is at most _REL_TOL. Found in
    floats by doubling and bisection, as the bound falls past the threshold."""
    # -log y, clamped to [1e-300, 700] so that the floats below stay finite
    if y <= Fraction(1, 2):
        eps = min(math.log(y.denominator) - math.log(y.numerator), 700.0)
    else:
        eps = max(-math.log1p(-float(1 - y)), 1e-300)
    pf, target = float(p), math.log(_REL_TOL)

    def log_tail(k: int) -> float:
        log_ratio = n * math.log1p(1 / k) - eps
        if log_ratio >= 0:
            return math.inf
        return n * math.log(pf * k + n) - k * eps - math.log(-math.expm1(log_ratio))

    lo = hi = 1 if n == 0 else math.floor(1 / max(math.expm1(eps / n), 1e-300)) + 1
    while log_tail(hi) > target:
        if hi > _MAX_TERMS:
            return hi  # a lower bound, and past what the series may take anyway
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if log_tail(mid) <= target else (mid, hi)
    return hi


def _pochhammer_series(
    n: int, y: Fraction, p: Fraction, descending: bool
) -> tuple[Fraction, int]:
    """(total, terms_used) for one branch of the single series, 0 < y < 1:

    ascending   sum_{k>=0} (-pk)_n (-y)^k   (the defining series of Q)
    descending  sum_{k>=1}  (pk)_n (-y)^k

    Stops at the first nonzero partial sum whose series_tail_bound is at
    most _REL_TOL * |partial sum|; the bound covers both branches. With
    p = u/v and y = c/d in lowest terms, term k is prod_{j<n} (j v - u k) (-c)^k
    over v^n d^k (j v + u k when descending), so the partial sum is an
    integer T over v^n d^k and the stopping test cross-multiplies
    integers. The total is exact. Raises RuntimeError before summing
    when the predicted work passes _WORK_BUDGET.
    """
    name = "descending series" if descending else "q_series"
    u, v, c, d = p.numerator, p.denominator, y.numerator, y.denominator
    terms = _predicted_terms(n, y, p)
    if terms**2 * (c.bit_length() + d.bit_length() + 32) > _WORK_BUDGET:
        raise RuntimeError(f"{name}: needs about {terms:.2g} terms next to y = 1")
    if not descending:
        u = -u
    start = 1 if descending else 0
    vn = v**n
    tol_num, tol_den = _REL_TOL.numerator, _REL_TOL.denominator * vn
    power, den_power = (-c) ** start, d**start  # (-c)^k, d^k
    total = 0  # T
    for k in range(start, start + _MAX_TERMS):
        uk = u * k
        term = power
        for j in range(n):
            term *= j * v + uk
        total = total * d + term
        if total:
            bound = series_tail_bound(n, y, p, k + 1)
            if (
                bound.numerator * tol_den * den_power
                <= tol_num * abs(total) * bound.denominator
            ):
                return Fraction(total, vn * den_power), k - start + 1
        power *= -c
        den_power *= d
    raise RuntimeError(f"{name}: not converged after {_MAX_TERMS} terms")


def q_series_with_terms(n: int, y, p) -> tuple[float, int]:
    """(value, terms_used) for the defining series; needs 0 <= y < 1.

    Stops when the tail bound drops below _REL_TOL * |partial sum|. The
    summation is exact, so the returned float is the correctly rounded
    partial sum and the tail bound is the whole error.
    """
    _check_n(n)
    _check_p(p)
    if not 0 <= y < 1:
        raise ValueError(f"q_series needs 0 <= y < 1 (diverges beyond), got {y!r}")
    yf, pf = Fraction(y), Fraction(p)
    if yf == 0:
        return (1.0 if n == 0 else 0.0), 1
    total, terms = _pochhammer_series(n, yf, pf, descending=False)
    return _to_float(total), terms


def q_stirling(n: int, y, p):
    """Closed form via geometric polynomials; the route that covers y = 1.

    (-1)^(n+1) (y/(y+1)) sum_{k=1..n} s(n,k) (-p)^k omega_k(-1/(y+1)),
    with s the signed Stirling numbers of the first kind and omega_k the
    geometric polynomials; n = 0 is 1/(y+1) directly. Needs y > -1 only.
    Returns Fraction for rational y, p.
    """
    _check_n(n)
    _check_p(p)
    if not y > -1:
        raise ValueError(f"q_stirling needs y > -1, got {y!r}")
    yf, pf = Fraction(y), Fraction(p)
    if n == 0:
        value = 1 / (1 + yf)
    else:
        u = -1 / (1 + yf)
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += stirling_first(n, k) * (-pf) ** k * geometric_polynomial(k)(u)
        value = Fraction(-1) ** (n + 1) * (yf / (1 + yf)) * acc
    return _exact_or_float(value, y, p)


def _polylog_sum(n: int, p: Fraction, x):
    """(-1)^n sum_{k=1..n} s(n,k) Li_{-k}(x) p^k, n >= 1, which is Q(n, y, p) at x = -y:
    a Fraction at a number x, a RationalFunction of y at the Polynomial -y."""
    terms = (polylog_neg(k)(x) * (stirling_first(n, k) * p**k) for k in range(1, n + 1))
    return sum(terms) * (-1) ** n


def q_polylog(n: int, y, p):
    """Closed form via negative-order polylogarithms, n >= 1.

    (-1)^n sum_{k=1..n} s(n,k) Li_{-k}(-y) p^k, each Li_{-k} from its
    Eulerian closed form: independent of q_stirling's geometric polynomials
    and of q_rational_recurrence's derivatives. Returns Fraction for rational y, p.
    """
    _check_n(n)
    _check_p(p)
    if n == 0:
        raise ValueError("q_polylog covers n >= 1 only; n = 0 is 1/(y+1)")
    if not y >= 0:
        raise ValueError(f"q_polylog needs y >= 0, got {y!r}")
    return _exact_or_float(_polylog_sum(n, Fraction(p), -Fraction(y)), y, p)


def q_hyp(n: int, y, p) -> float:
    """The published nFn-1 form, evaluated exactly as printed.

    (-1)^(n-1) p Gamma(n) / y^(2n)
        * nFn-1(1-(n-1)/p, ..., 1-1/p, 2; -(n-1)/p, ..., -1/p; -y).

    Comparison-only: the prefactor is inconsistent with the other routes
    (Q stays bounded as y -> 0 while y^(-2n) diverges; at n = 1 the
    ratio to the true value is y^-3). When some m/p is an integer the
    series terminates before any lower-parameter pole and is summed
    exactly; otherwise no lower parameter is ever a nonpositive integer
    and the series converges for y < 1.
    """
    _check_n(n)
    _check_p(p)
    if n < 1:
        raise ValueError("q_hyp needs n >= 1")
    if not 0 < y < 1:
        raise ValueError(f"q_hyp needs 0 < y < 1, got {y!r}")
    from .hyper import pfq_series  # here, so a functional process never loads hyper

    yf, pf = Fraction(y), Fraction(p)
    upper = tuple(1 - Fraction(m) / pf for m in range(n - 1, 0, -1)) + (Fraction(2),)
    lower = tuple(-Fraction(m) / pf for m in range(n - 1, 0, -1))
    f = pfq_series(upper, lower, -yf)
    pref = Fraction(-1) ** (n - 1) * pf * factorial(n - 1) / yf ** (2 * n)
    # f is an exact Fraction when the series terminates, else a float
    return _to_float(pref * f) if _is_exact(f) else _to_float(pref) * f


def q_rational(n: int, p) -> RationalFunction:
    """Q(n, ., p) as an exact rational function of y, via polylogarithms."""
    _check_n(n)
    _check_p(p)
    if n == 0:
        return RationalFunction(1, Polynomial([1, 1]))
    return _polylog_sum(n, Fraction(p), Polynomial([0, -1]))


def q_rational_recurrence(n: int, p) -> RationalFunction:
    """Q(n, ., p) grown from Q(0) = 1/(y+1) by the recurrence

    Q(m+1) = -p y (d/dy) Q(m) + m Q(m),

    giving a route independent of both closed forms.
    """
    _check_n(n)
    _check_p(p)
    pf = Fraction(p)
    yy = Polynomial([0, 1])
    q = RationalFunction(1, Polynomial([1, 1]))
    for m in range(n):
        q = q.derivative() * (-pf) * yy + q * m
    return q


def q_recurrence_value(n: int, y, p):
    """Evaluate the recurrence-generated Q at the point (y, p)."""
    if not y >= 0:
        raise ValueError(f"q_recurrence_value needs y >= 0, got {y!r}")
    return _exact_or_float(q_rational_recurrence(n, Fraction(p))(Fraction(y)), y, p)
