"""Hypergeometric series evaluation.

The parameters choose one of two regimes:

* terminating: an upper parameter -m that is a nonpositive integer cuts
  the series off after index m (the smallest such m wins, and m may not
  pass _MAX_TERMS); the finite sum is then carried out exactly, as
  integer numerators over one running integer denominator, and rounded
  once at the end, so terminating evaluations are immune to
  cancellation between large alternating terms.
* convergent: otherwise, floating-point summation for |z| < 1, stopping
  once the current term is below _REL_TOL relative to the partial sum
  for three consecutive terms, within _MAX_TERMS terms.

Also provides the Jacobi polynomial and the Ferrers associated Legendre
function on (0, 1), both routed through the Gauss series. The c2 routes
hyp_closed, jacobi and legendre_sec2 therefore sum one series, so they do
not check each other (ROADMAP item 12(b), the strict xfail in
tests/test_independence.py).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import factorial

from .exact import _exact_or_float, rising_factorial

__all__ = [
    "HypergeometricError",
    "HypConvergenceError",
    "gauss_2f1",
    "pfq_series",
    "jacobi_p",
    "assoc_legendre_p",
]

# The convergent-mode stopping rule (see the module docstring).
_REL_TOL = 1e-15
_MAX_TERMS = 100_000


class HypergeometricError(ValueError):
    """Invalid parameters: lower-parameter pole or divergent argument."""


class HypConvergenceError(RuntimeError):
    """Convergent-mode summation did not settle within _MAX_TERMS terms, or
    a terminating series would sum more than _MAX_TERMS terms."""


def _nonpositive_int(x) -> int | None:
    """-x when x is a nonpositive integer-valued number, else None."""
    if isinstance(x, int):
        return -x if x <= 0 else None
    if isinstance(x, Fraction):
        return -int(x) if x.denominator == 1 and x <= 0 else None
    if isinstance(x, float):
        return -int(x) if x.is_integer() and x <= 0.0 else None
    return None


def _sum_terminating(upper, lower, z, k_max: int) -> Fraction:
    """Exact rational sum of the series through index k_max.

    Float inputs are converted to the dyadic rationals they already are
    (a float z of inf or nan has none and is refused), so the only rounding
    in a terminating evaluation is the caller's final one. With upper
    u_i = un_i/ud_i, lower v_j = vn_j/vd_j and z = zn/zd as integer pairs,
    term k+1 over term k is P_k/Q_k with integers
    P_k = prod_i (un_i + k ud_i) * zn * prod_j vd_j and
    Q_k = (k+1) prod_j (vn_j + k vd_j) * zd * prod_i ud_i. The term
    and the partial sum are kept as integer numerators over one running
    denominator, the product of the Q_k, so no step takes a gcd; only the
    result becomes a Fraction. The early stop tests the upper factors
    alone, so z = 0 still reaches the lower-parameter pole check. A cut
    k_max past _MAX_TERMS raises HypConvergenceError before any term.
    """
    if k_max > _MAX_TERMS:
        raise HypConvergenceError(f"terminating series needs more than {_MAX_TERMS} terms")
    if isinstance(z, float) and not math.isfinite(z):
        raise HypergeometricError(f"argument z = {z} is not finite")
    up = [Fraction(u).as_integer_ratio() for u in upper]
    lo = [Fraction(v).as_integer_ratio() for v in lower]
    zn, zd = Fraction(z).as_integer_ratio()
    p_scale = zn * math.prod(vd for _, vd in lo)
    q_scale = zd * math.prod(ud for _, ud in up)
    total = term = den = 1  # partial sum and term, both over den
    for k in range(k_max):
        num = 1
        for un, ud in up:
            num *= un + k * ud
        if num == 0:
            break
        q = (k + 1) * q_scale
        for vn, vd in lo:
            if vn + k * vd == 0:
                raise HypergeometricError(
                    f"lower parameter {Fraction(vn, vd)} hits a pole at term {k + 1}"
                )
            q *= vn + k * vd
        term *= num * p_scale
        total = total * q + term
        den *= q
    return Fraction(total, den)


def _sum_convergent(upper, lower, z) -> float:
    up = [float(u) for u in upper]
    lo = [float(v) for v in lower]
    zf = float(z)
    if len(up) > len(lo) + 1:
        raise HypergeometricError("series diverges: more upper than lower+1 parameters")
    if len(up) == len(lo) + 1 and abs(zf) >= 1.0:
        raise HypergeometricError(f"series requires |z| < 1, got z={zf}")
    total = 0.0
    term = 1.0
    settled = 0
    for k in range(_MAX_TERMS):
        total += term
        if abs(term) <= _REL_TOL * abs(total):
            settled += 1
            if settled >= 3:
                return total
        else:
            settled = 0
        num = 1.0
        for u in up:
            num *= u + k
        den = k + 1.0
        for v in lo:
            if v + k == 0.0:
                raise HypergeometricError(
                    f"lower parameter {v} hits a pole at term {k + 1}"
                )
            den *= v + k
        term = term * num * zf / den
    raise HypConvergenceError(f"series not settled after {_MAX_TERMS} terms")


def pfq_series(upper, lower, z):
    """Generalized hypergeometric sum pFq(upper; lower; z).

    When an upper parameter is a nonpositive integer -m the series stops
    after index m and is summed exactly: a Fraction when every input is
    an int or a Fraction, else a float. Any other series is summed in
    floats by the convergent-mode rule and returns a float.
    """
    upper, lower = tuple(upper), tuple(lower)
    cuts = [k for k in map(_nonpositive_int, upper) if k is not None]
    if cuts:
        total = _sum_terminating(upper, lower, z, min(cuts))
        return _exact_or_float(total, *upper, *lower, z)
    return _sum_convergent(upper, lower, z)


def gauss_2f1(a1, a2, c, z):
    """Gauss hypergeometric function 2F1(a1, a2; c; z) by direct summation."""
    return pfq_series((a1, a2), (c,), z)


def jacobi_p(n: int, alpha, beta, x):
    """Jacobi polynomial P_n^(alpha, beta)(x).

    Evaluated as binom(n+alpha, n) 2F1(-n, n+alpha+beta+1; alpha+1; (1-x)/2).
    The series terminates, so the sum is exact; rational inputs give a
    Fraction, float inputs a float.
    """
    if n < 0:
        raise ValueError("jacobi_p: degree n must be >= 0")
    a, b, xx = Fraction(alpha), Fraction(beta), Fraction(x)
    lead = rising_factorial(a + 1, n)
    f = _sum_terminating((-n, n + a + b + 1), (a + 1,), (1 - xx) / 2, n)
    return _exact_or_float(lead * f / factorial(n), alpha, beta, x)


def assoc_legendre_p(nu, mu, x) -> float:
    """Ferrers associated Legendre function P_nu^mu(x) for 0 < x < 1.

    Uses (1/Gamma(1-mu)) ((1+x)/(1-x))^(mu/2) 2F1(-nu, nu+1; 1-mu; (1-x)/2),
    the branch convention valid on the cut; only 0 < x < 1 is accepted.
    The series terminates when nu is a nonnegative integer and otherwise
    converges, since (1-x)/2 lies in (0, 1/2).
    """
    x = float(x)
    if not 0.0 < x < 1.0:
        raise ValueError("assoc_legendre_p: x must satisfy 0 < x < 1")
    if _nonpositive_int(1 - mu) is not None:
        raise ValueError("assoc_legendre_p: 1 - mu must not be a nonpositive integer")
    f = gauss_2f1(-nu, nu + 1, 1 - mu, (1.0 - x) / 2.0)
    pref = ((1.0 + x) / (1.0 - x)) ** (float(mu) / 2.0) / math.gamma(float(1 - mu))
    return pref * f
