"""Deterministic adaptive quadrature on [0, inf) for algebraic integrands.

The integrand class handled here behaves like t^sigma as t -> 0 and like
t^(-tau) as t -> inf, with sigma > -1 and tau > 1 so the integral exists.
The caller declares both exponents; nothing is detected at runtime.

Strategy: the change of variable t = (u/(1-u))^gamma maps [0, inf) onto
(0, 1). With gamma = 4 / min(sigma+1, tau-1) the transformed integrand
vanishes at least like a cubic at both endpoints, which turns the
endpoint behavior into something plain bisection resolves quickly; with
gamma = 1 this is the familiar t = u/(1-u) map, which for slowly
decaying integrands (tau near 1) would need subintervals too close to
u = 1 to represent in double precision. The declared exponents exist
precisely to license this rescaling. gamma is clamped to [1, 24], so an
exponent within 1/6 of its limit leaves a slower decay at its endpoint,
and within 1/24 a transformed integrand that does not vanish there.

On (0, 1) a global adaptive loop applies a 15-point Kronrod rule with
embedded 7-point Gauss rule per interval, always splitting the interval
with the largest error estimate (ties broken toward the left), until the
summed |K15 - G7| differences drop below the requested tolerance. The
two totals are exact sums of the intervals' floats, rounded once as
math.fsum rounds them; all other arithmetic is ordinary float arithmetic
in a fixed order, so identical inputs produce bit-identical results.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, NamedTuple

__all__ = [
    "QuadResult",
    "QuadratureError",
    "integrate_halfline",
]


# Integrand evaluations integrate_halfline may spend before it gives up.
_MAX_EVALS = 500_000


class QuadratureError(RuntimeError):
    """The tolerance was not reached: the budget ran out, or the map or f left the float range."""


class QuadResult(NamedTuple):
    """Quadrature value with an error estimate and evaluation count."""

    value: float
    abs_err_est: float
    evaluations: int


# 15-point Kronrod nodes/weights with the embedded 7-point Gauss weights,
# for the reference interval [-1, 1]. Gauss nodes sit at odd indices.
_XGK = (
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
)
_WGK = (
    0.0229353220105292, 0.0630920926299785, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
)
_WG = (
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
)


def _gk15(h: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Kronrod value and |K15 - G7| on [lo, hi]; 15 evaluations."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    sk = _WGK[7] * h(mid)
    sg = _WG[3] * h(mid)
    for i in range(7):
        dx = half * _XGK[i]
        v = h(mid - dx) + h(mid + dx)
        sk += _WGK[i] * v
        if i % 2 == 1:
            sg += _WG[i // 2] * v
    return half * sk, abs(half * (sk - sg))


# Every finite float is an integer number of 2^-1074 units.
_UNITS = 1 << 1074


def _units(x: float) -> int:
    """The finite float x in units of 2^-1074, exactly."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def integrate_halfline(
    f: Callable[[float], float], endpoint_exponent: float, decay_exponent: float, tol: float
) -> QuadResult:
    """Integrate f over [0, inf) to relative tolerance ``tol``.

    ``endpoint_exponent`` is sigma in f(t) ~ t^sigma as t -> 0 (must be
    > -1); ``decay_exponent`` is tau in f(t) ~ t^(-tau) as t -> inf (must
    be > 1). The exponents are trusted, not verified.
    The result satisfies |value - integral| <= max(tol * |value|, 1e-300)
    up to the reliability of the embedded error estimate, which the
    calibration selftest measures against Beta-integral ground truth
    drawn by `checks.beta_cases`.
    Deterministic: identical inputs give bit-identical results. Raises
    QuadratureError when the _MAX_EVALS evaluation budget runs out first,
    when the map's t or a Kronrod sum leaves the float range, when a
    Kronrod node rounds to the map's end u = 1, or when f overflows at a
    subnormal t (sigma too close to -1 for the map).
    """
    if not 1e-14 <= tol <= 1e-3:
        raise ValueError("integrate_halfline: tol must lie in [1e-14, 1e-3]")
    sigma = float(endpoint_exponent)
    tau = float(decay_exponent)
    if not (sigma > -1.0 and tau > 1.0):
        raise ValueError(
            "integrate_halfline: need endpoint_exponent > -1 and decay_exponent > 1"
        )
    gamma = min(24.0, max(1.0, 4.0 / min(sigma + 1.0, tau - 1.0)))

    def h(u: float) -> float:
        try:
            w = u / (1.0 - u)
        except ZeroDivisionError:  # a Kronrod node next to u = 1 rounded onto it
            msg = (f"a Kronrod node rounds to u = 1.0, the map's end, "
                   f"where t = (u/(1-u))^{gamma:g} is infinite")
            raise QuadratureError(msg) from None
        try:
            t = w**gamma
        except OverflowError:  # at a clamped gamma, a 0 here would drop tail mass
            msg = f"the map t = (u/(1-u))^{gamma:g} leaves the float range at u = {u!r}"
            raise QuadratureError(msg) from None
        if t <= 0.0:
            # t underflows only next to u = 0, where f may be singular
            return 0.0
        jac = gamma * w ** (gamma - 1.0) / (1.0 - u) ** 2
        try:
            v = f(t) * jac
        except OverflowError:  # next to u = 0 the map has no resolution left
            if t >= sys.float_info.min:
                raise
            msg = (f"f overflows at the subnormal t = {t!r} next to u = 0: "
                   f"endpoint exponent {sigma!r} is too close to -1 for the map")
            raise QuadratureError(msg) from None
        return v if math.isfinite(v) else 0.0

    # A heap of (-err, lo, hi, val): its top is the interval with the largest
    # error estimate, ties broken toward the left. The values and errors are
    # also summed exactly in units of 2^-1074, so each total is math.fsum of
    # the current intervals.
    heap: list[tuple[float, float, float, float]] = []
    val_sum = err_sum = 0

    def push(lo: float, hi: float) -> None:
        nonlocal val_sum, err_sum
        val, err = _gk15(h, lo, hi)
        if not (math.isfinite(val) and math.isfinite(err)):
            raise QuadratureError(f"the Kronrod sums on [{lo}, {hi}] leave the float range")
        val_sum += _units(val)
        err_sum += _units(err)
        heapq.heappush(heap, (-err, lo, hi, val))

    evals = 0
    for i in range(8):
        push(i / 8, (i + 1) / 8)
        evals += 15

    while True:
        total, toterr = val_sum / _UNITS, err_sum / _UNITS
        if toterr <= max(tol * abs(total), 1e-300):
            break
        if evals + 30 > _MAX_EVALS:
            raise QuadratureError(
                f"evaluation budget {_MAX_EVALS} exhausted: "
                f"value={total!r} abs_err_est={toterr!r} evaluations={evals}"
            )
        neg_err, lo, hi, val = heapq.heappop(heap)
        val_sum -= _units(val)
        err_sum -= _units(-neg_err)
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise QuadratureError(
                f"interval [{lo}, {hi}] cannot be split further at tol={tol}"
            )
        push(lo, mid)
        push(mid, hi)
        evals += 30
    return QuadResult(value=total, abs_err_est=toterr, evaluations=evals)
