"""The errata findings, the selftest suites and the oracles they run.

`errata` measures each discrepancy between the published closed forms and
the values the library computes; `selftest` runs internal consistency
suites against independent oracles. This module owns those oracles: the
printed C2 table, the geometric-polynomial inversion, the Beta and Euler
integrals, the Q identities (recurrence, termwise derivative form, series
transform, Pochhammer derivatives, z = y+1 bracket) and the p = 1/2
reduction of the functional. Only these two commands import this module,
so a computing subcommand neither compiles nor loads it. It imports `cli`,
so the package namespace does not re-export it; the tests and
scripts/quadrature_calibration.py import the oracles from here.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from fractions import Fraction
from math import factorial

from . import catalan2, exact, functional, hyper, qfunc
from .catalan2 import c2_hyp_closed, c2_quadrature
from .cli import _DEFAULT_TOL, ROW_ERRORS, _SUITE_NAMES, _error, _quad_tol
from .exact import Polynomial, RationalFunction, _check_c2_domain, _check_n, _check_p, _float_pow
from .exact import _is_exact, _to_float, falling_factorial, geometric_polynomial, polylog_neg
from .exact import rising_factorial, stirling_first, stirling_second
from .functional import cf_double_sum
from .hyper import gauss_2f1
from .qfunc import _REL_TOL, q_rational, q_series_with_terms, q_stirling, series_tail_bound
from .quad import integrate_halfline
from .reporting import CompareReport, RepRow, format_float, format_scalar, render_report

_SELFTEST_QUAD_TOL = _quad_tol(_DEFAULT_TOL)


# ---------------------------------------------------------------- oracles


# Published value table for n = 0..5: numerator terms (coeff, a_power,
# sqrt_b_power), denominator constant, denominator power of sqrt(b). The
# n = 4 entry is printed with the base b missing from its b^(7/2) factor;
# restored here (dimensional repair, confirmed by the pi-ratio check).
_PRINTED_TABLE = (
    (((1, 0, 0),), 1, 0),
    (((1, 0, 0),), 2, 1),
    (((1, 1, 0), (3, 0, 1)), 8, 3),
    (((1, 2, 0), (4, 1, 1), (5, 0, 2)), 16, 5),
    (((5, 3, 0), (25, 2, 1), (47, 1, 2), (35, 0, 3)), 128, 7),
    (((7, 4, 0), (42, 3, 1), (102, 2, 2), (122, 1, 3), (63, 0, 4)), 256, 9),
)


def printed_table_value(a, b, n: int) -> float:
    """Entry n of the published table of the first six C2 values.

    Evaluated verbatim (including the overall factor pi) apart from the
    n = 4 denominator repair noted above.
    """
    if not 0 <= n < len(_PRINTED_TABLE):
        raise ValueError(f"printed table covers n = 0..5, got {n}")
    _check_c2_domain(a, b, n)
    terms, const, bpow = _PRINTED_TABLE[n]
    af, sb = _to_float(a), math.sqrt(_to_float(b))
    num = math.fsum(
        c * _float_pow(af, i, "a^i") * _float_pow(sb, j, "b^(j/2)") for c, i, j in terms
    )
    den = const * _float_pow(af + sb, n + 1, "(a+sqrt(b))^(n+1)") * _float_pow(sb, bpow, "b^(j/2)")
    return math.pi * num / den


# The (a, b) grid of the table check; the errata command reads it too.
# Exact, so errata names its rows 1/2 and 3/10; c2_table_check takes floats.
_TABLE_GRID = ((1, 1), (1, 4), (Fraction(1, 2), Fraction(1, 4)), (2, 1), (Fraction(3, 10), 2))


def c2_table_check(pairs=_TABLE_GRID) -> list[float]:
    """|printed-table / quadrature - pi| for n = 0..5 at each (a, b), in
    (a, b, n) order, the quadrature at c2_quadrature's default tolerance.

    Every ratio is expected to equal pi: the published table is
    internally consistent but sits a factor pi above the generating
    function it is derived from.
    """
    return [abs(printed_table_value(a, b, n) / c2_quadrature(a, b, n).value - math.pi)
            for a, b in pairs for n in range(len(_PRINTED_TABLE))]


def geometric_inverse_check(n: int) -> bool:
    """Verify x^n = (1/n!) sum_k s(n, k) w_k(x) exactly.

    Follows from w_k(x) = sum_j S(k, j) j! x^j and the orthogonality of
    the two Stirling kinds; s(n, k) carries its sign already.
    """
    if n < 0:
        raise ValueError("geometric_inverse_check: n must be >= 0")
    acc = Polynomial()
    for k in range(n + 1):
        acc = acc + stirling_first(n, k) * geometric_polynomial(k)
    return acc == Polynomial([0] * n + [factorial(n)])


def beta_halfline(s: float, r: float, b: float) -> float:
    """Closed form of int_0^inf t^(s-1) (b+t)^(-r) dt for 0 < s < r, b > 0.

    Equals b^(s-r) Gamma(s) Gamma(r-s) / Gamma(r); used as ground truth
    when calibrating the adaptive integrator.
    """
    if not (b > 0.0 and 0.0 < s < r):
        raise ValueError("beta_halfline: need b > 0 and 0 < s < r")
    return b ** (s - r) * math.gamma(s) * math.gamma(r - s) / math.gamma(r)


# The draw of the quadrature_beta suite and the calibration script's defaults.
_BETA_COUNT = 50
_BETA_SEED = 20260816


def beta_cases(count: int, seed: int):
    """The seeded Beta calibration draw, shared by the `quadrature_beta`
    selftest suite and scripts/quadrature_calibration.py.

    Yields ``count`` cases ((s, r, b), (f, s - 1, r - s + 1), exact value),
    with s in [0.2, 3], r - s in [0.3, 5] and b in [0.25, 4]: f(t) =
    t^(s-1) (b+t)^(-r) with its endpoint and decay exponents, the leading
    arguments of `integrate_halfline`.
    """
    rng = random.Random(seed)
    for _ in range(count):
        s = rng.uniform(0.2, 3.0)
        r = s + rng.uniform(0.3, 5.0)
        b = rng.uniform(0.25, 4.0)
        f = lambda t, s=s, r=r, b=b: t ** (s - 1.0) * (b + t) ** (-r)
        yield (s, r, b), (f, s - 1.0, r - s + 1.0), beta_halfline(s, r, b)


# Relative agreement euler_integral_2f1_check asks of its two sides.
_EULER_TOL = 1e-9


def euler_integral_2f1_check(alpha: float, beta: float, gamma: float, z: float) -> bool:
    """Cross-check quadrature against a hypergeometric closed form.

    Verifies int_0^inf s^(beta-1) (1+s)^(gamma-beta-1) (1+sz)^(-alpha) ds
      = Gamma(beta) Gamma(alpha+1-gamma) / Gamma(alpha+beta-gamma+1)
        * 2F1(alpha, beta; alpha+beta-gamma+1; 1-z)
    within relative _EULER_TOL. Requires beta > 0, alpha+1-gamma > 0 and
    0 < z < 2 so both sides are defined and the Gauss series converges.
    """
    if not (beta > 0.0 and alpha + 1.0 - gamma > 0.0):
        raise ValueError("euler integral: need beta > 0 and alpha + 1 - gamma > 0")
    if not 0.0 < z < 2.0:
        raise ValueError("euler integral: need 0 < z < 2 for the convergent series")

    def f(t: float) -> float:
        return t ** (beta - 1.0) * (1.0 + t) ** (gamma - beta - 1.0) * (
            1.0 + t * z
        ) ** (-alpha)

    lhs = integrate_halfline(f, beta - 1.0, alpha + 2.0 - gamma, tol=1e-12).value
    rhs = (
        math.gamma(beta)
        * math.gamma(alpha + 1.0 - gamma)
        / math.gamma(alpha + beta - gamma + 1.0)
        * float(gauss_2f1(alpha, beta, alpha + beta - gamma + 1.0, 1.0 - z))
    )
    return abs(lhs - rhs) <= _EULER_TOL * max(abs(lhs), abs(rhs))


def q_recurrence_check(n: int, y, p) -> bool:
    """Symbolically verify Q(n+1) = -p y Q'(n) + n Q(n), then spot-check.

    Q(n) and Q(n+1) come from the polylogarithm route, the derivative is
    exact, and the spot value at y is compared against q_stirling, so a
    pass ties all three routes together at this n.
    """
    pf = Fraction(p)
    qn = q_rational(n, pf)
    lhs = q_rational(n + 1, pf)
    rhs = qn.derivative() * (-pf) * Polynomial([0, 1]) + qn * n
    if lhs != rhs:
        return False
    yf = Fraction(y)
    return lhs(yf) == q_stirling(n + 1, yf, pf)


def q_derivative_form_check(n: int, k_max: int, y, p) -> bool:
    """Termwise check of the derivative representation of the series.

    With w = -y, n y-derivatives of w^(pk) give (-1)^n <pk>_n w^(pk-n)
    (<.>_n the falling factorial), so (-y)^(k+n-pk) d^n/dy^n (-y)^(pk)
    must equal the series term coefficient (-pk)_n times (-y)^k. The
    exponent bookkeeping (pk-n) + (k+n-pk) = k is an identity, so the
    check compares coefficients for each k <= k_max, then confirms the
    resulting partial sum sits within the proven tail bound of the full
    series. Everything before the final comparison is exact.
    """
    _check_n(n)
    _check_p(p)
    if not 0 < y < 1:
        raise ValueError(f"q_derivative_form_check needs 0 < y < 1, got {y!r}")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    yf, pf = Fraction(y), Fraction(p)
    partial = Fraction(0)
    for k in range(k_max + 1):
        t = pf * k
        derivative_coeff = Fraction(-1) ** n * falling_factorial(t, n)
        series_coeff = rising_factorial(-t, n)
        if derivative_coeff != series_coeff:
            return False
        partial += series_coeff * (-yf) ** k
    full = Fraction(q_series_with_terms(n, yf, pf)[0])
    # _REL_TOL doubles as the slack for rounding full to a float
    return abs(partial - full) <= series_tail_bound(n, yf, pf, k_max + 1) + _REL_TOL


def boyadzhiev_check(f: Polynomial, y) -> bool:
    """Exact check of the series transform for a polynomial f, |y| < 1:

    sum_{k>=0} f(k) y^k = (1/(1-y)) sum_n (f^(n)(0)/n!) omega_n(y/(1-y)).

    The left side is closed via Li_{-j}: sum_k k^j y^k equals Li_{-j}(y)
    for j >= 1 and 1/(1-y) for j = 0. The right side differentiates f
    symbolically. Both sides are Fractions; equality is exact.
    """
    yf = Fraction(y)
    if not abs(yf) < 1:
        raise ValueError(f"boyadzhiev_check needs |y| < 1, got {y!r}")
    left = f.coefficient(0) / (1 - yf)
    for j in range(1, f.degree + 1):
        if f.coefficient(j):
            left += f.coefficient(j) * polylog_neg(j)(yf)
    ratio = yf / (1 - yf)
    right = Fraction(0)
    d, order = f, 0
    while True:
        right += d(Fraction(0)) / factorial(order) * geometric_polynomial(order)(ratio)
        if d.degree <= 0:
            break
        d, order = d.derivative(), order + 1
    return left == right / (1 - yf)


def pochhammer_derivative_check(n: int, k: int) -> bool:
    """Check d^k/dy^k (-py)_n at y = 0 against (-1)^n k! s(n,k) p^k.

    (-py)_n = prod_{j<n} (j - py) is expanded as a polynomial in t = py,
    keeping p generic; k y-derivatives contribute p^k times k
    t-derivatives, so the p-free parts must satisfy
    (d^k/dt^k prod)(0) = (-1)^n k! s(n,k).
    """
    _check_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    prod = Polynomial([1])
    for j in range(n):
        prod = prod * Polynomial([j, -1])
    d = prod
    for _ in range(k):
        d = d.derivative()
    return d(Fraction(0)) == Fraction(-1) ** n * factorial(k) * stirling_first(n, k)


def zform_bracket(n: int) -> dict[tuple[int, int], Fraction]:
    """Bracket polynomial of the z = y+1 form, as {(z_pow, p_pow): coeff}.

    Q(n, y, p) = [p (z-1)/z^(n+1)] * T_n(z, p) with
    T_n = sum_{k=1..n} |s(n,k)| p^(k-1) z^(n-k) B_k(z) and
    B_k(z) = sum_{m=1..k} (-1)^(1-m) S(k,m) m! z^(k-m).
    """
    _check_n(n)
    if n < 1:
        raise ValueError("zform_bracket needs n >= 1")
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(1, n + 1):
        size = abs(stirling_first(n, k))
        if not size:
            continue
        for m in range(1, k + 1):
            c = Fraction((-1) ** (1 - m) * stirling_second(k, m) * factorial(m) * size)
            key = (n - m, k - 1)
            out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def zform_check(n: int) -> bool:
    """Verify the bracket identity against the polylogarithm route.

    Both sides are polynomials in p of degree <= n, so exact agreement
    as rational functions of y at n+2 distinct rational p values proves
    the identity in p as well.
    """
    bracket = zform_bracket(n)
    yy = Polynomial([0, 1])
    z_of_y = Polynomial([1, 1])
    den = Polynomial([1])
    for _ in range(n + 1):
        den = den * z_of_y
    for j in range(2, n + 4):
        pf = Fraction(1, j)
        coeffs = [Fraction(0)] * n
        for (zp, pp), c in bracket.items():
            coeffs[zp] += c * pf**pp
        t_at_p = Polynomial(coeffs)
        rhs = RationalFunction(yy * t_at_p(z_of_y) * pf, den)
        if q_rational(n, pf) != rhs:
            return False
    return True


# Relative tolerance of cf_half_reduction_check when a side is a float.
_HALF_TOL = 1e-10


def cf_half_reduction_check(a, b, n: int) -> bool:
    """Does cf at p = 1/2 reproduce C2(n; a, b)? Compares cf_double_sum
    with the terminating closed form of C2: equal when both sides are
    Fractions, else within _HALF_TOL relative."""
    lhs = cf_double_sum(a, b, Fraction(1, 2), n)
    rhs = c2_hyp_closed(a, b, n)
    if _is_exact(lhs, rhs):
        return lhs == rhs
    return abs(_to_float(lhs) - _to_float(rhs)) <= _HALF_TOL * abs(_to_float(rhs))


# ----------------------------------------------------------------- errata


def _errata_findings(tol: float) -> tuple[list[RepRow], bool]:
    rows: list[RepRow] = []
    all_ok = True

    def add(name: str, value: float, ok: bool, text: str) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        verdict = "confirmed: " if ok else "NOT confirmed: "
        rows.append(RepRow(name, value, compare=False, note=verdict + text))

    for a, b in _TABLE_GRID:
        worst = max(c2_table_check(((a, b),)))
        add(
            f"table_pi(a={format_scalar(a)},b={format_scalar(b)})",
            worst,
            worst <= tol,
            "worst |printed/quadrature - pi| over n = 0..5; the printed "
            "table sits a factor pi above the generating function",
        )

    half = Fraction(1, 2)
    for a, b in ((2, 1), (1, 4)):
        worst_quad = 0.0
        for n in range(1, 5):
            printed = functional.cf_series_as_printed(a, b, half, n)
            corrected = functional.cf_series_detailed(a, b, half, n).value
            ratio = printed / corrected
            expected = math.factorial(n) / (n + 1)
            add(
                f"series_prefactor(a={a},b={b},n={n})",
                ratio,
                abs(ratio - expected) <= tol * expected,
                f"printed/corrected, expected n!/(n+1) = {format_float(expected)}",
            )
            integral = functional.cf_quadrature(a, b, half, n).value
            worst_quad = max(worst_quad, abs(corrected - integral) / abs(integral))
        add(
            f"series_corrected_vs_quadrature(a={a},b={b})",
            worst_quad,
            worst_quad <= tol,
            "worst relative difference over n = 1..4 after the n! repair",
        )

    for n in (2, 3):
        a, b = 1, 4
        truth = float(catalan2.c2_hyp_closed(a, b, n))
        sec2_ratio = catalan2.c2_legendre(a, b, n) / truth
        eq0b_ratio = catalan2.c2_legendre_eq0b(a, b, n) / truth
        expected = (
            a**n
            * (b - a * a) ** ((n + 1) / 2)
            / (math.sqrt(b) - a) ** (2 * n + 1)
        )
        add(
            f"legendre_sec2_ratio(a={a},b={b},n={n})",
            sec2_ratio,
            abs(sec2_ratio - 1.0) <= tol,
            "ratio to the terminating closed form, expected 1",
        )
        add(
            f"legendre_eq0b_ratio(a={a},b={b},n={n})",
            eq0b_ratio,
            abs(eq0b_ratio - expected) <= tol * expected,
            "printed variant over true value, expected "
            f"a^n (b-a^2)^((n+1)/2) / (sqrt(b)-a)^(2n+1) = {format_float(expected)}",
        )

    third = Fraction(1, 3)
    for y in (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)):
        ratio = qfunc.q_hyp(1, y, third) / float(qfunc.q_stirling(1, y, third))
        expected = float((1 / y) ** 3)
        add(
            f"q_hyp_ratio(n=1,y={format_scalar(y)})",
            ratio,
            abs(ratio - expected) <= tol * expected,
            f"printed/true, expected y^-3 = {format_float(expected)}",
        )
    ratios = [
        qfunc.q_hyp(2, y, half) / float(qfunc.q_stirling(2, y, half))
        for y in (Fraction(3, 10), Fraction(1, 2))
    ]
    spread = abs(ratios[0] - ratios[1]) / max(abs(r) for r in ratios)
    add(
        "q_hyp_n2_ratio_spread",
        spread,
        spread > 1e-3,
        "relative spread of printed/true between y = 0.3 and y = 0.5; "
        "a constant rescaling would make this 0",
    )
    return rows, all_ok


_ERRATA_NOTES = (
    "table entry n = 4: the printed denominator lacks the base of its "
    "b^(7/2) factor; restored before measuring.",
    "bracket polynomial B_4: printed z^3 - 14z + 36z - 24; the second "
    "term is read as -14z^2 (the z-form identity check passes only with "
    "that repair).",
    "single series: printed prefactor n + 1 corrected to n!, printed "
    "descending start k = 0 corrected to k = 1 (measured above).",
)


def cmd_errata(args) -> int:
    try:
        rows, all_ok = _errata_findings(args.tol)
    except ROW_ERRORS as exc:
        return _error(exc, 1)
    report = CompareReport(
        command="errata",
        inputs=(("tol", args.tol),),
        rows=tuple(rows),
        notes=_ERRATA_NOTES,
    )
    print(render_report(report, args.format))
    return 0 if all_ok else 1


# --------------------------------------------------------------- selftest


def _suite_catalan_formulas() -> Iterator[str]:
    stream = exact.catalan_stream(61)
    for n in range(61):
        forms = exact.catalan_formulas(n)
        if len(set(forms.values())) != 1:
            yield f"n={n}: closed formulas disagree: {forms}"
        elif forms["factorial_quotient"] != stream[n]:
            yield (
                f"n={n}: recurrence gives {stream[n]}, "
                f"formulas give {forms['factorial_quotient']}"
            )
    first = [1, 1, 2, 5, 14, 42, 132, 429]
    if stream[:8] != first:
        yield f"first eight values {stream[:8]} != {first}"


def _suite_double_factorial() -> Iterator[str]:
    if exact.double_factorial(-1) != 1 or exact.double_factorial(0) != 1:
        yield "(-1)!! and 0!! must both be 1"
    for n in range(40):
        even = exact.double_factorial(2 * n)
        odd = exact.double_factorial(2 * n - 1)
        if even != 2**n * math.factorial(n):
            yield f"(2n)!! != 2^n n! at n={n}"
        if even * odd != math.factorial(2 * n):
            yield f"(2n)!! (2n-1)!! != (2n)! at n={n}"


def _suite_stirling() -> Iterator[str]:
    for n in range(9):
        for k in range(n + 1):
            surjections = sum(
                (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
            )
            if exact.stirling_second(n, k) * math.factorial(k) != surjections:
                yield f"S({n},{k}) fails the surjection count"
    for n in range(9):
        for m in range(9):
            total = sum(
                exact.stirling_first(n, k) * exact.stirling_second(k, m)
                for k in range(n + 1)
            )
            if total != (1 if n == m else 0):
                yield f"first/second kind orthogonality fails at n={n}, m={m}"


def _suite_geometric_polynomials() -> Iterator[str]:
    for n in range(9):
        if not geometric_inverse_check(n):
            yield f"inversion identity fails at n={n}"
    fubini = [1, 1, 3, 13, 75, 541]
    for n, target in enumerate(fubini):
        if exact.geometric_polynomial(n)(Fraction(1)) != target:
            yield f"omega_{n}(1) != {target}"


def _suite_polylog() -> Iterator[str]:
    closed = {
        1: lambda x: x / (1 - x) ** 2,
        2: lambda x: x * (1 + x) / (1 - x) ** 3,
        3: lambda x: x * (1 + 4 * x + x * x) / (1 - x) ** 4,
        4: lambda x: x * (1 + 11 * x + 11 * x**2 + x**3) / (1 - x) ** 5,
    }
    for k, form in closed.items():
        for x in (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 2)):
            if exact.polylog_neg(k)(x) != form(x):
                yield f"Li_(-{k}) at x={x} misses its closed form"


def _suite_hypergeometric() -> Iterator[str]:
    for n in range(7):
        for bb, cc in ((Fraction(1, 2), Fraction(7, 3)), (Fraction(3, 4), Fraction(5, 2))):
            lhs = hyper.gauss_2f1(-n, bb, cc, 1)
            rhs = exact.rising_factorial(cc - bb, n) / exact.rising_factorial(cc, n)
            if lhs != rhs:
                yield f"Chu-Vandermonde fails at n={n}, b={bb}, c={cc}"
    if hyper.gauss_2f1(-3, -2, 2, 1) != 5:
        yield "2F1(-3, -2; 2; 1) != 5"
    if hyper.jacobi_p(2, 4, -4, Fraction(0)) != Fraction(15, 2):
        yield "P_2^(4,-4)(0) != 15/2"
    if abs(hyper.assoc_legendre_p(0, -2, 0.5) - 1 / 6) > 1e-13:
        yield "P_0^(-2)(1/2) != 1/6"
    if abs(hyper.assoc_legendre_p(1, -2, 0.5) - 5 / 36) > 1e-13:
        yield "P_1^(-2)(1/2) != 5/36"


def _suite_quadrature_beta() -> Iterator[str]:
    draw = beta_cases(_BETA_COUNT, _BETA_SEED)
    for i, ((s, r, b), integrand, truth) in enumerate(draw):
        case = f"case {i}: s={s!r}, r={r!r}, b={b!r}"
        got = integrate_halfline(*integrand, _SELFTEST_QUAD_TOL).value
        rel = abs(got - truth) / abs(truth)
        if rel > 10.0 * _SELFTEST_QUAD_TOL:
            yield f"{case}: rel err {format_float(rel)} > {format_float(10.0 * _SELFTEST_QUAD_TOL)}"


_EULER_SETS = (
    (0.5, 1.0, 0.8, 0.3),
    (1.5, 2.0, 1.2, 0.5),
    (2.0, 0.7, 0.5, 0.25),
    (1.0, 1.5, 1.0, 0.6),
    (0.8, 2.5, 1.5, 0.4),
    (2.5, 1.2, 0.9, 0.7),
    (1.2, 0.5, 0.3, 0.2),
    (3.0, 2.2, 1.8, 0.35),
    (0.6, 1.8, 1.1, 0.45),
    (1.7, 3.0, 2.4, 0.15),
)


def _suite_euler_integral() -> Iterator[str]:
    for alpha, beta, gamma, z in _EULER_SETS:
        if not euler_integral_2f1_check(alpha, beta, gamma, z):
            yield f"({alpha}, {beta}, {gamma}, {z}): sides differ beyond 1e-9"


def _suite_q_identities() -> Iterator[str]:
    half, third = Fraction(1, 2), Fraction(1, 3)
    for n, y, p in (
        (0, Fraction(1, 4), half),
        (1, Fraction(2, 3), third),
        (2, 1, half),
        (3, Fraction(9, 10), Fraction(2, 5)),
        (4, Fraction(1, 5), half),
    ):
        if not q_recurrence_check(n, y, p):
            yield f"recurrence check fails at n={n}, y={y}, p={p}"
    for n, k_max in ((2, 30), (4, 60)):
        if not q_derivative_form_check(n, k_max, Fraction(1, 3), half):
            yield f"derivative form check fails at n={n}"
    polys = (
        (exact.Polynomial([1, 2, 3]), Fraction(1, 3)),
        (exact.Polynomial([0, 1]), Fraction(-1, 3)),
        (exact.Polynomial([2, 0, -1, 5]), Fraction(1, 2)),
    )
    for poly, y in polys:
        if not boyadzhiev_check(poly, y):
            yield f"series transform fails for coefficients {poly.coeffs}"
    for n in range(7):
        for k in range(n + 1):
            if not pochhammer_derivative_check(n, k):
                yield f"Pochhammer derivative fails at n={n}, k={k}"
    for n in range(1, 6):
        if not zform_check(n):
            yield f"z-form bracket identity fails at n={n}"


def _suite_functional_consistency() -> Iterator[str]:
    half = Fraction(1, 2)
    for a, b in ((1, 1), (1, 4), (2, 1)):
        for n in range(6):
            if not cf_half_reduction_check(a, b, n):
                yield f"p = 1/2 reduction fails at a={a}, b={b}, n={n}"
    points = (
        (1, 2, Fraction(1, 3), 2),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), 3),
        (4, 4, Fraction(3, 4), 5),
        (2, 4, Fraction(61, 100), 4),
    )
    for a, b, p, n in points:
        exact_value = float(functional.cf_double_sum(a, b, p, n))
        integral = functional.cf_quadrature(a, b, p, n, tol=_SELFTEST_QUAD_TOL).value
        rel = abs(exact_value - integral) / abs(integral)
        if rel > 10.0 * _SELFTEST_QUAD_TOL:
            yield (
                f"double sum vs quadrature at (a={a}, b={b}, p={p}, n={n}): "
                f"rel err {format_float(rel)}"
            )
    for a, b in ((2, 1), (1, 4)):
        series = functional.cf_series_detailed(a, b, half, 1).value
        total = float(functional.cf_double_sum(a, b, half, 1))
        if abs(series - total) > 1e-12 * abs(total):
            yield f"series vs double sum at a={a}, b={b}, n=1"
    for n in range(5):
        for a, b, p, where in ((2, 1, half, "at"), (1, 1, Fraction(1, 3), "on the boundary")):
            if functional.cf_via_q(a, b, p, n) != functional.cf_double_sum(a, b, p, n):
                yield f"via_q vs double sum {where} ({a}, {b}, {p}, n={n})"


# `cli._SUITE_NAMES` names the suites, in run order, for the parser.
_SUITES = {name: globals()[f"_suite_{name}"] for name in _SUITE_NAMES}


def cmd_selftest(args) -> int:
    names = args.suite or list(_SUITES)
    passed = 0
    for name in names:
        failures = []
        try:
            failures.extend(_SUITES[name]())
        except ROW_ERRORS as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
        if failures:
            print(f"{name}: FAIL")
            for line in failures[:20]:
                print(f"  {line}")
            if len(failures) > 20:
                print(f"  ... {len(failures) - 20} more")
        else:
            passed += 1
            print(f"{name}: PASS")
    print(f"{passed}/{len(names)} suites passed")
    return 0 if passed == len(names) else 1
