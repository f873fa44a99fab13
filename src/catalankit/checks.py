"""The errata findings and the selftest suites.

`errata` measures each discrepancy between the published closed forms and
the values the library computes; `selftest` runs internal consistency
suites against independent oracles. Only these two commands import this
module, so a computing subcommand neither compiles nor loads it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from . import catalan2, exact, functional, hyper, qfunc, quad
from .catalan2 import LegendreVariant
from .cli import _DEFAULT_TOL, ROW_ERRORS, _SUITE_NAMES, _error, _quad_tol
from .reporting import CompareReport, RepRow, format_float, format_scalar, render_report

_SELFTEST_QUAD_TOL = _quad_tol(_DEFAULT_TOL)


# ----------------------------------------------------------------- errata


def _errata_findings(tol: float) -> tuple[list[RepRow], bool]:
    rows: list[RepRow] = []
    all_ok = True

    def add(name: str, value: float, ok: bool, text: str) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        verdict = "confirmed: " if ok else "NOT confirmed: "
        rows.append(RepRow(name, value, compare=False, note=verdict + text))

    for a, b in catalan2._TABLE_GRID:
        worst = max(catalan2.c2_table_check(((a, b),)))
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
        sec2_ratio = catalan2.c2_legendre(a, b, n, LegendreVariant.SEC2) / truth
        eq0b_ratio = catalan2.c2_legendre(a, b, n, LegendreVariant.EQ0B) / truth
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
        if not exact.geometric_inverse_check(n):
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
    draw = quad.beta_cases(quad._BETA_COUNT, quad._BETA_SEED)
    for i, ((s, r, b), integrand, truth) in enumerate(draw):
        case = f"case {i}: s={s!r}, r={r!r}, b={b!r}"
        got = quad.integrate_halfline(*integrand, _SELFTEST_QUAD_TOL).value
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
        if not quad.euler_integral_2f1_check(alpha, beta, gamma, z):
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
        if not qfunc.q_recurrence_check(n, y, p):
            yield f"recurrence check fails at n={n}, y={y}, p={p}"
    for n, k_max in ((2, 30), (4, 60)):
        if not qfunc.q_derivative_form_check(n, k_max, Fraction(1, 3), half):
            yield f"derivative form check fails at n={n}"
    polys = (
        (exact.Polynomial([1, 2, 3]), Fraction(1, 3)),
        (exact.Polynomial([0, 1]), Fraction(-1, 3)),
        (exact.Polynomial([2, 0, -1, 5]), Fraction(1, 2)),
    )
    for poly, y in polys:
        if not qfunc.boyadzhiev_check(poly, y):
            yield f"series transform fails for coefficients {poly.coeffs}"
    for n in range(7):
        for k in range(n + 1):
            if not qfunc.pochhammer_derivative_check(n, k):
                yield f"Pochhammer derivative fails at n={n}, k={k}"
    for n in range(1, 6):
        if not qfunc.zform_check(n):
            yield f"z-form bracket identity fails at n={n}"


def _suite_functional_consistency() -> Iterator[str]:
    half = Fraction(1, 2)
    for a, b in ((1, 1), (1, 4), (2, 1)):
        for n in range(6):
            if not functional.cf_half_reduction_check(a, b, n):
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
