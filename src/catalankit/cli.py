"""Cross-validation command line driver.

Each computing subcommand evaluates one quantity through several
independent representations and compares them pairwise:

  catalan     plain Catalan numbers, all closed formulas at once
  c2          the two-parameter family C2(n; a, b)
  functional  its fractional-order extension cf(n; a, b, p)
  q           the auxiliary series Q(n, y, p)
  errata      measured discrepancies in the published closed forms
  selftest    internal consistency suites against independent oracles

c2, functional and q run `cmd_compare` over `_QUANTITIES`, per command its
flags, its representation table (`C2_REPS`, `FUNCTIONAL_REPS`, `Q_REPS`)
and its domain check, through `evaluate`, the one row loop. A table entry
adds a representation to `--rep`, to `--rep all` and to the grid script.

Exit status: 0 when everything requested agreed within tolerance, 1 on a
tolerance or consistency failure or a route failing at valid input, 2 on
invalid input. Output is byte deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from collections.abc import Iterator
from fractions import Fraction

from . import catalan2, exact, functional, hyper, qfunc, quad
from .catalan2 import LegendreVariant, Normalization
from .functional import cf_series_detailed  # perfbench's tracer self-test reads it here
from .reporting import CompareReport, RepRow, format_float, format_scalar, render_report

__all__ = ["main", "evaluate", "C2_REPS", "FUNCTIONAL_REPS", "Q_REPS", "ON_REQUEST", "ROW_ERRORS"]

_SELFTEST_SEED = 20260816
_SELFTEST_QUAD_TOL = 1e-10  # `_quad_tol` at the default --tol, 1e-8


# Largest |decimal exponent| of a number argument: floats span about
# 1e-324 to 1e308, so past it every float route overflows or underflows,
# and Fraction's cost grows with the exponent (1e10000000 takes seconds).
_MAX_EXPONENT = 400
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _parse_number(text: str):
    """Accept 3, -1/4, 0.37, 2e-2; decimals become exact rationals."""
    try:
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"|exponent| > {_MAX_EXPONENT}: {text!r}")
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    return int(value) if value.denominator == 1 else value


def _parse_nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def _parse_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError("tolerance must be > 0")
    return value


def _error(message, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _quad_tol(compare_tol: float) -> float:
    """Integration tolerance two decades below the comparison tolerance."""
    return min(1e-10, max(1e-14, compare_tol / 100.0))


# ---------------------------------------------------------------- catalan


def cmd_catalan(args) -> int:
    forms = exact.catalan_formulas(args.n)
    recurrence = exact.catalan_stream(args.n + 1)[-1]
    rows = [RepRow(rep=name, value=value) for name, value in forms.items()]
    rows.append(RepRow(rep="recurrence", value=recurrence))
    agreed = len({row.value for row in rows}) == 1
    notes = () if agreed else ("formula values disagree",)
    report = CompareReport(
        command="catalan",
        inputs=(("n", args.n),),
        rows=tuple(rows),
        notes=notes,
    )
    print(render_report(report, args.format))
    return 0 if agreed else 1


# -------------------------------------------------------- representations

# One ordered table per quantity, representation name -> row builder, in
# `--rep all` order. A builder maps the parsed inputs plus `norm` and
# `quad_tol` to the RepRow fields after the name. It names its route in
# its body, so the route is looked up in its module at call time.


def _quad(result) -> dict:
    return dict(value=result.value, err=result.abs_err_est, terms=result.evaluations)


def _closed(x, value) -> dict:
    """A c2 closed form: reported but not compared at the printed scale."""
    printed = x.norm is Normalization.PRINTED_PI
    note = "printed normalization (x pi)" if printed else ""
    return dict(value=value, note=note, compare=not printed)


def _series(ev) -> dict:
    note = f"{ev.branch} branch, y = {format_float(ev.ratio)}"
    return dict(value=ev.value, terms=ev.terms, note=note)


C2_REPS = {
    "double_factorial": lambda x: dict(value=catalan2.c2_double_factorial_sum(x.a, x.b, x.n)),
    "hyp_closed": lambda x: _closed(x, catalan2.c2_hyp_closed(x.a, x.b, x.n, x.norm)),
    "jacobi": lambda x: _closed(x, catalan2.c2_jacobi(x.a, x.b, x.n, x.norm)),
    "quadrature": lambda x: _quad(catalan2.c2_quadrature(x.a, x.b, x.n, tol=x.quad_tol)),
    "gf_coefficient": lambda x: dict(value=catalan2.c2_gf_coefficient(x.a, x.b, x.n)),
    "hyp_unbounded": lambda x: _closed(x, catalan2.c2_hyp_unbounded(x.a, x.b, x.n, x.norm)),
    "legendre_sec2": lambda x: _closed(
        x, catalan2.c2_legendre(x.a, x.b, x.n, LegendreVariant.SEC2, x.norm)
    ),
    "legendre_eq0b": lambda x: dict(
        value=catalan2.c2_legendre(x.a, x.b, x.n, LegendreVariant.EQ0B, x.norm),
        note="printed prefactor variant, known inconsistent; see the errata command",
        compare=False,
    ),
}

FUNCTIONAL_REPS = {
    "double_sum": lambda x: dict(value=functional.cf_double_sum(x.a, x.b, x.p, x.n)),
    "series": lambda x: _series(cf_series_detailed(x.a, x.b, x.p, x.n)),
    "quadrature": lambda x: _quad(functional.cf_quadrature(x.a, x.b, x.p, x.n, tol=x.quad_tol)),
    "via_q": lambda x: dict(value=functional.cf_via_q(x.a, x.b, x.p, x.n)),
}


def _q_series(x) -> dict:
    value, terms = qfunc.q_series_with_terms(x.n, x.y, x.p)
    return dict(value=value, terms=terms)


Q_REPS = {
    "series": _q_series,
    "stirling": lambda x: dict(value=qfunc.q_stirling(x.n, x.y, x.p)),
    "polylog": lambda x: dict(value=qfunc.q_polylog(x.n, x.y, x.p)),
    "recurrence": lambda x: dict(value=qfunc.q_recurrence_value(x.n, x.y, x.p)),
    "hyp": lambda x: dict(
        value=qfunc.q_hyp(x.n, x.y, x.p),
        note="printed form, excluded from comparison; see the errata command",
        compare=False,
    ),
}

# Accepted by --rep, left out of `all`.
ON_REQUEST = frozenset({"legendre_eq0b"})

# A route's failures at valid inputs, as the bases its errors derive from (an
# exhausted budget is a RuntimeError): under `all` a skipped row with the
# reason; alone, exit 2 on a ValueError, else 1; errata and selftest fail.
ROW_ERRORS = (ValueError, ZeroDivisionError, RuntimeError)

# Per command: its help line, its number flags in flag and echo order as
# (name, parser, default; None: required), its representation table and
# the library's domain check for the inputs every representation shares.
_QUANTITIES = {
    "c2": ("two-parameter family C2(n; a, b)",
           (("a", _parse_number, None), ("b", _parse_number, None), ("n", _parse_nonneg_int, None)),
           C2_REPS, lambda x: catalan2._check_domain(x.a, x.b, x.n)),
    "functional": ("fractional-order family cf(n; a, b, p)",
                   (("a", _parse_number, None), ("b", _parse_number, None),
                    ("p", _parse_number, None), ("n", _parse_nonneg_int, None)),
                   FUNCTIONAL_REPS, lambda x: functional._check_domain(x.a, x.b, x.p, x.n)),
    "q": ("auxiliary series Q(n, y, p)",
          (("n", _parse_nonneg_int, None), ("y", _parse_number, None),
           ("p", _parse_number, Fraction(1, 2))),
          Q_REPS, lambda x: exact._check_p(x.p)),
}

_PAPER_NOTE = (
    "printed normalization multiplies the closed forms by pi; "
    "sum, quadrature and coefficient rows stay on the "
    "generating-function scale and are compared alone"
)


def evaluate(reps, names, x) -> Iterator[tuple[RepRow, Exception | None]]:
    """(row, error) per representation in `names`, built from `x`; a route
    raising one of ROW_ERRORS gives a skipped row with the reason."""
    for rep in names:
        try:
            yield RepRow(rep, **reps[rep](x)), None
        except ROW_ERRORS as exc:
            yield RepRow(rep, note=str(exc)), exc


def cmd_compare(args) -> int:
    """Evaluate one quantity by the representations `--rep` selects."""
    _, flags, reps, check_domain = _QUANTITIES[args.command]
    try:
        check_domain(args)
    except ValueError as exc:
        return _error(exc, 2)
    echo = (*(name for name, _, _ in flags), "rep", "normalization", "tol")
    inputs = tuple((name, getattr(args, name)) for name in echo if name in args)
    norm = Normalization(getattr(args, "normalization", "gf"))
    x = argparse.Namespace(**vars(args), norm=norm, quad_tol=_quad_tol(args.tol))
    single = args.rep != "all"
    names = (args.rep,) if single else [rep for rep in reps if rep not in ON_REQUEST]
    results = list(evaluate(reps, names, x))
    errors = [error for _, error in results if error is not None]
    # When every row is skipped: 1 if a route failed, else 2; a single --rep
    # has one row, so this is its rule too. False when any row ran.
    code = len(errors) == len(results) and min(
        2 if isinstance(e, ValueError) else 1 for e in errors)
    if single and code:
        return _error(errors[0], code)
    notes = (_PAPER_NOTE,) if norm is Normalization.PRINTED_PI and not single else ()
    report = CompareReport(args.command, inputs, tuple(row for row, _ in results), notes)
    print(render_report(report, args.format))
    return code or (0 if report.within(args.tol) else 1)


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
            corrected = cf_series_detailed(a, b, half, n).value
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
    for i, ((s, r, b), integrand, truth) in enumerate(quad.beta_cases(50, _SELFTEST_SEED)):
        case = f"case {i}: s={s!r}, r={r!r}, b={b!r}"
        got = quad.integrate_halfline(integrand, tol=_SELFTEST_QUAD_TOL).value
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
        series = cf_series_detailed(a, b, half, 1).value
        total = float(functional.cf_double_sum(a, b, half, 1))
        if abs(series - total) > 1e-12 * abs(total):
            yield f"series vs double sum at a={a}, b={b}, n=1"
    for n in range(5):
        for a, b, p, where in ((2, 1, half, "at"), (1, 1, Fraction(1, 3), "on the boundary")):
            if functional.cf_via_q(a, b, p, n) != functional.cf_double_sum(a, b, p, n):
                yield f"via_q vs double sum {where} ({a}, {b}, {p}, n={n})"


_SUITES = {
    "catalan_formulas": _suite_catalan_formulas,
    "double_factorial": _suite_double_factorial,
    "stirling": _suite_stirling,
    "geometric_polynomials": _suite_geometric_polynomials,
    "polylog": _suite_polylog,
    "hypergeometric": _suite_hypergeometric,
    "quadrature_beta": _suite_quadrature_beta,
    "euler_integral": _suite_euler_integral,
    "q_identities": _suite_q_identities,
    "functional_consistency": _suite_functional_consistency,
}


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


# ------------------------------------------------------------------- main


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )


def _add_tol(sub, default: float = 1e-8) -> None:
    sub.add_argument(
        "--tol", type=_parse_tol, default=default,
        help=f"comparison tolerance (default: {default:g})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catalankit",
        description="compute Catalan-type constants several ways and compare",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="Catalan numbers, all closed formulas")
    p.add_argument("--n", type=_parse_nonneg_int, required=True)
    _add_format(p)
    p.set_defaults(run=cmd_catalan)

    for command, (help_line, flags, reps, _) in _QUANTITIES.items():
        p = sub.add_parser(command, help=help_line)
        for name, parse, default in flags:
            p.add_argument(f"--{name}", type=parse, default=default, required=default is None)
        p.add_argument("--rep", choices=(*reps, "all"), default="all")
        if command == "c2":
            p.add_argument(
                "--normalization", choices=("gf", "paper"), default="gf",
                help="gf: generating-function scale; paper: printed scale (x pi)",
            )
        _add_tol(p)
        _add_format(p)
        p.set_defaults(run=cmd_compare)

    p = sub.add_parser("errata", help="measure the published-form discrepancies")
    _add_tol(p)
    _add_format(p)
    p.set_defaults(run=cmd_errata)

    p = sub.add_parser("selftest", help="internal consistency suites")
    p.add_argument(
        "--suite", action="append", choices=tuple(_SUITES),
        help="run one suite (repeatable; default: all)",
    )
    p.set_defaults(run=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)
