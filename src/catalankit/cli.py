"""Cross-validation command line driver.

Each computing subcommand evaluates one quantity through several
independent representations and compares them pairwise:

  catalan     plain Catalan numbers, all closed formulas at once
  c2          the two-parameter family C2(n; a, b)
  functional  its fractional-order extension cf(n; a, b, p)
  q           the auxiliary series Q(n, y, p)
  errata      measured discrepancies in the published closed forms
  selftest    internal consistency suites against independent oracles

errata and selftest live in `catalankit.checks`, which only they import.
c2, functional and q run `cmd_compare` over `_QUANTITIES`, per command its
flags, its representation table (`C2_REPS`, `FUNCTIONAL_REPS`, `Q_REPS`),
its route module and its domain check, through `evaluate`, the one row
loop. `cmd_compare` imports the route module (`catalan2`, `functional` or
`qfunc`) when the command runs, so a subcommand loads only its own routes,
and passes it to each row builder. A table entry adds a representation to
`--rep`, to `--rep all` and to the grid script.

Exit status: 0 when everything requested agreed within tolerance, 1 on a
tolerance or consistency failure (two unequal exact rows fail whatever the
tolerance) or a route failing at valid input, 2 on invalid input. Output
is byte deterministic for identical invocations.
"""

from __future__ import annotations

import argparse
import importlib
import math
import re
import sys
from collections.abc import Iterator
from fractions import Fraction

from . import exact
from .reporting import CompareReport, RepRow, format_float, render_report

__all__ = ["main", "evaluate", "C2_REPS", "FUNCTIONAL_REPS", "Q_REPS", "ON_REQUEST", "ROW_ERRORS"]


def __getattr__(name: str):
    # perfbench's tracer self-test reads this name from cli; it can go once
    # that test accepts any route cli binds by name.
    if name == "cf_series_detailed":
        from .functional import cf_series_detailed

        return cf_series_detailed
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# The comparison tolerance when --tol is not given.
_DEFAULT_TOL = 1e-8


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
# `--rep all` order. A builder maps the command's route module and the
# parsed inputs plus `norm` and `quad_tol` to the RepRow fields after the
# name. It names its route in its body, so the route is looked up in its
# module at call time.


def _quad(result) -> dict:
    return dict(value=result.value, err=result.abs_err_est, terms=result.evaluations)


def _closed(catalan2, x, route) -> dict:
    """A c2 closed form: reported but not compared at the printed scale."""
    printed = x.norm is catalan2.Normalization.PRINTED_PI
    note = "printed normalization (x pi)" if printed else ""
    return dict(value=route(x.a, x.b, x.n, x.norm), note=note, compare=not printed)


def _series(ev) -> dict:
    note = f"{ev.branch} branch, y = {format_float(ev.ratio)}"
    return dict(value=ev.value, terms=ev.terms, note=note)


C2_REPS = {
    "double_factorial": lambda catalan2, x: dict(
        value=catalan2.c2_double_factorial_sum(x.a, x.b, x.n)),
    "hyp_closed": lambda catalan2, x: _closed(catalan2, x, catalan2.c2_hyp_closed),
    "jacobi": lambda catalan2, x: _closed(catalan2, x, catalan2.c2_jacobi),
    "quadrature": lambda catalan2, x: _quad(catalan2.c2_quadrature(x.a, x.b, x.n, tol=x.quad_tol)),
    "gf_coefficient": lambda catalan2, x: dict(value=catalan2.c2_gf_coefficient(x.a, x.b, x.n)),
    "hyp_unbounded": lambda catalan2, x: _closed(catalan2, x, catalan2.c2_hyp_unbounded),
    "legendre_sec2": lambda catalan2, x: _closed(catalan2, x, catalan2.c2_legendre),
    "legendre_eq0b": lambda catalan2, x: dict(
        value=catalan2.c2_legendre_eq0b(x.a, x.b, x.n),
        note="printed prefactor variant, known inconsistent; see the errata command",
        compare=False,
    ),
}

FUNCTIONAL_REPS = {
    "double_sum": lambda functional, x: dict(value=functional.cf_double_sum(x.a, x.b, x.p, x.n)),
    "series": lambda functional, x: _series(functional.cf_series_detailed(x.a, x.b, x.p, x.n)),
    "quadrature": lambda functional, x: _quad(
        functional.cf_quadrature(x.a, x.b, x.p, x.n, tol=x.quad_tol)),
    "via_q": lambda functional, x: dict(value=functional.cf_via_q(x.a, x.b, x.p, x.n)),
}


def _q_series(qfunc, x) -> dict:
    value, terms = qfunc.q_series_with_terms(x.n, x.y, x.p)
    return dict(value=value, terms=terms)


Q_REPS = {
    "series": _q_series,
    "stirling": lambda qfunc, x: dict(value=qfunc.q_stirling(x.n, x.y, x.p)),
    "polylog": lambda qfunc, x: dict(value=qfunc.q_polylog(x.n, x.y, x.p)),
    "recurrence": lambda qfunc, x: dict(value=qfunc.q_recurrence_value(x.n, x.y, x.p)),
    "hyp": lambda qfunc, x: dict(
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
# (name, parser, default; None: required), its representation table, the
# package module of its routes, and the library's domain check for the
# inputs every representation shares.
_QUANTITIES = {
    "c2": ("two-parameter family C2(n; a, b)",
           (("a", _parse_number, None), ("b", _parse_number, None), ("n", _parse_nonneg_int, None)),
           C2_REPS, "catalan2", lambda catalan2, x: exact._check_c2_domain(x.a, x.b, x.n)),
    "functional": ("fractional-order family cf(n; a, b, p)",
                   (("a", _parse_number, None), ("b", _parse_number, None),
                    ("p", _parse_number, None), ("n", _parse_nonneg_int, None)),
                   FUNCTIONAL_REPS, "functional",
                   lambda functional, x: functional._check_domain(x.a, x.b, x.p, x.n)),
    "q": ("auxiliary series Q(n, y, p)",
          (("n", _parse_nonneg_int, None), ("y", _parse_number, None),
           ("p", _parse_number, Fraction(1, 2))),
          Q_REPS, "qfunc", lambda qfunc, x: exact._check_p(x.p)),
}

_PAPER_NOTE = (
    "printed normalization multiplies the closed forms by pi; "
    "sum, quadrature and coefficient rows stay on the "
    "generating-function scale and are compared alone"
)
_LONE_ROW_NOTE = "only one compared row ran, so nothing was cross-checked"
_EXACT_ROWS_NOTE = "exact rows differ"


def _finite(fields: dict) -> dict:
    """A row's fields, refusing a float value that overflowed or is NaN."""
    value = fields["value"]
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("value is not a number" if math.isnan(value) else "value overflowed")
    return fields


def evaluate(routes, reps, names, x) -> Iterator[tuple[RepRow, Exception | None]]:
    """(row, error) per representation in `names`, built from the route
    module `routes` and `x`; a route raising one of ROW_ERRORS, or
    returning a float value that is not finite (a ValueError), gives a
    skipped row with the reason."""
    for rep in names:
        try:
            yield RepRow(rep, **_finite(reps[rep](routes, x))), None
        except ROW_ERRORS as exc:
            yield RepRow(rep, note=str(exc)), exc


def cmd_compare(args) -> int:
    """Evaluate one quantity by the representations `--rep` selects."""
    _, flags, reps, module, check_domain = _QUANTITIES[args.command]
    # Imported here, so a subcommand loads only its own routes; an error
    # raised while the module loads is not an input error, and propagates.
    routes = importlib.import_module(f"{__package__}.{module}")
    try:
        check_domain(routes, args)
    except ValueError as exc:
        return _error(exc, 2)
    echo = (*(name for name, _, _ in flags), "rep", "normalization", "tol")
    inputs = tuple((name, getattr(args, name)) for name in echo if name in args)
    # Only c2 takes --normalization, and its routes module holds the enum.
    norm = routes.Normalization(args.normalization) if "normalization" in args else None
    x = argparse.Namespace(**vars(args), norm=norm, quad_tol=_quad_tol(args.tol))
    single = args.rep != "all"
    names = (args.rep,) if single else [rep for rep in reps if rep not in ON_REQUEST]
    results = list(evaluate(routes, reps, names, x))
    errors = [error for _, error in results if error is not None]
    # When every row is skipped: 1 if a route failed, else 2; a single --rep
    # has one row, so this is its rule too. False when any row ran.
    code = len(errors) == len(results) and min(
        2 if isinstance(e, ValueError) else 1 for e in errors)
    if single and code:
        return _error(errors[0], code)
    printed = norm is not None and norm is routes.Normalization.PRINTED_PI
    notes = (_PAPER_NOTE,) if printed and not single else ()
    report = CompareReport(args.command, inputs, tuple(row for row, _ in results), notes)
    # Under `all`, one compared row cross-checks nothing, and unequal exact
    # rows fail whatever --tol is: each exits 1 with a note.
    lone = not single and len(report.compared_rows) == 1
    notes += (_LONE_ROW_NOTE,) * lone + (_EXACT_ROWS_NOTE,) * report.exact_rows_differ
    report = report._replace(notes=notes)
    print(render_report(report, args.format))
    return code or (1 if lone or not report.within(args.tol) else 0)


def _run_checks(args) -> int:
    """errata or selftest: `checks` loads only when one of them runs."""
    from . import checks

    return getattr(checks, f"cmd_{args.command}")(args)


# The selftest suites in run order: `--suite` choices, each run by
# `checks._suite_<name>`.
_SUITE_NAMES = (
    "catalan_formulas", "double_factorial", "stirling", "geometric_polynomials", "polylog",
    "hypergeometric", "quadrature_beta", "euler_integral", "q_identities",
    "functional_consistency",
)


# ------------------------------------------------------------------- main


def _add_format(sub) -> None:
    sub.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default: text)",
    )


def _add_tol(sub) -> None:
    sub.add_argument(
        "--tol", type=_parse_tol, default=_DEFAULT_TOL,
        help=f"comparison tolerance (default: {_DEFAULT_TOL:g})",
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

    for command, (help_line, flags, reps, _, _) in _QUANTITIES.items():
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
    p.set_defaults(run=_run_checks)

    p = sub.add_parser("selftest", help="internal consistency suites")
    p.add_argument(
        "--suite", action="append", choices=_SUITE_NAMES,
        help="run one suite (repeatable; default: all)",
    )
    p.set_defaults(run=_run_checks)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.run(args)
