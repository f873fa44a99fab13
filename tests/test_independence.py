"""Route independence: no cross-check may compare a route with itself.

Each `--rep all` row of c2, functional and q runs at a few seeded points
under `sys.setprofile`, which records every package function the row
calls and every hypergeometric series it sums (the arguments of hyper's
two summation kernels). Two rules must hold at every point:

* every compared row has a partner row whose shared calls are all on
  ARITHMETIC, the allow-list of arithmetic kernels below;
* no two rows sum a hypergeometric series with the same parameters and
  argument.

The c2 rows hyp_closed, jacobi and legendre_sec2 break the second rule
(ROADMAP item 12(b)), so their pairs are audited apart, as a strict xfail.
A report whose only compared rows are two of them still exits 0 (ROADMAP
item 14), another strict xfail.
"""

import argparse
import functools
import io
import itertools
import math
import random
import sys
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from catalankit import catalan2, cli, exact, functional, hyper, qfunc, quad, series

# The route modules; the row builders in `cli` and `reporting` are not routes.
ROUTES = (catalan2, exact, functional, hyper, qfunc, quad, series)
ROUTE_FILES = {m.__file__ for m in ROUTES}
# A cache hit runs no Python frame, so each row starts with empty caches.
CACHED = {f for m in ROUTES for f in vars(m).values() if hasattr(f, "cache_clear")}


def _codes(obj) -> set:
    """The code objects of a function, its nested functions included, or of
    every method of a class."""
    if isinstance(obj, type):
        methods = (getattr(v, "__func__", getattr(v, "fget", v)) for v in vars(obj).values())
        return set().union(*(_codes(f) for f in methods if isinstance(f, types.FunctionType)))
    codes, stack = set(), [obj.__code__]
    while stack:
        code = stack.pop()
        codes.add(code)
        stack += (c for c in code.co_consts if isinstance(c, types.CodeType))
    return codes


# Code that two routes may share without one checking the other: the input
# checks, the exactness policy, exact polynomial arithmetic, and the
# hypergeometric summation kernels, whose series the second rule audits.
ARITHMETIC = (
    exact._check_n, exact._check_p, exact._check_c2_domain, functional._check_domain,
    exact._power_arithmetic, exact.exact_pow, exact._int_nth_root, exact._is_exact,
    exact._exact_or_float, exact._to_float, exact._float_pow, exact._float_range_error,
    exact.Polynomial, exact.RationalFunction, exact._as_poly, exact._as_ratfun,
    exact._poly_divmod, exact._poly_gcd, exact._cancel_gcd, exact._primitive,
    exact._integer_primitive, exact._primitive_prem,
    hyper.pfq_series, hyper.gauss_2f1, hyper._nonpositive_int,
    hyper._sum_terminating, hyper._sum_convergent,
)
ALLOWED = set().union(*map(_codes, ARITHMETIC))
SUMS = {hyper._sum_terminating.__code__, hyper._sum_convergent.__code__}

TRIO = {"hyp_closed", "jacobi", "legendre_sec2"}
ITEM_12B = ("ROADMAP item 12(b): hyp_closed, jacobi and legendre_sec2 sum one 2F1 "
            "until jacobi and legendre_sec2 run their own degree recurrences")


def _name(code) -> str:
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


class Row(NamedTuple):
    compared: bool
    calls: frozenset  # code objects of the route functions it ran
    series: tuple  # (upper, lower, z) of each hypergeometric sum


def run_row(build, routes, x) -> Row | None:
    """The row `build` makes from the route module `routes` and `x`, as the
    profiler saw it; None when the row is skipped."""
    calls, sums = set(), []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in ROUTE_FILES:
            calls.add(frame.f_code)
            if frame.f_code in SUMS:
                args = frame.f_locals
                sums.append((args["upper"], args["lower"], args["z"]))

    for f in CACHED:
        f.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fields = build(routes, x)
    except cli.ROW_ERRORS:
        return None
    finally:
        sys.setprofile(previous)
    return Row(fields.get("compare", True), frozenset(calls), tuple(sums))


def c2_points(rng):
    # 0 < a < sqrt(b) < sqrt(2) a, where all seven rows run: three b with a
    # rational root (exact rows), three without (float rows)
    for square in (True, True, True, False, False, False):
        if square:
            b = Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2
        else:
            b = Fraction(rng.choice((2, 3, 5, 7, 11)), rng.choice((1, 4, 9)))
        a = Fraction(round(rng.uniform(0.75, 0.95) * math.sqrt(b) * 1000), 1000)
        yield "c2", "--a", str(a), "--b", str(b), "--n", str(rng.randint(1, 9))


def functional_points(rng):
    # four ascending points (b^p < a, where via_q runs), two descending
    for ascending in (True, True, True, True, False, False):
        p = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(3, 4)))
        b = Fraction(rng.randint(1, 20), rng.randint(1, 4))
        scale = rng.uniform(1.2, 3.0) if ascending else rng.uniform(0.3, 0.8)
        a = Fraction(max(1, round(scale * float(b) ** float(p) * 100)), 100)
        n = rng.randint(0, 6)
        yield "functional", "--a", str(a), "--b", str(b), "--p", str(p), "--n", str(n)


def q_points(rng):
    for _ in range(4):
        p = rng.choice(("1/2", "1/3", "2/5"))
        y = Fraction(rng.randint(1, 9), 10)
        yield "q", "--n", str(rng.randint(1, 8)), "--y", str(y), "--p", p


POINTS = {"c2": c2_points, "functional": functional_points, "q": q_points}
ROUTE_MODULES = {"c2": catalan2, "functional": functional, "q": qfunc}


@functools.cache
def audit(command: str) -> tuple[tuple[str, dict[str, Row]], ...]:
    """(argv, rep -> row run) at each seeded point, built as `cmd_compare`
    builds them."""
    reps, routes = cli._QUANTITIES[command][2], ROUTE_MODULES[command]
    points = []
    for argv in POINTS[command](random.Random(12)):
        args = cli._build_parser().parse_args(argv)
        norm = catalan2.Normalization(args.normalization) if "normalization" in args else None
        x = argparse.Namespace(**vars(args), norm=norm, quad_tol=cli._quad_tol(args.tol))
        rows = {rep: run_row(reps[rep], routes, x) for rep in reps if rep not in cli.ON_REQUEST}
        points.append((" ".join(argv), {rep: row for rep, row in rows.items() if row}))
    return tuple(points)


def same_series(s, t) -> bool:
    """The same parameters, and arguments equal to 1e-12 (a float route
    rounds its argument)."""
    params = [sorted(map(Fraction, ps)) for ps in (s[0], s[1], t[0], t[1])]
    return params[:2] == params[2:] and math.isclose(s[2], t[2], rel_tol=1e-12)


def shared_series(r: Row, s: Row) -> bool:
    return any(same_series(x, y) for x, y in itertools.product(r.series, s.series))


@pytest.mark.parametrize("command", POINTS)
def test_the_audit_covers_every_row(command):
    reps = cli._QUANTITIES[command][2]
    assert ROUTE_MODULES[command].__name__ == f"catalankit.{cli._QUANTITIES[command][3]}"
    ran = set()
    for argv, rows in audit(command):
        assert sum(row.compared for row in rows.values()) >= 2, argv
        ran |= rows.keys()
    assert ran == {rep for rep in reps if rep not in cli.ON_REQUEST}


@pytest.mark.parametrize("command", POINTS)
def test_every_compared_row_has_an_independent_partner(command):
    for argv, rows in audit(command):
        for rep, row in rows.items():
            shared = {other: sorted(map(_name, (row.calls & partner.calls) - ALLOWED))
                      for other, partner in rows.items() if other != rep and partner.compared}
            assert not row.compared or [] in shared.values(), (argv, rep, shared)


@pytest.mark.parametrize("command", POINTS)
def test_no_two_rows_sum_the_same_hypergeometric_series(command):
    for argv, rows in audit(command):
        for (r1, row1), (r2, row2) in itertools.combinations(rows.items(), 2):
            if command == "c2" and {r1, r2} <= TRIO:
                continue  # test_the_c2_trio_sums_three_series
            assert not shared_series(row1, row2), (argv, r1, r2)


@pytest.mark.xfail(strict=True, reason=ITEM_12B)
def test_the_c2_trio_sums_three_series():
    for argv, rows in audit("c2"):
        for r1, r2 in itertools.combinations(sorted(TRIO), 2):
            assert not shared_series(rows[r1], rows[r2]), (argv, r1, r2)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: a report whose compared rows all "
                   "sum one 2F1 exits 0, as if they were independent witnesses")
def test_a_report_of_one_derivation_exits_1():
    # double_factorial, quadrature and gf_coefficient fail in floats here, and
    # hyp_unbounded and legendre_sec2 are out of their domain: only hyp_closed
    # and jacobi are compared
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(["c2", "--a", "65e37", "--b", "82e-72", "--n", "4"]) == 1
