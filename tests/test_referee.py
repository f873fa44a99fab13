"""An independent referee for the `--rep all` reports of c2, functional and q.

Every cross-check of the command line compares routes with each other, so
an error they share (a shared float input, a shared underflow) passes it.
Here each seeded point, and one point pinned off the grid, runs in-process
as `--format json`, and every report that exits 0 is held against a formula
evaluated by mpmath:

* c2: C_n / (2 sqrt(b))^n (a + sqrt(b))^(-n-1)
  2F1(1-n, n; n+2; (sqrt(b) - a) / (2 sqrt(b))), at 60 digits;
* functional: the double sum 1/((a + b^p) n! b^n) sum_k (1 + a/b^p)^(-k)
  sum_m (-1)^m binom(k, m) (-pm)_n, at 80 digits;
* q: sum_j c_j Li_{-j}(-y) with (-pk)_n = sum_j c_j k^j, at 60 digits
  (1/(1+y) at n = 0).

An exact row must equal the referee to 50 digits; a float row must lie
within the report's --tol of it, relatively. A report that exits 1 or 2
claims no agreement, so it is left to tests/test_cli_contract.py. A point
that an open ROADMAP item still owns is xfail(strict=True) naming the item,
so its fix flips the case.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import mpmath
import pytest

from catalankit.cli import main

POINTS = 30
MANTISSAS = ("1", "1.5", "2", "3.7", "7", "9.99")
ORDERS = ("1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6", "0.37")
# Rows a report prints but does not compare: q's printed hypergeometric form.
UNCOMPARED = {("q", "hyp")}


def _number(rng):
    return f"{rng.choice(MANTISSAS)}e{rng.randint(-300, 300)}"


def grid(command):
    """POINTS seeded argv of `command`, n <= 6."""
    rng = random.Random(f"referee-{command}")
    for _ in range(POINTS):
        n = str(rng.randint(0, 6))
        if command == "c2":
            yield ("c2", "--a", _number(rng), "--b", _number(rng), "--n", n)
        elif command == "functional":
            yield ("functional", "--a", _number(rng), "--b", _number(rng),
                   "--p", rng.choice(ORDERS), "--n", n)
        else:
            yield ("q", "--n", n, "--y", _number(rng), "--p", rng.choice(ORDERS))


def _mp(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def c2_referee(a, b, n):
    with mpmath.workdps(60):
        a, root = _mp(a), mpmath.sqrt(_mp(b))
        catalan = mpmath.binomial(2 * n, n) / (n + 1)
        z = (root - a) / (2 * root)
        return catalan / (2 * root) ** n / (a + root) ** (n + 1) * mpmath.hyp2f1(1 - n, n, n + 2, z)


def functional_referee(a, b, p, n):
    with mpmath.workdps(80):
        a, b, p = _mp(a), _mp(b), _mp(p)
        bp = b**p
        total = mpmath.fsum(
            mpmath.fsum((-1) ** m * mpmath.binomial(k, m) * mpmath.rf(-p * m, n)
                        for m in range(k + 1)) / (1 + a / bp) ** k
            for k in range(n + 1))
        return total / ((a + bp) * mpmath.factorial(n) * b**n)


def q_referee(n, y, p):
    coeffs = [Fraction(1)]  # (-pk)_n as a polynomial in k, low degree first
    for i in range(n):
        coeffs = [i * c + -p * d for c, d in zip([*coeffs, 0], [0, *coeffs])]
    with mpmath.workdps(60):
        if n == 0:
            return 1 / (1 + _mp(y))
        return mpmath.fsum(_mp(c) * mpmath.polylog(-j, -_mp(y)) for j, c in enumerate(coeffs) if c)


def referee(argv):
    x = dict(zip(argv[1::2], argv[2::2]))
    n = int(x["--n"])
    if argv[0] == "c2":
        return c2_referee(Fraction(x["--a"]), Fraction(x["--b"]), n)
    if argv[0] == "functional":
        return functional_referee(Fraction(x["--a"]), Fraction(x["--b"]), Fraction(x["--p"]), n)
    return q_referee(n, Fraction(x["--y"]), Fraction(x["--p"]))


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


def misses(argv):
    """The compared rows of an exit-0 report that miss the referee, as
    'rep: relative difference'; None when the report does not exit 0."""
    try:
        code, out = run(argv)
    except OverflowError as exc:  # a miss too, without a deep traceback to format
        return [f"OverflowError: {exc}"]
    if code != 0:
        assert code in (1, 2), argv
        return None
    report = json.loads(out)
    ref = referee(argv)
    assert ref != 0, argv
    missed = []
    for row in report["results"]:
        if row["skipped"] or (argv[0], row["rep"]) in UNCOMPARED:
            continue
        with mpmath.workdps(60):
            if row["exact"]:
                rel = abs(_mp(str(row["value"])) - ref) / abs(ref)
                ok = rel <= mpmath.mpf(10) ** -50
            else:
                rel = abs(mpmath.mpf(row["value"]) - ref) / abs(ref)
                ok = rel <= report["input"]["tol"]
        if not ok:
            missed.append(f"{row['rep']}: {mpmath.nstr(rel, 3)}")
    return missed


# Points whose report exits 0 with rows off the referee, and points that
# raise, each with the open item that owns it.
UNDERFLOW = "ROADMAP item 4: rows underflow to 0, so a value below the float range reads as agreement"
OVERFLOW = "ROADMAP item 10: the quadrature integrand's (b + t) ** power overflows"
KNOWN = {
    "c2 --a 2e-217 --b 3.7e90 --n 6": OVERFLOW,
    "c2 --a 9.99e53 --b 1.5e165 --n 2": OVERFLOW,
    "c2 --a 2e-282 --b 1e169 --n 5": OVERFLOW,
    "c2 --a 7e-112 --b 3.7e83 --n 4": OVERFLOW,
    "c2 --a 1.5e38 --b 1e239 --n 4": OVERFLOW,
    "c2 --a 7e76 --b 1.5e247 --n 4": OVERFLOW,
    "c2 --a 1.5e-180 --b 9.99e273 --n 2": OVERFLOW,
    "c2 --a 9.99e125 --b 1.5e129 --n 5": OVERFLOW,
    "functional --a 9.99e295 --b 7e147 --p 0.37 --n 2": UNDERFLOW,  # true value 1.2e-834
    "functional --a 9.99e208 --b 1e-109 --p 1/2 --n 1": UNDERFLOW,  # 1.6e-364
    "functional --a 1e244 --b 7e38 --p 5/6 --n 1": UNDERFLOW,  # 2.8e-495
    "functional --a 9.99e117 --b 7e294 --p 2/3 --n 2": OVERFLOW,
    "functional --a 7e-259 --b 3.7e292 --p 1/4 --n 4": OVERFLOW,
    "functional --a 2e-174 --b 3.7e188 --p 1/3 --n 3": OVERFLOW,
    "functional --a 3.7e79 --b 3.7e206 --p 1/6 --n 6": OVERFLOW,
    "functional --a 1e-189 --b 7e209 --p 1/4 --n 1": OVERFLOW,
    "functional --a 3.7e-41 --b 3.7e135 --p 3/4 --n 2": OVERFLOW,
    "functional --a 3.7e79 --b 7e176 --p 1/2 --n 4": OVERFLOW,
    "functional --a 3.7e-94 --b 9.99e123 --p 0.37 --n 2": OVERFLOW,
    "functional --a 7e24 --b 7e271 --p 3/4 --n 1": OVERFLOW,
    "functional --a 9.99e-65 --b 1e252 --p 3/4 --n 2": OVERFLOW,
    "functional --a 9.99e-42 --b 1.5e248 --p 1/4 --n 3": OVERFLOW,
    "functional --a 9.99e202 --b 2e75 --p 1/3 --n 1": UNDERFLOW,  # 2.1e-457
    "functional --a 2e256 --b 2e75 --p 2/3 --n 1": UNDERFLOW,  # 1.3e-538
    "functional --a 7e68 --b 1.5e-64 --p 2/3 --n 5":
        "ROADMAP item 4: float rows share a subnormal b^n and agree on a wrong value",
}


def _case(argv):
    reason = KNOWN.get(" ".join(argv))
    if reason is None:
        return argv
    return pytest.param(argv, marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason))


CASES = [_case(argv) for command in ("c2", "functional", "q") for argv in grid(command)]
# Off the grid: float(b) ** 5 = 7.6e-320 is subnormal, so the float rows keep
# 4 digits and agree on 1.4570464898476013e+137; the referee gives
# 1.4570539684568463e+137.
CASES.append(_case(("functional", "--a", "7e68", "--b", "1.5e-64", "--p", "2/3", "--n", "5")))


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_report_agrees_with_the_referee(argv):
    assert not misses(argv), argv
