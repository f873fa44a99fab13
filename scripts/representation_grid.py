"""Sweep a parameter grid and report worst disagreement per representation pair.

Every in-domain c2 representation of the command line table
(`catalankit.cli.C2_REPS`, generating-function scale) is evaluated at
each (a, b, n) grid point by the command line's row loop
(`catalankit.cli.evaluate`) and compared pairwise; a row that loop skips
is left out, as `--rep all` skips it. The summary table shows, for each
pair of representations, the worst relative difference seen anywhere on
the grid (`catalankit.reporting.max_pairwise_rel_diff`, as the command
line measures it) and the point that produced it. Two exact values that
are unequal fail their pair whatever the threshold is
(`catalankit.reporting.exact_values_differ`, the command line's rule), and
such a point is the one shown.
Exit status is 1 if any pair exceeds the threshold or has unequal exact
values.

Usage:
    python scripts/representation_grid.py
    python scripts/representation_grid.py --a 0.3,1,5 --b 0.25,4 --nmax 20
"""

import argparse
from fractions import Fraction
from itertools import combinations, product

from catalankit import catalan2
from catalankit.cli import C2_REPS, ON_REQUEST, _quad_tol, evaluate
from catalankit.reporting import exact_values_differ, max_pairwise_rel_diff


def parse_numbers(text):
    return tuple(Fraction(part) for part in text.split(","))


def evaluate_point(a, b, n, quad_tol):
    """All representations defined at (a, b, n), keyed by name, with the
    values the routes return (a Fraction where the route is exact)."""
    x = argparse.Namespace(
        a=a, b=b, n=n, norm=catalan2.Normalization.GENERATING_FUNCTION, quad_tol=quad_tol)
    names = [rep for rep in C2_REPS if rep not in ON_REQUEST]
    rows = evaluate(catalan2, C2_REPS, names, x)
    return {row.rep: row.value for row, error in rows if error is None}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="cross-check C2 representations over a grid")
    parser.add_argument("--a", type=parse_numbers, default=(
        Fraction(3, 10), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)))
    parser.add_argument("--b", type=parse_numbers, default=(
        Fraction(1, 4), Fraction(1), Fraction(4)))
    parser.add_argument("--nmax", type=int, default=12)
    parser.add_argument("--threshold", type=float, default=1e-8)
    args = parser.parse_args(argv)

    quad_tol = _quad_tol(args.threshold)  # as the command line derives it from --tol
    worst = {}  # (rep, rep) -> (exact values differ, diff, a, b, n)
    points = 0
    for a, b in product(args.a, args.b):
        for n in range(args.nmax + 1):
            values = evaluate_point(a, b, n, quad_tol)
            points += 1
            for left, right in combinations(sorted(values), 2):
                pair = (values[left], values[right])
                seen = (exact_values_differ(pair), max_pairwise_rel_diff(pair), a, b, n)
                key = (left, right)
                if key not in worst or seen[:2] > worst[key][:2]:
                    worst[key] = seen

    width = max(len(f"{l} vs {r}") for l, r in worst)
    print(f"{points} grid points, threshold {args.threshold:g}")
    print()
    failures = 0
    for (left, right), (differ, diff, a, b, n) in sorted(
            worst.items(), key=lambda item: (not item[1][0], -item[1][1])):
        status = "ok"
        if differ or diff > args.threshold:
            status = "FAIL"
            failures += 1
        pair = f"{left} vs {right}"
        print(f"{pair:<{width}}  {diff:9.3e}  at a={a}, b={b}, n={n}  {status}")
    print()
    if failures:
        print(f"{failures} pair(s) above threshold or with unequal exact values")
        return 1
    print("all pairs within threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
