"""Calibrate the half-line integrator against closed-form Beta integrals.

For each requested tolerance the script integrates the seeded random
Beta cases of `catalankit.checks.beta_cases` (the draw the quadrature_beta
selftest suite uses) and compares with the exact Beta value. The table
reports the worst and median achieved relative error and the evaluation
count spread, which is how the 10x-tolerance calibration margin used by
the test suite was chosen.

Usage:
    python scripts/quadrature_calibration.py
    python scripts/quadrature_calibration.py --cases 200 --seed 7
"""

import argparse
import statistics

from catalankit.checks import _BETA_COUNT, _BETA_SEED, beta_cases
from catalankit.quad import integrate_halfline


def run_tolerance(tol, cases, seed):
    errors, evals = [], []
    for _, integrand, truth in beta_cases(cases, seed):
        result = integrate_halfline(*integrand, tol)
        errors.append(abs(result.value - truth) / abs(truth))
        evals.append(result.evaluations)
    return errors, evals


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="achieved error vs requested tolerance for the half-line rule")
    parser.add_argument("--cases", type=int, default=_BETA_COUNT)
    parser.add_argument("--seed", type=int, default=_BETA_SEED)
    parser.add_argument(
        "--tols", default="1e-4,1e-6,1e-8,1e-10,1e-12,1e-14",
        help="comma separated list of requested tolerances")
    args = parser.parse_args(argv)

    tols = [float(t) for t in args.tols.split(",")]
    print(f"{args.cases} Beta cases per tolerance, seed {args.seed}")
    print()
    header = f"{'requested':>10}  {'worst rel':>10}  {'median rel':>10}  " \
             f"{'margin':>7}  {'evals med':>9}  {'evals max':>9}"
    print(header)
    print("-" * len(header))
    clean = True
    for tol in tols:
        errors, evals = run_tolerance(tol, args.cases, args.seed)
        worst = max(errors)
        margin = worst / tol
        if margin > 10.0:
            clean = False
        print(f"{tol:>10.1e}  {worst:>10.3e}  {statistics.median(errors):>10.3e}  "
              f"{margin:>6.2f}x  {int(statistics.median(evals)):>9}  {max(evals):>9}")
    print()
    if not clean:
        print("some tolerance exceeded the 10x calibration margin")
        return 1
    print("all tolerances within the 10x calibration margin")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
