"""scripts/representation_grid.py, which reads the command line's c2 table."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from catalankit import catalan2

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "representation_grid.py"


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("representation_grid", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_grid_passes(grid, capsys):
    assert grid.main(["--a", "1,2", "--b", "1,4", "--nmax", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("20 grid points, threshold 1e-08\n")
    assert out.endswith("all pairs within threshold\n")


def test_out_of_domain_rows_are_left_out(grid):
    # n = 0: jacobi and legendre_sec2 need n >= 1
    values = grid.evaluate_point(1, 4, 0, 1e-10)
    assert "jacobi" not in values and "legendre_sec2" not in values
    assert values["double_factorial"] == pytest.approx(1 / 3, rel=1e-15)
    assert "legendre_eq0b" not in values


def test_in_domain_rows_are_kept(grid):
    # |1 - b/a^2| = 1/9 < 1: the non-terminating 2F1 converges
    values = grid.evaluate_point(Fraction(3, 2), 2, 2, 1e-10)
    assert "hyp_unbounded" in values
    assert values["hyp_unbounded"] == pytest.approx(values["hyp_closed"], rel=1e-12)


def test_values_are_kept_as_the_routes_return_them(grid):
    # sqrt(4) is rational: the exact rows stay Fractions, as in `--rep all`
    values = grid.evaluate_point(1, 4, 2, 1e-10)
    assert values["double_factorial"] == Fraction(7, 1728)
    assert isinstance(values["hyp_closed"], Fraction)
    assert isinstance(values["quadrature"], float)


def test_exact_values_past_float_range_are_compared_exactly(grid, capsys):
    # at a = 0, b = 1e-300 the exact rows reach 1e+1050 by n = 3; they agree
    assert grid.main(["--a", "0", "--b", "1e-300", "--nmax", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("4 grid points, threshold 1e-08\n")
    assert "hyp_closed vs jacobi                0.000e+00" in out
    assert out.endswith("all pairs within threshold\n")


def test_a_failing_route_drops_out_as_in_the_cli(grid, capsys):
    # at n = 1 the quadrature integrand divides by zero, and gf_coefficient
    # and legendre_sec2 overflow to inf: `--rep all` skips all three rows,
    # so the grid leaves them out and compares only the n = 0 rows
    a, b = Fraction("1e-150"), Fraction("2e-300")
    assert grid.evaluate_point(a, b, 1, 1e-10) == {}
    assert grid.main(["--a", "1e-150", "--b", "2e-300", "--nmax", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 grid points, threshold 1e-08"
    assert [line.split(" vs ")[0] for line in lines[2:-2]] == [
        "double_factorial", "double_factorial", "gf_coefficient"]
    assert all(line.endswith("ok") for line in lines[2:-2])
    assert lines[-1] == "all pairs within threshold"


def test_unequal_exact_values_fail_whatever_the_threshold(grid, monkeypatch, capsys):
    # gf_coefficient off by 1e-12: its pairs with the exact rows fail at
    # threshold 1, as the command line fails them; float pairs pass
    real = catalan2.c2_gf_coefficient
    monkeypatch.setattr(catalan2, "c2_gf_coefficient",
                        lambda a, b, n: real(a, b, n) * (1 + Fraction(1, 10**12)))
    assert grid.main(["--a", "1", "--b", "4", "--nmax", "5", "--threshold", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failing = [line.split("  ")[0] for line in lines if line.endswith("FAIL")]
    assert failing == ["double_factorial vs gf_coefficient", "gf_coefficient vs hyp_closed",
                       "gf_coefficient vs jacobi"]
    assert lines[-1] == "3 pair(s) above threshold or with unequal exact values"


def test_quadrature_tolerance_follows_the_threshold(grid, monkeypatch, capsys):
    # as the command line derives it from --tol: 1e-10 at the default 1e-8
    seen = []
    real = grid.evaluate_point
    monkeypatch.setattr(grid, "evaluate_point",
                        lambda a, b, n, quad_tol: seen.append(quad_tol) or real(a, b, n, quad_tol))
    for threshold, quad_tol in ((None, 1e-10), ("1e-11", 1e-13)):
        seen.clear()
        argv = ["--a", "1", "--b", "4", "--nmax", "1"]
        assert grid.main(argv + (["--threshold", threshold] if threshold else [])) == 0
        assert seen and seen == [pytest.approx(quad_tol, rel=1e-12)] * len(seen)
    capsys.readouterr()
