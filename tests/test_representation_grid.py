"""scripts/representation_grid.py, which reads the command line's c2 table."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

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
