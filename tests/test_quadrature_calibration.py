"""scripts/quadrature_calibration.py, which integrates checks.beta_cases."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "quadrature_calibration.py"


@pytest.fixture(scope="module")
def calibration():
    spec = importlib.util.spec_from_file_location("quadrature_calibration", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_run_prints_its_table(calibration, capsys):
    assert calibration.main(["--cases", "5", "--tols", "1e-8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "5 Beta cases per tolerance, seed 20260816"
    assert lines[2].split() == ["requested", "worst", "rel", "median", "rel", "margin",
                                "evals", "med", "evals", "max"]
    assert set(lines[3]) == {"-"}
    row = lines[4].split()
    assert row[0] == "1.0e-08" and float(row[1]) <= 1e-7 and row[3].endswith("x")
    assert lines[5:] == ["", "all tolerances within the 10x calibration margin"]


def test_run_tolerance_measures_each_case(calibration):
    errors, evals = calibration.run_tolerance(1e-10, 4, 7)
    assert len(errors) == len(evals) == 4
    assert max(errors) <= 1e-9
    assert all(n % 15 == 0 and n >= 120 for n in evals)  # 8 panels of 15 points
