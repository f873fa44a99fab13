"""Command line driver: exit codes, formats, determinism, self checks."""

import csv
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import catalankit.catalan2
import catalankit.checks
import catalankit.cli
import catalankit.exact
import catalankit.hyper
import catalankit.qfunc
import catalankit.quad
from catalankit.cli import _QUANTITIES, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalan_command(capsys):
    code, out, err = run_cli(capsys, "catalan", "--n", "7")
    assert code == 0
    assert err == ""
    assert out.count("429") == 5
    for name in ("factorial_quotient", "central_binomial", "gamma_ratio",
                 "terminating_2f1", "recurrence"):
        assert name in out


def test_catalan_command_reports_disagreeing_formulas(capsys, monkeypatch):
    def disagreeing(n):
        return {"factorial_quotient": Fraction(42), "central_binomial": Fraction(43)}

    monkeypatch.setattr(catalankit.exact, "catalan_formulas", disagreeing)
    code, out, err = run_cli(capsys, "catalan", "--n", "5")
    assert (code, err) == (1, "")
    assert "note: formula values disagree" in out


def test_readme_example_is_current(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    command = "$ catalankit c2 --a 1 --b 4 --n 2\n"
    shown = readme.split(command, 1)[1].split("```", 1)[0]
    code, out, _ = run_cli(capsys, *command.split()[2:])
    assert code == 0
    assert out == shown


def test_c2_all_agrees(capsys):
    code, out, _ = run_cli(capsys, "c2", "--a", "1", "--b", "4", "--n", "2")
    assert code == 0
    assert "7/1728" in out
    assert "max_pairwise_rel_diff" in out


def test_c2_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "c2", "--a", "1", "--b", "4", "--n", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == sorted(data)  # canonical: top-level keys sorted
    assert data["command"] == "c2"
    assert data["input"]["a"] == 1
    reps = [row["rep"] for row in data["results"]]
    assert reps == [
        "double_factorial", "hyp_closed", "jacobi", "quadrature",
        "gf_coefficient", "hyp_unbounded", "legendre_sec2",
    ]
    for row in data["results"]:
        assert list(row) == sorted(row)
    exact_rows = [r for r in data["results"] if r["exact"]]
    assert all(Fraction(r["value"]) == Fraction(7, 1728) for r in exact_rows)
    # floats in the document round-trip: the quadrature value re-rendered
    # at 17 significant digits must appear verbatim in the raw bytes
    quad = next(r for r in data["results"] if r["rep"] == "quadrature")
    assert format(quad["value"], ".17g") in out
    assert data["max_pairwise_rel_diff"] <= 1e-8


def test_c2_csv_parses(capsys):
    code, out, _ = run_cli(
        capsys, "c2", "--a", "1", "--b", "4", "--n", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rep", "value", "err", "exact", "terms", "note", "skipped"]
    assert len(rows) == 8
    by_rep = {r[0]: r for r in rows[1:]}
    assert by_rep["double_factorial"][1] == "29/41472"
    assert by_rep["hyp_unbounded"][6] == "true"  # out of domain at (1, 4)


def test_c2_paper_normalization(capsys):
    code, out, _ = run_cli(
        capsys, "c2", "--a", "1", "--b", "4", "--n", "2",
        "--normalization", "paper", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    gf = Fraction(7, 1728)
    closed = next(r for r in data["results"] if r["rep"] == "hyp_closed")
    assert closed["value"] == pytest.approx(float(gf) * 3.141592653589793, rel=1e-14)
    assert "pi" in closed["note"]
    assert data["notes"]  # explanatory note present


def test_c2_single_rep(capsys):
    code, out, _ = run_cli(
        capsys, "c2", "--a", "1/2", "--b", "1/4", "--n", "9", "--rep", "hyp_closed"
    )
    assert code == 0
    assert "4862" in out  # C_9


def test_byte_determinism(capsys):
    args = ("functional", "--a", "2", "--b", "1", "--p", "0.37", "--n", "3",
            "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_exit_2_on_bad_domain(capsys):
    code, _, err = run_cli(capsys, "c2", "--a", "-1", "--b", "4", "--n", "0")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "c2", "--a", "1", "--b", "4", "--n", "0",
                           "--rep", "jacobi")
    assert code == 2
    assert "n >= 1" in err
    code, _, err = run_cli(capsys, "functional", "--a", "1", "--b", "4",
                           "--p", "2", "--n", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "q", "--n", "1", "--y", "2", "--rep", "series")
    assert code == 2


def test_exit_2_on_unparsable_number(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["c2", "--a", "abc", "--b", "4", "--n", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_exit_2_on_exponent_past_bound(capsys):
    # Fraction("1e100000") alone builds a 332193-bit power of ten; the
    # bound refuses it before any arithmetic, with a message
    with pytest.raises(SystemExit) as exc:
        main(["c2", "--a", "1e100000", "--b", "4", "--n", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "|exponent| > 400: '1e100000'" in err
    with pytest.raises(SystemExit) as exc:
        main(["q", "--n", "1", "--y", "1E-401"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "c2", "--a", "1e400", "--b", "4", "--n", "0",
                           "--rep", "double_factorial")
    assert code == 0
    assert f"1/{10**400 + 2}" in out


@pytest.mark.parametrize("rep", ["hyp_closed", "jacobi"])
def test_c2_value_past_float_range_exits_2(capsys, rep):
    # at the printed scale the exact value, about 1e750, must become a float
    argv = ("c2", "--a", "0", "--b", "1e-300", "--n", "2", "--normalization", "paper")
    code, out, err = run_cli(capsys, *argv, "--rep", rep)
    assert code == 2
    assert out == ""
    assert err == "error: value about 1e+750 is outside float range\n"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = {row["rep"]: row for row in json.loads(out)["results"]}
    assert rows[rep]["skipped"] is True
    assert rows[rep]["note"] == "value about 1e+750 is outside float range"


def test_q_hyp_past_float_range_is_skipped(capsys):
    argv = ("q", "--n", "3", "--y", "1e-300")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = {row["rep"]: row for row in json.loads(out)["results"]}
    assert rows["hyp"]["skipped"] is True
    assert rows["hyp"]["note"] == "value about 1e+1800 is outside float range"
    assert Fraction(rows["stirling"]["value"]) > 0
    code, _, err = run_cli(capsys, *argv, "--rep", "hyp")
    assert code == 2
    assert "outside float range" in err


def test_underflow_to_zero_is_not_agreement(capsys):
    # the exact rows are about 1e-602; the series row underflows to 0. The
    # quadrature row read 0 too, from an a^2 that overflowed; it is skipped.
    code, out, _ = run_cli(capsys, "functional", "--a", "1e300", "--b", "4",
                           "--p", "1/2", "--n", "2", "--format", "json")
    assert code == 1
    data = json.loads(out)
    rows = {row["rep"]: row for row in data["results"]}
    assert rows["series"]["value"] == 0
    assert rows["quadrature"]["note"] == "a^2 about 1e+600 is outside float range"
    assert Fraction(rows["double_sum"]["value"]) > 0
    assert data["max_pairwise_rel_diff"] == 1


def test_hyp_unbounded_past_float_range_is_skipped(capsys):
    # b^(1/2-n) = (1e-300)^(-5/2) overflows a float
    argv = ("c2", "--a", "1e-150", "--b", "1e-300", "--n", "3")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    rows = {row["rep"]: row for row in json.loads(out)["results"]}
    assert rows["hyp_unbounded"]["skipped"] is True
    assert rows["hyp_unbounded"]["note"] == "b^(1/2-n) about 1e+750 is outside float range"
    code, _, err = run_cli(capsys, *argv, "--rep", "hyp_unbounded")
    assert code == 2
    assert err == "error: b^(1/2-n) about 1e+750 is outside float range\n"


def test_overflowed_rows_are_not_agreement(capsys):
    # gf_coefficient and legendre_sec2 overflow to inf, so they are skipped
    # like every other row; the quadrature's division by zero makes it exit 1
    code, out, _ = run_cli(capsys, "c2", "--a", "1e-150", "--b", "2e-300", "--n", "1",
                           "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert all(row["skipped"] for row in data["results"])
    rows = {row["rep"]: row for row in data["results"]}
    for rep in ("gf_coefficient", "legendre_sec2"):
        assert rows[rep]["note"] == "value overflowed"
    assert data["max_pairwise_rel_diff"] is None


def test_one_compared_row_is_not_a_cross_check(capsys):
    # every row but gf_coefficient is skipped: `all` has nothing to compare it with
    argv = ("c2", "--a", "1e300", "--b", "2e-300", "--n", "0")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "")
    assert out.endswith("\nnote: only one compared row ran, so nothing was cross-checked\n")
    # a single --rep compares nothing by design, and keeps its exit code
    code, out, err = run_cli(capsys, *argv, "--rep", "gf_coefficient")
    assert (code, err) == (0, "")
    assert "note:" not in out


@pytest.mark.parametrize("tol", ["1e-8", "1"])
def test_unequal_exact_rows_fail_whatever_the_tolerance(capsys, monkeypatch, tol):
    # gf_coefficient off by 1e-12 beside three equal exact rows: as floats
    # the rows agree within --tol, but an exact route's error is a bug
    real = catalankit.catalan2.c2_gf_coefficient
    monkeypatch.setattr(catalankit.catalan2, "c2_gf_coefficient",
                        lambda a, b, n: real(a, b, n) * (1 + Fraction(1, 10**12)))
    code, out, err = run_cli(capsys, "c2", "--a", "1", "--b", "4", "--n", "5", "--tol", tol)
    assert (code, err) == (1, "")
    assert "2483000000002483/95551488000000000000" in out
    assert out.endswith("\nnote: exact rows differ\n")


def test_non_finite_values_are_skipped_rows(capsys):
    # the true value is about 7.4e324, past the float range
    argv = ("c2", "--a", "1e-10", "--b", "15e-21", "--n", "16")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert "Infinity" not in out and "NaN" not in out
    notes = {row["rep"]: row["note"] for row in json.loads(out)["results"]}
    for rep in ("double_factorial", "hyp_closed", "jacobi", "hyp_unbounded", "legendre_sec2"):
        assert notes[rep] == "value overflowed"
    assert notes["gf_coefficient"] == "value is not a number"
    assert notes["quadrature"] == "float division by zero"
    assert code == 1  # every row skipped, and the quadrature failed at valid input
    code, out, err = run_cli(capsys, *argv, "--rep", "gf_coefficient")
    assert (code, out, err) == (2, "", "error: value is not a number\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("c2", "--a", "1", "--b", "4", "--n", "3"),
        ("c2", "--a", "3/2", "--b", "2", "--n", "4"),
        ("c2", "--a", "1", "--b", "4", "--n", "3", "--normalization", "paper"),
        ("c2", "--a", "0", "--b", "1e-300", "--n", "2", "--normalization", "paper"),
        ("functional", "--a", "1", "--b", "1/2", "--p", "1/4", "--n", "3"),
        ("functional", "--a", "1", "--b", "2", "--p", "1/3", "--n", "2"),
        ("functional", "--a", "1", "--b", "1", "--p", "1/3", "--n", "2"),
        ("q", "--n", "6", "--y", "1/2"),
        ("q", "--n", "3", "--y", "1", "--p", "1/3"),
        ("q", "--n", "3", "--y", "1e-300"),
    ],
)
def test_exact_and_skipped_follow_the_value(capsys, argv):
    # a rational value prints as a "num/den" string, a float as a number
    code, out, _ = run_cli(capsys, *argv, "--rep", "all", "--format", "json")
    assert code == 0
    for row in json.loads(out)["results"]:
        assert row["exact"] is isinstance(row["value"], str)
        assert row["skipped"] is (row["value"] is None)
        if row["exact"]:
            assert Fraction(row["value"]) > 0


@pytest.mark.parametrize(
    "argv, reasons",
    [
        # gf_coefficient (an underflowed 0) is the one row left: exit 1
        (("c2", "--a", "1e300", "--b", "2", "--n", "5"),
         {"double_factorial": "(1+a/sqrt(b))^(k+1) about 1e+600 is outside float range",
          "hyp_closed": "(a+sqrt(b))^(n+1) about 1e+1800 is outside float range",
          "jacobi": "(a+sqrt(b))^(n+1) about 1e+1800 is outside float range",
          "quadrature": "a^2 about 1e+600 is outside float range",
          "hyp_unbounded": "a^2 about 1e+600 is outside float range"}),
        (("c2", "--a", "1e200", "--b", "4", "--n", "2"),
         {"quadrature": "a^2 about 1e+400 is outside float range",
          "hyp_unbounded": "a^2 about 1e+400 is outside float range"}),
        # cf_quadrature's a^2 overflowed to inf, and its row read 0 with err 0
        (("functional", "--a", "1e200", "--b", "1", "--p", "1/2", "--n", "0"),
         {"quadrature": "a^2 about 1e+400 is outside float range"}),
    ],
)
def test_float_power_past_range_skips_the_row(capsys, argv, reasons):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    rows = {row["rep"]: row for row in json.loads(out)["results"]}
    # the rows agree; a single row left cross-checks nothing and exits 1
    assert code == (1 if sum(not row["skipped"] for row in rows.values()) == 1 else 0)
    for rep, reason in reasons.items():
        assert rows[rep]["skipped"] is True
        assert rows[rep]["note"] == reason
        code, out, err = run_cli(capsys, *argv, "--rep", rep)
        assert (code, out, err) == (2, "", f"error: {reason}\n")


@pytest.mark.parametrize("rep", ["series", "via_q"])
def test_functional_ratio_past_float_range_exits_2(capsys, rep):
    # y = b^p/a = 1e150/1e-300 = 1e450
    code, out, err = run_cli(capsys, "functional", "--a", "1e-300", "--b", "1e300",
                             "--p", "1/2", "--n", "1", "--rep", rep)
    assert (code, out) == (2, "")
    assert err == "error: value about 1e+450 is outside float range\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("c2", "--a", "1", "--b", "2e300", "--n", "2", "--rep", "double_factorial"),
         "b^n about 1e+601 is outside float range"),
        (("functional", "--a", "1", "--b", "1e300", "--p", "1/2", "--n", "2", "--rep", "series"),
         "b^n about 1e+600 is outside float range"),
        (("c2", "--a", "1e400", "--b", "4", "--n", "0", "--rep", "quadrature"),
         "value about 1e+400 is outside float range"),
        (("c2", "--a", "1", "--b", "3e399", "--n", "1", "--rep", "double_factorial"),
         "value about 1e+399 is outside float range"),
        (("functional", "--a", "1", "--b", "3e300", "--p", "1/3", "--n", "2",
          "--rep", "double_sum"),
         "b^n about 1e+601 is outside float range"),
        (("functional", "--a", "1", "--b", "3e399", "--p", "1/3", "--n", "1",
          "--rep", "double_sum"),
         "value about 1e+399 is outside float range"),
    ],
)
def test_float_of_an_input_past_range_exits_2(capsys, argv, reason):
    # in-range arguments whose float, or a float power of them, overflows:
    # a reason on stderr and exit 2, where an OverflowError escaped before
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_input_past_float_range_skips_every_row(capsys):
    # sqrt(3e399) is irrational, so every c2 route needs float(b); with
    # every row skipped on a ValueError, `all` exits 2 as one --rep would
    code, out, _ = run_cli(capsys, "c2", "--a", "1", "--b", "3e399", "--n", "1",
                           "--format", "json")
    assert code == 2
    rows = json.loads(out)["results"]
    assert len(rows) == 7
    for row in rows:
        assert row["skipped"] is True
        assert row["note"] == "value about 1e+399 is outside float range"
    # y = -2 is outside every Q route's domain
    code, out, _ = run_cli(capsys, "q", "--n", "3", "--y", "-2", "--format", "json")
    assert code == 2
    rows = json.loads(out)["results"]
    assert len(rows) == 5 and all(row["skipped"] for row in rows)


def test_every_row_skipped_with_a_route_failure_exits_1(capsys, monkeypatch):
    # one route failing at valid input outranks the domain refusals
    def exhausted(*args):
        raise RuntimeError("q_series: not converged after 2 terms")

    monkeypatch.setattr(catalankit.qfunc, "q_series_with_terms", exhausted)
    code, out, _ = run_cli(capsys, "q", "--n", "3", "--y", "-2", "--format", "json")
    assert code == 1
    rows = json.loads(out)["results"]
    assert all(row["skipped"] for row in rows)
    assert rows[0]["note"] == "q_series: not converged after 2 terms"


REGISTRY_POINTS = {
    "c2": ("--a", "2", "--b", "25/4", "--n", "3"),
    "functional": ("--a", "1", "--b", "1/2", "--p", "1/4", "--n", "3"),
    "q": ("--n", "5", "--y", "2/5", "--p", "1/3"),
}


@pytest.mark.parametrize("command", sorted(REGISTRY_POINTS))
def test_single_rep_rows_equal_rows_of_all(capsys, command):
    argv = (command, *REGISTRY_POINTS[command], "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["results"]
    assert not any(row["skipped"] for row in rows)  # the point is in every domain
    for row in rows:
        code, out, _ = run_cli(capsys, *argv, "--rep", row["rep"])
        assert code == 0
        assert json.loads(out)["results"] == [row]


def test_on_request_rep_is_accepted_but_not_in_all(capsys):
    argv = ("c2", *REGISTRY_POINTS["c2"], "--format", "json")
    _, out, _ = run_cli(capsys, *argv)
    assert "legendre_eq0b" not in [row["rep"] for row in json.loads(out)["results"]]
    code, out, _ = run_cli(capsys, *argv, "--rep", "legendre_eq0b")
    assert code == 0
    (row,) = json.loads(out)["results"]
    assert row["rep"] == "legendre_eq0b" and row["note"]


def test_the_printed_eq0b_row_is_the_same_at_either_normalization(capsys):
    # its printed prefactor carries no pi, so the printed scale changes nothing
    argv = ("c2", "--a", "1", "--b", "4", "--n", "4", "--rep", "legendre_eq0b", "--format", "json")
    rows = []
    for norm in ("gf", "paper"):
        code, out, _ = run_cli(capsys, *argv, "--normalization", norm)
        assert code == 0
        rows += json.loads(out)["results"]
    assert rows[0] == rows[1] and rows[0]["value"] > 0


@pytest.mark.parametrize("command, flags", [
    ("c2", ["a", "b", "n"]),
    ("functional", ["a", "b", "p", "n"]),
    ("q", ["n", "y", "p"]),
])
def test_flags_and_echo_follow_the_quantity_table(capsys, command, flags):
    assert [name for name, _, _ in _QUANTITIES[command][1]] == flags
    rest = ["rep", "normalization", "tol"] if command == "c2" else ["rep", "tol"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("options:\n")[1]
    listed = [line.split()[0] for line in options.splitlines() if line.startswith("  --")]
    assert listed == [f"--{name}" for name in [*flags, *rest, "format"]]
    code, out, _ = run_cli(capsys, command, *REGISTRY_POINTS[command])
    assert code == 0
    header = out.splitlines()[0].split()
    assert header[0] == command
    assert [item.split("=")[0] for item in header[1:]] == [*flags, *rest]


SERIES_WORK_ERROR = "descending series: needs about 1.4e+04 terms next to y = 1"
MAP_OVERFLOW = "the map t = (u/(1-u))^24 leaves the float range at u = 0.9999999999998757"


@pytest.mark.parametrize("argv, code, err, skipped", [
    # a convergent series that runs out of terms at valid input: exit 1
    # alone, a skipped row with the reason under `all`
    (("c2", "--a", "1e3", "--b", "1/3", "--n", "0", "--rep", "hyp_unbounded"),
     1, "error: series not settled after 100000 terms\n", None),
    (("c2", "--a", "1e3", "--b", "1/3", "--n", "0"),
     0, "", ("hyp_unbounded", "series not settled after 100000 terms")),
    # valid input; the float route divides by an underflowed 0
    (("c2", "--a", "1e-200", "--b", "1e-300", "--n", "2", "--rep", "legendre_sec2"),
     1, "error: float division by zero\n", None),
    # the terminating 2F1's argument overflows to -inf: outside the float range
    (("c2", "--a", "1e300", "--b", "2e-300", "--n", "0", "--rep", "hyp_closed"),
     2, "error: argument z = -inf is not finite\n", None),
    # gf_coefficient is the one compared row left, so nothing is cross-checked
    (("c2", "--a", "1e300", "--b", "2e-300", "--n", "0"),
     1, "", ("hyp_closed", "argument z = -inf is not finite")),
    # so does the double-factorial sum's base 1 + a/sqrt(b); its row once read 0
    (("c2", "--a", "1e300", "--b", "2e-300", "--n", "0", "--rep", "double_factorial"),
     2, "error: 1+a/sqrt(b) about 1e+450 is outside float range\n", None),
    (("c2", "--a", "1e300", "--b", "2e-300", "--n", "0"),
     1, "", ("double_factorial", "1+a/sqrt(b) about 1e+450 is outside float range")),
    # decay exponent 1.01 clamps the map's power at 24, so t overflows near u = 1;
    # the remaining tail mass is not negligible, so the route fails
    (("functional", "--a", "1", "--b", "1", "--p", "1/100", "--n", "0", "--rep", "quadrature"),
     1, f"error: {MAP_OVERFLOW}\n", None),
    (("functional", "--a", "1", "--b", "1", "--p", "1/100", "--n", "0"),
     0, "", ("quadrature", MAP_OVERFLOW)),
    # every other row divides by an underflowed 0; the quadrature row, whose
    # overflowed a^2 once made it a lone 0 that passed, is skipped too
    (("functional", "--a", "1.23e168", "--b", "2.78e-167", "--p", "1/6", "--n", "3"),
     1, "", ("quadrature", "a^2 about 1e+336 is outside float range")),
    # the single series next to y = 1 (x about 0.99) is refused before it
    # sums; under `all` double_sum and quadrature still run and agree
    (("functional", "--a", "1.4", "--b", "2", "--p", "1/2", "--n", "12", "--rep", "series"),
     1, f"error: {SERIES_WORK_ERROR}\n", None),
    (("functional", "--a", "1.4", "--b", "2", "--p", "1/2", "--n", "12"),
     0, "", ("series", SERIES_WORK_ERROR)),
], ids=["series_budget_alone", "series_budget_in_all", "zero_division_alone",
        "infinite_argument_alone", "infinite_argument_in_all",
        "infinite_base_alone", "infinite_base_in_all",
        "map_overflow_alone", "map_overflow_in_all", "square_past_range_in_all",
        "series_work_alone", "series_work_in_all"])
def test_row_errors_end_in_an_exit_code_and_a_message(capsys, argv, code, err, skipped):
    start = time.perf_counter()
    got, out, got_err = run_cli(capsys, *argv, "--format", "json")
    assert time.perf_counter() - start < 0.3
    assert (got, got_err) == (code, err)
    assert "Traceback" not in got_err
    if skipped is None:
        assert out == ""
    else:
        rep, note = skipped
        rows = {row["rep"]: row for row in json.loads(out)["results"]}
        assert rows[rep]["skipped"] is True and rows[rep]["note"] == note


SERIES_BUDGET_ERROR = "q_series: not converged after 2 terms"

# Each route's work budget, made small enough to run out at an ordinary
# point: (module, budget, its value, the argv without --rep, the row it
# fails, the message naming the budget).
BUDGETS = [
    (catalankit.qfunc, "_MAX_TERMS", 2, ("q", "--n", "3", "--y", "1/2"),
     "series", SERIES_BUDGET_ERROR),
    (catalankit.hyper, "_MAX_TERMS", 10, ("c2", "--a", "3/2", "--b", "2", "--n", "2"),
     "hyp_unbounded", "series not settled after 10 terms"),
    (catalankit.quad, "_MAX_EVALS", 45,
     ("c2", "--a", "1", "--b", "4", "--n", "2", "--tol", "1e-12"),
     "quadrature", "evaluation budget 45 exhausted"),
]


@pytest.mark.parametrize("module, budget, value, argv, rep, message", BUDGETS,
                         ids=["series_terms", "hyp_terms", "quad_evals"])
def test_an_exhausted_budget_is_a_route_failure(capsys, monkeypatch, module, budget,
                                                value, argv, rep, message):
    monkeypatch.setattr(module, budget, value)
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    row = next(row for row in json.loads(out)["results"] if row["rep"] == rep)
    assert row["skipped"] is True and row["note"].startswith(message)
    code, out, err = run_cli(capsys, *argv, "--rep", rep)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("module, budget, value, argv, out, err", [
    (catalankit.hyper, "_MAX_TERMS", 10, ("selftest", "--suite", "euler_integral"),
     ["euler_integral: FAIL", "  HypConvergenceError: series not settled after 10 terms",
      "0/1 suites passed"], ""),
    (catalankit.qfunc, "_MAX_TERMS", 2, ("selftest", "--suite", "functional_consistency"),
     ["functional_consistency: FAIL", f"  RuntimeError: {SERIES_BUDGET_ERROR}",
      "0/1 suites passed"], ""),
    (catalankit.qfunc, "_MAX_TERMS", 2, ("errata",), [], f"error: {SERIES_BUDGET_ERROR}\n"),
    (catalankit.qfunc, "_MAX_TERMS", 2,
     ("functional", "--a", "2", "--b", "1/2", "--p", "1/3", "--n", "3", "--rep", "series"),
     [], f"error: {SERIES_BUDGET_ERROR}\n"),
], ids=["selftest_euler_integral", "selftest_functional_consistency", "errata",
        "functional_series_alone"])
def test_selftest_and_errata_report_a_failing_route(capsys, monkeypatch, module, budget,
                                                    value, argv, out, err):
    # each of these once ended in a traceback out of main
    monkeypatch.setattr(module, budget, value)
    code, got_out, got_err = run_cli(capsys, *argv)
    assert (code, got_out.splitlines(), got_err) == (1, out, err)


def test_exit_1_on_tolerance_failure(capsys):
    # representations agree to ~1e-16 but not to 1e-30
    code, out, _ = run_cli(capsys, "q", "--n", "3", "--y", "1/2",
                           "--tol", "1e-30")
    assert code == 1
    assert "max_pairwise_rel_diff" in out


def test_functional_all_with_boundary_skip(capsys):
    code, out, _ = run_cli(
        capsys, "functional", "--a", "2", "--b", "4", "--p", "1/2", "--n", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    series = next(r for r in data["results"] if r["rep"] == "series")
    assert series["skipped"] is True
    assert "cf_via_q" in series["note"]
    via_q = next(r for r in data["results"] if r["rep"] == "via_q")
    assert Fraction(via_q["value"]) == Fraction(1, 64)


def test_q_all_reports_hyp_without_comparing(capsys):
    code, out, _ = run_cli(capsys, "q", "--n", "1", "--y", "1/2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    hyp = next(r for r in data["results"] if r["rep"] == "hyp")
    true_value = Fraction(1, 2) * Fraction(1, 2) / Fraction(9, 4)
    assert hyp["value"] == pytest.approx(float(true_value) * 8.0, rel=1e-12)
    assert data["max_pairwise_rel_diff"] <= 1e-8  # hyp row not included


def test_q_defaults_p_half(capsys):
    code, out, _ = run_cli(capsys, "q", "--n", "1", "--y", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["input"]["p"] == "1/2"
    stirling = next(r for r in data["results"] if r["rep"] == "stirling")
    assert Fraction(stirling["value"]) == Fraction(1, 8)


def test_q_all_agrees_exactly_at_n_30(capsys):
    # the recurrence row used to hang from n = 28 on
    code, out, _ = run_cli(capsys, "q", "--n", "30", "--y", "1/2", "--p", "1/3",
                           "--rep", "all", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["max_pairwise_rel_diff"] == 0
    exact = {r["rep"]: Fraction(r["value"]) for r in data["results"]
             if r["rep"] in ("stirling", "polylog", "recurrence")}
    assert len(exact) == 3 and len(set(exact.values())) == 1


def test_errata_confirms_findings(capsys):
    code, out, _ = run_cli(capsys, "errata")
    assert code == 0
    assert "NOT confirmed" not in out
    assert out.count("confirmed:") >= 20
    assert "table_pi" in out and "q_hyp_n2_ratio_spread" in out


def test_errata_fails_at_absurd_tolerance(capsys):
    code, out, _ = run_cli(capsys, "errata", "--tol", "1e-18")
    assert code == 1
    assert "NOT confirmed" in out


def test_selftest_all_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "10/10 suites passed" in out


def test_selftest_integrates_at_the_rule_for_the_default_tol():
    default_tol = catalankit.cli._build_parser().parse_args(["errata"]).tol
    assert catalankit.checks._SELFTEST_QUAD_TOL == catalankit.cli._quad_tol(default_tol)


def test_selftest_subset(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--suite", "stirling",
                           "--suite", "polylog")
    assert code == 0
    assert out.splitlines() == ["stirling: PASS", "polylog: PASS",
                                "2/2 suites passed"]


def test_selftest_detects_mutation(capsys, monkeypatch):
    # the suite must consult the library function, not a private copy:
    # breaking double_factorial has to break the suite
    monkeypatch.setattr(catalankit.exact, "double_factorial", lambda n: 42)
    code, out, _ = run_cli(capsys, "selftest", "--suite", "double_factorial")
    assert code == 1
    assert "double_factorial: FAIL" in out


def test_selftest_mutation_detected_even_near_truth(capsys, monkeypatch):
    # off-by-one stride: right at small n, wrong later
    real = catalankit.exact.double_factorial

    def skewed(n):
        return real(n) + (n > 10)

    monkeypatch.setattr(catalankit.exact, "double_factorial", skewed)
    code, out, _ = run_cli(capsys, "selftest", "--suite", "double_factorial")
    assert code == 1


def test_selftest_shows_twenty_failures_then_a_count(capsys, monkeypatch):
    # S(n, k) = 0 misses every nonzero surjection count (37 for n, k < 9)
    # and every diagonal orthogonality sum (9): 46 failures in all
    monkeypatch.setattr(catalankit.exact, "stirling_second", lambda n, k: 0)
    code, out, _ = run_cli(capsys, "selftest", "--suite", "stirling")
    assert code == 1
    shown = [(n, k) for n in range(9) for k in range(n + 1) if k or not n][:20]
    assert out.splitlines() == [
        "stirling: FAIL",
        *(f"  S({n},{k}) fails the surjection count" for n, k in shown),
        "  ... 26 more",
        "0/1 suites passed",
    ]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
