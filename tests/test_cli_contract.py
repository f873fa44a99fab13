"""The command line's contract over a seeded sweep of inputs.

Every call returns 0, 1 or 2, raises nothing, finishes within 1 s and
prints no Infinity or NaN. Numbers carry decimal exponents across +-300,
so most float routes meet the edges of the float range.
"""

import io
import json
import random
import signal
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from catalankit.cli import _QUANTITIES, main

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")

DEADLINE_S = 1.0


class _Deadline(BaseException):
    """Raised by the alarm; a BaseException, so no route's handler catches it."""


def run(argv, seconds=DEADLINE_S):
    """(exit code, stdout) of one in-process call, cut at `seconds`."""

    def on_alarm(signum, frame):
        raise _Deadline(f"{' '.join(argv)} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue()


def assert_contract(argv):
    code, out = run(argv)
    assert code in (0, 1, 2), argv
    assert "Infinity" not in out and "NaN" not in out, argv


def _number(rng):
    if rng.random() < 0.1:
        return rng.choice(["0", "1", "1/3", "-2"])
    return f"{rng.choice(['1', '1.5', '2', '3.7', '7', '9.99'])}e{rng.randint(-300, 300)}"


def _order(rng):
    if rng.random() < 0.1:
        return rng.choice(["0", "1", "0.999", f"3e-{rng.randint(1, 300)}"])
    return rng.choice(["1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6", "0.37"])


def sweep(seed, count):
    """`count` seeded argv over c2, functional and q: n <= 6, every
    format, `--rep all` half the time and a single representation else."""
    rng = random.Random(seed)
    for _ in range(count):
        command = rng.choice(list(_QUANTITIES))
        n = str(rng.randint(0, 6))
        if command == "c2":
            args = ["--a", _number(rng), "--b", _number(rng), "--n", n]
            if rng.random() < 0.2:
                args += ["--normalization", "paper"]
        elif command == "functional":
            args = ["--a", _number(rng), "--b", _number(rng), "--p", _order(rng), "--n", n]
        else:
            args = ["--n", n, "--y", _number(rng), "--p", _order(rng)]
        rep = "all" if rng.random() < 0.5 else rng.choice(list(_QUANTITIES[command][2]))
        yield (command, *args, "--rep", rep, "--format", rng.choice(["text", "json", "csv"]))


def _integrand_overflow(exc) -> bool:
    """An OverflowError raised inside a quadrature integrand (ROADMAP item 5)."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return frame.name == "f" and Path(frame.filename).name in ("catalan2.py", "functional.py")


# ROADMAP item 5: `(b + t) ** power` in the quadrature integrands overflows.
# Its integrand scaling takes this count to 0.
INTEGRAND_OVERFLOWS = 9

# Sweep inputs that still run past the deadline, with the open item that owns
# each. The sweep checks, at a quarter of the deadline, that they still do, as
# xfail(strict=True) would: a fix must take its input off this list.
PAST_DEADLINE: dict[tuple[str, ...], str] = {}


def test_seeded_sweep_keeps_the_contract():
    overflows = []
    for argv in sweep("cli-contract", 150):
        if argv in PAST_DEADLINE:
            with pytest.raises(_Deadline):
                run(argv, DEADLINE_S / 4)
            continue
        start = time.perf_counter()
        try:
            assert_contract(argv)
        except OverflowError as exc:
            if not _integrand_overflow(exc):
                raise
            overflows.append(argv)
        assert time.perf_counter() - start < DEADLINE_S, argv
    assert len(overflows) == INTEGRAND_OVERFLOWS, overflows


@pytest.mark.parametrize("argv", [
    # the single series next to y = 1 stops at its work budget
    ("functional", "--a", "1.4", "--b", "2", "--p", "1/2", "--n", "12", "--rep", "series"),
    ("functional", "--a", "1.4", "--b", "2", "--p", "1/2", "--n", "12"),
    # one compared row left: nothing is cross-checked
    ("c2", "--a", "1e300", "--b", "2e-300", "--n", "0"),
    # overflowed and NaN rows are skipped
    ("c2", "--a", "1e-10", "--b", "15e-21", "--n", "16"),
    pytest.param(("c2", "--a", "1", "--b", "4", "--n", "60"), marks=pytest.mark.xfail(
        raises=OverflowError, strict=True,
        reason="ROADMAP item 5: the quadrature integrand overflows")),
    # 1 - 3/p = 1 - 10**65 cuts the terminating series past its term budget
    ("q", "--n", "6", "--y", "1.5e-207", "--p", "3e-65", "--rep", "hyp"),
    ("q", "--n", "6", "--y", "1.5e-207", "--p", "3e-65", "--rep", "all"),
])
def test_named_inputs_keep_the_contract(argv):
    assert_contract(argv)


def test_a_terminating_series_past_its_budget_fails_its_row_only():
    q = ("q", "--n", "6", "--y", "1.5e-207", "--p", "3e-65")
    assert run((*q, "--rep", "hyp")) == (1, "")
    code, out = run((*q, "--rep", "all", "--format", "json"))
    rows = {row["rep"]: row for row in json.loads(out)["results"]}
    assert code == 0 and rows["hyp"]["skipped"] is True
    assert rows["hyp"]["note"] == "terminating series needs more than 100000 terms"
