"""Running one point: in-process under a SIGALRM deadline, or as a fresh
`python -m catalankit` process; plus the speed probe that scales
timings to a reference machine speed."""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class PointDeadline(BaseException):
    """Raised by the alarm handler. A BaseException, so no `except
    Exception` inside the package can swallow it."""


@dataclass(frozen=True)
class Outcome:
    """`status` is `exit:<code>`, `raise:<Type>` or `timeout`."""

    status: str
    stdout: bytes
    wall_s: float

    @property
    def exited(self) -> bool:
        return self.status.startswith("exit:")

    @property
    def failed(self) -> bool:
        return self.status != "exit:0"


def _on_alarm(signum, frame):
    raise PointDeadline()


def _exit_status(code) -> str:
    if code is None:
        return "exit:0"
    return f"exit:{code}" if isinstance(code, int) else "exit:1"


def run_in_process(main, argv, deadline_s: float) -> Outcome:
    """One call of `main(argv)` with stdout captured and a deadline."""
    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                status = _exit_status(main(list(argv)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except PointDeadline:
        status = "timeout"
    except SystemExit as exc:
        status = _exit_status(exc.code)
    except Exception as exc:  # the point's failure is the measurement
        status = f"raise:{type(exc).__name__}"
    wall = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    return Outcome(status, out.getvalue().encode(), wall)


def _fresh_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")


def run_fresh(argv, deadline_s: float) -> Outcome:
    """One `python -m catalankit <argv>` in a fresh interpreter.

    The deadline covers the point; interpreter start-up gets one more
    second on top. A traceback on stderr reads as `raise:<Type>`.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "catalankit", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=_fresh_env(),
    )
    try:
        out, err = proc.communicate(timeout=deadline_s + 1.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome("timeout", b"", time.perf_counter() - start)
    wall = time.perf_counter() - start
    text = err.decode(errors="replace")
    if proc.returncode != 0 and "Traceback (most recent call last)" in text:
        return Outcome(f"raise:{text.strip().splitlines()[-1].split(':')[0]}", out, wall)
    return Outcome(f"exit:{proc.returncode}", out, wall)


# probe() on an idle core of the machine the goldens were recorded on: an
# Intel Xeon (family 6, model 207) KVM guest with 2 vCPUs. On that machine
# another tenant on the sibling hardware thread slows pure-Python work by
# up to 1.6x for seconds at a time.
PROBE_REF_S = 0.8e-3


def probe() -> float:
    """Seconds for a fixed pure-Python kernel (Fraction powers, big-int
    division, dict updates), about a millisecond."""
    start = time.perf_counter()
    acc = Fraction(0)
    x = Fraction(3, 7)
    for k in range(1, 90):
        acc += x**k / k
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timed:
    """An outcome with the machine speed around it: `scale` is
    PROBE_REF_S over the mean probe time just before and just after."""

    point: object
    outcome: Outcome
    scale: float

    @property
    def ms(self) -> float:
        """Wall milliseconds at reference speed. A deadline overrun keeps
        its wall time: the deadline is a wall-clock limit."""
        wall = self.outcome.wall_s * 1e3
        return wall if self.outcome.status == "timeout" else wall * self.scale


def speed_scale(before: float, after: float) -> float:
    return PROBE_REF_S / ((before + after) / 2)
