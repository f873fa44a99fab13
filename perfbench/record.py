"""Record the goldens the benchmark checks against.

    python3 perfbench/record.py --workload c2_mixed   # one pool
    python3 perfbench/record.py --commands            # the command list

Run this only at a commit whose outputs are the reference. Each pool
point runs in-process with its alarm at twice the workload's deadline,
three times when it finishes under half the deadline. Runs must agree on
outcome and stdout; the outcome, a stdout digest and the median wall
time go to `goldens/<workload>.txt`, in pool order. The command list in
`commands.txt` is recorded to `goldens/commands.txt` the same way.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import harness
import points

COMMANDS = points.GOLDEN_DIR.parent / "commands.txt"
COMMAND_GOLDENS = points.GOLDEN_DIR / "commands.txt"
COMMAND_DEADLINE_S = 60.0
# Points that finish under half the deadline run this often; their cost
# is the median, which sets their cost stratum.
REPEATS = 3


def read_commands() -> list[list[str]]:
    return [line.split() for line in COMMANDS.read_text().splitlines()
            if line.strip() and not line.startswith("#")]


def record_pool(main, workload: str) -> None:
    spec = points.WORKLOADS[workload]
    pool = points.generate_pool(workload)
    goldens = []
    for i, argv in enumerate(pool):
        runs = [harness.run_in_process(main, argv, 2 * spec.deadline_s)]
        if runs[0].wall_s < spec.deadline_s / 2:
            runs += [harness.run_in_process(main, argv, 2 * spec.deadline_s)
                     for _ in range(REPEATS - 1)]
        if len({(o.status, o.stdout) for o in runs}) != 1:
            raise RuntimeError(f"{' '.join(argv)}: outcome differs between runs")
        cost = statistics.median(o.wall_s for o in runs)
        goldens.append(points.Golden(runs[0].status, points.stdout_sha(runs[0].stdout), cost))
        if i % 100 == 99:
            print(f"{workload}: {i + 1}/{len(pool)}", file=sys.stderr, flush=True)
    header = (f"{workload}: status, stdout sha256[:16], median wall ms; alarm at "
              f"{2 * spec.deadline_s:g} s; recorded {time.strftime('%Y-%m-%d')}")
    points.write_goldens(points.golden_path(workload), points.pool_digest(pool), goldens, header)


def record_commands(main) -> None:
    lines = ["# status, stdout sha256[:16], argv of perfbench/commands.txt"]
    for argv in read_commands():
        o = harness.run_in_process(main, argv, COMMAND_DEADLINE_S)
        lines.append(f"{o.status}\t{points.stdout_sha(o.stdout)}\t{' '.join(argv)}")
    COMMAND_GOLDENS.write_text("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=tuple(points.WORKLOADS))
    parser.add_argument("--commands", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(harness.SRC))
    from catalankit.cli import main as cli_main

    points.GOLDEN_DIR.mkdir(exist_ok=True)
    for workload in args.workload or ():
        record_pool(cli_main, workload)
    if args.commands:
        record_commands(cli_main)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
