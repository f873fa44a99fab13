"""catalankit cross-check benchmark.

    python3 perfbench/run.py --workload c2_mixed --seed 1 --seconds 20 --trace 0

One closed-loop client in one process drives `--rep all` cross-checks
through `catalankit.cli.main`, one point at a time, each under a SIGALRM
deadline. The timed points are those that completed at the recording
commit; after the measured passes, each run replays a fixed seeded set
of the known failures untimed and reports how many still fail.
`--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
points again with every layer wrapped and reports the per-layer
metrics. Every run checks outputs against the goldens (the run's
points, its fresh-process subsample, its known failures and the fixed
command list). Human-readable lines come first; the last line of
stdout is one JSON object with the metrics that BENCHMARK.json lists
for the mode.
Exit status 0 on a finished run (the JSON's `correct` says whether the
outputs matched), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import harness
import points
import record
import tracing

# setup_s: a fresh interpreter through `catalankit.cli` import, parser
# build and one trivial command.
SETUP_ARGV = ("catalan", "--n", "0")
SETUP_SPAWNS = 9
FRESH_POINTS = 31
MIN_POINTS = 100  # p90 needs at least ten samples beyond it
# A run at recorded speed covers about this many whole rounds of the
# draw, so its last, partial round is a small share of its points.
ROUNDS = 8
HARD_CAP_S = 100.0  # a timed pass stops here even below MIN_POINTS
DUMP_DIR = harness.ROOT / ".perfbench"


def percentile(values, pct: float) -> float:
    """Harrell-Davis estimate of the `pct`-th percentile; refused unless at
    least ten samples lie beyond it.

    The estimate is a mean of the order statistics weighted by the
    Beta(p(n+1), (1-p)(n+1)) density. A single order statistic jumps when
    the samples near the percentile fall on either side of a gap in the
    cost distribution, as q_exact's median does (its n = 8 and n = 9
    points); this estimate moves with the share on each side.
    """
    n = len(values)
    if n * (100 - pct) / 100 < 10:
        raise ValueError(f"p{pct:g} needs {math.ceil(1000 / (100 - pct))} samples, got {n}")
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Order statistic i gets the Beta mass over [i/n, (i+1)/n], taken at
    # four midpoints.
    weights = [
        sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in ((i + (j + 0.5) / 4) / n for j in range(4)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, sorted(values))) / sum(weights)


def line_counts() -> dict[str, int]:
    """`<module>.loc` for the nine package modules and `scripts.loc`."""
    src = harness.SRC / "catalankit"
    counts = {f"{m}.loc": len((src / f"{m}.py").read_text().splitlines())
              for m in tracing.LAYERS}
    counts["scripts.loc"] = sum(len(p.read_text().splitlines())
                                for p in sorted((harness.ROOT / "scripts").glob("*.py")))
    return counts


def run_points(main, seq, deadline_s: float, seconds: float, cap_s: float = HARD_CAP_S,
               tracer=None, side=None):
    """Closed loop over `seq` until `seconds` have passed and at least
    MIN_POINTS ran (or `seq` is used up, or `cap_s` passed).

    A probe runs between consecutive points, so each point carries the
    machine speed around it. `side` maps a name to (point, job) pairs,
    jobs that start a fresh process; each list runs between in-process
    points, spread evenly over the pass, so that it samples the same
    stretch of machine time. The pass clock stops during probes and side
    jobs. Returns (in-process results, side results by name, pass
    seconds), results as `harness.Timed`.
    """
    side = side or {}
    results, side_results = [], {name: [] for name in side}
    start = time.perf_counter()
    before = harness.probe()
    paused = time.perf_counter() - start
    elapsed = 0.0
    for point in seq:
        for name, jobs in side.items():
            done = side_results[name]
            if len(done) < len(jobs) and elapsed >= len(done) * seconds / len(jobs):
                t = time.perf_counter()
                extra, job = jobs[len(done)]
                outcome = job()
                after = harness.probe()
                done.append(harness.Timed(extra, outcome, harness.speed_scale(before, after)))
                before = after
                paused += time.perf_counter() - t
        if tracer is not None:
            tracer.begin_point(point.index)
        outcome = harness.run_in_process(main, point.argv, deadline_s)
        t = time.perf_counter()
        after = harness.probe()
        paused += time.perf_counter() - t
        results.append(harness.Timed(point, outcome, harness.speed_scale(before, after)))
        before = after
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds and len(results) >= MIN_POINTS or elapsed >= cap_s:
            break
    return results, side_results, elapsed


def golden_mismatches(results) -> int:
    """Points that ended with an exit status now and at the recording
    commit, whose (status, stdout digest) differ from the golden."""
    bad = 0
    for r in results:
        g, o = r.point.golden, r.outcome
        if o.exited and g.status.startswith("exit:"):
            bad += (o.status, points.stdout_sha(o.stdout)) != (g.status, g.stdout_sha)
    return bad


def check_commands(main) -> list[str]:
    """The fixed golden command list; returns the commands that differ."""
    expected = {}
    for line in record.COMMAND_GOLDENS.read_text().splitlines():
        if line and not line.startswith("#"):
            status, sha, argv = line.split("\t")
            expected[argv] = (status, sha)
    bad = []
    commands = record.read_commands()
    if len(commands) != len(expected):
        bad.append("command list and its goldens differ in length")
    for argv in commands:
        o = harness.run_in_process(main, argv, record.COMMAND_DEADLINE_S)
        if expected.get(" ".join(argv)) != (o.status, points.stdout_sha(o.stdout)):
            bad.append(" ".join(argv))
    return bad


def warm_up(main, spec, seq) -> list:
    """Runs the last `warmup_points` of `seq`, so that caches fill and lazy
    set-up finishes; returns the rest, the timed points, which keep the
    draw's whole rounds intact."""
    for point in seq[-spec.warmup_points:]:
        harness.run_in_process(main, point.argv, spec.deadline_s)
    return seq[: -spec.warmup_points]


def end_to_end(main, spec, seq, fresh_points, seconds: float) -> tuple[dict, list, list]:
    seq = warm_up(main, spec, seq)
    side = {
        "setup": [(None, functools.partial(harness.run_fresh, SETUP_ARGV, 60.0))] * SETUP_SPAWNS,
        "fresh": [(p, functools.partial(harness.run_fresh, p.argv, spec.deadline_s))
                  for p in fresh_points],
    }
    results, side, elapsed = run_points(main, seq, spec.deadline_s, seconds, side=side)
    setup, fresh = side["setup"], side["fresh"]
    if any(r.outcome.failed for r in setup):
        raise RuntimeError(f"catalankit {' '.join(SETUP_ARGV)} failed in a fresh process")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n, nf = len(results), len(fresh)
    completed = sum(not r.outcome.failed for r in results)
    busy_s = sum(r.ms for r in results) / 1e3
    metrics = {
        # At reference speed, like every timing: unscaled, it follows the
        # machine's contention level and moves by a third between runs.
        "setup_s": (statistics.median(r.ms for r in setup) / 1e3, "s", SETUP_SPAWNS),
        "points_per_s": (completed / busy_s, "points/s", n),  # per second of point time
        "point_ms_p50": (percentile([r.ms for r in results], 50), "ms", n),
        "point_ms_p90": (percentile([r.ms for r in results], 90), "ms", n),
        "fresh_ms_p50": (percentile([r.ms for r in fresh], 50), "ms", nf),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "raw.setup_s": (statistics.median(r.outcome.wall_s for r in setup), "s", SETUP_SPAWNS),
        "raw.points_per_s": (completed / elapsed, "points/s", n),
        "raw.point_ms_p50": (percentile([r.outcome.wall_s * 1e3 for r in results], 50), "ms", n),
        "raw.point_ms_p90": (percentile([r.outcome.wall_s * 1e3 for r in results], 90), "ms", n),
        "raw.fresh_ms_p50": (percentile([r.outcome.wall_s * 1e3 for r in fresh], 50), "ms", nf),
        "machine.speed": (statistics.median(r.scale for r in results), "1", n),
    }
    return metrics, results, fresh


def per_layer(main, spec, seq, seconds: float, dump: Path) -> tuple[dict, list, list]:
    seq = warm_up(main, spec, seq)
    # Half the time untraced, half traced: the traced replay runs the same
    # points, so a traced run takes about as long as an untraced one.
    plain, _, plain_wall = run_points(main, seq, spec.deadline_s, seconds / 2)
    replay = [r.point for r in plain]
    tracer = tracing.Tracer()
    polylog = tracer.modules["exact"].polylog_neg
    before = polylog.cache_info()
    tracer.install()
    try:
        traced, _, traced_wall = run_points(main, replay, spec.deadline_s, math.inf, math.inf,
                                            tracer)
    finally:
        tracer.remove()
    tracer.assert_clean()
    after = polylog.cache_info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    n = len(traced)
    metrics = {name: (value, unit, n) for name, (value, unit) in tracing.layer_metrics(
        tracer, traced_wall, plain_wall, hits / (hits + misses) if hits + misses else 0.0
    ).items()}
    tracer.dump(dump, {"workload": spec.name, "points": n})
    return metrics, plain, traced


def main() -> int:
    parser = argparse.ArgumentParser(description="catalankit cross-check benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(points.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One core for the whole run, fresh processes included, so that the
    # probes between points measure the core the points ran on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned

    if not (harness.SRC / "catalankit" / "cli.py").is_file():
        print(f"perfbench: no catalankit sources under {harness.SRC}", file=sys.stderr)
        return 2
    spec_file = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec_file["per_layer" if args.trace else "end_to_end"]]
    sys.path.insert(0, str(harness.SRC))
    import catalankit.cli

    def cli_main(argv):  # looked up per call, so a traced pass sees its wrapper
        return catalankit.cli.main(argv)

    spec = points.WORKLOADS[args.workload]
    pool = points.load_pool(args.workload)
    expected = max(MIN_POINTS, round(args.seconds / points.mean_cost(pool, spec.deadline_s)))
    seq = points.draw(pool, spec.deadline_s, args.seed, max(1, expected // ROUNDS))
    dump = DUMP_DIR / f"spans-{args.workload}-s{args.seed}.jsonl.gz"
    if args.trace:
        metrics, timed, others = per_layer(cli_main, spec, seq, args.seconds, dump)
    else:
        fresh = points.fresh_sample(pool, spec.deadline_s, args.seed, FRESH_POINTS)
        metrics, timed, others = end_to_end(cli_main, spec, seq, fresh, args.seconds)
    # Untimed, after the measured passes: the points that failed at the
    # recording commit, so a known defect stays visible in every run.
    known = [harness.Timed(p, harness.run_in_process(cli_main, p.argv, spec.deadline_s), 1.0)
             for p in points.known_failures(pool, spec.deadline_s, args.seed,
                                            spec.known_failures)]
    still_failing = sum(r.outcome.failed for r in known)
    checked = timed + others + known
    metrics.update({k: (v, "lines", 1) for k, v in line_counts().items()})
    metrics["known_failures.still_failing"] = (still_failing, "count", len(known))
    metrics["known_fail_frac"] = (still_failing / max(len(known), 1), "1", len(known))
    attempted, failed = len(timed), sum(r.outcome.failed for r in timed)
    mismatched = golden_mismatches(checked)
    compared = sum(r.outcome.exited and r.point.golden.status.startswith("exit:")
                   for r in checked)
    bad_commands = check_commands(cli_main)

    metrics["fail_frac"] = (failed / attempted, "1", attempted)
    metrics["golden_mismatch_frac"] = (mismatched / max(compared, 1), "1", compared)
    if args.trace:
        print(f"# spans written to {dump.relative_to(harness.ROOT)}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} deadline={spec.deadline_s:g}s")
    for name, (value, unit, count) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit} n={count}")
    for cmd in bad_commands:
        print(f"# golden command mismatch: {cmd}")

    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": mismatched == 0 and not bad_commands,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
