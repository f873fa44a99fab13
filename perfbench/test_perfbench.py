"""Self-tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

from __future__ import annotations

import json
import re
import sys
import time

import pytest

import harness
import points
import run
import tracing

sys.path.insert(0, str(harness.SRC))
import catalankit.cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCH = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def pools():
    return {name: points.load_pool(name) for name in points.WORKLOADS}


def _draw(pools, workload, seed, quantiles=200):
    return points.draw(pools[workload], points.WORKLOADS[workload].deadline_s, seed, quantiles)


@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_seed_fixes_the_points(pools, workload):
    first = [p.index for p in _draw(pools, workload, 3)]
    assert first == [p.index for p in _draw(pools, workload, 3)]
    assert first[:50] != [p.index for p in _draw(pools, workload, 4)][:50]


@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_draw_is_distinct_and_never_draws_band_points(pools, workload):
    spec = points.WORKLOADS[workload]
    seq = _draw(pools, workload, 11)
    timed = run.warm_up(lambda argv: None, spec, seq)
    warm = seq[len(timed):]
    assert len(warm) == spec.warmup_points
    assert len({p.index for p in seq}) == len(seq)
    assert not {p.index for p in warm} & {p.index for p in timed}
    assert all(points.classify(p, spec.deadline_s) != "band" for p in seq)


@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
@pytest.mark.parametrize("count", [30, 200])
def test_every_prefix_keeps_the_cost_profile(pools, workload, count):
    deadline = points.WORKLOADS[workload].deadline_s
    quantiles = points.cost_quantiles(pools[workload], deadline, count)
    which = {p.index: i for i, q in enumerate(quantiles) for p in q}
    counts = [0] * len(quantiles)
    for n, p in enumerate(_draw(pools, workload, 5, count)[:1000], 1):
        counts[which[p.index]] += 1
        assert max(counts) - min(counts) <= 1 or n > len(quantiles) * min(map(len, quantiles))


@pytest.mark.parametrize("workload", sorted(points.WORKLOADS))
def test_timed_points_completed_and_known_failures_failed(pools, workload):
    spec = points.WORKLOADS[workload]
    assert all(p.golden.status == "exit:0" for p in _draw(pools, workload, 7))
    known = points.known_failures(pools[workload], spec.deadline_s, 7, spec.known_failures)
    assert len(known) == spec.known_failures
    assert all(points.classify(p, spec.deadline_s) == "failure" for p in known)
    assert all(p.golden.status != "exit:0" or p.golden.cost_s >= 2 * spec.deadline_s
               for p in known)
    assert known == points.known_failures(pools[workload], spec.deadline_s, 7,
                                          spec.known_failures)


def test_goldens_match_the_generators(pools):
    for name, pool in pools.items():
        assert len(pool) == points.WORKLOADS[name].pool_size
        assert any(points.classify(p, points.WORKLOADS[name].deadline_s) == "run" for p in pool)


def test_p90_is_refused_below_100_samples():
    with pytest.raises(ValueError):
        run.percentile(list(range(99)), 90)
    assert run.percentile(list(range(1, 101)), 90) == pytest.approx(90.5, abs=0.15)
    assert run.percentile(list(range(1, 21)), 50) == pytest.approx(10.5)
    assert run.percentile([7.0] * 150, 90) == pytest.approx(7.0)


def test_median_across_a_cost_gap_moves_with_the_share_on_each_side():
    low = run.percentile([30.0] * 101 + [40.0] * 99, 50)
    high = run.percentile([30.0] * 99 + [40.0] * 101, 50)
    assert 30 < low < 35 < high < 40
    assert high - low < 4


def test_deadline_overrun_is_one_failure_and_the_next_point_runs():
    slow = ["q", "--n", "40", "--y", "1/2", "--rep", "recurrence"]
    over = harness.run_in_process(catalankit.cli.main, slow, 0.2)
    assert over.status == "timeout" and over.failed
    assert over.wall_s < 2.0
    ok = harness.run_in_process(catalankit.cli.main, ["q", "--n", "3", "--y", "1/2"], 5.0)
    assert ok.status == "exit:0" and b"recurrence" in ok.stdout


def test_fresh_process_matches_in_process():
    argv = ["c2", "--a", "1", "--b", "4", "--n", "5", "--format", "json"]
    inproc = harness.run_in_process(catalankit.cli.main, argv, 5.0)
    fresh = harness.run_fresh(argv, 5.0)
    assert (fresh.status, fresh.stdout) == (inproc.status, inproc.stdout)
    crash = harness.run_fresh(["c2", "--a", "1", "--b", "4", "--n", "60"], 5.0)
    assert crash.status == "raise:OverflowError"


def test_tracing_wraps_every_binding_and_leaves_none():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hasattr(catalankit.cli.cf_series_detailed, "__perfbench_wrapped__")
        assert hasattr(tracer.modules["functional"].q_series_with_terms,
                       "__perfbench_wrapped__")
        start = time.perf_counter()
        catalankit.cli.main(["functional", "--a", "2", "--b", "1/2", "--p", "1/3", "--n", "3"])
        catalankit.cli.main(["q", "--n", "4", "--y", "1/3"])
        wall = time.perf_counter() - start
    finally:
        tracer.remove()
    tracer.assert_clean()
    assert not hasattr(catalankit.cli.cf_series_detailed, "__perfbench_wrapped__")
    assert tracer.stats["cli.main"].calls == 2
    accounted = sum(s.self_s for s in tracer.stats.values())
    assert 0.9 * wall <= accounted <= wall
    m = tracing.layer_metrics(tracer, wall, wall, 0.0)
    assert m["qfunc.tail_checks_per_term"][0] == pytest.approx(1.0, abs=0.05)
    assert m["exact.RationalFunction.calls"][0] > 0
    assert len(tracer.spans) == 5 * tracer.spans_total


def test_metric_names_and_benchmark_file():
    tracer = tracing.Tracer()
    names = set(tracing.layer_metrics(tracer, 1.0, 1.0, 0.0)) | set(run.line_counts())
    names |= {"setup_s", "points_per_s", "point_ms_p50", "point_ms_p90", "fresh_ms_p50",
              "peak_rss_mb", "fail_frac", "golden_mismatch_frac", "known_fail_frac",
              "known_failures.still_failing"}
    assert all(NAME.fullmatch(n) for n in names)
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(points.WORKLOADS)
    listed = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(listed) == len(set(listed))
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["name"] in names
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_fresh_sample_takes_one_completing_point_per_quantile(pools):
    spec = points.WORKLOADS["q_exact"]
    sample = points.fresh_sample(pools["q_exact"], spec.deadline_s, 2, 31)
    assert len({p.index for p in sample}) == 31
    assert all(points.classify(p, spec.deadline_s) == "run" for p in sample)
    assert sample != points.fresh_sample(pools["q_exact"], spec.deadline_s, 3, 31)


def test_reference_speed_scales_times_but_not_deadline_overruns():
    done = harness.Outcome("exit:0", b"", 0.010)
    late = harness.Outcome("timeout", b"", 1.0)
    slow = harness.speed_scale(2 * harness.PROBE_REF_S, 2 * harness.PROBE_REF_S)
    assert harness.Timed(None, done, slow).ms == pytest.approx(5.0)
    assert harness.Timed(None, late, slow).ms == pytest.approx(1000.0)


def test_a_deadline_inside_traced_code_leaves_the_tracer_usable():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_point(0)
        slow = ["q", "--n", "40", "--y", "1/2", "--rep", "recurrence"]
        assert harness.run_in_process(catalankit.cli.main, slow, 0.2).status == "timeout"
        tracer.begin_point(1)
        ok = harness.run_in_process(catalankit.cli.main, ["q", "--n", "3", "--y", "1/2"], 5.0)
    finally:
        tracer.remove()
    assert ok.status == "exit:0"
    assert len(tracer.spans) % 5 == 0
    last = tracer.spans[-5:]
    assert last[2] == 1 and last[4] >= last[3]
