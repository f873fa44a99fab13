"""Workload points: seeded generators, the recorded pools and seeded draws.

Each workload is a stream of `catalankit ... --rep all` cross-checks. The
points come from a pool that a generator draws once from a fixed pool
seed. At the commit that defined the benchmark, every pool point was run
once and its outcome, stdout digest and cost were written to
`goldens/<workload>.txt`. A run's `--seed` then picks its points from the
pool, so every point a run can draw has a golden to check against.

A pool point either completed at the recording commit (exit status 0,
under half the deadline) or is a known failure: it raised, exited
non-zero or passed twice the deadline. The timed pass draws only
completed points, so no timed operation fails at that commit and the
failure count of a run does not hang on how many points fit in its
time. The known failures are not dropped: every run also replays a
fixed, seeded set of them, untimed, and reports how many still fail.

Draws are stratified by recorded cost. The completed points are split
into about as many cost quantiles as a run takes points, and every
prefix of a draw holds each quantile about equally. Which points appear
changes with the seed, but the mix of cheap and slow points does not.
That keeps run-to-run spread down to the code being measured.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

# Fixed seed of the pool generators; the goldens were recorded for it.
POOL_SEED = 20211209


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    # Per-point deadline in seconds. Pool points that took between half
    # and twice the deadline at the recording commit are never drawn, so
    # a drawn point's outcome does not flip with machine noise.
    deadline_s: float
    warmup_points: int
    # Known-failure points every run replays, untimed.
    known_failures: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("c2_mixed", pool_size=8000, deadline_s=1.0, warmup_points=60,
                 known_failures=40),
        Workload("functional_sweep", pool_size=2400, deadline_s=1.0, warmup_points=12,
                 known_failures=2),
        Workload("q_exact", pool_size=900, deadline_s=3.0, warmup_points=12,
                 known_failures=1),
    )
}


def _q(x) -> str:
    return str(Fraction(x))


# ------------------------------------------------------------- c2_mixed

_C2_SQUARE_ROOTS = tuple(Fraction(x) for x in ("1/2", "2/3", "1", "3/2", "2", "5/2", "3"))
_C2_NONSQUARE_B = tuple(Fraction(x) for x in ("1/2", "3/2", "5/3", "2", "3", "5", "6", "7", "10"))


def c2_point(rng: random.Random) -> list[str]:
    """b half perfect rational squares (exact paths), half not (float
    paths); a in quarter steps on either side of sqrt(b)."""
    if rng.random() < 0.5:
        root = rng.choice(_C2_SQUARE_ROOTS)
        b, root_f = root * root, float(root)
    else:
        b = rng.choice(_C2_NONSQUARE_B)
        root_f = math.sqrt(b)
    if rng.random() < 0.5:
        choices = [Fraction(k, 4) for k in range(0, 4 * math.ceil(root_f) + 1) if k / 4 < root_f]
    else:
        choices = [Fraction(k, 4) for k in range(1, 4 * math.ceil(root_f + 3) + 1)
                   if root_f < k / 4 <= root_f + 3]
    a = rng.choice(choices)
    n = rng.randint(0, 40)
    tol = rng.choice(("1e-8", "1e-12"))
    fmt = rng.choice(("json", "text", "csv"))
    return ["c2", "--a", _q(a), "--b", _q(b), "--n", str(n), "--rep", "all",
            "--tol", tol, "--format", fmt]


# ----------------------------------------------------- functional_sweep

_F_P = tuple(Fraction(x) for x in ("1/4", "1/3", "1/2", "2/3", "3/4"))
# b = t**q gives b**(m/q) = t**m exactly; the irrational bases are no
# perfect square, cube or fourth power.
_F_EXACT_T = tuple(Fraction(x) for x in ("1/2", "2/3", "3/2", "2", "3"))
_F_IRRATIONAL_B = tuple(Fraction(x) for x in ("1/2", "2/5", "10/3", "2", "3", "5", "7"))
# A twentieth of the points sit near y = 1. Most of them pass the
# deadline at the seed and are known failures, replayed untimed.
_F_NEAR_SHARE = 0.05


def functional_point(rng: random.Random) -> list[str]:
    """y = b^p/a on both branches, a twentieth of points in 0.9 <= y <= 1.1;
    half the points have irrational b^p (y is then a 53-bit dyadic)."""
    p = rng.choice(_F_P)
    n = rng.randint(0, 12)
    if rng.random() < 0.5:
        t = rng.choice(_F_EXACT_T)
        b = t**p.denominator
        power = float(t**p.numerator)
    else:
        b = rng.choice(_F_IRRATIONAL_B)
        power = float(b) ** float(p)
    u = rng.random()
    if u < _F_NEAR_SHARE:
        y = rng.uniform(0.9, 1.1)
    elif u < (1 + _F_NEAR_SHARE) / 2:
        y = rng.uniform(0.05, 0.9)
    else:
        y = 1 / rng.uniform(0.05, 0.9)
    a = max(Fraction(power / y).limit_denominator(64), Fraction(1, 64))
    return ["functional", "--a", _q(a), "--b", _q(b), "--p", _q(p), "--n", str(n),
            "--rep", "all", "--format", rng.choice(("json", "text", "csv"))]


# -------------------------------------------------------------- q_exact

_Q_P = tuple(Fraction(x) for x in ("1/3", "2/5", "1/2", "2/3"))
_Q_HIGH_N_SHARE = 0.02


def q_point(rng: random.Random) -> list[str]:
    """Small-denominator y in [0, 2], y = 1 and y > 1 included; n mostly
    0..16 plus a small slice at 28..40, the range that hangs at the seed."""
    den = rng.randint(1, 10)
    y = Fraction(rng.randint(0, 2 * den), den)
    p = rng.choice(_Q_P)
    n = rng.randint(28, 40) if rng.random() < _Q_HIGH_N_SHARE else rng.randint(0, 16)
    return ["q", "--n", str(n), "--y", _q(y), "--p", _q(p), "--rep", "all",
            "--format", rng.choice(("json", "text", "csv"))]


GENERATORS = {
    "c2_mixed": c2_point,
    "functional_sweep": functional_point,
    "q_exact": q_point,
}


def generate_pool(workload: str) -> list[list[str]]:
    """The workload's full pool, in recording order."""
    rng = random.Random(f"{POOL_SEED}:{workload}")
    gen = GENERATORS[workload]
    return [gen(rng) for _ in range(WORKLOADS[workload].pool_size)]


def pool_digest(pool: list[list[str]]) -> str:
    return hashlib.sha256("\n".join(" ".join(a) for a in pool).encode()).hexdigest()


# -------------------------------------------------------------- goldens


@dataclass(frozen=True)
class Golden:
    """Recorded outcome of one point: `exit:<code>`, `raise:<Type>` or
    `timeout` (cut at twice the deadline), stdout digest and cost."""

    status: str
    stdout_sha: str
    cost_s: float


@dataclass(frozen=True)
class Point:
    index: int
    argv: tuple[str, ...]
    golden: Golden


def stdout_sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.txt"


def write_goldens(path: Path, digest: str, goldens: list[Golden], header: str) -> None:
    lines = [f"# {header}", f"# pool_sha256 {digest}"]
    lines += [f"{g.status}\t{g.stdout_sha}\t{g.cost_s * 1e3:.3f}" for g in goldens]
    path.write_text("\n".join(lines) + "\n")


def read_goldens(path: Path) -> tuple[str, list[Golden]]:
    digest, goldens = "", []
    for line in path.read_text().splitlines():
        if line.startswith("# pool_sha256 "):
            digest = line.split()[2]
        elif line and not line.startswith("#"):
            status, sha, cost_ms = line.split("\t")
            goldens.append(Golden(status, sha, float(cost_ms) / 1e3))
    return digest, goldens


def load_pool(workload: str) -> list[Point]:
    """Pool points joined with their goldens; refuses stale goldens."""
    pool = generate_pool(workload)
    digest, goldens = read_goldens(golden_path(workload))
    if digest != pool_digest(pool) or len(goldens) != len(pool):
        raise RuntimeError(
            f"{golden_path(workload)} does not match the {workload} generator; "
            "re-record it at a reference commit with perfbench/record.py"
        )
    return [Point(i, tuple(argv), g) for i, (argv, g) in enumerate(zip(pool, goldens))]


# ---------------------------------------------------------------- draws

def classify(point: Point, deadline_s: float) -> str:
    """At the recording commit: 'run' (exit status 0 under half the
    deadline; the timed pass draws these), 'failure' (raised or exited
    non-zero under half the deadline, or passed twice the deadline) or
    'band' (in between, never drawn)."""
    g = point.golden
    if g.status == "timeout" or g.cost_s >= 2 * deadline_s:
        return "failure"
    if g.cost_s >= deadline_s / 2:
        return "band"
    return "run" if g.status == "exit:0" else "failure"


def mean_cost(pool: list[Point], deadline_s: float) -> float:
    """Recorded seconds per drawable point."""
    costs = [p.golden.cost_s for p in pool if classify(p, deadline_s) == "run"]
    return sum(costs) / len(costs)


def cost_quantiles(pool: list[Point], deadline_s: float, count: int) -> list[list[Point]]:
    """The points that ran, by recorded cost, cut into `count` quantiles."""
    ran = sorted((p for p in pool if classify(p, deadline_s) == "run"),
                 key=lambda p: (p.golden.cost_s, p.index))
    count = max(1, min(len(ran), count))
    return [ran[len(ran) * i // count: len(ran) * (i + 1) // count] for i in range(count)]


def draw(pool: list[Point], deadline_s: float, seed: int, quantiles: int) -> list[Point]:
    """Seeded order over every drawable point, stratified by cost.

    The points that ran are split into `quantiles` cost quantiles. Round
    r holds the r-th point (in a seeded shuffle) of every quantile, in
    seeded order, so every whole round has the pool's cost profile and
    only the last, partial round of a run is a random subset. The seed
    picks the points, not the cost profile.
    """
    rng = random.Random(f"draw:{seed}")
    orders = [rng.sample(q, len(q)) for q in cost_quantiles(pool, deadline_s, quantiles)]
    seq = []
    for r in range(max(len(o) for o in orders)):
        batch = [o[r] for o in orders if r < len(o)]
        rng.shuffle(batch)
        seq += batch
    return seq


def known_failures(pool: list[Point], deadline_s: float, seed: int, count: int) -> list[Point]:
    """`count` of the points that failed at the recording commit, in
    seeded order: the known-failure replay."""
    failing = [p for p in pool if classify(p, deadline_s) == "failure"]
    return random.Random(f"known:{seed}").sample(failing, min(count, len(failing)))


def fresh_sample(pool: list[Point], deadline_s: float, seed: int, count: int) -> list[Point]:
    """`count` points that ran at the recording commit, one from each of
    `count` cost quantiles, in seeded order: the fresh-process subsample."""
    rng = random.Random(f"fresh:{seed}")
    picks = [rng.choice(q) for q in cost_quantiles(pool, deadline_s, count)]
    return rng.sample(picks, len(picks))
