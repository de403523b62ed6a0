"""Job lists of the four workloads, generated from the workload seed.

A job is one argv for ``hotspots.cli.main`` plus what the oracle needs to
check its output and the work units it contributes.  Generated input files
(custom V tables) go to the run's scratch directory; the program receives
only argv lists and those files.  See README.md for why each workload exists
and which layer metrics it should and should not move.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Job:
    argv: list[str]
    kind: str
    work: int
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    make: object  # (rng, scratch_dir, nproc) -> list[Job]


# bound-sweep generator inputs
BOUND_JOBS = 3024
ASYMPTOTIC_JOBS = 200
RATIOS = ("closed", "4overd", "custom")
VFUNCTIONS = ("vogt", "improved", "custom")
TOLERANCES = (1e-9, 1e-8, 1e-7, 1e-6)

# mc-* generator inputs: jobs per list and paths per job, at the CLI's default
# dt = 1e-4 and 25-point t-grid.  Jobs alternate d=2, d=3, d=2, ..., so the
# median job latency falls inside the d=2 cluster, and the oracle pools the
# survival counts of the jobs on each domain.  10k-path jobs in chunks of
# 5000 paths (on 2 cores) keep the sampler in the regime of the 20k-path
# Baseline run, where numpy arithmetic, not per-step call overhead, dominates.
MC_JOBS = 5
MC_PATHS = 10000
MC_EPSILONS = (0.25, 0.5, 0.75)
MC_VFUNCTIONS = ("vogt", "improved")


def table_bessel(rng: random.Random, scratch: Path, nproc: int) -> list[Job]:
    dims = list(range(2, 201))
    rng.shuffle(dims)
    return [Job(["table", "--dims", str(d), "--format", "json"], "table", 1, {"d": d})
            for d in dims]


def _custom_table(rng: random.Random, d: int) -> list[tuple[float, float]]:
    """A user's V table: Vogt-shaped log V, scaled, on part of (0, 1].

    The epsilon range is drawn without regard to where the optimizer will
    search, so some tables end above the minimizer (ROADMAP item 5).
    """
    lo = 10.0 ** rng.uniform(-3.0, -0.5)
    hi = rng.uniform(0.7, 1.0)
    rows = rng.randint(4, 12)
    scale = rng.uniform(0.6, 1.4)
    eps = sorted({round(lo + (hi - lo) * i / (rows - 1), 6) for i in range(rows)})
    out = []
    for e in eps:
        log_v = 0.25 * math.log(2.0) + 0.5 * d * math.log((1.0 + e ** -0.5) / 2.0)
        out.append((e, scale * log_v))
    return out


def bound_sweep(rng: random.Random, scratch: Path, nproc: int) -> list[Job]:
    # every list has the same mix of ratio kinds, V kinds and tolerances
    # (BOUND_JOBS / 9 of each ratio-V pair); the seed draws the rest
    jobs = []
    for i in range(BOUND_JOBS):
        d = rng.randint(2, 200)
        ratio = RATIOS[i % len(RATIOS)]
        if ratio == "4overd" and d < 5:
            ratio = "closed"
        if ratio == "custom":
            ratio = f"custom:{round(rng.uniform(0.02, 0.9), 4)!r}"
        vfunction = VFUNCTIONS[(i // len(RATIOS)) % len(VFUNCTIONS)]
        meta = {"d": d, "ratio": ratio, "vfunction": vfunction}
        if vfunction == "custom":
            table = _custom_table(rng, d)
            path = scratch / f"v{i:05d}.csv"
            path.write_text("".join(f"{e!r},{v!r}\n" for e, v in table))
            vfunction = f"custom:{path}"
            meta["table"] = table
        tolerance = TOLERANCES[(i // len(RATIOS) // len(VFUNCTIONS)) % len(TOLERANCES)]
        meta["tolerance"] = tolerance
        jobs.append(Job(["bound", "--dim", str(d), "--ratio", ratio,
                         "--vfunction", vfunction, "--tolerance", repr(tolerance),
                         "--format", "json"], "bound", 1, meta))
    for _ in range(ASYMPTOTIC_JOBS):
        dmin = rng.randint(10, 1000)
        dmax = int(10 ** rng.uniform(4.0, 8.0))
        points = rng.randint(5, 25)
        jobs.append(Job(["asymptotic", "--dmin", str(dmin), "--dmax", str(dmax),
                         "--points", str(points), "--format", "json"], "asymptotic", 1,
                        {"dmin": dmin, "dmax": dmax}))
    rng.shuffle(jobs)
    return jobs


def _mc_jobs(rng: random.Random, nproc: int, shapes) -> list[Job]:
    # at least nproc chunks per job (and at least two, like the CLI default of
    # 100k paths in 65536-path chunks), so a parallel chunk runner has work
    chunk = math.ceil(MC_PATHS / max(2, nproc))
    jobs = []
    for i in range(MC_JOBS):
        shape, dim, extra = shapes[i % 2]
        argv = ["verify-vbound", "--shape", shape, "--dim", str(dim), *extra,
                "--paths", str(MC_PATHS), "--chunk-size", str(chunk),
                "--epsilon", repr(rng.choice(MC_EPSILONS)),
                "--vfunction", rng.choice(MC_VFUNCTIONS),
                "--seed", str(rng.randrange(2 ** 63)), "--format", "json"]
        jobs.append(Job(argv, "mc", MC_PATHS, {"shape": shape, "dim": dim}))
    return jobs


def mc_ball(rng: random.Random, scratch: Path, nproc: int) -> list[Job]:
    return _mc_jobs(rng, nproc, [("ball", 2, []), ("ball", 3, [])])


def mc_box(rng: random.Random, scratch: Path, nproc: int) -> list[Job]:
    return _mc_jobs(rng, nproc, [("box", 2, ["--sides", "1,1"]),
                                 ("box", 3, ["--sides", "1,1,1"])])


WORKLOADS = {
    w.name: w for w in (
        Workload("table-bessel", "table rows", table_bessel),
        Workload("bound-sweep", "bound and asymptotic jobs", bound_sweep),
        Workload("mc-ball", "simulated paths", mc_ball),
        Workload("mc-box", "simulated paths", mc_box),
    )
}
