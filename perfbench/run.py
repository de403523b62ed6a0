"""hotspots benchmark: closed-loop CLI job lists, end to end and per layer.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One single-threaded load generator drives ``hotspots.cli.main`` in-process:
each workload is a fixed job list generated from the seed, run closed loop
(the next job starts when the previous one has finished).  Each execution of
the list happens in a fresh child process, so a per-process cache helps only
where one CLI invocation really reuses work.  The list is executed again, in
a new child each time, until ``--seconds`` is used up; every execution must
give byte-identical output.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md).  End-to-end times are scaled to a
nominal machine speed with the reference kernel of speed.py.  Outputs are checked by independent
oracles outside the timed region.  The last stdout line is the result JSON;
the line before it stamps the software and machine the numbers came from.
Trace spans and full results are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import oracles
import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
#: set-up is measured at least this many times per run (extra children only
#: import hotspots.cli when the job list ran fewer times)
MIN_SETUPS = 3
CHILD_TIMEOUT_S = 120
IMPORTTIME_REPEATS = 3
#: per-layer counts that must repeat exactly between executions of one list
EXACT_COUNTS = ("calls", "j_evals", "path_steps", "chunks", "evals_per_opt",
                "distinct_per_call", "log_v_per_eval")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _list_seconds(executions, key: str) -> float:
    """Time of the job list with each job at its median over executions."""
    return sum(statistics.median(r[key][j] for r in executions)
               for j in range(len(executions[0][key])))


class Harness:
    def __init__(self, root: Path, workload, seed: int, seconds: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.src = (root / "src").resolve()
        if not (self.src / "hotspots" / "cli.py").is_file():
            raise BenchError(f"no hotspots source tree under {self.src}; run from the "
                             "root of a checkout")
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.scratch = OUT_DIR / f"tmp-{workload.name}-{os.getpid()}"
        self.nproc = len(os.sched_getaffinity(0))

    # ----------------------------------------------------------- children

    def _child(self, mode: str, spec: dict) -> dict:
        tag = f"{mode}-{time.monotonic_ns()}"
        spec_path = self.scratch / f"{tag}.spec.json"
        result_path = self.scratch / f"{tag}.result.json"
        spec_path.write_text(json.dumps(spec))
        _, parent_kernel = speed.sample()
        launch = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), mode, str(spec_path),
                 str(result_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S}s")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        result_path.unlink()
        spec_path.unlink()
        result["raw_setup_s"] = result["ready"] - launch - result["sampling_in_setup_s"]
        result["setup_s"] = speed.scale(
            result["raw_setup_s"], speed.median([parent_kernel, *result["setup_kernels_s"]]))
        loaded = result.get("hotspots_file")
        if loaded and not Path(loaded).resolve().is_relative_to(self.src):
            raise BenchError(f"child imported hotspots from {loaded}, not {self.src}")
        return result

    def _run_list(self, argv: list, trace: bool, spans_path: Path | None = None,
                  sample_in_jobs: bool = False) -> dict:
        spec = {"argv": argv, "trace": trace, "sample_in_jobs": sample_in_jobs,
                "spans_path": str(spans_path) if spans_path else None}
        return self._child("jobs", spec)

    def _extra_setups(self, have: int) -> list[float]:
        return [self._child("setup", {})["setup_s"] for _ in range(have, MIN_SETUPS)]

    def _import_breakdown(self) -> dict:
        """cli.import.*_ms from `python -X importtime -c "import hotspots.cli"`.

        A package's cost is the cumulative time of its outermost entries:
        the least indented lines named after it or its submodules.  (scipy's
        lazy loader leaves no line for scipy.stats itself, only for its
        submodules.)
        """
        packages = {"hotspots": "hotspots", "scipy.stats": "scipy_stats",
                    "numpy": "numpy", "click": "click"}
        samples: dict[str, list[float]] = {key: [] for key in packages.values()}
        for _ in range(IMPORTTIME_REPEATS):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import hotspots.cli"], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"import of hotspots.cli failed: {proc.stderr[-2000:]}")
            entries = []  # (package, indent, cumulative ms)
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if not line.startswith("import time:") or len(parts) != 3:
                    continue
                try:
                    cumulative_ms = int(parts[1]) / 1e3
                except ValueError:  # the header line
                    continue
                name = parts[2].rstrip()
                bare = name.strip()
                for package in packages:
                    if bare == package or bare.startswith(package + "."):
                        entries.append((package, len(name) - len(bare), cumulative_ms))
            for package, key in packages.items():
                mine = [(indent, ms) for p, indent, ms in entries if p == package]
                outer = min((indent for indent, _ in mine), default=None)
                samples[key].append(sum(ms for indent, ms in mine if indent == outer))
        return {f"cli.import.{key}_ms": _median(vals) for key, vals in samples.items()}

    # ----------------------------------------------------------- checking

    def _check(self, jobs, executions) -> dict:
        """Oracle verdicts on the first execution; later ones must match it."""
        first = executions[0]
        statuses, problems = [], []
        for i, job in enumerate(jobs):
            status, detail = oracles.check(job, first["codes"][i], first["outputs"][i])
            statuses.append(status)
            if status != "ok":
                problems.append({"job": i, "argv": job.argv, "status": status,
                                 "exit": first["codes"][i], "detail": detail,
                                 "stderr": first["errors"][i][-300:]})
        survival_failures, survival_max_z = oracles.check_survival(
            jobs, statuses, first["outputs"])
        for members, detail in survival_failures:
            for i in members:
                statuses[i] = "wrong"
            problems.append({"job": members, "status": "wrong", "detail": detail})
        identical = all(r["codes"] == first["codes"] and r["outputs"] == first["outputs"]
                        for r in executions[1:])
        wrong = statuses.count("wrong")
        return {
            "statuses": statuses,
            "ok": statuses.count("ok"),
            "wrong": wrong,
            "defect": statuses.count("defect"),
            "identical": identical,
            "correct": wrong == 0 and identical,
            "problems": problems,
            "survival_max_z": survival_max_z,
        }

    # ----------------------------------------------------------- runs

    def _repeat(self, run_one) -> list:
        """Call run_one() until the next call would overrun --seconds."""
        start = time.monotonic()
        done = []
        while True:
            done.append(run_one())
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(done) > self.seconds:
                return done

    def end_to_end(self, jobs) -> tuple[dict, dict, dict]:
        argv = [job.argv for job in jobs]
        executions = self._repeat(lambda: self._run_list(argv, trace=False,
                                                         sample_in_jobs=True))
        verdict = self._check(jobs, executions)
        setups = [r["setup_s"] for r in executions] + self._extra_setups(len(executions))
        ok_work = sum(job.work for job, status in zip(jobs, verdict["statuses"])
                      if status == "ok")
        latencies_ms = [1e3 * t for r in executions for t in r["latencies_s"]]
        # each job at its median over executions: a burst of machine noise
        # during one execution does not move the list time
        list_s = _list_seconds(executions, "latencies_s")
        metrics = {
            "setup_s": _median(setups),
            "work_per_s": ok_work / list_s,
            "job_ms_p50": statistics.median(latencies_ms),
            "job_ms_p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
            "peak_rss_mb": _median([r["peak_rss_kib"] / 1024.0 for r in executions]),
            "ok_ratio": verdict["ok"] / len(jobs),
        }
        raw_ms = [1e3 * t for r in executions for t in r["raw_latencies_s"]]
        info = {"executions": len(executions), "setup_samples": len(setups),
                "job_latency_samples": len(latencies_ms),
                "distinct_jobs": len(jobs), "work_per_list": ok_work,
                "list_wall_s": [r["list_wall_s"] for r in executions],
                "kernel_samples": [r["kernel_samples"] for r in executions],
                "unscaled": {
                    "setup_s": _median([r["raw_setup_s"] for r in executions]),
                    "work_per_s": ok_work / _list_seconds(executions, "raw_latencies_s"),
                    "job_ms_p50": statistics.median(raw_ms)},
                "blas": executions[0]["blas"]}
        return metrics, verdict, info

    def traced(self, jobs) -> tuple[dict, dict, dict]:
        argv = [job.argv for job in jobs]
        imports = self._import_breakdown()
        probes = self._child("probes", {"seed": self.seed})["probes"]
        spans_path = OUT_DIR / "trace" / f"{self.workload.name}-seed{self.seed}.spans.csv"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        plain, traced = [], []

        def pair():
            plain.append(self._run_list(argv, trace=False))
            traced.append(self._run_list(argv, trace=True,
                                         spans_path=None if traced else spans_path))

        self._repeat(pair)
        verdict = self._check(jobs, traced + plain)
        layers = [r["layers"] for r in traced]
        counts_repeat = all(
            layer[key] == layers[0][key] for layer in layers[1:] for key in layer
            if any(tag in key for tag in EXACT_COUNTS))
        if not counts_repeat:
            verdict["correct"] = False
            verdict["problems"].append({"detail": "per-layer counts differ between "
                                                  "executions of the same job list"})
        metrics = {key: (layers[0][key] if any(tag in key for tag in EXACT_COUNTS)
                         else _median([layer[key] for layer in layers]))
                   for key in layers[0]}
        metrics.update(probes)
        metrics.update(imports)
        metrics["montecarlo.survival_max_z"] = verdict["survival_max_z"]
        metrics["trace.overhead_ratio"] = (_list_seconds(traced, "latencies_s")
                                           / _list_seconds(plain, "latencies_s"))
        info = {"executions": len(traced) + len(plain), "traced_executions": len(traced),
                "spans_per_list": traced[0]["span_count"], "spans_file": str(spans_path),
                "missing_trace_targets": traced[0]["missing_targets"],
                "blas": traced[0]["blas"]}
        return metrics, verdict, info

    def run(self, trace: bool) -> dict:
        load_at_start = os.getloadavg()
        self.scratch.mkdir(parents=True, exist_ok=True)
        try:
            jobs = self.workload.make(random.Random(self.seed), self.scratch, self.nproc)
            metrics, verdict, info = (self.traced if trace else self.end_to_end)(jobs)
        finally:
            shutil.rmtree(self.scratch, ignore_errors=True)
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": trace,
            "work_unit": self.workload.work_unit,
            "stamp": stamp(self.nproc, load_at_start, info.pop("blas")),
            "info": info,
            "verdict": {key: verdict[key] for key in
                        ("ok", "wrong", "defect", "identical", "correct",
                         "survival_max_z")},
            "problems": verdict["problems"][:20],
            # every execution repeats the same jobs byte for byte, so each
            # job is one checked operation however often the list ran
            "attempted": len(jobs),
            "failed": len(jobs) - verdict["ok"],
            "correct": verdict["correct"],
            "metrics": metrics,
        }


def stamp(nproc: int, load_at_start, blas: dict) -> dict:
    """Where the numbers came from; results of different stamps never compare."""
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "loadavg_at_start": list(load_at_start),
        "blas": blas,
    }


def load_metric_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def result_line(record: dict, units: dict) -> dict:
    produced = record["metrics"]
    if set(produced) != set(units):
        raise BenchError("metrics do not match BENCHMARK.json: missing "
                         f"{sorted(set(units) - set(produced))}, extra "
                         f"{sorted(set(produced) - set(units))}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: {"value": float(produced[name]), "unit": units[name]}
                        for name in units}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        units = load_metric_spec(root)["per_layer" if args.trace else "end_to_end"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        lines = []
        for name in names:
            record = Harness(root, WORKLOADS[name], args.seed, args.seconds).run(
                bool(args.trace))
            line = result_line(record, units)
            results = OUT_DIR / "results"
            results.mkdir(parents=True, exist_ok=True)
            (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps(record, indent=1))
            lines.append((name, record, line))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for name, record, line in lines:
        for problem in record["problems"]:
            print(f"{name}: job {problem.get('job')}: {problem['detail']}", file=sys.stderr)
        if len(names) > 1:
            print(f"== {name} ({record['work_unit']} per second in work_per_s)")
            for metric, value in line["metrics"].items():
                print(f"  {metric:<42} {value['value']:>14.6g} {value['unit']}")
    if len(names) == 1:
        name, record, line = lines[0]
        print(json.dumps({key: record[key] for key in
                          ("workload", "seed", "trace", "work_unit", "stamp", "info",
                           "verdict")}))
        print(json.dumps(line))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, _, line in lines),
            "attempted": sum(line["attempted"] for _, _, line in lines),
            "failed": sum(line["failed"] for _, _, line in lines),
            "metrics": {f"{name}/{metric}": value for name, _, line in lines
                        for metric, value in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
