"""In-memory span tracer for the traced benchmark run.

Each traced library function is replaced, in every loaded ``hotspots``
module that binds it, by a wrapper that records one span.  Patching by
identity installs the wrapper wherever a consumer looks the name up: the
library imports names with ``from .x import f``, so ``hotspots.zeros`` holds
its own binding of ``bessel_j``, ``hotspots.cli`` its own ``first_p_root``,
and a name imported lazily inside a function is read from the defining
module, which is patched too.

A span is ``[name, start, end, parent_index, job_id]``.  Spans stay in memory
and are written out after the job list ends.
"""

from __future__ import annotations

import csv
import importlib
import math
import sys
import time

# span name -> (defining module, function name).  The prefix before the first
# dot is the layer.
TARGETS = {
    "specialfun.bessel_j": ("hotspots.specialfun", "bessel_j"),
    "zeros.first_bessel_zero": ("hotspots.zeros", "first_bessel_zero"),
    "zeros.first_p_root": ("hotspots.zeros", "first_p_root"),
    "ratio.displayed_squares": ("hotspots.ratio", "displayed_squares"),
    "ratio.bessel_exact_from_records": ("hotspots.ratio", "bessel_exact_from_records"),
    "ratio.bessel_exact_value": ("hotspots.ratio", "bessel_exact_value"),
    "ratio.ratio_upper_bound": ("hotspots.ratio", "ratio_upper_bound"),
    "vfunction.log_v": ("hotspots.vfunction", "log_v"),
    "vfunction.load_custom_table": ("hotspots.vfunction", "load_custom_table"),
    "bound.optimize_bound": ("hotspots.bound", "optimize_bound"),
    "bound.bound_value": ("hotspots.bound", "bound_value"),
    "asymptotic.asymptotic_bound": ("hotspots.asymptotic", "asymptotic_bound"),
    "montecarlo.principal_eigenvalue": ("hotspots.montecarlo", "principal_eigenvalue"),
    "montecarlo.estimate_survival": ("hotspots.montecarlo", "estimate_survival"),
    "montecarlo.sample_exit_times": ("hotspots.montecarlo", "sample_exit_times"),
    "montecarlo.check_vbound": ("hotspots.montecarlo", "check_vbound"),
}

# Spans whose arguments or results the aggregation needs.  Only references
# are kept while the span runs; the arithmetic happens after the job list.
_CAPTURE = {"zeros.first_bessel_zero", "zeros.first_p_root",
            "bound.optimize_bound", "montecarlo.sample_exit_times"}

JOB = "job"


class Tracer:
    """Records spans for one job list in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int | None] = [None]
        self.captures: dict[int, tuple] = {}
        self.job: int | None = None
        self.missing: list[str] = []

    def install(self) -> None:
        """Wrap every target function in every loaded hotspots module."""
        originals = {}
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            originals[id(fn)] = (fn, self._wrap(name, fn))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "hotspots"
                                      or module_name.startswith("hotspots.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, name: str, fn):
        spans, stack, captures = self.spans, self.stack, self.captures
        clock = time.perf_counter
        capture = name in _CAPTURE

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1], self.job]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if capture:
                captures[idx] = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id: int, call):
        """Run call() inside a root span for one job."""
        self.job = job_id
        idx = len(self.spans)
        span = [JOB, 0.0, 0.0, None, job_id]
        self.spans.append(span)
        self.stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return call()
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()
            self.job = None

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "job"])
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end),
                                 "" if parent is None else parent, job])

    def sample_captures(self):
        """(config, exit_times) for every traced sample_exit_times call."""
        return [(args[0], result) for idx, (args, result) in self.captures.items()
                if self.spans[idx][0] == "montecarlo.sample_exit_times"]

    def aggregate(self) -> dict:
        """Per-layer counts and self times (see perfbench/README.md)."""
        spans = self.spans
        n = len(spans)
        covered = [0.0] * n
        for name, start, end, parent, _ in spans:
            if parent is not None:
                covered[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        wall: dict[str, float] = {}
        # nearest enclosing zeros span / optimize_bound span, per span
        zeros_anc: list[int | None] = [None] * n
        opt_anc: list[int | None] = [None] * n
        j_evals: dict[int, int] = {}
        log_v_in_opt = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
            wall[name] = wall.get(name, 0.0) + (end - start)
            up_z = zeros_anc[parent] if parent is not None else None
            up_o = opt_anc[parent] if parent is not None else None
            zeros_anc[i] = i if name.startswith("zeros.") else up_z
            opt_anc[i] = i if name == "bound.optimize_bound" else up_o
            if name == "specialfun.bessel_j" and up_z is not None:
                j_evals[up_z] = j_evals.get(up_z, 0) + 1
            elif name == "vfunction.log_v" and up_o in self.captures:
                # only minimizations that returned report their evaluations
                log_v_in_opt += 1

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        def per(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        m["specialfun.bessel_j.calls"] = c("specialfun.bessel_j")
        m["specialfun.bessel_j.self_s"] = s("specialfun.bessel_j")
        m["specialfun.bessel_j.us_per_call"] = per(1e6 * s("specialfun.bessel_j"),
                                                   c("specialfun.bessel_j"))

        distinct = set()
        for fname in ("zeros.first_bessel_zero", "zeros.first_p_root"):
            evals = sum(v for k, v in j_evals.items() if spans[k][0] == fname)
            m[f"{fname}.calls"] = c(fname)
            m[f"{fname}.self_s"] = s(fname)
            m[f"{fname}.j_evals_per_call"] = per(evals, c(fname))
        for idx, (args, _) in self.captures.items():
            fname = spans[idx][0]
            if fname.startswith("zeros."):
                distinct.add((fname, repr(args[0]) if args else ""))
        m["zeros.distinct_per_call"] = per(
            len(distinct), c("zeros.first_bessel_zero") + c("zeros.first_p_root"))

        ratio_names = [k for k in TARGETS if k.startswith("ratio.")]
        m["ratio.calls"] = sum(c(k) for k in ratio_names)
        m["ratio.self_s"] = sum(s(k) for k in ratio_names)

        optimized = [result for idx, (_, result) in self.captures.items()
                     if spans[idx][0] == "bound.optimize_bound"]
        evaluations = sum(result.evaluations for result in optimized)
        m["vfunction.log_v.calls"] = c("vfunction.log_v")
        m["vfunction.log_v.self_s"] = s("vfunction.log_v")
        m["vfunction.log_v_per_eval"] = per(log_v_in_opt, evaluations)

        m["bound.optimize_bound.calls"] = c("bound.optimize_bound")
        m["bound.optimize_bound.self_s"] = s("bound.optimize_bound")
        m["bound.evals_per_opt"] = per(evaluations, len(optimized))
        m["bound.bound_value.calls"] = c("bound.bound_value")

        m["asymptotic.asymptotic_bound.calls"] = c("asymptotic.asymptotic_bound")
        m["asymptotic.asymptotic_bound.self_s"] = s("asymptotic.asymptotic_bound")

        path_steps = 0
        chunks = 0
        for config, tau in self.sample_captures():
            path_steps += int(round(float((tau / config.dt).round().sum())))
            chunks += math.ceil(config.n_paths / config.chunk_size)
        m["montecarlo.sample_exit_times.self_s"] = s("montecarlo.sample_exit_times")
        m["montecarlo.path_steps"] = path_steps
        m["montecarlo.ns_per_path_step"] = per(
            1e9 * s("montecarlo.sample_exit_times"), path_steps)
        m["montecarlo.chunks"] = chunks
        m["montecarlo.s_per_chunk"] = per(wall.get("montecarlo.sample_exit_times", 0.0),
                                          chunks)
        m["montecarlo.principal_eigenvalue.calls"] = c("montecarlo.principal_eigenvalue")
        m["montecarlo.estimate_survival.self_s"] = s("montecarlo.estimate_survival")
        m["montecarlo.check_vbound.self_s"] = s("montecarlo.check_vbound")

        m["cli.self_s"] = s(JOB)
        return m


def rng_floor_seconds(captures) -> float:
    """Seconds for Philox to draw exactly the normals and uniforms of the
    traced sample_exit_times calls.

    Replays the documented draw order: chunk i uses Philox(key=seed) jumped
    i times and, per step, one (alive, dim) normal block then one (alive,)
    uniform block.  The alive count of each step follows from the exit
    times, since a path exits at step round(tau / dt).
    """
    import numpy as np

    total = 0.0
    for config, tau in captures:
        dim = config.domain.dim
        for chunk, start in enumerate(range(0, config.n_paths, config.chunk_size)):
            steps = np.round(tau[start:start + config.chunk_size] / config.dt)
            steps = steps.astype(np.int64)
            exited_by = np.cumsum(np.bincount(steps))
            alive = (steps.size - exited_by[:-1]).tolist()
            rng = np.random.Generator(np.random.Philox(key=config.seed).jumped(chunk))
            normal, uniform = rng.standard_normal, rng.uniform
            t0 = time.perf_counter()
            for m in alive:
                normal((m, dim))
                uniform(size=m)
            total += time.perf_counter() - t0
    return total
