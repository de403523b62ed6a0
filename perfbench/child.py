"""One fresh process of the benchmark: runs a job list, or the layer probes.

Usage: python3 perfbench/child.py <jobs|probes|setup> <spec.json> <result.json>

The parent puts the checkout's ``src`` on PYTHONPATH.  In ``jobs`` mode the
child imports ``hotspots.cli``, notes the moment the first job can start,
runs every argv of the spec through ``hotspots.cli.main`` in order (closed
loop, one at a time) and writes latencies, exit codes and captured output.
With ``"trace": true`` it also records spans (see tracer.py).  In ``probes``
mode it times fixed single-layer calls; in ``setup`` mode it only imports.

From its start the child samples the machine-speed kernel of speed.py:
by timer during the import and during the jobs of an untraced list, and on
request around the import and between jobs.  Set-up and job times are
scaled with those samples.
"""

import sys
import time

import speed

SAMPLER = speed.Sampler()
SAMPLER.start_timer()
SAMPLER.take()
PRE_COST = time.perf_counter() - SAMPLER.samples[0][0]

import hotspots.cli  # noqa: E402  (imported first: this is the set-up being timed)

READY = time.monotonic()
READY_PC = time.perf_counter()
SAMPLER.take()
SETUP_KERNELS = [k for _, k in SAMPLER.samples]

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

#: a job is followed by a kernel sample once this long has passed since the last
KERNEL_EVERY_S = 0.01
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _setup_fields() -> dict:
    """Set-up as the parent needs it; the sampling inside it is left out."""
    return {"ready": READY,
            "sampling_in_setup_s": PRE_COST + SAMPLER.interrupted_s(0.0, READY_PC),
            "setup_kernels_s": SETUP_KERNELS}


def _run_one(argv):
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            hotspots.cli.main(args=argv, prog_name="hotspots")
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an undocumented exit 1
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
    if code is None:
        code = 0
    elif not isinstance(code, int):
        code = 1
    return t0, elapsed, code, out.getvalue(), err.getvalue()


def _peak_rss_kib() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own + children


def _blas_info() -> dict:
    info = {name: os.environ.get(name) for name in BLAS_ENV}
    try:
        import numpy as np

        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        info["numpy_blas"] = deps.get("blas", {}).get("name")
    except (TypeError, AttributeError) as exc:  # numpy < 1.25 has no dict mode
        info["numpy_blas"] = f"unknown ({type(exc).__name__})"
    return info


def run_jobs(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    if not spec.get("sample_in_jobs"):
        SAMPLER.stop_timer()
    start = time.monotonic()
    spans, codes, outputs, errors = [], [], [], []
    for job_id, argv in enumerate(spec["argv"]):
        if tracer is None:
            t0, elapsed, code, out, err = _run_one(argv)
        else:
            t0, elapsed, code, out, err = tracer.run_job(job_id, lambda: _run_one(argv))
        spans.append((t0, elapsed))
        codes.append(code)
        outputs.append(out)
        errors.append(err[-2000:])
        if time.perf_counter() - SAMPLER.samples[-1][0] >= KERNEL_EVERY_S:
            SAMPLER.take()
    SAMPLER.take()
    SAMPLER.stop_timer()
    list_wall = time.monotonic() - start
    result = {
        **_setup_fields(),
        "list_wall_s": list_wall,
        "raw_latencies_s": [elapsed for _, elapsed in spans],
        "latencies_s": SAMPLER.scale_spans(spans),
        "kernel_samples": len(SAMPLER.samples),
        "codes": codes,
        "outputs": outputs,
        "errors": errors,
        "peak_rss_kib": _peak_rss_kib(),
        "hotspots_file": hotspots.cli.__file__,
        "blas": _blas_info(),
    }
    if tracer is not None:
        layers = tracer.aggregate()
        floor_s = tracer_mod.rng_floor_seconds(tracer.sample_captures())
        steps = layers["montecarlo.path_steps"]
        layers["montecarlo.rng_floor_ns_per_path_step"] = 1e9 * floor_s / steps if steps else 0.0
        floor = layers["montecarlo.rng_floor_ns_per_path_step"]
        layers["montecarlo.floor_ratio"] = (layers["montecarlo.ns_per_path_step"] / floor
                                            if floor else 0.0)
        result["layers"] = layers
        result["missing_targets"] = tracer.missing
        result["span_count"] = len(tracer.spans)
        if spec.get("spans_path"):
            tracer.write_csv(spec["spans_path"])
    return result


def _median_time(call, repeats: int, inner: int) -> float:
    """Median over repeats of the mean seconds per call of inner calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            call()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def run_probes(spec: dict) -> dict:
    """The single-layer probes of the ROADMAP Baseline table."""
    import numpy as np

    from hotspots import specialfun, zeros

    bessel_j = specialfun.bessel_j
    probes = {
        "specialfun.probe_series_us": 1e6 * _median_time(
            lambda: bessel_j(50.0, 10.0), 7, 2000),
        "specialfun.probe_miller_us": 1e6 * _median_time(
            lambda: bessel_j(99.0, 108.0), 7, 200),
    }
    roots = {"jzero": ("first_bessel_zero", lambda: zeros.first_bessel_zero(99.0)),
             "proot": ("first_p_root", lambda: zeros.first_p_root(200))}
    for key, (_, call) in roots.items():
        probes[f"zeros.probe_{key}_d200_ms"] = 1e3 * _median_time(call, 7, 3)
    # J evaluations: one traced call of each root, after the timing
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    tracer.install()
    for job_id, (_, call) in enumerate(roots.values()):
        tracer.run_job(job_id, call)
    layers = tracer.aggregate()
    for key, (fname, _) in roots.items():
        probes[f"zeros.probe_{key}_d200_j_evals"] = layers[f"zeros.{fname}.j_evals_per_call"]

    # Philox floor of the Baseline table: 2 normals + 1 uniform per path-step
    block = 10000
    rng = np.random.Generator(np.random.Philox(key=spec.get("seed", 0)))

    def draw():
        rng.standard_normal((block, 2))
        rng.uniform(size=block)

    probes["montecarlo.probe_philox_ns_per_path_step"] = (
        1e9 * _median_time(draw, 7, 20) / block)
    return {**_setup_fields(), "probes": probes}


def main() -> None:
    mode, spec_path, result_path = sys.argv[1:4]
    if mode != "jobs":
        SAMPLER.stop_timer()
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "jobs":
        result = run_jobs(spec)
    elif mode == "probes":
        result = run_probes(spec)
    else:  # "setup": only the import is measured
        result = _setup_fields()
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
