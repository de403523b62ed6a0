"""Independent output checks, run by the parent after a job list finishes.

Nothing here imports ``hotspots``: roots come from scipy's ``brentq`` on
``scipy.special.jv``, V-functions and bounds are re-derived from their
formulas, and Monte Carlo survival is compared with exact series.

``check(job, code, stdout)`` returns ``(status, detail)`` with status

* ``"ok"``: the job succeeded and its output passed every check;
* ``"defect"``: a custom-V bound job exited 3 although its table overlaps
  the feasible epsilon interval (the known defect of ROADMAP item 5).  It is
  a failed job but not a wrong answer;
* ``"wrong"``: anything else, including an undocumented exit code.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import optimize, special

# Reference cells of acceptance criterion 1:
# d -> (p^2, j^2, r, epsilon, a, bound) with the criterion's tolerances.
REFERENCE_TABLE = {
    2: (3.3900, 5.7831, 0.5862, 0.0929, 1.0081, 5.1043),
    3: (4.3330, 9.8696, 0.4391, 0.1485, 1.2205, 3.5288),
    4: (5.2896, 14.681, 0.3604, 0.1903, 1.4325, 3.0200),
    10: (11.160, 57.582, 0.1939, 0.3359, 2.5846, 2.3314),
    100: (101.02, 3144.1, 0.0322, 0.6894, 16.219, 1.8809),
}
REFERENCE_TOL = (1e-3, 1e-3, 1e-3, 5e-3, 5e-3, 1e-3)
REFERENCE_KEYS = ("p_squared_cell", "j_squared_cell", "r", "epsilon", "a", "bound")

#: Largest |S_hat - S| / binomial SE allowed at any grid point, fixed once for
#: every seed.  S_hat pools every job of a list that runs the same domain
#: (they share one exact curve).  Over ~10^2 domain checks (dozens of runs
#: of each mc-* workload), each a maximum over ~20 correlated grid points, a 5-sigma
#: threshold keeps the chance of a false alarm near 1e-3.  At the 20k to 30k
#: pooled paths of an mc-* domain the smallest bias it catches is
#: 5 sqrt(S (1 - S) / n), 0.014 to 0.018 at S = 0.5 (see README.md).
Z_THRESHOLD = 5.0
#: Grid points enter the z statistic only where the binomial variance
#: n S (1 - S) is at least this, so the normal approximation holds; deep in
#: the tail a single surviving path would otherwise read as tens of sigma.
Z_MIN_VARIANCE = 10.0

ROOT_REL_TOL = 1e-9
BOUND_REL_TOL = 1e-9
GRID_POINTS = 64
EPS_EDGE = 1e-6
SQRT_E = math.sqrt(math.e)


def _first_sign_change(f, lo: float, hi: float, step: float) -> float:
    """brentq on the first sign change of f on a grid of the given step."""
    xs = np.arange(lo, hi + step, step)
    fx = f(xs)
    if not fx[0] > 0.0:
        raise ValueError(f"oracle bracket: f({lo}) = {fx[0]} is not positive")
    flips = np.nonzero(fx <= 0.0)[0]
    if flips.size == 0:
        raise ValueError(f"oracle bracket: no sign change on [{lo}, {hi}]")
    k = flips[0]
    return optimize.brentq(lambda x: float(f(np.array([x]))[0]), xs[k - 1], xs[k],
                           xtol=1e-14, rtol=4 * np.finfo(float).eps, maxiter=200)


def j_zero(nu: float) -> float:
    """First positive zero of J_nu (it exceeds nu)."""
    return _first_sign_change(lambda x: special.jv(nu, x), max(nu, 0.5), nu + 20.0, 0.05)


def p_root(d: int) -> float:
    """First positive root of J_{d/2}(x) - x J_{d/2+1}(x) (it lies below sqrt(d+2))."""
    nu = 0.5 * d
    return _first_sign_change(lambda x: special.jv(nu, x) - x * special.jv(nu + 1.0, x),
                              0.5, math.sqrt(d + 2.0) + 1.0, 0.01)


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def check_table(job, out: dict) -> list[str]:
    problems = []
    (row,) = out["result"]["rows"]
    d = job.meta["d"]
    if row["d"] != d:
        return [f"row for d={row['d']}, asked d={d}"]
    p = p_root(d)
    j = j_zero(0.5 * d - 1.0)
    p2, j2 = p * p, j * j
    if not _close(row["p_squared"], p2, ROOT_REL_TOL):
        problems.append(f"p^2 {row['p_squared']!r} vs brentq {p2!r}")
    if not _close(row["j_squared"], j2, ROOT_REL_TOL):
        problems.append(f"j^2 {row['j_squared']!r} vs brentq {j2!r}")
    if not row["p_squared_cell"] >= p2:
        problems.append(f"p2_cell {row['p_squared_cell']!r} < p^2 {p2!r}")
    if not row["j_squared_cell"] <= j2:
        problems.append(f"j2_cell {row['j_squared_cell']!r} > j^2 {j2!r}")
    if not row["r"] >= p2 / j2:
        problems.append(f"r {row['r']!r} < p^2/j^2 {p2 / j2!r}")
    if d in REFERENCE_TABLE:
        for key, want, tol in zip(REFERENCE_KEYS, REFERENCE_TABLE[d], REFERENCE_TOL):
            if abs(row[key] - want) > tol:
                problems.append(f"reference cell {key} at d={d}: {row[key]!r} vs {want}")
    return problems


def log_v(kind: str, eps: np.ndarray, d: int, table=None) -> np.ndarray:
    """ln V from the closed forms (or linear interpolation of a table)."""
    eps = np.asarray(eps, dtype=float)
    eps_factor = 0.5 * d * np.log((1.0 + eps ** -0.5) / 2.0)
    if kind == "vogt":
        return 0.25 * math.log(2.0) + eps_factor
    if kind == "improved":
        return (0.25 * d + 0.5 * math.log(2.0) - 0.25 * d * math.log(2.0 * d)
                + 0.5 * (special.gammaln(d) - special.gammaln(0.5 * d)) + eps_factor)
    xs, ys = zip(*table)
    return np.interp(eps, xs, ys)


def ratio_value(spec: str, d: int) -> float:
    if spec == "closed":
        return (4.0 * d + 8.0) / (d * (d + 8.0))
    if spec == "4overd":
        return 4.0 / d
    return float(spec.split(":", 1)[1])


def check_bound(job, code: int, stdout: str) -> tuple[str, str]:
    meta = job.meta
    d, kind = meta["d"], meta["vfunction"]
    r = ratio_value(meta["ratio"], d)
    lo, hi = EPS_EDGE, 1.0 - r - EPS_EDGE
    table = meta.get("table")
    if table is not None:
        lo, hi = max(lo, table[0][0]), min(hi, table[-1][0])
    if code == 3 and table is not None:
        # exit 3 is right only when the table misses the feasible interval
        return ("defect", "custom V table overlaps the feasible interval") if lo < hi \
            else ("ok", "")
    if code != 0:
        return "wrong", f"exit {code}"
    if not lo < hi:
        return "wrong", "succeeded although the V table misses the feasible interval"
    try:
        res = json.loads(stdout)["result"]
        eps, a, bound = float(res["epsilon"]), float(res["a"]), float(res["bound"])
    except (KeyError, TypeError, ValueError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
    problems = []
    if not _close(res.get("r", math.nan), r, 1e-15):
        problems.append(f"r {res.get('r')!r} vs {r!r}")
    if not bound > 1.0:
        problems.append(f"bound {bound!r} <= 1")
    if not lo <= eps <= hi:
        problems.append(f"epsilon {eps!r} outside [{lo}, {hi}]")
    else:
        lv = float(log_v(kind, eps, d, table))
        if not _close(a, lv / (1.0 - eps), BOUND_REL_TOL):
            problems.append(f"a {a!r} is not ln V / (1 - eps)")
        value = math.exp(r * a) + math.exp(r * a + math.log(r) + lv
                                           - math.log(1.0 - eps - r) - (1.0 - eps) * a)
        if not _close(bound, value, BOUND_REL_TOL):
            problems.append(f"bound {bound!r} vs objective {value!r} at its (eps, a)")
    # the objective at a*(eps) is V^{r/(1-eps)} (1-eps)/(1-eps-r)
    grid = np.linspace(lo, hi, GRID_POINTS)
    lv_grid = log_v(kind, grid, d, table)
    objective = np.exp(r * lv_grid / (1.0 - grid)) * (1.0 - grid) / (1.0 - grid - r)
    best = int(objective.argmin())
    grid_min = float(objective[best])
    # golden section stops within the job's tolerance of the minimizer; where
    # the minimum sits on a kink of a tabulated V that costs up to slope * tol
    near = slice(max(best - 1, 0), best + 2)
    slope = float(np.abs(np.diff(objective[near]) / np.diff(grid[near])).max())
    allowed = grid_min * BOUND_REL_TOL + slope * meta["tolerance"]
    if not bound <= grid_min + allowed:
        problems.append(f"bound {bound!r} above the {GRID_POINTS}-point grid minimum "
                        f"{grid_min!r} by more than {allowed:.3g}")
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


def asymptotic_value(d: int) -> float:
    """The default sqrt(e) family (c = 1, alpha = -1/2, k = 1/8) at d."""
    q = d ** -0.5
    one_minus_eps = (2.0 * q + q * q) / (1.0 + q) ** 2
    r = 4.0 / d
    lv = 0.25 * math.log(2.0) + 0.5 * d * math.log1p(0.5 * q)
    return math.exp(0.5) + math.exp(0.5 + math.log(r) + lv
                                    - math.log(one_minus_eps - r) - one_minus_eps * d / 8.0)


def check_asymptotic(job, out: dict) -> list[str]:
    rows = out["result"]["rows"]
    problems = []
    dims = [row["d"] for row in rows]
    if not rows or dims != sorted(set(dims)) or dims[0] < job.meta["dmin"] \
            or dims[-1] > job.meta["dmax"]:
        problems.append(f"dimension grid {dims[:3]}...{dims[-3:]} is not an "
                        f"increasing grid in [{job.meta['dmin']}, {job.meta['dmax']}]")
    for row in rows:
        if not row["bound"] > SQRT_E:
            problems.append(f"bound {row['bound']!r} <= sqrt(e) at d={row['d']}")
        elif not _close(row["bound"], asymptotic_value(row["d"]), BOUND_REL_TOL):
            problems.append(f"bound {row['bound']!r} at d={row['d']} vs "
                            f"{asymptotic_value(row['d'])!r}")
    return problems


def exact_survival(shape: str, dim: int, t: np.ndarray) -> np.ndarray:
    """P(tau > t) from the centre of the unit ball or unit box, generator = Laplacian."""
    t = np.asarray(t, dtype=float)[:, None]
    if shape == "ball" and dim == 2:
        j = special.jn_zeros(0, 80)
        return (2.0 / (j * special.j1(j)) * np.exp(-j * j * t)).sum(axis=1)
    if shape == "ball" and dim == 3:
        k = np.arange(1, 80)
        return (2.0 * (-1.0) ** (k + 1) * np.exp(-(k * math.pi) ** 2 * t)).sum(axis=1)
    if shape == "box":
        k = np.arange(1, 160, 2)
        one_side = (4.0 / (k * math.pi) * (-1.0) ** ((k - 1) // 2)
                    * np.exp(-(k * math.pi) ** 2 * t)).sum(axis=1)
        return one_side ** dim
    raise ValueError(f"no exact survival for {shape} in dimension {dim}")


def survival_z(shape: str, dim: int, results: list[dict]) -> float:
    """max |S_hat - S| / binomial SE of the pooled survival of results on one
    domain, over grid points with t > 0 and enough variance."""
    t = np.asarray(results[0]["t_grid"])
    if any(res["t_grid"] != results[0]["t_grid"] for res in results):
        raise ValueError(f"jobs on the {shape} in dimension {dim} use different t-grids")
    n = sum(res["n_paths"] for res in results)
    s_hat = sum(res["n_paths"] * np.asarray(res["survival"]) for res in results) / n
    s = exact_survival(shape, dim, t)
    var = n * s * (1.0 - s)
    use = (t > 0.0) & (var >= Z_MIN_VARIANCE)
    if not use.any():
        return 0.0
    z = np.abs(s_hat[use] - s[use]) * n / np.sqrt(var[use])
    return float(z.max())


def check_survival(jobs, statuses, outputs) -> tuple[list[tuple[list[int], str]], float]:
    """Pooled survival check of the Monte Carlo jobs that passed their own check.

    Returns the failures, as (job indices, detail) per domain, and the
    largest z over all domains (0 without Monte Carlo jobs).
    """
    domains: dict[tuple[str, int], list[int]] = {}
    for i, job in enumerate(jobs):
        if job.kind == "mc" and statuses[i] == "ok":
            domains.setdefault((job.meta["shape"], job.meta["dim"]), []).append(i)
    failures, z_max = [], 0.0
    for (shape, dim), members in domains.items():
        try:
            z = survival_z(shape, dim, [json.loads(outputs[i])["result"] for i in members])
        except (KeyError, TypeError, ValueError) as exc:
            failures.append((members, f"survival: {type(exc).__name__}: {exc}"))
            continue
        z_max = max(z_max, z)
        if z > Z_THRESHOLD:
            failures.append((members, f"pooled survival of {len(members)} {shape} "
                                      f"d={dim} jobs is {z:.2f} sigma from the exact "
                                      f"curve (> {Z_THRESHOLD})"))
    return failures, z_max


def check_mc(job, out: dict) -> list[str]:
    res = out["result"]
    if res["passed"] is not True:
        return [f"V-bound check did not pass (worst margin {res['worst_margin']!r})"]
    return []


def check(job, code: int, stdout: str) -> tuple[str, str]:
    """(status, detail) for one job; see module docstring.  The survival of
    Monte Carlo jobs is checked per list, by check_survival."""
    if job.kind == "bound":
        return check_bound(job, code, stdout)
    if code != 0:
        return "wrong", f"exit {code}"
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return "wrong", f"output is not JSON: {exc}"
    try:
        if job.kind == "table":
            problems = check_table(job, out)
        elif job.kind == "asymptotic":
            problems = check_asymptotic(job, out)
        else:
            problems = check_mc(job, out)
    except (KeyError, TypeError, ValueError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")
