"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest -v` — the per-test PASSED/FAILED lines are the criterion
report.  Each body also prints a [PASS]/[FAIL] summary (visible with -rP or
on failure) carrying the measured numbers.
"""

import decimal
import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from hotspots import (
    AsymptoticParams,
    BoundQuery,
    RatioBoundSpec,
    RatioKind,
    RootFamily,
    SimConfig,
    SimDomain,
    VKind,
    asymptotic_bound,
    bound_value,
    check_vbound,
    default_t_grid,
    estimate_survival,
    first_bessel_zero,
    first_p_root,
    log_v,
    optimal_a,
    optimize_bound,
    principal_eigenvalue,
    ratio_upper_bound,
    sample_exit_times,
)
from hotspots.asymptotic import A_SLOPE, _one_minus_eps, epsilon_d
from hotspots.cli import compute_table_rows
from hotspots.ratio import bessel_exact_from_records, displayed_squares
from hotspots.zeros import _exact_sign, _first_zero_is_bracketed

# Reference table: d -> (p^2, j^2, r, epsilon, a, bound); thirty cells total.
REFERENCE_TABLE = {
    2: (3.3900, 5.7831, 0.5862, 0.0929, 1.0081, 5.1043),
    3: (4.3330, 9.8696, 0.4391, 0.1485, 1.2205, 3.5288),
    4: (5.2896, 14.681, 0.3604, 0.1903, 1.4325, 3.0200),
    10: (11.160, 57.582, 0.1939, 0.3359, 2.5846, 2.3314),
    100: (101.02, 3144.1, 0.0322, 0.6894, 16.219, 1.8809),
}

SQRT_E = math.sqrt(math.e)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, detail


def test_criterion_1_reference_table_cells():
    t0 = time.perf_counter()
    rows = compute_table_rows([2, 3, 4, 10, 100], VKind.IMPROVED_VOGT)
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for row in rows:
        p2, j2, r, eps, a, bnd = REFERENCE_TABLE[row["d"]]
        checks = [
            (row["p_squared_cell"], p2, 1e-3),
            (row["j_squared_cell"], j2, 1e-3),
            (row["r"], r, 1e-3),
            (row["epsilon"], eps, 5e-3),
            (row["a"], a, 5e-3),
            (row["bound"], bnd, 1e-3),
        ]
        for got, want, tol in checks:
            scale = max(1.0, abs(want)) if abs(want) > 100 else 1.0
            gap = abs(got - want) / scale
            worst = max(worst, gap / tol)
            assert gap <= tol, (row["d"], got, want)
    ok = worst <= 1.0 and elapsed < 10.0
    _report(1, ok, f"30/30 cells within tolerance (worst at {worst:.2f} of "
                   f"budget), table computed in {elapsed:.2f}s < 10s")


def test_criterion_2_ratio_ordering_and_root_inequalities():
    failures = []
    for d in range(2, 201):
        p_rec = first_p_root(d)
        j_rec = first_bessel_zero(0.5 * d - 1.0)
        bessel = ratio_upper_bound(d, RatioKind.BESSEL_EXACT).value
        closed = ratio_upper_bound(d, RatioKind.CLOSED_FORM).value
        cap = min(1.0, 4.0 / d) if d >= 5 else 1.0
        if not (bessel < closed < cap):
            failures.append(("ordering", d, bessel, closed, cap))
        if not p_rec.value_squared_up < d + 2.0:
            failures.append(("szego", d, p_rec.value_squared_up))
        if not j_rec.value_squared_down > d * (d + 8.0) / 4.0:
            failures.append(("lorch", d, j_rec.value_squared_down))
    _report(2, not failures,
            f"d in [2,200]: BesselExact < ClosedForm < min(1, 4/d), "
            f"p^2 < d+2, j^2 > d(d+8)/4 at all 199 dimensions"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_3_optimizer_dominates_dense_grids():
    rng = random.Random(20260816)
    worst_excess = -math.inf
    worst_a_gap = 0.0
    for _ in range(20):
        d = rng.randint(2, 200)
        vkind = rng.choice([VKind.VOGT, VKind.IMPROVED_VOGT])
        kind = rng.choice([RatioKind.BESSEL_EXACT, RatioKind.CLOSED_FORM,
                           RatioKind.ASYMPTOTIC_4_OVER_D, RatioKind.CUSTOM])
        if kind is RatioKind.ASYMPTOTIC_4_OVER_D and d < 5:
            kind = RatioKind.CLOSED_FORM
        if kind is RatioKind.CUSTOM:
            ratio = ratio_upper_bound(d, kind, custom_value=rng.uniform(0.05, 0.8))
        else:
            ratio = ratio_upper_bound(d, kind)
        res = optimize_bound(BoundQuery(d=d, ratio=ratio, vkind=vkind))
        r = ratio.value

        # 100 x 100 grid over the feasible rectangle
        grid_min = math.inf
        for i in range(100):
            eps = (1.0 - r) * (i + 0.5) / 100.0
            a_top = 2.5 * optimal_a(eps, r, log_v(vkind, eps, d))
            for k in range(100):
                a = a_top * k / 99.0
                grid_min = min(grid_min, bound_value(d, r, vkind, eps, a))
        worst_excess = max(worst_excess, res.bound - grid_min)
        assert res.bound <= grid_min + 1e-9, (d, vkind, kind)

        # the analytic inner minimizer against a dense local grid
        lv = log_v(vkind, res.epsilon_star, d)
        a_star = optimal_a(res.epsilon_star, r, lv)
        offsets = np.linspace(-1e-3, 1e-3, 2001)
        values = [bound_value(d, r, vkind, res.epsilon_star, a_star * (1.0 + o))
                  for o in offsets]
        a_best = a_star * (1.0 + offsets[int(np.argmin(values))])
        gap = abs(a_best - a_star) / a_star
        worst_a_gap = max(worst_a_gap, gap)
        assert gap <= 1e-6 + 1.1e-6, (d, vkind, kind)  # grid pitch is 1e-6
    _report(3, True,
            f"20 random configurations: minimum <= grid minimum + 1e-9 "
            f"(worst excess {worst_excess:.2e}), inner minimizer within "
            f"{worst_a_gap:.2e} relative of dense-grid argmin")


def test_criterion_4_finite_horizon_convergence():
    from hotspots import FiniteBParams, finite_b_bound

    rng = random.Random(4040)
    worst = 0.0
    for _ in range(10):
        d = rng.randint(2, 40)
        r = rng.uniform(0.02, 0.4)
        vkind = rng.choice([VKind.VOGT, VKind.IMPROVED_VOGT])
        eps = rng.uniform(0.15, 0.8) * (1.0 - r)
        # delta >= eps makes rho(delta) the slowest decay rate, so
        # rho(delta) b >= 40 controls the integral tail as well
        delta = rng.uniform(eps, 0.9 * (1.0 - r))
        a = optimal_a(eps, r, log_v(vkind, eps, d))
        b = max(a, 40.0 / (1.0 - delta - r))
        got = finite_b_bound(d, r, vkind,
                             FiniteBParams(epsilon=eps, delta=delta, a=a, b=b))
        limit = bound_value(d, r, vkind, eps, a)
        rel = abs(got - limit) / limit
        worst = max(worst, rel)
        assert rel <= 1e-8, (d, r, eps, delta)
    _report(4, True, f"10 random parameter sets with rho(delta) b >= 40: "
                     f"finite-horizon bound within 1e-8 of the limit "
                     f"(worst {worst:.2e})")


def test_criterion_5_sqrt_e_family():
    threshold_and_up = list(range(10, 41)) + [10**3, 10**5, 10**7, 10**8]
    above = all(asymptotic_bound(AsymptoticParams(d=d)) > SQRT_E
                for d in threshold_and_up)

    v8 = asymptotic_bound(AsymptoticParams(d=10**8))
    within = (v8 - SQRT_E) / SQRT_E < 0.01

    # leading exponential is exactly exp(1/2): reconstruct the correction
    # with the same stable pieces and subtract
    exact = True
    for d in (10, 10**4, 10**8):
        p = AsymptoticParams(d=d)
        eps = epsilon_d(p.c, p.alpha, d)
        one_minus = _one_minus_eps(p.c, p.alpha, d)
        second = math.exp(0.5 + math.log(4.0 / d) + log_v(VKind.VOGT, eps, d)
                          - math.log(one_minus - 4.0 / d) - one_minus * A_SLOPE * d)
        exact = exact and asymptotic_bound(p) == math.exp(0.5) + second

    ok = above and within and exact
    _report(5, ok, f"defaults exceed sqrt(e) at all sampled feasible d; "
                   f"d=1e8 gives {v8:.10f} ({100*(v8-SQRT_E)/SQRT_E:.3f}% above "
                   f"sqrt(e)); leading term is exp(1/2) to machine precision")


def test_criterion_6_monte_carlo_validates_v_bound():
    t0 = time.perf_counter()
    dom = SimDomain.ball(1.0, 2)
    lam = principal_eigenvalue(dom)
    cfg = SimConfig(domain=dom, start=dom.center(), dt=1e-4, n_paths=100000,
                    t_grid=default_t_grid(lam), seed=42)

    tau = sample_exit_times(cfg)
    mean = float(tau.mean())
    se = float(tau.std() / math.sqrt(len(tau)))
    mean_ok = abs(mean - 0.25) <= 3.0 * se

    est = estimate_survival(cfg, tau)
    surv = np.asarray(est.survival)
    tail_ok = bool(np.all(np.diff(surv) <= 1e-15))

    margins = {}
    for eps in (0.25, 0.5, 0.75):
        for vkind in (VKind.VOGT, VKind.IMPROVED_VOGT):
            rep = check_vbound(est, vkind, eps, lam, 2)
            margins[(eps, vkind.value)] = rep.worst_margin
            assert rep.passed, (eps, vkind, rep.worst_margin)

    elapsed = time.perf_counter() - t0
    ok = mean_ok and tail_ok and elapsed < 120.0
    _report(6, ok,
            f"100k paths from the disc center: mean {mean:.5f} vs 0.25 "
            f"(|gap| = {abs(mean-0.25)/se:.2f} SE), tail nonincreasing, "
            f"V-bound holds for eps in {{0.25, 0.5, 0.75}} x {{vogt, improved}} "
            f"(worst margin {min(margins.values()):.2e}), {elapsed:.0f}s < 120s")


def test_criterion_7_byte_identical_reruns(invoke):
    args = ["verify-vbound", "--dim", "2", "--paths", "20000", "--dt", "5e-4",
            "--chunk-size", "8192", "--grid-points", "12", "--seed", "2024",
            "--format", "json"]
    a = invoke(args)
    b = invoke(args)
    ok = a.exit_code == 0 and b.exit_code == 0 and a.output == b.output
    payload = json.loads(a.output)
    checks = payload["manifest"]["output_checksum"]
    _report(7, ok, f"two verify-vbound runs with identical seed and chunking "
                   f"produced byte-identical JSON (checksum {checks[:16]}...)")


def _bessel_cells():
    """(d, p2_cell, j2_cell, r, the j record's value_squared_up) for d = 2..200."""
    cells = []
    for d in range(2, 201):
        p_rec = first_p_root(d)
        j_rec = first_bessel_zero(0.5 * d - 1.0)
        p2, j2 = displayed_squares(p_rec, j_rec)
        cells.append((d, Fraction(p2), Fraction(j2),
                      Fraction(bessel_exact_from_records(p_rec, j_rec)),
                      j_rec.value_squared_up))
    return cells


def _certified(d, p2, j2, r, j_up):
    """Exact proof that p2 >= p^2, j2 <= j^2 and r >= p2 / j2.

    p2: the p-series is negative at p2/4 and positive at 0.  j2: the J-series
    is positive at j2/4 and negative at j_up/4, and no zero of J lies below
    that sign change.
    """
    nu = 0.5 * d - 1.0
    return (_exact_sign(0.5 * d, p2 / 4, RootFamily.P_ROOT) < 0
            and _exact_sign(nu, j2 / 4, RootFamily.J_ZERO) > 0
            and _exact_sign(nu, Fraction(j_up) / 4, RootFamily.J_ZERO) < 0
            and _first_zero_is_bracketed(nu, j_up)
            and r * j2 >= p2)


def _unit(cell):
    """One displayed unit (5 significant figures) of a table cell."""
    return Fraction(10) ** (decimal.Decimal(float(cell)).adjusted() - 4)


def test_criterion_8_bessel_cells_certified_exactly():
    t0 = time.perf_counter()
    cells = _bessel_cells()
    failures = [cell[0] for cell in cells if not _certified(*cell)]
    # moving any cell one displayed unit the unsafe way must break the proof
    survivors = [
        (d, which)
        for d, p2, j2, r, j_up in cells
        for which, moved in (("p2", (d, p2 - _unit(p2), j2, r, j_up)),
                             ("j2", (d, p2, j2 + _unit(j2), r, j_up)),
                             ("r", (d, p2, j2, r - Fraction(1, 10000), j_up)))
        if _certified(*moved)
    ]
    elapsed = time.perf_counter() - t0
    _report(8, not failures and not survivors,
            f"d in [2,200]: p^2 <= p2 cell, j^2 >= j2 cell and r >= p2/j2 "
            f"proven in exact arithmetic for all 199 rows; moving any cell one "
            f"displayed unit the unsafe way breaks the proof ({elapsed:.1f}s)"
            + (f"; uncertified {failures[:3]}" if failures else "")
            + (f"; mutants certified {survivors[:3]}" if survivors else ""))
