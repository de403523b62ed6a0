"""The sqrt(e) parameter family: limits, feasibility, and the exact e^{1/2} term."""

import math

import pytest

from hotspots import (
    InfeasibleParameterError,
    VKind,
    asymptotic_bound,
    feasible_threshold,
    log_v,
    sweep,
)
import hotspots.asymptotic as asymptotic_mod
from hotspots.asymptotic import A_SLOPE, _one_minus_eps, epsilon_d, is_feasible

SQRT_E = math.sqrt(math.e)


def _second_term(d: int, c: float = 1.0, alpha: float = -0.5) -> float:
    """Reconstruct the correction term (stable 1-eps form, as documented)."""
    r = 4.0 / d
    a = A_SLOPE * d
    eps = epsilon_d(c, alpha, d)
    one_minus = _one_minus_eps(c, alpha, d)
    rho = one_minus - r
    lv = log_v(VKind.VOGT, eps, d)
    ra = 4.0 * A_SLOPE
    return math.exp(ra + math.log(r) + lv - math.log(rho) - one_minus * a)


def test_million_dimension_value():
    v = asymptotic_bound(10**6)
    assert SQRT_E < v < 1.66
    assert v == pytest.approx(1.65409735111, rel=1e-9)


def test_leading_term_is_exact_exp_half():
    # the r*a product is formed as 4k so the leading exponential carries no
    # dimension-dependent rounding: subtracting the reconstructed correction
    # must recover exp(0.5) bit-for-bit
    for d in (10, 1000, 10**6, 10**8):
        assert asymptotic_bound(d) == math.exp(0.5) + _second_term(d)


def test_decreases_along_reference_dimensions():
    b4 = asymptotic_bound(10**4)
    b6 = asymptotic_bound(10**6)
    b8 = asymptotic_bound(10**8)
    assert b8 < b6 < b4


def test_hundred_million_within_one_percent_of_sqrt_e():
    v = asymptotic_bound(10**8)
    assert v > SQRT_E
    assert (v - SQRT_E) / SQRT_E < 0.01


def test_always_above_sqrt_e():
    for d in (10, 11, 17, 100, 10**4, 10**7):
        assert asymptotic_bound(d) > SQRT_E


def test_default_feasibility_threshold():
    assert feasible_threshold() == 10
    assert not is_feasible(1.0, -0.5, 9)
    assert is_feasible(1.0, -0.5, 10)


def test_infeasible_dimension_raises():
    with pytest.raises(InfeasibleParameterError):
        asymptotic_bound(9)


def test_epsilon_d_shape():
    # eps_d = (1 + c d^alpha)^{-2} lies in (0, 1) and increases with d for
    # alpha < 0
    vals = [epsilon_d(1.0, -0.5, d) for d in (5, 10, 100, 10**6)]
    assert all(0.0 < v < 1.0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert a < b


def test_sweep_matches_pointwise():
    ds = [10, 100, 100, 4000]
    rows = sweep(ds)
    assert [d for d, _ in rows] == ds
    for d, v in rows:
        assert v == asymptotic_bound(d)


def test_sweep_trivia():
    assert sweep([]) == []
    rows = sweep([12, 12])
    assert rows[0] == rows[1]


def test_nondefault_family():
    v = asymptotic_bound(10**6, 2.0, -0.6)
    assert v > SQRT_E
    t = feasible_threshold(2.0, -0.6)
    assert t >= 5
    with pytest.raises(InfeasibleParameterError):
        asymptotic_bound(t - 1, 2.0, -0.6)
    assert asymptotic_bound(t, 2.0, -0.6) > SQRT_E


def _linear_threshold(c, alpha):
    """The first feasible d by scanning d = 5, 6, ... up to the cap, or None."""
    for d in range(5, asymptotic_mod._FEASIBLE_SCAN_CAP + 1):
        if is_feasible(c, alpha, d):
            return d
    return None


def _bisected_threshold(c, alpha):
    try:
        return feasible_threshold(c, alpha)
    except InfeasibleParameterError as exc:
        assert f"no feasible dimension up to {asymptotic_mod._FEASIBLE_SCAN_CAP}" in str(exc)
        return None


def test_threshold_bisection_matches_linear_scan(monkeypatch):
    # a small cap keeps the scans cheap; 200 pairs, about a third infeasible
    # up to the cap, a third feasible at d = 5 and the rest in between
    monkeypatch.setattr(asymptotic_mod, "_FEASIBLE_SCAN_CAP", 5000)
    alphas = [-0.99, -0.95, -0.9, -0.85, -0.8, -0.75, -0.7, -0.65, -0.6, -0.5]
    outcomes = []
    for i in range(20):
        c = 0.02 * 2500.0 ** (i / 19)
        for alpha in alphas:
            expected = _linear_threshold(c, alpha)
            assert _bisected_threshold(c, alpha) == expected, (c, alpha)
            outcomes.append(expected)
    assert outcomes.count(None) > 50 and outcomes.count(5) > 50
    assert len(set(outcomes)) > 40


@pytest.mark.parametrize("c,alpha", [(1.0, -0.5), (0.52, -0.9), (1.0, -0.99)])
def test_threshold_bisection_at_full_cap(c, alpha):
    # (0.52, -0.9) first becomes feasible near 7e5; (1, -0.99) never does
    assert _bisected_threshold(c, alpha) == _linear_threshold(c, alpha)


@pytest.mark.parametrize("kwargs", [
    {"d": 4}, {"d": 10, "c": 0.0}, {"d": 10, "c": -1.0},
    {"d": 10, "alpha": -0.4}, {"d": 10, "alpha": -1.0},
    {"d": 10, "alpha": math.nan}, {"d": True}, {"d": 10.5},
])
def test_params_validation(kwargs):
    with pytest.raises(InfeasibleParameterError):
        asymptotic_bound(**kwargs)
