"""Two-parameter bound: evaluation, the inner minimizer, and the finite-b form.

Frozen optimizer targets come from an independent 40-digit minimization of
the same objective (golden section at 1e-14 in multiprecision), evaluated
with the displayed 4-decimal ratio cells.
"""

import hashlib
import math
import random

import pytest

from hotspots import (
    BoundResult,
    FiniteHorizonConstraintError,
    InfeasibleParameterError,
    RatioKind,
    VKind,
    bound_value,
    finite_b_bound,
    log_v,
    optimal_a,
    optimize_bound,
    ratio_upper_bound,
)

# d -> (epsilon*, a*, minimum) with the displayed r(d) cells, improved V
OPTIMUM_TRUTH = {
    2: (0.09291, 1.00806, 5.1042175),
    3: (0.148508, 1.22054, 3.5287953),
    4: (0.190323, 1.43247, 3.0200000),
    10: (0.335921, 2.58464, 2.3313568),
    100: (0.689428, 16.2195, 1.8808529),
}


def _optimize(d, vkind=VKind.IMPROVED_VOGT, tolerance=1e-9):
    return optimize_bound(d, ratio_upper_bound(d, RatioKind.BESSEL_EXACT), vkind,
                          tolerance)


class TestBoundValue:
    def test_reference_point_d2(self):
        v = bound_value(2, 0.5862, VKind.IMPROVED_VOGT, 0.0929, 1.0081)
        assert v == pytest.approx(5.1043, abs=5e-4)
        assert v == pytest.approx(5.1042175062, rel=1e-9)

    def test_reference_point_d10(self):
        v = bound_value(10, 0.1939, VKind.IMPROVED_VOGT, 0.3359, 2.5846)
        assert v == pytest.approx(2.3314, abs=5e-4)

    def test_zero_a_closed_form(self):
        for d, r, eps in [(2, 0.5862, 0.1), (10, 0.1939, 0.4), (50, 0.07, 0.6)]:
            lv = log_v(VKind.IMPROVED_VOGT, eps, d)
            expect = 1.0 + r * math.exp(lv) / (1.0 - eps - r)
            assert bound_value(d, r, VKind.IMPROVED_VOGT, eps, 0.0) == pytest.approx(
                expect, rel=1e-14)

    def test_exceeds_one(self):
        assert bound_value(3, 0.4391, VKind.VOGT, 0.2, 1.5) > 1.0

    @pytest.mark.parametrize("r,eps,a", [
        (0.0, 0.1, 1.0), (1.0, 0.1, 1.0), (0.5, 0.0, 1.0),
        (0.5, 0.5, 1.0), (0.5, 0.6, 1.0), (0.5, 0.1, -0.5),
    ])
    def test_rejects_bad_parameters(self, r, eps, a):
        with pytest.raises(InfeasibleParameterError):
            bound_value(4, r, VKind.VOGT, eps, a)


class TestOptimalA:
    def test_closed_form(self):
        lv = log_v(VKind.VOGT, 0.3, 7)
        assert optimal_a(0.3, 0.25, lv) == pytest.approx(lv / 0.7, rel=1e-14)

    def test_is_stationary_point(self):
        # interior minimum of a -> bound_value(.., a); centered differences
        # with h in [1e-6, 1e-5] must straddle machine-level flatness
        for d, eps in [(2, 0.0929), (10, 0.3359), (100, 0.6894)]:
            r = ratio_upper_bound(d, RatioKind.BESSEL_EXACT)
            lv = log_v(VKind.IMPROVED_VOGT, eps, d)
            a_star = optimal_a(eps, r, lv)
            f = lambda a: bound_value(d, r, VKind.IMPROVED_VOGT, eps, a)
            for h in (1e-5, 1e-6):
                slope = (f(a_star + h) - f(a_star - h)) / (2.0 * h)
                assert abs(slope) <= 1e-6 * f(a_star)
            assert f(a_star) < f(a_star * 0.9)
            assert f(a_star) < f(a_star * 1.1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InfeasibleParameterError):
            optimal_a(0.5, 0.5, 1.0)
        with pytest.raises(InfeasibleParameterError):
            optimal_a(0.0, 0.5, 1.0)
        with pytest.raises(InfeasibleParameterError):
            optimal_a(0.3, 0.5, -0.1)


class TestOptimize:
    def test_reference_dimensions(self):
        for d, (eps_t, a_t, bound_t) in OPTIMUM_TRUTH.items():
            res = _optimize(d)
            assert res.bound == pytest.approx(bound_t, abs=1e-3)
            assert res.bound == pytest.approx(bound_t, rel=3e-7)
            assert res.epsilon_star == pytest.approx(eps_t, abs=5e-3)
            assert res.a_star == pytest.approx(a_t, abs=5e-3)
            assert res.evaluations > 0
            assert isinstance(res, BoundResult)

    def test_every_result_construction_path_is_checked(self):
        res = _optimize(3)
        fields = dict(zip(res._fields, res))
        assert BoundResult(*res) == BoundResult(**fields) == BoundResult._make(res) == res
        for make in (lambda: BoundResult(*res[:4], 1.0, *res[5:]),
                     lambda: BoundResult(**{**fields, "bound": 1.0}),
                     lambda: BoundResult._make(res[:4] + (1.0,) + res[5:]),
                     lambda: res._replace(bound=1.0)):
            with pytest.raises(InfeasibleParameterError, match="bound must exceed 1"):
                make()

    def test_optimum_dominates_grid(self):
        rng = random.Random(7)
        for _ in range(5):
            d = rng.randint(2, 200)
            vkind = rng.choice([VKind.VOGT, VKind.IMPROVED_VOGT])
            res = _optimize(d, vkind)
            r = res.r
            grid_best = math.inf
            for i in range(60):
                eps = (1.0 - r) * (i + 0.5) / 60.0
                lv = log_v(vkind, eps, d)
                a = optimal_a(eps, r, lv)
                grid_best = min(grid_best, bound_value(d, r, vkind, eps, a))
            assert res.bound <= grid_best + 1e-9

    def test_self_consistent_minimum(self):
        res = _optimize(3)
        direct = bound_value(3, res.r, VKind.IMPROVED_VOGT, res.epsilon_star,
                             res.a_star)
        assert res.bound == pytest.approx(direct, rel=1e-12)

    def test_vogt_never_beats_improved(self):
        for d in (2, 10, 100):
            v = _optimize(d, VKind.VOGT).bound
            iv = _optimize(d, VKind.IMPROVED_VOGT).bound
            assert iv <= v + 1e-12

    def test_tolerance_validation(self):
        with pytest.raises(InfeasibleParameterError):
            _optimize(3, tolerance=1e-13)
        with pytest.raises(InfeasibleParameterError):
            _optimize(3, tolerance=0.5)

    def test_custom_ratio_query(self):
        res = optimize_bound(7, 0.3, VKind.VOGT)
        assert res.bound > 1.0
        assert res.r == 0.3

    def test_custom_table_bounds_the_epsilon_search(self):
        # the table starts above 1e-6 and ends above 1 - r: golden section
        # searches [0.1, 1 - r - 1e-6] instead of stepping outside the table
        table = ((0.1, 1.0), (0.9, 2.0))
        res = optimize_bound(5, 0.5, VKind.CUSTOM, vtable=table)
        assert 0.1 <= res.epsilon_star <= 0.5
        lv = log_v(VKind.CUSTOM, res.epsilon_star, 5, table=table)
        assert res.bound == bound_value(5, 0.5, VKind.CUSTOM, res.epsilon_star,
                                        optimal_a(res.epsilon_star, 0.5, lv),
                                        vtable=table)
        grid = [0.1 + 0.4 * i / 400 for i in range(400)]
        grid_best = min(bound_value(5, 0.5, VKind.CUSTOM, e,
                                    optimal_a(e, 0.5, log_v(VKind.CUSTOM, e, 5, table=table)),
                                    vtable=table) for e in grid)
        # the minimum sits on the table's first epsilon; golden section stops
        # within its 1e-9 tolerance of it, where the objective's slope is ~10
        assert res.bound <= grid_best + 1e-8

    def test_custom_table_beyond_the_feasible_interval_is_infeasible(self):
        with pytest.raises(InfeasibleParameterError, match="V table"):
            optimize_bound(5, 0.95, VKind.CUSTOM, vtable=((0.1, 1.0), (0.9, 2.0)))

    @pytest.mark.parametrize("vkind, d, message", [
        (VKind.CUSTOM, 5, "custom V kind needs a (epsilon, log V) table"),
        (VKind.IMPROVED_VOGT, 201, "improved Vogt V supports d <= 200, got 201"),
    ], ids=["missing-table", "improved-d201"])
    def test_the_v_curve_is_refused_before_an_empty_interval(self, vkind, d, message):
        # r = 0.999999 leaves no epsilon to search, but the curve comes first
        with pytest.raises(InfeasibleParameterError) as info:
            optimize_bound(d, 0.999999, vkind)
        assert str(info.value) == message

    @pytest.mark.parametrize("table, message", [
        # a negative ln V is refused by the table check, before the search
        # takes its first step
        (((0.1, -1.0), (0.9, -0.5)), "table log V must be >= 0, got -1.0"),
        (((0.1, 1e6), (0.9, 1e6)), "r*a too large; e^{ra} overflows"),
    ], ids=["negative-log-v", "overflowing-ra"])
    def test_refusals_inside_the_search(self, table, message):
        with pytest.raises(InfeasibleParameterError) as info:
            optimize_bound(5, 0.3, VKind.CUSTOM, 1e-9, table)
        assert str(info.value) == message


class TestFiniteB:
    def test_b_equals_a_collapses_integral_term(self):
        # a must exceed ln V / rho so the denominator weight stays below 1
        d, r, eps, a = 2, 0.5862, 0.0929, 3.0
        lv = log_v(VKind.IMPROVED_VOGT, eps, d)
        rho = 1.0 - eps - r
        w = math.exp(lv - rho * a)
        assert w < 1.0
        expect = (math.exp(r * a) - w) / (1.0 - w)
        got = finite_b_bound(d, r, VKind.IMPROVED_VOGT, eps, eps, a, a)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_reference_convergence_at_b50(self):
        d, r, eps, a = 2, 0.5862, 0.0929, 1.0081
        limit = bound_value(d, r, VKind.IMPROVED_VOGT, eps, a)
        got = finite_b_bound(d, r, VKind.IMPROVED_VOGT, eps, eps, a, 50.0)
        assert abs(got - limit) < 1e-6

    def test_converges_to_infinite_horizon(self):
        # draw moderate dimensions and deltas so ln V(delta) stays well under
        # the e^-40 horizon margin; the deviation is then ~ e^{ln V - rho b}
        rng = random.Random(21)
        for _ in range(4):
            d = rng.randint(2, 40)
            r = rng.uniform(0.02, 0.4)
            eps = rng.uniform(0.15, 0.8) * (1.0 - r)
            # delta >= eps: rho(delta) is then the binding decay rate
            delta = rng.uniform(eps, 0.9 * (1.0 - r))
            lv = log_v(VKind.VOGT, eps, d)
            a = optimal_a(eps, r, lv)
            rho_delta = 1.0 - delta - r
            b = max(a, 40.0 / rho_delta)
            got = finite_b_bound(d, r, VKind.VOGT, eps, delta, a, b)
            limit = bound_value(d, r, VKind.VOGT, eps, a)
            assert got == pytest.approx(limit, rel=1e-8)

    def test_denominator_weight_constraint(self):
        # V(delta) e^{-(1-delta-r) b} >= 1 must be rejected distinctly
        with pytest.raises(FiniteHorizonConstraintError):
            finite_b_bound(2, 0.5862, VKind.IMPROVED_VOGT, 0.0929, 0.0929, 0.1, 0.1)
        assert issubclass(FiniteHorizonConstraintError, InfeasibleParameterError)

    def test_params_validation(self):
        with pytest.raises(InfeasibleParameterError):
            finite_b_bound(2, 0.3, VKind.VOGT, 0.0, 0.5, 1.0, 2.0)
        with pytest.raises(InfeasibleParameterError):
            finite_b_bound(2, 0.3, VKind.VOGT, 0.5, 1.5, 1.0, 2.0)
        with pytest.raises(InfeasibleParameterError):
            finite_b_bound(2, 0.3, VKind.VOGT, 0.5, 0.5, 2.0, 1.0)
        with pytest.raises(InfeasibleParameterError):
            finite_b_bound(2, 0.3, VKind.VOGT, 0.5, 0.5, -1.0, 1.0)


class TestGoldenOptimize:
    """sha256 over optimize_bound's epsilon_star, a_star, bound and
    evaluations for every case below, in order.

    The cases cross d in {2, 3, 5, 10, 50, 200} with the ratios closed, 4overd
    (d >= 5 only) and custom 0.3, the V-functions Vogt, improved Vogt and a
    custom table, and golden-section tolerances 1e-9 .. 1e-6.  The digest
    freezes the minimizer bit for bit; it was produced on x86-64 with
    CPython's libm.
    """

    DIMS = (2, 3, 5, 10, 50, 200)
    TOLERANCES = (1e-9, 1e-8, 1e-7, 1e-6)
    # uneven nodes: the minimum falls inside a segment for some cases, on a
    # node for most, and on the last node for d = 200 with the smallest ratios
    TABLE_EPS = (0.01, 0.03, 0.07, 0.15, 0.3, 0.5, 0.75)

    @classmethod
    def _table(cls, d):
        """Vogt-shaped log V, scaled by 0.9, on TABLE_EPS."""
        return tuple((e, 0.9 * log_v(VKind.VOGT, e, d)) for e in cls.TABLE_EPS)

    @classmethod
    def _cases(cls):
        for d in cls.DIMS:
            ratios = [ratio_upper_bound(d, RatioKind.CLOSED_FORM)]
            if d >= 5:
                ratios.append(ratio_upper_bound(d, RatioKind.ASYMPTOTIC_4_OVER_D))
            ratios.append(ratio_upper_bound(d, RatioKind.CUSTOM, custom_value=0.3))
            for ratio in ratios:
                for vkind, vtable in ((VKind.VOGT, None),
                                      (VKind.IMPROVED_VOGT, None),
                                      (VKind.CUSTOM, cls._table(d))):
                    for tol in cls.TOLERANCES:
                        yield d, ratio, vkind, tol, vtable

    def test_values(self):
        h = hashlib.sha256()
        n = 0
        for q in self._cases():
            res = optimize_bound(*q)
            h.update(f"{res.epsilon_star!r} {res.a_star!r} {res.bound!r} "
                     f"{res.evaluations}\n".encode())
            n += 1
        assert n == 192
        assert h.hexdigest() == (
            "da17b2a229ad4735dd7e6b393aae0d7f7a98b2fd3fe9582b88e9b049fcbdcb23")
