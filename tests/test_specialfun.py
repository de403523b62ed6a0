"""Bessel J and log-gamma: closed forms, recurrences, and oracle comparisons.

Reference values were frozen from a 40-digit multiprecision run (mpmath) and
cross-checked against scipy.special.jv; the tolerances below leave room for
the oracle's own last-digit noise.  The value contract of `bessel_j` is
|error| <= 1e-12 |J| + 3e-14 (see the module doc of hotspots.specialfun).
"""

import hashlib
import math
import random
import sys
import threading

import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspots import InfeasibleParameterError, bessel_j, log_gamma
from hotspots import specialfun
from hotspots.specialfun import (
    MAX_ARG,
    MAX_ORDER,
    _ladder,
    _neumann_ladder_top,
    _series_forecast,
)
from hotspots.zeros import first_bessel_zero

# (nu, x, J_nu(x)) frozen at 20 significant digits.
MPMATH_POINTS = [
    (60.0, 55.0, 0.019046683078586297318),
    (60.5, 80.0, -0.057143968509355303228),
    (110.0, 100.0, 0.0029718641631190758509),
    (110.0, 140.0, 0.085118962306915428949),
    (120.0, 118.0, 0.058607111378454567326),
    (35.5, 30.0, 0.0098738748061434751552),
    (80.0, 200.0, -0.013950091144558654835),
    (15.0, 3.0, 2.9076447624060238519e-10),
]

NU_GRID = [0.0, 0.5, 1.0, 2.5, 7.0, 15.5, 33.0, 60.0, 85.5, 110.0, 120.0]
X_GRID = [0.0, 0.25, 1.0, 4.0, 9.5, 20.0, 47.0, 83.0, 120.0, 200.0]


def _contract(ref):
    """The value contract's absolute tolerance at a reference value."""
    return 1e-12 * abs(ref) + 3e-14


class TestLogGamma:
    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    def test_ten(self):
        assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)

    def test_integers_one_two(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_upper_end(self):
        assert math.isfinite(log_gamma(500.0))

    @pytest.mark.parametrize("x", [0.0, -1.0, 500.0001, math.nan])
    def test_rejects_out_of_domain(self, x):
        with pytest.raises(InfeasibleParameterError):
            log_gamma(x)


class TestBesselClosedForms:
    """Half-integer orders reduce to trigonometric expressions."""

    XS = [0.3, 0.7, 1.3, 2.2, 3.5, 5.1, 8.0, 13.0, 21.0, 34.0, 55.0, 89.0, 144.0]

    def test_j_half(self):
        for x in self.XS:
            if abs(math.sin(x)) < 0.05:
                continue
            exact = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(exact, rel=1e-10)

    def test_j_three_halves(self):
        for x in self.XS:
            exact = math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))
            if abs(exact) < 0.01:
                continue
            assert bessel_j(1.5, x) == pytest.approx(exact, rel=1e-10)

    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(0.5, 0.0) == 0.0
        assert bessel_j(7.0, 0.0) == 0.0

    def test_vanishes_at_first_zero_of_j0(self):
        # j_{0,1} frozen at 22 digits; |J_0'| there is about 0.52
        assert abs(bessel_j(0.0, 2.404825557695772768622)) < 1e-13


class TestBesselAccuracy:
    def test_frozen_multiprecision_points(self):
        # relative to the value itself: none of these points is near a zero
        for nu, x, truth in MPMATH_POINTS:
            assert bessel_j(nu, x) == pytest.approx(truth, rel=3e-13), (nu, x)

    def test_against_scipy_grid(self):
        for nu in NU_GRID:
            for x in X_GRID:
                value = bessel_j(nu, x)
                ref = sp.jv(nu, x)
                assert abs(value - ref) <= _contract(ref), (nu, x, value, ref)

    def test_three_term_recurrence(self):
        # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x)
        for nu in [1.0, 5.5, 20.0, 60.5, 109.0]:
            for x in [0.5, 3.0, 10.0, 40.0, 90.0, 150.0]:
                lo = bessel_j(nu - 1.0, x)
                hi = bessel_j(nu + 1.0, x)
                mid = bessel_j(nu, x) * 2.0 * nu / x
                scale = max(abs(lo), abs(hi), abs(mid), 1e-280)
                assert abs(lo + hi - mid) <= 1e-11 * scale, (nu, x)

    def test_tiny_argument_leading_term(self):
        # scipy.jv flushes x below ~1e-303 to zero; check that regime against
        # the one-term series (x/2)^nu / Gamma(nu+1), exact to ~x^2/4 here
        for nu in (0.03125, 0.5, 3.0):
            for x in (2.2250738585072014e-308, 1e-306, 1e-280):
                lead = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
                assert bessel_j(nu, x) == pytest.approx(lead, rel=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(min_value=0.0, max_value=120.0),
        # scipy.jv flushes arguments below ~1e-303 to zero; stay above that
        x=st.one_of(st.just(0.0),
                    st.floats(min_value=1e-300, max_value=200.0)),
    )
    def test_tracks_scipy_everywhere(self, nu, x):
        ref = sp.jv(nu, x)
        assert abs(bessel_j(nu, x) - ref) <= _contract(ref)

    def test_contract_holds_at_max_arg(self):
        for nu in [0.25 * i for i in range(481)]:
            ref = sp.jv(nu, MAX_ARG)
            assert abs(bessel_j(nu, MAX_ARG) - ref) <= _contract(ref), nu

    @pytest.mark.parametrize("nu,x", [(-0.5, 1.0), (120.5, 1.0), (1.0, -0.1),
                                      (math.nan, 1.0), (1.0, math.inf),
                                      (0.0, math.nextafter(MAX_ARG, math.inf)),
                                      (0.5, 1e150), (7.0, 1e200)])
    def test_rejects_out_of_domain(self, nu, x):
        with pytest.raises(InfeasibleParameterError):
            bessel_j(nu, x)

    def test_deep_underflow_is_graceful(self):
        # far below the turning point: (x/2)^nu / Gamma(nu+1) ~ 1e-272
        assert 0.0 <= bessel_j(120.0, 0.5) < 1e-260
        assert bessel_j(90.0, 5e-300) == 0.0


class TestGoldenGrid:
    """sha256 over repr of bessel_j(nu, x) on nu = 0, 1.5, ..., 120 and
    x = 0.5, 1, ..., 140, in that order.

    The grid crosses the turning point x ~ nu for every order, so it runs
    both the ascending series and the Miller recurrence.  The digest freezes
    both bit for bit; it was produced on x86-64 with CPython's libm.
    """

    NUS = [1.5 * i for i in range(81)]
    XS = [0.5 * j for j in range(1, 281)]

    def test_grid_hits_both_regimes(self):
        series = sum(_series_forecast(nu, x)[1] <= 2e-14
                     for nu in self.NUS for x in self.XS)
        assert 0 < series < len(self.NUS) * len(self.XS)

    def test_values(self):
        h = hashlib.sha256()
        for nu in self.NUS:
            for x in self.XS:
                h.update(f"{bessel_j(nu, x)!r}\n".encode())
        assert h.hexdigest() == (
            "957108a12b14497754c76bf1424e2913709c25bc6d7c1ccb85f97754880619b8")


def _miller_regime(nu, x):
    return x > 0.0 and _series_forecast(nu, x)[1] > 2e-14


class TestGoldenLadders:
    """sha256 over repr of bessel_j(nu, x) on the Miller-regime points of
    nu = 0, 7.5, ..., 120 and x = 5, 10, ..., 700, in that order.

    TestGoldenGrid stops at x = 140; this grid reaches MAX_ORDER and MAX_ARG,
    where the recurrence ladder is longest (m_top up to 1,094 here), and
    freezes those values bit for bit.  Produced on x86-64 with CPython's libm.
    """

    NUS = [7.5 * i for i in range(17)]
    XS = [5.0 * j for j in range(1, 141)]

    def test_values(self):
        points = [(nu, x) for nu in self.NUS for x in self.XS
                  if _miller_regime(nu, x)]
        assert len(points) == 2244
        assert (0.0, MAX_ARG) in points and (MAX_ORDER, MAX_ARG) in points
        h = hashlib.sha256()
        for nu, x in points:
            h.update(f"{bessel_j(nu, x)!r}\n".encode())
        assert h.hexdigest() == (
            "74d9aa99b2fe96f1f11dc2da75c60d0b925945495bee98baeb8905815233c17b")


class TestOrderCache:
    """The per-order tables change no value, whatever order the calls come in.

    Each test evaluates TestGoldenGrid's points and requires the values that
    its digest freezes; `frozen` checks them against that digest first.
    """

    POINTS = [(nu, x) for nu in TestGoldenGrid.NUS for x in TestGoldenGrid.XS]

    @staticmethod
    def _assert_bounded():
        info = specialfun._order.cache_info()
        assert info.currsize <= info.maxsize

    @pytest.fixture(scope="class")
    def frozen(self):
        specialfun._order.cache_clear()
        values = [bessel_j(nu, x) for nu, x in self.POINTS]
        h = hashlib.sha256()
        for value in values:
            h.update(f"{value!r}\n".encode())
        assert h.hexdigest() == (
            "957108a12b14497754c76bf1424e2913709c25bc6d7c1ccb85f97754880619b8")
        return dict(zip(self.POINTS, values))

    def test_shuffled_order(self, frozen):
        points = list(self.POINTS)
        random.Random(16).shuffle(points)
        specialfun._order.cache_clear()
        for nu, x in points:
            assert bessel_j(nu, x) == frozen[nu, x], (nu, x)
        self._assert_bounded()

    def test_two_threads_on_interleaved_points(self, frozen):
        # the threads start each order together and alternate along its x
        # grid from x = 140 down, so both build its largest tables at once
        specialfun._order.cache_clear()
        xs = sorted(TestGoldenGrid.XS, reverse=True)
        results = [{}, {}]
        step = threading.Barrier(2, timeout=60)

        def work(i):
            for nu in TestGoldenGrid.NUS:
                step.wait()
                for x in xs[i::2]:
                    results[i][nu, x] = bessel_j(nu, x)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert {**results[0], **results[1]} == frozen
        self._assert_bounded()

    def test_back_to_an_evicted_order(self, frozen):
        specialfun._order.cache_clear()
        first = TestGoldenGrid.NUS[-1]
        points = [(nu, x) for nu, x in self.POINTS if nu == first]
        for nu, x in points:
            assert bessel_j(nu, x) == frozen[nu, x]
        # one Miller point at each of more orders than the cache holds
        maxsize = specialfun._order.cache_info().maxsize
        for nu in TestGoldenGrid.NUS[:maxsize + 1]:
            assert bessel_j(nu, 140.0) == frozen[nu, 140.0]
            self._assert_bounded()
        assert specialfun._order.cache_info().currsize == maxsize
        for nu, x in points + points:
            assert bessel_j(nu, x) == frozen[nu, x]

    def test_tables_match_the_inline_recurrence_at_any_order(self):
        # the golden grids use orders on a coarse binary grid, where nu + k
        # is exact; here nu has a full mantissa.  Tables built for one x and
        # tables grown over ascending x both give TestMillerHeadroom's
        # inline copy of the recurrence bit for bit.
        rng = random.Random(1604)
        for _ in range(40):
            nu = rng.uniform(0.0, MAX_ORDER)
            xs = sorted(rng.uniform(0.0, MAX_ARG) for _ in range(12))
            xs = [x for x in xs if _miller_regime(nu, x)]
            inline = [math.exp(_series_forecast(nu, x)[0])
                      * TestMillerHeadroom._peak(nu, x)[1] for x in xs]
            fresh = []
            for x in xs:
                specialfun._order.cache_clear()
                fresh.append(bessel_j(nu, x))
            assert fresh == inline, nu
            specialfun._order.cache_clear()
            assert [bessel_j(nu, x) for x in xs] == inline, nu

    def test_cached_rung_terms_give_the_inline_log_rel(self):
        # bit for bit, not only the same pass or fail
        rng = random.Random(40)
        for _ in range(3000):
            nu, x = rng.uniform(0.0, MAX_ORDER), rng.uniform(1e-3, MAX_ARG)
            k = rng.randrange(1, 2000)
            lhalf = math.log(0.5 * x)
            head, tail = specialfun._Order(nu).rung(k)
            assert head + 2.0 * k * lhalf - tail == (
                math.log(nu + 2.0 * k) + math.lgamma(nu + k) - math.lgamma(k + 1.0)
                + 2.0 * k * lhalf - math.lgamma(nu + 2.0 * k + 1.0)), (nu, x, k)


def _ladder_start(nu, x):
    return max(1, int(0.5 * max(0.0, x - nu)) + 1)


def _rung_passes(nu, x):
    """The walk's test: is the k-th Neumann term below e^-40 of the sum?"""
    lhalf = math.log(0.5 * x)

    def passes(k):
        log_rel = (
            math.log(nu + 2.0 * k)
            + math.lgamma(nu + k)
            - math.lgamma(k + 1.0)
            + 2.0 * k * lhalf
            - math.lgamma(nu + 2.0 * k + 1.0)
        )
        return log_rel <= -40.0

    return passes


def _walk_ladder_top(nu, x):
    """The rung-by-rung walk that _neumann_ladder_top's search replaces."""
    passes = _rung_passes(nu, x)
    k = _ladder_start(nu, x)
    while not passes(k):
        k += max(1, k // 8)
    return 2 * k


class TestLadderTop:
    """The searched ladder top equals the walk's on the Miller regime."""

    def test_matches_walk_in_the_jzero_searches(self, monkeypatch):
        seen = []
        real = specialfun._miller

        def spy(nu, x, log_pref):
            seen.append((nu, x))
            return real(nu, x, log_pref)

        monkeypatch.setattr(specialfun, "_miller", spy)
        for d in range(2, 201):
            first_bessel_zero(0.5 * d - 1.0)
        assert len(seen) > 1000
        for nu, x in seen:
            assert _neumann_ladder_top(nu, x) == _walk_ladder_top(nu, x), (nu, x)

    # every order and argument step, from the series/Miller switch near
    # x = 3.4 up to MAX_ARG, with both ends of the order range
    NUS = [0.0, 1e-3, 0.5, 1.0, 2.5, 7.0, 15.5, 33.0, 60.0, 85.5, 110.0,
           119.75, MAX_ORDER]
    DENSE_GRID = ([(nu, 0.125 * j) for nu in NUS for j in range(1, 81)]
                  + [(nu, 0.5 * j) for nu in NUS for j in range(21, 1401)])

    def test_matches_walk_on_a_dense_grid(self):
        checked = 0
        for nu, x in self.DENSE_GRID:
            if _miller_regime(nu, x):
                assert _neumann_ladder_top(nu, x) == _walk_ladder_top(nu, x), (nu, x)
                checked += 1
        assert checked > 15000

    def test_matches_walk_on_random_points(self):
        rng = random.Random(2024)
        points = [(rng.uniform(0.0, MAX_ORDER), rng.uniform(0.0, MAX_ARG))
                  for _ in range(6000)]
        points += [(rng.uniform(0.0, MAX_ORDER), rng.uniform(0.0, 6.0))
                   for _ in range(3000)]
        checked = 0
        for nu, x in points:
            if _miller_regime(nu, x):
                assert _neumann_ladder_top(nu, x) == _walk_ladder_top(nu, x), (nu, x)
                checked += 1
        assert checked > 5000

    def test_first_rung_past_the_per_x_cap_passes(self):
        # _neumann_ladder_top searches up to the first rung >= max(20, e^1.5 x/2)
        # and needs it to pass; the rungs after it then pass too (a suffix)
        checked = 0
        for nu, x in self.DENSE_GRID:
            if _miller_regime(nu, x):
                rungs = _ladder(_ladder_start(nu, x))
                cap = next(k for k in rungs if k >= max(20.0, math.exp(1.5) * 0.5 * x))
                assert _rung_passes(nu, x)(cap), (nu, x, cap)
                checked += 1
        assert (MAX_ORDER, MAX_ARG) in self.DENSE_GRID
        assert checked > 15000


class TestMillerHeadroom:
    """The unnormalized recurrence stays far below the float range, so
    _miller needs no rescaling (see its docstring)."""

    @staticmethod
    def _peak(nu, x):
        """_miller's recurrence, tracking its largest |value|; returns
        (peak, normalized J) so the copy can be checked against _miller."""
        m_seed = int(math.ceil(max(nu, x) + 6.0 * x ** (1.0 / 3.0) + 30.0 - nu))
        m_top = max(_neumann_ladder_top(nu, x), m_seed)
        m_top += m_top % 2
        j_up, j_cur, peak = 0.0, 1e-250, 1e-250
        even = []
        for m in range(m_top, 0, -2):
            j_up = (2.0 * (nu + m) / x) * j_cur - j_up
            j_cur = (2.0 * (nu + (m - 1)) / x) * j_up - j_cur
            even.append(j_cur)
            peak = max(peak, abs(j_up), abs(j_cur))
        even.reverse()
        w = nu + 2.0
        ssum = even[0] + w * even[1]
        for k in range(2, len(even)):
            w = w * (nu + 2.0 * k) * (nu + k - 1.0) / ((nu + 2.0 * k - 2.0) * k)
            ssum += w * even[k]
        return peak, j_cur / ssum

    def test_peak_below_1e_minus_100(self):
        nus = [0.0, 0.5, 33.0, 60.0, 119.5, MAX_ORDER]
        points = [(nu, 2.5 * j) for nu in nus for j in range(1, 281)]
        points.append((MAX_ORDER, 645.5))  # the largest peak of a dense scan
        checked = 0
        for nu, x in points:
            if not _miller_regime(nu, x):
                continue
            peak, ratio = self._peak(nu, x)
            log_pref = _series_forecast(nu, x)[0]
            # the copy is _miller bit for bit, so this is _miller's peak
            assert math.exp(log_pref) * ratio == bessel_j(nu, x), (nu, x)
            assert peak < 1e-100, (nu, x, peak)
            checked += 1
        assert checked > 1400
