"""Bessel J and log-gamma: closed forms, recurrences, and oracle comparisons.

Reference values were frozen from a 40-digit multiprecision run (mpmath) and
cross-checked against scipy.special.jv; the tolerances below leave room for
the oracle's own last-digit noise.  The value contract of `bessel_j` is
|error| <= 1e-12 |J| + 3e-14 (see the module doc of hotspots.specialfun).
"""

import hashlib
import math

import pytest
import scipy.special as sp
from exact_sign_reference import _exact_sign
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspots import InfeasibleParameterError, RootFamily, bessel_j, log_gamma, specialfun
from hotspots.specialfun import MAX_ARG, MAX_ORDER

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


class TestProvenSigns:
    """bessel_j reports the sign of S(x^2/4) where its fixed-point sum
    proves it (more than 4K units from 0), and returns the same value with
    or without the report."""

    def test_signs_match_exact_signs(self):
        for nu in NU_GRID:
            for x in X_GRID:
                signs = {}
                value = bessel_j(nu, x, signs)
                assert repr(value) == repr(bessel_j(nu, x)), (nu, x)
                if x > 0.0 and value != 0.0:
                    z = 0.25 * x * x
                    assert signs == {z: _exact_sign(nu, z, RootFamily.J_ZERO)}, (nu, x)

    def test_no_sign_without_a_sum(self):
        # x = 0 and a prefactor below e^-745 return before summing S
        for nu, x in [(0.0, 0.0), (3.0, 0.0), (90.0, 5e-300)]:
            signs = {}
            bessel_j(nu, x, signs)
            assert signs == {}, (nu, x)

    def test_a_sign_needs_more_than_the_proven_error(self):
        # a sum over K terms is off by under 4K units, so |s| = 4K proves nothing
        for terms in (1, 973):
            bound = 4 * terms
            assert [specialfun.proven_sign(s, terms)
                    for s in (-bound - 1, -bound, 0, bound, bound + 1)] == [-1, 0, 0, 0, 1]


class TestGoldenGrid:
    """sha256 over repr of bessel_j(nu, x) on nu = 0, 1.5, ..., 120 and
    x = 0.5, 1, ..., 140, in that order.

    The grid crosses the turning point x ~ nu for every order, where the
    series' terms cancel most.  The digest freezes every value bit for bit;
    it was produced on x86-64 with CPython's libm.
    """

    NUS = [1.5 * i for i in range(81)]
    XS = [0.5 * j for j in range(1, 281)]

    def test_values(self):
        h = hashlib.sha256()
        for nu in self.NUS:
            for x in self.XS:
                h.update(f"{bessel_j(nu, x)!r}\n".encode())
        assert h.hexdigest() == (
            "46e0d144328787c5291a36796d7a6f5ac65b0f513ae13ac5c796ad72508ca0a8")


class TestGoldenLadders:
    """sha256 over repr of bessel_j(nu, x) on nu = 0, 7.5, ..., 120 and
    x = 5, 10, ..., 700, in that order.

    TestGoldenGrid stops at x = 140; this grid reaches MAX_ORDER and MAX_ARG,
    where the series is longest (973 terms) and its ints widest (about 1,070
    bits), and freezes those values bit for bit.  Produced on x86-64 with
    CPython's libm.
    """

    NUS = [7.5 * i for i in range(17)]
    XS = [5.0 * j for j in range(1, 141)]

    def test_values(self):
        points = [(nu, x) for nu in self.NUS for x in self.XS]
        assert (0.0, MAX_ARG) in points and (MAX_ORDER, MAX_ARG) in points
        h = hashlib.sha256()
        for nu, x in points:
            h.update(f"{bessel_j(nu, x)!r}\n".encode())
        assert h.hexdigest() == (
            "2739f78e5ef8452385e333157486aa89ff2378a42a1aa8303a5a26f4891da42c")


class TestGuardBits:
    """The fixed-point sum's share of the error in J is proven below 2^-62
    (the module doc of hotspots.specialfun).  With 64 more guard bits the
    sum is exact to far below that, so a value may differ from it by that
    bound and the final quotient's and product's roundings.  The points
    reach x = MAX_ARG, where the series is longest and its ints widest, the
    j-zero of d=200 at (99, 108), the top of the root search at (109, 164),
    and the whole TestGoldenLadders grid.
    """

    POINTS = [(0.0, MAX_ARG), (MAX_ORDER, MAX_ARG), (99.0, 108.0),
              (109.0, 164.0),
              *((nu, x) for nu in TestGoldenLadders.NUS
                for x in TestGoldenLadders.XS)]

    def test_sum_error_bound(self, monkeypatch):
        values = [bessel_j(nu, x) for nu, x in self.POINTS]
        monkeypatch.setattr(specialfun, "_GUARD_BITS",
                            specialfun._GUARD_BITS + 64)
        for (nu, x), value in zip(self.POINTS, values):
            exact = bessel_j(nu, x)
            assert abs(value - exact) <= 2.0**-60 + 2 * math.ulp(exact), (
                nu, x, value, exact)
