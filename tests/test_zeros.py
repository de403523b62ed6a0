"""First Bessel zeros and p-roots: frozen truths, certified squares, brackets.

The 22- and 25-digit literals come from mpmath.besseljzero / a 40-digit
Newton refinement of the p-root equation and are treated as exact for double
comparisons.
"""

import functools
import hashlib
import math
import random
from fractions import Fraction

import pytest
from exact_sign_reference import _SIGN_TERMS, _exact_sign
from hypothesis import given, settings
from hypothesis import strategies as st

import hotspots.zeros as zeros_mod
from hotspots import (
    AccuracyError,
    BesselZeroRecord,
    InfeasibleParameterError,
    RootFamily,
    bessel_j,
    first_bessel_zero,
    first_p_root,
)
from hotspots.zeros import _first_zero_is_bracketed, _p_series_falls_to

J_ZERO_TRUTH = {
    0.0: 2.404825557695772768622,
    0.5: math.pi,
    1.0: 3.831705970207512315614,
    49.0: 56.07290305114875261743,
}

# j_{nu,1} from mpmath.besseljzero at the float order (94.7 is not exact)
J_ZERO_ULP_TRUTH = {
    49.0: 56.07290305114875261743,
    54.0: 61.28747223860736462157,
    94.7: 103.3852919049485147008,
    99.0: 107.8081032971898339197,
    110.0: 119.1072650926870971191,
}

# low orders, where Lorch's bound or 3.8318 ends the j-zero's bracket, and
# p-roots across the table: j_{nu,1} from mpmath 1.3.0 besseljzero and
# p_{d/2,1} from its findroot, both at 40 digits
J_ZERO_LOW_ORDER_TRUTH = {
    0.05: 2.481543104371856879194184,
    0.5: 3.141592653589793238462643,
    1.0: 3.831705970207512315614436,
    2.65: 5.949523527396661955704126,
}
P_ROOT_TRUTH = {
    3: 2.08157597781810061053765,
    10: 3.34055075218013557964154,
    50: 7.144113085523979396848164,
    163: 12.80672158224892348337922,
    200: 14.1777959875383533628663,
}

# d -> p_{d/2,1} squared, frozen
P_SQUARED_TRUTH = {
    2: 3.3899577166718887269,
    3: 4.332958551429381685,
    4: 5.2895875270913581456,
    10: 11.159279327891269596,
    100: 101.0195930150863465,
}


def test_first_zero_matches_frozen_values():
    for nu, truth in J_ZERO_TRUTH.items():
        rec = first_bessel_zero(nu)
        assert rec.value == pytest.approx(truth, abs=1e-10)
        assert rec.family is RootFamily.J_ZERO
        assert rec.nu == nu


def test_first_zero_is_within_three_ulp_at_high_order():
    # the root's own accuracy: the certified squares are 2^-44 wide, far
    # coarser than the value they bracket
    for nu, truth in J_ZERO_ULP_TRUTH.items():
        value = first_bessel_zero(nu).value
        assert abs(value - truth) <= 3.0 * math.ulp(truth), (nu, value)


def test_low_order_zeros_and_p_roots_are_within_three_ulp():
    for nu, truth in J_ZERO_LOW_ORDER_TRUTH.items():
        value = first_bessel_zero(nu).value
        assert abs(value - truth) <= 3.0 * math.ulp(truth), (nu, value)
    for d, truth in P_ROOT_TRUTH.items():
        value = first_p_root(d).value
        assert abs(value - truth) <= 3.0 * math.ulp(truth), (d, value)


def test_p_root_squared_matches_frozen_values():
    for d, truth in P_SQUARED_TRUTH.items():
        rec = first_p_root(d)
        assert rec.value * rec.value == pytest.approx(truth, rel=1e-10)
        assert rec.value_squared_down <= truth <= rec.value_squared_up
        assert rec.family is RootFamily.P_ROOT
        assert rec.nu == 0.5 * d


def test_directed_interval_width():
    for nu in [0.0, 0.5, 3.0, 17.5, 49.0, 110.0]:
        rec = first_bessel_zero(nu)
        width = rec.value_squared_up - rec.value_squared_down
        assert 0.0 < width <= 1e-8 * rec.value * rec.value
    for d in [2, 3, 17, 100, 200]:
        rec = first_p_root(d)
        width = rec.value_squared_up - rec.value_squared_down
        assert 0.0 < width <= 1e-8 * rec.value * rec.value


def test_interval_contains_refined_truth():
    # refine each root far past the reported tolerance with 60 halvings of a
    # bracketing interval around the returned value, then check containment
    def refine(f, x0):
        h = 1e-6 * x0
        a, b = x0 - h, x0 + h
        fa, fb = f(a), f(b)
        assert fa * fb < 0.0, "refinement bracket must straddle the root"
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = f(m)
            if fm == 0.0:
                return m
            if fa * fm < 0.0:
                b, fb = m, fm
            else:
                a, fa = m, fm
        return 0.5 * (a + b)

    for nu in [0.0, 2.5, 30.0, 77.5]:
        rec = first_bessel_zero(nu)
        t = refine(lambda x: bessel_j(nu, x), rec.value)
        assert rec.value_squared_down <= t * t <= rec.value_squared_up

    for d in [2, 9, 121]:
        rec = first_p_root(d)
        half = 0.5 * d
        t = refine(
            lambda x: bessel_j(half, x) - x * bessel_j(half + 1.0, x),
            rec.value,
        )
        assert rec.value_squared_down <= t * t <= rec.value_squared_up


def test_first_zero_increases_with_order():
    grid = [0.5 * k for k in range(99)]  # 0, 0.5, ..., 49
    values = [first_bessel_zero(nu).value for nu in grid]
    for lo, hi in zip(values, values[1:]):
        assert lo < hi


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 4.0, 24.0])
def test_later_zeros_follow_one_another(nu):
    # each zero from the last, on the Sturm bracket, against scipy's zeros
    # (k pi at nu = 1/2, whose bracket has both ends at k pi)
    from scipy.special import jn_zeros

    truth = [math.pi * k for k in range(1, 41)] if nu == 0.5 else jn_zeros(int(nu), 40)
    zeros = [first_bessel_zero(nu).value]
    for k in range(2, 41):
        zeros.append(zeros_mod.next_bessel_zero(nu, zeros[-1], k))
    assert zeros == pytest.approx(list(truth), rel=4e-15, abs=0.0)


def test_a_later_zero_needs_proven_end_signs(monkeypatch):
    # float signs alone leave the bracket with some odd number of zeros
    import hotspots.specialfun as specialfun

    j_1 = first_bessel_zero(99.0).value
    zeros_mod.next_bessel_zero(99.0, j_1, 2)
    monkeypatch.setattr(specialfun, "proven_sign", lambda s, terms: 0)
    with pytest.raises(AccuracyError, match="one zero is not proven"):
        zeros_mod.next_bessel_zero(99.0, j_1, 2)


def test_a_later_zero_needs_a_bracket_under_two_spacings(monkeypatch):
    # at a third of the spacing, three zeros could fit in the bracket
    j_1 = first_bessel_zero(99.0).value
    spacing = zeros_mod.zero_spacing
    monkeypatch.setattr(zeros_mod, "zero_spacing", lambda nu: spacing(nu) / 3.0)
    with pytest.raises(AccuracyError, match="one zero is not proven"):
        zeros_mod.next_bessel_zero(99.0, j_1, 2)


def test_p_root_is_stationary_point_of_scaled_bessel():
    # p minimizes no functional, but x^{1-d/2} J_{d/2}(x) peaks there: the
    # centered difference quotient must vanish to discretization order
    for d in [2, 3, 7, 10, 50, 200]:
        rec = first_p_root(d)
        p = rec.value
        expo = 1.0 - 0.5 * d

        def big_f(x):
            return math.exp(expo * math.log(x)) * bessel_j(0.5 * d, x)

        h = 1e-5 * max(1.0, p)
        slope = (big_f(p + h) - big_f(p - h)) / (2.0 * h)
        curvature = (big_f(p + h) + big_f(p - h) - 2.0 * big_f(p)) / (h * h)
        assert curvature < 0.0
        # Newton step from p must be far below the root-finder tolerance scale
        assert abs(slope / curvature) <= 1e-6 * p


def test_p_root_below_first_zero():
    for d in [2, 3, 4, 10, 100, 200]:
        p = first_p_root(d).value
        j = first_bessel_zero(0.5 * d).value
        assert 0.0 < p < j


@settings(max_examples=30, deadline=None)
@given(nu=st.floats(min_value=0.0, max_value=110.0))
def test_record_invariants_hold_for_random_orders(nu):
    rec = first_bessel_zero(nu)
    sq = rec.value * rec.value
    assert rec.value_squared_down <= sq <= rec.value_squared_up
    assert rec.value_squared_up - rec.value_squared_down <= 1e-8 * sq


@settings(max_examples=20, deadline=None)
@given(d=st.integers(min_value=2, max_value=200))
def test_p_record_invariants_hold_for_random_dimensions(d):
    rec = first_p_root(d)
    sq = rec.value * rec.value
    assert rec.value_squared_down <= sq <= rec.value_squared_up
    assert d < sq < d + 2.0  # Szego-type sandwich


@pytest.mark.parametrize("nu", [-0.5, 110.5, math.nan])
def test_first_zero_rejects_bad_orders(nu):
    with pytest.raises(InfeasibleParameterError):
        first_bessel_zero(nu)


@pytest.mark.parametrize("nu", [True, False])
def test_first_zero_rejects_bool_orders(nu):
    with pytest.raises(InfeasibleParameterError) as info:
        first_bessel_zero(nu)
    assert str(info.value) == f"first_bessel_zero supports 0 <= nu <= 110, got {nu!r}"


@pytest.mark.parametrize("d", [1, 0, -3, 201, 2.5, True])
def test_p_root_rejects_bad_dimensions(d):
    with pytest.raises(InfeasibleParameterError):
        first_p_root(d)


def test_record_validation_guards():
    with pytest.raises(AccuracyError):
        BesselZeroRecord(nu=0.0, family=RootFamily.J_ZERO, value=2.4,
                         value_squared_up=5.0, value_squared_down=5.9)
    with pytest.raises(AccuracyError):
        BesselZeroRecord(nu=0.0, family=RootFamily.J_ZERO, value=-2.4,
                         value_squared_up=5.9, value_squared_down=5.0)


def test_every_record_construction_path_is_checked():
    # a record is a named tuple: positional, keyword, _make and _replace all
    # go through the checks
    rec = first_bessel_zero(0.0)
    fields = dict(zip(rec._fields, rec))
    assert BesselZeroRecord(*rec) == BesselZeroRecord(**fields) == BesselZeroRecord._make(rec)
    assert rec == tuple(rec) and rec[2] == rec.value
    missed = (rec.value_squared_down, rec.value_squared_down)  # both below value^2
    for make in (lambda: BesselZeroRecord(*rec[:3], *missed),
                 lambda: BesselZeroRecord(**{**fields, "value_squared_up": missed[0]}),
                 lambda: BesselZeroRecord._make(rec[:3] + missed),
                 lambda: rec._replace(value_squared_up=missed[0])):
        with pytest.raises(AccuracyError, match="does not contain"):
            make()
    with pytest.raises(AttributeError):
        rec.value = 3.0


def _digest(floats):
    """sha256 over repr of each float, one per line."""
    h = hashlib.sha256()
    for v in floats:
        h.update(f"{v!r}\n".encode())
    return h.hexdigest()


def _record_digest(records):
    return _digest(
        f
        for rec in records
        for f in (rec.value, rec.value_squared_up, rec.value_squared_down)
    )


def _squares_digest(records):
    return _digest(
        f for rec in records for f in (rec.value_squared_up, rec.value_squared_down))


TWENTIETHS = [k / 20 for k in range(2201)]  # nu = 0, 0.05, ..., 110


@functools.cache
def _twentieths_records():
    return tuple(first_bessel_zero(nu) for nu in TWENTIETHS)


class TestGoldenRecords:
    """sha256 of every root record's value, value_squared_up and
    value_squared_down, in order.

    These freeze each root's bracket, Brent's steps and the grid of
    certified squares bit for bit: a new bracket or a leaner J that moves
    any root or directed square by one ulp changes a digest.  The values
    were produced on x86-64 with CPython's libm; a platform whose lgamma,
    exp or log rounds differently would change them too.
    """

    def test_j_zeros_by_dimension(self):
        records = [first_bessel_zero(d / 2 - 1) for d in range(2, 201)]
        assert _record_digest(records) == (
            "4b080f4c2693c100198e21c8d4ab35633fd168ec6a4629fbe42c631ee540b7e5")

    def test_p_roots_by_dimension(self):
        records = [first_p_root(d) for d in range(2, 201)]
        assert _record_digest(records) == (
            "b09d1fb4e3aac75c8615e0d8f8771717cf00471b34cb821833988ac6159d9277")

    def test_j_zeros_on_twentieths(self):
        assert _record_digest(_twentieths_records()) == (
            "72e82bfe861126b00009ac9557185e8e2155ff0e4d86cc2183444e0b29d91b46")

    def test_directed_squares(self):
        # only the certified squares: a root finder that moves a value by an
        # ulp must leave the 2^-44 grid points around its square in place
        records = [*(first_p_root(d) for d in range(2, 201)),
                   *(first_bessel_zero(d / 2 - 1) for d in range(2, 201)),
                   *_twentieths_records()]
        assert _squares_digest(records) == (
            "81889fce0bf97a6c8d1b67cdfaf5a8614d7e521c9178505a517076204cb6e026")


def _unproven_j(nu, x, signs=None):
    """bessel_j that reports no proven sign."""
    return bessel_j(nu, x)


@pytest.fixture()
def j_calls(monkeypatch):
    calls = [0]

    def counting(nu, x, signs=None):
        calls[0] += 1
        return bessel_j(nu, x, signs)

    monkeypatch.setattr(zeros_mod, "bessel_j", counting)
    return calls


def _brackets(monkeypatch, find, args):
    """(f, lo, hi) that find(arg) hands to `_solve`, for each arg."""
    class Handed(Exception):
        pass

    def hand(f, lo, hi, what):
        raise Handed(f, lo, hi)

    monkeypatch.setattr(zeros_mod, "_solve", hand)
    brackets = []
    for arg in args:
        with pytest.raises(Handed) as info:
            find(arg)
        brackets.append(info.value.args)
    monkeypatch.undo()
    return brackets


class TestBrackets:
    """Each root is `_solve` on one bracket: its ends lie outside the
    certified squares, and the defining function is positive at the lower
    end and negative at the upper, in floats and in exact arithmetic."""

    @staticmethod
    def _check(records, brackets, family):
        for rec, (f, lo, hi) in zip(records, brackets, strict=True):
            lo_sq, hi_sq = Fraction(lo) ** 2, Fraction(hi) ** 2
            assert lo_sq < rec.value_squared_down, rec.nu
            assert hi_sq > rec.value_squared_up, rec.nu
            assert f(lo) > 0.0 > f(hi), rec.nu
            assert _exact_sign(rec.nu, lo_sq / 4, family) == 1, rec.nu
            assert _exact_sign(rec.nu, hi_sq / 4, family) == -1, rec.nu

    def test_j_zero_brackets(self, monkeypatch):
        brackets = _brackets(monkeypatch, first_bessel_zero, TWENTIETHS)
        assert len(brackets) == 2201
        self._check(_twentieths_records(), brackets, RootFamily.J_ZERO)

    def test_p_root_brackets(self, monkeypatch):
        dims = range(2, 201)
        records = [first_p_root(d) for d in dims]
        self._check(records, _brackets(monkeypatch, first_p_root, dims),
                    RootFamily.P_ROOT)


class TestQuWongStart:
    """Brent starts on the two-sided Qu-Wong bracket for nu >= 1."""

    def test_few_j_evaluations_at_d200(self, j_calls):
        first_bessel_zero(99.0)
        assert j_calls[0] <= 30  # a scan from sqrt(2nu+2) takes 397


class TestSingleEvaluation:
    """Brent's method takes few J or p-series evaluations; the p-root needs
    no J."""

    def test_j_zero_d200(self, j_calls):
        first_bessel_zero(99.0)
        assert j_calls[0] == 5

    def test_p_root_d200(self, j_calls):
        first_p_root(200)
        assert j_calls[0] == 0

    def test_few_j_evaluations_over_table_dimensions(self, j_calls):
        for d in range(2, 201):
            first_bessel_zero(d / 2 - 1)
        assert j_calls[0] <= 1200

    def test_few_p_series_evaluations_over_table_dimensions(self, monkeypatch):
        calls = [0]
        series = zeros_mod._p_series

        def counting(nu, z):
            calls[0] += 1
            return series(nu, z)

        monkeypatch.setattr(zeros_mod, "_p_series", counting)
        for d in range(2, 201):
            first_p_root(d)
        assert calls[0] <= 1350


class TestExactSign:
    """Signs of the two series in exact arithmetic (exact_sign_reference.py),
    and the records built on them."""

    def test_half_order_brackets_pi(self):
        # S_{1/2}(x^2/4) has the sign of sin(x); the 50-digit pair puts S near
        # e^-115, so the pass must run until the terms fall below that
        pi_50 = "3.14159265358979323846264338327950288419716939937510"
        for x, sign in [("3", 1), ("3.14159", 1), ("3.1416", -1), ("5", -1),
                        ("6.28318", -1), ("6.2832", 1),
                        (pi_50, 1), (pi_50 + "6", -1)]:
            z = Fraction(x) ** 2 / 4
            assert _exact_sign(0.5, z, RootFamily.J_ZERO) == sign, x

    def test_large_argument_is_decided(self):
        # the terms peak near e^894, beyond the float range;
        # sin(2 sqrt(z)) = 0.80, far from a zero
        z = 2e5
        expected = 1 if math.sin(2.0 * math.sqrt(z)) > 0.0 else -1
        assert _exact_sign(0.5, z, RootFamily.J_ZERO) == expected

    def test_undecided_beyond_the_term_cap(self):
        # the terms fall below |S| only past k = e sqrt(z) ~ 27,000
        assert _SIGN_TERMS < 27000
        for family in RootFamily:
            assert _exact_sign(0.5, 1e8, family) == 0

    def test_p_series_brackets_first_maximum_of_j1(self):
        # d = 2: the p-root is the first zero of J_1', 1.8411837813...
        for x, sign in [("1.84118", 1), ("1.84119", -1)]:
            z = Fraction(x) ** 2 / 4
            assert _exact_sign(1.0, z, RootFamily.P_ROOT) == sign, x

    def test_agrees_with_float_signs_away_from_zeros(self):
        for nu in (0.0, 0.5, 7.0, 49.5):
            for x in (0.5, 3.0, 11.0, 30.0, 60.0):
                value = bessel_j(nu, x)
                if abs(value) > 1e-6:
                    z = 0.25 * x * x
                    assert _exact_sign(nu, z, RootFamily.J_ZERO) == (
                        1 if value > 0.0 else -1), (nu, x)

    def test_p_roots_match_exact_bisection(self):
        # bisect z between the certified squares down to adjacent floats
        for d in (2, 3, 50, 163, 200):
            rec = first_p_root(d)
            lo, hi = 0.25 * rec.value_squared_down, 0.25 * rec.value_squared_up
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                if _exact_sign(rec.nu, mid, RootFamily.P_ROOT) > 0:
                    lo = mid
                else:
                    hi = mid
            assert rec.value == pytest.approx(2.0 * math.sqrt(lo), rel=1e-15), d

    def test_second_zero_is_not_taken_for_the_first(self):
        # a sign change below j_{0,2} = 5.5200781 could hide j_{0,1} = 2.4048
        assert _first_zero_is_bracketed(0.0, 2.41 ** 2)
        assert not _first_zero_is_bracketed(0.0, 5.53 ** 2)

    def test_p_series_fall_is_compared_exactly(self):
        # 3(nu+2)/5 at nu = 1 is 36/5, just below the float 7.2; in floats
        # 5 * nextafter(7.2, 0) rounds up to 36 and would fail the test
        below = math.nextafter(7.2, 0.0)
        assert 5.0 * below == 36.0
        assert _p_series_falls_to(1.0, below)
        assert not _p_series_falls_to(1.0, 7.2)

    def test_failed_sign_raises_at_once(self, monkeypatch):
        # one attempt at the first margin: a j-zero whose J proves no
        # positive sign, or a p-root with either end sign unproven, is
        # refused, and no wider bracket is tried
        def negative_only(nu, x, signs=None):
            proven = {}
            value = bessel_j(nu, x, proven)
            if signs is not None:
                signs.update((z, sign) for z, sign in proven.items() if sign < 0)
            return value

        monkeypatch.setattr(zeros_mod, "bessel_j", negative_only)
        with pytest.raises(AccuracyError, match="no exact sign change"):
            first_bessel_zero(3.0)

        p_sign = zeros_mod._p_sign
        for failed in (0, 1):  # the lower end's sign, then the upper end's
            calls = []

            def flaky(nu, z):
                calls.append(z)
                return 0 if len(calls) - 1 == failed else p_sign(nu, z)

            monkeypatch.setattr(zeros_mod, "_p_sign", flaky)
            with pytest.raises(AccuracyError, match="no exact sign change"):
                first_p_root(7)
            assert len(calls) == 2, failed


class TestProvenSigns:
    """The j-zero's squares rest only on the signs that Brent's own J
    evaluations prove; the p-root's on the two that `_p_sign` proves at the
    bracket's ends."""

    def test_reported_signs_are_exact(self, monkeypatch):
        reported = []

        def keeping(nu, x, signs=None):
            value = bessel_j(nu, x, signs)
            reported.append((nu, signs))
            return value

        monkeypatch.setattr(zeros_mod, "bessel_j", keeping)
        for d in range(2, 201):
            first_bessel_zero(d / 2 - 1)
        checked = {(nu, z, sign) for nu, signs in reported for z, sign in signs.items()}
        assert len(checked) > 1000
        for nu, z, sign in checked:
            assert _exact_sign(nu, z, RootFamily.J_ZERO) == sign, (nu, z)

    def test_unproven_signs_raise(self, monkeypatch):
        # nothing rescues a j-zero whose own J evaluations prove no sign
        monkeypatch.setattr(zeros_mod, "bessel_j", _unproven_j)
        for d in range(2, 201):
            with pytest.raises(AccuracyError, match="no exact sign change"):
                first_bessel_zero(d / 2 - 1)

    def test_signs_must_lie_in_the_bracket(self):
        rec = first_bessel_zero(3.0)
        sq = rec.value * rec.value
        down, up = rec.value_squared_down, rec.value_squared_up
        inside = [  # 4z of the positive sign, 4z of the negative one
            (down, up),  # the bracket's own ends
            (sq, math.nextafter(sq, math.inf)),  # the positive one at root^2
        ]
        outside = [
            (math.nextafter(down, 0.0), up),  # the positive one below sq_down
            (down, math.nextafter(up, math.inf)),  # the negative one above sq_up
            (math.nextafter(sq, math.inf), math.nextafter(sq, 0.0)),  # swapped
            (math.nextafter(sq, 0.0), down),  # both below root^2
            (up, math.nextafter(sq, math.inf)),  # both above root^2
        ]
        for positive, negative in inside:
            signs = {0.25 * positive: 1, 0.25 * negative: -1}
            assert zeros_mod._record(3.0, RootFamily.J_ZERO, rec.value, signs) == rec
        for positive, negative in outside:
            signs = {0.25 * positive: 1, 0.25 * negative: -1}
            with pytest.raises(AccuracyError, match="no exact sign change"):
                zeros_mod._record(3.0, RootFamily.J_ZERO, rec.value, signs)

    def test_one_rule_certifies_sampled_orders(self):
        # seeded orders across [0, 110], the extremes of the float range
        # and orders just off the integers: each j-zero's own signs
        # bracket it at the first margin
        rng = random.Random(40)
        orders = [rng.uniform(0.0, 110.0) for _ in range(2000)]
        orders += [5e-324, 1e-300, math.nextafter(110.0, 0.0)]
        orders += [k + 1e-12 for k in range(110)] + [k - 1e-12 for k in range(1, 111)]
        for nu in orders:
            rec = first_bessel_zero(nu)
            sq = rec.value * rec.value
            assert rec.value_squared_down < sq < rec.value_squared_up, nu
            assert rec.value_squared_up - rec.value_squared_down <= 1e-12 * sq, nu

    def test_p_end_signs_match_the_reference(self, monkeypatch):
        # each p-root is proven by one _p_sign call at each end of its
        # bracket, with the signs the reference's exact sums give
        proven = []
        p_sign = zeros_mod._p_sign

        def keeping(nu, z):
            proven.append((z, p_sign(nu, z)))
            return proven[-1][1]

        monkeypatch.setattr(zeros_mod, "_p_sign", keeping)
        for d in range(2, 201):
            proven.clear()
            rec = first_p_root(d)
            assert proven == [(0.25 * rec.value_squared_down, 1),
                              (0.25 * rec.value_squared_up, -1)], d
            for z, sign in proven:
                assert _exact_sign(rec.nu, z, RootFamily.P_ROOT) == sign, (d, z)
