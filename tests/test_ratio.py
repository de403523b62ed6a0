"""The ratio upper bound r(d): displayed-cell pipeline, kinds, and ordering."""

import pytest

from hotspots import InfeasibleParameterError, RatioKind, ratio_upper_bound
from hotspots.ratio import bessel_exact_from_records, displayed_squares
from hotspots.zeros import first_bessel_zero, first_p_root

# frozen displayed values for the reference dimensions
BESSEL_CELLS = {2: 0.5862, 3: 0.4391, 4: 0.3604, 10: 0.1939, 100: 0.0322}


def test_bessel_exact_reference_dimensions():
    for d, cell in BESSEL_CELLS.items():
        r = ratio_upper_bound(d, RatioKind.BESSEL_EXACT)
        assert r == pytest.approx(cell, abs=1e-12)


def test_closed_form_small_dimension():
    assert ratio_upper_bound(2, RatioKind.CLOSED_FORM) == pytest.approx(0.8, abs=1e-12)


def test_closed_form_times_d_approaches_four():
    r = ratio_upper_bound(1000, RatioKind.CLOSED_FORM)
    assert r * 1000 == pytest.approx(4.0, rel=0.01)


def test_displayed_squares_round_outward():
    p_rec = first_p_root(10)
    j_rec = first_bessel_zero(4.0)
    p2, j2 = displayed_squares(p_rec, j_rec)
    # 5 significant figures, p^2 up and j^2 down
    assert p2 == pytest.approx(11.160, abs=1e-12)
    assert j2 == pytest.approx(57.582, abs=1e-12)
    assert p2 >= p_rec.value ** 2
    assert j2 <= j_rec.value ** 2


def test_from_records_matches_kind_dispatch():
    for d in (2, 7, 100):
        p_rec = first_p_root(d)
        j_rec = first_bessel_zero(0.5 * d - 1.0)
        direct = bessel_exact_from_records(p_rec, j_rec)
        assert direct == ratio_upper_bound(d, RatioKind.BESSEL_EXACT)


def test_bessel_value_is_rigorous_upper_bound():
    # each display step rounds the quotient upward, so the cell dominates the
    # full-precision ratio
    for d in (2, 3, 4, 10, 55, 100, 200):
        p_rec = first_p_root(d)
        j_rec = first_bessel_zero(0.5 * d - 1.0)
        full = (p_rec.value / j_rec.value) ** 2
        assert ratio_upper_bound(d, RatioKind.BESSEL_EXACT) >= full


def test_ordering_of_kinds():
    for d in (5, 9, 20, 50, 111, 200):
        bessel = ratio_upper_bound(d, RatioKind.BESSEL_EXACT)
        closed = ratio_upper_bound(d, RatioKind.CLOSED_FORM)
        four = ratio_upper_bound(d, RatioKind.ASYMPTOTIC_4_OVER_D)
        assert bessel < closed < four
        assert four == 4.0 / d


def test_custom_passthrough():
    assert ratio_upper_bound(17, RatioKind.CUSTOM, custom_value=0.123) == 0.123


def test_four_over_d_needs_d_at_least_five():
    with pytest.raises(InfeasibleParameterError):
        ratio_upper_bound(4, RatioKind.ASYMPTOTIC_4_OVER_D)
    assert ratio_upper_bound(5, RatioKind.ASYMPTOTIC_4_OVER_D) == pytest.approx(0.8)


def test_custom_needs_value_in_unit_interval():
    with pytest.raises(InfeasibleParameterError):
        ratio_upper_bound(7, RatioKind.CUSTOM)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InfeasibleParameterError):
            ratio_upper_bound(7, RatioKind.CUSTOM, custom_value=bad)


@pytest.mark.parametrize("d", [1, 0, -2, 2.0, True, 201])
def test_rejects_bad_dimensions(d):
    with pytest.raises(InfeasibleParameterError):
        ratio_upper_bound(d, RatioKind.BESSEL_EXACT)
