"""KS, slope-fit, and unimodality-gap tests."""

import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as ss
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projlens import (
    dip_statistic,
    fit_loglog_slope,
    kolmogorov_sf,
    ks_p_value,
    ks_statistic,
    norm_cdf,
    two_sample_ks,
)

from _oracles import dip_lp_reference, kolmogorov_sf_series, two_point_dip


def test_ks_statistic_hand_values():
    uniform = lambda t: np.clip(t, 0.0, 1.0)
    assert ks_statistic([0.5], uniform) == pytest.approx(0.5, abs=1e-15)
    assert ks_statistic([0.25, 0.75], uniform) == pytest.approx(0.25, abs=1e-15)


def test_ks_statistic_matches_scipy():
    rng_local = np.random.default_rng(0)
    for _ in range(5):
        sample = rng_local.standard_normal(500)
        ours = ks_statistic(sample, norm_cdf)
        theirs = ss.kstest(sample, "norm").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)


def test_two_sample_ks_hand_and_scipy():
    assert two_sample_ks([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5, abs=1e-15)
    rng_local = np.random.default_rng(1)
    a = rng_local.standard_normal(300)
    b = rng_local.standard_normal(200) + 0.3
    assert two_sample_ks(a, b) == pytest.approx(ss.ks_2samp(a, b).statistic, abs=1e-12)


def test_kolmogorov_sf_matches_references():
    for t in (0.2, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
        assert kolmogorov_sf(t) == pytest.approx(float(sps.kolmogorov(t)), abs=1e-10)
        assert kolmogorov_sf(t) == pytest.approx(kolmogorov_sf_series(t), abs=1e-10)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0


def test_ks_p_value_wraps_tail():
    assert ks_p_value(0.05, 400) == pytest.approx(kolmogorov_sf(1.0), rel=1e-12)
    # 95% point of the limit law sits near 1.358/sqrt(n)
    assert ks_p_value(1.358 / math.sqrt(10**4), 10**4) == pytest.approx(0.05, abs=0.002)
    with pytest.raises(ValueError):
        ks_p_value(0.1, 0)


def test_loglog_fit_recovers_power_law():
    x = np.array([10.0, 100.0, 1000.0, 10000.0])
    slope, intercept = fit_loglog_slope(x, 3.0 * x**-0.5)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [0.0, 1.0])


def test_dip_atoms():
    assert dip_statistic([3.0, 3.0, 3.0]) == 0.0
    assert dip_statistic([0.0, 0.0, 1.0, 1.0]) == pytest.approx(0.25, abs=1e-12)
    assert dip_statistic([0.0, 1.0, 1.0, 1.0]) == pytest.approx(
        two_point_dip(0.25), abs=1e-12
    )
    # no small-sample shortcut: two and three points carry the floor too
    assert dip_statistic([0.0, 1.0]) == pytest.approx(two_point_dip(0.5), abs=1e-15)
    assert dip_statistic([0.0, 1.0, 1.0]) == pytest.approx(two_point_dip(1 / 3), abs=1e-15)
    # a span past the largest double
    huge = [-1e308] * 3 + [1e308] * 2
    assert dip_statistic(huge) == pytest.approx(two_point_dip(0.4), abs=1e-15)


def test_dip_tied_hand_values():
    # worked by hand from the per-mode band and shape constraints
    three = np.repeat([3.0, 4.0, 10.0], [1, 4, 6])
    assert dip_statistic(three) == pytest.approx(0.19480519480519481, abs=1e-9)
    skew = np.repeat([4.0, 8.0, 14.0], [1, 1, 6])
    assert dip_statistic(skew) == pytest.approx(0.075, abs=1e-9)


# ties come from a small integer grid; near ties stay out, as the LP oracle
# loses accuracy on them (test_dip_near_coincident_atoms covers them)
@given(st.lists(st.integers(0, 12).map(float), min_size=1, max_size=40))
@example([5.0])
@example([0.0, 1.0])
@example([0.0, 1.0, 1.0])
@settings(max_examples=60, deadline=None)
def test_dip_matches_reference_program(sample):
    vals, counts = np.unique(sample, return_counts=True)
    assert dip_statistic(sample) == pytest.approx(dip_lp_reference(vals, counts), abs=1e-9)


@pytest.mark.parametrize("n", [4, 9, 33, 200, 1000])
def test_dip_equally_spaced_staircase(n):
    # the jump midpoints fall on a line, so only half a jump is unavoidable
    assert dip_statistic(np.arange(n, dtype=float)) == pytest.approx(
        1 / (2 * n), abs=1e-14
    )


# two atoms 1e-9 of the span apart: a near tie, on which a linear-program
# fit of the dip once failed
_NEAR_TIE = [0.0, 7.0, 7.0, 9.0, 60.0, 0.0625, 5.960464477539063e-08]


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=24))
@example(_NEAR_TIE)
@settings(max_examples=60, deadline=None)
def test_dip_floor_and_ceiling(sample):
    arr = np.asarray(sample)
    got = dip_statistic(arr)
    assert 0.0 <= got <= 0.25 + 1e-12
    if np.unique(arr).size >= 2:
        # some tie group away from the mode forces half its jump
        assert got >= np.min(np.unique(arr, return_counts=True)[1]) / (2 * arr.size) - 1e-12


def test_dip_near_coincident_atoms():
    vals, counts = np.unique(_NEAR_TIE, return_counts=True)
    assert dip_statistic(_NEAR_TIE) == pytest.approx(dip_lp_reference(vals, counts), abs=1e-9)
    # pulling the tie apart by up to 1e-8 of the span moves the dip by
    # less than 1e-9
    tied = dip_statistic(_NEAR_TIE[:-1] + [0.0])
    for gap in np.geomspace(1e-10, 1e-8, 100):
        got = dip_statistic(_NEAR_TIE[:-1] + [60.0 * gap])
        assert got == pytest.approx(tied, abs=1e-9)


def test_dip_separates_unimodal_from_bimodal():
    rng_local = np.random.default_rng(2)
    unimodal = rng_local.standard_normal(5000)
    bimodal = np.concatenate(
        [rng_local.standard_normal(2500) - 10.0, rng_local.standard_normal(2500) + 10.0]
    )
    assert dip_statistic(unimodal) <= 0.02
    # smooth cluster flanks let the unimodal fit cut corners, so the value
    # lands below the two-atom limit of 0.25 but far above the unimodal one
    assert dip_statistic(bimodal) >= 0.15


def test_dip_large_normal_sample():
    # 2000 distinct values, every one scored: a normal sample's dip is
    # O(1/sqrt(n)), far below the bimodal values above
    rng_local = np.random.default_rng(3)
    sample = rng_local.standard_normal(2000)
    got = dip_statistic(sample)
    assert 0.0 <= got <= 0.05


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dip_refuses_non_finite_samples(bad):
    with pytest.raises(ValueError, match="finite"):
        dip_statistic([0.0, 1.0, bad])
