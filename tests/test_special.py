"""Chi-square CDF tests against closed forms, scipy, mpmath and frozen MC counts."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from projlens import (
    Ball,
    MixtureModel,
    Profile,
    chisq_cdf,
    chisq_cdf_pairs,
    gamma_ppf,
    mixture_ball_mass,
    norm_cdf,
    nu_ball_mass,
    reg_lower_gamma,
)
from projlens.special import _convolved

from _oracles import chisq1_central_cdf, chisq2_central_cdf, normal_cdf

# frozen from a 1e7-sample shifted-Gaussian count oracle (seed 20260814)
MC_D2_L9_X1 = 0.0108592


def test_central_two_dof_closed_form():
    xs = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0])
    got = np.array([chisq_cdf(2, 0.0, x) for x in xs])
    assert np.max(np.abs(got - chisq2_central_cdf(xs))) < 1e-10
    assert chisq_cdf(2, 0.0, 1.0) == pytest.approx(0.3934693402873666, abs=1e-10)


def test_central_one_dof_error_function():
    xs = np.array([0.01, 0.2, 1.0, 3.0, 8.0])
    got = np.array([chisq_cdf(1, 0.0, x) for x in xs])
    assert np.max(np.abs(got - chisq1_central_cdf(xs))) < 1e-10
    assert chisq_cdf(1, 0.0, 1.0) == pytest.approx(0.682689492137086, abs=1e-10)


def test_noncentral_matches_frozen_mc_count():
    assert chisq_cdf(2, 9.0, 1.0) == pytest.approx(MC_D2_L9_X1, abs=0.003)


def test_matches_scipy_third_route():
    # independent reference besides the MC oracle
    for d in (1, 2, 5, 10):
        for lam in (0.0, 1.0, 9.0, 120.0):
            for x in (0.5, float(d), d + lam, 2 * (d + lam)):
                want = sps.chndtr(x, d, lam) if lam > 0 else sps.chdtr(d, x)
                assert chisq_cdf(d, lam, x) == pytest.approx(want, abs=1e-9)


def test_at_zero_and_below():
    assert chisq_cdf(3, 1.0, 0.0) == 0.0
    assert chisq_cdf(3, 1.0, -2.0) == 0.0


@pytest.mark.parametrize("d", [1, 2, 5, 10])
@pytest.mark.parametrize("lam", [0.0, 1.0, 9.0, 200.0])
def test_upper_range_reaches_one(d, lam):
    x = d + lam + 40.0 * math.sqrt(2 * d + 4 * lam)
    assert chisq_cdf(d, lam, x) >= 1 - 1e-6


@given(
    d=st.integers(1, 12),
    lam=st.floats(0.0, 400.0),
    x=st.floats(0.0, 500.0),
    dx=st.floats(0.0, 50.0),
)
@settings(max_examples=150, deadline=None)
def test_monotone_in_x_and_bounded(d, lam, x, dx):
    lo = chisq_cdf(d, lam, x)
    hi = chisq_cdf(d, lam, x + dx)
    assert 0.0 <= lo <= hi <= 1.0


# the Poisson mixture summed in 40-digit arithmetic (mpmath); most sit far
# below 1e-12, where any absolute tolerance would pass whatever comes back
LOWER_TAIL = [
    (1, 216.0, 0.125, 5.8596634810867307e-47),
    (1, 208.0, 0.0625, 6.8029911337044511e-46),
    (5, 400.0, 1.0, 1.8192710029204639e-83),
    (12, 300.0, 50.0, 3.618022457970055e-27),
    (2, 1500.0, 40.0, 4.6641497601480127e-231),
    (7, 900.0, 600.0, 9.7934863342586493e-9),
    (1, 6.0, 1e-100, 3.9724333178355353e-52),
    (4, 50.0, 1e-30, 1.7359929831205029e-72),
    (2, 40.0, 3.0, 1.089922701897293e-06),
]


def _pairs_at(d, lam, x):
    return float(chisq_cdf_pairs(d, np.array([lam]), np.array([x]))[0])


def _through_both(rows):
    # the scalar entry point keeps the plain row ids
    return [
        pytest.param(cdf, *row, id=prefix + "-".join(map(str, row)))
        for cdf, prefix in ((chisq_cdf, ""), (_pairs_at, "pairs-"))
        for row in rows
    ]


@pytest.mark.parametrize("cdf, d, lam, x, want", _through_both(LOWER_TAIL))
def test_lower_tail_relative_accuracy(cdf, d, lam, x, want):
    assert cdf(d, lam, x) == pytest.approx(want, rel=1e-12, abs=0.0)


# 40-digit mpmath values where earlier hand-built code branched: lam from
# 700 up to 1e4, x near 0, and lam near 0
EDGE_BRANCHES = [
    (1, 700.0, 690.0, 0.4247869852324541),
    (3, 3000.0, 3050.0, 0.6687144922226487),
    (2, 1e4, 9800.0, 0.15622943636349262),
    (5, 1e4, 10300.0, 0.9290921159636873),
    (7, 850.0, 700.0, 0.0025139102655355166),
    (3, 0.5, 1e-8, 2.0713103973345757e-13),
    (2, 1e-12, 0.3, 0.13929202357487763),
]


@pytest.mark.parametrize("cdf, d, lam, x, want", _through_both(EDGE_BRANCHES))
def test_edge_branches_match_mpmath(cdf, d, lam, x, want):
    assert cdf(d, lam, x) == pytest.approx(want, abs=1e-13)


# shrunk counterexamples to monotonicity in x found against a sum seeded at
# the Poisson mode: lower-tail values it lost, and (last) rounding noise at
# dx = 1e-12 in the bulk
@pytest.mark.parametrize(
    "d, lam, x, dx",
    [
        (1, 225.0, 1.2921011470178156e-127, 0.25),
        (1, 6.0, 1e-100, 1e-100),
        (1, 208.0, 2.95466522760294e-253, 0.0625),
        (1, 6.0, 2.4058360469911792e-116, 3.824533466158557e-97),
        (1, 312.0, 5.605213480023425e-233, 1.0),
        (1, 168.0, 170.0, 1e-12),
    ],
)
def test_monotone_at_shrunk_counterexamples(d, lam, x, dx):
    assert 0.0 < chisq_cdf(d, lam, x) <= chisq_cdf(d, lam, x + dx)


@given(
    d=st.integers(1, 12),
    lam=st.floats(0.0, 400.0),
    dlam=st.floats(0.0, 100.0),
    x=st.floats(0.0, 500.0),
)
@settings(max_examples=150, deadline=None)
def test_nonincreasing_in_noncentrality(d, lam, dlam, x):
    assert chisq_cdf(d, lam + dlam, x) <= chisq_cdf(d, lam, x) + 1e-12


# mpmath values (60 digits) of Phi(sqrt x - sqrt lam) - Phi(-sqrt x - sqrt lam),
# the d = 1 CDF, in pairs on both sides of each cut between its routes:
# x = lam (erf sum above), sqrt(x lam) = 1/2 (normal-tail difference at or
# above, chndtr below), the deep-tail cut near x = 41.57 at lam = 200, and
# the tiny-x cut (lam/2)(x/2) = 1e-90; the last value is subnormal
ONE_DOF_ROUTES = [
    (1, 100.0, 99.0, 0.4800111382348642),
    (1, 100.0, 101.0, 0.5198892476769775),
    (1, 1.0, 0.25, 0.24173033745712882),
    (1, 1.0, 0.2, 0.21628628460578536),
    (1, 0.25, 0.25, 0.3413447460685429),
    (1, 0.25, 0.3, 0.37164809609726984),
    (1, 200.0, 40.735, 4.255252251100712e-15),
    (1, 200.0, 42.398, 1.1668602320622678e-14),
    (1, 300.0, 1e-92, 5.724898299266728e-112),
    (1, 300.0, 2e-92, 8.0962288180296205e-112),
    (1, 1500.0, 1.0, 8.054988415517e-312),
]


@pytest.mark.parametrize("cdf, d, lam, x, want", _through_both(ONE_DOF_ROUTES))
def test_one_dof_routes_match_mpmath(cdf, d, lam, x, want):
    if want > 1e-300:
        assert cdf(d, lam, x) == pytest.approx(want, rel=1e-12, abs=0.0)
    else:
        assert cdf(d, lam, x) == pytest.approx(want, rel=0.0, abs=1e-15)


# the cuts between the d = 1 routes as points in x at a given lam: x = lam,
# x lam = 1/4, the deep-tail cut (roughly where (sqrt lam - sqrt x)^2 = 60;
# none below lam = 60) and the tiny-x cut; two points around a cut, each 0 or
# from 1e-9 up to 50% off it, land on either side of it or on it
_X_CUTS = [
    lambda lam: lam,
    lambda lam: 0.25 / lam,
    lambda lam: (math.sqrt(lam) - math.sqrt(60.0)) ** 2 if lam > 60.0 else lam,
    lambda lam: 4e-90 / lam,
]


@given(
    lam=st.floats(1e-6, 400.0),
    cut=st.sampled_from(_X_CUTS),
    below=st.one_of(st.just(0.0), st.floats(1e-9, 0.5)),
    above=st.one_of(st.just(0.0), st.floats(1e-9, 0.5)),
)
@settings(max_examples=200, deadline=None)
def test_one_dof_monotone_in_x_across_routes(lam, cut, below, above):
    at = cut(lam)
    xs = np.array([at * (1.0 - below), at * (1.0 + above)])
    lo, hi = chisq_cdf_pairs(1, np.array([lam, lam]), xs)
    assert 0.0 <= lo <= hi <= 1.0


# the same cuts as points in lam at a given x, but for the tiny-x one, where
# lam < 4e-90 / x moves F far less than its rounding, so which route comes
# out higher is noise; for the same reason the steps are 1e-3 or more (near
# lam = 1e-6 a step of 1e-9 moves F by about 5e-16 of itself)
_LAM_CUTS = [
    lambda x: x,
    lambda x: 0.25 / x,
    lambda x: (math.sqrt(x) + math.sqrt(60.0)) ** 2,
]


@given(
    x=st.floats(1e-6, 400.0),
    cut=st.sampled_from(_LAM_CUTS),
    below=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
    above=st.one_of(st.just(0.0), st.floats(1e-3, 0.5)),
)
@settings(max_examples=200, deadline=None)
def test_one_dof_nonincreasing_in_lam_across_routes(x, cut, below, above):
    at = cut(x)
    lams = np.array([at * (1.0 - below), at * (1.0 + above)])
    lo_lam, hi_lam = chisq_cdf_pairs(1, lams, np.array([x, x]))
    assert 0.0 <= hi_lam <= lo_lam <= 1.0


@pytest.mark.parametrize("d", [1, 2, 7])
def test_pairs_path_agrees_with_scalar(d):
    lams = np.array([0.0, 1e-12, 0.5, 5.0, 60.0, 400.0, 650.0, 800.0, 1500.0])
    xs = np.array([0.0, 0.3, 2.0, 10.0, 80.0, 500.0, 900.0, 1600.0, 40.0])
    got = chisq_cdf_pairs(d, lams, xs)
    want = np.array([chisq_cdf(d, l, x) for l, x in zip(lams, xs)])
    assert np.max(np.abs(got - want)) < 1e-11


@pytest.mark.parametrize("d", [1, 2, 5])
def test_pairs_extreme_pairs_raise_no_warning(d):
    # the tiny-x test must form neither 0 * inf (lam = 0, x = inf) nor an
    # overflowing product (lam = 1e10, x = 1e300); x / 2 underflowing to 0
    # keeps the pair in the tiny region, where the CDF is e^-(lam/2) = 0
    lams = [0.0, 1e10, 1e300, 3.0]
    xs = [math.inf, 1e300, 5e-324, math.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = chisq_cdf_pairs(d, lams, xs)
    assert got.tolist() == [1.0, 1.0, 0.0, 1.0]


def test_nan_pairs_of_chndtr_take_the_convolution():
    # chndtr(1e12, 2, 1e12) is nan: the sigma = 1e-8 atom meets a ball whose
    # boundary passes through the origin, at lam = x = 1e16
    ball = Ball(np.array([1.0, 0.0]), 1.0)
    got = mixture_ball_mass(MixtureModel(Profile.from_scales([1e-8, 1.0]), 2), ball)
    assert math.isfinite(got)
    assert got == pytest.approx(0.5 * 0.5 + 0.5 * nu_ball_mass(1.0, ball), abs=1e-7)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_convolution_agrees_with_chndtr_where_it_is_finite(d):
    lam = 1e10
    for t in (-2.0, 0.0, 2.0):
        x = lam + d + t * math.sqrt(2 * (d + 2 * lam))
        assert _convolved(d, lam, x) == pytest.approx(sps.chndtr(x, d, lam), abs=1e-11)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("lam", [1e11, 1e12, 1e14])
def test_huge_noncentrality_is_normal(d, lam):
    ts = np.array([-2.0, 0.0, 2.0])
    xs = lam + d + ts * math.sqrt(2 * (d + 2 * lam))
    got = chisq_cdf_pairs(d, np.full(3, lam), xs)
    assert np.max(np.abs(got - sps.ndtr(ts))) < 1e-5


def test_reg_lower_gamma_against_scipy():
    for a in (0.25, 0.5, 1.0, 3.5, 40.0, 500.0):
        for x in (1e-8, 0.1, a / 2, a, 2 * a, 10 * a):
            assert reg_lower_gamma(a, x) == pytest.approx(sps.gammainc(a, x), abs=1e-12)


@given(a=st.floats(0.1, 200.0), u=st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=100, deadline=None)
def test_gamma_ppf_round_trip(a, u):
    x = gamma_ppf(a, u)
    assert reg_lower_gamma(a, x) == pytest.approx(u, abs=1e-9)


def test_norm_cdf_matches_erf():
    zs = np.linspace(-6, 6, 41)
    assert np.max(np.abs(norm_cdf(zs) - normal_cdf(zs))) < 1e-12
