"""Chi-square CDF tests against closed forms, scipy, mpmath and frozen MC counts."""

import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import assume, example, given, settings
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
from projlens import special
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
# below 1e-12, where any absolute tolerance would pass whatever comes back.
# The next twelve lie at the integer x nearest to where the Chernoff bound is
# e^-31, just inside the deep tail, at lam = 1e4, 1e5 and 1e6; the Poisson
# sum spans some 12 sqrt(lam / 2) terms there. All of them come from
# scripts/tail_reference.py (50 digits), which reproduces the first nine
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
    (1, 10000.0, 8488.0, 1.7780665909952572e-15),
    (2, 10000.0, 8489.0, 1.7811856249667105e-15),
    (5, 10000.0, 8492.0, 1.7905734510033774e-15),
    (12, 10000.0, 8499.0, 1.812658605447472e-15),
    (1, 100000.0, 95083.0, 1.7387927300807331e-15),
    (2, 100000.0, 95084.0, 1.7390756804949211e-15),
    (5, 100000.0, 95087.0, 1.7399247904492942e-15),
    (12, 100000.0, 95094.0, 1.7419075569459189e-15),
    (1, 1000000.0, 984315.0, 1.724330993696053e-15),
    (2, 1000000.0, 984316.0, 1.7243584220533698e-15),
    (5, 1000000.0, 984319.0, 1.7244407095775998e-15),
    (12, 1000000.0, 984326.0, 1.7246327281064945e-15),
    # the Bessel series' domain (d >= 2, x = lam / 4, lam / 16, lam / 64, deep,
    # the CDF a normal double), from the same Poisson-mixture sum
    (2, 300.0, 75.0, 1.654739105823813e-18),
    (2, 300.0, 18.75, 3.443494050077162e-39),
    (2, 300.0, 4.6875, 1.2181953053482857e-52),
    (2, 1500.0, 375.0, 5.3890106737779415e-84),
    (2, 1500.0, 93.75, 4.1461840760877755e-186),
    (2, 1500.0, 23.4375, 1.7292757951959921e-252),
    (2, 5000.0, 1250.0, 2.933528555260776e-274),
    (3, 300.0, 75.0, 1.1614876452224403e-18),
    (3, 300.0, 18.75, 1.7037073464087193e-39),
    (3, 300.0, 4.6875, 4.227159796523161e-53),
    (3, 1500.0, 375.0, 3.804915606584135e-84),
    (3, 1500.0, 93.75, 2.068722163529177e-186),
    (3, 1500.0, 23.4375, 6.091214789112967e-253),
    (3, 5000.0, 1250.0, 2.073385753778313e-274),
    (5, 300.0, 75.0, 5.694199291313897e-19),
    (5, 300.0, 18.75, 4.128953501904789e-40),
    (5, 300.0, 4.6875, 4.9883154188508977e-54),
    (5, 1500.0, 375.0, 1.8948880276688964e-84),
    (5, 1500.0, 93.75, 5.139733770654283e-187),
    (5, 1500.0, 23.4375, 7.527364735162937e-254),
    (5, 5000.0, 1250.0, 1.0354508279747028e-274),
    (12, 300.0, 75.0, 4.459611788674787e-20),
    (12, 300.0, 18.75, 2.6049197461027873e-42),
    (12, 300.0, 4.6875, 2.2801845353911736e-57),
    (12, 1500.0, 375.0, 1.6344331840290875e-85),
    (12, 1500.0, 93.75, 3.847281136381654e-189),
    (12, 1500.0, 23.4375, 4.788056693272877e-257),
    (12, 5000.0, 1250.0, 9.085211870508202e-276),
    # lam = 2e4, 3e4, Chernoff bound e^-400 and e^-650, where the Poisson
    # sum's peak term lies far from both Poisson means
    (2, 20000.0, 12802.0, 3.0989642776663522e-176),
    (2, 20000.0, 11104.0, 6.915960015565946e-285),
    (2, 30000.0, 21004.0, 2.9880643277913513e-176),
    (2, 30000.0, 18812.0, 6.538762422168109e-285),
    (11, 20000.0, 12810.0, 3.085997921237106e-176),
    (11, 20000.0, 11111.0, 6.092208396924087e-285),
    (11, 30000.0, 21012.0, 2.9240411095318296e-176),
    (11, 30000.0, 18820.0, 6.546731594494679e-285),
    # d = 2, 3, 5, 12 at lam = 300, 3000 and 3e4, at the integer x nearest
    # to where the Chernoff bound is e^-40, e^-300 and e^-650 (where x > 0
    # and the CDF is a normal double); the pairs the series declines take
    # the quadrature
    (2, 300.0, 72.0, 3.476079159757611e-19),
    (2, 3000.0, 2102.0, 2.042392567652722e-19),
    (2, 3000.0, 918.0, 1.0453929446437983e-132),
    (2, 3000.0, 351.0, 6.381224703965714e-285),
    (2, 30000.0, 26984.0, 1.9463611750646793e-19),
    (2, 30000.0, 22117.0, 9.361227587236114e-133),
    (3, 300.0, 72.0, 2.415077421482675e-19),
    (3, 3000.0, 2103.0, 2.0598550355618915e-19),
    (3, 3000.0, 919.0, 1.1646839323091846e-132),
    (3, 3000.0, 352.0, 9.766804267332373e-285),
    (3, 30000.0, 26985.0, 1.9477693431131106e-19),
    (3, 30000.0, 22117.0, 8.673063007944104e-133),
    (3, 30000.0, 18813.0, 6.635922392436453e-285),
    (5, 300.0, 74.0, 3.3740477050642515e-19),
    (5, 3000.0, 2105.0, 2.0952052895463003e-19),
    (5, 3000.0, 920.0, 9.645066964556037e-133),
    (5, 3000.0, 353.0, 8.73552948803866e-285),
    (5, 30000.0, 26986.0, 1.8975880424888066e-19),
    (5, 30000.0, 22119.0, 8.780008742386768e-133),
    (5, 30000.0, 18814.0, 5.9922705650997745e-285),
    (12, 300.0, 78.0, 2.2079906679876788e-19),
    (12, 3000.0, 2111.0, 2.0149782061683982e-19),
    (12, 3000.0, 926.0, 1.3693211991743479e-132),
    (12, 3000.0, 357.0, 9.529751868523951e-285),
    (12, 30000.0, 26993.0, 1.9072237339442e-19),
    (12, 30000.0, 22126.0, 9.16473494327679e-133),
    (12, 30000.0, 18821.0, 6.643989706783413e-285),
    # the quadrature at Chernoff bound e^-703, the CDF near the smallest
    # normal double, where its nodes need tails that ``ndtr`` rounds to 0
    (5, 10000.0, 3911.0, 7.480296864303619e-308),
    (12, 10000.0, 3916.0, 6.468534126630496e-308),
    # deep pairs the short sum takes, (lam/2)(x/2) / (d/2 + 1) <= 1/4: at
    # lam = x (q = 1) the series declines them, and without the short sum
    # the d = 1 pair had no route and quad warned on the d = 7 one; then
    # d = 1 with lam x = 0.2 and 1e-40, which at lam = 2000 rounds to 0
    (1, 2.72276075968322e-33, 2.72276075968322e-33, 4.1633680296616995e-17),
    (7, 2.72276075968322e-33, 2.72276075968322e-33, 8.003573778696343e-117),
    (1, 200.0, 0.001, 9.700604082446537e-46),
    (1, 200.0, 4.999999999999999e-43, 2.0988281156772082e-65),
    (1, 2000.0, 0.0001, 0.0),
    (1, 2000.0, 4.999999999999999e-44, 0.0),
]

# d = 1 at lam = 1e8 to 1e13, x = (sqrt lam - sqrt 200)^2, where the Chernoff
# bound is about e^-100: the closed form Phi(sqrt x - sqrt lam) -
# Phi(-sqrt x - sqrt lam) in 60 digits (scripts/tail_reference.py), where the
# Poisson sum would span some sqrt(lam) terms
LOWER_TAIL_ONE_DOF = [
    (1, 100000000.0, 99717357.28752537, 1.0442437918736384e-45),
    (1, 1000000000.0, 999105772.8090001, 1.0442437918930918e-45),
    (1, 10000000000.0, 9997171772.875256, 1.0442437920129906e-45),
    (1, 100000000000.0, 99991055928.08998, 1.0442437914175215e-45),
    (1, 1000000000000.0, 999971715928.7526, 1.0442437920695885e-45),
    (1, 10000000000000.0, 9999910557480.9, 1.0442437927781622e-45),
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


@pytest.mark.parametrize("cdf, d, lam, x, want", _through_both(LOWER_TAIL + LOWER_TAIL_ONE_DOF))
def test_lower_tail_relative_accuracy(cdf, d, lam, x, want):
    assert cdf(d, lam, x) == pytest.approx(want, rel=1e-12, abs=0.0)


# (log10 lam, c) as above, lam up to 1e13: d = 1 pairs in the deep tail
_deep_one_dof = st.tuples(st.floats(0.0, 13.0), st.floats(30.0, 690.0))


@given(pairs=st.lists(_deep_one_dof, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
@example(pairs=[(13.0, 100.0)])
def test_one_dof_pairs_take_the_closed_form_at_any_depth(pairs):
    # every d = 1 pair at x <= lam with sqrt(x lam) >= 1/2 takes the
    # normal-tail difference, however deep in the tail: none reaches the
    # short sum or the quadrature, so a batch that holds a pair at lam =
    # 1e13 returns in well under 10 ms
    lam = np.array([10.0**e for e, _ in pairs])
    x = np.array([(math.sqrt(10.0**e) - math.sqrt(2.0 * c)) ** 2 for e, c in pairs])
    keep = (x <= lam) & (np.sqrt(x) * np.sqrt(lam) >= 0.5)
    assume(keep.any())
    lam, x = lam[keep], x[keep]
    with mock.patch.object(special, "_short_sum", side_effect=AssertionError) as short, \
            mock.patch.object(special, "_convolved", side_effect=AssertionError) as conv:
        took = math.inf
        for _ in range(3):
            start = time.perf_counter()
            got = chisq_cdf_pairs(1, lam, x)
            took = min(took, time.perf_counter() - start)
    assert not short.called and not conv.called
    assert took < 0.01
    assert got.tobytes() == special.normal_tail_difference(lam, x.copy()).tobytes()


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("lam", [1e12, 1e13])
def test_deep_pairs_at_huge_noncentrality_take_bounded_time(d, lam):
    # x = (sqrt lam - sqrt 200)^2, Chernoff bound about e^-100, q near 1:
    # the series declines the pair and the quadrature takes it in about a
    # millisecond whatever lam (a sum over the Poisson terms spans some
    # sqrt(lam) of them); adding chi2_(d-1) to chi2_1 can only lower the CDF
    x = (math.sqrt(lam) - math.sqrt(200.0)) ** 2
    with mock.patch.object(special, "_convolved", wraps=special._convolved) as conv:
        took = math.inf
        for _ in range(3):
            start = time.perf_counter()
            got = chisq_cdf(d, lam, x)
            took = min(took, time.perf_counter() - start)
    assert conv.called
    assert took < 0.05
    assert 0.0 < got < chisq_cdf(1, lam, x)


# (log10 lam, log10 x / lam): pairs with x well below lam, the Bessel series'
# domain where they are deep
_series_pairs = st.tuples(st.floats(math.log10(30.0), 4.0), st.floats(-4.0, math.log10(0.3)))


@given(d=st.integers(2, 12), pairs=st.lists(_series_pairs, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_bessel_series_agrees_with_the_deep_tail_sum(d, pairs):
    # wherever both apply (a deep pair the series takes, its CDF a normal
    # double) the series and the quadrature, two independent algorithms,
    # agree within 1e-12 relative
    lam = np.array([10.0**e for e, _ in pairs])
    x = lam * np.array([10.0**r for _, r in pairs])
    b = d / 2.0
    bound = special._log_chernoff(b, lam / 2.0, x / 2.0)
    deep = (bound < special._DEEP_TAIL_LOG) & (bound > special._LOG_SUBNORMAL)
    assume(deep.any())
    lam, x = lam[deep], x[deep]
    took, got = special._bessel_series(b, lam, x)
    want = np.array([_convolved(d, l, x_i, deep=True) for l, x_i in zip(lam[took], x[took])])
    normal = want >= np.finfo(float).tiny
    assume(normal.any())
    assert np.allclose(got[normal], want[normal], rtol=1e-12, atol=0.0)


@given(q=st.floats(1e-300, 0.6))
@settings(max_examples=200, deadline=None)
@example(q=0.535)
@example(q=0.5)
@example(q=1e-17)
def test_series_term_count_is_the_least_under_its_bound(q):
    # n terms leave out at most q^n / (1 - q) of the sum: n is the least count
    # that puts this under _TAIL_REL (compared in logs, to 1e-9)
    n = float(special._series_terms(np.array([q]))[0])
    cut = math.log(special._TAIL_REL)

    def log_bound(k):
        return k * math.log(q) - math.log1p(-q)

    assert n >= 1.0
    assert log_bound(n) <= cut + 1e-9
    assert n == 1.0 or log_bound(n - 1.0) > cut - 1e-9


def test_deep_pairs_like_the_mc_benchmark_take_the_series():
    # d = 2 pairs shaped like the mc-scalemix benchmark's deep ones (lam
    # 1000-1500, x 80-125, Chernoff bound e^-260 to e^-390) never reach the
    # quadrature, some 1 ms a pair: 4000 of them return in under 15 ms (the
    # series takes some 9 ms)
    gen = np.random.default_rng(3)
    lam, x = gen.uniform(1000.0, 1500.0, 4000), gen.uniform(80.0, 125.0, 4000)
    with mock.patch.object(special, "_convolved", side_effect=AssertionError) as conv:
        took = math.inf
        for _ in range(3):
            start = time.perf_counter()
            got = chisq_cdf_pairs(2, lam, x)
            took = min(took, time.perf_counter() - start)
        # and so does every frozen row at d >= 2 with x <= lam / 4, deep or not
        series_rows = [row for row in LOWER_TAIL if row[0] >= 2 and row[2] <= row[1] / 4.0]
        assert len(series_rows) == 40
        for d, lam_r, x_r, want in series_rows:
            assert _pairs_at(d, lam_r, x_r) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert not conv.called
    assert took < 0.015
    assert np.all(got > 0.0)


def test_nan_argument_is_refused():
    with pytest.raises(ValueError, match="x must not be nan"):
        chisq_cdf(2, 1.0, math.nan)
    with pytest.raises(ValueError, match="x must not be nan"):
        chisq_cdf_pairs(1, np.array([1.0, 2.0]), np.array([0.5, math.nan]))
    assert chisq_cdf_pairs(2, np.array([1.0]), np.array([math.inf]))[0] == 1.0


def test_zero_dim_noncentrality_is_a_scalar():
    assert chisq_cdf(2, np.array(1.0), 0.5) == chisq_cdf(2, 1.0, 0.5)
    assert chisq_cdf(1, np.float32(4.0), [1.0, 9.0]).tolist() == chisq_cdf(1, 4.0, [1, 9]).tolist()
    for lam in (np.array([1.0]), [1.0, 2.0], np.ones((2, 2))):
        with pytest.raises(ValueError, match="noncentrality must be a scalar"):
            chisq_cdf(2, lam, 0.5)


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
# above, however deep, chndtr below), and the tiny-x cut (lam/2)(x/2) =
# 1e-90, past which the short sum takes the pair with more terms than its
# first. The pair near x = 41.57 at lam = 200 straddles the e^-30
# Chernoff cut, which once split the routes there and now does not: both
# take the normal-tail difference. The last value is subnormal
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
# x lam = 1/4 and the tiny-x cut; and the deep-tail cut (roughly where
# (sqrt lam - sqrt x)^2 = 60; none below lam = 60), which splits no d = 1
# routes past x lam = 1/4, kept as a check of the normal-tail difference
# there; two points around a cut, each 0 or from 1e-9 up to 50% off it, land
# on either side of it or on it
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


# the same cuts as points in lam at a given x (the deep-tail one again
# within the normal-tail difference where x lam >= 1/4), but for the tiny-x one, where
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
# shrunk from a failure of the erf sum near F = 1, which rose with lam by one
# ulp: 0.9999999999999994 at lam = 0.25 / x, 0.9999999999999996 at 1.25 times that
@example(x=65.9375, cut=_LAM_CUTS[1], below=0.0, above=0.25)
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


def _route_pairs(lam, x_of):
    return st.tuples(lam, st.floats(0.0, 1.0)).map(lambda p: (p[0], x_of(*p)))


def _series_x(lam, u):
    # a Chernoff exponent near -c, c from max(31, lam / 8) to min(600, 0.49 lam),
    # puts x / lam between 1e-4 and 1/4
    lo, hi = max(31.0, lam / 8.0), min(600.0, 0.49 * lam)
    return (math.sqrt(lam) - math.sqrt(2.0 * (lo + (hi - lo) * u))) ** 2


# (lam, x) pairs aimed at each route of the kernel: tiny x, the Bessel series
# at d >= 2 (deep, x / lam from 1e-4 to 1/4), the d = 1 erf sum
# (x > lam), the deep lower tail (Chernoff exponent from -31 to -400, which
# at d = 1 the normal-tail difference takes; and, at every d, x lam from
# 0.0125 to 0.2375 with lam from 200 up), the d = 1 normal-tail difference
# (x just below lam), and chndtr at d >= 2 and at d = 1 (x <= lam, x lam < 1/4)
_ROUTE_PAIRS = [
    _route_pairs(st.floats(1e-6, 1e6), lambda lam, u: (0.05 + 0.9 * u) * 4e-90 / lam),
    _route_pairs(st.floats(64.0, 4800.0), _series_x),
    _route_pairs(st.floats(1e-6, 1e4), lambda lam, u: lam * (1.0 + 10.0**(6.0 * u - 5.0))),
    _route_pairs(st.floats(1e3, 1e5),
                 lambda lam, u: (math.sqrt(lam) - math.sqrt(2.0 * (31.0 + 369.0 * u))) ** 2),
    _route_pairs(st.floats(200.0, 1e4), lambda lam, u: (0.05 + 0.9 * u) * 0.25 / lam),
    _route_pairs(st.floats(1.0, 1e6), lambda lam, u: (math.sqrt(lam) - 5.0 * u) ** 2),
    _route_pairs(st.floats(0.0, 100.0), lambda lam, u: 0.01 + 200.0 * u),
    _route_pairs(st.floats(1e-6, 10.0), lambda lam, u: (0.01 + 0.99 * u) * min(lam, 0.2 / lam)),
]


@st.composite
def _route_batches(draw, d):
    batch = [p for route in _ROUTE_PAIRS for p in draw(st.lists(route, min_size=1, max_size=3))]
    if d >= 2 and draw(st.booleans()):
        # chndtr's nan region, which takes the convolution: one pair at most,
        # for the quadrature's time
        lam = draw(st.floats(1e11, 1e13))
        t = draw(st.floats(-3.0, 3.0))
        batch.append((lam, lam + d + t * math.sqrt(2.0 * (d + 2.0 * lam))))
    batch = draw(st.permutations(batch))
    return np.array([p[0] for p in batch]), np.array([p[1] for p in batch])


@pytest.mark.parametrize("d", [1, 2, 5])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_pair_value_does_not_depend_on_its_batch(d, data):
    # a batch mixing every route gives each pair the bits it gets alone, in
    # either order
    lam, x = data.draw(_route_batches(d))
    got = chisq_cdf_pairs(d, lam, x)
    alone = np.array([chisq_cdf_pairs(d, lam[i : i + 1], x[i : i + 1])[0] for i in range(lam.size)])
    assert got.tobytes() == alone.tobytes()
    assert chisq_cdf_pairs(d, lam[::-1], x[::-1])[::-1].tobytes() == got.tobytes()


# (log10 lam, log10 x / lam): d = 1 pairs at x <= lam, lam from 1e-40 to 1e13
_one_dof_below = st.tuples(st.floats(-40.0, 13.0), st.floats(-80.0, 0.0)).map(
    lambda p: (10.0 ** p[0], 10.0 ** (p[0] + p[1]))
)


@given(pairs=st.lists(st.one_of(*_ROUTE_PAIRS, _one_dof_below), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
@example(pairs=[(2.72276075968322e-33, 2.72276075968322e-33)])
def test_one_dof_pairs_reach_neither_the_series_nor_the_quadrature(pairs):
    # a deep d = 1 pair the closed forms leave has lam x < 1/4, so rho =
    # (lam/2)(x/2) / (3/2) < 1/24 and the short sum takes it
    lam, x = np.array(pairs).T
    with mock.patch.object(special, "_bessel_series", side_effect=AssertionError) as series, \
            mock.patch.object(special, "_convolved", side_effect=AssertionError) as conv:
        got = chisq_cdf_pairs(1, lam, x)
    assert not series.called and not conv.called
    assert np.all((got >= 0.0) & (got <= 1.0))


@given(d=st.integers(1, 12), lam=st.floats(0.0, 1e6), u=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_tiny_pairs_take_the_first_term_alone(d, lam, u):
    # where (lam/2)(x/2) < 1e-90 the short sum stops after its first term,
    # e^(-lam/2) P(d/2, x/2), and gives exactly its bits
    x = u * 4e-90 / max(lam, 1e-300)
    assume(special._is_tiny(np.array([lam / 2.0]), np.array([x / 2.0]))[0])
    want = np.exp(-lam / 2.0) * sps.gammainc(d / 2.0, x / 2.0)
    assert _pairs_at(d, lam, x) == want


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
    # its nodes call the d = 1 closed forms, not the validating kernel
    lam = 1e10
    with mock.patch.object(special, "chisq_cdf_pairs", side_effect=AssertionError) as kernel:
        for t in (-2.0, 0.0, 2.0):
            x = lam + d + t * math.sqrt(2 * (d + 2 * lam))
            assert _convolved(d, lam, x) == pytest.approx(sps.chndtr(x, d, lam), abs=1e-11)
    assert not kernel.called


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


@pytest.mark.parametrize("a", [-1.0, 0.0, math.nan, math.inf])
def test_gamma_ppf_refuses_a_bad_shape(a):
    with pytest.raises(ValueError, match="shape parameter must be finite and positive"):
        gamma_ppf(a, 0.5)


@pytest.mark.parametrize("u", [math.nan, -0.1, 1.0, [0.5, math.nan]])
def test_gamma_ppf_refuses_a_bad_probability(u):
    with pytest.raises(ValueError, match="probabilities in"):
        gamma_ppf(2.0, u)


def test_norm_cdf_matches_erf():
    zs = np.linspace(-6, 6, 41)
    assert np.max(np.abs(norm_cdf(zs) - normal_cdf(zs))) < 1e-12
