"""Ball algebra and scale-mixture mass tests."""

import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from projlens import (
    Ball,
    MixtureModel,
    Profile,
    mixture_ball_mass,
    mixture_second_moment,
    nu_ball_mass,
    resize_ball,
)
from projlens import gaussmix, special
from projlens.gaussmix import mixture_masses_pairs

from _oracles import chisq2_central_cdf

TWO_ATOM_D2_B01 = 0.25548621885138556  # 0.5(1-e^-1/2) + 0.5(1-e^-1/8), closed form


def _model(sigmas, weights, d):
    return MixtureModel(Profile(np.asarray(sigmas, float), np.asarray(weights, float)), d)


def test_ball_constructors_and_flags():
    b = Ball(np.array([1.0, 2.0]), 3.0)
    assert b.d == 2 and not b.is_all and not b.is_empty
    assert Ball.all_space(2).is_all
    assert Ball.empty(2).is_empty
    with pytest.raises(ValueError):
        Ball(np.array([0.0]), -1.0)
    with pytest.raises(ValueError):
        Ball(np.array([np.inf]), 1.0)


def test_empty_ball_from_the_constructor():
    empty = Ball(np.zeros(2), -math.inf)
    assert empty == Ball.empty(2) and empty.is_empty
    assert not Ball.empty(2).center.flags.writeable
    shrunk = resize_ball(Ball(np.array([1.0, -1.0]), 0.5), -1.0)
    assert shrunk.is_empty and np.array_equal(shrunk.center, [1.0, -1.0])


def test_equal_balls_hash_alike_across_signed_zeros():
    # gen_cross_polytope writes -0.0 entries, which compare equal to 0.0
    a, b = Ball(np.array([0.0, 1.0]), 1.0), Ball(np.array([-0.0, 1.0]), 1.0)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the centre itself keeps its signed zero
    assert math.copysign(1.0, b.center[0]) == -1.0


def test_resize_examples():
    b = Ball(np.zeros(1), 1.0)
    assert resize_ball(b, 0.5).radius == 1.5
    assert resize_ball(b, -1.5).is_empty
    assert resize_ball(Ball.all_space(2), -5.0).is_all
    assert resize_ball(Ball.empty(2), 5.0).is_empty


@given(r=st.floats(0.1, 10.0), delta=st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_resize_round_trip(r, delta):
    b = Ball(np.array([0.5, -0.5]), r)
    if delta < r:
        back = resize_ball(resize_ball(b, delta), -delta)
        assert back.radius == pytest.approx(r, rel=1e-12)


def test_nu_mass_closed_form_two_dims():
    assert nu_ball_mass(1.0, Ball(np.zeros(2), 1.0)) == pytest.approx(
        0.3934693402873666, abs=1e-10
    )
    for r in (0.3, 1.7, 4.0):
        want = float(chisq2_central_cdf(r * r))
        assert nu_ball_mass(1.0, Ball(np.zeros(2), r)) == pytest.approx(want, abs=1e-10)
    assert nu_ball_mass(0.3, Ball.all_space(3)) == 1.0
    assert nu_ball_mass(2.0, Ball.empty(3)) == 0.0


@given(
    sigma=st.floats(0.2, 5.0),
    cx=st.floats(-3, 3),
    cy=st.floats(-3, 3),
    r=st.floats(0.01, 8.0),
)
@settings(max_examples=100, deadline=None)
def test_nu_mass_scale_equivariance(sigma, cx, cy, r):
    c = np.array([cx, cy])
    lhs = nu_ball_mass(sigma, Ball(c, r))
    rhs = nu_ball_mass(1.0, Ball(c / sigma, r / sigma))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(
    cx=st.floats(-4, 4),
    r=st.floats(0.01, 6.0),
    dr=st.floats(0.0, 4.0),
    shift=st.floats(0.0, 4.0),
)
@settings(max_examples=100, deadline=None)
def test_nu_mass_monotone(cx, r, dr, shift):
    grow = nu_ball_mass(1.0, Ball(np.array([cx, 0.0]), r + dr))
    base = nu_ball_mass(1.0, Ball(np.array([cx, 0.0]), r))
    assert grow >= base - 1e-12
    farther = nu_ball_mass(1.0, Ball(np.array([abs(cx) + shift, 0.0]), r))
    near = nu_ball_mass(1.0, Ball(np.array([abs(cx), 0.0]), r))
    assert farther <= near + 1e-12


def test_mixture_single_atom_equals_nu():
    model = _model([1.3], [1.0], 3)
    for r in (0.5, 2.0):
        ball = Ball(np.array([0.4, 0.0, -0.2]), r)
        assert mixture_ball_mass(model, ball) == pytest.approx(
            nu_ball_mass(1.3, ball), abs=1e-14
        )


def test_mixture_two_atom_closed_form():
    model = _model([1.0, 2.0], [0.5, 0.5], 2)
    assert mixture_ball_mass(model, Ball(np.zeros(2), 1.0)) == pytest.approx(
        TWO_ATOM_D2_B01, abs=1e-10
    )
    assert mixture_ball_mass(model, Ball.all_space(2)) == 1.0


def test_zero_sigma_atom_is_point_mass():
    model = _model([0.0, 1.0], [0.25, 0.75], 2)
    on = mixture_ball_mass(model, Ball(np.zeros(2), 0.5))
    off = mixture_ball_mass(model, Ball(np.array([2.0, 0.0]), 0.5))
    live = nu_ball_mass(1.0, Ball(np.zeros(2), 0.5))
    assert on == pytest.approx(0.25 + 0.75 * live, abs=1e-12)
    assert off == pytest.approx(
        0.75 * nu_ball_mass(1.0, Ball(np.array([2.0, 0.0]), 0.5)), abs=1e-12
    )


@given(delta=st.floats(0.0, 5.0), r=st.floats(0.01, 5.0), cx=st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_mixture_monotone_under_inflation(delta, r, cx):
    model = _model([0.5, 1.0, 2.0], [0.2, 0.5, 0.3], 2)
    ball = Ball(np.array([cx, 0.1]), r)
    assert mixture_ball_mass(model, resize_ball(ball, delta)) >= mixture_ball_mass(
        model, ball
    ) - 1e-12


def _atomwise_mass(model, ball):
    # F-bar(B) atom by atom through the scalar nu_ball_mass, apart from the
    # batched kernel that mixture_ball_mass runs through
    total = 0.0
    for sigma, w in zip(model.profile.sigmas, model.profile.weights):
        if sigma == 0.0:
            total += w * float(ball.center @ ball.center <= ball.radius**2)
        else:
            total += w * nu_ball_mass(float(sigma), ball)
    return min(total, 1.0)


def test_batched_masses_match_scalar():
    model = _model([0.0, 0.7, 1.4], [0.1, 0.6, 0.3], 2)
    rng_local = np.random.default_rng(0)
    centers = rng_local.normal(size=(40, 2)) * 2
    radii = np.abs(rng_local.normal(size=40)) * 3 + 0.01
    want = np.array([_atomwise_mass(model, Ball(c, r)) for c, r in zip(centers, radii)])
    got = mixture_masses_pairs(model, centers, radii)
    assert np.max(np.abs(got - want)) < 1e-12
    one = np.array([mixture_ball_mass(model, Ball(c, r)) for c, r in zip(centers, radii)])
    assert np.max(np.abs(one - want)) < 1e-12
    # one center (1, d) broadcast against many radii
    at = mixture_masses_pairs(model, centers[:1], radii)
    want_at = np.array([_atomwise_mass(model, Ball(centers[0], r)) for r in radii])
    assert np.max(np.abs(at - want_at)) < 1e-12


@pytest.mark.parametrize("d", [1, 2])
def test_masses_independent_of_chunks(d):
    # 600 atoms by 1500 balls is 56 chunks of the atom sum; a ball scored
    # alone gets the same bits as inside that call, from the kernel and, at
    # d = 1, from the interval closed form
    gen = np.random.default_rng(d)
    model = MixtureModel(Profile.from_scales(gen.uniform(0.05, 2.0, 600)), d)
    centers = gen.normal(size=(1500, d)) * 2
    radii = gen.uniform(0.0, 4.0, 1500)
    many = mixture_masses_pairs(model, centers, radii)
    alone = [mixture_ball_mass(model, Ball(c, r)) for c, r in zip(centers[::3], radii[::3])]
    assert np.array(alone).tobytes() == many[::3].tobytes()
    if d == 1:
        c2, r2 = centers[:, 0] ** 2, radii**2
        many = gaussmix.interval_masses(model, c2, r2)
        alone = [gaussmix.interval_masses(model, a, b) for a, b in zip(c2[::3], r2[::3])]
        assert np.array(alone).tobytes() == many[::3].tobytes()


def test_kernel_chunks_stay_within_scratch_bound(monkeypatch):
    # every CDF call holds at most _CHUNK_PAIRS pairs and runs on the
    # caller's thread, however many balls the kernel gets
    calls = []
    cdf = gaussmix.chisq_cdf_pairs

    def counted(d, lam, x):
        calls.append((lam.size, threading.get_ident()))
        return cdf(d, lam, x)

    monkeypatch.setattr(gaussmix, "chisq_cdf_pairs", counted)
    model = _model([1.0], [1.0], 1)
    c2 = np.linspace(0.0, 4.0, 6 * gaussmix._CHUNK_PAIRS)
    gaussmix.mixture_masses_sq(model, c2, 1.0)
    assert len(calls) == 6
    assert all(size <= gaussmix._CHUNK_PAIRS for size, _ in calls)
    assert {ident for _, ident in calls} == {threading.get_ident()}


@pytest.mark.parametrize("d", [1, 2])
def test_masses_do_not_depend_on_the_memory_order_of_their_inputs(d):
    # a column gather and an F-ordered copy are not C-ordered; the atom sum
    # once added into a copy of its total for them and returned only the
    # point-mass share (all zeros here)
    model = MixtureModel(Profile.from_scales([1.0, 2.0]), d)
    c2 = np.full((5, 1), 0.5)
    table = np.arange(1.0, 31.0).reshape(5, 6)
    gathered = table[:, [0, 2, 5]]
    assert not gathered.flags.c_contiguous
    r2 = np.ascontiguousarray(gathered)
    centers = np.broadcast_to(np.sqrt(c2)[..., None] * np.eye(d)[0], (5, 3, d))
    evaluators = [
        (gaussmix.mixture_masses_sq, c2, lambda r2: r2),
        (mixture_masses_pairs, np.ascontiguousarray(centers), np.sqrt),
    ]
    if d == 1:
        evaluators.append((gaussmix.interval_masses, c2, lambda r2: r2))
    for masses, c, of_r2 in evaluators:
        want = masses(model, c, of_r2(r2))
        assert np.all(want > 0.2)
        for other in (gathered, np.asfortranarray(r2)):
            assert masses(model, c, of_r2(other)).tobytes() == want.tobytes()
        assert masses(model, np.asfortranarray(c), of_r2(r2)).tobytes() == want.tobytes()


def test_masses_of_one_center_and_one_radius():
    # a (d,) center against a scalar radius is one ball, not its point mass
    model = _model([0.0, 1.0], [0.25, 0.75], 2)
    ball = Ball(np.array([0.5, 0.0]), 1.0)
    got = mixture_masses_pairs(model, ball.center, ball.radius)
    assert got.shape == () and got == mixture_ball_mass(model, ball)


def test_second_moment_arithmetic():
    assert mixture_second_moment(_model([1.0], [1.0], 2)) == pytest.approx(2.0, rel=1e-14)
    assert mixture_second_moment(_model([1.0, 3.0], [0.5, 0.5], 1)) == pytest.approx(
        5.0, rel=1e-14
    )


def test_second_moment_matches_spectrum_identity():
    from projlens import PointCloud, center, profile, spectrum

    rng_local = np.random.default_rng(3)
    for d in (1, 2, 4):
        cloud = center(PointCloud(rng_local.standard_normal((50, 9))))
        model = MixtureModel(profile(cloud), d)
        assert mixture_second_moment(model) == pytest.approx(
            d * spectrum(cloud).lambda_avg, rel=1e-9
        )


def test_tv_distance_closed_form_two_dims():
    # at d = 2 the chi-square CDF is 1 - e^(-x/2), and the densities cross at
    # r*^2 = 2 ln(rho) / (1/s1^2 - 1/s2^2)
    from projlens.gaussmix import _tv_distance

    s1, s2 = np.array([0.5, 1.0, 1e-3, 1.0]), np.array([0.6, 3.0, 1e-2, 1.0 + 1e-9])
    r2 = 2.0 * np.log((s2 / s1) ** 2) / (1.0 / s1**2 - 1.0 / s2**2)
    want = np.exp(-r2 / (2 * s2**2)) - np.exp(-r2 / (2 * s1**2))
    np.testing.assert_allclose(_tv_distance(2, s1, s2), want, rtol=1e-6, atol=1e-15)
    assert _tv_distance(3, np.array([2.0]), np.array([2.0]))[0] == 0.0


# many clustered atoms and point masses; the bins of the coarse model are
# 0.05 / sqrt(d) wide in log sigma
_clustered_profiles = st.tuples(
    st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=60),
    st.floats(1e-3, 10.0),
    st.integers(0, 3),
).map(lambda t: Profile.from_scales(np.concatenate([t[1] * np.exp(t[0]), np.zeros(t[2])])))


@given(_clustered_profiles, st.sampled_from([1, 2, 3, 5]), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_coarse_model_brackets_every_mass(prof, d, seed):
    # every exact mass lies within tau of the coarse one, for balls from the
    # origin out to noncentralities of 1e7 and radii up to and around the
    # center's norm, where the lower tail is deep
    model = MixtureModel(prof, d)
    coarse, tau = gaussmix.coarse_model(model)
    live = prof.sigmas > 0
    assert np.array_equal(coarse.profile.sigmas[: np.count_nonzero(~live)], prof.sigmas[~live])
    assert coarse.profile.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(coarse.profile.sigmas) <= np.count_nonzero(live)
    gen = np.random.default_rng(seed)
    top = float(prof.sigmas[-1]) or 1.0
    c2 = top**2 * np.concatenate([[0.0], 10.0 ** gen.uniform(-3, 4, 40)])
    r2 = c2 * gen.uniform(0.0, 2.0, c2.size) + top**2 * gen.uniform(0.0, 9.0, c2.size)
    exact = gaussmix.mixture_masses_sq(model, c2, r2)
    assert np.all(np.abs(exact - gaussmix.mixture_masses_sq(coarse, c2, r2)) <= tau)


@pytest.mark.parametrize("d", [2, 3])
def test_coarse_model_brackets_masses_on_the_convolution_route(d):
    # lam = 1e12 with x within a few standard deviations of it, where chndtr
    # gives nan and the kernel integrates (special._convolved)
    prof = Profile.from_scales(np.concatenate([[0.0], 0.5 * np.exp(np.linspace(0.0, 0.2, 12))]))
    model = MixtureModel(prof, d)
    coarse, tau = gaussmix.coarse_model(model)
    assert np.count_nonzero(coarse.profile.sigmas) < 12
    c2 = np.full(4, 1e12 * 0.5**2)
    r2 = c2 + 0.5**2 * 2e6 * np.array([-2.0, -0.5, 0.0, 1.5])
    with mock.patch.object(special, "_convolved", wraps=special._convolved) as conv:
        exact = gaussmix.mixture_masses_sq(model, c2, r2)
    assert conv.called
    assert np.all(np.abs(exact - gaussmix.mixture_masses_sq(coarse, c2, r2)) <= tau)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_coarse_model_hands_the_kernel_no_nan(d):
    # an atom at its bin's centre (rho = 1) is at distance 0 without a CDF
    # call: its crossing radius is 0/0, a nan x
    seen = []
    chdtr = sps.chdtr

    def spy(dof, x):
        seen.append(np.array(x, dtype=float))
        return chdtr(dof, x)

    model = MixtureModel(Profile.from_scales([0.5, 1.0, 2.0, 4.0]), d)
    with mock.patch.object(gaussmix.sps, "chdtr", spy):
        coarse, tau = gaussmix.coarse_model(model)
    assert seen and not any(np.isnan(x).any() for x in seen)
    assert gaussmix._COARSE_SLACK <= tau < 1.0


# profiles for the d = 1 bracket: point masses alone, clustered atoms (with
# point masses now and then), and sigmas spread over six decades
_interval_profiles = st.one_of(
    st.integers(1, 3).map(lambda k: Profile.from_scales(np.zeros(k))),
    _clustered_profiles,
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8).map(
        lambda e: Profile.from_scales(10.0 ** np.array(e))
    ),
)
# (log10 c^2, log10 r^2) in units of the widest sigma squared: anywhere from
# c = 0 to c^2 = 1e6 and r^2 = 1e-300 to 1e6; tiny x, where lam x < 4e-90;
# and the deep lower tail, r below half of |c| with |c| from 18 to 56 sigma
_interval_balls = st.one_of(
    st.tuples(st.one_of(st.just(-np.inf), st.floats(-12.0, 6.0)), st.floats(-300.0, 6.0)),
    st.tuples(st.floats(-12.0, 2.0), st.floats(-300.0, -100.0)),
    st.tuples(st.floats(2.5, 3.5), st.floats(-12.0, -0.6)).map(lambda t: (t[0], t[0] + t[1])),
)


@given(_interval_profiles, st.lists(_interval_balls, min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_interval_bracket_stays_within_1e12_of_the_kernel(prof, balls):
    # the closed form the pruned scoring rules d = 1 balls out with is the
    # kernel's mass to far better than the 1e-9 slack it is given
    model = MixtureModel(prof, 1)
    top = float(prof.sigmas[-1]) or 1.0
    log_c2, log_r2 = np.array(balls).T
    c2, r2 = top**2 * 10.0**log_c2, top**2 * 10.0**log_r2
    got = gaussmix.interval_masses(model, c2, r2)
    assert np.all(np.abs(got - gaussmix.mixture_masses_sq(model, c2, r2)) <= 1e-12)


def test_interval_bracket_is_the_kernel_bit_for_bit_on_its_closed_form_route():
    # where sqrt(x lam) >= 1/2, deep in the lower tail or not, or where x >
    # lam and sqrt x + sqrt lam >= 1, the kernel's d = 1 route is the
    # bracket's own closed form, so a one-atom model gets the same bits from
    # both; the kernel's short sum takes every other pair, within 1e-15 of
    # the bracket. The deep pairs have lam up to 1e13 and a Chernoff exponent
    # near -c, c from 30 to 690
    gen = np.random.default_rng(7)
    lam = 10.0 ** gen.uniform(-8.0, 4.0, 40_000)
    x = lam * 10.0 ** gen.uniform(-8.0, 6.0, lam.size)
    deep_lam = 10.0 ** gen.uniform(0.0, 13.0, 4000)
    deep_x = (np.sqrt(deep_lam) - np.sqrt(2.0 * gen.uniform(30.0, 690.0, 4000))) ** 2
    lam, x = np.concatenate([lam, deep_lam]), np.concatenate([x, deep_x])
    s_x, s_l = np.sqrt(x), np.sqrt(lam)
    route = (s_x * s_l >= 0.5) | ((x > lam) & (s_x + s_l >= 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        deep = special._log_chernoff(0.5, lam / 2.0, x / 2.0) < special._DEEP_TAIL_LOG
    above = x > lam
    assert np.count_nonzero(route & above) > 5000 and np.count_nonzero(route & ~above) > 5000
    assert np.count_nonzero(route & deep) > 2000 and np.count_nonzero(~route) > 5000
    model = _model([1.0], [1.0], 1)
    got = gaussmix.interval_masses(model, lam, x)
    want = gaussmix.mixture_masses_sq(model, lam, x)
    assert got[route].tobytes() == want[route].tobytes()
    assert np.all(np.abs(got - want) <= 1e-15)


def test_interval_bracket_routes_and_edge_balls():
    # the property above reaches the kernel's short sum, on a tiny-x pair
    # and on a deep one (at d = 1 the normal-tail difference leaves it only
    # lam x < 1/4, here 4e-300 and 0.1); balls the closed form cannot take
    # (B(0, 0), r = inf, lam = inf) get the kernel's value or its refusal
    model = _model([0.0, 1.0], [0.25, 0.75], 1)
    c2 = np.array([4.0, 1e3, 0.0, 0.0, 9.0])
    r2 = np.array([1e-300, 1e-4, 0.0, np.inf, 4.0])
    with mock.patch.object(special, "_short_sum", wraps=special._short_sum) as short:
        want = gaussmix.mixture_masses_sq(model, c2, r2)
    summed = np.concatenate([xh for _, _, xh in (call.args for call in short.call_args_list)])
    assert np.isin(r2[:2] / 2.0, summed).all()
    got = gaussmix.interval_masses(model, c2, r2)
    assert np.all(np.abs(got - want) <= 1e-15)
    assert got[2] == 0.25 and got[3] == 1.0
    assert gaussmix.interval_masses(model, np.float64(9.0), 4.0).shape == ()
    with pytest.raises(ValueError, match="noncentrality"):
        gaussmix.interval_masses(model, [np.inf], [1.0])
    with pytest.raises(ValueError, match="d = 1"):
        gaussmix.interval_masses(_model([1.0], [1.0], 2), [1.0], [1.0])
