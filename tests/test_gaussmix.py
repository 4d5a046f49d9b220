"""Ball algebra and scale-mixture mass tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlens import (
    Ball,
    MixtureModel,
    Profile,
    mixture_ball_mass,
    mixture_second_moment,
    nu_ball_mass,
    resize_ball,
)
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
def test_masses_identical_across_threads(d):
    # 600 atoms by 1500 balls is seven chunks of the kernel, so threads=2
    # runs them on the pool
    gen = np.random.default_rng(d)
    model = MixtureModel(Profile.from_scales(gen.uniform(0.05, 2.0, 600)), d)
    centers = gen.normal(size=(1500, d)) * 2
    radii = gen.uniform(0.0, 4.0, 1500)
    serial = mixture_masses_pairs(model, centers, radii, threads=1)
    for threads in (2, 0):
        got = mixture_masses_pairs(model, centers, radii, threads=threads)
        assert got.tobytes() == serial.tobytes()
    # and a ball scored alone gets the same bits as in a chunk of many
    alone = [mixture_ball_mass(model, Ball(c, r)) for c, r in zip(centers[::3], radii[::3])]
    assert np.array(alone).tobytes() == serial[::3].tobytes()


def test_kernel_runs_at_most_two_chunks_at_once(monkeypatch):
    # the scratch in flight is bounded whatever the thread count asks for
    import threading
    import time

    from projlens import gaussmix

    lock, running, peak = threading.Lock(), [0], [0]
    cdf = gaussmix.chisq_cdf_pairs

    def counted(d, lam, x):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.02)
        with lock:
            running[0] -= 1
        return cdf(d, lam, x)

    monkeypatch.setattr(gaussmix, "chisq_cdf_pairs", counted)
    model = _model([1.0], [1.0], 1)
    c2 = np.linspace(0.0, 4.0, 6 * gaussmix._CHUNK_PAIRS)
    got = gaussmix.mixture_masses_sq(model, c2, 1.0, threads=8)
    assert peak[0] == 2
    monkeypatch.setattr(gaussmix, "chisq_cdf_pairs", cdf)
    assert got.tobytes() == gaussmix.mixture_masses_sq(model, c2, 1.0).tobytes()


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
