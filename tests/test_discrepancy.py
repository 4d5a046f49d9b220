"""Estimator tests: ball masses, the grid-ball net, sweeps, and reports."""

import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projlens import (
    Ball,
    DiscrepancyReport,
    MixtureModel,
    Profile,
    SizeLimitError,
    apply,
    build_ball_net,
    center,
    chisq_cdf,
    empirical_mass,
    gaussian_sample,
    gen_cube,
    gen_two_cluster,
    ks_statistic,
    lipschitz_probe,
    mc_ball_sup,
    mixture_ball_mass,
    mixture_inflation_delta,
    net_params_from_bounds,
    net_sandwich,
    profile,
    radial_sweep_sup,
    resize_ball,
    sample_projection,
    sigma_epsilon,
    smoothed_mass,
    spectrum,
    sup_over_net,
)
from projlens import discrepancy
from projlens.discrepancy import (
    _first_max,
    _report,
    _sq_dists,
    _witness_radius_at_least,
    _witness_radius_below,
)
from projlens.gaussmix import mixture_masses_pairs

UNIT_PROFILE = Profile(np.array([1.0]), np.array([1.0]))
MODEL_1D = MixtureModel(UNIT_PROFILE, 1)
MODEL_2D = MixtureModel(UNIT_PROFILE, 2)

# margin formula at eps=0.25, sigma_eps=1, d=1, evaluated by hand:
# 0.5 * ln(1 + 0.25/8) / (1 + sqrt(2 ln 32))
NET_DELTA_025 = 0.00423528993400539
NET_EPS_O_025 = 0.0010588224835013475


def test_empirical_mass_hand_values():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    # boundary point counts as inside
    assert empirical_mass(pts, Ball(np.zeros(2), 1.0)) == 2.0 / 3.0
    assert empirical_mass(pts, Ball.all_space(2)) == 1.0
    assert empirical_mass(pts, Ball.empty(2)) == 0.0
    with pytest.raises(ValueError):
        empirical_mass(pts, Ball(np.zeros(3), 1.0))


def test_smoothed_mass_ramp_values():
    ball = Ball(np.zeros(2), 1.0)
    midpoint = np.array([[1.5, 0.0]])  # distance delta/2 past the boundary
    assert smoothed_mass(midpoint, ball, 1.0) == pytest.approx(0.5, abs=1e-15)
    both = np.array([[1.5, 0.0], [0.2, 0.0]])
    assert smoothed_mass(both, ball, 1.0) == pytest.approx(0.75, abs=1e-15)
    inside = np.array([[0.5, 0.0], [-0.3, 0.4]])
    assert smoothed_mass(inside, ball, 0.25) == 1.0
    for bad in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            smoothed_mass(inside, ball, bad)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_smoothed_mass_sandwiched_by_ball_masses(seed):
    rng_local = np.random.default_rng(seed)
    pts = 2.0 * rng_local.standard_normal((40, 2))
    ball = Ball(rng_local.uniform(-2, 2, size=2), rng_local.uniform(0.1, 3.0))
    delta = rng_local.uniform(0.1, 2.0)
    mid = smoothed_mass(pts, ball, delta)
    assert empirical_mass(pts, ball) - 1e-12 <= mid
    assert mid <= empirical_mass(pts, resize_ball(ball, delta)) + 1e-12


def test_build_ball_net_enumeration():
    net = build_ball_net(1, 1.0, 0.25)
    np.testing.assert_allclose(net.axis, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15)
    np.testing.assert_allclose(net.radii, 0.25 * np.arange(1, 11), atol=1e-15)
    assert net.n_grid_balls == 50
    assert len(net) == 51
    balls = list(net)
    assert balls[0] == Ball(np.array([-1.0]), 0.25)
    assert balls[-1].is_all
    assert sum(1 for _ in net) == 51


def test_build_ball_net_coarse_grid_and_radius_bound():
    coarse = build_ball_net(1, 0.7, 0.7)
    np.testing.assert_allclose(coarse.axis, [-0.7, 0.0, 0.7], atol=1e-15)
    for d, c, eps_o in ((1, 1.0, 0.3), (2, 0.8, 0.11), (3, 1.3, 0.5)):
        net = build_ball_net(d, c, eps_o)
        top = (2.0 * c + 2.0 * eps_o) * math.sqrt(d)
        assert net.radii[-1] <= top + eps_o * math.sqrt(d) + 1e-12
        assert net.radii[-1] >= top - 1e-9


def test_build_ball_net_size_limit():
    with pytest.raises(SizeLimitError, match="limit"):
        build_ball_net(3, 50.0, 0.01)
    with pytest.raises(ValueError):
        build_ball_net(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_ball_net(1, -1.0, 0.1)


def test_net_params_from_bounds():
    assert net_params_from_bounds(0.5, 1.0, 1.0, 2).c == pytest.approx(1.0, rel=1e-15)
    params = net_params_from_bounds(0.25, 1.0, 1.0, 1)
    assert params.delta == pytest.approx(NET_DELTA_025, rel=1e-12)
    hand = 0.5 * math.log1p(0.25 / 8.0) / (1.0 + math.sqrt(2.0 * math.log(32.0)))
    assert params.delta == pytest.approx(hand, rel=1e-12)
    assert params.c == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert params.eps_o == pytest.approx(NET_EPS_O_025, rel=1e-12)
    for eps in (0.1, 0.25, 0.7):
        for d in (1, 2, 3):
            p = net_params_from_bounds(eps, 1.3, 0.8, d)
            assert p.eps_o * 4.0 * math.sqrt(d) == pytest.approx(p.delta, rel=1e-12)
    with pytest.raises(ValueError):
        net_params_from_bounds(0.25, 1.0, 0.0, 1)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_net_sandwich_containment(seed):
    net = build_ball_net(2, 1.0, 0.2)
    rng_local = np.random.default_rng(seed)
    ball = Ball(rng_local.uniform(-1.5, 1.5, size=2), rng_local.uniform(0.01, 3.0))
    inner, outer = net_sandwich(ball, net)
    np.testing.assert_array_equal(inner.center, outer.center)
    dist = float(np.linalg.norm(inner.center - ball.center))
    if not inner.is_empty:
        assert dist + inner.radius <= ball.radius + 1e-12
    if not outer.is_all:
        assert dist + ball.radius <= outer.radius + 1e-12
    pts = rng_local.uniform(-2, 2, size=(60, 2))
    assert empirical_mass(pts, inner) <= empirical_mass(pts, ball)
    assert empirical_mass(pts, ball) <= empirical_mass(pts, outer)


def test_net_sandwich_rejects_distinguished_balls():
    net = build_ball_net(1, 1.0, 0.25)
    with pytest.raises(ValueError):
        net_sandwich(Ball.all_space(1), net)
    with pytest.raises(ValueError):
        net_sandwich(Ball(np.zeros(2), 1.0), net)


def test_sup_over_net_matches_own_model():
    params = net_params_from_bounds(0.25, 1.0, 1.0, 1)
    net = build_ball_net(1, params.c, params.eps_o)
    for seed in (0, 1):
        cloud = gaussian_sample(1, 10**5, 1.0, seed)
        report = sup_over_net(cloud, MODEL_1D, net)
        assert report.value <= 0.02


def test_sup_over_net_single_point_at_origin():
    report = sup_over_net(np.zeros((1, 1)), MODEL_1D, build_ball_net(1, 1.0, 0.25))
    assert report.value >= 0.6
    assert report.witness.radius == pytest.approx(0.25)
    np.testing.assert_allclose(report.witness.center, [0.0])
    # the tiny ball holds the whole cloud but almost no model mass
    assert report.params["witness_empirical"] == 1.0


def test_sup_over_net_all_ball_only():
    bare = build_ball_net(1, 1.0, 0.25)
    empty_net = type(bare)(
        d=1, c=1.0, eps_o=0.25, axis=np.empty(0), radii=np.empty(0)
    )
    report = sup_over_net(np.ones((3, 1)), MODEL_1D, empty_net)
    assert report.value == 0.0
    assert report.witness.is_all


def test_radial_sweep_equals_distance_ks_at_origin():
    cloud = gaussian_sample(2, 2000, 1.0, 0)
    report = radial_sweep_sup(cloud.data, MODEL_2D, centers=np.zeros((1, 2)))
    sq = np.einsum("ij,ij->i", cloud.data, cloud.data)
    ks = ks_statistic(sq, lambda x: chisq_cdf(2, 0.0, np.asarray(x, dtype=float)))
    assert report.value == pytest.approx(ks, abs=1e-12)


def test_radial_sweep_ks_calibration_over_seeds():
    n = 10**4
    hits = 0
    for seed in range(20):
        cloud = gaussian_sample(2, n, 1.0, seed)
        report = radial_sweep_sup(cloud.data, MODEL_2D, centers=np.zeros((1, 2)))
        # 99.9% point of the Kolmogorov limit law at n = 1e4
        hits += report.value <= 0.0195
    assert hits >= 19


def test_radial_sweep_far_center():
    # a distant center turns the sweep into the KS of the distance law,
    # exercising the large-noncentrality chi-square path
    cloud = gaussian_sample(2, 500, 1.0, 0)
    far = np.array([[1000.0 * math.sqrt(2.0), 0.0]])
    report = radial_sweep_sup(cloud.data, MODEL_2D, centers=far)
    diff = cloud.data - far
    sq = np.einsum("ij,ij->i", diff, diff)
    lam = float(far[0] @ far[0])
    ks = ks_statistic(sq, lambda x: chisq_cdf(2, lam, np.asarray(x, dtype=float)))
    assert report.value == pytest.approx(ks, abs=1e-12)
    assert report.value <= 0.1


def test_radial_sweep_rejects_bad_centers():
    cloud = gaussian_sample(1, 50, 1.0, 0)
    with pytest.raises(ValueError):
        radial_sweep_sup(cloud.data, MODEL_1D, centers=np.empty((0, 1)))
    with pytest.raises(ValueError):
        radial_sweep_sup(cloud.data, MODEL_1D, centers=np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_and_centers_are_refused(bad):
    # refused up front, before the kernel sees a non-finite noncentrality
    pts = np.array([[0.5], [bad], [-1.0]])
    with pytest.raises(ValueError, match="points must be finite"):
        radial_sweep_sup(pts, MODEL_1D)
    with pytest.raises(ValueError, match="points must be finite"):
        mc_ball_sup(pts, MODEL_1D, 10)
    with pytest.raises(ValueError, match="points must be finite"):
        empirical_mass(pts, Ball(np.zeros(1), 1.0))
    with pytest.raises(ValueError, match="sweep centers must be finite"):
        radial_sweep_sup(np.zeros((3, 1)), MODEL_1D, centers=np.array([[0.0], [bad]]))


def test_net_over_work_limit_is_refused():
    # a centred two-cluster cloud has one atom per point; at d = 1 and the
    # CLI's eps = 0.25 its net holds about 3.9e6 balls, 1.6e9 pairs in all
    src = center(gen_two_cluster(50, 400, 4.0, seed=0))
    prof = profile(src)
    npar = net_params_from_bounds(0.25, sigma_epsilon(prof, 0.25), spectrum(src).lambda_avg, 1)
    net = build_ball_net(1, npar.c, npar.eps_o)
    pairs = net.n_grid_balls * prof.sigmas.size
    assert pairs > 10**9
    # refused before any point is scored, so any d = 1 cloud will do
    with pytest.raises(SizeLimitError, match=f"{pairs} \\(atom, ball\\) pairs"):
        sup_over_net(src.data[:, :1], MixtureModel(prof, 1), net)


def test_radial_sweep_over_work_limit_is_refused():
    # 2001 centers x 2000 radii x 2000 atoms = 8.0e9 pairs
    src = center(gen_two_cluster(50, 2000, 4.0, seed=0))
    prof = profile(src)
    assert prof.sigmas.size == 2000
    with pytest.raises(SizeLimitError, match="8004000000 \\(atom, ball\\) pairs"):
        radial_sweep_sup(src.data[:, :2], MixtureModel(prof, 2))


def test_radial_sweep_dominates_net_at_shared_centers():
    g = gaussian_sample(1, 2000, 1.0, 3)
    data = np.clip(0.37 * g.data + 0.11, -0.99, 0.99)
    net = build_ball_net(1, 1.0, 0.05)
    rep_net = sup_over_net(data, MODEL_1D, net)
    rep_rad = radial_sweep_sup(data, MODEL_1D, centers=net.axis[:, None])
    assert rep_rad.value >= rep_net.value - 1e-12
    # between net radii the prediction moves by at most the interval modulus,
    # and past the top radius (all data inside) only the model tail is left
    r_step = 0.05
    modulus = 2.0 * r_step / math.sqrt(2.0 * math.pi)
    top = float(net.radii[-1])
    tail = 1.0 - chisq_cdf(1, 0.0, top * top)
    assert rep_rad.value - rep_net.value <= modulus + tail + 1e-12


def test_projection_sandwich_over_seeds():
    # inflated/deflated model masses bracket the projected mass for nearly
    # every projection draw
    D, d, eps = 200, 1, 0.3
    cloud = center(gen_cube(D, n=500, seed=1))
    prof = profile(cloud)
    delta = mixture_inflation_delta(sigma_epsilon(prof, eps), d, eps)
    model = MixtureModel(prof, d)
    ball = Ball(np.array([0.2]), 0.9)
    lo_ref = mixture_ball_mass(model, resize_ball(ball, -delta)) - eps
    hi_ref = mixture_ball_mass(model, resize_ball(ball, delta)) + eps
    ok = 0
    for seed in range(500):
        rows = apply(sample_projection(d, D, seed), cloud)
        ok += lo_ref <= empirical_mass(rows, ball) <= hi_ref
    assert ok >= 475


def test_net_sandwich_controls_every_ball():
    # smaller version of the full certification sweep: net balls bracket any
    # ball centered in the grid box with a small predicted-mass gap
    params = net_params_from_bounds(0.25, 1.0, 1.0, 1)
    net = build_ball_net(1, params.c, params.eps_o)
    rng_local = np.random.default_rng(0)
    for _ in range(200):
        ball = Ball(
            rng_local.uniform(-params.c, params.c, size=1),
            rng_local.uniform(1e-6, 2.0 * params.c),
        )
        inner, outer = net_sandwich(ball, net)
        gap = mixture_ball_mass(MODEL_1D, outer) - mixture_ball_mass(MODEL_1D, inner)
        assert 0.0 <= gap <= 2.0 * 0.25


def test_mc_ball_sup_edge_cases():
    cloud = gaussian_sample(1, 400, 1.0, 3)
    huge = mc_ball_sup(cloud.data, MODEL_1D, 1, seed=5, center_box=1e-6, max_radius=1e6)
    assert huge.value <= 1e-6
    values = [
        mc_ball_sup(cloud.data, MODEL_1D, nb, seed=7).value for nb in (100, 500, 2000)
    ]
    assert values == sorted(values)  # prefix stream: more balls never lose one
    with pytest.raises(ValueError):
        mc_ball_sup(cloud.data, MODEL_1D, 0)
    with pytest.raises(ValueError):
        mc_ball_sup(cloud.data, MODEL_1D, 10, center_box=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_mc_refuses_non_finite_box_and_radius(bad):
    # max_radius = inf once gave value 0.0 with an infinite-radius witness,
    # and center_box = inf failed inside the kernel
    pts = np.zeros((3, 1))
    with pytest.raises(ValueError, match="finite center_box > 0 and max_radius > 0"):
        mc_ball_sup(pts, MODEL_1D, 10, center_box=bad)
    with pytest.raises(ValueError, match="finite center_box > 0 and max_radius > 0"):
        mc_ball_sup(pts, MODEL_1D, 10, max_radius=bad)


@pytest.mark.parametrize("seed, sign", [(4, -1), (7, 1), (8, -1), (8, 1), (11, 1)])
def test_mc_counts_boundary_points_of_far_balls(seed, sign):
    # a ball far from the origin (|c| ~ 1e4, r <= 1) with one point just
    # inside or just outside its boundary: an |p|^2 - 2 c.p + |c|^2 count
    # loses the digits that decide it, so value and witness disagreed
    kw = {"seed": seed, "center_box": 1e4, "max_radius": 1.0}
    ball = mc_ball_sup(np.zeros((1, 1)), MODEL_1D, 1, **kw).witness
    pts = (ball.center + ball.radius * (1.0 + sign * 1e-9))[None, :]
    report = mc_ball_sup(pts, MODEL_1D, 1, **kw)
    assert report.witness == ball
    emp = empirical_mass(pts, ball)
    assert emp == (1.0 if sign < 0 else 0.0)
    assert report.params["witness_empirical"] == emp
    assert report.value == pytest.approx(abs(emp - mixture_ball_mass(MODEL_1D, ball)), abs=1e-12)


def test_mc_over_work_limit_is_refused():
    # 1000 atoms x (1e6 + 1) balls = 1.000001e9 pairs, refused before the
    # ball stream is drawn
    model = MixtureModel(Profile.from_scales(np.linspace(1.0, 2.0, 1000)), 2)
    with pytest.raises(SizeLimitError, match="1000001000 \\(atom, ball\\) pairs"):
        mc_ball_sup(np.zeros((1, 2)), model, 10**6 + 1)


# small clouds on a half-integer grid: duplicate points, tied distances, and
# points exactly on the boundaries of net balls
_grid_clouds = st.integers(1, 2).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=14
    ).map(lambda rows: 0.5 * np.array(rows, dtype=float))
)
# scale 0 is a point-mass atom at the origin, which the grid centers and
# data distances often hit exactly
_small_models = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=3).map(
    Profile.from_scales
)


@given(_grid_clouds, _small_models, st.lists(st.integers(-4, 4), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_radial_sweep_dominates_brute_force_scan(pts, prof, raw_centers):
    n, d = pts.shape
    model = MixtureModel(prof, d)
    centers = 0.5 * np.array(raw_centers[: len(raw_centers) // d * d], dtype=float).reshape(-1, d)
    report = radial_sweep_sup(pts, model, centers=centers)
    brute = 0.0
    for c in centers:
        dist = np.unique(np.linalg.norm(pts - c, axis=1))
        for r in np.concatenate([dist, 0.5 * (dist[1:] + dist[:-1])]):
            ball = Ball(c, float(r))
            brute = max(brute, abs(empirical_mass(pts, ball) - mixture_ball_mass(model, ball)))
    assert report.value >= brute - 1e-12


def test_radial_sweep_with_point_mass_atom_under_reports():
    # the from-below limit at a distance equal to the center's norm (2) must
    # take the open ball, which leaves out the point-mass atom's jump; with
    # the closed ball that candidate won and its witness re-evaluated to
    # 0.165, while the closed ball B(2, 2.25) scores 0.618
    model = MixtureModel(Profile(np.array([0.0, 1.0]), np.array([0.67, 0.33])), 1)
    pts = np.array([[-0.5], [-1.0], [-0.5], [0.0]])
    centers = np.array([[1.0], [2.0]])
    ball = Ball(np.array([2.0]), 2.25)
    brute = abs(empirical_mass(pts, ball) - mixture_ball_mass(model, ball))
    assert brute == pytest.approx(0.6176, abs=1e-4)
    assert radial_sweep_sup(pts, model, centers=centers).value >= brute - 1e-12


_POINT_MASS_AT_ZERO = """
import numpy as np
from projlens import MixtureModel, Profile, radial_sweep_sup
model = MixtureModel(Profile(np.array([0.0, 1.0]), np.array([0.67, 0.33])), 1)
pts = np.array([[-2.0], [-0.5], [0.0], [-1.0], [1.0], [2.0]])
print(radial_sweep_sup(pts, model, centers=np.array([[-1.5], [0.0]])).value)
print(radial_sweep_sup(np.zeros((1, 1)), model, centers=np.zeros((1, 1))).value)
"""


def test_radial_sweep_point_mass_limit_at_radius_zero_finishes():
    # a from-below limit at distance 0 once searched for a radius r with
    # r * r < 0 and never stopped; the sweep runs in a child so a hang fails
    proc = subprocess.run(
        [sys.executable, "-c", _POINT_MASS_AT_ZERO],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in proc.stdout.split()]
    # one point on the point mass at the center: B(0, 0) holds all of the
    # data and 0.67 of the model
    assert values[1] == pytest.approx(0.33, abs=1e-12)
    model = MixtureModel(Profile(np.array([0.0, 1.0]), np.array([0.67, 0.33])), 1)
    pts = np.array([[-2.0], [-0.5], [0.0], [-1.0], [1.0], [2.0]])
    balls = [Ball(np.array([c]), r) for c in (-1.5, 0.0) for r in np.arange(0.0, 4.0, 0.125)]
    brute = max(abs(empirical_mass(pts, b) - mixture_ball_mass(model, b)) for b in balls)
    assert values[0] >= brute - 1e-12


def _per_center_sweep(pts, model, centers=None):
    """radial_sweep_sup as it was before blocks of centers: one kernel call
    per center, over its distinct squared distances only."""
    n, d = pts.shape
    cens = np.vstack([pts, np.zeros((1, d))]) if centers is None else centers
    point_mass = float(model.profile.weights[model.profile.sigmas == 0.0].sum())

    def scored():
        for center in cens:
            row = _sq_dists(pts, center[None, :])[0]
            row.sort()
            first = np.flatnonzero(np.concatenate(([True], row[1:] != row[:-1])))
            uniq = row[first]
            radii = np.sqrt(uniq)
            above = below = mixture_masses_pairs(model, center[None, :], radii)
            if point_mass:
                c2 = np.einsum("...j,...j->...", center[None, :], center[None, :])
                cont = above - point_mass * (c2 <= radii**2)
                above = cont + point_mass * (c2 <= uniq)
                below = cont + point_mass * (c2 < uniq)
            yield np.append(first[1:], n) / n - above, center, uniq, True
            yield below - first / n, center, uniq, False

    _, (_, center, uniq, from_above), i = _first_max(scored())
    sq = float(uniq[i])
    if from_above:
        witness = Ball(center.copy(), _witness_radius_at_least(sq))
    elif sq > 0.0:
        witness = Ball(center.copy(), _witness_radius_below(sq))
    else:
        witness = Ball.empty(d)
    emp = empirical_mass(pts, witness)
    pred = mixture_ball_mass(model, witness)
    return _report("radial", (abs(emp - pred), witness, emp, pred), n, 0,
                   {"n_centers": int(cens.shape[0])})


_sweep_centers = st.one_of(
    st.none(), st.lists(st.integers(-4, 4), min_size=1, max_size=8)
)


@given(_grid_clouds, _small_models, _sweep_centers, st.sampled_from([1, 5, 64, 2**14]))
@example(np.zeros((1, 1)), Profile.from_scales([0.0, 1.0]), [0], 1)
@example(np.array([[0.0], [0.5], [0.5]]), Profile.from_scales([0.0]), None, 5)
@settings(max_examples=80, deadline=None)
def test_radial_sweep_blocks_equal_per_center_sweep(pts, prof, raw_centers, budget):
    # one kernel call per block of centers gives the report of one call per
    # center bit for bit, whatever the block size; ties, point masses and
    # the empty-ball limit at radius 0 included
    d = pts.shape[1]
    model = MixtureModel(prof, d)
    centers = None
    if raw_centers is not None:
        centers = 0.5 * np.resize(np.array(raw_centers, dtype=float), (len(raw_centers), d))
    with mock.patch.object(discrepancy, "_SWEEP_BLOCK_PAIRS", budget):
        got = radial_sweep_sup(pts, model, centers=centers).to_json()
    want = _per_center_sweep(pts, model, centers).to_json()
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("d, atoms", [(1, 1), (2, 50)])
def test_radial_sweep_kernel_calls_stay_within_block_budget(monkeypatch, d, atoms):
    # each kernel call of the sweep scores at most 2^14 (live atom, ball)
    # pairs, unless one center alone has more
    gen = np.random.default_rng(d)
    n = 400 if atoms == 1 else 50
    pts = gen.normal(size=(n, d))
    model = MixtureModel(Profile.from_scales(np.linspace(0.5, 2.0, atoms)), d)
    calls = []

    def counted(model, centers, radii, *args):
        shape = np.broadcast_shapes(np.shape(centers)[:-1], np.shape(radii))
        calls.append((math.prod(shape) * atoms, math.prod(np.shape(centers)[:-1])))
        return mixture_masses_pairs(model, centers, radii, *args)

    monkeypatch.setattr(discrepancy, "mixture_masses_pairs", counted)
    radial_sweep_sup(pts, model)
    assert sum(centers for _, centers in calls) == n + 1
    for pairs, centers in calls:
        assert pairs <= 2**14 or centers == 1
    # blocks hold several centers, so the budget is what bounds them
    assert max(pairs for pairs, _ in calls) > 2**13


@given(_grid_clouds, _small_models, st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_every_estimator_witness_reproduces_its_value(pts, prof, seed):
    d = pts.shape[1]
    model = MixtureModel(prof, d)
    reports = [
        sup_over_net(pts, model, build_ball_net(d, 1.0, 0.25)),
        radial_sweep_sup(pts, model),
        mc_ball_sup(pts, model, 50, seed=seed, center_box=2.0, max_radius=3.0),
    ]
    for report in reports:
        emp = empirical_mass(pts, report.witness)
        pred = mixture_ball_mass(model, report.witness)
        assert report.params["witness_empirical"] == emp
        assert report.params["witness_predicted"] == pytest.approx(pred, abs=1e-12)
        assert report.value == pytest.approx(abs(emp - pred), abs=1e-12)


def test_lipschitz_probe_respects_bound():
    cube = center(gen_cube(100, n=200, seed=2))
    bound = math.sqrt(spectrum(cube).lambda_max / (100 * 0.5**2))
    ball = Ball(np.zeros(2), 1.0)
    ratio = lipschitz_probe(cube, ball, 0.5, 50, 0.1, seed=0)
    assert 0.0 < ratio <= bound * (1.0 + 1e-9)
    assert ratio == lipschitz_probe(cube, ball, 0.5, 50, 0.1, seed=0)
    with pytest.raises(ValueError):
        lipschitz_probe(cube, ball, 0.5, 0, 0.1)
    with pytest.raises(ValueError):
        lipschitz_probe(cube, ball, 0.5, 10, 0.0)


@pytest.mark.parametrize("estimator", ["net", "radial", "mc"])
def test_witness_reproduces_report_value(estimator):
    cloud = gaussian_sample(2, 800, 1.0, 4)
    shifted = cloud.data + np.array([0.3, -0.1])
    if estimator == "net":
        report = sup_over_net(shifted, MODEL_2D, build_ball_net(2, 1.0, 0.2))
    elif estimator == "radial":
        report = radial_sweep_sup(shifted, MODEL_2D)
    else:
        report = mc_ball_sup(shifted, MODEL_2D, 600, seed=9)
    emp = empirical_mass(shifted, report.witness)
    pred = mixture_ball_mass(MODEL_2D, report.witness)
    assert abs(emp - pred) == pytest.approx(report.value, abs=1e-12)
    assert report.params["witness_empirical"] == pytest.approx(emp, abs=1e-15)
    assert report.params["witness_predicted"] == pytest.approx(pred, abs=1e-15)
    assert 0.0 <= report.value <= 1.0
    assert report.n_points == 800


def test_report_json_round_trip():
    cloud = gaussian_sample(1, 100, 1.0, 0)
    report = mc_ball_sup(cloud.data, MODEL_1D, 50, seed=2)
    blob = json.dumps(report.to_json())
    back = DiscrepancyReport.from_json(json.loads(blob))
    assert back == report
    for special in (Ball.all_space(2), Ball.empty(2)):
        hand = DiscrepancyReport(
            estimator="net",
            value=0.5,
            witness=special,
            n_points=7,
            seed=3,
            params={"c": 1.0},
        )
        again = DiscrepancyReport.from_json(json.loads(json.dumps(hand.to_json())))
        assert again == hand
        tag = hand.to_json()["witness"]["radius"]
        assert tag == ("ALL" if special.is_all else "EMPTY")


@pytest.mark.parametrize("d, c, eps_o", [(1, 2.0, 0.1), (2, 1.5, 0.3), (3, 1.0, 0.45)])
def test_net_table_gives_every_ball_its_own_mass(d, c, eps_o):
    # sup_over_net scores each distinct squared norm once; every grid ball
    # must still get, bit for bit, the mass of its own ball, point mass at
    # the origin and far centers (deep lower tail) included
    from projlens.discrepancy import _net_blocks

    model = MixtureModel(Profile.from_scales([0.0, 0.05, 0.3, 1.0]), d)
    net = build_ball_net(d, c, eps_o)
    balls = iter(net)
    for centers, radii, pred in _net_blocks(model, net, threads=2):
        for i, j in np.ndindex(pred.shape):
            ball = next(balls)
            assert np.array_equal(centers[i], ball.center) and radii[i, j] == ball.radius
            assert pred[i, j] == mixture_ball_mass(model, ball)
    assert next(balls).is_all


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sup_over_net_is_first_max_over_every_ball(d):
    gen = np.random.default_rng(d)
    pts = np.round(gen.normal(size=(40, d)) * 4.0) / 4.0
    model = MixtureModel(Profile.from_scales([0.0, 0.5, 1.0]), d)
    net = build_ball_net(d, 1.0, 0.25 if d < 3 else 0.3)
    want, witness = -1.0, None
    for ball in net:
        value = abs(empirical_mass(pts, ball) - mixture_ball_mass(model, ball))
        if value > want:
            want, witness = value, ball
    for threads in (1, 2):
        report = sup_over_net(pts, model, net, threads=threads)
        assert report.value == want
        assert report.witness == witness

