"""Projection map tests: sampling, orthonormalization, PCA, Gaussian draws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlens import (
    CsvFormatError,
    EigengapWarning,
    PointCloud,
    apply,
    center,
    gaussian_sample,
    gen_cross_polytope,
    gen_simplex,
    gen_spherical,
    gen_two_cluster,
    load_projection_map,
    orthonormalize,
    pca_project,
    sample_projection,
    save_projection_map,
    AtomLaw,
)


def test_row_norms_concentrate():
    hits_norm = 0
    hits_dot = 0
    for seed in range(100):
        theta = sample_projection(2, 1000, seed=seed).theta
        norms = np.linalg.norm(theta, axis=1) / math.sqrt(1000)
        if np.all((norms >= 0.9) & (norms <= 1.1)):
            hits_norm += 1
        if abs(theta[0] @ theta[1]) / 1000 <= 0.1:
            hits_dot += 1
    assert hits_norm >= 99
    assert hits_dot >= 99


def test_same_seed_bit_identical():
    a = sample_projection(3, 50, seed=11).theta
    b = sample_projection(3, 50, seed=11).theta
    assert np.array_equal(a, b)


def test_orthonormalize_idempotent_and_normalizing():
    base = sample_projection(3, 100, seed=0)
    ortho = orthonormalize(base)
    gram = ortho.theta @ ortho.theta.T
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10
    again = orthonormalize(ortho)
    assert np.max(np.abs(again.theta - ortho.theta)) < 1e-12
    one = sample_projection(1, 20, seed=1)
    unit = orthonormalize(one).theta
    assert np.allclose(unit, one.theta / np.linalg.norm(one.theta))


def _gram_schmidt(theta):
    out = np.array(theta, dtype=float)
    for i in range(out.shape[0]):
        for j in range(i):
            out[i] -= (out[j] @ out[i]) * out[j]
        out[i] /= np.linalg.norm(out[i])
    return out


def test_orthonormalize_equals_gram_schmidt():
    for d, D, seed in ((1, 20, 1), (3, 100, 0), (8, 9, 5)):
        pmap = sample_projection(d, D, seed=seed)
        got = orthonormalize(pmap).theta
        assert np.max(np.abs(got - _gram_schmidt(pmap.theta))) < 1e-12


def test_orthonormalize_rejects_rank_deficient():
    from projlens import ProjectionMap

    with pytest.raises(ValueError):
        orthonormalize(ProjectionMap(np.ones((2, 5)), "random", 0))


def test_apply_sends_scaled_basis_to_columns():
    pmap = sample_projection(2, 40, seed=3)
    basis = PointCloud(math.sqrt(40) * np.eye(40))
    got = apply(pmap, basis).data
    assert np.allclose(got, pmap.theta.T, rtol=1e-12)
    zero = PointCloud(np.zeros((1, 40)))
    assert np.allclose(apply(pmap, zero).data, 0.0)


@given(
    seed=st.integers(0, 1000),
    a=st.floats(-5, 5),
    b=st.floats(-5, 5),
)
@settings(max_examples=50, deadline=None)
def test_apply_is_linear(seed, a, b):
    rng_local = np.random.default_rng(seed)
    x = rng_local.standard_normal(30)
    y = rng_local.standard_normal(30)
    pmap = sample_projection(2, 30, seed=seed)
    lhs = apply(pmap, PointCloud((a * x + b * y)[None, :])).data[0]
    rhs = a * apply(pmap, PointCloud(x[None, :])).data[0] + b * apply(
        pmap, PointCloud(y[None, :])
    ).data[0]
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


def test_projected_moments_match_norm():
    # fixed x over many seeds: mean near 0, covariance near (||x||^2/D) I
    D, d, n_seeds = 30, 2, 10_000
    x = np.arange(1.0, D + 1.0)
    x /= np.linalg.norm(x) / math.sqrt(D)
    rows = np.empty((n_seeds, d))
    for seed in range(n_seeds):
        rows[seed] = apply(sample_projection(d, D, seed=seed), PointCloud(x[None, :])).data[0]
    var_target = float(x @ x) / D
    cov = rows.T @ rows / n_seeds
    se = var_target * math.sqrt(2.0 / n_seeds)
    assert np.abs(rows.mean(axis=0)).max() <= 3 * math.sqrt(var_target / n_seeds)
    assert abs(cov[0, 0] - var_target) <= 5 * se and abs(cov[1, 1] - var_target) <= 5 * se
    assert abs(cov[0, 1]) <= 5 * var_target / math.sqrt(n_seeds)
    assert abs(cov[0, 0] / var_target - 1) <= 0.05


def test_non_expansive_after_orthonormalization():
    cloud = gen_two_cluster(60, 200, 3.0, seed=1)
    for mode_map in (
        orthonormalize(sample_projection(3, 60, seed=2)),
        pca_project(cloud, 3, seed=2)[1],
    ):
        out = cloud.data @ mode_map.theta.T
        assert np.all(
            np.linalg.norm(out, axis=1) <= np.linalg.norm(cloud.data, axis=1) * (1 + 1e-9)
        )


def test_direction_uniformity_for_spherical_data():
    n = 4000
    cloud = gen_spherical(80, n, AtomLaw(1.0), seed=4)
    pmap = orthonormalize(sample_projection(2, 80, seed=4))
    out = apply(pmap, cloud).data
    dirs = out / np.linalg.norm(out, axis=1, keepdims=True)
    assert np.linalg.norm(dirs.mean(axis=0)) <= 4 / math.sqrt(n)


def test_pca_unit_variance_on_cross_polytope():
    cloud = gen_cross_polytope(30)
    proj, pmap = pca_project(cloud, 2, seed=0)
    var = (proj.data ** 2).sum(axis=0) / proj.n
    assert np.allclose(var, 1.0, rtol=1e-9)
    assert pmap.mode == "pca"


def test_pca_aligns_with_separation_axis():
    cloud = gen_two_cluster(50, 4000, 4.0, seed=0)
    _, pmap = pca_project(cloud, 1, seed=0)
    assert abs(pmap.theta[0, 0]) >= 0.99


def test_pca_exact_on_embedded_subspace():
    rng_local = np.random.default_rng(8)
    flat = rng_local.standard_normal((200, 3))
    data = np.concatenate([flat, np.zeros((200, 7))], axis=1)
    cloud = center(PointCloud(data))
    proj, pmap = pca_project(cloud, 3, seed=0)
    recon = proj.data @ pmap.theta
    assert np.max(np.abs(recon - cloud.data)) < 1e-9


@pytest.mark.parametrize("D", [40, 600])  # dense and ARPACK routes
def test_pca_rows_are_top_eigenvectors(D):
    # column scales 5, 4, 3, then 1: a clear gap after each of the top three
    scales = np.ones(D)
    scales[:3] = (5.0, 4.0, 3.0)
    data = np.random.default_rng(D).standard_normal((1200, D)) * scales
    cloud = center(PointCloud(data))
    _, pmap = pca_project(cloud, 3, seed=0)
    assert np.max(np.abs(pmap.theta @ pmap.theta.T - np.eye(3))) < 1e-12
    _, vecs = np.linalg.eigh(cloud.data.T @ cloud.data / cloud.n)
    cosines = np.abs(np.sum(pmap.theta * vecs[:, ::-1][:, :3].T, axis=1))
    assert np.all(cosines >= 1 - 1e-12)


def test_pca_warns_on_degenerate_gap():
    cloud = gen_cross_polytope(6)
    with pytest.warns(EigengapWarning):
        pca_project(cloud, 2, seed=0)


def test_pca_onto_every_axis_past_the_cut():
    # ARPACK cannot return all D eigenpairs, so d = D takes the dense route
    cloud = center(PointCloud(np.random.default_rng(3).standard_normal((600, 520))))
    proj, pmap = pca_project(cloud, 520, seed=0)
    assert np.max(np.abs(pmap.theta @ pmap.theta.T - np.eye(520))) < 1e-12
    assert np.allclose(np.linalg.norm(proj.data, axis=1), np.linalg.norm(cloud.data, axis=1))


@pytest.mark.parametrize("D", [5, 600])
def test_pca_of_a_constant_cloud(D):
    # the covariance is zero, which ARPACK refuses past the dense cut
    with pytest.warns(EigengapWarning):
        proj, pmap = pca_project(PointCloud(np.ones((3, D))), 2, seed=0)
    assert np.max(np.abs(pmap.theta @ pmap.theta.T - np.eye(2))) < 1e-12
    assert np.all(proj.data == 0.0)


def test_gaussian_sample_moments_and_zero_sigma():
    assert np.allclose(gaussian_sample(3, 10, sigma=0.0, seed=0).data, 0.0)
    cloud = gaussian_sample(2, 100_000, sigma=1.0, seed=0)
    sq = (cloud.data ** 2).sum(axis=1)
    for r in (0.5, 1.0, 2.0):
        frac = float((sq <= r * r).mean())
        assert abs(frac - (1 - math.exp(-r * r / 2))) <= 0.005
    again = gaussian_sample(2, 100_000, sigma=1.0, seed=0)
    assert np.array_equal(cloud.data, again.data)


def test_map_round_trip(tmp_path):
    pmap = sample_projection(2, 9, seed=6)
    csv_p, json_p = tmp_path / "m.csv", tmp_path / "m.json"
    save_projection_map(pmap, csv_p, json_p)
    back = load_projection_map(csv_p, json_p)
    assert np.array_equal(back.theta, pmap.theta)
    assert back.mode == pmap.mode and back.seed == pmap.seed


def test_map_load_rejects_shape_mismatch(tmp_path):
    pmap = sample_projection(2, 9, seed=6)
    csv_p, json_p = tmp_path / "m.csv", tmp_path / "m.json"
    save_projection_map(pmap, csv_p, json_p)
    csv_p.write_text("1,2,3\n")
    with pytest.raises(CsvFormatError):
        load_projection_map(csv_p, json_p)
