"""Generator, profile, spectrum, and CSV round-trip tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlens import (
    AtomLaw,
    CsvFormatError,
    PowerExponentialLaw,
    Profile,
    SizeLimitError,
    center,
    gen_cross_polytope,
    gen_cube,
    gen_simplex,
    gen_spherical,
    gen_two_cluster,
    ks_p_value,
    load_points_csv,
    load_profile_csv,
    profile,
    save_points_csv,
    save_profile_csv,
    sigma_epsilon,
    spectrum,
    two_sample_ks,
)

from _oracles import power_exp_radius_cdf, two_cluster_lambda_max


def test_simplex_three_dims_vertices():
    pts = gen_simplex(3).data
    r3 = math.sqrt(3)
    assert np.allclose(pts[0], [-1 / r3, -1 / r3, -1 / r3])
    assert np.allclose(pts[1], [r3, 0.0, 0.0])
    assert pts.shape == (4, 3)


def test_simplex_one_dim_pair():
    pts = gen_simplex(1).data.ravel()
    assert np.allclose(sorted(pts), [1 - math.sqrt(2), 1.0])


@pytest.mark.parametrize("D", [3, 10, 200])
def test_simplex_equidistant_from_mean(D):
    pts = gen_simplex(D).data
    sq = ((pts - pts.mean(axis=0)) ** 2).sum(axis=1)
    assert np.allclose(sq, D * D / (D + 1), rtol=1e-9)


def test_cross_polytope_small_case():
    # entries are exact +-sqrt(2): compare unrounded floats
    got = sorted(map(tuple, gen_cross_polytope(2).data.tolist()))
    r2 = math.sqrt(2)
    assert got == sorted([(r2, 0.0), (-r2, 0.0), (0.0, -r2), (0.0, r2)])


@pytest.mark.parametrize("D", [2, 5, 40])
def test_cross_polytope_identity_covariance(D):
    pts = gen_cross_polytope(D).data
    assert np.allclose(pts.T @ pts / len(pts), np.eye(D), atol=1e-12)
    assert np.allclose((pts ** 2).sum(axis=1), D)


def test_cube_exhaustive_two_dims():
    got = sorted(map(tuple, gen_cube(2).data.tolist()))
    assert got == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_cube_exhaustive_refuses_large_dims():
    with pytest.raises(SizeLimitError):
        gen_cube(25)


def test_cube_sample_column_means():
    # binomial standard error: |mean| <= 4/sqrt(n) with room to spare
    cloud = gen_cube(30, n=1000, seed=0)
    assert np.abs(cloud.data.mean(axis=0)).max() <= 4 / math.sqrt(1000)
    assert set(np.unique(cloud.data)) == {-1.0, 1.0}


def test_generators_reproducible():
    a = gen_cube(20, n=64, seed=9).data
    b = gen_cube(20, n=64, seed=9).data
    assert np.array_equal(a, b)
    c = gen_two_cluster(12, 30, 2.0, seed=5).data
    d = gen_two_cluster(12, 30, 2.0, seed=5).data
    assert np.array_equal(c, d)


def test_spherical_atom_law_norms():
    cloud = gen_spherical(16, 200, AtomLaw(1.0), seed=1)
    assert np.allclose((cloud.data ** 2).sum(axis=1), 16.0, rtol=1e-12)
    prof = profile(center(cloud))
    # centering barely moves a spherical sample; single dominant scale
    assert sigma_epsilon(prof, 0.5) == pytest.approx(1.0, abs=0.05)


def test_spherical_power_exp_matches_quadrature():
    D, beta = 100, 0.5
    cloud = gen_spherical(D, 10_000, PowerExponentialLaw(beta), seed=0)
    radii = np.sort(np.sqrt((cloud.data ** 2).sum(axis=1)))
    ks = np.max(np.abs(np.arange(1, 10_001) / 10_000 - power_exp_radius_cdf(beta, D, radii)))
    assert ks <= 0.03


def test_two_cluster_labels_partition():
    cloud = gen_two_cluster(10, 101, 4.0, seed=2)
    assert sorted(np.bincount(cloud.labels)) == [50, 51]
    assert cloud.data.shape == (101, 10)


def test_two_cluster_zero_separation_is_gaussian():
    hits = 0
    ref = np.random.default_rng(77).standard_normal(400)
    for seed in range(10):
        cloud = gen_two_cluster(8, 400, 0.0, seed=seed)
        stat = two_sample_ks(cloud.data[:, 0], ref)
        if ks_p_value(stat, 200) >= 0.01:
            hits += 1
    assert hits >= 9


def test_two_cluster_dominates_single_cluster_spectrum():
    cloud = gen_two_cluster(50, 2000, 4.0, seed=0)
    whole = spectrum(center(cloud))
    from projlens import PointCloud

    parts = [
        spectrum(center(PointCloud(cloud.data[cloud.labels == k]))) for k in (0, 1)
    ]
    assert whole.lambda_max >= 50 * max(p.lambda_avg for p in parts)
    assert whole.lambda_max == pytest.approx(two_cluster_lambda_max(4.0, 50), rel=0.15)


def test_center_idempotent_and_flagged():
    cloud = gen_cube(12, n=100, seed=1)
    once = center(cloud)
    twice = center(once)
    assert once.centered and np.array_equal(once.data, twice.data)
    cp = gen_cross_polytope(5)
    assert np.allclose(center(cp).data, cp.data)


def test_center_two_row_example(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("1,2\n3,4\n")
    got = center(load_points_csv(path)).data
    assert np.allclose(got, [[-1.0, -1.0], [1.0, 1.0]])


def test_profile_single_atoms():
    prof = profile(gen_cross_polytope(9))
    assert np.allclose(prof.sigmas, [1.0]) and np.allclose(prof.weights, [1.0])
    prof = profile(center(gen_simplex(50)))
    assert np.allclose(prof.sigmas, [math.sqrt(50 / 51)], rtol=1e-12)
    from projlens import PointCloud

    one = PointCloud(np.array([[3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]]), centered=True)
    prof = profile(one)
    assert np.allclose(prof.sigmas, [1.0]) and np.allclose(prof.weights, [1.0])


@given(seed=st.integers(0, 10**6), n=st.integers(2, 60), D=st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_profile_weights_and_second_moment(seed, n, D):
    rng = np.random.default_rng(seed)
    from projlens import PointCloud

    cloud = center(PointCloud(rng.standard_normal((n, D))))
    prof = profile(cloud)
    assert prof.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(prof.sigmas >= 0)
    msq = (cloud.data ** 2).sum(axis=1).mean()
    assert prof.second_moment() * D == pytest.approx(msq, rel=1e-9)


def test_spectrum_flat_shapes():
    for cloud in (gen_cube(8), gen_cross_polytope(8)):
        sp = spectrum(cloud)
        assert sp.lambda_max == pytest.approx(1.0, rel=1e-12)
        assert sp.lambda_avg == pytest.approx(1.0, rel=1e-12)
    sp = spectrum(center(gen_simplex(100)))
    assert sp.lambda_max == pytest.approx(100 / 101, rel=1e-12)
    assert sp.lambda_avg == pytest.approx(100 / 101, rel=1e-12)


def test_spectrum_scales_quadratically():
    from projlens import PointCloud

    rng = np.random.default_rng(4)
    data = rng.standard_normal((40, 6))
    base = spectrum(center(PointCloud(data)))
    scaled = spectrum(center(PointCloud(3.0 * data)))
    assert scaled.lambda_max == pytest.approx(9.0 * base.lambda_max, rel=1e-12)
    assert scaled.lambda_avg == pytest.approx(9.0 * base.lambda_avg, rel=1e-12)
    assert base.lambda_avg <= base.lambda_max


@pytest.mark.parametrize(
    "cloud",
    [
        gen_cube(64, n=5000, seed=0),  # dense route
        gen_cube(600, n=3000, seed=0),  # ARPACK route
        gen_simplex(1000),  # ARPACK route, covariance c I
    ],
    ids=["cube64", "cube600", "simplex1000"],
)
def test_spectrum_lambda_max_matches_eigvalsh(cloud):
    src = center(cloud)
    want = np.linalg.eigvalsh(src.data.T @ src.data / src.n)[-1]
    assert spectrum(src).lambda_max == pytest.approx(want, rel=1e-12)


def test_sigma_epsilon_reads_cumulative_weight():
    single = Profile(np.array([1.0]), np.array([1.0]))
    for eps in (0.05, 0.5, 1.0):
        assert sigma_epsilon(single, eps) == 1.0
    pair = Profile(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert sigma_epsilon(pair, 0.4) == 1.0
    assert sigma_epsilon(pair, 0.6) == 2.0


def test_points_csv_round_trip(tmp_path):
    cloud = gen_two_cluster(7, 20, 1.5, seed=3)
    path = tmp_path / "pts.csv"
    save_points_csv(cloud, path)
    back = load_points_csv(path)
    assert np.array_equal(back.data, cloud.data)


def test_profile_csv_round_trip(tmp_path):
    prof = profile(center(gen_cube(10, n=50, seed=2)))
    path = tmp_path / "prof.csv"
    save_profile_csv(prof, path)
    back = load_profile_csv(path)
    assert np.array_equal(back.sigmas, prof.sigmas)
    assert np.array_equal(back.weights, prof.weights)


def test_csv_rejects_ragged_and_text(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(CsvFormatError):
        load_points_csv(bad)
    bad.write_text("1,2\nx,4\n")
    with pytest.raises(CsvFormatError):
        load_points_csv(bad)


@pytest.mark.parametrize(
    "text, message, row, col",
    [
        ("x0,x1\n1,2\n3,4\n5\n", "expected 2 columns, found 1", 4, None),
        ("1,2\n3,zz\n5\n", "non-numeric value 'zz'", 2, 2),
        ("x0,x1\n1,2\n3,nan\n", "non-finite value", 3, 2),
        ("x0,x1\n1,2\n-inf,4\n", "non-finite value", 3, 1),
        ("x0,x1,label\n1,2,0\n3,4,1.5\n", "label must be an integer", 3, 3),
        ("x0,x1,label\n1,2,0\n3,4,one\n", "non-numeric value 'one'", 3, 3),
        ("x0,x1,x2\n1,2\n3,4\n", "header has 3 columns, data has 2", 2, None),
        ("x0,label\n1,0\n2,nan\n", "label must be an integer", 3, 2),
        ("x0,label\n1,inf\n", "label must be an integer", 2, 2),
        ("x0,label\n1,0\n2,-inf\n", "label must be an integer", 3, 2),
        ("x0,label\n1,1e30\n", "label must be an integer", 2, 2),
        ("x0,label\n1,9223372036854775808\n", "label must be an integer", 2, 2),
    ],
    ids=[
        "ragged", "text-before-ragged", "nan", "inf", "label", "label-text", "header",
        "label-nan", "label-inf", "label-minus-inf", "label-huge", "label-2-63",
    ],
)
def test_csv_error_positions(tmp_path, text, message, row, col):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(CsvFormatError, match=message) as err:
        load_points_csv(bad)
    assert (err.value.row, err.value.col) == (row, col)


def test_csv_cells_read_as_python_floats(tmp_path):
    # padded cells, signs and exponents, and cells only Python's float()
    # takes (underscores, non-ASCII digits), each to float() of the cell
    cells = [" 1.5 ", "+.5", "-2e-3", "1_000", "\uff13", "4.9e-324", "0.1"]
    path = tmp_path / "cells.csv"
    path.write_text("x0,x1,label\n" + "".join(f"{c},{c},{i}\n" for i, c in enumerate(cells)))
    cloud = load_points_csv(path)
    want = np.array([float(c) for c in cells])
    assert np.array_equal(cloud.data, np.column_stack([want, want]))
    assert cloud.labels.tolist() == list(range(len(cells)))

