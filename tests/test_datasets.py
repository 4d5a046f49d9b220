"""Generator, profile, spectrum, and CSV round-trip tests."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlens import (
    AtomLaw,
    CsvFormatError,
    ExperimentResult,
    PointCloud,
    PowerExponentialLaw,
    Profile,
    ProjectionMap,
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
    save_projection_map,
    sigma_epsilon,
    spectrum,
    two_sample_ks,
    write_report,
)
from projlens import datasets
from projlens.datasets import _center_in_place

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


def test_cross_polytope_is_built_in_place():
    # gen_cross_polytope(1000) holds the 16 MB cloud and nothing of its size
    # beside it, as gen_simplex does; its rows are +-sqrt(D) e_i, in order
    tracemalloc.start()
    try:
        cloud = gen_cross_polytope(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * cloud.data.nbytes
    eye = math.sqrt(1000) * np.eye(1000)
    assert np.array_equal(cloud.data[0::2], eye)
    assert np.array_equal(cloud.data[1::2], -eye)


@pytest.mark.parametrize(
    "gen, rows",
    [
        (gen_simplex, lambda D: D + 1),
        (gen_cross_polytope, lambda D: 2 * D),
        pytest.param(lambda D: gen_cube(D, n=D), lambda D: D, id="gen_cube"),
        pytest.param(lambda D: gen_spherical(D, D, AtomLaw(1.0)), lambda D: D, id="gen_spherical"),
        pytest.param(lambda D: gen_two_cluster(D, D, 4.0), lambda D: D, id="gen_two_cluster"),
    ],
)
def test_dense_generators_refuse_clouds_over_the_memory_limit(monkeypatch, gen, rows):
    # with the limit patched down to 1 MiB, D = 1000 asks for some 8 or 16 MB
    # (n = D rows for the sampled shapes) and is refused before anything of
    # that size is allocated; the message states the bytes. D = 100 still fits
    monkeypatch.setattr(datasets, "MEMORY_LIMIT", 2**20)
    nbytes = rows(1000) * 1000 * 8
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"would take {nbytes} bytes"):
            gen(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert gen(100).data.shape == (rows(100), 100)


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


@pytest.mark.parametrize(
    "law, name",
    [
        (AtomLaw(math.nan), "sigma"),
        (AtomLaw(0.0), "sigma"),
        (PowerExponentialLaw(math.inf), "beta"),
        (PowerExponentialLaw(0.5, scale=math.nan), "scale"),
        (PowerExponentialLaw(0.5, scale=-1.0), "scale"),
    ],
)
def test_spherical_refuses_a_bad_law_parameter_by_name(law, name, monkeypatch):
    # refused before any point is drawn, not as a non-finite cloud after
    from projlens import datasets

    monkeypatch.setattr(datasets.rng, "normals", None)
    with pytest.raises(ValueError, match=f"{name} of the radial law must be finite and > 0"):
        gen_spherical(8, 10, law)


def test_spherical_refuses_an_unknown_law_before_drawing(monkeypatch):
    from projlens import datasets

    monkeypatch.setattr(datasets.rng, "normals", None)
    with pytest.raises(ValueError, match="unknown radial law"):
        gen_spherical(8, 10, 1.0)


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


def test_center_in_place_gives_the_bytes_of_center(tmp_path):
    # the experiments and the CLI centre the clouds they generate or load in
    # place; the values are those of center, which copies. A loaded CSV
    # with labels is copied out of numpy's table, one without is a view of it
    labelled, plain = tmp_path / "labelled.csv", tmp_path / "plain.csv"
    save_points_csv(gen_two_cluster(6, 40, 3.0, seed=2), labelled)
    save_points_csv(gen_cube(7, n=30, seed=1), plain)
    for make in (
        lambda: gen_simplex(40),
        lambda: gen_cube(30, n=50, seed=3),
        lambda: load_points_csv(labelled),
        lambda: load_points_csv(plain),
    ):
        want = center(make())
        cloud = make()
        got = _center_in_place(cloud)
        assert got.centered and np.shares_memory(got.data, cloud.data)
        assert got.data.tobytes() == want.data.tobytes()
        assert not got.data.flags.writeable
    marked = gen_cross_polytope(4)
    assert _center_in_place(marked) is marked


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


def test_simplex_and_profile_peak_memory():
    # gen_simplex(1000) holds the 8 MB cloud and nothing of its size beside
    # it; profile takes the row norms in blocks of some 1 MB, with the bits
    # of one norm over the whole cloud
    tracemalloc.start()
    try:
        cloud = gen_simplex(1000)
        _, gen_peak = tracemalloc.get_traced_memory()
        src = center(cloud)
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        prof = profile(src)
        _, prof_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = cloud.data.nbytes
    assert gen_peak < 1.25 * size
    assert prof_peak - before < 0.25 * size
    assert np.array_equal(cloud.data[1:], math.sqrt(1000) * np.eye(1000))
    norms = np.linalg.norm(src.data, axis=1) / math.sqrt(1000)
    want = Profile.from_scales(norms)
    assert prof.sigmas.tobytes() == want.sigmas.tobytes()
    assert prof.weights.tobytes() == want.weights.tobytes()


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


def test_finite_entries_whose_sum_overflows(tmp_path):
    big = [[1e308, 1e308], [-1e308, 1e308]]
    assert PointCloud(np.array(big)).data.tolist() == big
    with pytest.raises(ValueError, match="must be finite"):
        PointCloud(np.array([[1e308, 1e308], [1e308, np.nan]]))
    path = tmp_path / "big.csv"
    path.write_text("x0,x1\n1e308,1e308\n-1e308,1e308\n")
    assert load_points_csv(path).data.tolist() == big
    # an overflowing sum then a bad cell: still found at its position
    path.write_text("x0,x1\n1e308,1e308\n1e308,-inf\n")
    with pytest.raises(CsvFormatError, match="non-finite value") as err:
        load_points_csv(path)
    assert (err.value.row, err.value.col) == (3, 2)


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


def _read_outcome(path):
    """_read_csv's (header, value bytes, labels), or its fault and position;
    a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            header, values, labels = datasets._read_csv(path)
        except CsvFormatError as exc:
            return "error", str(exc), exc.row, exc.col
    return header, values.shape, values.tobytes(), None if labels is None else labels.tolist()


_NEAR_2_63 = 2.0**63 - 1024  # the largest double below 2^63


@pytest.mark.parametrize(
    "text",
    [
        "x0,x1\n1,2\n3,4",
        "x0,label\n1,0\n2.5,7",
        "x0,x1\r\n1,2\r\n3,4\r\n",
        "x0,x1\r1,2\r3,4\r",
        "x0,x1\n1,2\n\n3,4\n\n\n",
        "x0,x1\n1,2\n   \n3,4\n \t \n",
        "\n \n\nx0,x1\n1,2\n3,4\n",
        "x0,x1\n",
        "x0,x1\n\n  \n",
        "",
        " \n\n",
        "1,2\n3,4\n",
        "\n1,2\n\n3,4",
        "x0,x1\n1,2\n3\n",
        "1,2\n3,4,5\n",
        "x0,x1\n1,2\n3,zz\n",
        "x0,x1\n1,,2\n",
        "x0,x1\n1,2,\n",
        "x0,label\n1,0\n2,1.5\n",
        f"x0,label\n1,{_NEAR_2_63:.0f}\n2,{-_NEAR_2_63:.0f}\n",
        "x0,label\n1,0\n2,9223372036854775807\n",
        "x0,label\n1,0\n2,-9223372036854775808\n",
        "x0,x1,label\n1,2,0\n3,nan,1\n",
    ],
    ids=[
        "no-final-newline", "labels-no-final-newline", "crlf", "cr", "blank-lines",
        "whitespace-lines", "blank-before-header", "header-no-rows",
        "header-then-blank", "empty", "only-blank", "no-header", "no-header-blank",
        "ragged-short", "ragged-long", "non-numeric", "empty-cell", "trailing-comma",
        "label-fraction", "labels-near-2-63", "label-2-63", "label-minus-2-63",
        "nan-with-labels",
    ],
)
def test_csv_parse_matches_the_line_scan(tmp_path, monkeypatch, text):
    # numpy parses straight from the file; the line scan is the reference
    # for every value and every fault position
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    scans = []
    scan = datasets._scan_rows
    monkeypatch.setattr(datasets, "_scan_rows", lambda *a: scans.append(1) or scan(*a))
    got = _read_outcome(path)
    if got[0] != "error":
        assert not scans  # numpy read it
    monkeypatch.setattr(datasets, "_parse_table", lambda *a: None)
    assert _read_outcome(path) == got


def test_labelled_csv_drops_its_label_column_in_blocks(tmp_path):
    # the values of a labelled table take its own buffer, moved down a block
    # of rows at a time; 20 000 rows of four cells take ten blocks
    cloud = gen_two_cluster(3, 20_000, 1.5, seed=3)
    path = tmp_path / "pts.csv"
    save_points_csv(cloud, path)
    back = load_points_csv(path)
    assert np.array_equal(back.data, cloud.data)
    assert np.array_equal(back.labels, cloud.labels)



def test_csv_writers_golden_bytes(tmp_path):
    cloud = PointCloud(np.array([[0.1, -2.0], [1e-300, 3.5]]), labels=np.array([1, 0]))
    save_points_csv(cloud, tmp_path / "pts.csv")
    assert (tmp_path / "pts.csv").read_bytes() == b"x0,x1,label\n0.1,-2.0,1\n1e-300,3.5,0\n"
    save_profile_csv(Profile(np.array([1.0 / 3.0, 0.5]), np.array([0.25, 0.75])),
                     tmp_path / "prof.csv")
    assert (tmp_path / "prof.csv").read_bytes() == (
        b"sigma,weight\n0.3333333333333333,0.25\n0.5,0.75\n"
    )
    pmap = ProjectionMap(np.array([[1.0, 0.2, -7.0]]), "random", 4)
    save_projection_map(pmap, tmp_path / "m.csv", tmp_path / "m.json")
    assert (tmp_path / "m.csv").read_bytes() == b"1.0,0.2,-7.0\n"
    assert (tmp_path / "m.json").read_bytes() == (
        b'{\n  "D": 3,\n  "d": 1,\n  "mode": "random",\n  "seed": 4\n}\n'
    )
    table = (["n", "x", "ok"], [[np.int64(3), np.float64(0.1), np.bool_(True)], [-1, 2.5, False]])
    write_report(ExperimentResult("demo", {}, {"t": table}, {}), tmp_path, command="demo")
    assert (tmp_path / "demo_t.csv").read_bytes() == b"n,x,ok\n3,0.1,True\n-1,2.5,False\n"


@pytest.mark.parametrize(
    "text, message, row, col",
    [
        ("sigma,weight\n0.5,0.5\n1.0,0.25,0.25\n", "expected 2 columns, found 3", 3, None),
        ("sigma,weight\n0.5,0.5\n1.0,half\n", "non-numeric value 'half'", 3, 2),
        ("sigma,weight\nnan,0.5\n1.0,0.5\n", "non-finite value", 2, 1),
        ("sigma,weight\n0.5,0.5\n1.0,inf\n", "non-finite value", 3, 2),
        ("0.5,0.5\n1.0,0.5\n", 'must start with header "sigma,weight"', 1, None),
    ],
    ids=["ragged", "text", "nan", "inf", "no-header"],
)
def test_profile_csv_error_positions(tmp_path, text, message, row, col):
    bad = tmp_path / "prof.csv"
    bad.write_text(text)
    with pytest.raises(CsvFormatError, match=message) as err:
        load_profile_csv(bad)
    assert (err.value.row, err.value.col) == (row, col)
