"""Experiment runner and report writer tests (small, fast configurations)."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from projlens import (
    EXPERIMENT_NAMES,
    ExperimentResult,
    PointCloud,
    SizeLimitError,
    apply,
    center,
    experiments,
    gen_cross_polytope,
    gen_simplex,
    profile,
    run_cube1d,
    run_decay,
    run_figure4,
    run_profile_table,
    run_residual_variance,
    run_twocluster,
    sample_projection,
    write_report,
)


def small_figure4(threads=1):
    return run_figure4(D=50, d=2, n_balls=200, seed=0, n_seeds=2, threads=threads)


def test_decay_cell_holds_one_source_cloud():
    # the D = 3000 simplex is projected in closed form, so a run_decay cell
    # never holds the 3001 x 3000 cloud (72 MB), nor anything near it
    tracemalloc.start()
    try:
        run_decay(shape="simplex", d=1, grid=(10, 3000), n_seeds=1, threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3001 * 3000 * 8 / 10


@pytest.mark.parametrize("D", [1, 2, 10, 300, 3000])
@pytest.mark.parametrize("shape, gen", [("simplex", gen_simplex),
                                        ("crosspolytope", gen_cross_polytope)],
                         ids=["simplex", "crosspolytope"])
def test_projected_source_matches_the_dense_route(shape, gen, D):
    src = center(gen(D))
    atom = profile(src).sigmas
    for d in range(1, min(3, D) + 1):
        pmap = sample_projection(d, D, seed=D + d)
        got, prof = experiments._projected_source(shape, pmap)
        assert got.centered
        np.testing.assert_allclose(got.data, apply(pmap, src).data, rtol=0, atol=1e-12)
        assert prof.weights.tolist() == [1.0]
        np.testing.assert_allclose(prof.sigmas, atom, rtol=1e-14, atol=0)


def test_decay_runs_past_the_dense_memory_ceiling():
    # a dense 12001 x 12000 simplex is over MEMORY_LIMIT, and gen_simplex
    # refuses it; the closed form holds a 12001 x 1 projection
    with pytest.raises(SizeLimitError):
        gen_simplex(12000)
    result = run_decay(shape="simplex", d=1, grid=(12000, 13000), estimator="mc",
                       n_balls=500, n_seeds=1, threads=1)
    assert all(0.0 < row[2] < 0.1 for row in result.tables["by_dim"][1])


def test_experiment_names_registry():
    assert EXPERIMENT_NAMES == (
        "figure4",
        "decay",
        "cube1d",
        "twocluster",
        "residual_variance",
        "profile_table",
    )


def test_write_report_figure4_contract(tmp_path):
    result = small_figure4()
    first = tmp_path / "a"
    paths = write_report(result, first, command="projlens experiment figure4")
    names = sorted(p.name for p in paths)
    assert names == ["figure4_set_a.csv", "figure4_set_b.csv", "figure4_summary.json"]
    summary = json.loads((first / "figure4_summary.json").read_text())
    for key in ("name", "seeds", "git_describe_or_version", "command", "params"):
        assert key in summary
    assert summary["name"] == "figure4"
    assert summary["seeds"] == [0, 1]
    assert summary["command"] == "projlens experiment figure4"
    assert {summary["set_a"], summary["set_b"]} == {
        "gaussian_sample",
        "projected_simplex",
    }
    # 51 simplex vertices -> 51 data rows plus the header
    for csv_name in ("figure4_set_a.csv", "figure4_set_b.csv"):
        lines = (first / csv_name).read_text().splitlines()
        assert lines[0] == "x0,x1"
        assert len(lines) == 52


def test_write_report_is_byte_stable(tmp_path):
    for sub in ("a", "b"):
        write_report(small_figure4(), tmp_path / sub, command="same")
    for name in ("figure4_set_a.csv", "figure4_set_b.csv", "figure4_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_write_report_shortest_round_trip_floats(tmp_path):
    result = ExperimentResult(
        name="demo",
        params={},
        tables={"t": (["a", "b", "c"], [[0.1, 7, 1.0 / 3.0], [True, -2, 2.5]])},
        summary={"x": np.float64(0.25), "n": np.int64(3)},
        seeds=[np.int64(1)],
    )
    write_report(result, tmp_path, command="demo")
    lines = (tmp_path / "demo_t.csv").read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "0.1,7,0.3333333333333333"
    assert lines[2] == "True,-2,2.5"
    summary = json.loads((tmp_path / "demo_summary.json").read_text())
    assert summary["x"] == 0.25 and summary["n"] == 3
    assert summary["seeds"] == [1]
    assert all(float(part) == float(part) for part in lines[1].split(","))


def test_threads_never_change_results():
    serial = small_figure4(threads=1)
    pooled = small_figure4(threads=2)
    assert serial.summary == pooled.summary
    for name in serial.tables:
        assert serial.tables[name] == pooled.tables[name]


@pytest.mark.parametrize("estimator, shape, threads", [
    ("radial", "simplex", (1, 2)),
    ("mc", "simplex", (1, 2)),
    ("mc", "crosspolytope", (1, 2, 8)),
], ids=["radial", "mc", "mc-crosspolytope"])
def test_decay_identical_across_threads(estimator, shape, threads):
    runs = [
        run_decay(shape=shape, grid=(20, 40), estimator=estimator, n_balls=200, n_seeds=4,
                  threads=t)
        for t in threads
    ]
    for run in runs[1:]:
        assert run.summary == runs[0].summary
        assert run.tables == runs[0].tables


def test_residual_variance_iid_coordinates():
    rng_local = np.random.default_rng(0)
    cloud = PointCloud(rng_local.standard_normal((4000, 8)))
    result = run_residual_variance(cloud)
    rows = result.tables["order"][1]
    assert len(rows) == 8
    assert sorted(r[1] for r in rows) == list(range(8))
    assert all(r[2] >= 0.9 for r in rows)  # independence: nothing is explained
    assert result.summary["first_fraction"] == 1.0


def test_residual_variance_rules_and_standardize():
    rng_local = np.random.default_rng(1)
    base = rng_local.standard_normal(600)
    other = rng_local.standard_normal(600)
    cloud = PointCloud(np.column_stack([base, base, other]))
    least = run_residual_variance(cloud, rule="least")
    most = run_residual_variance(cloud, rule="most")
    # ties at step 0 break to coordinate 0; the duplicate is then fully
    # explained, so "least" defers it while "most" grabs it
    assert [r[1] for r in least.tables["order"][1]] == [0, 2, 1]
    assert [r[1] for r in most.tables["order"][1]] == [0, 1, 2]
    assert least.tables["order"][1][-1][2] == pytest.approx(0.0, abs=1e-9)
    scaled = PointCloud(cloud.data * np.array([100.0, 0.01, 1.0]))
    std_plain = run_residual_variance(cloud, standardize=True)
    std_scaled = run_residual_variance(scaled, standardize=True)
    assert [r[1] for r in std_plain.tables["order"][1]] == [
        r[1] for r in std_scaled.tables["order"][1]
    ]
    np.testing.assert_allclose(
        [r[2] for r in std_plain.tables["order"][1]],
        [r[2] for r in std_scaled.tables["order"][1]],
        atol=1e-9,
    )
    with pytest.raises(ValueError):
        run_residual_variance(cloud, rule="middle")


def test_profile_table_cross_polytope():
    result = run_profile_table(gen_cross_polytope(6))
    assert result.summary["n"] == 12
    assert result.summary["dim"] == 6
    assert result.summary["n_atoms"] == 1
    assert result.summary["profile_second_moment"] == pytest.approx(1.0, rel=1e-12)
    assert result.summary["lambda_max"] == pytest.approx(
        result.summary["lambda_avg"], rel=1e-9
    )
    (columns, rows) = result.tables["atoms"]
    assert columns == ["sigma", "weight"]
    assert rows == [[pytest.approx(1.0, rel=1e-12), 1.0]]


def test_cube1d_small_run():
    result = run_cube1d(grid=(16, 64), n=400, seed=0, n_seeds=2)
    columns, rows = result.tables["ks"]
    assert columns == ["dim", "q25", "median", "q75"]
    assert [r[0] for r in rows] == [16, 64]
    assert all(0.0 < r[2] < 1.0 for r in rows)
    for key in ("slope", "intercept", "median_by_dim"):
        assert key in result.summary
    assert math.isfinite(result.summary["slope"])


def test_twocluster_small_run():
    result = run_twocluster(D=30, n=400, n_balls=200, seed=0, n_seeds=2)
    columns, rows = result.tables["values"]
    assert len(rows) == 2
    assert result.summary["ecc_ratio"] > 1.0  # clusters are far rounder
    assert 0.0 < result.summary["value_ratio"] < 1.0


def test_twocluster_refuses_fewer_than_four_rows():
    # n = 3 leaves a one-row cluster, which centres to the origin
    with pytest.raises(ValueError, match="twocluster needs n >= 4"):
        run_twocluster(n=3, n_seeds=1)
    result = run_twocluster(D=10, n=4, n_balls=10, n_seeds=1, threads=1)
    assert len(result.tables["values"][1]) == 1


def test_decay_parameter_validation():
    with pytest.raises(ValueError):
        run_decay(estimator="grid")
    with pytest.raises(ValueError):
        run_decay(grid=(100,))
    with pytest.raises(ValueError):
        run_decay(shape="blob", grid=(16, 32), n_seeds=1)
    # the simplex and the cross-polytope have D + 1 and 2 D rows, not n
    for shape in ("simplex", "crosspolytope"):
        with pytest.raises(ValueError, match=f"the {shape} has a fixed row count"):
            run_decay(shape=shape, grid=(16, 32), n=3, n_seeds=1)
    with pytest.raises(ValueError):
        run_cube1d(n_seeds=0)


@pytest.mark.parametrize(
    "run",
    [
        lambda t: run_figure4(D=20, n_balls=10, n_seeds=1, threads=t),
        lambda t: run_decay(estimator="radial", grid=(16, 32), n_seeds=1, threads=t),
        lambda t: run_decay(estimator="mc", grid=(16, 32), n_seeds=1, threads=t),
        lambda t: run_cube1d(grid=(16, 32), n=50, n_seeds=1, threads=t),
        lambda t: run_twocluster(D=10, n=40, n_balls=10, n_seeds=1, threads=t),
    ],
    ids=["figure4", "decay-radial", "decay-mc", "cube1d", "twocluster"],
)
def test_negative_threads_is_refused(run, monkeypatch):
    # a negative pool size is refused up front, as the CLI refuses it, and
    # not read as one worker per CPU; radial decay cells, which run serially
    # whatever the count, refuse it too
    from projlens import experiments

    monkeypatch.setattr(experiments, "_run_cells", None)
    with pytest.raises(ValueError, match=r"threads must be >= 0 .*got -3"):
        run(-3)


def test_run_all_experiments_script_quick(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_experiments.py"
    res = subprocess.run(
        [sys.executable, str(script), "--quick", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=600,
    )
    assert res.returncode == 0, res.stderr
    for name in EXPERIMENT_NAMES:
        summary = json.loads((tmp_path / f"{name}_summary.json").read_text())
        assert summary["name"] == name


def test_pilot_rates_net_script():
    # the net pilot scores a 3.6 M-ball d = 1 net on 1e5 points, two seeds
    script = Path(__file__).resolve().parent.parent / "scripts" / "pilot_rates.py"
    res = subprocess.run(
        [sys.executable, str(script), "--only", "net"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2
    for line in lines:
        value = float(line.split("value=")[1].split()[0])
        ceiling = float(line.split("ceiling ")[1].split(",")[0])
        assert 0.0 <= value < ceiling


def test_output_digest_script_is_stable(tmp_path):
    # one line per benchmark output, and per CSV the cli set-up writes, the
    # same bytes on every run; --against passes on a run's own lines and
    # names each output that differs from saved lines, or that only one side
    # has; --seed picks the inputs
    script = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

    def run(*args):
        return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                              text=True, cwd=tmp_path, timeout=600)

    first = run()
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["radial-manyatom", "radial"], ["decay-oneatom", "decay"], ["mc-scalemix", "mc"],
        ["cli", "mc"], ["cli", "net"], ["cli", "twocluster.csv"], ["cli", "simplex.csv"],
    ]
    assert all(len(line.split()[2]) == 64 for line in lines)
    (tmp_path / "saved.txt").write_text(first.stdout)
    again = run("--against", "saved.txt")
    assert again.returncode == 0, again.stderr
    assert again.stdout == first.stdout
    tampered = lines[:3] + [lines[3].replace(lines[3].split()[2], "0" * 64), "cli extra " + "0" * 64]
    (tmp_path / "tampered.txt").write_text("\n".join(tampered) + "\n")
    differs = run("--against", "tampered.txt")
    assert differs.returncode == 1
    assert differs.stderr.splitlines() == [
        "differs: cli mc", "differs: cli extra", "differs: cli net",
        "differs: cli twocluster.csv", "differs: cli simplex.csv",
    ]
    # another seed gives other inputs, so other digests, for the same
    # outputs; the simplex takes no seed, so its CSV keeps its bytes
    seeded = run("--seed", "2")
    assert seeded.returncode == 0, seeded.stderr
    assert [line.split()[:2] for line in seeded.stdout.splitlines()] == [
        line.split()[:2] for line in lines
    ]
    same = set(seeded.stdout.splitlines()) & set(lines)
    assert [line.split()[1] for line in same] == ["simplex.csv"]


def test_route_counts_script(tmp_path):
    # one line per (workload, kernel route), and one for the d = 1 closed
    # form; the mc-scalemix deep pairs take the Bessel series and none
    # reaches the quadrature
    script = Path(__file__).resolve().parent.parent / "scripts" / "route_counts.py"
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         cwd=tmp_path, timeout=600)
    assert res.returncode == 0, res.stderr
    counts = {}
    for line in res.stdout.splitlines():
        workload, route, pairs = line.split()
        counts[workload, route] = int(pairs)
    routes = ["tiny", "erf-sum", "normal-tail", "bessel-series", "short-sum", "chndtr",
              "convolution", "deep-convolution", "closed-form"]
    workloads = ["radial-manyatom", "decay-oneatom", "mc-scalemix", "cli"]
    assert list(counts) == [(w, r) for w in workloads for r in routes]
    # only the d = 1 workloads take the closed form: decay, and the cli's net
    assert {w: counts[w, "closed-form"] > 0 for w in workloads} == {
        "radial-manyatom": False, "decay-oneatom": True, "mc-scalemix": False, "cli": True}
    assert counts["mc-scalemix", "bessel-series"] > 0
    assert counts["mc-scalemix", "deep-convolution"] == 0
    assert sum(counts.values()) > counts["mc-scalemix", "bessel-series"]
