"""End-to-end CLI tests through subprocess: exit codes, JSON contracts,
reproducibility."""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from projlens import (
    Ball,
    MixtureModel,
    apply,
    center,
    discrepancy_rate,
    empirical_mass,
    fixed_ball_tail,
    gen_two_cluster,
    inflation_delta,
    load_points_csv,
    mixture_ball_mass,
    mixture_inflation_delta,
    profile,
    sample_projection,
    save_points_csv,
    spectrum,
    vc_ball_rate,
)
from projlens import cli


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "projlens", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_help_and_usage_errors():
    assert run_cli("--help").returncode == 0
    bare = run_cli()
    assert bare.returncode == 1
    missing_dim = run_cli("gen", "--shape", "simplex", "--out", "x.csv")
    assert missing_dim.returncode == 1
    assert "usage" in missing_dim.stderr.lower()
    bogus = run_cli("experiment", "nosuch", "--out-dir", ".")
    assert bogus.returncode == 1


@pytest.mark.parametrize(
    "command",
    [("gen", "--shape", "simplex", "--dim", 5, "--out", "x.csv"),
     ("experiment", "profile_table", "--out-dir", ".")],
    ids=["gen", "experiment"],
)
def test_negative_threads_is_refused(tmp_path, command):
    res = run_cli(*command, "--threads", -4, cwd=tmp_path)
    assert res.returncode == 1
    assert "argument --threads: must be an integer >= 0, got '-4'" in res.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "name, flag",
    [("figure4", "--n"), ("cube1d", "--d"), ("decay", "--eps"), ("profile_table", "--grid"),
     ("figure4", "--center-box")],
)
def test_experiment_refuses_flags_it_does_not_take(tmp_path, name, flag):
    res = run_cli("experiment", name, flag, 5, "--out-dir", tmp_path)
    assert res.returncode == 1
    assert f"unrecognized arguments: {flag} 5" in res.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "command",
    [("gen", "--shape", "crosspolytope", "--dim", 5, "--out", "x.csv"),
     ("experiment", "profile_table", "--shape", "simplex", "--dim", 5, "--out-dir", "."),
     ("experiment", "decay", "--shape", "simplex", "--grid", "8,16", "--out-dir", ".")],
    ids=["gen", "experiment", "decay"],
)
def test_fixed_size_shapes_refuse_n(tmp_path, command):
    # the simplex and the cross-polytope have D + 1 and 2 D rows; an --n
    # that would be ignored is refused, naming the shape
    res = run_cli(*command, "--n", 3, cwd=tmp_path)
    assert res.returncode == 1
    assert f"the {command[command.index('--shape') + 1]} has a fixed row count" in res.stderr
    assert not any(tmp_path.iterdir())


def test_experiment_help_lists_only_its_flags():
    res = run_cli("experiment", "cube1d", "--help")
    assert res.returncode == 0
    flags = {tok.strip("[],") for tok in res.stdout.split() if tok.startswith(("--", "[--"))}
    assert flags == {"--help", "--grid", "--n", "--n-seeds", "--out-dir", "--seed", "--threads"}


def test_gen_simplex_and_cube_row_counts(tmp_path):
    out = tmp_path / "simplex.csv"
    res = run_cli("gen", "--shape", "simplex", "--dim", 1000, "--out", out)
    assert res.returncode == 0
    assert len(out.read_text().splitlines()) == 1002  # header + 1001 vertices
    info = json.loads(res.stdout)
    assert info["n"] == 1001 and info["dim"] == 1000
    assert {"atom_count", "lambda_max", "lambda_avg"} <= info.keys()

    cube = tmp_path / "cube.csv"
    res = run_cli("gen", "--shape", "cube", "--dim", 2, "--out", cube)
    assert res.returncode == 0
    assert len(cube.read_text().splitlines()) == 5  # header + all 4 corners


def test_project_output_shape_and_determinism(tmp_path):
    src = tmp_path / "src.csv"
    run_cli("gen", "--shape", "simplex", "--dim", 200, "--out", src)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / f"{sub}.csv"
        res = run_cli("project", "--in", src, "--d", 2, "--seed", 7, "--out", out)
        assert res.returncode == 0
        info = json.loads(res.stdout)
        assert info["n"] == 201 and info["d"] == 2
        assert info["source_dim"] == 200
        assert 0.0 <= info["dip_first_coordinate"] <= 0.25 + 1e-9
        outs.append(
            (
                out.read_bytes(),
                (tmp_path / f"{sub}_map.csv").read_bytes(),
                (tmp_path / f"{sub}_map.json").read_bytes(),
            )
        )
    assert outs[0] == outs[1]
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "x0,x1" and len(lines) == 202


def test_project_pca_flags_bimodal_first_coordinate(tmp_path):
    src = tmp_path / "tc.csv"
    run_cli("gen", "--shape", "twocluster", "--dim", 50, "--n", 400, "--out", src)
    res = run_cli("project", "--in", src, "--d", 2, "--mode", "pca",
                  "--out", tmp_path / "p.csv")
    assert res.returncode == 0
    info = json.loads(res.stdout)
    # two far clusters: the leading principal coordinate splits them
    assert info["dip_first_coordinate"] >= 0.1
    assert info["eigengap_warnings"] == []


def test_discrepancy_reproducible_and_witness_recomputes(tmp_path):
    src = tmp_path / "xp.csv"
    run_cli("gen", "--shape", "crosspolytope", "--dim", 100, "--out", src)
    args = ("discrepancy", "--in", src, "--d", 1, "--estimator", "radial",
            "--seed", 3)
    first, second = run_cli(*args), run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["estimator"] == "radial"
    assert report["seed"] == 3
    assert 0.0 <= report["value"] <= 1.0

    cloud = center(load_points_csv(src))
    model = MixtureModel(profile(cloud), 1)
    proj = apply(sample_projection(1, 100, 3), cloud)
    witness = Ball(np.array(report["witness"]["center"]), report["witness"]["radius"])
    emp = empirical_mass(proj, witness)
    pred = mixture_ball_mass(model, witness)
    assert abs(emp - pred) == pytest.approx(report["value"], abs=1e-12)
    assert report["params"]["witness_predicted"] == pytest.approx(pred, abs=1e-12)


# the cli benchmark's simplex: 1001 x 1000, a cloud of 8 MB
_SIMPLEX_D = 1000
_SIMPLEX_BYTES = (_SIMPLEX_D + 1) * _SIMPLEX_D * 8


def _traced(fn) -> int:
    """fn() in this process; its traced peak in bytes."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _traced_peak(argv) -> float:
    """cli.main(argv) in this process; its traced peak in cloud sizes."""
    codes = []
    peak = _traced(lambda: codes.append(cli.main(list(map(str, argv)))))
    assert codes == [0]
    return peak / _SIMPLEX_BYTES


@pytest.fixture(scope="module")
def simplex_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("simplex") / "simplex.csv"
    assert run_cli("gen", "--shape", "simplex", "--dim", _SIMPLEX_D, "--out", path).returncode == 0
    return path


def test_gen_holds_one_copy_of_its_cloud(tmp_path):
    # gen centres the cloud it wrote in place, and mean_eigenvalue squares
    # it a 1 MB block at a time. Measured 1.14 clouds (2.01 with X * X
    # squared whole, 3.01 with a centred copy beside the cloud as well)
    argv = ["gen", "--shape", "simplex", "--dim", _SIMPLEX_D, "--out", tmp_path / "s.csv"]
    assert _traced_peak(argv) < 1.25


def test_discrepancy_net_holds_one_copy_of_its_cloud(simplex_csv):
    # the CSV is parsed into one table, centred in place and freed before
    # the net scores its distinct squared norms a block at a time, with no
    # table that grows with the net (3.6 M balls here). Measured 1.16
    # clouds (2.01 with every line of the CSV held and X * X squared whole,
    # 4.47 with a centred copy and a table of every distinct norm as well)
    argv = ["discrepancy", "--in", simplex_csv, "--d", 1, "--estimator", "net", "--seed", 1]
    assert _traced_peak(argv) < 1.25


def test_load_points_csv_holds_one_table(simplex_csv):
    # numpy parses the rows from the file into a table allocated once;
    # measured 1.14 clouds (1.65 with every line of the file held)
    assert _traced(lambda: load_points_csv(simplex_csv)) / _SIMPLEX_BYTES < 1.2


def test_load_labelled_csv_holds_one_table(tmp_path):
    # the cli benchmark's two-cluster CSV, 2000 x 50 and labelled: the
    # values take the parsed table's own buffer, without its label column.
    # Measured 1.18 clouds (3.85 with every line held and the values copied)
    cloud = gen_two_cluster(50, 2000, 4.0, seed=1)
    path = tmp_path / "tc.csv"
    save_points_csv(cloud, path)
    assert _traced(lambda: load_points_csv(path)) / cloud.data.nbytes < 1.25


@pytest.mark.parametrize(
    "shape, isotropic", [("simplex", True), ("crosspolytope", True), ("cube", False)]
)
def test_gen_isotropic_shapes_skip_the_eigensolver(tmp_path, shape, isotropic):
    # D = 600 is past the dense eigh cut, where spectrum() takes ARPACK. The
    # simplex's and the cross-polytope's centred covariances are
    # lambda_avg * I, so gen prints lambda_avg as lambda_max and never
    # imports scipy.sparse.linalg; the cube's lambda_max still comes from
    # ARPACK
    rows = [] if isotropic else ["--n", "1500"]
    argv = ["gen", "--shape", shape, "--dim", "600", *rows, "--out", "x.csv"]
    code = (
        "import sys\n"
        "from projlens import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    text, imported = res.stdout.rstrip("\n").rsplit("\n", 1)
    assert imported == str(not isotropic)
    report = json.loads(text)
    assert (report["lambda_max"] == report["lambda_avg"]) == isotropic
    want = spectrum(center(load_points_csv(tmp_path / "x.csv"))).lambda_max
    assert report["lambda_max"] == pytest.approx(want, rel=1e-12)


def test_discrepancy_net_guard_for_high_d(tmp_path):
    src = tmp_path / "xp.csv"
    run_cli("gen", "--shape", "crosspolytope", "--dim", 16, "--out", src)
    res = run_cli("discrepancy", "--in", src, "--d", 4, "--estimator", "net")
    assert res.returncode == 1
    assert "mc" in res.stderr


def test_discrepancy_net_refuses_an_overflowing_grid(tmp_path):
    # at eps = 1e-300 the net's grid step underflows against its half-width:
    # one error line, not an OverflowError traceback
    src = tmp_path / "simplex.csv"
    run_cli("gen", "--shape", "simplex", "--dim", 20, "--out", src)
    res = run_cli("discrepancy", "--in", src, "--d", 1, "--estimator", "net", "--eps", 1e-300)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [res.stderr.strip()]
    assert res.stderr.startswith("error: ball net would take inf grid steps")


def test_bounds_cli_matches_library(tmp_path):
    res = run_cli("bounds", "--eps", 0.25, "--d", 2, "--dim", 1000,
                  "--sigma-eps", 1.0, "--lambda-max", 2.0, "--lambda-avg", 1.5)
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["inflation_delta"] == inflation_delta(1.0, 2, 0.25)
    assert payload["mixture_inflation_delta"] == mixture_inflation_delta(1.0, 2, 0.25)
    assert payload["fixed_ball_tail"]["value"] == fixed_ball_tail(0.25, 2, 1000, 1.0, 2.0)
    assert payload["fixed_ball_tail"]["surrogate"] is True
    assert payload["vc_ball_rate"] == vc_ball_rate(2, 1000)
    assert payload["discrepancy_rate"] == discrepancy_rate(2.0, 2, 1000)
    assert payload["ecc"] == 2.0
    assert payload["ecc_linear"] == 2.0
    assert payload["net_params"]["eps_o"] * 4.0 * np.sqrt(2.0) == pytest.approx(
        payload["net_params"]["delta"], rel=1e-12
    )


def test_bounds_takes_no_seed():
    # nothing in bounds is random; --threads stays, accepted and ignored
    res = run_cli("bounds", "--eps", 0.3, "--d", 2, "--dim", 500, "--seed", 3)
    assert res.returncode == 1
    assert "unrecognized arguments: --seed 3" in res.stderr


def test_experiment_summary_echoes_command_without_threads(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    base = ("experiment", "profile_table", "--shape", "crosspolytope",
            "--dim", 6, "--out-dir")
    res_a = run_cli(*base, out_a)
    res_b = run_cli(*base, out_b, "--threads", 3)
    assert res_a.returncode == 0 and res_b.returncode == 0
    summary_a = json.loads((out_a / "profile_table_summary.json").read_text())
    summary_b = json.loads((out_b / "profile_table_summary.json").read_text())
    assert summary_a["command"].startswith("projlens experiment profile_table")
    assert "--threads" not in summary_b["command"]
    for key in ("name", "seeds", "git_describe_or_version", "command"):
        assert key in summary_a
    # identical apart from the differing --out-dir token
    assert summary_a["command"].replace(str(out_a), "") == summary_b[
        "command"
    ].replace(str(out_b), "")


def test_experiment_outputs_byte_identical_across_threads(tmp_path):
    dirs = []
    for sub, threads in (("t1", 1), ("t2", 2)):
        out = tmp_path / sub
        res = run_cli("experiment", "figure4", "--dim", 40, "--n-balls", 100,
                      "--n-seeds", 2, "--out-dir", out, "--threads", threads)
        assert res.returncode == 0
        dirs.append(out)
    for name in ("figure4_set_a.csv", "figure4_set_b.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    # summaries differ only in the echoed --out-dir path
    texts = [
        (d / "figure4_summary.json").read_text().replace(str(d), "OUT") for d in dirs
    ]
    assert texts[0] == texts[1]


def test_experiment_residual_variance_from_csv(tmp_path):
    src = tmp_path / "cube.csv"
    run_cli("gen", "--shape", "cube", "--dim", 5, "--n", 200, "--out", src)
    out = tmp_path / "rv"
    res = run_cli("experiment", "residual_variance", "--in", src, "--out-dir", out)
    assert res.returncode == 0
    assert (out / "residual_variance_order.csv").exists()
    assert (out / "residual_variance_summary.json").exists()
    with_no_input = run_cli("experiment", "residual_variance", "--out-dir", out)
    assert with_no_input.returncode == 1


def test_data_errors_exit_two(tmp_path):
    missing = run_cli("project", "--in", tmp_path / "nope.csv", "--d", 1,
                      "--out", tmp_path / "o.csv")
    assert missing.returncode == 2
    assert "error" in missing.stderr.lower()
    ragged = tmp_path / "bad.csv"
    ragged.write_text("x0,x1\n1.0,2.0\n3.0\n")
    res = run_cli("project", "--in", ragged, "--d", 1, "--out", tmp_path / "o.csv")
    assert res.returncode == 2


@pytest.mark.parametrize("label", ["nan", "inf", "1e30"])
def test_discrepancy_bad_label_exits_two(tmp_path, label):
    bad = tmp_path / "labels.csv"
    bad.write_text(f"x0,label\n1,{label}\n")
    res = run_cli("discrepancy", "--in", bad, "--d", 1, "--estimator", "mc")
    assert res.returncode == 2
    assert "label must be an integer" in res.stderr and "row 2, column 2" in res.stderr


def test_discrepancy_output_identical_across_threads(tmp_path):
    # --threads must not reach the bytes of either estimator: mc scores 700
    # atoms through the pruned path, net at d = 1 a table of 4e5 norms
    cluster = tmp_path / "tc.csv"
    simplex = tmp_path / "sx.csv"
    run_cli("gen", "--shape", "twocluster", "--dim", 20, "--n", 700, "--out", cluster)
    run_cli("gen", "--shape", "simplex", "--dim", 200, "--out", simplex)
    runs = (
        (cluster, "--d", 2, "--estimator", "mc", "--n-balls", 1100, "--seed", 2),
        (simplex, "--d", 1, "--estimator", "net", "--eps", 0.4, "--seed", 2),
    )
    for src, *args in runs:
        outs = [run_cli("discrepancy", "--in", src, *args, "--threads", t) for t in (1, 2, 0)]
        assert all(res.returncode == 0 for res in outs)
        assert outs[0].stdout == outs[1].stdout == outs[2].stdout


def test_eigensolver_outputs_identical_across_reruns_and_threads(tmp_path):
    # D = 600 is past the dense eigh cut, so gen's lambda_max and the PCA map
    # come from ARPACK
    outs = []
    for sub, threads in (("a", 1), ("b", 2), ("c", 1)):
        work = tmp_path / sub
        work.mkdir()
        gen = run_cli("gen", "--shape", "cube", "--dim", 600, "--n", 1500,
                      "--out", "cube.csv", "--threads", threads, cwd=work)
        proj = run_cli("project", "--in", "cube.csv", "--d", 2, "--mode", "pca",
                       "--out", "p.csv", "--threads", threads, cwd=work)
        assert gen.returncode == 0 and proj.returncode == 0
        names = ("cube.csv", "p.csv", "p_map.csv", "p_map.json")
        outs.append((gen.stdout, proj.stdout, [(work / n).read_bytes() for n in names]))
    assert outs[0] == outs[1] == outs[2]
