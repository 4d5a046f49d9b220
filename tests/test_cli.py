"""End-to-end CLI tests through subprocess: exit codes, JSON contracts,
reproducibility."""

import json
import subprocess
import sys

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
    inflation_delta,
    load_points_csv,
    mixture_ball_mass,
    mixture_inflation_delta,
    profile,
    sample_projection,
    vc_ball_rate,
)


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


def test_discrepancy_net_guard_for_high_d(tmp_path):
    src = tmp_path / "xp.csv"
    run_cli("gen", "--shape", "crosspolytope", "--dim", 16, "--out", src)
    res = run_cli("discrepancy", "--in", src, "--d", 4, "--estimator", "net")
    assert res.returncode == 1
    assert "mc" in res.stderr


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
    # mc: 700 atoms by a 512-ball block is two kernel chunks; net: at
    # eps = 0.4 the table of distinct squared norms holds 4e5 balls, two
    # chunks at one atom
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
