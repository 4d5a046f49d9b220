"""Figure-level experiments: each runner returns an ExperimentResult whose
tables and summary are written as "<name>_<table>.csv" files plus one
"<name>_summary.json".

Runners parallelize over (grid cell, seed) pairs with per-cell seed
derivation, so thread count never changes any number. All randomness flows
through keyed streams; rerunning with the same arguments reproduces every
byte.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import rng
from .bounds import eccentricity
from .datasets import (
    PointCloud,
    Profile,
    _write_csv,
    center,
    gen_cross_polytope,
    gen_cube,
    gen_simplex,
    gen_two_cluster,
    profile,
    spectrum,
)
from .discrepancy import mc_ball_sup, radial_sweep_sup
from .gaussmix import MixtureModel, mixture_second_moment
from .projection import apply, gaussian_sample, sample_projection
from .special import norm_cdf
from .stats import fit_loglog_slope, ks_statistic

EXPERIMENT_NAMES = (
    "figure4",
    "decay",
    "cube1d",
    "twocluster",
    "residual_variance",
    "profile_table",
)

# stream tag for the blinded A/B coin ("FIG4")
_TAG_FIG4 = 0x46494734

# Table: (column names, rows); every row entry is an int, float or bool,
# numpy scalars included.
Table = tuple[list[str], list[list]]


@dataclass
class ExperimentResult:
    name: str
    params: dict
    tables: dict[str, Table]
    summary: dict
    seeds: list[int] = field(default_factory=list)


@lru_cache(maxsize=1)
def _git_describe_or_version() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    try:
        from importlib.metadata import version

        return version("projlens")
    except Exception:
        return "unknown"


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def write_report(result: ExperimentResult, out_dir, command: str = "") -> list[Path]:
    """Write every table CSV plus the summary JSON; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for tname in sorted(result.tables):
        columns, rows = result.tables[tname]
        path = out / f"{result.name}_{tname}.csv"
        _write_csv(path, columns, _json_ready(rows))
        paths.append(path)
    summary = dict(_json_ready(result.summary))
    summary["name"] = result.name
    summary["params"] = _json_ready(result.params)
    summary["seeds"] = [int(s) for s in result.seeds]
    summary["git_describe_or_version"] = _git_describe_or_version()
    summary["command"] = command
    spath = out / f"{result.name}_summary.json"
    spath.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    paths.append(spath)
    return paths


def _run_cells(keys: list, fn, threads: int) -> dict:
    """Evaluate fn over cell keys, possibly in a thread pool; the merge is
    keyed, so scheduling order cannot influence the result."""
    if threads == 1 or len(keys) <= 1:
        return {key: fn(key) for key in keys}
    workers = threads if threads > 0 else min(32, os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        values = list(pool.map(fn, keys))
    return dict(zip(keys, values))


def _quartiles(values) -> dict:
    q25, q50, q75 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"q25": float(q25), "median": float(q50), "q75": float(q75)}


def _seed_list(seed: int, n_seeds: int) -> list[int]:
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return [seed + i for i in range(n_seeds)]


def mc_box(model: MixtureModel, center_box: float | None = None) -> tuple[float, float]:
    """(center_box, max_radius) of the mc balls scored against a model.

    The center box defaults to 4 mixture standard deviations per axis, which
    covers everything but far tails; radii reach 1.5 times the box.
    """
    if center_box is None:
        center_box = 4.0 * math.sqrt(mixture_second_moment(model) / model.d)
    return center_box, 1.5 * center_box


def run_figure4(
    D: int = 1000,
    d: int = 2,
    n_balls: int = 10_000,
    center_box: float = 4.0,
    max_radius: float = 6.0,
    seed: int = 0,
    n_seeds: int = 10,
    threads: int = 0,
) -> ExperimentResult:
    """Project the D-simplex to the plane and race it against a true Gaussian
    sample of the same size: both clouds are scored by mc_ball_sup against
    N(0, I_d), and the two point sets are emitted unlabeled (set_a/set_b);
    the summary says which is which.

    The centered simplex profile is a single atom at sqrt(D/(D+1)), within
    1/(2(D+1)) of 1, so the N(0, I_d) reference is used directly. The Gaussian
    sample is centered before scoring: the projected simplex has sample mean
    exactly zero by construction (the centered vertices sum to zero), and a
    raw sample's ~1/sqrt(n) mean offset is detectable at this ball budget.
    """
    seeds = _seed_list(seed, n_seeds)
    source = center(gen_simplex(D))
    n = source.n
    model = MixtureModel(Profile.from_scales([1.0]), d)

    def cell(key):
        kind, s = key
        if kind == "proj":
            cloud = apply(sample_projection(d, D, s), source)
        else:
            cloud = center(gaussian_sample(d, n, 1.0, s))
        rep = mc_ball_sup(
            cloud, model, n_balls, seed=s, center_box=center_box, max_radius=max_radius
        )
        return cloud.data, rep.value

    keys = [(kind, s) for s in seeds for kind in ("proj", "gauss")]
    out = _run_cells(keys, cell, threads)
    proj_vals = [out[("proj", s)][1] for s in seeds]
    gauss_vals = [out[("gauss", s)][1] for s in seeds]
    swap = bool(rng.stream(seeds[0], _TAG_FIG4).random() < 0.5)
    pts = {
        "set_a": out[("gauss" if swap else "proj", seeds[0])][0],
        "set_b": out[("proj" if swap else "gauss", seeds[0])][0],
    }
    columns = [f"x{j}" for j in range(d)]
    tables = {
        name: (columns, [[float(v) for v in row] for row in data])
        for name, data in pts.items()
    }
    labels = ("gaussian_sample", "projected_simplex")
    summary = {
        "set_a": labels[0] if swap else labels[1],
        "set_b": labels[1] if swap else labels[0],
        "projected": {**_quartiles(proj_vals), "values": proj_vals},
        "gaussian": {**_quartiles(gauss_vals), "values": gauss_vals},
    }
    params = {
        "dim": D,
        "d": d,
        "n": n,
        "n_balls": n_balls,
        "center_box": center_box,
        "max_radius": max_radius,
    }
    return ExperimentResult("figure4", params, tables, summary, seeds)


def _decay_cloud(shape: str, D: int, n: int | None, seed: int) -> PointCloud:
    if shape == "simplex":
        return gen_simplex(D)
    if shape == "crosspolytope":
        return gen_cross_polytope(D)
    if shape == "cube":
        return gen_cube(D, n=n or 2048, seed=seed)
    raise ValueError(f"decay supports simplex, crosspolytope, cube; got {shape!r}")


def run_decay(
    shape: str = "simplex",
    d: int = 1,
    grid: tuple = (100, 300, 1000, 3000),
    estimator: str = "radial",
    n: int | None = None,
    n_balls: int = 4000,
    seed: int = 0,
    n_seeds: int = 10,
    threads: int = 0,
) -> ExperimentResult:
    """Sweep the source dimension at fixed d and fit how the discrepancy
    decays; the log-log slope against D lands near -1/2 for the simplex.

    threads pools the mc cells only; radial cells run serially.
    """
    if estimator not in ("radial", "mc"):
        raise ValueError(f"estimator must be radial or mc, got {estimator!r}")
    seeds = _seed_list(seed, n_seeds)
    grid = tuple(int(v) for v in grid)
    if len(grid) < 2:
        raise ValueError("need at least two grid dimensions to fit a slope")

    def cell(key):
        D, s = key
        src = center(_decay_cloud(shape, D, n, s))
        prof = profile(src)
        proj = apply(sample_projection(d, D, s), src)
        model = MixtureModel(prof, d)
        if estimator == "radial":
            return radial_sweep_sup(proj, model).value
        box, max_radius = mc_box(model)
        return mc_ball_sup(
            proj, model, n_balls, seed=s, center_box=box, max_radius=max_radius
        ).value

    keys = [(D, s) for D in grid for s in seeds]
    # radial cells run serially for memory: each builds its own D x D source
    # cloud, and on a 2-core machine a pool of two took run_decay()'s peak
    # resident size from 203 to 356 MB (for 16.1 s -> 11.5 s of wall time)
    out = _run_cells(keys, cell, threads if estimator == "mc" else 1)
    rows = []
    medians = []
    for D in grid:
        q = _quartiles([out[(D, s)] for s in seeds])
        rows.append([D, q["q25"], q["median"], q["q75"]])
        medians.append(q["median"])
    slope, intercept = fit_loglog_slope(grid, medians)
    params = {
        "shape": shape,
        "d": d,
        "grid": list(grid),
        "estimator": estimator,
        "n": n,
        "n_balls": n_balls if estimator == "mc" else None,
    }
    summary = {
        "slope": slope,
        "intercept": intercept,
        "median_by_dim": {str(D): m for D, m in zip(grid, medians)},
    }
    tables = {"by_dim": (["dim", "q25", "median", "q75"], rows)}
    return ExperimentResult("decay", params, tables, summary, seeds)


def run_cube1d(
    grid: tuple = (64, 256, 1024, 4096),
    n: int = 5000,
    seed: int = 0,
    n_seeds: int = 10,
    threads: int = 0,
) -> ExperimentResult:
    """KS distance between 1-d projections of cube samples and N(0, 1).

    The projected coordinate is a weighted sum of n-independent signs, so the
    distance to Gaussian is O(1/sqrt(D)); at usable n the one-sample KS noise
    floor of about 0.86/sqrt(n) dominates beyond D of a few hundred, which
    flattens the fitted slope. The table reports what is actually measured.
    """
    seeds = _seed_list(seed, n_seeds)
    grid = tuple(int(v) for v in grid)
    if len(grid) < 2:
        raise ValueError("need at least two grid dimensions to fit a slope")

    def cell(key):
        D, s = key
        src = center(gen_cube(D, n=n, seed=s))
        proj = apply(sample_projection(1, D, s), src)
        return ks_statistic(proj.data[:, 0], norm_cdf)

    keys = [(D, s) for D in grid for s in seeds]
    out = _run_cells(keys, cell, threads)
    rows = []
    medians = []
    for D in grid:
        q = _quartiles([out[(D, s)] for s in seeds])
        rows.append([D, q["q25"], q["median"], q["q75"]])
        medians.append(q["median"])
    slope, intercept = fit_loglog_slope(grid, medians)
    params = {"grid": list(grid), "n": n}
    summary = {
        "slope": slope,
        "intercept": intercept,
        "median_by_dim": {str(D): m for D, m in zip(grid, medians)},
    }
    tables = {"ks": (["dim", "q25", "median", "q75"], rows)}
    return ExperimentResult("cube1d", params, tables, summary, seeds)


def run_twocluster(
    s: float = 4.0,
    D: int = 50,
    d: int = 2,
    n: int = 2000,
    n_balls: int = 2000,
    eps: float = 0.1,
    seed: int = 0,
    n_seeds: int = 10,
    threads: int = 0,
) -> ExperimentResult:
    """Whole-cloud versus per-cluster discrepancy for two Gaussian clusters.

    The whole cloud's prediction is a unimodal mixture while its projection
    is bimodal, so the whole-cloud discrepancy stalls; re-centering each
    labeled cluster (same projection map) collapses both the discrepancy and
    the eccentricity.
    """
    seeds = _seed_list(seed, n_seeds)

    def one(cloud: PointCloud, pmap, ball_seed: int):
        src = center(cloud)
        prof = profile(src)
        spect = spectrum(src)
        model = MixtureModel(prof, d)
        box, max_radius = mc_box(model)
        value = mc_ball_sup(
            apply(pmap, src), model, n_balls,
            seed=ball_seed, center_box=box, max_radius=max_radius,
        ).value
        return value, eccentricity(prof, spect, eps).ecc

    def cell(s_i):
        cloud = gen_two_cluster(D, n, s, seed=s_i)
        pmap = sample_projection(d, D, s_i)
        whole_val, whole_ecc = one(cloud, pmap, s_i)
        sub_vals = []
        sub_eccs = []
        for label in (0, 1):
            sub = PointCloud(cloud.data[cloud.labels == label])
            val, ecc = one(sub, pmap, s_i)
            sub_vals.append(val)
            sub_eccs.append(ecc)
        return whole_val, sub_vals[0], sub_vals[1], whole_ecc, sub_eccs[0], sub_eccs[1]

    out = _run_cells(seeds, cell, threads)
    rows = [[s_i, *out[s_i]] for s_i in seeds]
    whole_vals = [out[s_i][0] for s_i in seeds]
    cluster_vals = [max(out[s_i][1], out[s_i][2]) for s_i in seeds]
    whole_eccs = [out[s_i][3] for s_i in seeds]
    cluster_eccs = [max(out[s_i][4], out[s_i][5]) for s_i in seeds]
    summary = {
        "whole": _quartiles(whole_vals),
        "cluster_max": _quartiles(cluster_vals),
        "whole_ecc_median": float(np.median(whole_eccs)),
        "cluster_ecc_median": float(np.median(cluster_eccs)),
        "ecc_ratio": float(np.median(whole_eccs) / np.median(cluster_eccs)),
        "value_ratio": float(np.median(cluster_vals) / np.median(whole_vals)),
    }
    params = {"s": s, "dim": D, "d": d, "n": n, "n_balls": n_balls, "eps": eps}
    tables = {
        "values": (
            ["seed", "whole", "cluster0", "cluster1", "ecc_whole", "ecc_cluster0", "ecc_cluster1"],
            rows,
        )
    }
    return ExperimentResult("twocluster", params, tables, summary, seeds)


def run_residual_variance(
    cloud: PointCloud,
    rule: str = "least",
    standardize: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    """Greedy coordinate ordering by explained variance.

    At each step the fraction of each remaining coordinate's variance left
    unexplained by the best affine function of the selected coordinates is
    computed from an incrementally extended orthonormal basis; the rule
    picks the least-accounted-for coordinate first ("least", default) or the
    most ("most"). Ties break toward the lower coordinate index.
    """
    if rule not in ("least", "most"):
        raise ValueError(f"rule must be 'least' or 'most', got {rule!r}")
    X = cloud.data - cloud.data.mean(axis=0)
    n, D = X.shape
    denom = np.einsum("ij,ij->j", X, X)
    if standardize:
        scale = np.sqrt(np.where(denom > 0, denom, 1.0))
        X = X / scale
        # measure the rescaled norms rather than assuming exact ones, so
        # step-0 fractions are exactly 1 and ties break by index
        denom = np.einsum("ij,ij->j", X, X)
    resid = X.copy()
    alive = np.ones(D, dtype=bool)
    rows = []
    for step in range(D):
        cur = np.einsum("ij,ij->j", resid, resid)
        frac = np.divide(cur, denom, out=np.zeros(D), where=denom > 0)
        frac = np.clip(frac, 0.0, 1.0)
        masked = np.where(alive, frac, -np.inf if rule == "least" else np.inf)
        j = int(np.argmax(masked) if rule == "least" else np.argmin(masked))
        rows.append([step, j, float(frac[j])])
        alive[j] = False
        q = resid[:, j].copy()
        norm_sq = float(q @ q)
        # rank guard: only extend the basis when the pivot adds direction
        if denom[j] > 0 and norm_sq > 1e-20 * denom[j]:
            q /= math.sqrt(norm_sq)
            resid -= np.outer(q, q @ resid)
    summary = {
        "rule": rule,
        "standardize": standardize,
        "first_fraction": rows[0][2],
        "last_fraction": rows[-1][2],
        "mean_fraction": float(np.mean([r[2] for r in rows])),
    }
    params = {"rule": rule, "standardize": standardize, "n": n, "dim": D}
    tables = {"order": (["step", "coordinate", "residual_fraction"], rows)}
    return ExperimentResult("residual_variance", params, tables, summary, [seed])


def run_profile_table(cloud: PointCloud, seed: int = 0) -> ExperimentResult:
    """Profile atoms (sigma, weight) of the centered cloud, plus spectrum
    figures for context."""
    src = center(cloud)
    prof = profile(src)
    spect = spectrum(src)
    rows = [[float(sig), float(w)] for sig, w in prof.atoms]
    summary = {
        "n": src.n,
        "dim": src.dim,
        "n_atoms": len(rows),
        "lambda_max": spect.lambda_max,
        "lambda_avg": spect.lambda_avg,
        "profile_second_moment": prof.second_moment(),
    }
    params = {"n": src.n, "dim": src.dim}
    tables = {"atoms": (["sigma", "weight"], rows)}
    return ExperimentResult("profile_table", params, tables, summary, [seed])
