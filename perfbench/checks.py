"""Checks of projlens outputs, computed apart from projlens.

Nothing here imports projlens. Profiles come from numpy norms of the centred
input, ball masses from ``scipy.special`` (``chndtr``, ``chdtr`` at the
origin, ``ndtr`` for the d = 1 closed form) and ball counts from numpy.

Each ``check_*`` function takes one operation's output text and returns a
list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import chdtr, chndtr, ndtr

# agreement required between a reported value and its recomputation
TOL = 1e-9
# projlens merges profile atoms closer than this (datasets.PROFILE_MERGE_TOL)
MERGE_TOL = 1e-12


def centred(raw: np.ndarray) -> np.ndarray:
    return raw - raw.mean(axis=0)


def atoms(centred_points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Profile of a centred cloud: scales |x_i| / sqrt(D), equal weights,
    with scales closer than MERGE_TOL merged (so the simplex has one atom)."""
    scales = np.sort(np.linalg.norm(centred_points, axis=1) / math.sqrt(centred_points.shape[1]))
    starts = np.concatenate([[0], np.flatnonzero(np.diff(scales) > MERGE_TOL) + 1])
    counts = np.diff(np.append(starts, scales.size))
    return scales[starts], counts / scales.size


def chi2_mass(profile, d: int, c2: float, r2) -> np.ndarray:
    """Mixture mass of the balls B(c, sqrt(r2)) with |c|^2 = c2."""
    sig, w = profile
    if np.any(sig == 0):
        raise ValueError("zero-scale atoms do not occur in these workloads")
    s2 = (sig * sig)[:, None]
    x = np.asarray(r2, dtype=float)[None, :] / s2
    vals = chdtr(d, x) if c2 == 0 else chndtr(x, d, c2 / s2)
    return np.minimum(w @ vals, 1.0)


def normal_mass(profile, c: float, r2) -> np.ndarray:
    """d = 1 closed form: sum_i w_i (Phi((c + r) / s_i) - Phi((c - r) / s_i))."""
    sig, w = profile
    r = np.sqrt(np.asarray(r2, dtype=float))[None, :]
    s = sig[:, None]
    return np.minimum(w @ (ndtr((c + r) / s) - ndtr((c - r) / s)), 1.0)


def mass_fn(profile, d: int):
    if d == 1:
        return lambda center, r2: normal_mass(profile, float(center[0]), r2)
    return lambda center, r2: chi2_mass(profile, d, float(center @ center), r2)


def radial_sup(points: np.ndarray, mass) -> float:
    """Exact sup over all radii at the centers points + origin: both one-sided
    limits at every distinct distance."""
    n, d = points.shape
    best = 0.0
    for c in np.vstack([points, np.zeros((1, d))]):
        diff = points - c
        sq, counts = np.unique(np.einsum("ij,ij->i", diff, diff), return_counts=True)
        cum = np.cumsum(counts)
        pred = mass(c, sq)
        best = max(best, float(np.max(cum / n - pred)), float(np.max(pred - (cum - counts) / n)))
    return best


def witness_problems(report: dict, points: np.ndarray, mass) -> list[str]:
    """The witness ball re-evaluates to the reported value."""
    problems = []
    value = report["value"]
    if not 0.0 <= value <= 1.0:
        problems.append(f"value {value} outside [0, 1]")
    if report["n_points"] != points.shape[0]:
        problems.append(f"n_points {report['n_points']} != {points.shape[0]}")
    center = np.array(report["witness"]["center"], dtype=float)
    radius = report["witness"]["radius"]
    if radius == "ALL":
        emp = pred = 1.0
    elif radius == "EMPTY":
        emp = pred = 0.0
    else:
        diff = points - center
        emp = np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= radius * radius) / points.shape[0]
        pred = float(mass(center, [radius * radius])[0])
    if abs(value - abs(emp - pred)) > TOL:
        problems.append(f"witness re-evaluates to |{emp} - {pred}|, reported {value}")
    params = report["params"]
    for key, mine in (("witness_empirical", emp), ("witness_predicted", pred)):
        if abs(params[key] - mine) > TOL:
            problems.append(f"{key} {params[key]} != {mine}")
    return problems


def projection_problems(points: np.ndarray, raw: np.ndarray, theta: np.ndarray) -> list[str]:
    """Projected points equal the centred input times theta^T over sqrt(D)."""
    mine = centred(raw) @ theta.T / math.sqrt(raw.shape[1])
    err = float(np.max(np.abs(points - mine)))
    if points.shape != mine.shape or err > 1e-12 * max(1.0, float(np.max(np.abs(mine)))):
        return [f"projected points differ from the centred input times the map by {err}"]
    return []


# ------------------------------------------------------------ per workload


def check_radial(text: str, data: dict, d: int) -> list[str]:
    report = json.loads(text)
    points = data["proj"]
    mass = mass_fn(atoms(centred(data["raw"])), d)
    problems = witness_problems(report, points, mass)
    sup = radial_sup(points, mass)
    if abs(report["value"] - sup) > TOL:
        problems.append(f"radial value {report['value']} != exact sup {sup}")
    if report["params"]["n_centers"] != points.shape[0] + 1:
        problems.append(f"n_centers {report['params']['n_centers']} != {points.shape[0] + 1}")
    return problems


def check_mc(text: str, data: dict, d: int) -> list[str]:
    report = json.loads(text)
    return witness_problems(report, data["proj"], mass_fn(atoms(centred(data["raw"])), d))


def simplex(D: int) -> np.ndarray:
    """Regular simplex: x_0 = (1 - sqrt(D + 1)) / sqrt(D) * 1 and x_i = sqrt(D) e_i."""
    X = np.zeros((D + 1, D))
    X[0] = (1.0 - math.sqrt(D + 1.0)) / math.sqrt(D)
    X[1:] = math.sqrt(D) * np.eye(D)
    return X


def decay_cells(maps: dict, grid, seeds, d: int) -> dict:
    """Exact radial sup of every (D, seed) cell of the simplex decay sweep."""
    values = {}
    for D in grid:
        X = centred(simplex(D))
        mass = mass_fn(atoms(X), d)
        for s in seeds:
            values[(D, s)] = radial_sup(X @ maps[f"theta_{D}_{s}"].T / math.sqrt(D), mass)
    return values


def check_decay(text: str, cells: dict, grid, seeds) -> list[str]:
    files = json.loads(text)
    problems = []
    lines = files["decay_by_dim.csv"].strip().split("\n")
    if lines[0] != "dim,q25,median,q75":
        return [f"unexpected table header {lines[0]!r}"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if rows[:, 0].tolist() != list(grid):
        return [f"table dims {rows[:, 0].tolist()} != grid {list(grid)}"]
    for row in rows:
        D = int(row[0])
        mine = np.percentile([cells[(D, s)] for s in seeds], [25, 50, 75])
        if np.max(np.abs(row[1:] - mine)) > TOL or not np.all((row[1:] >= 0) & (row[1:] <= 1)):
            problems.append(f"D={D}: quartiles {row[1:].tolist()} != {mine.tolist()}")
    summary = json.loads(files["decay_summary.json"])
    table_slope = np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 2]), 1)[0]
    if abs(summary["slope"] - table_slope) > 1e-12:
        problems.append(f"slope {summary['slope']} != fit of the table medians {table_slope}")
    medians = [float(np.median([cells[(D, s)] for s in seeds])) for D in grid]
    exact_slope = np.polyfit(np.log(grid), np.log(medians), 1)[0]
    if abs(summary["slope"] - exact_slope) > 1e-6:
        problems.append(f"slope {summary['slope']} != fit of the exact medians {exact_slope}")
    return problems


def load_points(path) -> np.ndarray:
    """A projlens points CSV: header row, optional trailing label column."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :-1] if header[-1] == "label" else data


def cli_inputs(raw_path, proj_path, map_path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(centred input, projected points, problems) for one cli input."""
    raw = load_points(raw_path)
    points = load_points(proj_path)
    theta = np.loadtxt(map_path, delimiter=",", ndmin=2)
    return centred(raw), points, projection_problems(points, raw, theta)


def check_cli(text: str, X: np.ndarray, points: np.ndarray) -> list[str]:
    report = json.loads(text)
    d = points.shape[1]
    return witness_problems(report, points, mass_fn(atoms(X), d))
