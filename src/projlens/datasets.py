"""Point clouds, norm profiles, and the dataset generators.

A point cloud is a finite set of rows in R^D. Its profile is the distribution
of scaled norms ||x|| / sqrt(D) as weighted atoms; together with a target
dimension d the profile determines the predicted scale mixture of Gaussians
for a random projection. Generators cover the reference shapes (simplex,
cross-polytope, hypercube), spherically symmetric clouds with a configurable
radial law, and a labeled two-cluster mixture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .special import gamma_ppf

PROFILE_MERGE_TOL = 1e-12
EXHAUSTIVE_CUBE_MAX_DIM = 20
_POWER_ITERATION_TOL = 1e-12
_POWER_ITERATION_MAX = 20000


class CsvFormatError(ValueError):
    """Malformed points or profile CSV; carries 1-based row/column positions."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.row = row
        self.col = col


class SizeLimitError(ValueError):
    """A requested object would exceed a hard size limit."""


@dataclass(frozen=True)
class PointCloud:
    """n rows in R^dim, optionally centered, optionally labeled.

    Attributes:
      data: (n, dim) float array, finite entries.
      centered: whether the rows are known to have mean zero.
      labels: optional (n,) integer array.
    """

    data: np.ndarray
    centered: bool = False
    labels: np.ndarray | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"point cloud must be a 2-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (arr.shape[0],):
                raise ValueError("labels must be one integer per row")
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class Profile:
    """Distribution of scaled norms as atoms (sigma_i, w_i), sigma ascending."""

    sigmas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if s.ndim != 1 or s.shape != w.shape or s.size == 0:
            raise ValueError("profile needs matching 1-d sigma and weight arrays")
        if np.any(s < 0) or not np.all(np.isfinite(s)):
            raise ValueError("profile sigmas must be finite and >= 0")
        if np.any(np.diff(s) < 0):
            raise ValueError("profile sigmas must be sorted ascending")
        if np.any(w <= 0) or abs(float(w.sum()) - 1.0) > PROFILE_MERGE_TOL:
            raise ValueError("profile weights must be positive and sum to 1")
        s.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_scales(cls, values, weights=None) -> "Profile":
        """Build a profile from raw scale values, merging duplicates.

        Values closer than 1e-12 collapse into one atom with summed weight;
        weights default to uniform and are normalized exactly.
        """
        v = np.asarray(values, dtype=float).ravel()
        if v.size == 0:
            raise ValueError("profile needs at least one scale value")
        w = (
            np.full(v.size, 1.0 / v.size)
            if weights is None
            else np.asarray(weights, dtype=float).ravel()
        )
        if w.shape != v.shape or np.any(w <= 0):
            raise ValueError("weights must be positive, one per value")
        w = w / w.sum()
        order = np.argsort(v, kind="stable")
        v, w = v[order], w[order]
        merged_s, merged_w = [v[0]], [w[0]]
        for s, wt in zip(v[1:], w[1:]):
            if s - merged_s[-1] <= PROFILE_MERGE_TOL:
                merged_w[-1] += wt
            else:
                merged_s.append(s)
                merged_w.append(wt)
        return cls(np.array(merged_s), np.array(merged_w))

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(s), float(w)) for s, w in zip(self.sigmas, self.weights)]

    def second_moment(self) -> float:
        """E sigma^2 under the profile."""
        return float(np.sum(self.weights * self.sigmas ** 2))


@dataclass(frozen=True)
class SpectrumSummary:
    """Top and average eigenvalue of the empirical covariance."""

    lambda_max: float
    lambda_avg: float
    dim: int


@dataclass(frozen=True)
class AtomLaw:
    """All radius at sigma * sqrt(D)."""

    sigma: float


@dataclass(frozen=True)
class PowerExponentialLaw:
    """Radial density proportional to r^(D-1) exp(-(r/scale)^(2 beta) / 2)."""

    beta: float
    scale: float = 1.0


@dataclass(frozen=True)
class EmpiricalLaw:
    """Radius sigma_i * sqrt(D) with probability w_i from a profile."""

    profile: Profile


RadialLaw = AtomLaw | PowerExponentialLaw | EmpiricalLaw


def gen_simplex(D: int) -> PointCloud:
    """Regular simplex: x_0 = (1 - sqrt(D+1))/sqrt(D) * 1_D and x_i = sqrt(D) e_i.

    D+1 vertices in R^D, pairwise equidistant, not centered.
    """
    if D < 1:
        raise ValueError("dimension must be >= 1")
    data = np.zeros((D + 1, D))
    data[0] = (1.0 - np.sqrt(D + 1.0)) / np.sqrt(D)
    data[1:] = np.sqrt(D) * np.eye(D)
    return PointCloud(data)


def gen_cross_polytope(D: int) -> PointCloud:
    """Cross-polytope vertices +-sqrt(D) e_i; mean is exactly zero."""
    if D < 1:
        raise ValueError("dimension must be >= 1")
    eye = np.sqrt(D) * np.eye(D)
    data = np.empty((2 * D, D))
    data[0::2] = eye
    data[1::2] = -eye
    return PointCloud(data, centered=True)


def gen_cube(D: int, n: int | None = None, seed: int = 0) -> PointCloud:
    """Hypercube vertices in {-1, +1}^D.

    Args:
      D: ambient dimension.
      n: number of uniformly sampled vertices; omit for the exhaustive cube,
        which is only allowed for D <= 20.
      seed: sampling seed (ignored for the exhaustive cube).

    Returns:
      Exhaustive enumeration in lexicographic order (-1 before +1, first
      coordinate most significant) when n is None, else n sampled rows.
    """
    if D < 1:
        raise ValueError("dimension must be >= 1")
    if n is None:
        if D > EXHAUSTIVE_CUBE_MAX_DIM:
            raise SizeLimitError(
                f"exhaustive cube needs 2^{D} rows which exceeds the "
                f"2^{EXHAUSTIVE_CUBE_MAX_DIM} limit; pass n to sample instead"
            )
        idx = np.arange(2 ** D, dtype=np.int64)[:, None]
        bits = (idx >> np.arange(D - 1, -1, -1)[None, :]) & 1
        return PointCloud(bits * 2.0 - 1.0, centered=True)
    if n < 1:
        raise ValueError("sample size n must be >= 1")
    gen = rng.stream(seed, 0x43554245)
    data = gen.integers(0, 2, size=(n, D)).astype(float) * 2.0 - 1.0
    return PointCloud(data)


def _radii_for_law(law: RadialLaw, D: int, n: int, gen: np.random.Generator) -> np.ndarray:
    if isinstance(law, AtomLaw):
        if law.sigma <= 0:
            raise ValueError("atom law needs sigma > 0")
        return np.full(n, law.sigma * np.sqrt(D))
    if isinstance(law, EmpiricalLaw):
        u = rng.uniforms(gen, n)
        cum = np.cumsum(law.profile.weights)
        idx = np.searchsorted(cum, u, side="left")
        idx = np.minimum(idx, law.profile.sigmas.size - 1)
        return law.profile.sigmas[idx] * np.sqrt(D)
    if isinstance(law, PowerExponentialLaw):
        if law.beta <= 0 or law.scale <= 0:
            raise ValueError("power exponential law needs beta > 0 and scale > 0")
        # With y = (r/scale)^(2 beta) / 2 the radial density becomes a
        # Gamma(D / (2 beta)) law in y, so one gamma quantile per draw suffices.
        u = rng.uniforms(gen, n)
        y = gamma_ppf(D / (2.0 * law.beta), u)
        return law.scale * (2.0 * y) ** (1.0 / (2.0 * law.beta))
    raise ValueError(f"unknown radial law {law!r}")


def gen_spherical(D: int, n: int, law: RadialLaw, seed: int = 0) -> PointCloud:
    """Spherically symmetric cloud: uniform directions times a radial law.

    Args:
      D: ambient dimension.
      n: number of rows.
      law: AtomLaw, PowerExponentialLaw, or EmpiricalLaw; the stored sigma
        convention means a radius of sigma * sqrt(D).
      seed: generator seed.
    """
    if D < 1 or n < 1:
        raise ValueError("need D >= 1 and n >= 1")
    gen = rng.stream(seed, 0x53504845)
    dirs = rng.normals(gen, (n, D))
    norms = np.linalg.norm(dirs, axis=1)
    while np.any(norms == 0):  # pragma: no cover - measure-zero redraw
        bad = norms == 0
        dirs[bad] = rng.normals(gen, (int(bad.sum()), D))
        norms = np.linalg.norm(dirs, axis=1)
    radii = _radii_for_law(law, D, n, gen)
    return PointCloud(dirs * (radii / norms)[:, None])


def gen_two_cluster(D: int, n: int, s: float, seed: int = 0) -> PointCloud:
    """Two standard Gaussian clusters at +-(s/2) sqrt(D) e_1 with labels 0/1.

    The first ceil(n/2) rows sit at the positive center (label 0), the rest at
    the negative center (label 1); the population mean is zero.
    """
    if D < 1 or n < 2:
        raise ValueError("need D >= 1 and n >= 2")
    if s < 0:
        raise ValueError("separation s must be >= 0")
    gen = rng.stream(seed, 0x434c5553)
    data = rng.normals(gen, (n, D))
    n_pos = (n + 1) // 2
    offset = (s / 2.0) * np.sqrt(D)
    data[:n_pos, 0] += offset
    data[n_pos:, 0] -= offset
    labels = np.concatenate([np.zeros(n_pos, int), np.ones(n - n_pos, int)])
    return PointCloud(data, labels=labels)


def center(cloud: PointCloud) -> PointCloud:
    """Subtract the column means; a no-op for clouds already marked centered."""
    if cloud.centered:
        return cloud
    return PointCloud(
        cloud.data - cloud.data.mean(axis=0), centered=True, labels=cloud.labels
    )


def profile(cloud: PointCloud) -> Profile:
    """Profile of a cloud: atoms at ||x_i|| / sqrt(D) with equal weights.

    The scale mixture prediction assumes mean-zero data, so an uncentered
    cloud triggers a warning rather than an error.
    """
    if not cloud.centered:
        warnings.warn("profile of an uncentered cloud; center() it first", UserWarning)
    norms = np.linalg.norm(cloud.data, axis=1) / np.sqrt(cloud.dim)
    return Profile.from_scales(norms)


def spectrum(cloud: PointCloud) -> SpectrumSummary:
    """lambda_max and lambda_avg of the empirical covariance X^T X / n.

    lambda_avg is the mean squared row norm over D (no covariance matrix is
    formed); lambda_max comes from power iteration on matvecs v -> X^T(Xv)/n.
    """
    if not cloud.centered:
        warnings.warn("spectrum of an uncentered cloud; center() it first", UserWarning)
    X = cloud.data
    n, D = X.shape
    lam_avg = float((X * X).sum() / (n * D))
    if lam_avg == 0.0:
        return SpectrumSummary(0.0, 0.0, D)
    lam_max = _power_iteration_top(X)
    return SpectrumSummary(lam_max, lam_avg, D)


def _power_iteration_vector(X: np.ndarray, deflate=(), seed_tag: int = 0):
    """Top eigenpair of X^T X / n after deflating the given (lam, vec) pairs."""
    n, D = X.shape
    gen = rng.stream(0x504f5745, seed_tag, D)
    v = rng.normals(gen, D)
    for lam_i, u in deflate:
        v -= (u @ v) * u
    nrm = np.linalg.norm(v)
    if nrm == 0.0:  # pragma: no cover - measure-zero start
        v = np.ones(D)
        nrm = np.linalg.norm(v)
    v /= nrm

    def matvec(u):
        w = X.T @ (X @ u) / n
        for lam_i, q in deflate:
            w -= lam_i * (q @ u) * q
        return w

    lam = 0.0
    for _ in range(_POWER_ITERATION_MAX):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            lam = 0.0
            break
        v_new = w / norm
        lam_new = float(v_new @ matvec(v_new))
        done = abs(lam_new - lam) <= _POWER_ITERATION_TOL * max(abs(lam_new), 1e-30)
        v, lam = v_new, lam_new
        if done:
            break
    # Deterministic sign: largest-magnitude entry positive.
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return max(lam, 0.0), v


def _power_iteration_top(X: np.ndarray) -> float:
    lam, _ = _power_iteration_vector(X)
    return lam


def sigma_epsilon(prof: Profile, eps: float) -> float:
    """Largest atom sigma whose strictly-smaller atoms weigh at most eps.

    For a single-atom profile this is the atom itself; eps = 1 returns the
    largest atom.
    """
    if not (0 < eps <= 1):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    below = np.concatenate([[0.0], np.cumsum(prof.weights)[:-1]])
    eligible = np.nonzero(below <= eps)[0]
    return float(prof.sigmas[eligible[-1]])


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise CsvFormatError(f"non-numeric value {text!r}", row, col) from None


def _parse_table(lines: list[str], width: int) -> np.ndarray | None:
    """All cells of equal-width rows through numpy's C parser, or None when a
    row is ragged or a cell does not parse. Its values are Python's float()
    of each stripped cell, bit for bit."""
    if any(line.count(",") + 1 != width for line in lines):
        return None
    try:
        # with the row count given, numpy allocates the table once
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=len(lines))
    except ValueError:
        return None


def _scan_points(lines: list[str], start: int, width: int, n_cols: int, has_labels: bool):
    """Rows and labels cell by cell; the first ragged row, bad cell or
    non-integer label raises CsvFormatError at its 1-based position."""
    rows = np.empty((len(lines), n_cols))
    labels = np.empty(len(lines), dtype=int) if has_labels else None
    for i, line in enumerate(lines):
        cells = line.split(",")
        rownum = start + i + 1
        if len(cells) != width:
            raise CsvFormatError(
                f"expected {width} columns, found {len(cells)}", row=rownum
            )
        for j in range(n_cols):
            rows[i, j] = _parse_cell(cells[j].strip(), rownum, j + 1)
        if has_labels:
            val = _parse_cell(cells[-1].strip(), rownum, width)
            if val != int(val):
                raise CsvFormatError("label must be an integer", rownum, width)
            labels[i] = int(val)
    return rows, labels


def load_points_csv(path) -> PointCloud:
    """Read a points CSV: comma-separated rows, optional header, optional label.

    A header is detected by a non-numeric first cell; a final integer column is
    treated as labels only when the header names it "label". Malformed input
    raises CsvFormatError with 1-based row and column positions. numpy parses
    the cells; only input it refuses is scanned cell by cell, which finds the
    position of the first fault (or accepts what Python's float() accepts).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise CsvFormatError("empty points file")
    first = lines[0].split(",")
    has_header = False
    try:
        float(first[0])
    except ValueError:
        has_header = True
    has_labels = has_header and first[-1].strip().lower() == "label"
    start = 1 if has_header else 0
    if start == len(lines):
        raise CsvFormatError("header but no data rows", row=1)
    width = len(lines[start].split(","))
    if has_header and len(first) != width:
        raise CsvFormatError(
            f"header has {len(first)} columns, data has {width}", row=2
        )
    n_cols = width - 1 if has_labels else width
    if n_cols < 1:
        raise CsvFormatError("no numeric columns", row=start + 1)
    table = _parse_table(lines[start:], width)
    labels = None
    if table is not None and has_labels:
        labels = table[:, -1]
        if np.all((labels == np.trunc(labels)) & (np.abs(labels) < 2.0**63)):
            labels = labels.astype(int)
        else:
            table = None
    if table is None:
        rows, labels = _scan_points(lines[start:], start, width, n_cols, has_labels)
    else:
        rows = table[:, :n_cols]
    if not np.all(np.isfinite(rows)):
        bad = np.argwhere(~np.isfinite(rows))[0]
        raise CsvFormatError(
            "non-finite value", row=start + int(bad[0]) + 1, col=int(bad[1]) + 1
        )
    return PointCloud(rows, labels=labels)


def save_points_csv(cloud: PointCloud, path) -> None:
    """Write a points CSV with an x0..x{m-1} header, appending labels if present."""
    cols = [f"x{j}" for j in range(cloud.dim)]
    if cloud.labels is not None:
        cols.append("label")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(cloud.n):
            cells = [repr(float(v)) for v in cloud.data[i]]
            if cloud.labels is not None:
                cells.append(str(int(cloud.labels[i])))
            fh.write(",".join(cells) + "\n")


def load_profile_csv(path) -> Profile:
    """Read a profile CSV with header "sigma,weight"."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() != ""]
    if not lines or lines[0].replace(" ", "") != "sigma,weight":
        raise CsvFormatError('profile CSV must start with header "sigma,weight"', row=1)
    sigmas, weights = [], []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != 2:
            raise CsvFormatError("expected two columns", row=i + 2)
        sigmas.append(_parse_cell(cells[0].strip(), i + 2, 1))
        weights.append(_parse_cell(cells[1].strip(), i + 2, 2))
    if not sigmas:
        raise CsvFormatError("profile CSV has no atoms", row=1)
    return Profile(np.array(sigmas), np.array(weights))


def save_profile_csv(prof: Profile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sigma,weight\n")
        for s, w in prof.atoms:
            fh.write(f"{s!r},{w!r}\n")
