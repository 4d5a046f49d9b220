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
# covariance eigenpairs come from a dense eigh up to this dimension and from
# ARPACK past it, where the dense solver's cubic cost takes over
_DENSE_EIGH_MAX_DIM = 512


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

    lambda_avg is the mean squared row norm over D (``mean_eigenvalue``);
    lambda_max is the top eigenvalue from ``_top_eigenpairs``: LAPACK's
    ``eigh`` (through numpy) up to D = 512, ARPACK's ``eigsh`` on matvecs
    v -> X^T(Xv)/n past it.
    """
    if not cloud.centered:
        warnings.warn("spectrum of an uncentered cloud; center() it first", UserWarning)
    lam_avg = mean_eigenvalue(cloud)
    if lam_avg == 0.0:
        return SpectrumSummary(0.0, 0.0, cloud.dim)
    lam_max, _ = _top_eigenpairs(cloud.data, 1)
    return SpectrumSummary(float(lam_max[0]), lam_avg, cloud.dim)


def mean_eigenvalue(cloud: PointCloud) -> float:
    """lambda_avg of ``spectrum``, without an eigensolver: the mean
    eigenvalue of X^T X / n, which is the mean squared row norm over D."""
    X = cloud.data
    n, D = X.shape
    return float((X * X).sum() / (n * D))


def _top_eigenpairs(X: np.ndarray, k: int):
    """Top k eigenvalues of X^T X / n, descending and floored at 0, and their
    unit eigenvectors as the rows of a (k, D) array, each with its
    largest-magnitude entry positive.

    Up to D = _DENSE_EIGH_MAX_DIM (or for all D eigenpairs) numpy's dense
    ``eigh`` of the D x D covariance; past it, whose cost is cubic in D,
    ARPACK's ``eigsh`` on matvecs from a seeded normal start (a fixed start
    such as all ones can be orthogonal to the top eigenspace of a symmetric
    cloud). ARPACK refuses the zero operator, whose every unit vector is an
    eigenvector, so a zero X takes the first k axes.
    """
    n, D = X.shape
    if D <= _DENSE_EIGH_MAX_DIM or k == D:
        # numpy's, not scipy.linalg's subset eigh: importing scipy.linalg
        # costs 60 ms, more than all D pairs take at D = 512 (40 ms)
        lam, vec = np.linalg.eigh(X.T @ X / n)
        lam, vec = lam[D - k :], vec[:, D - k :]
    elif not X.any():
        lam, vec = np.zeros(k), np.eye(D, k)
    else:
        # imported here: it costs 90 ms, which CLI commands that never reach
        # this route would pay at start-up
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((D, D), matvec=lambda v: X.T @ (X @ v) / n, dtype=float)
        v0 = rng.normals(rng.stream(0x504f5745, 0, D), D)
        lam, vec = eigsh(op, k=k, which="LA", tol=0, v0=v0)
    # both solvers return ascending eigenvalues
    lam, vec = np.maximum(lam[::-1], 0.0), vec[:, ::-1].T
    top = vec[np.arange(k), np.argmax(np.abs(vec), axis=1)]
    vec[top < 0] *= -1.0
    return lam, vec


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
    """Rows and labels cell by cell; the first ragged row, bad cell, or label
    that is not an integer below 2^63 in magnitude (nan and inf are not)
    raises CsvFormatError at its 1-based position."""
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
            # the comparisons are false for nan, so they go first
            if not (abs(val) < 2.0**63 and val == int(val)):
                raise CsvFormatError(
                    "label must be an integer below 2^63 in magnitude", rownum, width
                )
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
