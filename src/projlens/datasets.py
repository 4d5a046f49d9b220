"""Point clouds, norm profiles, and the dataset generators.

A point cloud is a finite set of rows in R^D. Its profile is the distribution
of scaled norms ||x|| / sqrt(D) as weighted atoms; together with a target
dimension d the profile determines the predicted scale mixture of Gaussians
for a random projection. Generators cover the reference shapes (simplex,
cross-polytope, hypercube), spherically symmetric clouds with a configurable
radial law, and a labeled two-cluster mixture.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .special import gamma_ppf

PROFILE_MERGE_TOL = 1e-12
EXHAUSTIVE_CUBE_MAX_DIM = 20
# most bytes a generator may ask for at once; a dense D x D cloud reaches it
# near D = 11 600, where centring and profiling it take as much again
MEMORY_LIMIT = 2**30
# covariance eigenpairs come from a dense eigh up to this dimension and from
# ARPACK past it, where the dense solver's cubic cost takes over
_DENSE_EIGH_MAX_DIM = 512


class CsvFormatError(ValueError):
    """Malformed CSV table; carries 1-based row/column positions."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.row = row
        self.col = col


class SizeLimitError(ValueError):
    """A requested object would exceed a hard size limit."""


def _check_memory(rows: int, cols: int, what: str) -> None:
    """Refuse, before allocating it, a float cloud over MEMORY_LIMIT bytes."""
    nbytes = rows * cols * np.dtype(float).itemsize
    if nbytes > MEMORY_LIMIT:
        raise SizeLimitError(
            f"{what} would take {nbytes} bytes ({rows} x {cols} doubles), over the "
            f"{MEMORY_LIMIT}-byte limit"
        )


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every entry is finite. A finite sum proves it with no n x D
    temporary; only a sum that is not finite, which finite entries can reach
    by overflow, falls back to the elementwise scan."""
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return True
    return bool(np.isfinite(arr).all())


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
        if not _all_finite(arr):
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


RadialLaw = AtomLaw | PowerExponentialLaw


def gen_simplex(D: int) -> PointCloud:
    """Regular simplex: x_0 = (1 - sqrt(D+1))/sqrt(D) * 1_D and x_i = sqrt(D) e_i.

    D+1 vertices in R^D, pairwise equidistant, not centered.
    """
    if D < 1:
        raise ValueError("dimension must be >= 1")
    _check_memory(D + 1, D, "the simplex")
    data = np.zeros((D + 1, D))
    data[0] = (1.0 - np.sqrt(D + 1.0)) / np.sqrt(D)
    # in place: sqrt(D) * eye(D) would hold two more D x D arrays
    np.fill_diagonal(data[1:], np.sqrt(D))
    return PointCloud(data)


def gen_cross_polytope(D: int) -> PointCloud:
    """Cross-polytope vertices +-sqrt(D) e_i; mean is exactly zero."""
    if D < 1:
        raise ValueError("dimension must be >= 1")
    _check_memory(2 * D, D, "the cross-polytope")
    # in place, as in gen_simplex; -0.0 off the diagonal, as -eye had
    data = np.zeros((2 * D, D))
    data[1::2] = -0.0
    np.fill_diagonal(data[0::2], np.sqrt(D))
    np.fill_diagonal(data[1::2], -np.sqrt(D))
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
    _check_memory(n, D, "the cube sample")
    gen = rng.stream(seed, 0x43554245)
    data = gen.integers(0, 2, size=(n, D)).astype(float) * 2.0 - 1.0
    return PointCloud(data)


def _check_law(law: RadialLaw) -> None:
    """Refuse an unknown law, or a law parameter that is not finite and > 0,
    by name."""
    if isinstance(law, AtomLaw):
        params = {"sigma": law.sigma}
    elif isinstance(law, PowerExponentialLaw):
        params = {"beta": law.beta, "scale": law.scale}
    else:
        raise ValueError(f"unknown radial law {law!r}")
    for name, value in params.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} of the radial law must be finite and > 0, got {value}")


def _radii_for_law(law: RadialLaw, D: int, n: int, gen: np.random.Generator) -> np.ndarray:
    if isinstance(law, AtomLaw):
        return np.full(n, law.sigma * np.sqrt(D))
    # PowerExponentialLaw: with y = (r/scale)^(2 beta) / 2 the radial density
    # becomes a Gamma(D / (2 beta)) law in y, so one gamma quantile per draw
    # suffices.
    u = rng.uniforms(gen, n)
    y = gamma_ppf(D / (2.0 * law.beta), u)
    return law.scale * (2.0 * y) ** (1.0 / (2.0 * law.beta))


def gen_spherical(D: int, n: int, law: RadialLaw, seed: int = 0) -> PointCloud:
    """Spherically symmetric cloud: uniform directions times a radial law.

    Args:
      D: ambient dimension.
      n: number of rows.
      law: AtomLaw or PowerExponentialLaw; the stored sigma convention
        means a radius of sigma * sqrt(D).
      seed: generator seed.
    """
    if D < 1 or n < 1:
        raise ValueError("need D >= 1 and n >= 1")
    _check_law(law)
    _check_memory(n, D, "the spherical cloud")
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
    _check_memory(n, D, "the two-cluster cloud")
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


def _center_in_place(cloud: PointCloud) -> PointCloud:
    """``center`` for a cloud just generated or loaded that nothing else
    holds: the column means are subtracted from its own array (which the
    generators and ``load_points_csv`` allocate, so it may be made writeable
    again), and no second copy of it is made. The values are the same bytes
    as ``center``'s."""
    if cloud.centered:
        return cloud
    data = cloud.data
    data.flags.writeable = True
    data -= data.mean(axis=0)
    return PointCloud(data, centered=True, labels=cloud.labels)


def profile(cloud: PointCloud) -> Profile:
    """Profile of a cloud: atoms at ||x_i|| / sqrt(D) with equal weights.

    The scale mixture prediction assumes mean-zero data, so an uncentered
    cloud triggers a warning rather than an error.
    """
    if not cloud.centered:
        warnings.warn("profile of an uncentered cloud; center() it first", UserWarning)
    # row blocks of some 1 MB: the norm of the whole cloud at once squares
    # it into a copy; each row's norm has the same bits either way
    step = max(1, 2**17 // cloud.dim)
    norms = np.concatenate(
        [np.linalg.norm(cloud.data[s : s + step], axis=1) for s in range(0, cloud.n, step)]
    )
    return Profile.from_scales(norms / np.sqrt(cloud.dim))


def spectrum(cloud: PointCloud) -> SpectrumSummary:
    """lambda_max and lambda_avg of the empirical covariance X^T X / n.

    lambda_avg is the mean squared row norm over D (``mean_eigenvalue``);
    lambda_max is the top eigenvalue from ``_top_eigenpairs``: LAPACK's
    ``eigh`` (through numpy) up to D = 512, ARPACK's ``eigsh`` on matvecs
    v -> X^T(Xv)/n past it. Where the covariance is known to be lambda_avg
    times I, as for the centred simplex and cross-polytope, lambda_max is
    lambda_avg and ``mean_eigenvalue`` alone gives both (``gen`` does so).
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
    eigenvalue of X^T X / n, which is the mean squared row norm over D.

    The squares are summed in row blocks of some 1 MB, as ``profile`` takes
    its norms, so no squared copy of the cloud is made. A cloud of one block
    keeps the bits of a whole-cloud sum; past it the sum runs in another
    order, which may move the last bit (the centred simplex's lambda_avg
    moves by 2.2e-16 relative at D = 400 and 3000, not at D = 1000).
    """
    X = cloud.data
    n, D = X.shape
    step = max(1, 2**17 // D)
    total = 0.0
    for s in range(0, n, step):
        block = X[s : s + step]
        total += float((block * block).sum())
    return total / (n * D)


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
        # imported here: it costs some 50 ms and 8 MB, which CLI commands
        # that never reach this route would pay at start-up (gen of the
        # simplex or cross-polytope takes lambda_max in closed form)
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


def _data_lines(fh, start: int):
    """The non-blank lines of the open text file fh, from its first line on,
    after the first ``start`` of them; one line is held at a time."""
    fh.seek(0)
    return itertools.islice((line for line in fh if not line.isspace()), start, None)


def _parse_table(lines, count: int, width: int) -> np.ndarray | None:
    """The (count, width) table of the data lines through numpy's C parser,
    which reads them one at a time and, with the row count given, allocates
    the table once; or None when it refuses a row (ragged, or a cell it does
    not parse). Its values are Python's float() of each stripped cell, bit
    for bit."""
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=count)
    except ValueError:
        return None
    return table if table.shape == (count, width) else None


def _leading_columns(table: np.ndarray, k: int) -> np.ndarray:
    """table[:, :k] as a C-contiguous array in table's own buffer, whose rows
    are moved down a block of some 64 kB at a time (numpy buffers a block
    whose source and target overlap), so no second table is allocated."""
    n, width = table.shape
    out = table.reshape(-1)[: n * k].reshape(n, k)
    step = max(1, 2**13 // width)
    for s in range(0, n, step):
        out[s : s + step] = table[s : s + step, :k]
    return out


def _scan_rows(lines, start: int, count: int, width: int, n_cols: int, has_labels: bool):
    """Rows and labels of the count data lines, cell by cell; the first
    ragged row, bad cell, or label that is not an integer below 2^63 in
    magnitude (nan and inf are not) raises CsvFormatError at its 1-based
    position."""
    rows = np.empty((count, n_cols))
    labels = np.empty(count, dtype=int) if has_labels else None
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


def _read_csv(path):
    """(header, values, labels) of a CSV table; every CSV the package reads
    goes through here.

    A non-numeric first cell marks a header (its stripped cells, else None);
    a last column headed "label" holds integer labels (else None); values
    holds the other cells, which must be finite. Blank lines are skipped.
    The first fault raises CsvFormatError at its 1-based row (blank lines
    not counted) and, for a bad cell, column.

    A first pass over the file counts its rows and reads the header; numpy
    then parses the rows straight from the file into a table of that size,
    so no list of the file's lines is held and the values take one table.
    Only input numpy refuses is read again and scanned cell by cell, which
    finds the position of the first fault (or accepts what Python's float()
    accepts).
    """
    with open(path, "r", encoding="utf-8") as fh:
        count, head = 0, []
        for line in fh:
            if not line.isspace():
                count += 1
                if count <= 2:
                    head.append(line.split(","))
        if not head:
            raise CsvFormatError("empty CSV file")
        header = None
        try:
            float(head[0][0])
        except ValueError:
            header = [cell.strip() for cell in head[0]]
        has_labels = header is not None and header[-1].lower() == "label"
        start = 0 if header is None else 1
        count -= start
        if count == 0:
            raise CsvFormatError("header but no data rows", row=1)
        width = len(head[start])
        if header is not None and len(header) != width:
            raise CsvFormatError(
                f"header has {len(header)} columns, data has {width}", row=2
            )
        n_cols = width - 1 if has_labels else width
        if n_cols < 1:
            raise CsvFormatError("no numeric columns", row=start + 1)
        values = labels = None
        table = _parse_table(_data_lines(fh, start), count, width)
        if table is not None and not has_labels:
            values = table
        elif table is not None:
            col = table[:, -1]
            if np.all((col == np.trunc(col)) & (np.abs(col) < 2.0**63)):
                # copied first: moving the values down overwrites the column
                labels = col.astype(int)
                values = _leading_columns(table, n_cols)
        if values is None:
            values, labels = _scan_rows(
                _data_lines(fh, start), start, count, width, n_cols, has_labels
            )
    if not _all_finite(values):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise CsvFormatError(
            "non-finite value", row=start + int(bad[0]) + 1, col=int(bad[1]) + 1
        )
    return header, values, labels


def _write_csv(path, header: list[str] | None, rows) -> None:
    """Write the header line, if any, then one line per row of the iterable
    rows; every CSV the package writes goes through here. Each cell must be a
    plain int, float or bool and is written as its repr(), so floats take
    their shortest round-trip form."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(repr, row)) + "\n")


def load_points_csv(path) -> PointCloud:
    """Read a points CSV: rows after an optional header, whose last column is
    read as labels when the header names it "label" (see ``_read_csv``)."""
    _, values, labels = _read_csv(path)
    return PointCloud(values, labels=labels)


def save_points_csv(cloud: PointCloud, path) -> None:
    """Write a points CSV with an x0..x{m-1} header, appending labels if present."""
    header = [f"x{j}" for j in range(cloud.dim)]
    rows = (row.tolist() for row in cloud.data)  # streamed, one row at a time
    if cloud.labels is not None:
        header.append("label")
        rows = (cells + [label] for cells, label in zip(rows, cloud.labels.tolist()))
    _write_csv(path, header, rows)


def load_profile_csv(path) -> Profile:
    """Read a profile CSV with header "sigma,weight"."""
    header, values, _ = _read_csv(path)
    if header != ["sigma", "weight"]:
        raise CsvFormatError('profile CSV must start with header "sigma,weight"', row=1)
    sigmas, weights = np.ascontiguousarray(values.T)
    return Profile(sigmas, weights)


def save_profile_csv(prof: Profile, path) -> None:
    _write_csv(path, ["sigma", "weight"], prof.atoms)
