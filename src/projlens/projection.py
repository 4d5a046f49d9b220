"""Random, orthonormalized, and PCA projection maps R^D -> R^d."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .datasets import PointCloud, _top_eigenpairs, center

MODES = ("random", "orthonormal", "pca")
_RANK_TOL = 1e-12
EIGENGAP_TOL = 1e-12


class EigengapWarning(UserWarning):
    """PCA components d and d+1 are numerically degenerate."""


@dataclass(frozen=True)
class ProjectionMap:
    """d x D matrix plus the convention for applying it.

    Mode "random" applies x -> theta x / sqrt(D); "orthonormal" and "pca"
    rows are unit vectors applied without scaling.
    """

    theta: np.ndarray
    mode: str
    seed: int | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.theta, dtype=float))
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < arr.shape[0]:
            raise ValueError(f"projection matrix must be d x D with d <= D, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("projection matrix entries must be finite")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def d(self) -> int:
        return self.theta.shape[0]

    @property
    def D(self) -> int:
        return self.theta.shape[1]


def sample_projection(d: int, D: int, seed: int = 0) -> ProjectionMap:
    """Draw theta with i.i.d. standard normal entries (mode "random")."""
    if not (1 <= d <= D):
        raise ValueError(f"need 1 <= d <= D, got d={d}, D={D}")
    gen = rng.stream(seed, 0x50524f4a, d, D)
    return ProjectionMap(rng.normals(gen, (d, D)), "random", seed)


def orthonormalize(pmap: ProjectionMap) -> ProjectionMap:
    """The Gram-Schmidt basis of the rows, from a QR factorization of theta^T
    with diag R made positive; the result applies without 1/sqrt(D) scaling.

    Raises ValueError at the first row i with |R_ii| <= 1e-12 max(|theta_i|, 1).
    """
    q, r = np.linalg.qr(pmap.theta.T)
    diag = np.diag(r)
    scale = np.maximum(np.linalg.norm(pmap.theta, axis=1), 1.0)
    deficient = np.flatnonzero(np.abs(diag) <= _RANK_TOL * scale)
    if deficient.size:
        raise ValueError(f"projection rows are rank deficient at row {deficient[0]}")
    return ProjectionMap((q * np.sign(diag)).T, "orthonormal", pmap.seed)


def apply(pmap: ProjectionMap, cloud: PointCloud) -> PointCloud:
    """Project every row; labels and the centered flag carry over."""
    if cloud.dim != pmap.D:
        raise ValueError(f"cloud dimension {cloud.dim} does not match map D={pmap.D}")
    out = cloud.data @ pmap.theta.T
    if pmap.mode == "random":
        out = out / np.sqrt(pmap.D)
    return PointCloud(out, centered=cloud.centered, labels=cloud.labels)


def pca_project(cloud: PointCloud, d: int, seed: int = 0):
    """Project onto the top-d covariance eigenvectors.

    Returns (projected_cloud, map). The eigenpairs come from
    ``datasets._top_eigenpairs`` (numpy's ``eigh`` up to D = 512, ARPACK
    ``eigsh`` past it), so they do not depend on ``seed``, which only labels
    the map. Components are orthonormal with a deterministic sign
    (largest-magnitude entry positive). When the gap between eigenvalues d
    and d+1 falls below 1e-12 an EigengapWarning is issued; the projection
    is still returned.
    """
    if cloud.n < 2:
        raise ValueError("PCA needs at least two rows")
    if not (1 <= d <= cloud.dim):
        raise ValueError(f"need 1 <= d <= D, got d={d}, D={cloud.dim}")
    work = center(cloud)
    lams, comps = _top_eigenpairs(work.data, d + 1 if cloud.dim > d else d)
    if lams.size > d and lams[d - 1] - lams[d] < EIGENGAP_TOL:
        warnings.warn(
            f"eigengap {lams[d - 1] - lams[d]:.3e} between components {d} and {d + 1}",
            EigengapWarning,
        )
    pmap = ProjectionMap(comps[:d], "pca", seed)
    return apply(pmap, work), pmap


def gaussian_sample(d: int, n: int, sigma: float = 1.0, seed: int = 0) -> PointCloud:
    """n i.i.d. draws from N(0, sigma^2 I_d)."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if not (sigma >= 0 and np.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    gen = rng.stream(seed, 0x47415553, d)
    return PointCloud(sigma * rng.normals(gen, (n, d)))


def save_projection_map(pmap: ProjectionMap, csv_path, json_path) -> None:
    """Write the matrix as d rows x D columns CSV plus a JSON sidecar."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        for row in pmap.theta:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    meta = {"mode": pmap.mode, "seed": pmap.seed, "d": pmap.d, "D": pmap.D}
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_projection_map(csv_path, json_path) -> ProjectionMap:
    from .datasets import CsvFormatError

    with open(json_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    rows = []
    with open(csv_path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if line.strip() == "":
                continue
            try:
                rows.append([float(c) for c in line.strip().split(",")])
            except ValueError:
                raise CsvFormatError("non-numeric matrix entry", row=i + 1) from None
    theta = np.array(rows)
    if theta.shape != (meta["d"], meta["D"]):
        raise CsvFormatError(
            f"matrix shape {theta.shape} does not match sidecar ({meta['d']}, {meta['D']})"
        )
    return ProjectionMap(theta, meta["mode"], meta["seed"])
