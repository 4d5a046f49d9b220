"""Sup-over-balls discrepancy between a projected cloud and its predicted mixture.

Three estimators share one report type:

- sup_over_net: exact max over a finite grid-ball net whose control extends
  to all balls (the certification route, practical for d <= 3);
- radial_sweep_sup: exact sup over ALL radii at a fixed set of centers, by
  exploiting that the empirical mass is a step function of the radius;
- mc_ball_sup: a Monte Carlo max over random balls, the fallback for d > 3.

Each estimator only generates its candidate balls and their predicted masses
from the one mixture-mass kernel: the net its grid centers times its radii,
scored once per distinct squared norm; mc its seeded ball stream; radial the
data distances at each center. One scoring core serves all three. It counts
points in balls from the squared distances to a block of centers, in the one
form empirical_mass also uses, and keeps the first maximum in candidate order.

Closed balls throughout; boundary ties count as inside.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import PointCloud, SizeLimitError
from .gaussmix import (
    Ball,
    MixtureModel,
    mixture_ball_mass,
    mixture_masses_pairs,
    mixture_masses_sq,
)

NET_SIZE_LIMIT = 10 ** 7
# most (live atom, ball) pairs one estimate may send through the mixture-mass
# kernel; at about 2e6 pairs/s (one Xeon core, two-cluster profile) that is
# some 8 minutes
WORK_LIMIT = 10 ** 9
_NET_GRID_RTOL = 1e-9
# most (live atom, ball) pairs in one kernel call of the radial sweep, which
# scores a block of centers per call, always at least one. Blocks pay off the
# kernel's per-call cost; the decay-oneatom bench worker peaked at 63 MB with
# this budget, 72 MB with 2^16 pairs and 62 MB with one center a call
_SWEEP_BLOCK_PAIRS = 2**14

# stream tags ("MCBL", "LIPS" in ASCII)
_TAG_MC = 0x4D43424C
_TAG_LIP = 0x4C495053


def _as_points(cloud, d: int | None = None) -> np.ndarray:
    pts = cloud.data if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must form a nonempty 2-d array")
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {d}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    return pts


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each of the (m, d) centers to every point, one
    row per center, summed axis by axis in order. Every count of points in a
    ball uses this one form, so an estimator's count equals the count of its
    re-evaluated witness."""
    axes, cols = pts.T.copy(), centers.T[:, :, None]
    sq = np.subtract(axes[0], cols[0])
    sq *= sq
    diff = np.empty_like(sq)
    for axis, col in zip(axes[1:], cols[1:]):
        np.subtract(axis, col, out=diff)
        sq += np.multiply(diff, diff, out=diff)
    return sq


def empirical_mass(cloud, ball: Ball) -> float:
    """Fraction of points inside the closed ball."""
    pts = _as_points(cloud, ball.d if not ball.is_all and not ball.is_empty else None)
    if ball.is_empty:
        return 0.0
    if ball.is_all:
        return 1.0
    sq = _sq_dists(pts, ball.center[None, :])
    return float(np.count_nonzero(sq <= ball.radius * ball.radius)) / pts.shape[0]


def smoothed_mass(cloud, ball: Ball, delta: float) -> float:
    """Mean of the ramp score: 1 inside the ball, linear to 0 over a
    width-delta collar. Lipschitz in the projection, unlike the indicator."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    pts = _as_points(cloud, ball.d if not ball.is_all and not ball.is_empty else None)
    if ball.is_empty:
        return 0.0
    if ball.is_all:
        return 1.0
    diff = pts - ball.center
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    outside = np.maximum(dist - ball.radius, 0.0)
    return float(np.mean(np.clip(1.0 - outside / delta, 0.0, 1.0)))


@dataclass(frozen=True)
class NetParams:
    """Grid half-width c, grid/radius unit eps_o, and the inflation margin
    delta they were derived from. Satisfies eps_o * 4 sqrt(d) = delta."""

    c: float
    eps_o: float
    delta: float


def net_params_from_bounds(eps: float, sigma_eps: float, lambda_avg: float, d: int) -> NetParams:
    """Net parameters tight enough that controlling the net balls within eps
    controls every ball within 2 eps of predicted mass."""
    from .bounds import mixture_inflation_delta

    if lambda_avg <= 0:
        raise ValueError("lambda_avg must be > 0")
    delta = mixture_inflation_delta(sigma_eps, d, eps)
    return NetParams(
        c=math.sqrt(lambda_avg / (2.0 * eps)),
        eps_o=delta / (4.0 * math.sqrt(d)),
        delta=delta,
    )


@dataclass(frozen=True)
class BallNet:
    """Finite ball family: every point of (axis)^d crossed with every radius,
    plus one ALL ball so the family always covers the whole space.

    axis holds multiples of 2*eps_o clipped to [-c sqrt(d), c sqrt(d)] with
    both endpoints; radii are the positive multiples of eps_o*sqrt(d) up to
    the first one at or past (2c + 2 eps_o) sqrt(d).
    """

    d: int
    c: float
    eps_o: float
    axis: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.axis.flags.writeable = False
        self.radii.flags.writeable = False

    @property
    def n_grid_balls(self) -> int:
        return len(self.axis) ** self.d * len(self.radii)

    def __len__(self) -> int:
        return self.n_grid_balls + 1

    def __iter__(self):
        for coords in itertools.product(self.axis, repeat=self.d):
            center = np.array(coords, dtype=float)
            for r in self.radii:
                yield Ball(center, float(r))
        yield Ball.all_space(self.d)

    def center_blocks(self, block: int = 256):
        """Yield (m, d) arrays of grid centers in iteration order."""
        buf = []
        for coords in itertools.product(self.axis, repeat=self.d):
            buf.append(coords)
            if len(buf) == block:
                yield np.array(buf, dtype=float)
                buf = []
        if buf:
            yield np.array(buf, dtype=float)


def build_ball_net(d: int, c: float, eps_o: float) -> BallNet:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not (c > 0 and eps_o > 0):
        raise ValueError("need c > 0 and eps_o > 0")
    half = c * math.sqrt(d)
    step = 2.0 * eps_o
    k = int(math.floor(half / step * (1.0 + _NET_GRID_RTOL)))
    axis = step * np.arange(-k, k + 1, dtype=float)
    if not np.isclose(axis[-1], half, rtol=_NET_GRID_RTOL, atol=0.0):
        axis = np.concatenate([[-half], axis, [half]])
    r_step = eps_o * math.sqrt(d)
    r_top = (2.0 * c + 2.0 * eps_o) * math.sqrt(d)
    n_radii = int(math.ceil(r_top / r_step * (1.0 - _NET_GRID_RTOL)))
    radii = r_step * np.arange(1, n_radii + 1, dtype=float)
    m = len(axis) ** d * len(radii)
    if m > NET_SIZE_LIMIT:
        raise SizeLimitError(
            f"ball net would hold {m} balls, over the {NET_SIZE_LIMIT} limit; "
            "use the mc estimator instead"
        )
    return BallNet(d=d, c=c, eps_o=eps_o, axis=axis, radii=radii)


def _check_work(model: MixtureModel, n_balls: int, what: str, remedy: str) -> None:
    """Refuse, before any kernel call, an estimate over WORK_LIMIT atom-ball pairs."""
    pairs = n_balls * int(np.count_nonzero(model.profile.sigmas))
    if pairs > WORK_LIMIT:
        raise SizeLimitError(
            f"{what} would score {pairs} (atom, ball) pairs, over the "
            f"{WORK_LIMIT} limit; {remedy}"
        )


def _nearest_axis(axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Snap each value to the closest axis entry (ties toward the smaller)."""
    idx = np.searchsorted(axis, values)
    idx = np.clip(idx, 1, len(axis) - 1)
    left = axis[idx - 1]
    right = axis[idx]
    return np.where(values - left <= right - values, left, right)


def net_sandwich(ball: Ball, net: BallNet) -> tuple[Ball, Ball]:
    """Net balls inner <= ball <= outer sharing a snapped grid center.

    The outer ball is ALL when the needed radius exceeds the net's largest;
    the inner ball is EMPTY when even the smallest net radius does not fit.
    """
    if ball.is_all or ball.is_empty:
        raise ValueError("sandwich needs an ordinary ball")
    if ball.d != net.d:
        raise ValueError(f"ball dimension {ball.d} != net dimension {net.d}")
    snapped = _nearest_axis(net.axis, ball.center)
    dist = float(np.linalg.norm(snapped - ball.center))
    hi = np.searchsorted(net.radii, ball.radius + dist, side="left")
    outer = Ball.all_space(net.d) if hi == len(net.radii) else Ball(snapped, float(net.radii[hi]))
    lo = np.searchsorted(net.radii, ball.radius - dist, side="right") - 1
    inner = Ball(snapped, -math.inf) if lo < 0 else Ball(snapped, float(net.radii[lo]))
    return inner, outer


@dataclass(frozen=True)
class DiscrepancyReport:
    """Outcome of one sup-discrepancy estimate, with a witness ball that
    reproduces (empirical, predicted, value) when re-evaluated."""

    estimator: str
    value: float
    witness: Ball
    n_points: int
    seed: int
    params: dict

    def to_json(self) -> dict:
        if self.witness.is_all:
            radius = "ALL"
        elif self.witness.is_empty:
            radius = "EMPTY"
        else:
            radius = float(self.witness.radius)
        return {
            "estimator": self.estimator,
            "value": float(self.value),
            "witness": {
                "center": [float(v) for v in self.witness.center],
                "radius": radius,
            },
            "n_points": int(self.n_points),
            "seed": int(self.seed),
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DiscrepancyReport":
        raw = obj["witness"]["radius"]
        if raw == "ALL":
            radius = math.inf
        elif raw == "EMPTY":
            radius = -math.inf
        else:
            radius = float(raw)
        witness = Ball(np.array(obj["witness"]["center"], dtype=float), radius)
        return cls(
            estimator=obj["estimator"],
            value=float(obj["value"]),
            witness=witness,
            n_points=int(obj["n_points"]),
            seed=int(obj["seed"]),
            params=dict(obj["params"]),
        )


def _report(
    estimator: str, best: tuple, n_points: int, seed: int, params: dict
) -> DiscrepancyReport:
    value, witness, emp, pred = best
    return DiscrepancyReport(
        estimator=estimator,
        value=value,
        witness=witness,
        n_points=n_points,
        seed=seed,
        params={**params, "witness_empirical": emp, "witness_predicted": pred},
    )


def _count_within(pts: np.ndarray, centers: np.ndarray, sq_radii: np.ndarray) -> np.ndarray:
    """Points in each closed ball B(centers[i], r), r*r in row i of sq_radii.
    The distance rows of 64 centers at a time stay in cache. One radius per
    center is a compare; more sort each row and search it."""
    counts = np.empty(sq_radii.shape, dtype=np.intp)
    for s in range(0, len(centers), 64):
        sq = _sq_dists(pts, centers[s : s + 64])
        if sq_radii.shape[1] == 1:
            counts[s : s + 64, 0] = np.count_nonzero(sq <= sq_radii[s : s + 64], axis=1)
            continue
        sq.sort(axis=1)
        for i, row in enumerate(sq, s):
            counts[i] = np.searchsorted(row, sq_radii[i], side="right")
    return counts


def _first_max(blocks) -> tuple:
    """(score, block, i) for the largest score over a nonempty stream of
    candidate blocks, each a tuple led by its score array; i is the flat
    index of the score in that array. Ties go to the first in stream
    order, then in row-major order within a block."""
    best = None
    for block in blocks:
        i = int(np.argmax(block[0]))
        if best is None or block[0].flat[i] > best[0]:
            best = (float(block[0].flat[i]), block, i)
    return best


def _best_ball(pts: np.ndarray, blocks) -> tuple:
    """(value, witness, emp, pred) of the first ball with the largest
    |empirical - predicted|. ``blocks`` yields (centers (m, d), radii (m, k),
    predicted masses (m, k)), at least one ball in all; ball (i, j) is
    B(centers[i], radii[i, j])."""
    n = pts.shape[0]

    def scored():
        for centers, radii, pred in blocks:
            emp = _count_within(pts, centers, radii * radii) / n
            yield np.abs(emp - pred), centers, radii, emp, pred

    value, (_, centers, radii, emp, pred), i = _first_max(scored())
    c, j = divmod(i, radii.shape[1])
    witness = Ball(centers[c].copy(), float(radii[c, j]))
    return value, witness, float(emp[c, j]), float(pred[c, j])


def _net_blocks(model: MixtureModel, net: BallNet, threads: int = 1):
    """(centers, radii, predicted) blocks of the grid balls in net order.

    F-bar(B(c, r)) depends on c only through ||c||^2, and the symmetric
    axis repeats squared norms: each comes about twice at d = 1, 8 times at
    d = 2 and 48 times at d = 3. So the kernel scores a table of the
    distinct squared norms against the radii, and each block gathers its
    rows: every ball gets the kernel's value for the bits of its own
    ||c||^2. The table goes to the kernel some 2^19 balls a call, which
    bounds the per-ball arrays of a call. It holds one double per distinct
    norm and radius, so unlike the blocks it grows with the net: about
    n_grid_balls / 2 doubles at d = 1 (38 MB at NET_SIZE_LIMIT), far fewer at
    d >= 2.
    """
    k = len(net.radii)
    centers = list(net.center_blocks(max(1, 2**18 // k)))
    c2 = np.concatenate([np.einsum("...j,...j->...", b, b) for b in centers])
    uniq, row_of = np.unique(c2, return_inverse=True)
    r2 = net.radii**2
    table = np.empty((len(uniq), k))
    step = max(1, 2**19 // k)
    for s in range(0, len(uniq), step):
        table[s : s + step] = mixture_masses_sq(model, uniq[s : s + step, None], r2, threads)
    start = 0
    for block in centers:
        rows = row_of[start : start + len(block)]
        start += len(block)
        yield block, np.broadcast_to(net.radii, (len(block), k)), table[rows]


def sup_over_net(
    cloud, model: MixtureModel, net: BallNet, threads: int = 1
) -> DiscrepancyReport:
    """Exact max of |empirical - predicted| over the net balls; the kernel
    runs on up to ``threads`` worker threads (0: one per CPU)."""
    pts = _as_points(cloud, net.d)
    n = pts.shape[0]
    _check_work(model, net.n_grid_balls, "the ball net", "use the mc estimator")
    if net.n_grid_balls:
        best = _best_ball(pts, _net_blocks(model, net, threads))
    else:
        # a net without grid balls still holds the ALL ball
        best = (0.0, Ball.all_space(net.d), 1.0, 1.0)
    return _report("net", best, n, 0, {"c": net.c, "eps_o": net.eps_o, "n_balls": len(net)})


def _witness_radius_at_least(sq: float) -> float:
    # smallest float r with r*r >= sq, so the boundary point stays inside
    r = math.sqrt(sq)
    while r * r < sq:
        r = math.nextafter(r, math.inf)
    while r > 0.0:
        down = math.nextafter(r, -math.inf)
        if down * down >= sq:
            r = down
        else:
            break
    return r


def _witness_radius_below(sq: float) -> float:
    # largest float r with r*r < sq, so the boundary point stays outside
    r = math.sqrt(sq)
    while r * r >= sq:
        r = math.nextafter(r, -math.inf)
    return r


def radial_sweep_sup(cloud, model: MixtureModel, centers=None) -> DiscrepancyReport:
    """Exact sup over every radius at the given centers.

    Empirical mass at a center is a step function of the radius, so the sup
    over r of |F_n(B(x, r)) - Fbar(B(x, r))| is attained either at a data
    distance (from above) or just below one (from below); both candidate
    families are scanned per center. Default centers: the points themselves
    plus the origin.
    """
    pts = _as_points(cloud)
    n, d = pts.shape
    if centers is None:
        cens = np.vstack([pts, np.zeros((1, d))])
    else:
        cens = np.atleast_2d(np.asarray(centers, dtype=float))
        if cens.shape[0] == 0:
            raise ValueError("need at least one sweep center")
        if cens.shape[1] != d:
            raise ValueError(f"centers have dimension {cens.shape[1]}, expected {d}")
        if not np.all(np.isfinite(cens)):
            raise ValueError("sweep centers must be finite")
    # n data distances at each center, so at most n distinct radii
    _check_work(model, cens.shape[0] * n, "the radial sweep", "use fewer points or centers")
    point_mass = float(model.profile.weights[model.profile.sigmas == 0.0].sum())
    live = max(1, int(np.count_nonzero(model.profile.sigmas)))
    step = max(1, _SWEEP_BLOCK_PAIRS // (live * n))
    frac = np.arange(n + 1) / n

    def scored():
        # a block of centers at a time, one kernel call per block. The sweep
        # stays serial: a block is below one 2^17-pair kernel chunk, and the
        # kernel threads only calls of two or more chunks
        for s in range(0, len(cens), step):
            block = cens[s : s + step]
            sq = _sq_dists(pts, block)
            sq.sort(axis=1)
            # sq[i, j] has j points before it and j + 1 within it. For a
            # tied distance both counts are exact at a copy of it (within at
            # its last, before at its first) and fall short at the others,
            # so those score lower and argmax lands on a copy of the same
            # distance, in the order of the distinct distances
            radii = np.sqrt(sq)
            above = below = mixture_masses_pairs(model, block[:, None, :], radii)
            if point_mass:
                # the kernel puts the point masses at the origin in B(c, r)
                # when |c|^2 <= r*r; the limits at a distance u take the
                # closed ball (|c|^2 <= u^2) from above and the open one
                # (|c|^2 < u^2) from below, on the witnesses' u^2
                c2 = np.einsum("...j,...j->...", block[:, None, :], block[:, None, :])
                cont = above - point_mass * (c2 <= radii**2)
                above = cont + point_mass * (c2 <= sq)
                below = cont + point_mass * (c2 < sq)
            # per center, the limits from above each distance, then from below
            yield np.stack([frac[1:] - above, below - frac[:-1]], axis=1), block, sq

    _, (_, block, dists), i = _first_max(scored())
    c, rest = divmod(i, 2 * n)
    center = block[c]
    from_below, j = divmod(rest, n)
    sq = float(dists[c, j])
    if not from_below:
        witness = Ball(center.copy(), _witness_radius_at_least(sq))
    elif sq > 0.0:
        witness = Ball(center.copy(), _witness_radius_below(sq))
    else:
        # the limit from below radius 0 is the empty ball
        witness = Ball.empty(d)
    emp = empirical_mass(pts, witness)
    pred = mixture_ball_mass(model, witness)
    best = (abs(emp - pred), witness, emp, pred)
    return _report("radial", best, n, 0, {"n_centers": int(cens.shape[0])})


def mc_ball_sup(
    cloud,
    model: MixtureModel,
    n_balls: int,
    seed: int = 0,
    center_box: float = 4.0,
    max_radius: float = 6.0,
    threads: int = 1,
) -> DiscrepancyReport:
    """Max discrepancy over random balls: centers uniform in the box
    [-center_box, center_box]^d, radii uniform in (0, max_radius]. The
    kernel runs on up to ``threads`` worker threads (0: one per CPU).

    The ball stream is a prefix: growing n_balls with the same seed keeps
    every earlier ball, so the reported value never decreases.
    """
    pts = _as_points(cloud)
    n, d = pts.shape
    if n_balls < 1:
        raise ValueError("n_balls must be >= 1")
    if not (0 < center_box < math.inf and 0 < max_radius < math.inf):
        raise ValueError(
            f"need finite center_box > 0 and max_radius > 0, got {center_box} and {max_radius}"
        )
    _check_work(model, n_balls, "the mc estimator", "use fewer balls")
    u = rng.stream(seed, _TAG_MC, d).random((n_balls, d + 1))
    centers = center_box * (2.0 * u[:, :d] - 1.0)
    radii = max_radius * (1.0 - u[:, d:])

    def blocks():
        for s in range(0, n_balls, 512):
            c, r = centers[s : s + 512], radii[s : s + 512]
            yield c, r, mixture_masses_pairs(model, c[:, None, :], r, threads)

    return _report(
        "mc",
        _best_ball(pts, blocks()),
        n,
        seed,
        {"n_balls": n_balls, "center_box": center_box, "max_radius": max_radius},
    )


def lipschitz_probe(
    cloud: PointCloud,
    ball: Ball,
    delta: float,
    n_pairs: int,
    magnitude: float,
    seed: int = 0,
) -> float:
    """Max observed |smoothed mass change| / |projection matrix change|.

    Draws pairs (Theta, Theta + perturbation of Frobenius norm magnitude),
    maps the SOURCE cloud through (1/sqrt(D)) Theta, and measures the ramp
    mass of the fixed ball under both. The ratio is bounded by
    sqrt(lambda_max / (D delta^2)) for centered data.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if not (magnitude > 0):
        raise ValueError("magnitude must be > 0")
    pts = cloud.data if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    big_d = pts.shape[1]
    d = ball.d
    gen = rng.stream(seed, _TAG_LIP, d, big_d)
    scale = 1.0 / math.sqrt(big_d)
    worst = 0.0
    for _ in range(n_pairs):
        theta = rng.normals(gen, (d, big_d))
        pert = rng.normals(gen, (d, big_d))
        pert *= magnitude / np.linalg.norm(pert)
        base = smoothed_mass(pts @ theta.T * scale, ball, delta)
        moved = smoothed_mass(pts @ (theta + pert).T * scale, ball, delta)
        ratio = abs(moved - base) / float(np.linalg.norm(pert))
        worst = max(worst, ratio)
    return worst
