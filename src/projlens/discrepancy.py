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
form empirical_mass also uses, and keeps the first maximum in candidate order
(the net's centers come grouped by squared norm, and exact ties go to the
first in net order).

Every ball takes one path through the core: a first pass scores it, the
balls whose first-pass score is within 2 tau of the best are kept, and the
kept ones are rescored. Where the exact scoring would be large, the first
pass is cheaper, its masses all within a proven tau of the exact ones: at
d >= 2, on a many-atom profile, the kernel on a coarse model of few atoms
(``gaussmix.coarse_model``); at d = 1, one-atom profiles included, the
closed-form interval mass (``gaussmix.interval_masses``) on the coarse model
or the model itself, tau growing by 1e-9. The kept balls then go through
the exact kernel, with the inputs scoring every ball exactly would give it.
Elsewhere the first pass is the kernel itself, tau = 0, and the kept balls
keep its masses, so each ball is scored once. Every ball that ties the
exact maximum is kept, so the reports are the same, bit for bit, as when
every ball is scored exactly.

In front of its first pass, the exact kernel and one-atom profiles
included, the radial sweep puts one more stage, which needs no table: an
endpoint bracket. Each of its rows holds one center's balls in
nondecreasing radius, and at a fixed center the masses of the closed and
the open ball, point masses included, never fall as the radius grows. So
the first pass scores only every _BRACKET_STRIDE-th ball of a row and its
last, the endpoints. Each run of balls between two endpoints gets one
bound: the larger of the left end's score from above and the right end's
score from below, plus the rise of the empirical mass across the run, tau
and _COARSE_SLACK. Only the runs whose bound reaches the floor are opened;
there each ball gets the same bound on its own, and the first pass scores
the balls whose bound reaches the floor. The net scores each block's
distinct squared norms against every radius, and mc has one radius per
center, so both go straight to the first pass.

Closed balls throughout; boundary ties count as inside.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .datasets import PointCloud, SizeLimitError
from .gaussmix import (
    _COARSE_SLACK,
    Ball,
    MixtureModel,
    coarse_model,
    interval_masses,
    mixture_ball_mass,
    mixture_masses_sq,
)

NET_SIZE_LIMIT = 10 ** 7
# most (live atom, ball) pairs one estimate may send through the mixture-mass
# kernel; at about 2e6 pairs/s (one Xeon core, two-cluster profile) that is
# some 8 minutes. It counts the exact scoring of every ball: the pruned
# scoring sends fewer, but all of them in its worst case, where no ball can
# be ruled out
WORK_LIMIT = 10 ** 9
_NET_GRID_RTOL = 1e-9
# most (live atom, ball) pairs in one kernel call of the radial sweep, which
# scores a block of centers per call, always at least one. Blocks pay off the
# per-call cost of the kernel and of the run bounds: the decay-oneatom bench
# operation took 22 ms at 62.1 MB peak with this budget, 17-20 ms at 64.0 MB
# with 2^16 pairs, and 220-250 ms at 62.4 MB with one center a call (2-core
# machine, seed 1, two runs each)
_SWEEP_BLOCK_PAIRS = 2**14
# an estimate scores its balls by a first pass (``_best_score``) only where
# its exact scoring needs at least _PRUNE_MIN_PAIRS (live atom, ball) pairs,
# a quarter of that at d = 1; at d >= 2 the coarse model must also hold at
# most 1 / _PRUNE_ATOM_SHARE of the live atoms. On two-cluster profiles at
# d = 2 the coarse pass broke even near 1.2e4 pairs: 1.8 ms against 1.4 ms
# exact at 4352 pairs, 2.9 against 2.7 ms at 11132, 1.5 against 3.3 ms at
# 14400 (radial sweeps, one core of a 2-core machine). The d = 1 closed form
# costs about 40 % of the kernel per pair, and on the one-atom simplex its
# pass broke even near 4e3 pairs: 0.50 against 0.47 ms at 2070 pairs, 0.58
# against 0.61 ms at 4160, 0.97 against 1.57 ms at 10302 (radial sweeps)
_PRUNE_MIN_PAIRS = 2**14
_PRUNE_ATOM_SHARE = 4
# candidates ``_best_score`` holds before it rescores them
_PRUNE_MAX_KEPT = 2**16
# in a block of sorted rows the first pass, the exact kernel included,
# scores every _BRACKET_STRIDE-th ball of a row and its last, and bounds each
# run of balls between by those, and the balls of a run only where the run's
# bound reaches the floor (``_bracket_runs``). Radial sweeps, median of 21 to
# 60 interleaved runs, one core of a 2-core machine, with a bound for every
# ball:
# - in front of the exact kernel, on normal points: d = 2, 400 points, one
#   atom 46 -> 21 ms; 50 points, 50 atoms 33 -> 12 ms; d = 3, 200 points,
#   3 atoms 43 -> 13 ms; but d = 2, 30 points, one atom 0.66 -> 0.74 ms;
# - against the plain first pass, the radial-manyatom input (d = 2, n = 50,
#   seeds 1 and 2) took 0.65 and 0.67 times as long at stride 2, 0.52 and
#   0.48 at 4, 0.48 at 8; d = 1, n = 400 normal points: 1.15 times as long
#   on one atom; on 2 atoms 0.87 at stride 2, 0.67 at 4, 0.57 at 8; on 8
#   atoms 0.79, 0.56 and 0.53. Past 4 the brackets widen and little more is
#   saved.
# A bound a run costs far less than one a ball, so the bracket pays on
# one atom at d = 1 too. Against a bound a ball, or on one atom the plain
# first pass (median of 100 runs interleaved in one process, same machine):
# d = 1, n = 400 normal points, 0.71 times as long on one atom, 0.77 on 2
# atoms and 0.79 on 8; the one-atom D = 400 simplex 0.73; the
# radial-manyatom input at seeds 1 to 3, where the same balls are scored,
# 0.99, 0.97 and 0.98
_BRACKET_STRIDE = 4

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


def empirical_mass(cloud, ball: Ball) -> float:
    """Fraction of points inside the closed ball."""
    pts = _as_points(cloud, ball.d if not ball.is_all and not ball.is_empty else None)
    if ball.is_empty:
        return 0.0
    if ball.is_all:
        return 1.0
    count = _count_within(pts, ball.center[None, :], np.array([[ball.radius * ball.radius]]))
    return float(count[0, 0]) / pts.shape[0]


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


def build_ball_net(d: int, c: float, eps_o: float) -> BallNet:
    if d < 1:
        raise ValueError("dimension must be >= 1")
    for name, value in (("c", c), ("eps_o", eps_o)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"need a finite {name} > 0, got {value}")
    half = c * math.sqrt(d)
    step = 2.0 * eps_o
    r_step = eps_o * math.sqrt(d)
    r_top = (2.0 * c + 2.0 * eps_o) * math.sqrt(d)
    steps, rungs = half / step, r_top / r_step
    # a count that overflows has no int, and is over any limit
    if not (math.isfinite(steps) and math.isfinite(rungs)):
        raise SizeLimitError(
            f"ball net would take {steps} grid steps a half-axis and {rungs} radii, "
            f"over the {NET_SIZE_LIMIT} ball limit; use the mc estimator instead"
        )
    k = int(math.floor(steps * (1.0 + _NET_GRID_RTOL)))
    # the axis is step * (-k, ..., k), with -half and half added where its
    # last entry misses half
    hits_half = abs(step * k - half) <= _NET_GRID_RTOL * half
    n_radii = int(math.ceil(rungs * (1.0 - _NET_GRID_RTOL)))
    # counted in Python ints, and refused before any array is allocated
    m = (2 * k + (1 if hits_half else 3)) ** d * n_radii
    if m > NET_SIZE_LIMIT:
        raise SizeLimitError(
            f"ball net would hold {m} balls, over the {NET_SIZE_LIMIT} limit; "
            "use the mc estimator instead"
        )
    axis = step * np.arange(-k, k + 1, dtype=float)
    if not hits_half:
        axis = np.concatenate([[-half], axis, [half]])
    radii = r_step * np.arange(1, n_radii + 1, dtype=float)
    return BallNet(d=d, c=c, eps_o=eps_o, axis=axis, radii=radii)


def _check_work(model: MixtureModel, d: int, n_balls: int, what: str, remedy: str) -> None:
    """Refuse, before any kernel call, a model of another dimension than the
    points (d) and an estimate over WORK_LIMIT atom-ball pairs."""
    if model.d != d:
        raise ValueError(f"points have dimension {d}, the model {model.d}")
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


def _pruning(model: MixtureModel, n_balls: int):
    """(m, masses, tau) of the first pass: every mass ``masses(m, c2, r2)`` is
    within tau of the kernel's under the model. A cheaper pass needs the
    exact scoring of n_balls to send at least _PRUNE_MIN_PAIRS (live atom,
    ball) pairs through the kernel, a quarter of that at d = 1, where it is
    cheaper still. m is the coarse model where it holds at most
    1 / _PRUNE_ATOM_SHARE of the live atoms, else the model itself. At d = 1
    the masses are the closed form ``interval_masses``, which adds
    _COARSE_SLACK to tau; at d >= 2 they are the kernel's on m. Where
    nothing cheaper pays, the pass is the kernel itself,
    (model, mixture_masses_sq, 0.0)."""
    live = int(np.count_nonzero(model.profile.sigmas))
    m, tau = model, 0.0
    if n_balls * live < (_PRUNE_MIN_PAIRS // 4 if model.d == 1 else _PRUNE_MIN_PAIRS):
        return m, mixture_masses_sq, tau
    if live >= _PRUNE_ATOM_SHARE:
        coarse, coarse_tau = coarse_model(model)
        if np.count_nonzero(coarse.profile.sigmas) * _PRUNE_ATOM_SHARE <= live:
            m, tau = coarse, coarse_tau
    if model.d == 1:
        return m, interval_masses, tau + _COARSE_SLACK
    return m, mixture_masses_sq, tau


def _best_score(
    model: MixtureModel, n_balls: int, blocks, score, run_rise: float | None = None
) -> tuple:
    """(value, center, s, pred, aux) of the first candidate with the largest
    score over n_balls balls; the scoring core of every estimator.

    ``blocks(m, masses)`` yields, for a (rows, cols) block of balls,
    (index (rows,), centers (rows, d), c2, r2, pred, aux): each center's
    position in candidate order, ||c||^2 and r^2, the masses
    ``masses(m, c2, r2)``, and a tuple of arrays, each broadcasting to
    (rows, cols). ``score(pred, *aux)`` maps them, element by element, to
    (rows, S, cols) scores, S candidates per ball, in candidate order at
    each center; each score is monotone or convex in pred, and moves by at
    most as much. The winner's center row, its s, and its pred and aux
    values come back. The centers may come in any order (the net's come
    grouped by squared norm): exact ties go to the lowest index, and at one
    center to the first candidate.

    Every block is scored by the first pass of ``_pruning``, whose every
    mass is within tau of the kernel's, and so is every score. The exact
    maximum is at least the running floor: the best first-pass score less
    tau, or the best exact score found so far. So a candidate whose
    first-pass score plus tau is below the floor cannot reach it, and only
    the others are kept. With ``run_rise`` (the radial sweep's blocks: each
    row one center's balls in nondecreasing r^2, two candidates a ball) the
    first pass scores only the endpoint balls of each row, and the others
    only where both their run's bound and their own reach the floor
    (``_bracket_runs``). The kept candidates are rescored in candidate
    order, whenever more than _PRUNE_MAX_KEPT are held and at the end: by
    the exact kernel on the same c2, r2 bits, or, where the first pass is
    the kernel itself, from its masses, so that every ball is scored once.
    Every candidate that ties the exact maximum is kept, so the winner is
    the one that scoring every ball exactly finds.
    """
    first, masses, tau = _pruning(model, n_balls)
    exact = first is model and masses is mixture_masses_sq
    best, best_key, floor, kept, n_kept = None, None, -math.inf, [], 0

    def rescore():
        nonlocal best, best_key, floor
        if not kept:
            return
        first_s, index, cens, side, c2, r2, pred, *aux = (
            np.concatenate(parts) for parts in zip(*kept)
        )
        kept.clear()
        keep = np.flatnonzero(first_s + tau >= floor)
        if keep.size == 0:
            return
        index, cens, side = index[keep], cens[keep], side[keep]
        c2, r2, pred = c2[keep], r2[keep], pred[keep]
        aux = [a[keep, None] for a in aux]
        if not exact:
            # balls of equal (c2, r2) share one kernel evaluation; numpy
            # sorts the complex key c2 + i r2 by c2, then by r2
            pairs, inv = np.unique(c2 + 1j * r2, return_inverse=True)
            pred = mixture_masses_sq(model, pairs.real, pairs.imag)[inv]
        scores = score(pred[:, None], *aux)[np.arange(keep.size), side, 0]
        # the kept candidates of one center come in candidate order
        top = np.flatnonzero(scores == scores.max())
        j = int(top[np.argmin(index[top])])
        key = (float(scores[j]), -int(index[j]))
        if best is None or key > best_key:
            aux_j = tuple(float(a[j, 0]) for a in aux)
            best = (key[0], cens[j], int(side[j]), float(pred[j]), aux_j)
            best_key, floor = key, max(floor, key[0])

    def at_endpoints(m, c2, r2):
        return masses(m, c2, r2[:, _endpoints(r2.shape[1])])

    bracket = run_rise is not None
    for index, centers, c2, r2, pred, aux in blocks(first, at_endpoints if bracket else masses):
        if bracket:
            floor, row, side, col, first_s, pred = _bracket_runs(
                functools.partial(masses, first), tau, score, run_rise, c2, r2, pred, aux, floor
            )
        else:
            scores = score(pred, *aux)
            floor = max(floor, float(scores.max()) - tau)
            row, side, col = np.unravel_index(np.flatnonzero(scores + tau >= floor), scores.shape)
            first_s, pred = scores[row, side, col], _gather(pred, row, col)
        at = functools.partial(_gather, row=row, col=col)
        kept.append(
            (first_s, index[row], centers[row], side, at(c2), at(r2), pred, *map(at, aux))
        )
        n_kept += row.size
        if n_kept > _PRUNE_MAX_KEPT:
            rescore()
            n_kept = 0
    rescore()
    return best


def _gather(a, row, col):
    """a, an array that broadcasts to a block's (rows, cols), at the balls
    (row, col). An axis of length one is read at 0, which costs less than
    ``np.broadcast_to`` (some 5 us a call, a fifth of an exact mc estimate's
    core)."""
    rows, cols = (1,) * (2 - a.ndim) + a.shape
    return a.reshape(rows, cols)[row if rows > 1 else 0 * row, col if cols > 1 else 0 * col]


def _endpoints(cols: int) -> np.ndarray:
    """The columns of a sorted-rows block that a bracketing first pass
    scores: every _BRACKET_STRIDE-th and the last."""
    ends = np.arange(0, cols, _BRACKET_STRIDE)
    return ends if ends[-1] == cols - 1 else np.append(ends, cols - 1)


def _run_bounds(end_s, ends, rise, slack):
    """(rows, runs) bounds on every exact score of the balls strictly
    between two neighbouring endpoints L < R of a row, from the first-pass
    scores ``end_s`` (rows, 2, ends) at the ``ends`` columns.

    At a fixed center the closed ball's mass (side 0's ``above``) and the
    open ball's (side 1's ``below``) never fall as the radius grows, point
    masses included, and each exact mass is within slack (tau and the
    kernel's rounding) of the first pass's. Side 0 scores e0 - above and
    side 1 below - e1, where the empirical terms e0 and e1 rise by ``rise``
    a column. So at a ball j between L and R side 0 scores at most s0(L)
    plus (j - L) rise, and side 1 at most s1(R) plus (R - j) rise, each
    plus slack; over the run, at most max(s0(L), s1(R)) plus (R - L - 1)
    rise and slack.
    """
    inner = np.diff(ends) - 1
    return np.maximum(end_s[:, 0, :-1], end_s[:, 1, 1:]) + (rise * inner + slack)


def _bracket_runs(first_pass, tau, score, rise, c2, r2, end_pred, aux, floor):
    """(floor, row, side, col, s, pred) for a block of the radial sweep,
    whose rows each hold one center's balls in nondecreasing r^2: r2 is
    (rows, cols), c2 broadcasts to (rows, 1), each aux array is 2-d, and
    ``end_pred`` holds the first-pass masses at the ``_endpoints`` columns.
    The candidates whose first-pass score ``s`` plus tau reaches the raised
    floor come back in candidate order, (row, side, col), each with its
    ball's first-pass mass ``pred``.

    The floor rises to the endpoints' first-pass scores less tau. Each run
    of balls between two endpoints has one bound (``_run_bounds``), and a
    run whose bound is below the floor holds no candidate that can reach
    it. In the other runs each ball has a bound of its own, taken the same
    way at its own column (the run's bound is the largest of them), and
    only the balls whose bound reaches the floor take first-pass masses, by
    ``first_pass(c2, r2)`` in one call. The floor then rises to their scores
    less tau as well.
    """
    cols = r2.shape[1]
    ends = _endpoints(cols)
    slack = tau + _COARSE_SLACK
    end_s = score(end_pred, *(a if a.shape[1] == 1 else a[:, ends] for a in aux))
    floor = max(floor, float(end_s.max()) - tau)
    runs = ends.size - 1
    # every ball of each open run, in (row, col) order: a run holds at most
    # _BRACKET_STRIDE - 1 balls, and only the last may hold fewer
    row, run = np.divmod(np.flatnonzero(_run_bounds(end_s, ends, rise, slack) >= floor), runs or 1)
    col = (ends[run, None] + np.arange(1, _BRACKET_STRIDE)).ravel()
    row, run = np.repeat(row, _BRACKET_STRIDE - 1), np.repeat(run, _BRACKET_STRIDE - 1)
    left, right = ends[run], ends[run + 1]
    from_left = end_s[row, 0, run] + rise * (col - left)
    from_right = end_s[row, 1, run + 1] + rise * (right - col)
    need = (np.maximum(from_left, from_right) + slack >= floor) & (col < right)
    row, col = row[need], col[need]
    if row.size:
        pred = first_pass(_gather(c2, row, col), r2[row, col])
        in_s = score(pred[:, None], *(_gather(a, row, col)[:, None] for a in aux))
        floor = max(floor, float(in_s.max()) - tau)
    e_row, e_side, e_end = np.unravel_index(np.flatnonzero(end_s + tau >= floor), end_s.shape)
    at_ends = (e_row, e_side, ends[e_end], end_s[e_row, e_side, e_end], end_pred[e_row, e_end])
    if row.size:
        ball, side, _ = np.unravel_index(np.flatnonzero(in_s + tau >= floor), in_s.shape)
        if ball.size:
            inner = (row[ball], side, col[ball], in_s[ball, side, 0], pred[ball])
            row, side, col, s, pred = (np.concatenate(pair) for pair in zip(at_ends, inner))
            order = np.argsort((row * end_s.shape[1] + side) * cols + col)
            return floor, row[order], side[order], col[order], s[order], pred[order]
    # the endpoints' candidates alone come in candidate order
    return (floor, *at_ends)


def _abs_gap(pred, emp, radii):
    """The score of a ball of the net or the mc stream: |empirical - predicted|."""
    return np.abs(emp - pred)[:, None, :]


def _net_blocks(model: MixtureModel, net: BallNet, masses=mixture_masses_sq):
    """(index, centers, radii, predicted) blocks of the grid balls, the
    predicted masses ``masses(model, c2, r2)``: by default the kernel's.
    index holds each center's position in net order; each row holds one
    center's balls in net order.

    F-bar(B(c, r)) depends on c only through ||c||^2, and the symmetric
    axis repeats squared norms: each comes about twice at d = 1, 8 times at
    d = 2 and 48 times at d = 3. So the centers come grouped by squared norm
    (a stable sort of net order), in blocks of at most 2^16 balls that end
    where a group begins unless one group fills the block, and each block
    scores its distinct squared norms once against the radii: every ball
    gets the value for the bits of its own ||c||^2, and each norm is scored
    once unless its group alone holds more than a block. Only the centers
    and their order are held for the whole net. The cli benchmark's net
    command (3.6 M balls at d = 1, 2-core machine) peaked at 78-81 MB RSS
    with blocks of 2^18 balls and at 72-75 MB with 2^16, where a table of
    every distinct norm against the radii (14 MB) peaked at 91.6 MB.
    """
    k = len(net.radii)
    # every grid center, in net order: the last coordinate varies fastest
    grid = np.stack(np.meshgrid(*[net.axis] * net.d, indexing="ij"), axis=-1).reshape(-1, net.d)
    c2 = np.einsum("...j,...j->...", grid, grid)
    order = np.argsort(c2, kind="stable")
    c2 = c2[order]
    heads = np.flatnonzero(np.concatenate(([True], c2[1:] != c2[:-1])))
    r2 = net.radii**2
    step = max(1, 2**16 // k)
    start = 0
    while start < len(order):
        stop = start + step
        if stop < len(order):
            head = heads[np.searchsorted(heads, stop, side="right") - 1]
            stop = head if head > start else stop
        uniq, row_of = np.unique(c2[start:stop], return_inverse=True)
        index = order[start:stop]
        pred = masses(model, uniq[:, None], r2)[row_of]
        yield index, grid[index], np.broadcast_to(net.radii, (len(index), k)), pred
        start = stop


def sup_over_net(cloud, model: MixtureModel, net: BallNet) -> DiscrepancyReport:
    """Exact max of |empirical - predicted| over the net balls, the first in
    net order among exact ties. The balls are scored a block of centers
    grouped by squared norm at a time (``_net_blocks``), so the memory held
    is the grid's centers plus one block, whatever the net's size."""
    pts = _as_points(cloud, net.d)
    n = pts.shape[0]
    _check_work(model, net.d, net.n_grid_balls, "the ball net", "use the mc estimator")
    r2 = net.radii**2

    def blocks(m, masses):
        for index, centers, radii, pred in _net_blocks(m, net, masses):
            emp = _count_within(pts, centers, radii * radii) / n
            c2 = np.einsum("...j,...j->...", centers, centers)[:, None]
            yield index, centers, c2, r2, pred, (emp, radii)

    # a net without grid balls still holds the ALL ball
    best = (0.0, Ball.all_space(net.d), 1.0, 1.0)
    if net.n_grid_balls:
        value, center, _, pred, (emp, radius) = _best_score(model, net.n_grid_balls, blocks, _abs_gap)
        best = (value, Ball(center.copy(), radius), emp, pred)
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
    _check_work(model, d, cens.shape[0] * n, "the radial sweep", "use fewer points or centers")
    point_mass = float(model.profile.weights[model.profile.sigmas == 0.0].sum())
    frac = np.arange(n + 1) / n
    hi, lo = frac[None, 1:], frac[None, :-1]

    def blocks(m, masses):
        # a block of centers at a time, one call of masses per block
        live = max(1, int(np.count_nonzero(m.profile.sigmas)))
        step = max(1, _SWEEP_BLOCK_PAIRS // (live * n))
        for s in range(0, len(cens), step):
            block = cens[s : s + step]
            sq = _sq_dists(pts, block)
            sq.sort(axis=1)
            c2 = np.einsum("...j,...j->...", block[:, None, :], block[:, None, :])
            r2 = np.sqrt(sq)
            r2 *= r2
            pred = masses(m, c2, r2)
            yield np.arange(s, s + len(block)), block, c2, r2, pred, (hi, lo, c2, r2, sq)

    def score(pred, hi, lo, c2, r2, sq):
        # sq[i, j] has j points before it and j + 1 within it. For a tied
        # distance both counts are exact at a copy of it (within at its
        # last, before at its first) and fall short at the others, so those
        # score lower and the first maximum lands on a copy of the same
        # distance, in the order of the distinct distances
        above = below = pred
        if point_mass:
            # the kernel puts the point masses at the origin in B(c, r) when
            # |c|^2 <= r*r; the limits at a distance u take the closed ball
            # (|c|^2 <= u^2) from above and the open one (|c|^2 < u^2) from
            # below, on the witnesses' u^2
            cont = pred - point_mass * (c2 <= r2)
            above = cont + point_mass * (c2 <= sq)
            below = cont + point_mass * (c2 < sq)
        # per center, the limits from above each distance, then from below
        return np.stack([hi - above, below - lo], axis=1)

    _, center, from_below, _, aux = _best_score(
        model, cens.shape[0] * n, blocks, score, run_rise=1.0 / n
    )
    sq = aux[-1]
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
) -> DiscrepancyReport:
    """Max discrepancy over random balls: centers uniform in the box
    [-center_box, center_box]^d, radii uniform in (0, max_radius].

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
    _check_work(model, d, n_balls, "the mc estimator", "use fewer balls")
    u = rng.stream(seed, _TAG_MC, d).random((n_balls, d + 1))
    centers = center_box * (2.0 * u[:, :d] - 1.0)
    radii = max_radius * (1.0 - u[:, d:])

    def blocks(m, masses):
        for s in range(0, n_balls, 512):
            c, r = centers[s : s + 512], radii[s : s + 512]
            emp = _count_within(pts, c, r * r) / n
            c2 = np.einsum("...j,...j->...", c[:, None, :], c[:, None, :])
            r2 = r**2
            yield np.arange(s, s + len(c)), c, c2, r2, masses(m, c2, r2), (emp, r)

    value, center, _, pred, (emp, radius) = _best_score(model, n_balls, blocks, _abs_gap)
    return _report(
        "mc",
        (value, Ball(center.copy(), radius), emp, pred),
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
