"""Balls, scale mixtures of spherical Gaussians, and their exact masses.

The predicted law for a projected cloud is F-bar = sum_i w_i nu_{sigma_i}
with nu_sigma = N(0, sigma^2 I_d). The mass a component assigns to a ball
B(c, r) is a noncentral chi-square CDF,

    nu_sigma(B) = P(chi2_d(||c||^2 / sigma^2) <= r^2 / sigma^2),

so every mixture mass is exact up to the tolerance of ``special.chisq_cdf_pairs``.
At d = 1 a ball is an interval and that CDF is the normal-CDF difference
Phi((r - |c|) / sigma) - Phi((-r - |c|) / sigma), which the kernel evaluates
in closed form on routes where nothing cancels.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .datasets import Profile
from .special import chisq_cdf, chisq_cdf_pairs  # noqa: F401  (re-exported)

# (live atom, ball) pairs per CDF call of the kernel; with one atom the
# scratch of some 100 B a pair stays near 13 MB a chunk
_CHUNK_PAIRS = 2**17
# chunks one kernel call runs at once, whatever its thread count or the
# machine's CPU count, so the scratch in flight stays near 25 MB
_MAX_IN_FLIGHT = 2


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball; radius +inf means ALL, -inf means EMPTY.

    EMPTY only arises from deflating a ball below radius zero; construct it
    through ``Ball.empty`` or ``resize_ball``, never with a bare negative
    radius.
    """

    center: np.ndarray
    radius: float

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        return self.radius == other.radius and np.array_equal(self.center, other.center)

    def __hash__(self):
        return hash((self.center.tobytes(), self.radius))

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.center, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("ball center must be a 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("ball center must be finite")
        r = float(self.radius)
        if math.isnan(r) or (r < 0 and math.isfinite(r)):
            raise ValueError(f"radius must be >= 0, ALL (+inf) or EMPTY (-inf), got {r}")
        arr.flags.writeable = False
        object.__setattr__(self, "center", arr)
        object.__setattr__(self, "radius", r)

    @classmethod
    def all_space(cls, d: int) -> "Ball":
        return cls(np.zeros(d), math.inf)

    @classmethod
    def empty(cls, d: int) -> "Ball":
        b = cls.__new__(cls)
        center = np.zeros(d)
        center.flags.writeable = False
        object.__setattr__(b, "center", center)
        object.__setattr__(b, "radius", -math.inf)
        return b

    @property
    def is_all(self) -> bool:
        return self.radius == math.inf

    @property
    def is_empty(self) -> bool:
        return self.radius == -math.inf

    @property
    def d(self) -> int:
        return self.center.size


def resize_ball(ball: Ball, delta: float) -> Ball:
    """Inflate (delta > 0) or deflate the radius; below zero collapses to EMPTY.

    Composes additively while radii stay finite and nonnegative:
    resize(resize(B, a), b) = resize(B, a + b).
    """
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")
    if ball.is_empty or ball.is_all:
        return ball
    r = ball.radius + delta
    if r < 0:
        b = Ball.empty(ball.d)
        object.__setattr__(b, "center", ball.center)
        return b
    return Ball(ball.center, r)


@dataclass(frozen=True)
class MixtureModel:
    """Scale mixture of spherical Gaussians in R^d driven by a profile."""

    profile: Profile
    d: int

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        object.__setattr__(self, "d", int(self.d))


def nu_ball_mass(sigma: float, ball: Ball) -> float:
    """Mass of N(0, sigma^2 I) on a ball, via the noncentral chi-square CDF."""
    if not (sigma > 0 and np.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    if ball.is_empty:
        return 0.0
    if ball.is_all:
        return 1.0
    lam = float(ball.center @ ball.center) / (sigma * sigma)
    return float(chisq_cdf(ball.d, lam, (ball.radius / sigma) ** 2))


def mixture_ball_mass(model: MixtureModel, ball: Ball) -> float:
    """F-bar(B) = sum_i w_i nu_{sigma_i}(B); sigma = 0 atoms are point masses."""
    if ball.is_empty:
        return 0.0
    if ball.is_all:
        return 1.0
    if ball.d != model.d:
        raise ValueError(f"ball lives in R^{ball.d}, model in R^{model.d}")
    return float(mixture_masses_pairs(model, ball.center[None, :], [ball.radius])[0])


def mixture_masses_pairs(
    model: MixtureModel, centers: np.ndarray, radii, threads: int = 1
) -> np.ndarray:
    """F-bar over many balls at once: ``mixture_masses_sq`` of the squared
    norms of ``centers`` (taken over the last axis) and the squared ``radii``.

    The two broadcast: (m, d) against (m,), one center (1, d) against many
    radii, or (m, 1, d) against (m, k).
    """
    return mixture_masses_sq(
        model,
        np.einsum("...j,...j->...", centers, centers),
        np.asarray(radii, dtype=float) ** 2,
        threads,
    )


def mixture_masses_sq(model: MixtureModel, c2, r2, threads: int = 1) -> np.ndarray:
    """F-bar(B(c, r)) from ||c||^2 and r^2, broadcast against each other; the
    one mixture-mass kernel.

    The (live atom, ball) pairs go through the CDF in chunks of about 2^17
    pairs, one flattened call per chunk. The chunks are fixed by the input
    alone, so the values are the same for every ``threads``. A call of two
    or more chunks runs them on up to ``threads`` worker threads (0: one per
    CPU), which overlap because the CDF routines release the GIL; a call of
    one chunk runs in the caller's thread. At most two chunks run at once,
    so the scratch stays near 2^18 pairs however many balls, threads or
    CPUs there are.
    """
    c2, r2 = np.broadcast_arrays(np.asarray(c2, dtype=float), np.asarray(r2, dtype=float))
    sigmas = model.profile.sigmas
    weights = model.profile.weights
    zero = sigmas == 0.0
    # an array even for 0-d input, so the chunks can write through ``flat``
    total = np.where(c2 <= r2, weights[zero].sum(), 0.0)
    s2 = sigmas[~zero] ** 2
    live_w = weights[~zero]
    c2, r2, flat = c2.reshape(-1, 1), r2.reshape(-1, 1), total.reshape(-1)
    step = max(1, _CHUNK_PAIRS // max(live_w.size, 1))

    def chunk(start: int) -> None:
        # (ball, atom) rows, each summed on its own: a ball's mass then does
        # not depend on how many balls share its chunk
        lam = c2[start : start + step] / s2
        vals = chisq_cdf_pairs(model.d, lam.ravel(), (r2[start : start + step] / s2).ravel())
        flat[start : start + step] += (vals.reshape(lam.shape) * live_w).sum(axis=1)

    starts = range(0, flat.size, step)
    workers = min(threads if threads > 0 else os.cpu_count() or 1, _MAX_IN_FLIGHT, len(starts))
    if workers <= 1:
        for start in starts:
            chunk(start)
    else:
        # chunks write disjoint slices; reading every result re-raises errors
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(chunk, starts):
                pass
    return np.minimum(total, 1.0, out=total)


def mixture_second_moment(model: MixtureModel) -> float:
    """E ||Z||^2 under the mixture: d * sum_i w_i sigma_i^2."""
    return model.d * model.profile.second_moment()
