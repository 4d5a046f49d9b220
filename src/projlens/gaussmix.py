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
from dataclasses import dataclass

import numpy as np

from .datasets import Profile
from .special import chisq_cdf, chisq_cdf_pairs  # noqa: F401  (re-exported)


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


def mixture_masses_pairs(model: MixtureModel, centers: np.ndarray, radii) -> np.ndarray:
    """F-bar over many balls at once, the one mixture-mass kernel.

    F-bar(B(c, r)) depends only on (||c||^2, r^2), so the squared norms of
    ``centers`` (taken over the last axis) broadcast against ``radii``: (m, d)
    against (m,), one center (1, d) against many radii, or (m, 1, d) against
    (m, k). The (atom, ball) pairs go through one flattened CDF call per
    block of balls; blocks of about 2^20 pairs bound the scratch memory
    however many balls come in.
    """
    c2, r2 = np.broadcast_arrays(
        np.einsum("...j,...j->...", centers, centers),
        np.asarray(radii, dtype=float) ** 2,
    )
    sigmas = model.profile.sigmas
    weights = model.profile.weights
    zero = sigmas == 0.0
    total = weights[zero].sum() * (c2 <= r2)
    s2 = sigmas[~zero, None] ** 2
    live_w = weights[~zero]
    c2, r2, flat = c2.ravel(), r2.ravel(), total.reshape(-1)
    step = max(1, 2**20 // max(live_w.size, 1))
    for start in range(0, flat.size, step):
        lam = c2[start : start + step] / s2
        vals = chisq_cdf_pairs(model.d, lam.ravel(), (r2[start : start + step] / s2).ravel())
        flat[start : start + step] += live_w @ vals.reshape(lam.shape)
    return np.minimum(total, 1.0)


def mixture_second_moment(model: MixtureModel) -> float:
    """E ||Z||^2 under the mixture: d * sum_i w_i sigma_i^2."""
    return model.d * model.profile.second_moment()
