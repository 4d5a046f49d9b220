"""Balls, scale mixtures of spherical Gaussians, and their exact masses.

The predicted law for a projected cloud is F-bar = sum_i w_i nu_{sigma_i}
with nu_sigma = N(0, sigma^2 I_d). The mass a component assigns to a ball
B(c, r) is a noncentral chi-square CDF,

    nu_sigma(B) = P(chi2_d(||c||^2 / sigma^2) <= r^2 / sigma^2),

so every mixture mass is exact up to the tolerance of ``special.chisq_cdf_pairs``.
At d = 1 a ball is an interval and that CDF is the normal-CDF difference
Phi((r - |c|) / sigma) - Phi((-r - |c|) / sigma), which the kernel evaluates
in closed form on routes where nothing cancels. Each mass depends only on
its own ||c||^2 and r^2, not on the other balls of its call.

Two cheaper evaluators let the estimators rule balls out before the kernel
scores the rest (``discrepancy._best_score``); neither gives a reported mass.
The radial sweep calls them only at every few radii of a center and at its
last, and brackets the balls between by those masses, since a ball's mass,
the point masses' included, never falls as its radius grows; the balls left
then take the cheaper evaluator, and those still left the kernel:

- ``coarse_model`` merges the atoms of a profile into few, one per narrow
  band of log sigma, and bounds the change of every ball mass by the total
  variation between each atom's Gaussian and its band's;
- ``interval_masses`` is the d = 1 mass in closed form: the kernel's own
  normal-tail difference (``special.normal_tail_difference``), two ``ndtr``
  calls per (atom, ball) pair on the kernel's own (lam, x), summed by the
  kernel's own atom loop, within some 1e-15 of the kernel and so well inside
  _COARSE_SLACK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import Profile
from .special import chisq_cdf, chisq_cdf_pairs  # noqa: F401  (re-exported)
from .special import normal_tail_difference

# (ball, live atom) pairs per CDF call of ``_atom_sum``; 2^20 one-atom pairs at
# d = 1 took 0.154 s in chunks of 2^14, 0.179 s in chunks of 2^17 (2 cores)
_CHUNK_PAIRS = 2**14
# width of the log-sigma bins of ``coarse_model``, times sqrt(d); the
# distance between a Gaussian and its bin's grows with sqrt(d) times the
# log-scale gap, so every bin moves a mass by about the same amount (tau is
# about 0.13 times the width). Wider bins mean fewer coarse atoms but more
# balls to rescore: on a 2-core machine run_twocluster() took 1.2 s at 0.05,
# 1.6 s at 0.08 and 2.6 s at 0.12, and the radial-manyatom sweep 9.5 ms at
# 0.035, 6.2 ms at 0.05 and 4.3 ms at 0.08
_COARSE_LOG_WIDTH = 0.05
# added to the coarse bound and to the closed form's at d = 1; far above the
# kernel's worst error (4.4e-12) and the closed form's (about 1e-15)
_COARSE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Ball:
    """Closed Euclidean ball; radius +inf means ALL, -inf means EMPTY.

    EMPTY arises from deflating a ball below radius zero (``resize_ball``);
    a finite negative radius is refused.
    """

    center: np.ndarray
    radius: float

    def __eq__(self, other):
        if not isinstance(other, Ball):
            return NotImplemented
        return self.radius == other.radius and np.array_equal(self.center, other.center)

    def __hash__(self):
        # -0.0 == 0.0, so the bytes are hashed with signed zeros folded
        return hash(((self.center + 0.0).tobytes(), self.radius))

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
        return cls(np.zeros(d), -math.inf)

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
    return Ball(ball.center, r if r >= 0 else -math.inf)


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
    """F-bar over many balls at once: ``mixture_masses_sq`` of the squared
    norms of ``centers`` (taken over the last axis) and the squared ``radii``.

    The two broadcast: (m, d) against (m,), one center (1, d) against many
    radii, or (m, 1, d) against (m, k).
    """
    return mixture_masses_sq(
        model,
        np.einsum("...j,...j->...", centers, centers),
        np.asarray(radii, dtype=float) ** 2,
    )


def mixture_masses_sq(model: MixtureModel, c2, r2) -> np.ndarray:
    """F-bar(B(c, r)) from ||c||^2 and r^2, broadcast against each other; the
    one mixture-mass kernel (``_atom_sum`` of ``chisq_cdf_pairs``)."""
    c2, r2 = np.broadcast_arrays(np.asarray(c2, dtype=float), np.asarray(r2, dtype=float))
    return _atom_sum(model, c2, r2, functools.partial(chisq_cdf_pairs, model.d))


def interval_masses(model: MixtureModel, c2, r2) -> np.ndarray:
    """F-bar(B(c, r)) at d = 1 in closed form, from ||c||^2 and r^2 broadcast
    as in ``mixture_masses_sq`` and within 1e-12 of it. A bracket for ruling
    balls out (``discrepancy._best_score``); no reported mass comes from it.

    A ball is the interval [|c| - r, |c| + r]. With lam = ||c||^2 / sigma^2
    and x = r^2 / sigma^2, the bits the kernel forms, an atom's mass is
    ``special.normal_tail_difference(lam, x)``, the kernel's own route at
    0 < x <= lam with sqrt(x lam) >= 1/2, deep lower tail included (bit for
    bit there): two ndtr calls per (live atom, ball) pair, plus the point
    masses where c^2 <= r^2.

    Bound: both ndtr arguments carry a relative error of at most 4 units of
    roundoff (u = 2^-53), which moves ndtr by at most max |t phi(t)| 4u =
    1.1e-16 each; with ndtr's own error a pair's value is within 1e-15 of
    the normal-CDF difference at (lam, x), and the kernel's within 2.2e-16
    (``special``). Against 60-digit mpmath, on the 6000 log-uniform pairs of
    ``special`` and 6000 more with x within 0.3 % of lam up to 1e6, both
    stayed within 2.2e-16. The weights sum to one, so the two weighted sums
    over m live atoms differ by at most 1.2e-15 plus their rounding, at
    most m u each: under 1e-12 up to some 4000 atoms and under
    _COARSE_SLACK up to 4 million. Balls whose closed form is not finite
    (lam = x = 0, or lam or x infinite) take the kernel, which refuses what
    it refuses.
    """
    if model.d != 1:
        raise ValueError(f"the interval closed form needs d = 1, got d = {model.d}")
    c2, r2 = np.broadcast_arrays(np.asarray(c2, dtype=float), np.asarray(r2, dtype=float))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        total = _atom_sum(model, c2, r2, normal_tail_difference)
    bad = ~np.isfinite(total)
    if bad.any():
        total[bad] = mixture_masses_sq(model, c2[bad], r2[bad])
    return total


def _atom_sum(model: MixtureModel, c2, r2, cdf) -> np.ndarray:
    """sum_i w_i cdf(||c||^2 / sigma_i^2, r^2 / sigma_i^2) over the live atoms,
    plus the point masses where c^2 <= r^2, capped at 1; c2 and r2 are float
    arrays of one shape, which the callers broadcast once. ``cdf`` gets
    (ball, atom) arrays of about _CHUNK_PAIRS pairs, which it may overwrite;
    each ball's row is summed on its own, so its mass has the same bits
    however many balls share its chunk."""
    sigmas = model.profile.sigmas
    weights = model.profile.weights
    zero = sigmas == 0.0
    # an array even for 0-d input, and C-ordered whatever the order of c2
    # and r2 (a column gather is F-ordered), so ``flat`` is a view that the
    # chunks can write through
    total = np.zeros(c2.shape)
    total[c2 <= r2] = weights[zero].sum()
    s2 = sigmas[~zero] ** 2
    live_w = weights[~zero]
    c2, r2, flat = c2.reshape(-1, 1), r2.reshape(-1, 1), total.reshape(-1)
    step = max(1, _CHUNK_PAIRS // max(live_w.size, 1))
    for start in range(0, flat.size, step):
        vals = cdf(c2[start : start + step] / s2, r2[start : start + step] / s2)
        flat[start : start + step] += (vals * live_w).sum(axis=1)
    return np.minimum(total, 1.0, out=total)


def _tv_distance(d: int, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Total variation between N(0, s1^2 I_d) and N(0, s2^2 I_d), elementwise,
    for 0 < s1 <= s2. The densities cross on the sphere of squared radius
    r*^2 = d s1^2 rho ln(rho) / (rho - 1), rho = s2^2 / s1^2, inside which
    the narrower one is larger, so the distance is its excess mass there:
    F(r*^2 / s1^2) - F(r*^2 / s2^2) with F the central chi-square CDF."""
    rho = (s2 / s1) ** 2
    tv = np.zeros_like(rho)
    # rho = 1 (an atom at its bin's centre) has no crossing and distance 0
    wide = rho > 1.0
    rho = rho[wide]
    x2 = d * np.log(rho) / (rho - 1.0)
    zero = np.zeros_like(rho)
    tv[wide] = chisq_cdf_pairs(d, zero, x2 * rho) - chisq_cdf_pairs(d, zero, x2)
    return tv


def coarse_model(model: MixtureModel) -> tuple[MixtureModel, float]:
    """A model of few atoms and a bound tau with |F-bar(B) - F-bar_coarse(B)|
    <= tau for every ball B, as computed by the kernel.

    The live atoms fall into log-sigma bins of width _COARSE_LOG_WIDTH /
    sqrt(d), counted from the smallest sigma; each bin becomes one atom at
    its geometric centre, sqrt(smallest * largest sigma), with the bin's
    weight. Point masses (sigma = 0) are kept as they are. A ball's mass
    under an atom moves by at most the total variation between the atom's
    Gaussian and its bin's, so tau is the weighted sum of those distances
    plus _COARSE_SLACK, which covers the kernel's error on both models.
    """
    sigmas, weights = model.profile.sigmas, model.profile.weights
    live = sigmas > 0.0
    s, w = sigmas[live], weights[live]
    if s.size == 0:
        return model, _COARSE_SLACK
    log_s = np.log(s)
    bins = np.floor((log_s - log_s[0]) * (math.sqrt(model.d) / _COARSE_LOG_WIDTH))
    first = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
    last = np.append(first[1:], s.size) - 1
    centre = np.sqrt(s[first]) * np.sqrt(s[last])
    of_atom = np.repeat(centre, last - first + 1)
    tv = _tv_distance(model.d, np.minimum(s, of_atom), np.maximum(s, of_atom))
    tau = float(w @ tv) + _COARSE_SLACK
    prof = Profile(
        np.concatenate([sigmas[~live], centre]),
        np.concatenate([weights[~live], np.add.reduceat(w, first)]),
    )
    return MixtureModel(prof, model.d), tau


def mixture_second_moment(model: MixtureModel) -> float:
    """E ||Z||^2 under the mixture: d * sum_i w_i sigma_i^2."""
    return model.d * model.profile.second_moment()
