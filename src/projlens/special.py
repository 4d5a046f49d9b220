"""Numeric kernels: regularized incomplete gamma, normal and chi-square CDFs.

Every routine is a validating wrapper around ``scipy.special``:

- ``reg_lower_gamma`` is ``gammainc``, P(a, x) = gamma(a, x) / Gamma(a);
- ``gamma_ppf`` is ``gammaincinv``, its inverse in x;
- ``norm_cdf`` is ``ndtr``;
- ``chisq_cdf_pairs`` is ``chndtr`` over elementwise (lam, x) pairs at
  d >= 2 and a closed form at d = 1 (below), and ``chisq_cdf`` is the same
  call with one lam broadcast over the points.

At d >= 2 ``chndtr`` returns nan from lam of about 1e11 up where x lies
within some ten standard deviations of the mean (``chndtr(1e12, 2, 1e12)``).
Those pairs, and only those, take the convolution F_d(lam, x) =
integral_0^x f_(d-1)(y) F_1(lam, x - y) dy by ``scipy.integrate.quad``
(``_convolved``), with the d = 1 closed form below for F_1. At lam = 1e10,
where ``chndtr`` still returns a value, a 40-digit mpmath quadrature puts
the convolution within 1.3e-13 of the CDF and ``chndtr`` within 4.4e-12
(d = 2 and 5, x at the mean and 2 and 6 standard deviations above it).

The noncentral chi-square CDF is the Poisson mixture
sum_j Poisson(j; lam/2) P(d/2 + j, x/2). Two regions keep a hand-built
evaluation, because ``chndtr`` loses them there:

- Deep lower tail, where a Chernoff bound puts the CDF below e^-30. On 150
  random such points (d <= 12, CDF above 1e-290), against 40-digit mpmath
  sums, ``chndtr`` returns 0 on 39 and is off by up to 7e-9 relative on the
  rest. ``_lower_tail_sum`` sums the mixture downward from above its peak on
  rescaled values and stays within 2e-13 relative. Its Poisson weights take
  Loader's saddle-point form (``_poisson_pmf``); a plain xlogy/gammaln
  weight reaches 1.2e-12 on the same points.
- Tiny x, where (lam/2)(x/2) < 1e-90. Every term past j = 0 is then below
  1e-90 of the first, so the CDF is e^(-lam/2) P(d/2, x/2) (``chdtr`` at
  lam = 0). ``chndtr`` returns 0 on three such points in the tests (lam >= 208).

At d = 1 a ball is an interval and the CDF is exactly
Phi(s_x - s_l) - Phi(-s_x - s_l) with s_x = sqrt(x), s_l = sqrt(lam). Each
pair takes a route on which nothing cancels (``_one_dof``):

- tiny x: as above;
- x > lam: (erf((s_x - s_l) / sqrt 2) + erf((s_x + s_l) / sqrt 2)) / 2, a sum
  of two positive terms;
- x <= lam, deep lower tail: ``_lower_tail_sum`` as above;
- x <= lam, s_x s_l >= 1/2: ``ndtr(s_x - s_l) - ndtr(-s_x - s_l)``, two lower
  tails in ratio about e^(-2 s_x s_l) <= e^-1, so under one bit is lost;
- x <= lam, s_x s_l < 1/2 (so x < 1/2): ``chndtr``.

s_x - s_l is taken as (x - lam) / (s_x + s_l), which keeps its relative
precision where x is near lam. On 6000 log-uniform pairs (lam from 1e-12 to
3e3, x from 1e-12 to 5e3) against 60-digit mpmath the routes stay within
2.2e-16 absolute (``chndtr`` on every pair: 1e-15) and 9.1e-14 relative, the
deep-tail sum's worst, as before. The normal-tail difference on every pair
reaches 3.1e-9 relative there, in the deep tail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

GAMMA_TOL = 1e-16
GAMMA_MAX_TERMS = 10 ** 6
# relative size below which the lower-tail sum drops the terms it has not
# visited; both are far under one unit in the last place (e^-42 ~ 6e-19)
_LOWER_TAIL_LOG = 42.0
_TAIL_REL = 1e-17
# the smallest positive double, and its log
_SUBNORMAL = 5e-324
_LOG_SUBNORMAL = math.log(_SUBNORMAL)
# where a Chernoff bound puts the CDF below e^-30, _lower_tail_sum sums it
_DEEP_TAIL_LOG = -30.0
# below this (lam/2)(x/2) the j = 0 term is the whole Poisson mixture
_TINY_HX = 1e-90
_SQRT_HALF = math.sqrt(0.5)
# the chi tail past sqrt(k) + 12 weighs under e^-72; the absolute tolerance
# of the convolution route (see ``_convolved``)
_CHI_TAIL = 12.0
_QUAD_ABS = 1e-11
_DBL_MAX = np.finfo(float).max

# stirlerr(n) = lgamma(n + 1) - (n + 1/2) log n + n - log(2 pi) / 2 at
# n = 0, 1/2, ..., 15 (the n = 0 slot is never read); the difference form
# loses digits there, so the values are tabulated to double precision
_STIRLERR_HALVES = np.array([
    0.0, 0.15342640972002736, 0.08106146679532726,
    0.05481412105191765, 0.0413406959554093, 0.03316287351993629,
    0.02767792568499834, 0.023746163656297496, 0.020790672103765093,
    0.018488450532673187, 0.016644691189821193, 0.015134973221917378,
    0.013876128823070748, 0.012810465242920227, 0.01189670994589177,
    0.011104559758206917, 0.010411265261972096, 0.009799416126158804,
    0.009255462182712733, 0.008768700134139386, 0.00833056343336287,
    0.00793411456431402, 0.007573675487951841, 0.007244554301320383,
    0.00694284010720953, 0.006665247032707682, 0.006408994188004207,
    0.006171712263039458, 0.0059513701127588475, 0.0057462165130101155,
    0.005554733551962801,
])


def _stirlerr(n) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the Stirling-series remainder, n > 0."""
    n = np.asarray(n, dtype=float)
    if n.ndim == 0:
        return np.asarray(_stirlerr_scalar(float(n)))
    with np.errstate(divide="ignore", invalid="ignore"):
        nn = n * n
        out = (
            1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn
        ) / n
    small = n <= 15.0
    if np.any(small):
        out[small] = [_stirlerr_scalar(float(v)) for v in n[small]]
    return out


def _stirlerr_scalar(n: float) -> float:
    if n > 15.0:
        nn = n * n
        return (
            1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn
        ) / n
    if (2.0 * n).is_integer():
        return float(_STIRLERR_HALVES[int(2.0 * n)])
    return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)


def _bd0(k, mu) -> np.ndarray:
    """k log(k / mu) + mu - k, with a series where k is near mu (no cancellation)."""
    k, mu = np.broadcast_arrays(
        np.atleast_1d(np.asarray(k, dtype=float)), np.atleast_1d(np.asarray(mu, dtype=float))
    )
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log(k / mu) carries one rounding where log k - log mu carries two
        # of size log k; the difference form only where the ratio overflows
        # or underflows
        out = k * np.log(k / mu) + mu - k
        wide = ~np.isfinite(out)
        if np.any(wide):
            kw, mw = k[wide], mu[wide]
            out[wide] = kw * (np.log(kw) - np.log(mw)) + mw - kw
    near = np.abs(k - mu) < 0.1 * (k + mu)
    if np.any(near):
        kn, mn = k[near], mu[near]
        v = (kn - mn) / (kn + mn)
        v2 = v * v
        s = (kn - mn) * v
        ej = 2.0 * kn * v
        # term i is below |v|^(2i-1) of the sum and |v| < 0.1, so at most 9
        # terms bring the first one left out under 1e-17
        v2_max = max(float(np.max(v2)), 1e-300)
        n_terms = 1 + int(-17.0 / math.log10(v2_max))
        for i in range(1, n_terms + 1):
            ej = ej * v2
            s = s + ej / (2 * i + 1)
        out[near] = s
    return out


def _poisson_pmf(k, mu) -> np.ndarray:
    """mu^k e^(-mu) / Gamma(k + 1) for real k >= 0 and mu >= 0.

    Loader's saddle-point form exp(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k)
    keeps full relative precision where the naive exp(k log mu - mu -
    lgamma(k + 1)) cancels terms of size k log k.
    """
    k = np.asarray(k, dtype=float)
    mu = np.asarray(mu, dtype=float)
    shape = np.broadcast_shapes(k.shape, mu.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_front = -_stirlerr(k).reshape(k.shape) - 0.5 * np.log(2.0 * math.pi * k)
        out = np.exp(log_front - _bd0(k, mu).reshape(shape))
    zero = k == 0.0
    if np.any(zero):
        out = np.where(zero, np.exp(-mu), out)
    return out


def reg_lower_gamma(a: float, x):
    """Regularized lower incomplete gamma function P(a, x).

    Args:
      a: shape parameter, finite and > 0 (scalar).
      x: evaluation point(s), >= 0.

    Returns:
      P(a, x) with the shape of ``x``; scalar in, scalar out.
    """
    if not (np.isfinite(a) and a > 0):
        raise ValueError(f"shape parameter must be finite and positive, got {a}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("incomplete gamma argument must be finite and >= 0")
    out = sps.gammainc(a, arr)
    return float(out) if arr.ndim == 0 else out


def gamma_ppf(a: float, u):
    """Inverse of P(a, .); u in [0, 1) (0 maps to 0)."""
    arr = np.asarray(u, dtype=float)
    if np.any((arr < 0) | (arr >= 1)):
        raise ValueError("gamma_ppf expects probabilities in [0, 1)")
    out = sps.gammaincinv(a, arr)
    return float(out) if arr.ndim == 0 else out


def _check_chisq_params(d: int, lam: float) -> None:
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"degrees of freedom must be a positive integer, got {d}")
    if not (np.isscalar(lam) and np.isfinite(lam) and lam >= 0):
        raise ValueError(f"noncentrality must be finite and >= 0, got {lam}")


def chisq_cdf(d: int, lam: float, x):
    """CDF of the (noncentral) chi-square distribution with d dof.

    Args:
      d: degrees of freedom, positive integer.
      lam: noncentrality parameter (squared length of the mean), >= 0.
      x: evaluation point(s); the CDF is 0 for x <= 0.

    Returns:
      P(chi2_d(lam) <= x), matching the shape of ``x``.

    ``chisq_cdf_pairs`` with ``lam`` broadcast over the points.
    """
    _check_chisq_params(d, lam)
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = chisq_cdf_pairs(d, np.broadcast_to(float(lam), arr.shape), arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def chisq_cdf_pairs(d: int, lam, x) -> np.ndarray:
    """Elementwise noncentral chi-square CDF over (lam_i, x_i) pairs.

    Same quantity as ``chisq_cdf`` with an array noncentrality, used by the
    mixture-mass kernel where every (atom, ball) pair has its own. At d = 1
    the closed form of ``_one_dof``; at d >= 2 ``chndtr`` except in the
    tiny-x and deep lower-tail regions (see the module notes).
    """
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"degrees of freedom must be a positive integer, got {d}")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if lam_arr.shape != x_arr.shape:
        raise ValueError("lam and x must have matching shapes")
    if np.any(lam_arr < 0) or not np.all(np.isfinite(lam_arr)):
        raise ValueError("noncentrality must be finite and >= 0")
    out = np.zeros_like(x_arr)
    pos = x_arr > 0
    if not np.any(pos):
        return out
    lam_p, x_p = lam_arr[pos], x_arr[pos]
    if d == 1:
        vals = _one_dof(lam_p, x_p)
    else:
        vals = _screened(d, lam_p, x_p, lambda x_b, lam_b: _many_dof_bulk(d, x_b, lam_b))
    out[pos] = np.clip(vals, 0.0, 1.0)
    return out


def _screened(d: int, lam: np.ndarray, x: np.ndarray, bulk) -> np.ndarray:
    """The CDF at x > 0: tiny-x and deep lower-tail pairs by their own sums,
    the rest by ``bulk(x, lam)``."""
    b, half, xh = d / 2.0, lam / 2.0, x / 2.0
    tiny = _is_tiny(half, xh)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_bound = np.where(xh < b + half, _log_chernoff(b, half, xh), 0.0)
    deep = (log_bound < _DEEP_TAIL_LOG) & ~tiny
    in_bulk = ~(tiny | deep)
    vals = np.zeros_like(x)
    vals[in_bulk] = bulk(x[in_bulk], lam[in_bulk])
    if tiny.any():
        vals[tiny] = np.exp(-half[tiny]) * sps.gammainc(b, xh[tiny])
    # below the smallest subnormal the CDF rounds to 0 and needs no sum
    deep &= log_bound > _LOG_SUBNORMAL
    if deep.any():
        vals[deep] = _lower_tail_sum(b, half[deep], xh[deep])
    return vals


def _is_tiny(half: np.ndarray, xh: np.ndarray) -> np.ndarray:
    """half * xh < _TINY_HX, tested as xh <= _TINY_HX / half, which forms
    neither 0 * inf nor an overflowing product. half is floored at the
    smallest subnormal to keep the quotient finite, so half = 0 (lam = 0, or
    a subnormal lam whose half underflows) is tiny up to xh = 2e233, past
    which every route gives 1. Where the quotient underflows to 0, only
    xh = 0 is tiny, as with the product."""
    return xh <= _TINY_HX / np.maximum(half, _SUBNORMAL)


def _one_dof(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The d = 1 CDF at x > 0 by its closed-form routes (see the module notes)."""
    # x = inf would give inf / inf; at the largest double the CDF is 1 already
    x_c = np.minimum(x, _DBL_MAX)
    s = np.sqrt(x_c) + np.sqrt(lam)
    vals = 0.5 * (sps.erf((x_c - lam) / s * _SQRT_HALF) + sps.erf(s * _SQRT_HALF))
    # the erf sum is the route for x > lam; at or below it cancels, and
    # tiny-x pairs keep their own route
    rest = (x <= lam) | _is_tiny(lam / 2.0, x / 2.0)
    if rest.any():
        vals[rest] = _screened(1, lam[rest], x[rest], _one_dof_bulk)
    return vals


def _one_dof_bulk(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The d = 1 CDF at 0 < x <= lam outside the tiny-x and deep-tail regions."""
    s_x, s_l = np.sqrt(x), np.sqrt(lam)
    s = s_x + s_l
    out = sps.ndtr((x - lam) / s) - sps.ndtr(-s)
    # where s_x s_l < 1/2 the two tails are too close to subtract
    far = s_x * s_l < 0.5
    if far.any():
        out[far] = sps.chndtr(x[far], 1, lam[far])
    return out


def _many_dof_bulk(d: int, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The CDF at d >= 2 outside the tiny-x and deep-tail regions: ``chndtr``,
    and ``_convolved`` on the pairs where it returns nan."""
    out = sps.chndtr(x, d, lam)
    for i in np.flatnonzero(np.isnan(out)):
        out[i] = _convolved(d, float(lam[i]), float(x[i]))
    return out


def _convolved(d: int, lam: float, x: float) -> float:
    """F_d(lam, x) = integral_0^x f_(d-1)(y) F_1(lam, x - y) dy, since
    chi2_d(lam) is chi2_1(lam) plus an independent central chi2_(d-1).

    In s = sqrt(y) the weight f_(d-1)(y) dy is the chi density with d - 1
    dof, which has no singularity at 0. It holds under e^-72 of its mass past
    sqrt(d - 1) + 12, where the integral stops. quad is asked for
    _QUAD_ABS absolute: x itself is known to half an ulp, which moves the CDF
    by about that much at lam = 1e11 and by more above.
    """
    # imported here: it would add about 0.2 s to every CLI command's start-up
    from scipy.integrate import quad

    k = d - 1
    log_norm = (1.0 - k / 2.0) * math.log(2.0) - math.lgamma(k / 2.0)
    lam_a = np.array([lam])

    def integrand(s: float) -> float:
        cdf_1 = _one_dof(lam_a, np.array([max(x - s * s, 0.0)]))[0]
        return math.exp(log_norm + sps.xlogy(k - 1, s) - s * s / 2.0) * cdf_1

    top = min(math.sqrt(x), math.sqrt(k) + _CHI_TAIL)
    return quad(integrand, 0.0, top, epsabs=_QUAD_ABS, epsrel=0.0)[0]


def norm_cdf(z):
    """Standard normal CDF Phi(z); scalar in, scalar out."""
    arr = np.asarray(z, dtype=float)
    out = sps.ndtr(arr)
    return float(out) if arr.ndim == 0 else out


def _log_chernoff(b: float, half, xh: np.ndarray) -> np.ndarray:
    """Chernoff bound on log P(X <= 2 xh), X noncentral chi-square, below its mean.

    With E e^(-tX) = y^-b e^(-half (y - 1) / y) at y = 1 + 2t, the bound
    2 xh t + log E e^(-tX) is least at the root y >= 1 of
    2 xh y^2 - 2b y - 2 half = 0.
    """
    y = (b + np.sqrt(b * b + 4.0 * xh * half)) / (2.0 * xh)
    return (y - 1.0) * xh - b * np.log(y) - half * (y - 1.0) / y


def _lower_tail_sum(b: float, half: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j w_j P(b + j, x) to full relative precision, for the deep lower tail.

    Needs x below the mean b + half and half x >= 1e-90. With Poisson weights
    w_j = Poisson(j; half), t_j = Poisson(b + j; x) and u_j = w_j t_j, the
    terms s_j = w_j P(b + j, x) obey

        s_(j-1) = (j / half) s_j + u_(j-1),

    a recurrence of positive terms that is stable walking downward. The ratio
    rho_j = u_(j+1) / u_j = half x / ((j+1)(b+j+1)) falls through 1 at the
    peak J of u, which is at or above the peak of s. The walk starts at the
    first index above J where the terms not visited above it are below e^-42
    of u_J, seeds s there from the series of P(b + top, x), runs on
    rescaled values (u_top = 1) and is renormalized by a direct u_J, so
    nothing under- or overflows however small the CDF. Below the peak of s
    the ratio s_(j-1) / s_j = q only shrinks, so the walk stops once the
    geometric bound s_j q / (1 - q) on the unvisited terms is below 1e-17 of
    the sum.
    """
    hx = half * x
    peak = np.floor(0.5 * (np.sqrt(b * b + 4.0 * hx) - b))
    # climb until the terms above top, at most u_top rho / (1 - rho) with
    # rho = rho_top, are below e^-42 of u_J; log_u tracks log(u_top / u_J)
    top = peak.copy()
    log_u = np.zeros_like(x)
    while True:
        rho = hx / ((top + 1.0) * (b + top + 1.0))
        climbing = log_u + np.log(rho / (1.0 - rho)) > -_LOWER_TAIL_LOG
        if not np.any(climbing):
            break
        log_u = np.where(climbing, log_u + np.log(rho), log_u)
        top = np.where(climbing, top + 1.0, top)
    # P(a, x) / Poisson(a; x) = sum_n x^n / ((a+1)...(a+n)); x <= b + half
    # puts x - b below the root m of m^2 + b m = half x, so x < b + peak + 1,
    # at most a + 1, and every ratio x / (a + n) is below 1
    a_top = b + top
    term = np.ones_like(x)
    s = np.ones_like(x)
    for n in range(1, GAMMA_MAX_TERMS):
        term = term * x / (a_top + n)
        s += term
        r = x / (a_top + n + 1.0)
        if np.all(term * np.maximum(1.0, r / (1.0 - r)) <= GAMMA_TOL * s):
            break
    # walk down on the u_top = 1 scale, checking the stop rule every few
    # steps; a walker that runs past j = 0 only adds zeros (u_(-1) = 0)
    acc = s.copy()
    u = np.ones_like(x)
    # walkers that start at their peak (top == peak) keep u_peak = u_top = 1
    u_peak = np.ones_like(x)
    out = np.empty_like(x)
    live = np.arange(x.size)
    j, hx_l, half_l, peak_l = top, hx, half, peak
    while live.size:
        for _ in range(8):
            u = u * (j * (b + j) / hx_l)
            prev, s = s, (j / half_l) * s + u
            acc = acc + s
            j = j - 1.0
            at_peak = j == peak_l
            if np.any(at_peak):
                u_peak[live[at_peak]] = u[at_peak]
        with np.errstate(invalid="ignore", divide="ignore"):
            q = s / prev
            done = (j <= 0.0) | (
                (j < peak_l) & (s * q < _TAIL_REL * (1.0 - q) * acc)
            )
        if np.any(done):
            out[live[done]] = acc[done]
            keep = ~done
            live, j, u, s, acc, hx_l, half_l, peak_l = (
                v[keep] for v in (live, j, u, s, acc, hx_l, half_l, peak_l)
            )
    u_j = _poisson_pmf(peak, half) * _poisson_pmf(b + peak, x)
    return np.clip(u_j * (out / u_peak), 0.0, 1.0)
