"""Numeric kernels: regularized incomplete gamma, normal and chi-square CDFs.

Every routine is a validating wrapper around ``scipy.special``:

- ``reg_lower_gamma`` is ``gammainc``, P(a, x) = gamma(a, x) / Gamma(a);
- ``gamma_ppf`` is ``gammaincinv``, its inverse in x;
- ``norm_cdf`` is ``ndtr``;
- ``chisq_cdf_pairs`` is ``chndtr`` over elementwise (lam, x) pairs, but
  on the routes listed below, and ``chisq_cdf`` is the same call with one
  lam broadcast over the points.

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
  rest. Two sums take these pairs. At d >= 2, where x is well below lam
  (q = sqrt(x / lam) up to about 0.53), ``_bessel_series`` sums the
  generalized Marcum Q series, at most 64 terms of scaled Bessel functions
  from two ``ive`` calls a pair and a downward recurrence; its docstring
  holds its route condition, truncation bound and stability argument. The
  other deep pairs, q near 1 above all, go to ``_lower_tail_sum``, which
  sums the mixture in swapped order, outward from its peak term, on
  rescaled values and in array blocks of terms (a few numpy passes a call,
  but O(sqrt lam) work a pair: 0.55-0.65 s at lam = 1e12); on 150 random
  such points (lam from 3 to 3e3) against 50-digit sums it stays within
  2.1e-13 relative, and within 2.0e-13 on 800 more (d 2-12, lam 30-1e5, see
  ``_bessel_series``). Its Poisson weights take Loader's saddle-point form
  (``_poisson_pmf``); a plain xlogy/gammaln weight reaches 1.2e-12 on the
  first 150 points.
- Tiny x, where (lam/2)(x/2) < 1e-90. Every term past j = 0 is then below
  1e-90 of the first, so the CDF is e^(-lam/2) P(d/2, x/2) (``chdtr`` at
  lam = 0). ``chndtr`` returns 0 on three such points in the tests (lam >= 208).

At d = 1 a ball is an interval and the CDF is exactly
Phi(s_x - s_l) - Phi(-s_x - s_l) with s_x = sqrt(x), s_l = sqrt(lam).

``chisq_cdf_pairs`` sends each pair at x > 0 to the first of these routes
that holds for it, and nothing cancels on any of them:

- tiny x: as above;
- d = 1, x > lam, F < 1/2: (erf((s_x - s_l) / sqrt 2) + erf((s_x + s_l) /
  sqrt 2)) / 2, a sum of two positive terms;
- d = 1, x > lam, F >= 1/2: 1 - (erfc((s_x - s_l) / sqrt 2) + erfc((s_x +
  s_l) / sqrt 2)) / 2; near F = 1 the erf sum could rise with lam by one ulp;
- d = 1, s_x s_l >= 1/2 (x <= lam), at any depth: ``ndtr(s_x - s_l) -
  ndtr(-s_x - s_l)``, two lower tails in ratio about e^(-2 s_x s_l) <= e^-1,
  so under one bit is lost (``normal_tail_difference``, which
  ``gaussmix.interval_masses`` also uses);
- deep lower tail, 0 where the Chernoff bound is below the smallest
  subnormal; above it, at d >= 2, the Bessel series where its route
  condition holds (at most 64 terms, a normal start value), and
  ``_lower_tail_sum`` on the pairs left; at d = 1 only lam x < 1/4 is left,
  where the sum's peak term is j = 0;
- the rest: ``chndtr``, and at d >= 2 ``_convolved`` where it returns nan.
  At d = 1 these pairs have x <= lam and s_x s_l < 1/2, so x < 1/2.

s_x - s_l is taken as (x - lam) / (s_x + s_l), which keeps its relative
precision where x is near lam. On 6000 log-uniform pairs (lam from 1e-12 to
3e3, x from 1e-12 to 5e3) against 60-digit mpmath the routes stay within
2.2e-16 absolute (``chndtr`` on every pair: 1e-15) and 4.5e-13 relative, on
a deep normal-tail pair. That difference on every pair reaches 3.6e-9
relative, where s_x s_l < 1/2 and its two tails cancel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

# relative size below which the lower-tail sum drops the terms it has not
# visited, far under one unit in the last place
_TAIL_REL = 1e-17
# the lower-tail sum's blocks of terms: the first spans _TAIL_REACH
# sqrt(J + 1) terms (J the peak term; for large J a side stops near
# 6 sqrt(J + 1)), none is shorter than _TAIL_MIN_WIDTH terms, and none
# holds more than _TAIL_BLOCK_CELLS (term, pair) cells, some 128 kB for each
# of its arrays
_TAIL_REACH = 5.0
_TAIL_MIN_WIDTH = 8
_TAIL_BLOCK_CELLS = 2**14
# the smallest positive double, and its log
_SUBNORMAL = 5e-324
_LOG_SUBNORMAL = math.log(_SUBNORMAL)
# where a Chernoff bound puts the CDF below e^-30, _lower_tail_sum sums it
_DEEP_TAIL_LOG = -30.0
# the Bessel series sums at most this many terms (see ``_bessel_series``);
# its start values must be normal doubles
_SERIES_TERMS = 64
_TINY_NORMAL = np.finfo(float).tiny
# below this (lam/2)(x/2) the j = 0 term is the whole Poisson mixture
_TINY_HX = 1e-90
_SQRT_HALF = math.sqrt(0.5)
# the chi tail past sqrt(k) + 12 weighs under e^-72; the absolute tolerance
# of the convolution route (see ``_convolved``)
_CHI_TAIL = 12.0
_QUAD_ABS = 1e-11
_DBL_MAX = np.finfo(float).max

# stirlerr(n) = lgamma(n + 1) - (n + 1/2) log n + n - log(2 pi) / 2 at
# n = 0, 1/2, ..., 15 (the n = 0 slot's value is never used); the difference
# form loses digits there, so the values are tabulated to double precision
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


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n), the Stirling-series remainder, at
    an array of integers and half-integers n >= 0 (the deep-tail sum's peak
    and b + peak): read from the table up to 15, the series past it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        nn = n * n
        out = (
            1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn
        ) / n
    small = n <= 15.0
    out[small] = _STIRLERR_HALVES[(2.0 * n[small]).astype(np.intp)]
    return out


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
    # the log form above cancels terms of size k |log(k / mu)|, some 9 times
    # the result at |v| = 0.1 (v = (k - mu) / (k + mu)), which near k = 1e4
    # put the deep-tail sum 1.6e-12 off; the series below loses under 2 bits
    # at |v| < 1/2
    near = np.abs(k - mu) < 0.5 * (k + mu)
    if np.any(near):
        kn, mn = k[near], mu[near]
        v = (kn - mn) / (kn + mn)
        v2 = v * v
        s = (kn - mn) * v
        ej = 2.0 * kn * v
        # term i is below |v|^(2i-1) of the sum and |v| < 1/2, so at most 29
        # terms bring the first one left out under 1e-17
        v2_max = max(float(np.max(v2)), 1e-300)
        n_terms = 1 + int(-17.0 / math.log10(v2_max))
        for i in range(1, n_terms + 1):
            ej = ej * v2
            s = s + ej / (2 * i + 1)
        out[near] = s
    return out


def _poisson_pmf(k, mu) -> np.ndarray:
    """mu^k e^(-mu) / Gamma(k + 1) for an array of integers and half-integers
    k >= 0 and mu >= 0.

    Loader's saddle-point form exp(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k)
    keeps full relative precision where the naive exp(k log mu - mu -
    lgamma(k + 1)) cancels terms of size k log k.
    """
    k = np.asarray(k, dtype=float)
    mu = np.asarray(mu, dtype=float)
    shape = np.broadcast_shapes(k.shape, mu.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_front = -_stirlerr(k) - 0.5 * np.log(2.0 * math.pi * k)
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


def chisq_cdf(d: int, lam: float, x):
    """CDF of the (noncentral) chi-square distribution with d dof.

    Args:
      d: degrees of freedom, positive integer.
      lam: noncentrality parameter (squared length of the mean), >= 0; a
        scalar or a 0-d array.
      x: evaluation point(s), not nan; the CDF is 0 for x <= 0.

    Returns:
      P(chi2_d(lam) <= x), matching the shape of ``x``.

    ``chisq_cdf_pairs`` with ``lam`` broadcast over the points.
    """
    lam_arr = np.asarray(lam, dtype=float)
    if lam_arr.ndim != 0:
        raise ValueError(f"noncentrality must be a scalar, got shape {lam_arr.shape}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = chisq_cdf_pairs(d, np.broadcast_to(lam_arr, arr.shape), arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def chisq_cdf_pairs(d: int, lam, x) -> np.ndarray:
    """Elementwise noncentral chi-square CDF over (lam_i, x_i) pairs.

    Same quantity as ``chisq_cdf`` with an array noncentrality, used by the
    mixture-mass kernel where every (atom, ball) pair has its own. lam and x
    take one shape, any, which the result keeps. Each pair at x > 0 takes
    the first route of the module notes that holds for it. A nan x is
    refused, as a nan lam is.
    """
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise ValueError(f"degrees of freedom must be a positive integer, got {d}")
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if lam_arr.shape != x_arr.shape:
        raise ValueError("lam and x must have matching shapes")
    if np.any(lam_arr < 0) or not np.all(np.isfinite(lam_arr)):
        raise ValueError("noncentrality must be finite and >= 0")
    if np.isnan(x_arr).any():
        raise ValueError("chi-square argument x must not be nan")
    out = np.zeros_like(x_arr)
    pos = x_arr > 0
    if not np.any(pos):
        return out
    lam, x = lam_arr[pos], x_arr[pos]
    b, half, xh = d / 2.0, lam / 2.0, x / 2.0
    vals = np.zeros_like(x)
    # each route takes its pairs from ``rest``, the pairs no route has taken
    tiny = _is_tiny(half, xh)
    if tiny.any():
        vals[tiny] = np.exp(-half[tiny]) * sps.gammainc(b, xh[tiny])
    rest = ~tiny
    if d == 1:
        erf = rest & (x > lam)
        if erf.any():
            vals[erf] = _erf_sum(lam[erf], x[erf])
        rest &= ~erf
        # s_x s_l is nan at lam = 0, x = inf, an erf-sum pair
        with np.errstate(invalid="ignore"):
            tails = rest & (np.sqrt(x) * np.sqrt(lam) >= 0.5)
        if tails.any():
            vals[tails] = normal_tail_difference(lam[tails], x[tails])
        rest &= ~tails
    if rest.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_bound = np.where(xh < b + half, _log_chernoff(b, half, xh), 0.0)
        deep = rest & (log_bound < _DEEP_TAIL_LOG)
        rest &= ~deep
        # below the smallest subnormal the CDF rounds to 0 and needs no sum
        deep &= log_bound > _LOG_SUBNORMAL
        if d >= 2 and deep.any():
            at = np.flatnonzero(deep)
            took, sums = _bessel_series(b, lam[at], x[at])
            vals[at[took]] = sums
            deep[at[took]] = False
        if deep.any():
            vals[deep] = _lower_tail_sum(b, half[deep], xh[deep])
    if rest.any():
        x_r, lam_r = x[rest], lam[rest]
        cdf = sps.chndtr(x_r, d, lam_r)
        for i in np.flatnonzero(np.isnan(cdf)):
            cdf[i] = _convolved(d, float(lam_r[i]), float(x_r[i]))
        vals[rest] = cdf
    out[pos] = np.clip(vals, 0.0, 1.0)
    return out


def _is_tiny(half: np.ndarray, xh: np.ndarray) -> np.ndarray:
    """half * xh < _TINY_HX, tested as xh <= _TINY_HX / half, which forms
    neither 0 * inf nor an overflowing product. half is floored at the
    smallest subnormal to keep the quotient finite, so half = 0 (lam = 0, or
    a subnormal lam whose half underflows) is tiny up to xh = 2e233, past
    which every route gives 1. Where the quotient underflows to 0, only
    xh = 0 is tiny, as with the product."""
    return xh <= _TINY_HX / np.maximum(half, _SUBNORMAL)


def _erf_sum(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The d = 1 CDF at x > lam by its erf or erfc sum (see the module notes)."""
    # x = inf would give inf / inf; at the largest double the CDF is 1 already
    x = np.minimum(x, _DBL_MAX)
    s = np.sqrt(x) + np.sqrt(lam)
    a, b = (x - lam) / s * _SQRT_HALF, s * _SQRT_HALF
    # 1 - F: the upper tails are summed before the one subtraction
    q = 0.5 * (sps.erfc(a) + sps.erfc(b))
    out = 1.0 - q
    low = q > 0.5
    out[low] = 0.5 * (sps.erf(a[low]) + sps.erf(b[low]))
    return out


def normal_tail_difference(lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ndtr((x - lam) / s) - ndtr(-s), s = sqrt(lam) + sqrt(x): the d = 1 CDF
    as two lower normal tails, for ``chisq_cdf_pairs`` and
    ``gaussmix.interval_masses``. In place: the result overwrites ``x``."""
    s = np.sqrt(lam)
    s += np.sqrt(x)
    x -= lam
    x /= s
    out = sps.ndtr(x, out=x)
    out -= sps.ndtr(np.negative(s, out=s), out=s)
    return out


def _convolved(d: int, lam: float, x: float) -> float:
    """F_d(lam, x) = integral_0^x f_(d-1)(y) F_1(lam, x - y) dy, since
    chi2_d(lam) is chi2_1(lam) plus an independent central chi2_(d-1).

    In s = sqrt(y) the weight f_(d-1)(y) dy is the chi density with d - 1
    dof, which has no singularity at 0. It holds under e^-72 of its mass past
    sqrt(d - 1) + 12, where the integral stops. quad is asked for
    _QUAD_ABS absolute: x itself is known to half an ulp, which moves the CDF
    by about that much at lam = 1e11 and by more above. A node calls the d = 1
    closed form for F_1(lam, x'), x' = max(x - s^2, 0), directly: the erf sum
    where x' > lam, else the normal-tail difference. Only pairs where
    ``chndtr`` returns nan come here, lam from about 1e11 up, so a node at
    x' <= lam has s_x s_l >= 1/2, the kernel's own route, or x' < 1 / (4 lam),
    where F_1 is far below the smallest subnormal and both give 0.
    """
    # imported here: it would add about 0.2 s to every CLI command's start-up
    from scipy.integrate import quad

    k = d - 1
    log_norm = (1.0 - k / 2.0) * math.log(2.0) - math.lgamma(k / 2.0)
    lam_a = np.array([lam])

    def integrand(s: float) -> float:
        x_1 = max(x - s * s, 0.0)
        cdf_1 = (_erf_sum if x_1 > lam else normal_tail_difference)(lam_a, np.array([x_1]))[0]
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


def _bessel_series(nu: float, lam: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CDF of deep pairs as the Bessel series of the generalized Marcum Q
    function (Nuttall 1975): returns the mask of the pairs it takes and their
    values. nu is d / 2.

    With a = sqrt(lam), b = sqrt(x), q = b / a, z = a b and y_k = ive(nu + k, z)
    = I_(nu+k)(z) e^-z,

        F_d(lam, x) = exp(-(a - b)^2 / 2) q^nu sum_(k >= 0) q^k y_k,

    a - b taken as (lam - x) / (a + b). It is summed as exp(nu log q -
    (a - b)^2 / 2 + log h), h the sum, so no factor under- or overflows alone.

    Truncation: I_(mu+1)(z) < I_mu(z) for mu >= -1/2 and z > 0, so y_k <= y_0
    and the terms past the first n sum to at most y_0 q^n / (1 - q). The sum
    is at least y_0, so n, the least count with q^n <= _TAIL_REL (1 - q), leaves
    out under _TAIL_REL of it; n depends on the pair's own q alone.

    Route condition: ``chisq_cdf_pairs`` offers the series its deep pairs at
    d >= 2, and it takes those where n <= _SERIES_TERMS (q up to about 0.53,
    x up to 0.28 lam) and y_n, the smaller start value, is a normal double.
    The other deep pairs, q near 1 above all, stay on the walk.

    Stability: y_n and y_(n-1) come from two ive calls; the recurrence run
    downward gives the rest, y_k = y_(k+2) + (2 (nu + k + 1) / z) y_(k+1), and
    Horner's rule h = y_k + q h the sum. Every quantity is positive, so nothing
    cancels: a sum of two positive doubles is within the larger of their
    relative errors plus one rounding, so each y_k is within ive's error plus
    3 roundings a step, and h within 5 n roundings more (3.6e-14 at n = 64),
    whatever z. Run upward, the recurrence subtracts and its error grows like
    exp(k^2 / z). Start values need their full relative precision, which a
    subnormal lacks, hence the normal double in the route condition. The
    exponent, up to about 745 in size, carries some 4.5 roundings of its size,
    up to 3.7e-13 of the value; the walk's Loader form avoids that but costs
    O(sqrt lam). Against 50-digit Poisson-mixture sums, on random deep pairs
    (d 2-12, lam 30-1e5, the CDF a normal double), the pairs the series took
    stay within 3.4e-13 relative: 363 of 400 with x / lam log-uniform from
    1e-4 to 1, and 122 of 400 with the Chernoff exponent uniform from -31 to
    -700 (the walk on all of them: 2.0e-13).

    Cost: two ive calls a pair and n - 1 array steps for the call, each on the
    prefix of the pairs, sorted by n, whose sum is still open, so a pair goes
    through the same operations in any batch. On a 2-core machine, 4000
    pairs shaped like the mc-scalemix benchmark's deep ones (d = 2, lam
    1000-1500, x 80-125, n = 38) take 8 ms through the kernel, where the walk
    takes 46 ms, and 150 of them 0.7 ms against 2.8 ms; at d = 5, lam near
    3000, x / lam from 0.1 to 0.25, 4000 pairs take 6 ms against 80 ms.
    """
    a, b = np.sqrt(lam), np.sqrt(x)
    q, z = b / a, a * b
    n = _series_terms(q)
    took = (n >= 1.0) & (n <= _SERIES_TERMS)
    y_n = np.zeros_like(q)
    y_n[took] = sps.ive(nu + n[took], z[took])
    took &= y_n >= _TINY_NORMAL
    at = np.flatnonzero(took)
    order = np.argsort(-n[at], kind="stable")
    at = at[order]
    n, q, z = n[at], q[at], z[at]
    # y[j % 2] holds y_j: the step for y_k overwrites y_(k+2) with it
    y = np.empty((2, at.size))
    cols = np.arange(at.size)
    parity = n.astype(np.intp) % 2
    y[parity, cols] = y_n[at]
    h = sps.ive(nu + n - 1.0, z)
    y[1 - parity, cols] = h
    # live[k]: how many pairs, a prefix, recur down to y_k (n >= k + 2)
    steps = int(n[0]) - 1 if at.size else 0
    live = np.searchsorted(-n, -(np.arange(steps) + 2.0), side="right")
    for k in range(steps - 1, -1, -1):
        m = live[k]
        y_k = y[k % 2, :m]
        y_k += np.divide(2.0 * (nu + k + 1.0), z[:m]) * y[1 - k % 2, :m]
        h[:m] *= q[:m]
        h[:m] += y_k
    gap = (lam[at] - x[at]) / (a[at] + b[at])
    out = np.empty(at.size)
    out[order] = np.exp(nu * np.log(q) - 0.5 * gap * gap + np.log(h))
    return took, out


def _series_terms(q: np.ndarray) -> np.ndarray:
    """The Bessel series' term count: the least n with q^n <= _TAIL_REL (1 - q),
    at least 1 for 0 < q < 1; -inf at q = 1 and nan past it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.ceil(np.log(_TAIL_REL * (1.0 - q)) / np.log(q))


def _lower_tail_sum(b: float, half: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j w_j P(b + j, x) to full relative precision, for the deep lower tail.

    Needs x below the mean b + half and half x >= 1e-90. With Poisson weights
    w_j = Poisson(j; half) and t_m = Poisson(b + m; x), P(b + j, x) is
    sum_(m >= j) t_m, so the sum swaps into

        sum_j w_j P(b + j, x) = sum_m t_m W_m,  W_m = sum_(j <= m) w_j,

    a sum of positive terms. The products u_m = w_m t_m peak at the J where
    u_(m+1) / u_m = half x / ((m+1)(b+m+1)) falls through 1. On each side of
    J the ratios t_m / t_J and w_m / w_J are running products of their
    one-step ratios (one multiply a term, no log or exp), and the sum is u_J,
    a direct Loader-form product, times a sum of these rescaled terms, so
    nothing under- or overflows however small the CDF. With the terms from
    J up (m >= J) and down (j < J) apart, the rescaled sum is
    V + WA + T WS: V = sum_(m >= J) t_m sum_(J <= j <= m) w_j,
    T = sum_(m >= J) t_m, WS = sum_(j < J) w_j and WA = sum_(j < J) w_j
    sum_(j <= m < J) t_m, each a running sum walking out from J.

    The window [lo, hi] drops the terms j < lo and m > hi. Both tails have
    ratios that only shrink outward: s_(j-1) / s_j, with s_j = w_j P(b + j, x),
    as j falls, and t_(m+1) W_(m+1) / (t_m W_m), with W_m summed from J or
    from any other start, as m grows. So each tail is at most its edge term
    times q / (1 - q), q the ratio at the edge (below J, P(b + J, x) is taken
    as t_J, which only raises the bound), and a side stops at the first term
    where that bound is below half of 1e-17 of the sum it has so far.

    Cost: each side walks out from J in blocks of terms. The first block
    spans _TAIL_REACH sqrt(J + 1) terms (for large J a side stops near
    6 sqrt(J + 1)), the next a quarter of that, and each later one twice the
    one before; no block holds more than _TAIL_BLOCK_CELLS (term, pair)
    cells, and a pair leaves a side at its stop term. One pair thus takes
    O(log window) array passes: 3 a side at lam = 1e6 at the e^-31 cut,
    whose window spans some 9000 terms. Pairs are walked in order of their
    first block's length, in chunks of pairs few enough for a block of
    _TAIL_MIN_WIDTH terms, so chunks hold pairs of like windows and scratch
    memory stays bounded for any batch. The running values are accumulated
    in term order from the block before, so a pair's value has the same
    bits in any batch.
    """
    peak = np.floor(0.5 * (np.sqrt(b * b + 4.0 * half * x) - b))
    reach = np.floor(_TAIL_REACH * np.sqrt(peak + 1.0))
    order = np.argsort(reach, kind="stable")
    sums = np.empty_like(x)
    for start in range(0, x.size, _TAIL_BLOCK_CELLS // _TAIL_MIN_WIDTH):
        part = order[start : start + _TAIL_BLOCK_CELLS // _TAIL_MIN_WIDTH]
        sums[part] = _rescaled_tail(b, half[part], x[part], peak[part], reach[part])
    u_j = _poisson_pmf(peak, half) * _poisson_pmf(b + peak, x)
    return np.clip(u_j * sums, 0.0, 1.0)


def _rescaled_tail(b, half, x, peak, reach) -> np.ndarray:
    """V + WA + T WS of ``_lower_tail_sum``: its sum in units of u_J."""
    eps = 0.5 * _TAIL_REL

    def below(live, k, carry):
        # m = J - k; running t_m / t_J, w_m / w_J, A_m = sum over [m, J) of
        # t / t_J, and the sums over [m, J) of w A and of w. The step ratios
        # t_m / t_(m+1) and w_m / w_(m+1) take one term more, whose shift is
        # the next step's, which the bound on s_(m-1) / s_m uses
        m1 = peak[live] + 1.0 - k[:, None]
        f_w = m1 / half[live]
        f_t = (m1 + b) / x[live]
        tau0, om0, a0, wa0, ws0 = carry
        tau = _running(np.multiply, tau0, f_t[:-1])
        om = _running(np.multiply, om0, f_w[:-1])
        a = _running(np.add, a0, tau)
        wa = _running(np.add, wa0, om * a)
        ws = _running(np.add, ws0, om)
        # P(b + m, x) / t_J >= a + 1; q s / (1 - q) <= eps S, written so that
        # it fails for q >= 1; the walk ends at m = 0 (m = -1 where J = 0)
        p = a + 1.0
        q = f_w[1:] * (1.0 + tau * f_t[1:] / p)
        e_s = eps * (wa + ws + 1.0)
        done = (m1[:-1] <= 1.0) | (q * (om * p + e_s) <= e_s)
        return (tau, om, a, wa, ws), done

    def above(live, k, carry):
        # m = J + k; running t_m / t_J, w_m / w_J, T_m = sum over [J, m] of
        # t / t_J, W''_m = sum over [J, m] of w / w_J, and the sum over
        # [J, m] of t W''; the extra step term gives the bounds' ratios
        m = peak[live] + k[:, None]
        f_w = half[live] / m
        f_t = x[live] / (m + b)
        tau0, om0, t0, w0, v0 = carry
        tau = _running(np.multiply, tau0, f_t[:-1])
        om = _running(np.multiply, om0, f_w[:-1])
        t = _running(np.add, t0, tau)
        w = _running(np.add, w0, om)
        tw = tau * w
        v = _running(np.add, v0, tw)
        # both bounds r e / (1 - r) <= eps S, written to fail for r >= 1
        r_t = f_t[1:]
        r = r_t * (1.0 + om * f_w[1:] / w)
        e_t, e_v = eps * t, eps * v
        done = (r_t * (tau + e_t) <= e_t) & (r * (tw + e_v) <= e_v)
        return (tau, om, t, w, v), done

    one, zero = np.ones_like(x), np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the walk below J ends at m = 0 in any case
        first = int(np.min(np.minimum(reach, peak + 1.0)))
        _, _, _, wa, ws = _walk_out(below, (one, one, zero, zero, zero), first)
        _, _, t, _, v = _walk_out(above, (one, one, one, one, one), int(np.min(reach)))
    return v + wa + t * ws


def _running(ufunc, carry: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate`` down each column of ``carry`` stacked on ``steps``,
    without the carry row: one pass in term order, so a running value has
    the same bits however the terms are cut into blocks."""
    out = np.empty((steps.shape[0] + 1, steps.shape[1]))
    out[0] = carry
    out[1:] = steps
    return ufunc.accumulate(out, axis=0, out=out)[1:]


def _walk_out(block, carry: tuple, first: int) -> list:
    """Run ``block`` over terms k = 1, 2, ... in blocks until every pair has
    a done term; return each running quantity at its pair's first done term.

    ``block(live, k, carry)`` gives the running quantities of the pairs
    ``live`` at the terms ``k[:-1]`` (each a (terms, pairs) array, continued
    from ``carry``, its values at the term before) and their done mask; the
    last of ``k`` is the next block's first term, whose step ratio the stop
    rule of the block's last term needs. The first
    block is ``first`` terms long, the next a quarter of that, and each later
    one twice the one before; none holds more than _TAIL_BLOCK_CELLS cells,
    and pairs leave once done, so a cell past a pair's done term (which may
    hold inf or nan) is never read.
    """
    n = carry[0].size
    out = [np.empty(n) for _ in carry]
    live = np.arange(n)
    k0, width = 1, max(first, _TAIL_MIN_WIDTH)
    while live.size:
        w = max(_TAIL_MIN_WIDTH, min(width, _TAIL_BLOCK_CELLS // live.size))
        cum, done = block(live, np.arange(k0, k0 + w + 1, dtype=float), carry)
        stop = done.any(axis=0)
        hit = np.flatnonzero(stop)
        at = done[:, hit].argmax(axis=0)
        for o, c in zip(out, cum):
            o[live[hit]] = c[at, hit]
        keep = ~stop
        live = live[keep]
        carry = tuple(c[-1, keep] for c in cum)
        width = 2 * width if k0 > 1 else max(width // 4, _TAIL_MIN_WIDTH)
        k0 += w
    return out
