"""Numeric kernels: regularized incomplete gamma, normal and chi-square CDFs.

Every routine is a validating wrapper around ``scipy.special``:

- ``reg_lower_gamma`` is ``gammainc``, P(a, x) = gamma(a, x) / Gamma(a);
- ``gamma_ppf`` is ``gammaincinv``, its inverse in x;
- ``norm_cdf`` is ``ndtr``;
- ``chisq_cdf_pairs`` is ``chndtr`` over elementwise (lam, x) pairs, but
  on the routes listed below, and ``chisq_cdf`` is the same call with one
  lam broadcast over the points.

The noncentral chi-square CDF is the Poisson mixture sum_j Poisson(j;
lam/2) P(d/2 + j, x/2). ``chisq_cdf_pairs`` gives 0 at x <= 0 and 1 at
x = inf, and sends each pair between to one route, on none of which
anything cancels. At d >= 2 the deep lower tail, where a Chernoff bound
puts the CDF below e^-30, is summed by hand, because ``chndtr`` loses it:
on 150 random such points (d <= 12, CDF above 1e-290), against 40-digit
mpmath sums, it returns 0 on 39 and is off by up to 7e-9 relative on the
rest. Below the smallest subnormal the CDF is 0; above it the first of
three routes that holds takes the pair, each bounded in its docstring:

- ``_short_sum`` where rho = (lam/2)(x/2) / (d/2 + 1) <= 1/4: the mixture
  summed from j = 0, at most 29 terms;
- ``_bessel_series`` where x is well below lam (q = sqrt(x / lam) up to
  about 0.53): the generalized Marcum Q series, at most 64 terms;
- ``_convolved`` on the pairs left, q near 1 above all, a quadrature over
  the d = 1 closed form below: some 0.7 ms a pair whatever lam (median of
  500 random pairs, d 2-12, lam 30-1e6, on a 2-core machine; 1.5 ms at most).

Against 50-digit Poisson-mixture sums, on random deep pairs (d 2-12, lam
30-3e4, the CDF a normal double), 800 that the quadrature took stay within
3.1e-13 relative; 400 that the short sum took (d 1-12) within 9.3e-14. On
four pairs at lam = 1e10 to 1e13 (d = 2 and 5, Chernoff bound near e^-40 to
e^-300) a 40-digit mpmath quadrature puts the convolution within 5e-14.

The other pairs at d >= 2 take ``chndtr``, and ``_convolved`` where it
returns nan: from lam of about 1e11 up, x within some ten standard
deviations of the mean (``chndtr(1e12, 2, 1e12)``). At lam = 1e10 a
40-digit mpmath quadrature puts the convolution within 1.3e-13 of the CDF
and ``chndtr`` within 4.4e-12 (d = 2 and 5, x at the mean and 2 and 6
standard deviations above it).

At d = 1 a ball is an interval and the CDF is exactly Phi(s_x - s_l) -
Phi(-s_x - s_l) with s_x = sqrt(x), s_l = sqrt(lam), s_x - s_l taken as
(x - lam) / (s_x + s_l), which keeps its relative precision where x is near
lam. A pair takes one of two routes:

- ``normal_tail_difference``, ``ndtr(s_x - s_l) - ndtr(-s_x - s_l)``, where
  s_x s_l >= 1/2, at any depth: the two lower tails are in ratio about
  e^(-2 s_x s_l) <= e^-1, so under one bit is lost; and where x > lam and
  s_x + s_l >= 1, where F >= Phi(0) - Phi(-1) = 0.34;
- ``_short_sum`` on every other pair: these have lam x < 1/4, so rho <
  1/24 and it sums at most 13 terms, deep in the tail or not.

On 6000 log-uniform pairs (lam from 1e-12 to 3e3, 600 of them at lam = 0;
x from 1e-12 to 5e3) against 60-digit mpmath the two routes stay within
4.4e-16 absolute (``chndtr`` on every pair: 2.4e-15) and 2e-13 relative, on
a deep normal-tail pair. That difference on every pair reaches 3e-9
relative, where x <= lam and s_x s_l < 1/2, and its two tails cancel.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

# relative size below which the short sum and the Bessel series drop the
# terms they have not summed, far under one unit in the last place
_TAIL_REL = 1e-17
# the log of the smallest positive double
_LOG_SUBNORMAL = math.log(5e-324)
# where a Chernoff bound puts the CDF below e^-30, the pair is in the deep tail
_DEEP_TAIL_LOG = -30.0
# the short sum takes deep pairs with rho = (lam/2)(x/2) / (d/2 + 1) up to this
_SHORT_RHO = 0.25
# the Bessel series sums at most this many terms (see ``_bessel_series``);
# its start values must be normal doubles
_SERIES_TERMS = 64
_TINY_NORMAL = np.finfo(float).tiny
# the chi tail past sqrt(k) + 12 weighs under e^-72; the absolute tolerance
# of the convolution route (see ``_convolved``)
_CHI_TAIL = 12.0
_QUAD_ABS = 1e-11

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
    """Inverse of P(a, .); a finite and > 0, u in [0, 1) (0 maps to 0)."""
    if not (np.isfinite(a) and a > 0):
        raise ValueError(f"shape parameter must be finite and positive, got {a}")
    arr = np.asarray(u, dtype=float)
    if not np.all((arr >= 0) & (arr < 1)):
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
    take one shape, any, which the result keeps. Each pair at 0 < x < inf
    takes one route of the module notes. A nan x is refused, as a nan lam is.
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
    out[x_arr == np.inf] = 1.0
    pos = (x_arr > 0) & (x_arr < np.inf)
    if not np.any(pos):
        return out
    lam, x = lam_arr[pos], x_arr[pos]
    b, half, xh = d / 2.0, lam / 2.0, x / 2.0
    vals = np.zeros_like(x)
    if d == 1:
        s_x, s_l = np.sqrt(x), np.sqrt(lam)
        tails = (s_x * s_l >= 0.5) | ((x > lam) & (s_x + s_l >= 1.0))
        vals[tails] = normal_tail_difference(lam[tails], x[tails])
        short = ~tails
    else:
        # half xh overflows to inf only where rho is far past _SHORT_RHO
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_bound = np.where(xh < b + half, _log_chernoff(b, half, xh), 0.0)
            short = half * xh <= _SHORT_RHO * (b + 1.0)
        deep = log_bound < _DEEP_TAIL_LOG
        rest = ~deep
        if rest.any():
            x_r, lam_r = x[rest], lam[rest]
            cdf = sps.chndtr(x_r, d, lam_r)
            for i in np.flatnonzero(np.isnan(cdf)):
                cdf[i] = _convolved(d, float(lam_r[i]), float(x_r[i]))
            vals[rest] = cdf
        # below the smallest subnormal the CDF rounds to 0 and needs no sum
        deep &= log_bound > _LOG_SUBNORMAL
        short &= deep
        deep &= ~short
        if deep.any():
            at = np.flatnonzero(deep)
            took, sums = _bessel_series(b, lam[at], x[at])
            vals[at[took]] = sums
            deep[at[took]] = False
        for i in np.flatnonzero(deep):
            vals[i] = _convolved(d, float(lam[i]), float(x[i]), deep=True)
    if short.any():
        vals[short] = _short_sum(b, half[short], xh[short])
    out[pos] = np.clip(vals, 0.0, 1.0)
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


def _convolved(d: int, lam: float, x: float, deep: bool = False) -> float:
    """F_d(lam, x) = integral_0^x f_(d-1)(y) F_1(lam, x - y) dy, since
    chi2_d(lam) is chi2_1(lam) plus an independent central chi2_(d-1).

    In s = sqrt(y) the weight f_(d-1)(y) dy is the chi density with d - 1
    dof, which has no singularity at 0. It holds under e^-72 of its mass past
    sqrt(d - 1) + 12, where the integral stops. A node takes F_1(lam, x') at
    x' = x - s^2 from the d = 1 closed form ndtr(s_x' - s_l) - ndtr(-s_x' -
    s_l), with s_x' - s_l taken as ((x - lam) - s^2) / (s_x' + s_l): x - lam
    is formed once, so the gap keeps its relative precision where x' itself
    carries an absolute rounding of half an ulp of x, some 1e-3 at lam = 1e13
    (taken from x', a deep pair drifted 6.2e-11 relative there). Each tail
    enters as exp(log w + log_ndtr(.)), w the chi density: ``ndtr`` returns 0
    below about -37.7, where tails near 1e-310 still count for a CDF near the
    smallest normal double (one at 4.6e-307 came out 2.3e-11 off).

    Two routes call it, with different tolerances:

    - pairs where ``chndtr`` returns nan (d >= 2, lam from about 1e11 up, x
      within some ten standard deviations of the mean): quad is asked for
      _QUAD_ABS absolute, since x itself is known to half an ulp, which
      moves the CDF by about that much at lam = 1e11 and by more above;
    - ``deep`` pairs that neither the short sum nor the Bessel series takes
      (d >= 2, x above some 0.28 lam and lam x above d + 2), at any lam:
      quad is asked for 1e-13 relative, the CDF being as small as 1e-308.
      There x' < lam at every node, so the two tails differ by a factor
      e^(-2 s_x' s_l); they cancel only where x' < 1 / (4 lam), at the top
      of the range, where F_1 is roughly below e^(-x / 2) of its value at
      s = 0.
    """
    # imported here: it would add about 0.2 s to every CLI command's start-up
    from scipy.integrate import quad

    k = d - 1
    log_norm = (1.0 - k / 2.0) * math.log(2.0) - math.lgamma(k / 2.0)
    root_lam, gap = math.sqrt(lam), x - lam

    def integrand(s: float) -> float:
        s2 = s * s
        r = math.sqrt(max(x - s2, 0.0)) + root_lam
        log_w = log_norm + sps.xlogy(k - 1, s) - s2 / 2.0
        return math.exp(log_w + sps.log_ndtr((gap - s2) / r)) - math.exp(log_w + sps.log_ndtr(-r))

    top = min(math.sqrt(x), math.sqrt(k) + _CHI_TAIL)
    tol = {"epsabs": 0.0, "epsrel": 1e-13} if deep else {"epsabs": _QUAD_ABS, "epsrel": 0.0}
    return quad(integrand, 0.0, top, **tol)[0]


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

    Route condition: ``chisq_cdf_pairs`` offers the series the deep pairs at
    d >= 2 that the short sum leaves, and it takes those where n <=
    _SERIES_TERMS (q up to about 0.53, x up to 0.28 lam) and y_n, the
    smaller start value, is a normal double. The other deep pairs, q near 1
    above all, go to the quadrature (``_convolved``).

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
    up to 3.7e-13 of the value. Against 50-digit Poisson-mixture sums, on
    random deep pairs (d 2-12, lam 30-1e5, the CDF a normal double), the
    pairs the series took stay within 3.4e-13 relative: 363 of 400 with
    x / lam log-uniform from 1e-4 to 1, and 122 of 400 with the Chernoff
    exponent uniform from -31 to -700.

    Cost: two ive calls a pair and n - 1 array steps for the call, each on the
    prefix of the pairs, sorted by n, whose sum is still open, so a pair goes
    through the same operations in any batch. On a 2-core machine, 4000
    pairs shaped like the mc-scalemix benchmark's deep ones (d = 2, lam
    1000-1500, x 80-125, n = 38) take 8 ms through the kernel and 150 of
    them 0.7 ms, where the quadrature takes some 0.7 ms a pair; at d = 5, lam
    near 3000, x / lam from 0.1 to 0.25, 4000 pairs take 6 ms.
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


def _short_sum(b: float, half: np.ndarray, xh: np.ndarray) -> np.ndarray:
    """The Poisson mixture sum_j e^-half half^j / j! P(b + j, xh), summed from
    j = 0, for the d = 1 pairs the normal-tail difference leaves (rho = half
    xh / (b + 1) < 1/24) and the deep pairs at d >= 2 with rho <= _SHORT_RHO.

    Term j + 1 is at most half xh / ((j + 1)(b + j + 1)) <= rho times term
    j, since P(a + 1, y) <= y / (a + 1) P(a, y): in P(a, y) = e^-y sum_n
    y^(a+n) / Gamma(a + n + 1), term n of P(a + 1, y) is term n of P(a, y)
    times y / (a + n + 1). So the terms past the first n sum to at most
    rho^n / (1 - rho) of the first, and a pair sums the least n terms
    (``_series_terms``) that leave out under _TAIL_REL of its sum: at most
    29 at rho = 1/4, 13 at rho = 1/24, and only the first, e^-half P(b,
    xh), where rho is below about 1e-17. Every term is positive and
    summed in order of j, each pair its own n of them, so its value does
    not depend on its batch.
    """
    n = np.maximum(_series_terms(half * xh / (b + 1.0)), 1.0)
    w = np.exp(-half)
    out = w * sps.gammainc(b, xh)
    for j in range(1, int(n.max())):
        at = np.flatnonzero(n > j)
        w[at] *= half[at] / j
        out[at] += w[at] * sps.gammainc(b + j, xh[at])
    return out
