"""Small statistics toolkit: KS distances, a Kolmogorov tail, log-log slope
fits, and Hartigan's dip, a unimodality gap for projected coordinates."""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps


def ks_statistic(sample, cdf) -> float:
    """One-sample KS distance sup_x |F_n(x) - F(x)| for a callable CDF."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    idx = np.arange(1, n + 1)
    d_plus = np.max(idx / n - f)
    d_minus = np.max(f - (idx - 1) / n)
    return float(max(d_plus, d_minus))


def two_sample_ks(a, b) -> float:
    """Two-sample KS distance between empirical CDFs."""
    xa = np.sort(np.asarray(a, dtype=float).ravel())
    xb = np.sort(np.asarray(b, dtype=float).ravel())
    if xa.size == 0 or xb.size == 0:
        raise ValueError("samples must be nonempty")
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.max(np.abs(fa - fb)))


def kolmogorov_sf(t: float) -> float:
    """P(K > t) for the Kolmogorov distribution (limit law of sqrt(n) D_n)."""
    if t <= 0:
        return 1.0
    return float(sps.kolmogorov(t))


def ks_p_value(statistic: float, n: int) -> float:
    """Asymptotic p-value for a one-sample KS statistic at sample size n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return kolmogorov_sf(math.sqrt(n) * statistic)


def fit_loglog_slope(x, y) -> tuple[float, float]:
    """Least-squares slope and intercept of log(y) against log(x)."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two (x, y) pairs")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive values")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)


def _segment_gap(x: np.ndarray, jb: int, je: int, convex: bool) -> float:
    """Largest gap, in points, between the convex minorant's (or concave
    majorant's) segment from (x[jb], jb) to (x[je], je) and the empirical
    CDF's jumps it spans: at least 1, half a point each side of a jump."""
    if je - jb < 2 or x[je] == x[jb]:
        return 1.0
    rise = (x[jb : je + 1] - x[jb]) * ((je - jb) / (x[je] - x[jb]))
    steps = np.arange(je - jb + 1)
    return float((steps + 1 - rise if convex else rise - (steps - 1)).max())


def dip_statistic(sample) -> float:
    """Hartigan's dip of a univariate sample (Hartigan & Hartigan, Ann.
    Statist. 13 (1985); algorithm AS 217, with the index fixes of R's
    ``diptest``).

    The smallest sup-distance between the empirical CDF, both one-sided
    limits at every point, and a unimodal CDF: convex left of a modal
    interval, concave right of it. It is exact on all n points. The
    greatest convex minorant and least concave majorant of the points
    (x_(i), i) are built once, as index chains, and the modal interval
    [low, high] narrows until the dip stops growing. Every unimodal CDF
    misses some jump by half, so the value is at least 1/(2n) (R's
    ``min.is.0 = FALSE``) unless all values are equal, which scores 0. A
    50/50 pair of atoms scores 0.25, the classic perfectly-bimodal value;
    unimodal laws score O(1/sqrt(n)).
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):
        raise ValueError("sample must be finite")
    if x[0] == x[-1]:
        return 0.0
    if not math.isfinite(float(x[-1]) - float(x[0])):
        # the dip is invariant under scaling: a span of 2 lets no
        # difference overflow
        x = x / (0.5 * x[-1] - 0.5 * x[0])
    xs = x.tolist()
    # mn[j] and mj[j]: the hull vertex before j on the convex minorant of
    # points 0..j, and after j on the concave majorant of points j..n-1
    mn = [0] * n
    for j in range(1, n):
        a = j - 1
        while a > 0 and (xs[j] - xs[a]) * (a - mn[a]) >= (xs[a] - xs[mn[a]]) * (j - a):
            a = mn[a]
        mn[j] = a
    mj = [n - 1] * n
    for k in range(n - 2, -1, -1):
        a = k + 1
        while a < n - 1 and (xs[k] - xs[a]) * (a - mj[a]) >= (xs[a] - xs[mj[a]]) * (k - a):
            a = mj[a]
        mj[k] = a
    dip = 1.0  # in units of 1/(2n) until the end
    low, high = 0, n - 1
    while True:
        gcm = [high]  # convex minorant's vertices from high down to low
        while gcm[-1] > low:
            gcm.append(mn[gcm[-1]])
        lcm = [low]  # concave majorant's vertices from low up to high
        while lcm[-1] < high:
            lcm.append(mj[lcm[-1]])
        ig, ih = len(gcm) - 1, len(lcm) - 1
        # the widest vertical gap between the two hulls, walking both vertex
        # lists up from low; a vertical segment (a tie) scores no gap
        if len(gcm) == 2 and len(lcm) == 2:
            d = 1.0
        else:
            d = 0.0
            ix, iv = len(gcm) - 2, 1
            while True:
                g, v = gcm[ix], lcm[iv]
                if g > v:
                    g1 = gcm[ix + 1]
                    span = xs[g] - xs[g1]
                    dx = v - g1 + 1 - (xs[v] - xs[g1]) * (g - g1) / span if span else -math.inf
                    iv += 1
                    if dx >= d:
                        d, ig, ih = dx, ix + 1, iv - 1
                else:
                    v1 = lcm[iv - 1]
                    span = xs[v] - xs[v1]
                    dx = (xs[g] - xs[v1]) * (v - v1) / span - (g - v1 - 1) if span else -math.inf
                    ix -= 1
                    if dx >= d:
                        d, ig, ih = dx, ix + 1, iv
                ix, iv = max(ix, 0), min(iv, len(lcm) - 1)
                if gcm[ix] == lcm[iv]:
                    break
        if d < dip:
            break
        # the dip outside the new modal interval [gcm[ig], lcm[ih]]
        dip = max([dip]
                  + [_segment_gap(x, gcm[j + 1], gcm[j], True) for j in range(ig, len(gcm) - 1)]
                  + [_segment_gap(x, lcm[j], lcm[j + 1], False) for j in range(ih, len(lcm) - 1)])
        if low == gcm[ig] and high == lcm[ih]:
            break
        low, high = gcm[ig], lcm[ih]
    return dip / (2 * n)
