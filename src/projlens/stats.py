"""Small statistics toolkit: KS distances, a Kolmogorov tail, log-log slope
fits, and a dip-style unimodality gap for projected coordinates."""

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


_DIP_MAX_ATOMS = 128
# atoms closer than this share of the span merge before the fit program,
# which HiGHS cannot solve reliably on near-coincident atoms
_DIP_MERGE_TOL = 1e-9


def _merge_runs(vals: np.ndarray, counts: np.ndarray, edges: np.ndarray):
    """Merge each run of atoms vals[edges[j]:edges[j + 1]] into one atom at
    the run's weighted mean."""
    out_v = np.empty(edges.size - 1)
    out_c = np.empty(edges.size - 1, dtype=np.int64)
    for j in range(edges.size - 1):
        sl = slice(edges[j], edges[j + 1])
        out_c[j] = counts[sl].sum()
        out_v[j] = vals[sl] @ counts[sl] / out_c[j]
    return out_v, out_c


def _mode_fit_distance(vals: np.ndarray, lo: np.ndarray, hi: np.ndarray, k: int) -> float:
    """Exact sup-distance to the nearest CDF with its mode at vals[k].

    Linear program over the fitted CDF's values at the atoms: one variable
    per atom, a second one at the mode (the mode may carry an atom, so the
    fitted CDF may jump there), and the distance t. Constraints keep the fit
    within t of both one-sided empirical limits, nondecreasing, convex left
    of the mode, and concave right of it.
    """
    from scipy.optimize import linprog

    m = vals.size
    nv = m + 2  # g_0..g_{m-1}, g_mode_right, t
    right_var = m
    t_var = m + 1
    rows: list[np.ndarray] = []
    caps: list[float] = []

    def band(idx: int, floor: float, ceil: float) -> None:
        row = np.zeros(nv)
        row[idx], row[t_var] = 1.0, -1.0
        rows.append(row)
        caps.append(ceil)
        row = np.zeros(nv)
        row[idx], row[t_var] = -1.0, -1.0
        rows.append(row)
        caps.append(-floor)

    for i in range(m):
        if i == k:
            band(i, lo[k], lo[k])
            band(right_var, hi[k], hi[k])
        else:
            band(i, hi[i], lo[i])
    left = list(range(k + 1))
    right = [right_var] + list(range(k + 1, m))
    chain = left + right
    for a, b in zip(chain, chain[1:]):
        row = np.zeros(nv)
        row[a], row[b] = 1.0, -1.0
        rows.append(row)
        caps.append(0.0)
    for side, sign in ((left, -1.0), (right, 1.0)):
        xs = [vals[i] if i < m else vals[k] for i in side]
        for j in range(1, len(side) - 1):
            dl, dr = xs[j] - xs[j - 1], xs[j + 1] - xs[j]
            row = np.zeros(nv)
            # sign * (right slope - left slope) <= 0, multiplied through by
            # dl * dr > 0 so near-coincident atoms cannot blow up coefficients
            row[side[j + 1]] += sign * dl
            row[side[j]] -= sign * (dl + dr)
            row[side[j - 1]] += sign * dr
            rows.append(row)
            caps.append(0.0)
    cost = np.zeros(nv)
    cost[t_var] = 1.0
    res = linprog(
        cost,
        A_ub=np.array(rows),
        b_ub=np.array(caps),
        bounds=[(0.0, 1.0)] * (m + 1) + [(0.0, None)],
        method="highs",
    )
    if not res.success:  # every mode admits t = 1, so this is a solver fault
        raise RuntimeError(f"unimodal fit LP failed at mode {k}: {res.message}")
    return float(res.fun)


def dip_statistic(sample) -> float:
    """Unimodality gap of a univariate sample.

    The smallest sup-distance between the empirical CDF and a CDF that is
    convex left of a mode placed at one of the sample values and concave
    right of it (the mode may carry an atom); each candidate mode is scored
    exactly and the best mode wins. Samples with more than 128 distinct
    values are first coarsened to 128 weighted quantile atoms, which moves
    the value by at most the largest coarsened weight. Atoms within 1e-9 of
    the span of their neighbour are then merged into their weighted mean,
    which moves the value by at most the largest merged weight, as it only
    changes the empirical CDF between the merged atoms. A 50/50 pair of atoms
    scores 0.25, the classic perfectly-bimodal value; unimodal laws score
    O(1/sqrt(n)).
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = x.size
    if n == 0:
        raise ValueError("sample must be nonempty")
    vals, counts = np.unique(x, return_counts=True)
    if vals.size > _DIP_MAX_ATOMS:
        # adjacent tie groups into quantile bins
        edges = np.linspace(0, vals.size, _DIP_MAX_ATOMS + 1).round().astype(int)
        vals, counts = _merge_runs(vals, counts, np.unique(edges))
    m = vals.size
    if m == 1:
        return 0.0
    # the statistic is invariant under increasing affine maps of the data;
    # normalizing the span keeps the fit program well scaled
    vals = (vals - vals[0]) / (vals[-1] - vals[0])
    apart = np.diff(vals) > _DIP_MERGE_TOL
    if not apart.all():
        edges = np.flatnonzero(np.concatenate([[True], apart, [True]]))
        vals, counts = _merge_runs(vals, counts, edges)
        m = vals.size
    hi = np.cumsum(counts / n)
    lo = hi - counts / n
    best = math.inf
    for k in range(m):
        best = min(best, _mode_fit_distance(vals, lo, hi, k))
    return float(best)
