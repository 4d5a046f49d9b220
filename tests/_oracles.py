"""Independent reference implementations used to calibrate test expectations.

Everything here deliberately avoids the package's own numerics: chi-square
masses come from literal Monte Carlo counts of shifted-Gaussian norms, radial
laws from trapezoid quadrature, and Gaussian tail values from math.erf. A test
that freezes a reference constant cites the oracle that produced it.
"""

from __future__ import annotations

import math

import numpy as np


def mc_noncentral_chisq_cdf(d, lam, xs, n_samples, seed=0, chunk=10**6):
    """P(||Z + mu||^2 <= x) by direct counting, Z standard normal in R^d.

    The shift mu = sqrt(lam/d) * (1,...,1) realizes noncentrality lam. Counts
    accumulate in chunks so memory stays near chunk*d floats.
    """
    xs = np.asarray(xs, dtype=float)
    rng = np.random.default_rng(seed)
    mu = math.sqrt(lam / d)
    counts = np.zeros(xs.shape, dtype=np.int64)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        z = rng.standard_normal((m, d)) + mu
        sq = np.einsum("ij,ij->i", z, z)
        for k, x in enumerate(xs.ravel()):
            counts.ravel()[k] += int((sq <= x).sum())
        done += m
    return counts / n_samples


def chisq2_central_cdf(x):
    """Closed form for 2 degrees of freedom: 1 - exp(-x/2)."""
    return -np.expm1(-0.5 * np.asarray(x, dtype=float))


def chisq1_central_cdf(x):
    """Closed form for 1 degree of freedom via the error function."""
    x = np.asarray(x, dtype=float)
    return np.vectorize(lambda t: math.erf(math.sqrt(0.5 * t)))(x)


def normal_cdf(z):
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(z, dtype=float) / math.sqrt(2.0)))


def power_exp_radius_cdf(beta, D, r_grid):
    """CDF of the radial density r^(D-1) exp(-r^(2 beta)/2) on a grid.

    Trapezoid quadrature over a fine mesh; the log-density is evaluated and
    shifted by its max before exponentiating so large D stays finite.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    hi = float(r_grid.max()) * 1.5
    mesh = np.linspace(1e-12, hi, 2_000_000)
    logf = (D - 1) * np.log(mesh) - 0.5 * mesh ** (2 * beta)
    logf -= logf.max()
    dens = np.exp(logf)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(mesh))])
    cum /= cum[-1]
    return np.interp(r_grid, mesh, cum)


def two_cluster_lambda_max(s, D, n=None):
    """Top covariance eigenvalue of the symmetric two-cluster model.

    Centers at +-(s/2) sqrt(D) e_1 with unit isotropic noise: the population
    covariance is I + (s^2 D / 4) e_1 e_1^T, so lambda_max = 1 + s^2 D / 4.
    """
    return 1.0 + s * s * D / 4.0


def two_point_dip(p):
    """Exact dip of a two-atom distribution with weights p and 1-p.

    A unimodal CDF is continuous away from its single mode, so it must pass
    within t of both 0 and min(p, 1-p) at the lighter atom: t = min(p,1-p)/2.
    """
    return min(p, 1.0 - p) / 2.0


def kolmogorov_sf_series(t, terms=200):
    """Kolmogorov tail probability by the classical alternating series."""
    if t <= 0:
        return 1.0
    total = 0.0
    for k in range(1, terms + 1):
        total += (-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
    return min(1.0, max(0.0, 2.0 * total))


def ks_statistic_sorted(sample, cdf_values):
    """One-sample KS from pre-sorted data and the CDF at those points."""
    n = len(sample)
    grid = np.arange(1, n + 1) / n
    d_plus = float(np.max(grid - cdf_values))
    d_minus = float(np.max(cdf_values - (grid - 1.0 / n)))
    return max(d_plus, d_minus)


def dip_lp_reference(vals, counts):
    """Unimodality gap by brute linear programming, one LP per candidate mode.

    Definition-led restatement of the statistic: for a mode at vals[k], find
    the smallest t so that some CDF G passes within t of both one-sided
    empirical limits at every atom (the mode may carry a jump of its own),
    is nondecreasing, convex left of the mode, and concave right of it.

    Shares no code with ``stats.dip_statistic``, which runs Hartigan's
    algorithm. HiGHS loses accuracy on near ties: on values 0-24 with 1e-9
    offsets it was off by about 2e-7, so compare on well-separated or
    exactly tied values only.
    """
    from scipy.optimize import linprog

    vals = np.asarray(vals, dtype=float)
    counts = np.asarray(counts)
    n = counts.sum()
    hi = np.cumsum(counts) / n
    lo = hi - counts / n
    m = vals.size
    if m == 1:
        return 0.0
    best = math.inf
    for k in range(m):
        nv = m + 2  # g at each atom, g just right of the mode, t
        g_right, t_var = m, m + 1
        rows, caps = [], []

        def within(idx, floor, ceil):
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
                within(i, lo[k], lo[k])
                within(g_right, hi[k], hi[k])
            else:
                within(i, hi[i], lo[i])
        chain = list(range(k + 1)) + [g_right] + list(range(k + 1, m))
        for a, b in zip(chain, chain[1:]):
            row = np.zeros(nv)
            row[a], row[b] = 1.0, -1.0
            rows.append(row)
            caps.append(0.0)
        for idxs, sign in (
            (list(range(k + 1)), -1.0),  # convex side
            ([g_right] + list(range(k + 1, m)), 1.0),  # concave side
        ):
            xs = [vals[i] if i < m else vals[k] for i in idxs]
            for j in range(1, len(idxs) - 1):
                dl, dr = xs[j] - xs[j - 1], xs[j + 1] - xs[j]
                row = np.zeros(nv)
                row[idxs[j + 1]] += sign / dr
                row[idxs[j]] -= sign / dr + sign / dl
                row[idxs[j - 1]] += sign / dl
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
        assert res.success, res.message
        best = min(best, float(res.fun))
    return best
