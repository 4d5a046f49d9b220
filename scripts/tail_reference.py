"""Regenerate the frozen deep lower-tail rows of tests/test_special.py.

Each row (d, lam, x, cdf) holds the noncentral chi-square CDF
P(chi2_d(lam) <= x) = sum_j Poisson(j; lam/2) P(d/2 + j, x/2), summed in
50-digit arithmetic with mpmath. mpmath is needed only here: the test suite
reads the frozen values and never imports it.

The sum runs over j in J +- K around the peak J of the terms. P(d/2 + j, x/2)
comes from one mpmath ``gammainc`` at the top of the window and the exact
recurrence P(a - 1, y) = P(a, y) + y^(a-1) e^-y / Gamma(a) below it. K doubles
until both edge terms are below 1e-45 of the sum.

The d = 1 rows (1, lam, x, cdf) at lam = 1e8, ..., 1e13, with x = (sqrt lam -
sqrt 200)^2, where the Chernoff bound is about e^-100, come from the closed
form Phi(sqrt x - sqrt lam) - Phi(-sqrt x - sqrt lam) in 60-digit arithmetic:
the Poisson sum would need some sqrt(lam) terms there.

The rows in the Bessel series' domain are (d, lam, x, cdf) at d = 2, 3, 5, 12,
lam = 300, 1500, 5000 and x = lam / 4, lam / 16, lam / 64, kept where the
Chernoff bound is below e^-30 (the deep tail) and the CDF is a normal double;
they come from the same Poisson-mixture sum, which does not use the series.
The rows at d = 2, 11 and lam = 2e4, 3e4 lie at the integer x nearest to
where the Chernoff bound is e^-400 and e^-650, where the peak term is far
from both Poisson means.

The quadrature rows, at d = 2, 3, 5, 12 and lam = 300, 3000, 3e4, lie at the
integer x nearest to where the Chernoff bound is e^-40, e^-300 and e^-650,
kept where x > 0 and the CDF is a normal double. Two more, at d = 5, 12 and
lam = 1e4, lie where it is e^-703: the CDF, near 7e-308, is close to the
smallest normal double, and the quadrature's node tails go below 1e-308,
where ``scipy.special.ndtr`` returns 0 and ``log_ndtr`` does not.

The short-sum rows are deep pairs with (lam/2)(x/2) / (d/2 + 1) <= 1/4:
lam = x = 2.72276075968322e-33 at d = 1 and 7 (q = sqrt(x / lam) = 1), and
d = 1 at lam = 200 and 2000 with lam x = 0.2 and 1e-40; at lam = 2000 the
CDF, near e^-1000, rounds to 0.

Usage:
  python scripts/tail_reference.py            # every LOWER_TAIL row, then the d = 1 rows
  python scripts/tail_reference.py --new-only # the quadrature and short-sum rows
"""

import argparse
import math
import sys

import mpmath as mp

mp.mp.dps = 50

# (d, lam, x) of the rows frozen before the e^-31 cut rows were added
EARLIER = [
    (1, 216.0, 0.125),
    (1, 208.0, 0.0625),
    (5, 400.0, 1.0),
    (12, 300.0, 50.0),
    (2, 1500.0, 40.0),
    (7, 900.0, 600.0),
    (1, 6.0, 1e-100),
    (4, 50.0, 1e-30),
    (2, 40.0, 3.0),
]
CUT_LOG = -31.0
CUT_LAMS = (1e4, 1e5, 1e6)
CUT_DS = (1, 2, 5, 12)
ONE_DOF_LAMS = (1e8, 1e9, 1e10, 1e11, 1e12, 1e13)
SERIES_DS = (2, 3, 5, 12)
SERIES_LAMS = (300.0, 1500.0, 5000.0)
SERIES_SHARES = (4.0, 16.0, 64.0)
DEEP_LOG = -30.0
WALK_DS = (2, 11)
WALK_LAMS = (2e4, 3e4)
WALK_LOGS = (-400.0, -650.0)
QUAD_DS = (2, 3, 5, 12)
QUAD_LAMS = (300.0, 3000.0, 3e4)
QUAD_LOGS = (-40.0, -300.0, -650.0)
NEAR_NORMAL_DS = (5, 12)
NEAR_NORMAL_LAM = 1e4
NEAR_NORMAL_LOG = -703.0
SHORT_PAIRS = [(1, 2.72276075968322e-33, 2.72276075968322e-33),
               (7, 2.72276075968322e-33, 2.72276075968322e-33)]
SHORT_ONE_DOF_LAMS = (200.0, 2000.0)
SHORT_LAM_X = (0.2, 1e-40)

def log_chernoff(d, lam, x):
    """Chernoff bound on log P(chi2_d(lam) <= x), for x below the mean."""
    b, half, xh = mp.mpf(d) / 2, mp.mpf(lam) / 2, mp.mpf(x) / 2
    y = (b + mp.sqrt(b * b + 4 * xh * half)) / (2 * xh)
    return (y - 1) * xh - b * mp.log(y) - half * (y - 1) / y


def cut_x(d, lam, level=CUT_LOG):
    """The integer x nearest to where the Chernoff bound is e^level."""
    lo, hi = mp.mpf(1e-300), mp.mpf(d + lam)
    for _ in range(200):
        mid = (lo + hi) / 2
        if log_chernoff(d, lam, mid) < level:
            lo = mid
        else:
            hi = mid
    return float(mp.nint(lo))


def cdf(d, lam, x):
    """The Poisson mixture at 50 digits, as described in the module notes."""
    b, half, xh = mp.mpf(d) / 2, mp.mpf(lam) / 2, mp.mpf(x) / 2
    peak = int(mp.floor((mp.sqrt(b * b + 4 * half * xh) - b) / 2))
    k = 20 * math.isqrt(peak + 1) + 50
    while True:
        lo, hi = max(0, peak - k), peak + k
        p = mp.gammainc(b + hi, 0, xh, regularized=True)
        terms = []
        for j in range(hi, lo - 1, -1):
            w = mp.exp(j * mp.log(half) - half - mp.loggamma(j + 1)) if half else mp.mpf(j == 0)
            terms.append(w * p)
            # P(b + j - 1, y) = P(b + j, y) + y^(b+j-1) e^-y / Gamma(b + j)
            p += mp.exp((b + j - 1) * mp.log(xh) - xh - mp.loggamma(b + j))
        total = mp.fsum(terms)
        edge = max(terms[0], terms[-1] if lo > 0 else 0)
        if edge < mp.mpf("1e-45") * total:
            return total
        k *= 2


def one_dof_cdf(lam, x):
    """Phi(sqrt x - sqrt lam) - Phi(-sqrt x - sqrt lam) at 60 digits."""
    with mp.workdps(60):
        s_x, s_l = mp.sqrt(mp.mpf(x)), mp.sqrt(mp.mpf(lam))
        return mp.ncdf(s_x - s_l) - mp.ncdf(-s_x - s_l)


def series_rows():
    """(d, lam, x, cdf) of the rows in the Bessel series' domain."""
    for d in SERIES_DS:
        for lam in SERIES_LAMS:
            for share in SERIES_SHARES:
                x = lam / share
                if log_chernoff(d, lam, x) >= DEEP_LOG:
                    continue
                value = float(cdf(d, lam, x))
                if value >= sys.float_info.min:
                    yield d, lam, x, value


def quadrature_rows():
    """(d, lam, x, cdf) of the quadrature rows."""
    for d in QUAD_DS:
        for lam in QUAD_LAMS:
            for level in QUAD_LOGS:
                x = cut_x(d, lam, level)
                # (2, 3e4, e^-650) is among the rows far from both means
                if x <= 0.0 or (d in WALK_DS and lam in WALK_LAMS and level in WALK_LOGS):
                    continue
                value = float(cdf(d, lam, x))
                if value >= sys.float_info.min:
                    yield d, lam, x, value
    for d in NEAR_NORMAL_DS:
        x = cut_x(d, NEAR_NORMAL_LAM, NEAR_NORMAL_LOG)
        yield d, NEAR_NORMAL_LAM, x, float(cdf(d, NEAR_NORMAL_LAM, x))


def short_rows():
    """(d, lam, x, cdf) of the short-sum rows."""
    pairs = SHORT_PAIRS + [(1, lam, lam_x / lam)
                           for lam in SHORT_ONE_DOF_LAMS for lam_x in SHORT_LAM_X]
    for d, lam, x in pairs:
        yield d, lam, x, float(cdf(d, lam, x))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--new-only", action="store_true",
                    help="only the quadrature and short-sum rows")
    args = ap.parse_args()
    if not args.new_only:
        rows = list(EARLIER) + [(d, lam, cut_x(d, lam)) for lam in CUT_LAMS for d in CUT_DS]
        for d, lam, x in rows:
            print(f"    ({d}, {lam!r}, {x!r}, {float(cdf(d, lam, x))!r}),")
        print("# the Bessel series' domain")
        for d, lam, x, value in series_rows():
            print(f"    ({d}, {lam!r}, {x!r}, {value!r}),")
        print("# far from both Poisson means")
        for d in WALK_DS:
            for lam in WALK_LAMS:
                for level in WALK_LOGS:
                    x = cut_x(d, lam, level)
                    print(f"    ({d}, {lam!r}, {x!r}, {float(cdf(d, lam, x))!r}),")
    print("# the quadrature")
    for d, lam, x, value in quadrature_rows():
        print(f"    ({d}, {lam!r}, {x!r}, {value!r}),")
    print("# the short sum")
    for d, lam, x, value in short_rows():
        print(f"    ({d}, {lam!r}, {x!r}, {value!r}),")
    if args.new_only:
        return
    print("# LOWER_TAIL_ONE_DOF")
    for lam in ONE_DOF_LAMS:
        x = (math.sqrt(lam) - math.sqrt(200.0)) ** 2
        print(f"    (1, {lam!r}, {x!r}, {float(one_dof_cdf(lam, x))!r}),")

if __name__ == "__main__":
    main()
