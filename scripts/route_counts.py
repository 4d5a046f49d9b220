"""Count the pairs each chi-square kernel route takes on the benchmark's workloads.

    python scripts/route_counts.py [--seed N]

Runs each workload's operation of ``perfbench/worker.py`` once at seed N
(default 1), on the package in this checkout's ``src``, as
``output_digest.py`` does, and prints one ``workload route pairs`` line per
route of ``special.chisq_cdf_pairs``, and one for the d = 1 closed form. The
kernel counts come from wrapping the route functions in
``projlens.special``'s globals, which the kernel calls:

- ``tiny``: pairs in the mask of ``_is_tiny``;
- ``erf-sum``, ``normal-tail``: pairs passed to ``_erf_sum`` and
  ``normal_tail_difference`` (d = 1);
- ``bessel-series``: pairs ``_bessel_series`` takes;
- ``short-sum``: deep pairs passed to ``_short_sum``, the ones outside
  ``_is_tiny``'s mask (the tiny pairs are counted as ``tiny``);
- ``chndtr``: pairs passed to ``scipy.special.chndtr``;
- ``convolution``: calls of ``_convolved`` for pairs where ``chndtr``
  returns nan, one pair each;
- ``deep-convolution``: calls of ``_convolved`` for deep pairs that neither
  the short sum nor the series takes, one pair each.

``closed-form`` counts the (live atom, ball) pairs that ``discrepancy``
passes to ``gaussmix.interval_masses``, the first pass of d = 1 estimates;
it wraps that name in ``projlens.discrepancy``. These pairs take no kernel
route, but for the few balls whose closed form is not finite.

Pairs at x <= 0, and deep pairs whose Chernoff bound is below the smallest
subnormal, take no route function and are not counted. Nothing is written
under ``perfbench/``. Takes a few seconds.
"""

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Counting:
    """scipy.special, but with ``chndtr`` counting its pairs."""

    def __init__(self, module, count):
        self._module, self._count = module, count

    def __getattr__(self, name):
        return getattr(self._module, name)

    def chndtr(self, x, d, lam):
        self._count(x)
        return self._module.chndtr(x, d, lam)


ROUTES = ("tiny", "erf-sum", "normal-tail", "bessel-series", "short-sum", "chndtr",
          "convolution", "deep-convolution", "closed-form")


def _install(special, discrepancy) -> dict:
    """Wrap each route function of ``special``, and the closed form that
    ``discrepancy`` calls; return the counts they add to, one per route."""
    import numpy as np

    counts = {}

    def add(route, pairs):
        counts[route] += int(pairs)

    def wrap(attr, route, pairs_of):
        inner = getattr(special, attr)

        def counted(*args):
            out = inner(*args)
            add(route, pairs_of(args, out))
            return out

        counts[route] = 0
        setattr(special, attr, counted)

    # unwrapped, so that the short-sum count below adds nothing to ``tiny``
    is_tiny = special._is_tiny
    wrap("_is_tiny", "tiny", lambda a, out: np.count_nonzero(out))
    wrap("_erf_sum", "erf-sum", lambda a, out: np.size(a[1]))
    wrap("normal_tail_difference", "normal-tail", lambda a, out: np.size(a[1]))
    wrap("_bessel_series", "bessel-series", lambda a, out: np.count_nonzero(out[0]))
    wrap("_short_sum", "short-sum", lambda a, out: np.count_nonzero(~is_tiny(a[1], a[2])))
    counts["chndtr"] = 0
    special.sps = _Counting(special.sps, lambda x: add("chndtr", np.size(x)))
    convolved = special._convolved

    def counted_convolved(d, lam, x, deep=False):
        add("deep-convolution" if deep else "convolution", 1)
        return convolved(d, lam, x, deep)

    counts["convolution"] = counts["deep-convolution"] = 0
    special._convolved = counted_convolved
    closed_form = discrepancy.interval_masses

    def counted_closed_form(model, c2, r2):
        add("closed-form", np.broadcast(c2, r2).size * np.count_nonzero(model.profile.sigmas))
        return closed_form(model, c2, r2)

    counts["closed-form"] = 0
    discrepancy.interval_masses = counted_closed_form
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description="Count kernel pairs per route on each workload.")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args()
    # worker.py puts the ./src of the working directory first on sys.path
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    # read perfbench/ only: leave no bytecode cache there
    sys.dont_write_bytecode = True
    import worker

    from projlens import discrepancy, special

    counts = _install(special, discrepancy)
    for name, (setup, op, _) in worker.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            state = setup(args.seed, work)
            # only the operation's pairs count
            counts.update(dict.fromkeys(counts, 0))
            op(state, args.seed, work)
            os.chdir(ROOT)
        for route in ROUTES:
            print(f"{name} {route} {counts[route]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
