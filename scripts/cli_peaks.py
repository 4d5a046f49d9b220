"""Peak RSS and wall time of each child of the benchmark's cli workload.

    python scripts/cli_peaks.py [--seeds N [N ...]] [--simplex-dim D]

For each seed (default 1), in a new scratch directory, runs the cli
workload's children the way ``perfbench/run.py`` runs them: the two set-up
``gen`` commands, then one cycle (``discrepancy`` mc and net), then the two
untimed ``project`` commands its checks run (``project-twocluster`` and
``project-simplex``). Each child is its own ``python -m projlens`` process
on the package in this checkout's ``src``, run one at a time. Prints one
``seed label wall_s maxrss_mb`` line per child, the peak from ``ru_maxrss``
of that child alone. The command lines come from ``perfbench/params.py``,
read only; ``--simplex-dim`` replaces the simplex's dimension (default: the
benchmark's) to see how a peak grows with the cloud. Standard library only;
a child that fails stops the script.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_child(argv: list[str], cwd: str, env: dict) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one ``python -m projlens`` child."""
    err_path = os.path.join(cwd, "child.err")
    with open(err_path, "wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "projlens"] + argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t
    if os.waitstatus_to_exitcode(status) != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            raise SystemExit(f"projlens {' '.join(argv)} failed:\n{fh.read()[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description="Peak RSS of each cli benchmark child.")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1], help="workload seeds")
    parser.add_argument("--simplex-dim", type=int, help="simplex dimension D")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    # read perfbench/ only: leave no bytecode cache there
    sys.dont_write_bytecode = True
    import params

    if args.simplex_dim is not None:
        params.CLI_SIMPLEX_D = args.simplex_dim
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    print("seed label wall_s maxrss_mb")
    for seed in args.seeds:
        children = [(f"gen-{argv[argv.index('--shape') + 1]}", argv)
                    for argv in params.cli_gen_argv(seed)]
        children += params.cli_cycle_argv(seed)
        children += [(f"project-{argv[argv.index('--in') + 1].removesuffix('.csv')}", argv)
                     for argv in params.cli_project_argv(seed)]
        with tempfile.TemporaryDirectory() as work:
            for label, argv in children:
                wall, mb = run_child(argv, work, env)
                print(f"{seed} {label} {wall:.3f} {mb:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
