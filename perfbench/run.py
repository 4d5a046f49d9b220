"""projlens benchmark: run one workload once and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a projlens checkout; projlens is imported from ./src.
Workloads (README.md in this directory says why each exists):

  radial-manyatom  radial_sweep_sup on a two-cluster cloud, one atom per point
  decay-oneatom    run_decay on the simplex (one atom), tables written
  mc-scalemix      mc_ball_sup on a three-scale spherical cloud
  cli              `python -m projlens discrepancy` children, mc and net

Every run is a closed loop: one operation (cli: one child) at a time, repeated
until S seconds have passed; untraced in-process workloads spread the S
seconds over params.WORKERS fresh processes, one after another. With
--trace 0 the last line holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Every output is checked against a
computation made apart from projlens (checks.py); an output that fails its
check, or differs from the first repeat, counts as a failed operation.
Scratch files go to .bench_out/work and are removed; traces and result
lines are kept under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import params

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# every child is killed once this many seconds of the run have passed
DEADLINE_S = 170.0
IN_PROCESS = ("radial-manyatom", "decay-oneatom", "mc-scalemix")


class BenchError(RuntimeError):
    pass


class Run:
    def __init__(self, args, root: str):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.tag = tag
        self.work = os.path.join(root, OUT_DIR, "work", f"{tag}-{os.getpid()}")
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def child(self, argv: list[str], cwd: str) -> tuple[float, float, str]:
        """Run one child to its end: (wall seconds, peak RSS in MB, stdout)."""
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}\n{tail}")
        with open(out_path, encoding="utf-8") as fh:
            return wall, usage.ru_maxrss / 1024.0, fh.read()

    def projlens(self, argv: list[str]) -> tuple[float, float, str]:
        return self.child([sys.executable, "-m", "projlens"] + argv, self.work)

    def worker(self, mode: str, seconds: float) -> dict:
        cfg = {"work": self.work, "workload": self.workload, "seed": self.seed,
               "seconds": seconds, "mode": mode,
               "trace_out": os.path.join(self.root, OUT_DIR, "trace", f"{self.tag}.jsonl")}
        self.child([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)], self.root)
        with open(os.path.join(self.work, "worker.json"), encoding="utf-8") as fh:
            return json.load(fh)


def run_in_process(run: Run) -> tuple[dict, list[float]]:
    if run.trace:
        return run.worker("trace", run.seconds), []
    parts = [run.worker("run", run.seconds / params.WORKERS) for _ in range(params.WORKERS)]
    res = {"rounds": [r for part in parts for r in part["rounds"]],
           "peak_rss_mb": max(part["peak_rss_mb"] for part in parts)}
    return res, [part["setup_s"] for part in parts]


def run_cli(run: Run) -> tuple[dict, list[float]]:
    """Untraced: every command is a child process. Traced: worker.py calls
    projlens.cli.main in its own process."""
    if run.trace:
        return run.worker("trace", run.seconds), []
    setups, rss = [], []
    for _ in range(params.SETUP_SAMPLES):
        total = 0.0
        for argv in params.cli_gen_argv(run.seed):
            wall, mb, _ = run.projlens(argv)
            total += wall
            rss.append(mb)
        setups.append(total)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < params.MIN_ROUNDS or time.perf_counter() - start < run.seconds:
        outputs, total = [], 0.0
        for label, argv in params.cli_cycle_argv(run.seed):
            wall, mb, out = run.projlens(argv)
            outputs.append((label, out))
            total += wall
            rss.append(mb)
        rounds.append({"traced": False, "wall": total, "outputs": outputs})
    return {"rounds": rounds, "peak_rss_mb": max(rss)}, setups


def judge(rounds: list[dict], check) -> tuple[int, int]:
    """(attempted, failed): an output fails its check or differs from the
    first output with the same label (repeats must be byte-identical)."""
    first, verdicts = {}, {}
    attempted = failed = 0
    for rnd in rounds:
        for label, text in rnd["outputs"]:
            attempted += 1
            if text not in verdicts:
                verdicts[text] = check(label, text)
            problems = list(verdicts[text])
            if first.setdefault(label, text) != text:
                problems.append("output differs from the first repeat")
            if problems:
                failed += 1
                print(f"failed {label}: {'; '.join(problems)}", file=sys.stderr)
    return attempted, failed


def make_checker(run: Run):
    """Returns (check(label, text) -> problems, problems with shared inputs)."""
    import numpy as np

    import checks

    if run.workload == "cli":
        for argv in params.cli_project_argv(run.seed):
            run.projlens(argv)
        inputs, shared = {}, []
        for label, stem in (("mc", "twocluster"), ("net", "simplex")):
            base = os.path.join(run.work, stem)
            X, points, problems = checks.cli_inputs(
                f"{base}.csv", f"{base}_proj.csv", f"{base}_proj_map.csv")
            inputs[label] = (X, points)
            shared += problems
        return (lambda label, text: checks.check_cli(text, *inputs[label])), shared

    data = dict(np.load(os.path.join(run.work, "check.npz")))
    if run.workload == "decay-oneatom":
        p = params.DECAY
        seeds = range(run.seed, run.seed + p["n_seeds"])
        cells = checks.decay_cells(data, p["grid"], seeds, p["d"])
        return (lambda label, text: checks.check_decay(text, cells, p["grid"], seeds)), []
    shared = checks.projection_problems(data["proj"], data["raw"], data["theta"])
    if run.workload == "radial-manyatom":
        return (lambda label, text: checks.check_radial(text, data, params.RADIAL["d"])), shared
    return (lambda label, text: checks.check_mc(text, data, params.MC["d"])), shared


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=IN_PROCESS + ("cli",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "projlens", "__init__.py")):
        print("error: run from the root of a projlens checkout (no src/projlens here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    run = Run(args, root)
    os.makedirs(run.work)
    os.makedirs(os.path.join(root, OUT_DIR, "trace"), exist_ok=True)
    try:
        if run.workload == "cli":
            res, setups = run_cli(run)
        else:
            res, setups = run_in_process(run)
        check, shared = make_checker(run)
        attempted, failed = judge(res["rounds"], check)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for problem in shared:
        print(f"check: {problem}", file=sys.stderr)

    if args.trace:
        values = res["layers"]
    else:
        values = {
            "op_s": statistics.median(r["wall"] for r in res["rounds"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        if m["unit"] in ("count", "bytes"):
            value = int(round(value))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": not shared, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    line = json.dumps(result)
    with open(os.path.join(root, OUT_DIR, f"result-{run.tag}.json"), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
