"""Print a sha256 digest of every output of the benchmark's workloads.

    python scripts/output_digest.py [--seed N] [--against FILE]

Runs each workload's operation of ``perfbench/worker.py`` once at seed N
(default 1), on the package in this checkout's ``src``, and prints one
``workload label sha256`` line per output; the cli workload's lines also
cover the CSVs its set-up ``gen`` commands write, labelled by file name.
Two checkouts that print the same lines give the same bytes on every
workload at that seed. The decay summary's ``git_describe_or_version``
names the commit, so it is masked. Takes a few seconds.

With ``--against FILE`` (lines this script printed, say in another
checkout) it also compares: it names on stderr each output whose digest
differs from the saved one, or that only one side has, and exits 1 if there
is any.
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digests(lines) -> dict:
    """{(workload, label): sha256} of digest lines."""
    rows = (line.split() for line in lines if line.strip())
    return {(name, label): digest for name, label, digest in rows}


def main() -> int:
    parser = argparse.ArgumentParser(description="Digest every benchmark workload output.")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--against", metavar="FILE", help="saved digest lines to compare with")
    args = parser.parse_args()
    saved = None
    if args.against:
        with open(args.against) as f:
            saved = _digests(f)
    # worker.py puts the ./src of the working directory first on sys.path
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    # read perfbench/ only: leave no bytecode cache there
    sys.dont_write_bytecode = True
    import params
    import worker

    from projlens import experiments

    experiments._git_describe_or_version = lambda: "masked"
    lines = []
    for name, (setup, op, _) in worker.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            outputs = op(setup(args.seed, work), args.seed, work)
            if name == "cli":
                for argv in params.cli_gen_argv(args.seed):
                    out = argv[argv.index("--out") + 1]
                    with open(os.path.join(work, out), encoding="utf-8") as fh:
                        outputs.append((out, fh.read()))
            os.chdir(ROOT)
        for label, text in outputs:
            lines.append(f"{name} {label} {hashlib.sha256(text.encode()).hexdigest()}")
            print(lines[-1])
    if saved is None:
        return 0
    got = _digests(lines)
    differ = [key for key in {**saved, **got} if saved.get(key) != got.get(key)]
    for workload, label in differ:
        print(f"differs: {workload} {label}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
