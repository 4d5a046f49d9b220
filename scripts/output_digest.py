"""Print a sha256 digest of every output of the benchmark's workloads.

    python scripts/output_digest.py

Runs each workload's operation of ``perfbench/worker.py`` once at seed 1, on
the package in this checkout's ``src``, and prints one ``workload label
sha256`` line per output. Two checkouts that print the same lines give the
same bytes on every workload. The decay summary's ``git_describe_or_version``
names the commit, so it is masked. Takes a few seconds.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def main() -> None:
    # worker.py puts the ./src of the working directory first on sys.path
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    # read perfbench/ only: leave no bytecode cache there
    sys.dont_write_bytecode = True
    import worker

    from projlens import experiments

    experiments._git_describe_or_version = lambda: "masked"
    for name, (setup, op, _) in worker.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as work:
            outputs = op(setup(SEED, work), SEED, work)
            os.chdir(ROOT)
        for label, text in outputs:
            print(name, label, hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
