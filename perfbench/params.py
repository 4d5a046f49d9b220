"""Sizes and command lines of the four workloads, shared by run.py and worker.py.

Each operation is sized to take a few seconds on a 2-core machine, so that one
run of the benchmark holds several operations and reports their median.
"""

# radial-manyatom: radial_sweep_sup at its default centers (points + origin)
# on a centred two-cluster cloud; every point is its own profile atom. The
# projected cluster centres sit at +-2 theta[:, 0], whose norm is a chi
# variable with 2 degrees of freedom, and the noncentralities, so the kernel's
# cost, follow it: with the map drawn from --seed the operation took 1.8 s to
# 2.6 s over five seeds. The map seed is therefore fixed, at one whose norm
# (1.18) is near that law's median; --seed draws the cloud.
RADIAL = {"D": 50, "n": 50, "s": 4.0, "d": 2, "map_seed": 14}

# decay-oneatom: run_decay on the simplex, whose profile is one atom.
DECAY = {"shape": "simplex", "d": 1, "grid": (100, 200, 400), "n_seeds": 2}

# mc-scalemix: mc_ball_sup at its default box on a spherical cloud made of
# equal thirds at the scales below. The ball stream has a fixed seed whose
# first two centers lie at norm 4.0 and 4.6, so lam = |c|^2 / sigma^2 reaches
# about 1500 for the sigma = 0.1 atoms whatever the cloud seed: every run
# takes the per-pair fallback of chisq_cdf_pairs (lam >= 700).
MC = {"D": 200, "n_per_scale": 150, "scales": (0.1, 1.0, 3.0), "d": 2,
      "n_balls": 2, "ball_seed": 2}

# cli: two generated CSVs, then one cycle = one mc and one net command.
CLI_TWOCLUSTER = {"D": 50, "n": 2000, "s": 4.0}
CLI_SIMPLEX_D = 1000
CLI_MC_BALLS = 1000


def cli_gen_argv(seed: int) -> list[list[str]]:
    """The set-up commands: the two input CSVs."""
    tc = CLI_TWOCLUSTER
    return [
        ["gen", "--shape", "twocluster", "--dim", str(tc["D"]), "--n", str(tc["n"]),
         "--s", str(tc["s"]), "--seed", str(seed), "--out", "twocluster.csv"],
        ["gen", "--shape", "simplex", "--dim", str(CLI_SIMPLEX_D), "--out", "simplex.csv"],
    ]


def cli_cycle_argv(seed: int) -> list[tuple[str, list[str]]]:
    """One timed cycle: (label, argv) of each command, in order."""
    return [
        ("mc", ["discrepancy", "--in", "twocluster.csv", "--d", "2", "--estimator", "mc",
                "--n-balls", str(CLI_MC_BALLS), "--seed", str(seed)]),
        ("net", ["discrepancy", "--in", "simplex.csv", "--d", "1", "--estimator", "net",
                 "--seed", str(seed)]),
    ]


def cli_project_argv(seed: int) -> list[list[str]]:
    """Projections the checks re-evaluate witnesses against (untimed)."""
    return [
        ["project", "--in", "twocluster.csv", "--d", "2", "--seed", str(seed),
         "--out", "twocluster_proj.csv"],
        ["project", "--in", "simplex.csv", "--d", "1", "--seed", str(seed),
         "--out", "simplex_proj.csv"],
    ]


# An untraced run of an in-process workload splits the run length over this
# many fresh worker processes, run one after another. Each sets up on its own
# (setup_s is their median), and the median operation time then spans the
# speed differences between processes as well as between repeats.
WORKERS = 3
# cli: set-ups per run (setup_s is their median)
SETUP_SAMPLES = 3
# fewest operations per traced run, and fewest cycles per cli run
MIN_ROUNDS = 3
