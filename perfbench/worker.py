"""Runs one projlens workload inside this process.

    python3 perfbench/worker.py '<json: work, workload, seed, seconds, mode, trace_out>'

Modes:
  run    import projlens, build the inputs, then repeat the operation until
         ``seconds`` have passed (at least once), untraced.
  trace  the same, but rounds alternate untraced and traced, with spans at
         the layer boundaries (see tracer.py), and at least
         params.MIN_ROUNDS rounds; spans go to ``trace_out``.

Writes ``<work>/worker.json`` with the set-up time, each round's wall time and
outputs, and the peak resident memory of this process. run.py checks the
outputs; nothing here judges them. The set-up time runs from the first line
of this file, before numpy and projlens are imported.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

SRC = os.path.abspath("src")
sys.path.insert(0, SRC)

import params  # noqa: E402
from tracer import Tracer  # noqa: E402


def _size(args, kwargs, i, name):
    return int(np.size(kwargs[name] if name in kwargs else args[i]))


def _atoms(args, kwargs):
    model = kwargs["model"] if "model" in kwargs else args[0]
    return int(model.profile.sigmas.size)


def install_spans(tr: Tracer, with_cli: bool) -> None:
    """Wrap the module attributes through which one layer reaches the next."""
    from projlens import datasets, discrepancy, experiments, gaussmix, projection, special

    callers = [datasets, projection, discrepancy, experiments]
    if with_cli:
        from projlens import cli

        callers.append(cli)

    def each(attr, name, counts=None, modules=callers):
        for mod in modules:
            if hasattr(mod, attr):
                tr.wrap(mod, attr, name, counts)

    # special, reached from gaussmix and from the pairs fallback in special
    each("chisq_cdf", "special.chisq_cdf",
         lambda a, k, r: {"points": _size(a, k, 2, "x")}, [gaussmix, special])
    each("chisq_cdf_pairs", "special.chisq_cdf_pairs",
         lambda a, k, r: {"pairs": _size(a, k, 2, "x")}, [gaussmix])
    # gaussmix, reached from discrepancy
    each("mixture_masses_at", "gaussmix.mixture_masses_at",
         lambda a, k, r: {"atom_radii": _atoms(a, k) * _size(a, k, 2, "sq_radii")},
         [discrepancy])
    each("mixture_masses_pairs", "gaussmix.mixture_masses_pairs",
         lambda a, k, r: {"atom_balls": _atoms(a, k) * _size(a, k, 2, "radii")},
         [discrepancy])
    # discrepancy, reached from experiments, cli and the benchmark itself
    each("radial_sweep_sup", "discrepancy.radial_sweep_sup",
         lambda a, k, r: {"centers": r.params["n_centers"]})
    each("mc_ball_sup", "discrepancy.mc_ball_sup",
         lambda a, k, r: {"balls": r.params["n_balls"]})
    each("sup_over_net", "discrepancy.sup_over_net",
         lambda a, k, r: {"balls": r.params["n_balls"]})
    each("build_ball_net", "discrepancy.build_ball_net")
    # datasets
    for gen in ("gen_simplex", "gen_two_cluster", "gen_spherical"):
        each(gen, "datasets.gen")
    each("center", "datasets.center")
    each("profile", "datasets.profile", lambda a, k, r: {"atoms": int(r.sigmas.size)})
    each("spectrum", "datasets.spectrum")
    path_arg = {"load_points_csv": 0, "save_points_csv": 1}
    for attr, i in path_arg.items():
        each(attr, f"datasets.{attr}",
             lambda a, k, r, i=i: {"bytes": os.path.getsize(a[i])})
    # projection
    each("sample_projection", "projection.sample_projection")
    each("apply", "projection.apply")
    # experiments and cli, called by the benchmark
    each("run_decay", "experiments.run_decay", None, [experiments])
    if with_cli:
        each("main", "cli.main", None, [cli])


# ---------------------------------------------------------------- workloads


def setup_radial(seed, work):
    from projlens import datasets

    p = params.RADIAL
    raw = datasets.gen_two_cluster(p["D"], p["n"], p["s"], seed=seed)
    return _projected_state(raw, p["D"], p["d"], p["map_seed"])


def setup_mc(seed, work):
    from projlens import datasets

    p = params.MC
    parts = [
        datasets.gen_spherical(p["D"], p["n_per_scale"], datasets.AtomLaw(s), seed=3 * seed + i).data
        for i, s in enumerate(p["scales"])
    ]
    return _projected_state(datasets.PointCloud(np.vstack(parts)), p["D"], p["d"], seed)


def _projected_state(raw, D, d, map_seed):
    from projlens import datasets, gaussmix, projection

    src = datasets.center(raw)
    model = gaussmix.MixtureModel(datasets.profile(src), d)
    pmap = projection.sample_projection(d, D, map_seed)
    return {"raw": raw.data, "theta": pmap.theta, "proj": projection.apply(pmap, src),
            "model": model}


def op_radial(state, seed, work):
    from projlens import discrepancy

    report = discrepancy.radial_sweep_sup(state["proj"], state["model"])
    return [("radial", json.dumps(report.to_json(), sort_keys=True))]


def op_mc(state, seed, work):
    from projlens import discrepancy

    p = params.MC
    report = discrepancy.mc_ball_sup(state["proj"], state["model"], p["n_balls"], seed=p["ball_seed"])
    return [("mc", json.dumps(report.to_json(), sort_keys=True))]


def save_projected(state, seed, work):
    np.savez(os.path.join(work, "check.npz"), raw=state["raw"], theta=state["theta"],
             proj=state["proj"].data)


def setup_decay(seed, work):
    import projlens.experiments  # noqa: F401

    return {"out": os.path.join(work, "decay")}


def _run_decay(seed, threads):
    from projlens import experiments

    p = params.DECAY
    return experiments.run_decay(shape=p["shape"], d=p["d"], grid=p["grid"], estimator="radial",
                                 seed=seed, n_seeds=p["n_seeds"], threads=threads)


def op_decay(state, seed, work):
    from projlens import experiments

    paths = experiments.write_report(_run_decay(seed, 1), state["out"])
    return [("decay", json.dumps({p.name: p.read_text() for p in paths}, sort_keys=True))]


def save_decay_maps(state, seed, work):
    from projlens import projection

    p = params.DECAY
    maps = {
        f"theta_{D}_{s}": projection.sample_projection(p["d"], D, s).theta
        for D in p["grid"]
        for s in range(seed, seed + p["n_seeds"])
    }
    np.savez(os.path.join(work, "check.npz"), **maps)


def setup_cli(seed, work):
    from projlens import cli

    os.chdir(work)
    for argv in params.cli_gen_argv(seed):
        _cli_main(cli, argv)
    return {}


def op_cli(state, seed, work):
    from projlens import cli

    return [(label, _cli_main(cli, argv)) for label, argv in params.cli_cycle_argv(seed)]


def _cli_main(cli, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"projlens {' '.join(argv)} exited with {code}")
    return buf.getvalue()


WORKLOADS = {
    "radial-manyatom": (setup_radial, op_radial, save_projected),
    "decay-oneatom": (setup_decay, op_decay, save_decay_maps),
    "mc-scalemix": (setup_mc, op_mc, save_projected),
    "cli": (setup_cli, op_cli, None),
}

# ---------------------------------------------------------------- per-layer

# (span name, aggregate key, metric suffix); the metric is "<span>.<suffix>"
SPAN_METRICS = [
    ("special.chisq_cdf", "calls"), ("special.chisq_cdf", "points"),
    ("special.chisq_cdf", "self_s"),
    ("special.chisq_cdf_pairs", "calls"), ("special.chisq_cdf_pairs", "pairs"),
    ("special.chisq_cdf_pairs", "self_s"),
    ("gaussmix.mixture_masses_at", "calls"), ("gaussmix.mixture_masses_at", "atom_radii"),
    ("gaussmix.mixture_masses_at", "self_s"),
    ("gaussmix.mixture_masses_pairs", "calls"), ("gaussmix.mixture_masses_pairs", "atom_balls"),
    ("gaussmix.mixture_masses_pairs", "self_s"),
    ("discrepancy.radial_sweep_sup", "centers"), ("discrepancy.radial_sweep_sup", "self_s"),
    ("discrepancy.mc_ball_sup", "balls"), ("discrepancy.mc_ball_sup", "self_s"),
    ("discrepancy.sup_over_net", "balls"), ("discrepancy.sup_over_net", "self_s"),
    ("discrepancy.build_ball_net", "s"),
    ("datasets.load_points_csv", "s"), ("datasets.load_points_csv", "bytes"),
    ("datasets.save_points_csv", "s"), ("datasets.save_points_csv", "bytes"),
    ("datasets.gen", "s"), ("datasets.center", "s"), ("datasets.profile", "s"),
    ("datasets.profile", "atoms"), ("datasets.spectrum", "s"),
    ("projection.sample_projection", "s"), ("projection.apply", "s"),
    ("experiments.run_decay", "self_s"),
    ("cli.main", "self_s"),
]


def layer_metrics(tr: Tracer, rnd) -> dict:
    """Per-layer metrics of the set-up plus one traced round."""
    agg = tr.aggregate(["setup", rnd])
    out = {f"{span}.{key}": agg.get(span, {}).get(key, 0.0) for span, key in SPAN_METRICS}
    kernel_s = out["special.chisq_cdf.self_s"] + out["special.chisq_cdf_pairs.self_s"]
    evals = out["special.chisq_cdf.points"] + out["special.chisq_cdf_pairs.pairs"]
    out["special.evals_per_s"] = evals / kernel_s if kernel_s > 0 else 0.0
    decay_ids = {s["id"] for s in tr.spans
                 if s["name"] == "experiments.run_decay" and s["round"] == rnd}
    out["experiments.cells"] = sum(
        1 for s in tr.spans if s["parent"] in decay_ids and s["name"].startswith("discrepancy.")
    )
    return out


def _import_seconds() -> float:
    """Median wall time of ``python -c "import projlens"`` in a child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import projlens"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


# ---------------------------------------------------------------- main


def main(cfg: dict) -> dict:
    work, name, seed, mode = cfg["work"], cfg["workload"], cfg["seed"], cfg["mode"]
    setup, op, save_check = WORKLOADS[name]
    import projlens  # noqa: F401  (the import is part of the set-up time)

    tr = None
    if mode == "trace":
        tr = Tracer()
        install_spans(tr, with_cli=(name == "cli"))
        tr.enabled = True
    state = setup(seed, work)
    result = {"setup_s": time.perf_counter() - T0}

    min_rounds = params.MIN_ROUNDS if tr else 1
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < cfg["seconds"]:
        traced = tr is not None and len(rounds) % 2 == 1
        if tr:
            tr.round, tr.enabled = len(rounds), traced
        t = time.perf_counter()
        outputs = op(state, seed, work)
        wall = time.perf_counter() - t
        if tr:
            tr.enabled = False
        rounds.append({"traced": traced, "wall": wall, "outputs": outputs})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rounds"] = rounds

    if tr:
        tr.restore()
        traced = [i for i, r in enumerate(rounds) if r["traced"]]
        per_round = [layer_metrics(tr, i) for i in traced]
        layers = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
        # round 0 also pays first-call costs, so it is left out of the
        # untraced side unless it is the only untraced round
        untraced = [r["wall"] for r in rounds[2:] if not r["traced"]] or [rounds[0]["wall"]]
        layers["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in rounds if r["traced"])
            - statistics.median(untraced)
        )
        layers["experiments.threads1_s"] = layers["experiments.threads2_s"] = 0.0
        if name == "decay-oneatom":
            for threads in (1, 2):
                t = time.perf_counter()
                _run_decay(seed, threads)
                layers[f"experiments.threads{threads}_s"] = time.perf_counter() - t
        layers["cli.import_s"] = _import_seconds() if name == "cli" else 0.0
        result["layers"] = layers
        tr.write_jsonl(cfg["trace_out"])
    if save_check is not None:
        save_check(state, seed, work)
    return result


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    out = main(config)
    with open(os.path.join(config["work"], "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
