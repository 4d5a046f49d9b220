"""Command-line front-end: dataset generation, projection, discrepancy
estimation, bound evaluation, and the figure-level experiments.

Exit codes: 0 success, 1 usage or parameter error, 2 data or IO error.
Every numeric value is printed in shortest round-trip decimal form, and any
run is reproducible from its command line and seed. --threads sets how many
experiment cells run at once; it never changes output bytes, and gen,
project, discrepancy and bounds accept it and ignore it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import shlex
import sys
import warnings
from pathlib import Path

from .bounds import (
    TailConstants,
    discrepancy_rate,
    fixed_ball_tail,
    inflation_delta,
    mixture_inflation_delta,
    smoothed_deviation_tail,
    uniform_ball_tail,
    vc_ball_rate,
)
from .datasets import (
    AtomLaw,
    CsvFormatError,
    PointCloud,
    PowerExponentialLaw,
    SizeLimitError,
    SpectrumSummary,
    _center_in_place,
    gen_cross_polytope,
    gen_cube,
    gen_simplex,
    gen_spherical,
    gen_two_cluster,
    load_points_csv,
    mean_eigenvalue,
    profile,
    save_points_csv,
    sigma_epsilon,
    spectrum,
)
from .discrepancy import (
    build_ball_net,
    mc_ball_sup,
    net_params_from_bounds,
    radial_sweep_sup,
    sup_over_net,
)
from .experiments import (
    EXPERIMENT_NAMES,
    mc_box,
    run_cube1d,
    run_decay,
    run_figure4,
    run_profile_table,
    run_residual_variance,
    run_twocluster,
    write_report,
)
from .gaussmix import MixtureModel
from .projection import (
    EigengapWarning,
    apply,
    orthonormalize,
    pca_project,
    sample_projection,
    save_projection_map,
)
from .stats import dip_statistic

GEN_SHAPES = ("simplex", "crosspolytope", "cube", "spherical", "twocluster")
# shapes whose centred covariance is a multiple of I, so lambda_max = lambda_avg
ISOTROPIC_SHAPES = ("simplex", "crosspolytope")
NET_MAX_D = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _strip_threads(tokens: list[str]) -> list[str]:
    """Drop --threads so the echoed command is identical across thread counts."""
    out = []
    skip = False
    for tok in tokens:
        if skip:
            skip = False
            continue
        if tok == "--threads":
            skip = True
            continue
        if tok.startswith("--threads="):
            continue
        out.append(tok)
    return out


def _build_cloud(shape: str, args) -> PointCloud:
    # an experiment's --seed is absent unless given; the generator's own
    # default then applies
    seeded = {"seed": args.seed} if "seed" in args else {}
    if shape in ("simplex", "crosspolytope") and args.n is not None:
        raise ValueError(f"the {shape} has a fixed row count and takes no --n")
    if shape == "simplex":
        return gen_simplex(args.dim)
    if shape == "crosspolytope":
        return gen_cross_polytope(args.dim)
    if shape == "cube":
        return gen_cube(args.dim, n=args.n, **seeded)
    if shape == "spherical":
        if args.n is None:
            raise ValueError("spherical needs --n")
        if args.law == "powerexp":
            law = PowerExponentialLaw(beta=args.beta, scale=args.scale)
        else:
            law = AtomLaw(sigma=args.sigma)
        return gen_spherical(args.dim, args.n, law, **seeded)
    if shape == "twocluster":
        if args.n is None:
            raise ValueError("twocluster needs --n")
        return gen_two_cluster(args.dim, args.n, args.s, **seeded)
    raise ValueError(f"unknown shape {shape!r}")


def _cmd_gen(args) -> int:
    cloud = _build_cloud(args.shape, args)
    save_points_csv(cloud, args.out)
    src = _center_in_place(cloud)
    prof = profile(src)
    if args.shape in ISOTROPIC_SHAPES:
        # the centred covariance is lambda_avg * I: no eigensolver needed
        lam = mean_eigenvalue(src)
        spect = SpectrumSummary(lam, lam, src.dim)
    else:
        spect = spectrum(src)
    _print_json(
        {
            "shape": args.shape,
            "dim": src.dim,
            "n": src.n,
            "atom_count": len(prof.atoms),
            "lambda_max": spect.lambda_max,
            "lambda_avg": spect.lambda_avg,
            "seed": args.seed,
            "out": str(args.out),
        }
    )
    return 0


def _map_paths(out: str) -> tuple[Path, Path]:
    base = Path(out)
    stem = base.with_suffix("") if base.suffix else base
    return Path(f"{stem}_map.csv"), Path(f"{stem}_map.json")


def _project_cloud(src: PointCloud, d: int, mode: str, seed: int):
    """Returns (projected cloud, map, eigengap notes)."""
    if mode == "pca":
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            proj, pmap = pca_project(src, d, seed=seed)
        notes = [str(w.message) for w in caught if issubclass(w.category, EigengapWarning)]
        return proj, pmap, notes
    pmap = sample_projection(d, src.dim, seed)
    if mode == "orthonormal":
        pmap = orthonormalize(pmap)
    return apply(pmap, src), pmap, []


def _cmd_project(args) -> int:
    src = _center_in_place(load_points_csv(args.infile))
    proj, pmap, notes = _project_cloud(src, args.d, args.mode, args.seed)
    save_points_csv(proj, args.out)
    map_csv, map_json = _map_paths(args.out)
    save_projection_map(pmap, map_csv, map_json)
    _print_json(
        {
            "n": proj.n,
            "d": proj.dim,
            "source_dim": src.dim,
            "mode": args.mode,
            "seed": args.seed,
            "dip_first_coordinate": dip_statistic(proj.data[:, 0]),
            "eigengap_warnings": notes,
            "out": str(args.out),
            "map_csv": str(map_csv),
            "map_json": str(map_json),
        }
    )
    return 0


def _cmd_discrepancy(args) -> int:
    if args.estimator == "net" and args.d > NET_MAX_D:
        print(
            f"error: the net estimator is not feasible for d > {NET_MAX_D} "
            "(ball count grows geometrically); use the mc estimator",
            file=sys.stderr,
        )
        return 1
    src = _center_in_place(load_points_csv(args.infile))
    prof = profile(src)
    lam_avg = mean_eigenvalue(src) if args.estimator == "net" else None
    proj, _, _ = _project_cloud(src, args.d, args.mode, args.seed)
    # the estimators need only the profile, lambda_avg and the projection:
    # the cloud is freed before they score
    del src
    model = MixtureModel(prof, args.d)
    if args.estimator == "net":
        npar = net_params_from_bounds(args.eps, sigma_epsilon(prof, args.eps), lam_avg, args.d)
        net = build_ball_net(args.d, npar.c, npar.eps_o)
        report = sup_over_net(proj, model, net)
    elif args.estimator == "radial":
        report = radial_sweep_sup(proj, model)
    else:
        box, max_radius = mc_box(model, args.center_box)
        if args.max_radius is not None:
            max_radius = args.max_radius
        report = mc_ball_sup(
            proj,
            model,
            args.n_balls,
            seed=args.seed,
            center_box=box,
            max_radius=max_radius,
        )
    report = dataclasses.replace(report, seed=args.seed)
    text = json.dumps(report.to_json(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_bounds(args) -> int:
    constants = TailConstants(c_exp=args.c_exp, c_poly=args.c_poly)
    delta = args.delta if args.delta is not None else mixture_inflation_delta(
        args.sigma_eps, args.d, args.eps
    )
    ecc = args.lambda_max / (args.sigma_eps * args.sigma_eps)
    npar = net_params_from_bounds(args.eps, args.sigma_eps, args.lambda_avg, args.d)
    _print_json(
        {
            "inputs": {
                "eps": args.eps,
                "d": args.d,
                "dim": args.dim,
                "sigma_eps": args.sigma_eps,
                "lambda_max": args.lambda_max,
                "lambda_avg": args.lambda_avg,
                "delta": delta,
                "c_exp": args.c_exp,
                "c_poly": args.c_poly,
            },
            "inflation_delta": inflation_delta(args.sigma_eps, args.d, args.eps),
            "mixture_inflation_delta": mixture_inflation_delta(
                args.sigma_eps, args.d, args.eps
            ),
            "smoothed_deviation_tail": smoothed_deviation_tail(
                args.eps, delta, args.dim, args.lambda_max
            ),
            "fixed_ball_tail": {
                "value": fixed_ball_tail(
                    args.eps, args.d, args.dim, args.sigma_eps, args.lambda_max, constants
                ),
                "surrogate": True,
            },
            "uniform_ball_tail": {
                "value": uniform_ball_tail(
                    args.eps,
                    args.d,
                    args.dim,
                    args.sigma_eps,
                    args.lambda_max,
                    args.lambda_avg,
                    constants,
                ),
                "surrogate": True,
            },
            "discrepancy_rate": discrepancy_rate(ecc, args.d, args.dim),
            "vc_ball_rate": vc_ball_rate(args.d, args.dim),
            "ecc": ecc,
            "ecc_linear": args.lambda_max / args.sigma_eps,
            "net_params": {"c": npar.c, "eps_o": npar.eps_o, "delta": npar.delta},
        }
    )
    return 0


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        grid = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be comma-separated integers, got {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("grid must be nonempty")
    return grid


def _experiment_cloud(args) -> PointCloud:
    if args.infile:
        return load_points_csv(args.infile)
    if args.shape:
        if args.shape == "spherical":
            raise ValueError("generate spherical data with gen, then pass --in")
        if args.dim is None:
            raise ValueError("--shape needs --dim")
        return _build_cloud(args.shape, args)
    raise ValueError("this experiment needs --in or --shape")


# each experiment's runner and the flags it takes on top of --seed, --threads
# and --out-dir; a runner that takes a cloud also gets the cloud's flags:
# --in, or gen's --shape, --dim, --n and --s
_EXPERIMENTS = {
    "figure4": (run_figure4, "--dim --d --n-balls --n-seeds"),
    "decay": (run_decay, "--shape --d --grid --estimator --n --n-balls --n-seeds"),
    "cube1d": (run_cube1d, "--grid --n --n-seeds"),
    "twocluster": (run_twocluster, "--s --dim --d --n --n-balls --eps --n-seeds"),
    "residual_variance": (run_residual_variance, "--rule --standardize"),
    "profile_table": (run_profile_table, ""),
}
# every runner flag; each dest is the runner's keyword
_RUNNER_FLAGS = {
    "--dim": {"dest": "D", "type": int, "help": "source dimension D"},
    "--d": {"type": int, "help": "projected dimension"},
    "--n": {"type": int, "help": "row count"},
    "--s": {"type": float, "help": "two-cluster separation"},
    "--shape": {"choices": GEN_SHAPES},
    "--grid": {"type": _parse_grid, "help": "comma-separated dimension grid"},
    "--estimator": {"choices": ("radial", "mc")},
    "--n-balls": {"type": int, "help": "mc ball count"},
    "--eps": {"type": float, "help": "eccentricity tightness level"},
    "--n-seeds": {"type": int, "help": "seed count, from --seed up"},
    "--rule": {"choices": ("least", "most"), "help": "coordinate order"},
    "--standardize": {"action": "store_true", "help": "scale coordinates to unit variance"},
}


def _takes(runner, keyword: str) -> bool:
    return keyword in inspect.signature(runner).parameters


def _cmd_experiment(args) -> int:
    runner = _EXPERIMENTS[args.name][0]
    # a runner flag that was not given is absent from args, so the runner's
    # default applies
    kwargs = {k: v for k, v in vars(args).items() if _takes(runner, k)}
    if _takes(runner, "cloud"):
        kwargs["cloud"] = _experiment_cloud(args)
    result = runner(**kwargs)
    command = shlex.join(["projlens"] + _strip_threads(args.argv_tokens))
    paths = write_report(result, args.out_dir, command)
    print(paths[-1].read_text(), end="")
    return 0


def _thread_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return n


def _add_common(sub: argparse.ArgumentParser, default=0) -> None:
    sub.add_argument("--seed", type=int, default=default, help="base seed (default 0)")
    _add_threads(sub, default)


def _add_threads(sub: argparse.ArgumentParser, default=0) -> None:
    sub.add_argument(
        "--threads",
        type=_thread_count,
        default=default,
        help="experiment cells run at once, 0 = one per CPU; other commands "
        "ignore it; never affects results",
    )


def _add_shape_flags(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("--shape", required=required, choices=GEN_SHAPES)
    sub.add_argument("--dim", required=required, type=int, help="source dimension D")
    sub.add_argument("--n", type=int, help="row count (shape dependent)")
    sub.add_argument("--s", type=float, default=4.0, help="two-cluster separation")


def _build_parser() -> _Parser:
    parser = _Parser(prog="projlens", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("gen", help="generate a dataset CSV")
    _add_shape_flags(gen, required=True)
    gen.add_argument("--law", choices=("atom", "powerexp"), default="atom")
    gen.add_argument("--sigma", type=float, default=1.0, help="atom law scale")
    gen.add_argument("--beta", type=float, default=1.0, help="power exponential shape")
    gen.add_argument("--scale", type=float, default=1.0, help="power exponential scale")
    gen.add_argument("--out", required=True, help="points CSV path")
    _add_common(gen)
    gen.set_defaults(func=_cmd_gen)

    proj = subs.add_parser("project", help="center and project a point CSV")
    proj.add_argument("--in", dest="infile", required=True)
    proj.add_argument("--d", required=True, type=int, help="target dimension")
    proj.add_argument("--mode", choices=("random", "orthonormal", "pca"), default="random")
    proj.add_argument("--out", required=True, help="projected CSV path")
    _add_common(proj)
    proj.set_defaults(func=_cmd_project)

    disc = subs.add_parser(
        "discrepancy", help="sup-over-balls distance between projection and prediction"
    )
    disc.add_argument("--in", dest="infile", required=True)
    disc.add_argument("--d", required=True, type=int)
    disc.add_argument("--estimator", required=True, choices=("net", "radial", "mc"))
    disc.add_argument("--mode", choices=("random", "orthonormal", "pca"), default="random")
    disc.add_argument("--eps", type=float, default=0.25, help="net tightness level")
    disc.add_argument("--n-balls", type=int, default=10_000, help="mc ball count")
    disc.add_argument("--center-box", type=float, help="mc center box half-width")
    disc.add_argument("--max-radius", type=float, help="mc maximum ball radius")
    disc.add_argument("--out", help="also write the report JSON here")
    _add_common(disc)
    disc.set_defaults(func=_cmd_discrepancy)

    bnd = subs.add_parser("bounds", help="evaluate every closed-form bound")
    bnd.add_argument("--eps", required=True, type=float)
    bnd.add_argument("--d", required=True, type=int, help="projected dimension")
    bnd.add_argument("--dim", required=True, type=int, help="source dimension D")
    bnd.add_argument("--sigma-eps", type=float, default=1.0)
    bnd.add_argument("--lambda-max", type=float, default=1.0)
    bnd.add_argument("--lambda-avg", type=float, default=1.0)
    bnd.add_argument("--delta", type=float, help="override the inflation margin")
    bnd.add_argument("--c-exp", type=float, default=1.0, help="surrogate tail constant")
    bnd.add_argument("--c-poly", type=float, default=1.0, help="surrogate net constant")
    # nothing here is random, so bounds takes no --seed
    _add_threads(bnd)
    bnd.set_defaults(func=_cmd_bounds)

    exp = subs.add_parser("experiment", help="run a named experiment suite")
    names = exp.add_subparsers(dest="name", required=True, parser_class=_Parser)
    for name in EXPERIMENT_NAMES:
        runner, flags = _EXPERIMENTS[name]
        # without abbreviations a flag this experiment does not take is
        # refused by name, not read as a prefix of one it does take
        sub = names.add_parser(name, allow_abbrev=False)
        if _takes(runner, "cloud"):
            sub.add_argument("--in", dest="infile", help="input points CSV")
            _add_shape_flags(sub, required=False)
        for flag in flags.split():
            sub.add_argument(flag, default=argparse.SUPPRESS, **_RUNNER_FLAGS[flag])
        sub.add_argument("--out-dir", default=".", help="artifact directory")
        _add_common(sub, default=argparse.SUPPRESS)
        sub.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    args.argv_tokens = tokens
    try:
        return args.func(args)
    except CsvFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
