"""Command-line front-end: dataset generation, projection, discrepancy
estimation, bound evaluation, and the figure-level experiments.

Exit codes: 0 success, 1 usage or parameter error, 2 data or IO error.
Every numeric value is printed in shortest round-trip decimal form, and any
run is reproducible from its command line and seed; --threads only changes
wall time, never output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    center,
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
    if shape == "simplex":
        return gen_simplex(args.dim)
    if shape == "crosspolytope":
        return gen_cross_polytope(args.dim)
    if shape == "cube":
        return gen_cube(args.dim, n=args.n, seed=args.seed)
    if shape == "spherical":
        if args.n is None:
            raise ValueError("spherical needs --n")
        if args.law == "powerexp":
            law = PowerExponentialLaw(beta=args.beta, scale=args.scale)
        else:
            law = AtomLaw(sigma=args.sigma)
        return gen_spherical(args.dim, args.n, law, seed=args.seed)
    if shape == "twocluster":
        if args.n is None:
            raise ValueError("twocluster needs --n")
        return gen_two_cluster(args.dim, args.n, args.s, seed=args.seed)
    raise ValueError(f"unknown shape {shape!r}")


def _cmd_gen(args) -> int:
    cloud = _build_cloud(args.shape, args)
    save_points_csv(cloud, args.out)
    src = center(cloud)
    prof = profile(src)
    spect = spectrum(src)
    _print_json(
        {
            "shape": args.shape,
            "dim": cloud.dim,
            "n": cloud.n,
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
    src = center(load_points_csv(args.infile))
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
    src = center(load_points_csv(args.infile))
    prof = profile(src)
    model = MixtureModel(prof, args.d)
    proj, _, _ = _project_cloud(src, args.d, args.mode, args.seed)
    if args.estimator == "net":
        npar = net_params_from_bounds(
            args.eps, sigma_epsilon(prof, args.eps), mean_eigenvalue(src), args.d
        )
        net = build_ball_net(args.d, npar.c, npar.eps_o)
        report = sup_over_net(proj, model, net, threads=args.threads)
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
            threads=args.threads,
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
        raise ValueError(f"grid must be comma-separated integers, got {text!r}")
    if not grid:
        raise ValueError("grid must be nonempty")
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


def _cmd_experiment(args) -> int:
    name = args.name
    grid = _parse_grid(args.grid) if args.grid else None
    common = {"seed": args.seed, "n_seeds": args.n_seeds, "threads": args.threads}
    if name == "figure4":
        result = run_figure4(
            D=args.dim if args.dim is not None else 1000,
            d=args.d if args.d is not None else 2,
            n_balls=args.n_balls if args.n_balls is not None else 10_000,
            center_box=args.center_box if args.center_box is not None else 4.0,
            max_radius=args.max_radius if args.max_radius is not None else 6.0,
            **common,
        )
    elif name == "decay":
        result = run_decay(
            shape=args.shape or "simplex",
            d=args.d if args.d is not None else 1,
            grid=grid or (100, 300, 1000, 3000),
            estimator=args.estimator,
            n=args.n,
            n_balls=args.n_balls if args.n_balls is not None else 4000,
            **common,
        )
    elif name == "cube1d":
        result = run_cube1d(
            grid=grid or (64, 256, 1024, 4096),
            n=args.n if args.n is not None else 5000,
            **common,
        )
    elif name == "twocluster":
        result = run_twocluster(
            s=args.s,
            D=args.dim if args.dim is not None else 50,
            d=args.d if args.d is not None else 2,
            n=args.n if args.n is not None else 2000,
            n_balls=args.n_balls if args.n_balls is not None else 2000,
            eps=args.eps if args.eps is not None else 0.1,
            **common,
        )
    elif name == "residual_variance":
        result = run_residual_variance(
            _experiment_cloud(args),
            rule=args.rule,
            standardize=args.standardize,
            seed=args.seed,
        )
    else:
        result = run_profile_table(_experiment_cloud(args), seed=args.seed)
    command = shlex.join(["projlens"] + _strip_threads(args.argv_tokens))
    paths = write_report(result, args.out_dir, command)
    print(paths[-1].read_text(), end="")
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    sub.add_argument(
        "--threads",
        type=int,
        default=0,
        help="worker threads, 0 = auto; never affects results",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="projlens", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("gen", help="generate a dataset CSV")
    gen.add_argument("--shape", required=True, choices=GEN_SHAPES)
    gen.add_argument("--dim", required=True, type=int, help="source dimension D")
    gen.add_argument("--n", type=int, help="row count (shape dependent)")
    gen.add_argument("--s", type=float, default=4.0, help="two-cluster separation")
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
    _add_common(bnd)
    bnd.set_defaults(func=_cmd_bounds)

    exp = subs.add_parser("experiment", help="run a named experiment suite")
    exp.add_argument("name", choices=EXPERIMENT_NAMES)
    exp.add_argument("--out-dir", default=".", help="artifact directory")
    exp.add_argument("--n-seeds", type=int, default=10)
    exp.add_argument("--in", dest="infile", help="input points CSV")
    exp.add_argument("--shape", choices=GEN_SHAPES)
    exp.add_argument("--dim", type=int)
    exp.add_argument("--d", type=int)
    exp.add_argument("--n", type=int)
    exp.add_argument("--n-balls", type=int)
    exp.add_argument("--center-box", type=float)
    exp.add_argument("--max-radius", type=float)
    exp.add_argument("--grid", help="comma-separated dimension grid")
    exp.add_argument("--estimator", choices=("radial", "mc"), default="radial")
    exp.add_argument("--s", type=float, default=4.0)
    exp.add_argument("--eps", type=float)
    exp.add_argument("--rule", choices=("least", "most"), default="least")
    exp.add_argument("--standardize", action="store_true")
    _add_common(exp)
    exp.set_defaults(func=_cmd_experiment)

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
