"""Command line pipeline around the library.

Subcommands cover the full experiment loop: ``generate`` synthetic data,
``noise`` it, ``build-graph``, ``denoise``, ``eval`` (prints ``mse=...``),
``export`` for external viewers, and ``recipe`` to replay a shipped preset
pipeline.  Every command is deterministic given its seeds, so re-running a
pipeline reproduces its printed numbers exactly.

Exit codes: 0 success; 2 usage/configuration problems (including argparse
errors); 3 numerical/domain/file-format failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .graphs import (epsilon_ball_graph, grid_graph, knn_patch_graph,
                     load_edges_tsv, save_edges_tsv)
from .mvdio import (export_csv, export_ply, load_mvd, load_positions_tsv,
                    save_mvd, save_positions_tsv)
from .solvers import SolverConfig, solve
from .synthetics import (NOISE_KINDS, NoiseSpec, add_noise, gen_phase_image,
                         gen_s2_whirl, gen_spd_on_sphere, mse)


def _require(value, flag, kind):
    if value is None:
        raise ConfigError(f"--{flag} is required for --kind {kind}")
    return value


def _grid_shape_of(md, what):
    if len(md.shape) != 2:
        raise ConfigError(f"{what} needs a two-dimensional grid shape, "
                          f"file records {md.shape}")
    return md.shape


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_generate(args):
    shape = tuple(args.shape)
    if args.kind == "spd-sphere":
        if len(shape) != 1:
            raise ConfigError("--kind spd-sphere takes --shape N")
        pos, f = gen_spd_on_sphere(shape[0])
        save_mvd(args.out, f, shape)
        posfile = args.positions or Path(args.out).with_suffix(".positions.tsv")
        save_positions_tsv(posfile, pos)
        return
    if args.positions is not None:
        raise ConfigError("--positions output only applies to spd-sphere")
    if len(shape) != 2:
        raise ConfigError(f"--kind {args.kind} takes --shape H W")
    gen = gen_s2_whirl if args.kind == "s2whirl" else gen_phase_image
    save_mvd(args.out, gen(*shape), shape)


def _cmd_noise(args):
    md = load_mvd(args.inp)
    spec = NoiseSpec(kind=args.kind, sigma=args.sigma, rng_seed=args.seed)
    save_mvd(args.out, add_noise(md.function, spec), md.shape)


def _cmd_build_graph(args):
    md = load_mvd(args.inp)
    if args.kind == "grid4":
        h, w = _grid_shape_of(md, "grid4")
        g = grid_graph(h, w)
    elif args.kind == "knn-patch":
        k = _require(args.k, "k", args.kind)
        s = _require(args.patch, "patch", args.kind)
        g = knn_patch_graph(md.function, _grid_shape_of(md, "knn-patch"),
                            k, s, window=args.window)
    else:
        eps = _require(args.eps, "eps", args.kind)
        posfile = _require(args.positions, "positions", args.kind)
        pos = load_positions_tsv(posfile)
        if pos.shape[0] != md.function.n_vertices:
            raise ConfigError(f"{pos.shape[0]} positions for "
                              f"{md.function.n_vertices} vertices")
        g = epsilon_ball_graph(pos, eps, metric=args.metric,
                               weight_rule=args.weight_rule)
    save_edges_tsv(args.out, g)


def _cmd_denoise(args):
    md = load_mvd(args.inp)
    graph = load_edges_tsv(args.graph)
    cfg = SolverConfig(model=args.model, p=args.p, lam=args.lam, dt=args.dt,
                       eps_smooth=args.eps_smooth, max_iters=args.max_iters,
                       stop_tol=args.tol, scheme=args.scheme,
                       record_energy=args.trace is not None,
                       halve_dt_on_injectivity=args.halve_dt)
    f, report = solve(graph, md.function, cfg)
    save_mvd(args.out, f, md.shape)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write("iter,energy,avg_rel_change\n")
            fh.write(f"0,{report.energy_trace[0]!r},\n")
            rows = zip(report.energy_trace[1:], report.change_trace)
            for k, (e, c) in enumerate(rows, start=1):
                fh.write(f"{k},{e!r},{c!r}\n")


def _cmd_eval(args):
    a = load_mvd(args.a).function
    b = load_mvd(args.b).function
    print(f"mse={mse(a, b)!r}")


def _lattice_positions(shape):
    h, w = shape
    i, j = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # viewer axes: x = column, y up = top image row first, z = 0
    return np.stack([j.ravel(), (h - 1 - i).ravel(),
                     np.zeros(h * w)], axis=1).astype(np.float64)


def _cmd_export(args):
    md = load_mvd(args.inp)
    if args.format == "csv":
        export_csv(args.out, md.function)
        return
    if args.positions is not None:
        pos = load_positions_tsv(args.positions)
    elif len(md.shape) == 2:
        pos = _lattice_positions(md.shape)
    else:
        raise ConfigError("ply export needs --positions or a two-dimensional "
                          "grid shape in the input header")
    export_ply(args.out, md.function, pos)


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------

def _recipe_dir():
    return resources.files(__package__) / "recipes"


def available_recipes():
    return sorted(p.name[:-5] for p in _recipe_dir().iterdir()
                  if p.name.endswith(".json"))


def _cmd_recipe(args):
    path = _recipe_dir() / f"{args.name}.json"
    if not path.is_file():
        raise ConfigError(f"unknown recipe {args.name!r}; available: "
                          f"{', '.join(available_recipes())}")
    recipe = json.loads(path.read_text(encoding="utf-8"))
    if recipe.get("input") and args.inp is None:
        raise ConfigError(f"recipe {args.name!r} needs --in")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def fill(token):
        token = token.replace("{out}", str(out_dir))
        return token.replace("{in}", str(args.inp)) if args.inp else token

    for step in recipe["steps"]:
        argv = [fill(tok) for tok in step]
        print("+ mvgraph " + " ".join(argv), file=sys.stderr)
        rc = main(argv)
        if rc:
            return rc


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mvgraph",
        description="Pipelines for denoising manifold-valued data on graphs.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic test signal")
    g.add_argument("--kind", required=True,
                   choices=["s2whirl", "phase", "spd-sphere"])
    g.add_argument("--shape", required=True, type=int, nargs="+",
                   help="H W for images, N for spd-sphere")
    g.add_argument("--out", required=True)
    g.add_argument("--positions", default=None,
                   help="positions TSV target (spd-sphere only)")
    g.set_defaults(func=_cmd_generate)

    n = sub.add_parser("noise", help="apply seeded Riemannian noise")
    n.add_argument("--in", dest="inp", required=True)
    n.add_argument("--sigma", type=float, required=True)
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--kind", choices=list(NOISE_KINDS),
                   default="riemannian-gaussian")
    n.add_argument("--out", required=True)
    n.set_defaults(func=_cmd_noise)

    b = sub.add_parser("build-graph", help="construct a weighted graph")
    b.add_argument("--kind", required=True,
                   choices=["grid4", "knn-patch", "eps-ball"])
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--patch", type=int, default=None,
                   help="patch half-width s for knn-patch")
    b.add_argument("--window", type=int, default=None,
                   help="optional search half-width for knn-patch")
    b.add_argument("--eps", type=float, default=None)
    b.add_argument("--metric", choices=["arc", "euclidean"], default="arc")
    b.add_argument("--weight-rule", dest="weight_rule",
                   choices=["invsq", "unit"], default="invsq")
    b.add_argument("--positions", default=None)
    b.add_argument("--in", dest="inp", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build_graph)

    d = sub.add_parser("denoise", help="run a variational solver")
    d.add_argument("--in", dest="inp", required=True)
    d.add_argument("--graph", required=True)
    d.add_argument("--model", choices=["aniso", "iso"], default="aniso")
    d.add_argument("--p", type=float, default=2.0)
    d.add_argument("--lambda", dest="lam", type=float, default=1.0)
    d.add_argument("--scheme", choices=["explicit", "jacobi"],
                   default="explicit")
    d.add_argument("--dt", type=float, default=1e-3)
    d.add_argument("--eps-smooth", dest="eps_smooth", type=float, default=1e-7)
    d.add_argument("--max-iters", dest="max_iters", type=int, default=1000)
    d.add_argument("--tol", type=float, default=1e-7)
    d.add_argument("--trace", default=None,
                   help="write per-sweep energy/change CSV here; its "
                        "avg_rel_change column is the mean geodesic change "
                        "of a sweep over active vertices")
    d.add_argument("--halve-dt", dest="halve_dt", action="store_true",
                   help="retry an explicit sweep at halved dt instead of "
                        "failing on an injectivity violation")
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_denoise)

    e = sub.add_parser("eval", help="print mean squared geodesic error")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.set_defaults(func=_cmd_eval)

    x = sub.add_parser("export", help="convert to csv or ply")
    x.add_argument("--in", dest="inp", required=True)
    x.add_argument("--format", required=True, choices=["csv", "ply"])
    x.add_argument("--positions", default=None)
    x.add_argument("--out", required=True)
    x.set_defaults(func=_cmd_export)

    r = sub.add_parser("recipe", help="replay a shipped preset pipeline")
    r.add_argument("name")
    r.add_argument("--out-dir", dest="out_dir", required=True)
    r.add_argument("--in", dest="inp", default=None)
    r.set_defaults(func=_cmd_recipe)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse already printed its message
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        rc = args.func(args)
        return 0 if rc is None else int(rc)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DomainError, FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
