"""One repetition of a workload in a fresh process.

Run by ``bench/run.py``; not meant to be called by hand.  The worker makes
the inputs (the recipe's generate and noise steps, plus the seeded input
change), notes the moment they are on disk, then runs the remaining recipe
steps through ``mvgraph.cli.main`` and writes what it saw to ``--result``:
per-step exit code, wall time and printed ``mse=``, the built graph's edge
count, its own peak resident memory, and either the calibration samples
(``bench/calibration.py``) or, with ``--trace``, the per-layer metrics.
Wall times exclude the time the calibration sampler took.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from calibration import Sampler
from workloads import WORKLOADS, n_setup_steps, recipe_steps

ROOT = Path(__file__).resolve().parent.parent
MSE_RE = re.compile(r"^mse=(\S+)$", re.MULTILINE)


def now():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_step(cli, argv, sampler):
    out = io.StringIO()
    busy = sampler.busy_s if sampler else 0.0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    dt = time.perf_counter() - t0
    if sampler:
        dt -= sampler.busy_s - busy
    found = MSE_RE.findall(out.getvalue())
    return {"cmd": argv[0], "rc": rc, "s": dt,
            "mse": float(found[-1]) if found else None}


def rotate_sphere_file(path, seed):
    """Turn every sphere2 value of an .mvd file by one seeded rotation."""
    from mvgraph.mvdio import load_mvd, save_mvd
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    rot = q * np.sign(np.diag(r))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    md = load_mvd(path)
    save_mvd(path, md.function.with_values(md.function.values @ rot.T),
             md.shape)


def peak_rss_mb():
    """High-water resident memory of this process's own address space.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` starts from the
    resident size of the parent that forked the process.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


def count_edges(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and line[0] != "#")


def src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "mvgraph").glob("*.py")))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="CLOCK_MONOTONIC reading just before launch")
    ap.add_argument("--part", choices=("setup", "build", "all"),
                    default="all", help="stop after the set-up, after the "
                    "first build-graph step, or run the whole recipe")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from mvgraph import cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    wl = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    steps = recipe_steps(ROOT, wl, out_dir, args.seed)
    n_setup = n_setup_steps(steps)

    sampler = None if args.trace else Sampler()
    with sampler or contextlib.nullcontext():
        done = [run_step(cli, argv, sampler) for argv in steps[:n_setup]]
        if wl.rotate and args.seed:
            rotate_sphere_file(out_dir / wl.rotate, args.seed)
        result = {"setup_s": now() - args.launched
                  - (sampler.busy_s if sampler else 0.0)}
        if args.part != "setup":
            for argv in steps[n_setup:]:
                step = run_step(cli, argv, sampler)
                step["pipeline"] = True
                done.append(step)
                if args.part == "build" and argv[0] == "build-graph":
                    break
    if args.part != "setup":
        graph = next(a for a in steps if a[0] == "build-graph")
        tsv = Path(graph[graph.index("--out") + 1])
        result["edges"] = count_edges(tsv) if tsv.is_file() else None

    result["steps"] = done
    result["peak_rss_mb"] = peak_rss_mb()
    if sampler is not None:
        result["cal_samples"] = sampler.samples
    if tracer is not None:
        result["layers"] = tracer.metrics(src_lines())
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
