"""mvgraph benchmark: the shipped recipes end to end, and per layer.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload s2-flow --seed 0 --seconds 30 --trace 0

Each repetition runs in a fresh worker process (``bench/worker.py``) that
makes the workload's inputs and replays the recipe through
``mvgraph.cli.main``.  Repetitions run one after another, single-process,
while the next one is expected to end within ``--seconds`` (at least one).
Time left over is filled with repetitions that stop after the graph build,
then set-up-only processes bring the set-up samples to
``MIN_SETUP_SAMPLES``.  One untimed set-up runs first as a warm-up.

Times are calibrated (``bench/calibration.py``): every wall time, less the
calibration sampler's own time, is scaled by the reference duration of a
fixed task over that task's median duration in this run.  The uncalibrated
medians are printed too.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` runs an untraced repetition and at least two traced ones,
reports the per-layer metrics and the tracing overhead, and fails if any
count differs between the traced repetitions.

Human-readable lines go first; the last line of standard output is the
JSON result.  Exits 2 without a result when the checkout has no
``src/mvgraph``.  See ``bench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S
from tracer import is_count
from workloads import WORKLOADS, edges_ok, mse_ok

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".bench_work"

MIN_SETUP_SAMPLES = 9
DEADLINE_S = 170.0           # the whole run must end within 180 s

E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "build_graph_s": "s",
             "denoise_s": "s", "peak_rss_mb": "MB"}
STEP_METRIC = {"build-graph": "build_graph_s", "denoise": "denoise_s"}
UNSCALED = {task: 1.0 for task in REFERENCE_S}


def now():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Run:
    """One benchmark invocation: its repetitions and their checks."""

    def __init__(self, workload, seed):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.started = now()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work = WORK_DIR / f"{workload}-{os.getpid()}"
        self.env = worker_env()
        self.n_reps = 0
        self.mse = None             # printed mse= values of the first rep

    def elapsed(self):
        return now() - self.started

    def rep(self, part="all", trace=False):
        """Run one worker; return its checked result, or None if it failed."""
        self.n_reps += 1
        tag = f"{'trace' if trace else 'plain'}{self.n_reps}"
        result_file = self.work / f"{tag}.json"
        cmd = [sys.executable, str(WORKER), "--workload", self.name,
               "--seed", str(self.seed), "--out-dir", str(self.work / "io"),
               "--result", str(result_file), "--launched", repr(now())]
        cmd += ["--part", part] + ["--trace"] * trace
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  stdout=subprocess.DEVNULL,
                                  timeout=max(DEADLINE_S - self.elapsed(), 1))
            ok = proc.returncode == 0 and result_file.is_file()
        except subprocess.TimeoutExpired:
            ok = False
        if not ok:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"worker {tag} failed")
            return None
        res = json.loads(result_file.read_text(encoding="utf-8"))
        self.check(res)
        if self.mse is None and part == "all":
            self.mse = [s["mse"] for s in res["steps"] if s["cmd"] == "eval"]
        return res

    def check(self, res):
        """Count the worker's steps and the ones that failed."""
        n_mse = 0
        for step in res["steps"]:
            self.attempted += 1
            bad = step["rc"] != 0
            if step["cmd"] == "eval":
                value = step["mse"]
                bad = bad or value is None or not mse_ok(
                    self.wl, self.seed, n_mse, value)
                n_mse += 1
            if step["cmd"] == "build-graph":
                bad = bad or not edges_ok(self.wl, self.seed, res["edges"])
            if bad:
                self.failed += 1
                self.problems.append(f"step {step['cmd']} failed: {step}")

    def fits(self, last_s, budget_s, measure_start):
        """Whether one more repetition of ``last_s`` fits the budget."""
        return (now() - measure_start + last_s <= budget_s
                and self.elapsed() + 1.5 * last_s <= DEADLINE_S)


def worker_env():
    """Environment of the workers: BLAS/OpenMP threads at most nproc."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            n = int(env.get(var, nproc))
        except ValueError:
            n = nproc
        env[var] = str(min(max(n, 1), nproc))
    return env


def environment(run):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {k: run.env[k] for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
            "git_head": git_head(), "workload": run.name, "seed": run.seed}


def git_head():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return name


def step_times(res, wl, scale):
    """Seconds per end-to-end time metric of one full repetition.

    Each step's time is multiplied by ``scale`` of its calibration task.
    """
    out = dict.fromkeys(("pipeline_s", "build_graph_s", "denoise_s"), 0.0)
    for step in res["steps"]:
        if step.get("pipeline"):
            s = step["s"] * scale[wl.calibration_task(step["cmd"])]
            out["pipeline_s"] += s
            if step["cmd"] in STEP_METRIC:
                out[STEP_METRIC[step["cmd"]]] += s
    return out


def measure(run, seconds):
    """Repetitions of one run: the full ones, those that reached the graph
    build (full ones included) and all of them (for set-up)."""
    reps, builds, setups = [], [], []
    t0 = now()
    last = 0.0
    while not reps or run.fits(last, seconds, t0):
        start = now()
        res = run.rep()
        if res is None:
            return reps, builds, setups
        reps.append(res)
        builds.append(res)
        setups.append(res)
        last = now() - start
    # Time too short for one more full repetition is filled with
    # repetitions that stop after the graph build.
    steps = reps[-1]["steps"]
    k = next(i for i, s in enumerate(steps) if s["cmd"] == "build-graph")
    last -= sum(s["s"] for s in steps[k + 1:])
    while run.fits(last, seconds, t0):
        start = now()
        res = run.rep("build")
        if res is None:
            return reps, builds, setups
        builds.append(res)
        setups.append(res)
        last = now() - start
    while len(setups) < MIN_SETUP_SAMPLES and run.elapsed() < DEADLINE_S - 10:
        res = run.rep("setup")
        if res is None:
            break
        setups.append(res)
    return reps, builds, setups


def calibration_scale(setups):
    """Per task, its reference duration over its median duration in the run;
    None when the run has no samples of some task."""
    scale = {}
    for task, ref in REFERENCE_S.items():
        samples = [c for r in setups for c in r["cal_samples"][task]]
        if not samples:
            return None
        scale[task] = ref / statistics.median(samples)
        print(f"# calibration    task {task!r} median "
              f"{statistics.median(samples):.6g} s  n={len(samples)}  "
              f"scale {scale[task]:.6g}")
    return scale


def e2e_samples(run, reps, builds, setups, scale):
    """Samples of every end-to-end metric under one calibration scale."""
    times = [step_times(r, run.wl, scale) for r in reps]
    return {
        "setup_s": [r["setup_s"] * scale["vector"] for r in setups],
        "pipeline_s": [t["pipeline_s"] for t in times],
        "build_graph_s": [step_times(r, run.wl, scale)["build_graph_s"]
                          for r in builds],
        "denoise_s": [t["denoise_s"] for t in times],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }


def measure_traced(run, seconds):
    plain, traced = [], []
    t0 = now()
    last = 0.0
    order = [False, True, True]
    while order or run.fits(last, seconds, t0):
        trace = order.pop(0) if order else len(plain) >= len(traced)
        start = now()
        res = run.rep(trace=trace)
        if res is None:
            return None, None
        (traced if trace else plain).append(res)
        last = now() - start
    layers = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if is_count(name):
            if len(set(values)) != 1:
                run.problems.append(
                    f"count {name} differs between traced runs: {values}")
                run.failed += 1
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)

    def pipeline(reps):
        return statistics.median(
            step_times(r, run.wl, UNSCALED)["pipeline_s"] for r in reps)
    layers["trace.overhead_s"] = pipeline(traced) - pipeline(plain)
    return layers, {"plain": len(plain), "traced": len(traced)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "mvgraph" / "__init__.py").is_file():
        print(f"error: no mvgraph sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    run.work.mkdir(parents=True, exist_ok=True)
    metrics = {}
    try:
        print("# env " + json.dumps(environment(run)))
        run.rep(part="setup")               # warm-up, not counted
        run.attempted = run.failed = 0
        run.problems.clear()
        if args.trace:
            layers, counts = measure_traced(run, args.seconds)
            if layers is not None:
                print(f"# traced repetitions {counts['traced']}, "
                      f"untraced {counts['plain']}")
                metrics = {name: {"value": value, "unit": layer_unit(name)}
                           for name, value in layers.items()}
            for name, m in metrics.items():
                print(f"# {name:42s} {m['value']!r} {m['unit']}")
        else:
            reps, builds, setups = measure(run, args.seconds)
            scale = calibration_scale(setups) if reps else None
            if reps and scale is None:
                run.failed += 1
                run.problems.append("no calibration samples")
            if scale is not None:
                cal = e2e_samples(run, reps, builds, setups, scale)
                raw = e2e_samples(run, reps, builds, setups, UNSCALED)
                for name, unit in E2E_UNITS.items():
                    vals = cal[name]
                    metrics[name] = {"value": statistics.median(vals),
                                     "unit": unit}
                    print(f"# {name:14s} median {statistics.median(vals):.6g} "
                          f"{unit}  min {min(vals):.6g}  max {max(vals):.6g}  "
                          f"n={len(vals)}  (uncalibrated median "
                          f"{statistics.median(raw[name]):.6g})")
        print(f"# mse= {run.mse}")
        share = run.failed / run.attempted if run.attempted else 1.0
        print(f"# ops_failed     {share:.6g} (fraction)  "
              f"{run.failed} of {run.attempted} steps")
        for problem in run.problems:
            print(f"# FAILED: {problem}", file=sys.stderr)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    correct = run.failed == 0 and run.attempted > 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0


def layer_unit(name):
    if name.endswith(("_ms.p50", "_ms.p90")):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("peak_mb"):
        return "MB"
    if name.endswith("src_lines"):
        return "lines"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_edge_sweep"):
        return "rows/edge/sweep"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
