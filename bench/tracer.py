"""Per-layer tracing of mvgraph from outside the package.

``Tracer.install`` replaces the public functions of each layer module, the
public methods of every ``Manifold`` subclass and a few private solver entry
points with timing wrappers.  It rebinds every reference that any
``mvgraph`` module (or the package namespace) holds to the original
function, so calls that went through ``from .x import y`` are traced too.
Nothing under ``src/`` is edited; the wrappers live only in the traced
process.

Spans nest on one stack, and a layer's self time is its span's duration
minus the time of the spans it caused.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("manifolds", "fields", "calculus", "solvers", "graphs", "mvdio",
          "synthetics", "cli")
KERNEL_OPS = ("log_and_dist", "exp", "dist")
BUILDERS = ("knn_patch_graph", "epsilon_ball_graph", "grid_graph")
# Private entry points that own the per-sweep work; the public sweep
# functions (explicit_step, jacobi_step) are wrapped with the rest.
PRIVATE = {"solvers": ("_sweep",)}
SWEEP_SPANS = ("solvers._sweep", "solvers.explicit_step",
               "solvers.jacobi_step")

# Per-layer metrics that must repeat exactly at a fixed seed.
COUNT_SUFFIXES = (".rows", ".calls", ".edges", ".eigh_rows", ".sweeps",
                  ".sweep_attempts", ".src_lines", "_per_edge_sweep")


class _LinalgProxy:
    """``numpy.linalg`` with ``eigh`` counting the matrices it is given."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(np.linalg, name)

    def eigh(self, a, *args, **kwargs):
        a = np.asarray(a)
        self._tracer.eigh_rows += a.size // (a.shape[-1] * a.shape[-2])
        return np.linalg.eigh(a, *args, **kwargs)


class _NumpyProxy:
    """The ``np`` seen by ``mvgraph.manifolds`` in a traced process."""

    def __init__(self, tracer):
        self.linalg = _LinalgProxy(tracer)

    def __getattr__(self, name):
        return getattr(np, name)


class Tracer:
    """Span and count accumulator for one traced process."""

    def __init__(self):
        self._child = []            # child-time accumulator per open span
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.rows = Counter()
        self.sweep_ms = []
        self.eigh_rows = 0
        self.solve_depth = 0
        self.solve_dist_rows = 0    # log_and_dist + dist rows inside solve
        self.edge_sweeps = 0        # sum over solves of edges * sweeps
        self.builder_peak_mb = 0.0
        self.edges = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._child.pop()
            self.self_s[name] += dt - child
            self.total_s[name] += dt
            self.calls[name] += 1
            if self._child:
                self._child[-1] += dt
            if name == "solvers._sweep":
                self.sweep_ms.append(dt * 1e3)

    def _wrap_function(self, name, fn):
        if name.startswith("graphs.") and name.split(".")[1] in BUILDERS:
            return self._wrap_builder(name, fn)
        if name == "solvers.solve":
            return self._wrap_solve(name, fn)
        if name == "fields.check_admissible":
            return self._wrap_check_admissible(name, fn)

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        return traced

    def _wrap_builder(self, name, fn):
        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                g = self._span(name, fn, args, kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.builder_peak_mb = max(self.builder_peak_mb, peak / 2**20)
            self.edges += g.n_edges
            return g
        return traced

    def _wrap_solve(self, name, fn):
        def traced(graph, *args, **kwargs):
            self.solve_depth += 1
            try:
                out = self._span(name, fn, (graph,) + args, kwargs)
            finally:
                self.solve_depth -= 1
            self.edge_sweeps += graph.n_edges * out[1].iterations
            return out
        return traced

    def _wrap_check_admissible(self, name, fn):
        active_edge_mask = importlib.import_module(
            "mvgraph.fields").active_edge_mask

        def traced(graph, f, *args, **kwargs):
            ae = active_edge_mask(graph, f)
            self.rows[name] += graph.n_edges if ae is None \
                else int(np.count_nonzero(ae))
            return self._span(name, fn, (graph, f) + args, kwargs)
        return traced

    def _wrap_method(self, kind, op, fn):
        name = f"manifolds.{kind}.{op}"
        counts_dist = op in ("log_and_dist", "dist")

        def traced(obj, x, *args, **kwargs):
            lead = np.ndim(x) - len(obj.point_shape)
            n = int(np.prod(np.shape(x)[:lead])) if lead > 0 else 1
            self.rows[name] += n
            if counts_dist and self.solve_depth:
                self.solve_dist_rows += n
            return self._span(name, fn, (obj, x) + args, kwargs)
        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layers of the already importable ``mvgraph`` package."""
        mods = {layer: importlib.import_module(f"mvgraph.{layer}")
                for layer in LAYERS}
        swaps = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_")
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (public or attr in PRIVATE.get(layer, ()))):
                    swaps[id(obj)] = self._wrap_function(f"{layer}.{attr}",
                                                         obj)
        base = mods["manifolds"].Manifold
        for cls in _subclasses(base):
            for op, fn in inspect.getmembers(cls, inspect.isfunction):
                if not op.startswith("_"):
                    setattr(cls, op, self._wrap_method(cls.kind, op, fn))
        for mod in [m for n, m in sys.modules.items()
                    if n == "mvgraph" or n.startswith("mvgraph.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swaps:
                    setattr(mod, attr, swaps[id(obj)])
        mods["manifolds"].np = _NumpyProxy(self)

    # -- report --------------------------------------------------------------

    def metrics(self, src_lines):
        """Per-layer metrics of this process, keyed as in BENCHMARK.json.

        Kernel metrics are summed over manifold kinds and graph metrics over
        builders: every workload uses exactly one kind and one builder, so
        the workload names them.  Layers that a workload may never call are
        reported as their total time's share of the solve time, which is
        honestly 0 there.
        """
        out = {}
        for op in KERNEL_OPS:
            spans = [k for k in self.calls
                     if k.startswith("manifolds.") and k.count(".") == 2
                     and k.endswith("." + op)]
            out[f"manifolds.{op}.rows"] = sum(self.rows[k] for k in spans)
            out[f"manifolds.{op}.self_s"] = sum(self.self_s[k] for k in spans)
        out["manifolds.spd.eigh_rows"] = self.eigh_rows
        out["manifolds.dist_rows_per_edge_sweep"] = (
            self.solve_dist_rows / self.edge_sweeps if self.edge_sweeps
            else 0.0)
        solve_s = self.total_s["solvers.solve"]
        for name in ("fields.check_admissible", "calculus.energy_aniso"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.solve_pct"] = (100 * self.total_s[name] / solve_s
                                        if solve_s else 0.0)
        out["fields.check_admissible.rows"] = self.rows[
            "fields.check_admissible"]
        out["calculus.edge_logs.calls"] = self.calls["calculus.edge_logs"]
        out["calculus.edge_logs.self_s"] = self.self_s["calculus.edge_logs"]
        out["solvers.sweeps"] = self.calls["solvers._sweep"]
        out["solvers.sweep_attempts"] = (self.calls["solvers.explicit_step"]
                                         + self.calls["solvers.jacobi_step"])
        out["solvers.sweep_ms.p50"] = _percentile(self.sweep_ms, 50)
        out["solvers.sweep_ms.p90"] = _percentile(self.sweep_ms, 90)
        out["solvers.sweep.self_s"] = sum(self.self_s[n] for n in SWEEP_SPANS)
        out["solvers.solve.self_s"] = self.self_s["solvers.solve"]
        out["graphs.build.s"] = sum(self.self_s[f"graphs.{b}"]
                                    for b in BUILDERS)
        out["graphs.build.peak_mb"] = self.builder_peak_mb
        out["graphs.edges"] = self.edges
        for name in ("graphs.save_edges_tsv", "graphs.load_edges_tsv",
                     "mvdio.load_mvd", "mvdio.save_mvd"):
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        out["synthetics.s"] = _layer_self(self.self_s, "synthetics")
        out["cli.self_s"] = _layer_self(self.self_s, "cli")
        out["code.src_lines"] = src_lines
        return out


def is_count(name):
    """True for per-layer metrics that are deterministic at a fixed seed."""
    return name.endswith(COUNT_SUFFIXES)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _layer_self(self_s, layer):
    return sum(v for k, v in self_s.items() if k.startswith(layer + "."))


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
