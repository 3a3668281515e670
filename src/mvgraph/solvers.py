"""Iterative schemes for the graph denoising models.

Both schemes move every active vertex simultaneously, reading only the
previous iterate (two-buffer Jacobi-style sweeps):

* explicit: ``f_{n+1}(u) = exp_{f_n(u)}( -dt * R(u) )``
* jacobi:   ``f_{n+1}(u) = exp_{f_n(u)}( -R(u) / (lam + sum_v b(u,v)) )``

where ``R(u) = -sum_v b(u,v) log_{f_n(u)} f_n(v) - lam log_{f_n(u)} f0(u)``
is the model's residual (``calculus.residual``): the edge coefficients
``b`` absorb the p-Laplacian weights, are smoothed for p < 2 and vanish on
edges with an inactive endpoint.  On graphs with symmetric weights the
explicit scheme is the descent flow of the model energy with each
undirected edge counted once (half the energy at fidelity ``2 lam``), and
a vanishing ``R`` is the stationarity condition.

Stopping: after each sweep the mean geodesic change over active vertices is
compared against ``stop_tol``; the run also ends at ``max_iters``.  The
change of a vertex is the geodesic length of its step v, ``d(f(u),
exp_{f(u)} v) = ||v||`` (wrapped into [0, pi] on the circle and the
sphere), which the exponential computes anyway.  A small jacobi change
alone certifies nothing: the step is ``-R / (lam + sum b)``, and a large
damping ``sum b`` (p < 2 near collapsed regions) makes it small while ``R``
is not.  A jacobi run that meets the change test therefore ends
with ``reason="converged"`` only if ``max ||R|| <=
JACOBI_RESIDUAL_FACTOR * lam * stop_tol`` at that iterate, and with
``reason="stalled"`` otherwise.  The explicit change is the mean of
``dt * ||R||``, which bounds the mean residual but not the largest: one
moving vertex among n makes a change n times smaller than its own step.
An explicit run that meets the change test therefore ends with
``reason="converged"`` only if ``max ||R|| <= EXPLICIT_RESIDUAL_FACTOR *
stop_tol / dt``, dt that of the last sweep (a sweep halved many times
makes a small change without being near a fixed point), and with
``reason="stalled"`` otherwise.

The sweep runs on component rows (``manifolds``: one contiguous row per
component, the vertex axis last; six rows for an Spd(3) matrix): ``solve``
converts the iterate and the data to rows once when it starts, and the
result back once when it ends, writing only the active vertices into a copy
of the start values.  Each public step converts once in and once out.

One sweep function serves ``solve``, ``explicit_step`` and ``jacobi_step``:
it computes ``R`` and the step direction once from the current iterate's
pass, takes the exponential, checks that the new iterate is finite at its
active vertices, then runs the new iterate's pass.  That pass is the
iterate's edge logs and distances and its fidelity logs and distances, read
at its point state (on Spd its roots x^{+-1/2}, which the row function
takes once).  Its edge part runs in the graph's paired layout
(``WeightedGraph.paired_edges``) and evaluates each reverse pair once: the
reverse edge's log follows from its pair's (``calculus`` conventions), and
so do its coefficient ``b`` and energy term where the pair's two weights
agree.  The edge part is the admissibility check (an active edge beyond
the injectivity bound raises an injectivity error); in ``solve`` the whole
pass is the next sweep's ``R``, the energy-trace entry and the final
residual: one pass per iterate, freed once ``R`` is taken.  With
``halve_dt_on_injectivity`` a violating explicit sweep of ``solve`` redoes
the exponential, the check and the edge pass at halved dt; ``dt_trace``
records the dt each sweep used.
An antipodal iterate/datum pair in the fidelity term raises an injectivity
error that is never halved.  Public steps never halve.  A non-finite iterate
or a failing eigensolver raises ``DivergenceError`` naming the sweep or
step.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .calculus import (EPS_SMOOTH_DEFAULT, _edge_logs, _energy,
                       _iterate_pass, _residual, _scatter)
from .errors import ConfigError, DivergenceError, DomainError, InjectivityError
from .fields import VertexFunction
from .graphs import WeightedGraph

JACOBI_MIN_LAM = 1e-6
# A jacobi stop counts as converged only if max ||R|| <= this * lam * stop_tol.
JACOBI_RESIDUAL_FACTOR = 1e3
# An explicit stop counts as converged only if max ||R|| <= this * stop_tol
# / dt.  Converging explicit runs on noisy images end with max ||R|| at 1.4
# to 5.4 times stop_tol / dt (the largest step over the mean one); a single
# moving vertex among 4,096 reads 700.
EXPLICIT_RESIDUAL_FACTOR = 100.0

_MODELS = ("aniso", "iso")
_SCHEMES = ("explicit", "jacobi")

_MAX_HALVINGS = 60


@dataclass
class SolverConfig:
    """Model and scheme parameters for :func:`solve`."""

    model: str = "aniso"
    p: float = 2.0
    lam: float = 1.0
    dt: float = 1e-3
    eps_smooth: float = EPS_SMOOTH_DEFAULT
    max_iters: int = 1000
    stop_tol: float = 1e-7
    scheme: str = "explicit"
    record_energy: bool = False
    halve_dt_on_injectivity: bool = False

    def validate(self):
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, "
                              f"got {self.model!r}")
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"scheme must be one of {_SCHEMES}, "
                              f"got {self.scheme!r}")
        for name in ("p", "lam", "dt", "eps_smooth", "stop_tol"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not self.p > 0:
            raise ConfigError("p must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.eps_smooth < 0:
            raise ConfigError("eps_smooth must be non-negative")
        if not float(self.max_iters).is_integer():     # also nan and inf
            raise ConfigError(f"max_iters must be a whole number, "
                              f"got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")
        if self.stop_tol < 0:
            raise ConfigError("stop_tol must be non-negative")
        if self.scheme == "explicit" and not self.dt > 0:
            raise ConfigError("the explicit scheme requires dt > 0")
        if self.scheme == "jacobi" and self.lam < JACOBI_MIN_LAM:
            raise ConfigError(
                "the jacobi linearization needs a data term: lam must be at "
                f"least {JACOBI_MIN_LAM:g} (use the explicit scheme for "
                "smaller lam)")


@dataclass
class SolveReport:
    """Diagnostics of one :func:`solve` run.

    ``change_trace`` holds each sweep's change: the mean over active
    vertices of the geodesic length of the step, which is the distance
    from the previous iterate.
    ``reason`` is ``"converged"`` (the change test held and the residual
    certificate of the scheme too), ``"stalled"`` (the change test held
    while ``residual_max`` is still above the certificate bound) or
    ``"max_iters"``.  ``residual_max`` is the largest ``||R||`` over active
    vertices at the returned iterate, ``residual(...).max_norm()``.
    ``dt_trace`` holds the dt each sweep used: ``cfg.dt`` unless
    ``halve_dt_on_injectivity`` halved it, ``log2(cfg.dt / dt)`` times.
    (The jacobi scheme takes no dt and reads ``cfg.dt`` throughout.)
    """

    iterations: int
    final_change: float
    change_trace: list = field(default_factory=list)
    dt_trace: list = field(default_factory=list)
    energy_trace: list | None = None
    residual_max: float = 0.0
    reason: str = "max_iters"


@contextmanager
def _diverging(label):
    """Quiet numpy's floating-point warnings, and raise a failing
    eigensolver as DivergenceError naming ``label``."""
    try:
        with np.errstate(all="ignore"):
            yield
    except np.linalg.LinAlgError as err:
        raise DivergenceError(f"{label} diverged: {err}") from err


def _sweep(label, graph, f, f0, cfg, scheme, passes=None, halve=False):
    """One sweep of ``scheme`` from the row function ``f`` (data ``f0``,
    in rows too), as ``(new, dt, change)``.

    ``passes`` is a list that holds the ``_iterate_pass`` of ``f`` alone.
    The sweep takes it out, so that no one holds it once ``R`` is taken,
    and puts that of ``new`` in its place.  A public step passes none; it
    checks the new iterate's edges only where the injectivity radius is
    finite.  ``change`` is the mean geodesic length of the steps over
    active vertices.  ``halve`` allows an explicit sweep to retry at
    halved dt (see the module docstring).
    """
    public = passes is None
    check_new = not public or np.isfinite(f.manifold.injectivity_radius)

    def finite_exp(s, v):
        y, t = f.manifold._exp_and_norm_rows(s, v)
        if np.isfinite(y).all():
            return y, t
        raise DivergenceError(f"{label} diverged: its iterate is not finite")

    with _diverging(label):
        it = _iterate_pass(graph, f, f0, cfg.lam) if public else passes.pop()
        R, b = _residual(graph, f, cfg.lam, cfg.p, cfg.model, cfg.eps_smooth,
                         it)
        if scheme == "jacobi":
            direction = -R / (cfg.lam + _scatter(graph, b))
        else:
            direction = -R
        # freed before the new edge pass, the sweep's memory peak
        del R, b, it
        dt = cfg.dt
        for _ in range(_MAX_HALVINGS):
            step = direction if scheme == "jacobi" else dt * direction
            rows, t = f._on_active(finite_exp, f.state, step, fill=f.rows)
            new = f.with_rows(rows)
            try:
                edges = _edge_logs(graph, new) if check_new else None
                break
            except InjectivityError:
                if scheme == "jacobi" or not halve:
                    raise
                dt *= 0.5
        else:
            raise InjectivityError(f"explicit sweep still inadmissible after "
                                   f"{_MAX_HALVINGS} dt halvings")
        # outside the retry: an antipodal datum is not halved away
        if not public:
            passes.append(_iterate_pass(graph, new, f0, cfg.lam, edges))
    t = t if f.mask is None else t[f.mask]
    return new, dt, float(np.mean(t)) if t.size else 0.0


def explicit_step(graph, f: VertexFunction, f0: VertexFunction,
                  cfg: SolverConfig) -> VertexFunction:
    """One explicit sweep ``exp_{f(u)}(-dt * R(u))`` over active vertices.

    Raises an injectivity error when the update leaves the admissible set.
    (Not validated against the config: ``dt = 0`` is the exact identity.)
    """
    return _public_step("explicit step", graph, f, f0, cfg, "explicit")


def jacobi_step(graph, f: VertexFunction, f0: VertexFunction,
                cfg: SolverConfig) -> VertexFunction:
    """One semi-implicit sweep ``exp_{f(u)}(-R(u) / (lam + sum_v b(u,v)))``.

    Raises an injectivity error when the update leaves the admissible set.
    """
    if cfg.lam <= 0:
        raise ConfigError("jacobi_step requires lam > 0")
    return _public_step("jacobi step", graph, f, f0, cfg, "jacobi")


def _public_step(label, graph, f, f0, cfg, scheme):
    """``_sweep`` from the vertex function f: f and f0 converted to rows
    once, the new iterate converted back once."""
    new = _sweep(label, graph, f._to_rows(), f0._to_rows(), cfg, scheme)[0]
    return f._with_rows(new.rows)


def solve(graph: WeightedGraph, f0: VertexFunction, cfg: SolverConfig,
          init: VertexFunction | None = None):
    """Run the configured scheme from ``init`` (default: the data ``f0``).

    Returns ``(f, report)``.  The energy trace (when recorded) holds the
    model energy of the start iterate and of every sweep's result.
    """
    cfg.validate()
    if f0.n_vertices != graph.n_vertices:
        raise DomainError("data length does not match the graph")
    if init is None:
        start = f0
    else:
        if init.manifold != f0.manifold or init.n_vertices != f0.n_vertices:
            raise DomainError("init must match the data's manifold and size")
        start = VertexFunction(f0.manifold, init.values, f0.mask,
                               validate=False)
    # the sweeps run on component rows, converted once here and once back;
    # the data shares the start rows but keeps no point state alive
    f = start._to_rows()
    data = f.with_rows(f.rows) if init is None else f0._to_rows()

    # the current iterate's pass, held in this list only (see _sweep)
    passes = [_iterate_pass(graph, f, data, cfg.lam)]
    etrace = None
    if cfg.record_energy:
        etrace = [_energy(graph, cfg.lam, cfg.p, cfg.model, passes[0].d,
                          passes[0].data_d)]

    changes = []
    dts = []
    reason = "max_iters"
    for k in range(1, int(cfg.max_iters) + 1):
        f, dt, change = _sweep(f"sweep {k}", graph, f, data, cfg,
                               cfg.scheme, passes,
                               cfg.halve_dt_on_injectivity)
        changes.append(change)
        dts.append(dt)
        if etrace is not None:
            etrace.append(_energy(graph, cfg.lam, cfg.p, cfg.model,
                                  passes[0].d, passes[0].data_d))
        if change < cfg.stop_tol:
            reason = "converged"
            break

    R, _ = _residual(graph, f, cfg.lam, cfg.p, cfg.model, cfg.eps_smooth,
                     passes[0])
    rmax = f.max_norm(R)
    if reason == "converged":
        bound = (JACOBI_RESIDUAL_FACTOR * cfg.lam * cfg.stop_tol
                 if cfg.scheme == "jacobi"
                 else EXPLICIT_RESIDUAL_FACTOR * cfg.stop_tol / dts[-1])
        if rmax > bound:
            reason = "stalled"
    report = SolveReport(iterations=len(changes),
                         final_change=changes[-1] if changes else 0.0,
                         change_trace=changes,
                         dt_trace=dts,
                         energy_trace=etrace,
                         residual_max=rmax,
                         reason=reason)
    return start._with_rows(f.rows), report
