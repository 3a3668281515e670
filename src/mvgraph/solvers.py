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
compared against ``stop_tol``; the run also ends at ``max_iters``.  A small
jacobi change alone certifies nothing: the step is ``-R / (lam + sum b)``,
and a large damping ``sum b`` (p < 2 near collapsed regions) makes it small
while ``R`` is not.  A jacobi run that meets the change test therefore ends
with ``reason="converged"`` only if ``max ||R|| <=
JACOBI_RESIDUAL_FACTOR * lam * stop_tol`` at that iterate, and with
``reason="stalled"`` otherwise.  The explicit change is ``dt * ||R||`` at a
fixed dt, so the change test alone bounds its residual.  A sweep whose
change is not finite, or whose linear algebra fails, raises
``DivergenceError`` naming the sweep.

One edge pass per iterate: ``edge_logs`` runs once on the start and once
on each sweep's result, and that pass serves as the admissibility check
(an active edge beyond the injectivity bound raises an injectivity
error), the next sweep's ``R``, the energy-trace entry and the final
residual.  With ``halve_dt_on_injectivity`` a violating (explicit) sweep
is retried with a halved dt instead.  The halving is per-sweep: the next
sweep starts again from the configured dt.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .calculus import (EPS_SMOOTH_DEFAULT, _energy, _expand, _residual,
                       _scatter, edge_logs)
from .errors import ConfigError, DivergenceError, DomainError, InjectivityError
from .fields import TangentVertexField, VertexFunction, check_admissible
from .graphs import WeightedGraph

JACOBI_MIN_LAM = 1e-6
# A jacobi stop counts as converged only if max ||R|| <= this * lam * stop_tol.
JACOBI_RESIDUAL_FACTOR = 1e3

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
        if not self.p > 0:
            raise ConfigError("p must be positive")
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.eps_smooth < 0:
            raise ConfigError("eps_smooth must be non-negative")
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

    ``reason`` is ``"converged"`` (the change test held and, for jacobi,
    the residual certificate too), ``"stalled"`` (a jacobi change test held
    while ``residual_max`` is still above the certificate bound) or
    ``"max_iters"``.  ``residual_max`` is the largest ``||R||`` over active
    vertices at the returned iterate, ``residual(...).max_norm()``.
    """

    iterations: int
    final_change: float
    change_trace: list = field(default_factory=list)
    energy_trace: list | None = None
    residual_max: float = 0.0
    reason: str = "max_iters"


def _masked_exp(f: VertexFunction, step):
    """Exponential update on active vertices; inactive rows are copied."""
    m = f.manifold
    if f.mask is None:
        return f.with_values(m.exp(f.values, step))
    out = f.values.copy()
    idx = np.flatnonzero(f.mask)
    if idx.size:
        out[idx] = m.exp(f.values[idx], step[idx])
    return f.with_values(out)


def _advance(graph, f, f0, cfg, edges, scheme):
    """The iterate after one sweep of ``scheme`` from f and its edge pass."""
    R, b = _residual(graph, f, f0, cfg.lam, cfg.p, cfg.model,
                     cfg.eps_smooth, *edges)
    if scheme == "jacobi":
        step = -R / _expand(cfg.lam + _scatter(graph, b),
                            f.manifold.point_shape)
    else:
        step = -cfg.dt * R
    return _masked_exp(f, step)


def _step(graph, f, f0, cfg, scheme):
    """One public sweep; only manifolds with a finite injectivity radius
    can leave the admissible set, so only those are checked."""
    new = _advance(graph, f, f0, cfg, edge_logs(graph, f), scheme)
    if np.isfinite(f.manifold.injectivity_radius):
        check_admissible(graph, new)
    return new


def explicit_step(graph, f: VertexFunction, f0: VertexFunction,
                  cfg: SolverConfig) -> VertexFunction:
    """One explicit sweep ``exp_{f(u)}(-dt * R(u))`` over active vertices.

    Raises an injectivity error when the update leaves the admissible set.
    (Not validated against the config: ``dt = 0`` is the exact identity.)
    """
    return _step(graph, f, f0, cfg, "explicit")


def jacobi_step(graph, f: VertexFunction, f0: VertexFunction,
                cfg: SolverConfig) -> VertexFunction:
    """One semi-implicit sweep ``exp_{f(u)}(-R(u) / (lam + sum_v b(u,v)))``.

    Raises an injectivity error when the update leaves the admissible set.
    """
    if cfg.lam <= 0:
        raise ConfigError("jacobi_step requires lam > 0")
    return _step(graph, f, f0, cfg, "jacobi")


def _sweep(graph, f, f0, cfg, edges):
    """One sweep of the configured scheme: the new iterate and its edge pass.

    That pass raises an injectivity error when the new iterate leaves the
    admissible set; with ``halve_dt_on_injectivity`` an explicit sweep is
    then retried at halved dt.
    """
    dt = cfg.dt
    for _ in range(_MAX_HALVINGS):
        try:
            new = _advance(graph, f, f0, replace(cfg, dt=dt), edges,
                           cfg.scheme)
            return new, edge_logs(graph, new)
        except InjectivityError:
            if cfg.scheme == "jacobi" or not cfg.halve_dt_on_injectivity:
                raise
            dt *= 0.5
    raise InjectivityError(
        f"explicit sweep still inadmissible after {_MAX_HALVINGS} dt halvings")


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
        f = f0.copy()
    else:
        if init.manifold != f0.manifold or init.n_vertices != f0.n_vertices:
            raise DomainError("init must match the data's manifold and size")
        f = VertexFunction(f0.manifold, init.values.copy(),
                           None if f0.mask is None else f0.mask.copy(),
                           validate=False)

    edges = edge_logs(graph, f)
    etrace = None
    if cfg.record_energy:
        etrace = [_energy(graph, f, f0, cfg.lam, cfg.p, cfg.model, edges[1])]

    changes = []
    reason = "max_iters"
    for k in range(1, cfg.max_iters + 1):
        try:
            f_new, edges = _sweep(graph, f, f0, cfg, edges)
            d = f.dists_to(f_new)
        except np.linalg.LinAlgError as err:
            raise DivergenceError(f"sweep {k} diverged: {err}") from err
        change = float(np.mean(d)) if d.size else 0.0
        if not np.isfinite(change):
            raise DivergenceError(f"sweep {k} diverged: its mean change is "
                                  f"{change}")
        f = f_new
        changes.append(change)
        if etrace is not None:
            etrace.append(_energy(graph, f, f0, cfg.lam, cfg.p, cfg.model,
                                  edges[1]))
        if change < cfg.stop_tol:
            reason = "converged"
            break

    R, _ = _residual(graph, f, f0, cfg.lam, cfg.p, cfg.model,
                     cfg.eps_smooth, *edges)
    rmax = TangentVertexField(f, R).max_norm()
    if (reason == "converged" and cfg.scheme == "jacobi"
            and rmax > JACOBI_RESIDUAL_FACTOR * cfg.lam * cfg.stop_tol):
        reason = "stalled"
    report = SolveReport(iterations=len(changes),
                         final_change=changes[-1] if changes else 0.0,
                         change_trace=changes,
                         energy_trace=etrace,
                         residual_max=rmax,
                         reason=reason)
    return f, report
