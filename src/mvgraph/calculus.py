"""Discrete first-order calculus and p-Laplace operators for
manifold-valued vertex functions on weighted directed graphs.

Conventions
-----------
* All edge sums run over the directed edge list; a symmetric graph stores
  each undirected pair twice, so quantities such as the regularizer energy
  count every pair twice (the ``1/2`` in front of the data term does *not*
  compensate for this -- it is part of the model).
* Edges with an inactive endpoint contribute nothing: their logs, norms and
  energy terms are taken to be zero, and operator outputs at inactive
  vertices are zero rows.
* ``div`` uses the half-sum convention

      div H(u) = 1/2 * sum_v [ sqrt(w(v,u)) PT_{f(v)->f(u)} H(v,u)
                               - sqrt(w(u,v)) H(u,v) ],

  under which ``grad_div_identity`` holds exactly on symmetric edge sets
  while the vertex/edge pairing satisfies <f, -div H> = -(1/2) <grad f, H>
  in the Euclidean case.
* For ``p < 2`` the singular factor ``d**(p-2)`` is smoothed to
  ``(d + eps_smooth)**(p-2)``; with ``eps_smooth = 0`` a summand at exactly
  ``d = 0`` is dropped rather than evaluated.  Energies are always reported
  unsmoothed (they are finite for every ``p > 0``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InjectivityError
from .fields import (TangentEdgeFunction, TangentVertexField, VertexFunction,
                     _joint, _spread)

EPS_SMOOTH_DEFAULT = 1e-7


# ---------------------------------------------------------------------------
# shape and aggregation helpers
# ---------------------------------------------------------------------------

def _scatter(graph, terms):
    """Sum per-edge ``terms``, scalars (m,) or component rows (k, m), over
    each vertex's out-edges: one ``bincount`` per row, (n,) or (k, n)."""
    n = graph.n_vertices
    flat = terms.reshape(math.prod(terms.shape[:-1]), terms.shape[-1])
    out = np.empty((flat.shape[0], n))
    for row, term in zip(out, flat):
        row[:] = np.bincount(graph.src, weights=term, minlength=n)
    return out.reshape(terms.shape[:-1] + (n,))


def _check_pair(graph, f):
    if f.n_vertices != graph.n_vertices:
        raise DomainError(
            f"vertex function has {f.n_vertices} entries for a graph with "
            f"{graph.n_vertices} vertices")


def _check_edge_fn(graph, H: TangentEdgeFunction):
    if H.values.shape[0] != graph.n_edges:
        raise DomainError("edge function does not match the graph's edge count")


def _reraise_with_edge(err: InjectivityError, src, dst):
    i = err.vertex
    if i is None or i >= len(src):
        raise err
    u, v = int(src[i]), int(dst[i])
    raise InjectivityError(
        f"edge ({u}, {v}) joins values beyond the injectivity radius; "
        "the log map is undefined there", vertex=u, neighbor=v) from None


def _on_active_edges(graph, f, op, edges=slice(None)):
    """Evaluate ``op(src, dst, sel, rev)`` on the active edges among
    ``edges`` (a slice of the edge list; all of it by default).

    Per-edge arrays are scalars (m,) or component rows (k, m), the edge
    axis last.  ``f`` is a vertex function; only its mask is read.  An
    edge is active when both its endpoints are.  ``src``/``dst`` are the
    endpoints of the active edges, ``sel`` selects their columns from
    per-edge arrays over ``edges`` and ``rev`` is the reverse edge index
    among them (the reverse of an active edge is active; -1 when absent),
    or None for a part of the edge list.  Each array ``op`` returns (one,
    or a tuple) is spread over ``edges``, with zeros on inactive edges.
    """
    src, dst = graph.src[edges], graph.dst[edges]
    rev = graph.reverse_edge_index if edges == slice(None) else None
    if f.mask is None:
        return op(src, dst, slice(None), rev)
    keep = np.flatnonzero(f.mask[src] & f.mask[dst])
    if rev is not None:
        pos = np.full(graph.n_edges, -1)
        pos[keep] = np.arange(keep.size)
        rev = np.where(rev[keep] >= 0, pos[rev[keep]], -1)
    return _spread(op(src[keep], dst[keep], keep, rev), keep, src.size)


def edge_logs(graph, f: VertexFunction):
    """Per-edge logs ``log_{f(u)} f(v)`` and geodesic distances.

    Entries for edges with an inactive endpoint are zero.  Returns the pair
    ``(logs, dists)`` with shapes ``(m,) + point_shape`` and ``(m,)``.
    Raises InjectivityError naming the edge when an active edge joins
    values beyond the injectivity bound.
    """
    logs, d = _edge_logs(graph, f._to_rows())
    return f.manifold._points(logs, (graph.n_edges,)), d


def _edge_logs(graph, f):
    """``edge_logs`` of the row function f, the logs as component rows
    (k, m); this pass is the admissibility check of every iterate."""
    _check_pair(graph, f)

    def op(src, dst, sel, rev):
        try:
            return f.manifold._edge_log_and_dist_rows(f.rows, f.state, src,
                                                      dst, rev)
        except InjectivityError as err:
            _reraise_with_edge(err, src, dst)
    return _on_active_edges(graph, f, op)


def _edge_dists(graph, f):
    """Per-edge geodesic distances of the row function f, zero on inactive
    edges."""
    _check_pair(graph, f)
    return _on_active_edges(graph, f, lambda src, dst, sel, _: (
        f.manifold._dist_rows(f.state[:, src], f.rows[:, dst])))


def _edge_inners(graph, f, A, B):
    """Inner products at f(u) of the per-edge component rows A and B
    (k, m), f a row function; zero on inactive edges."""
    return _on_active_edges(graph, f, lambda src, dst, sel, _: (
        f.manifold._inner_rows(f.state[:, src], A[:, sel], B[:, sel])))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def directional_derivative(graph, f: VertexFunction, u: int, v: int):
    """Derivative of f along the edge (u, v): sqrt(w(u,v)) log_{f(u)} f(v).

    Zero when ``u == v``, when the edge is absent, or when either endpoint
    is inactive.  Returns a bare tangent coordinate array at ``f(u)``.
    """
    _check_pair(graph, f)
    e = graph.edge_index(u, v)
    m = f.manifold
    if e < 0:
        return np.zeros(m.point_shape)
    lg = _on_active_edges(
        graph, f, lambda src, dst, sel, _: m._log_and_dist_rows(
            m._point_state_rows(m._rows(f.values[src])),
            m._rows(f.values[dst]))[0],
        slice(e, e + 1))
    return m._points(np.sqrt(graph.weight[e]) * lg, (1,))[0]


def gradient(graph, f: VertexFunction) -> TangentEdgeFunction:
    """Edge function grad f(u, v) = sqrt(w(u, v)) log_{f(u)} f(v)."""
    logs, _ = _edge_logs(graph, f._to_rows())
    return TangentEdgeFunction(graph, f, f.manifold._points(
        graph.sqrt_weight * logs, (graph.n_edges,)))


def _div_terms(graph, f, h):
    """Per-edge summands of ``divergence`` of the row function f and the
    edge function with component rows h (k, m), as component rows, zero
    on inactive edges:
    ``1/2 (sqrt(w(v,u)) PT_{f(v)->f(u)} H(v,u) - sqrt(w(u,v)) H(u,v))``,
    the transported reverse term only where the reverse edge exists."""
    m = f.manifold

    def op(src, dst, sel, rev):
        hs = h[:, sel]
        sw = graph.sqrt_weight[sel]
        t = -sw * hs
        j = np.flatnonzero(rev >= 0)
        r = rev[j]
        t[:, j] += sw[r] * m._transport_rows(f.state[:, dst[j]],
                                             f.rows[:, src[j]], hs[:, r])
        return 0.5 * t
    return _on_active_edges(graph, f, op)


def divergence(graph, f: VertexFunction, H: TangentEdgeFunction
               ) -> TangentVertexField:
    """Adjoint-style divergence of an edge function (see module docstring)."""
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    m = f.manifold
    terms = _div_terms(graph, f._to_rows(), m._rows(H.values))
    return TangentVertexField(f, m._points(_scatter(graph, terms),
                                           (f.n_vertices,)))


# ---------------------------------------------------------------------------
# inner products and norms of edge functions
# ---------------------------------------------------------------------------

def edge_inner(graph, f: VertexFunction, H: TangentEdgeFunction,
               K: TangentEdgeFunction) -> float:
    """Sum over directed edges of the Riemannian inner product at f(u)."""
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    _check_edge_fn(graph, K)
    m = f.manifold
    return float(np.sum(_edge_inners(graph, f._to_rows(), m._rows(H.values),
                                     m._rows(K.values))))


def edge_norm_pq(graph, f: VertexFunction, H: TangentEdgeFunction,
                 p: float, q: float) -> float:
    """Mixed (p, q) norm: ((2/p) sum_u (sum_v ||H(u,v)||^q)^(p/q))^(1/p)."""
    if p <= 0 or q <= 0:
        raise DomainError("edge norm exponents must be positive")
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    fr, h = f._to_rows(), f.manifold._rows(H.values)
    norms = _on_active_edges(graph, fr, lambda src, dst, sel, _: (
        f.manifold._norm_rows(fr.state[:, src], h[:, sel])))
    S = _scatter(graph, norms ** q)
    return float(((2.0 / p) * np.sum(S ** (p / q))) ** (1.0 / p))


def local_variation(graph, f: VertexFunction, H: TangentEdgeFunction,
                    u: int, q: float = 2.0) -> float:
    """q-variation of H at vertex u: (sum over out-edges ||H||^q)^(1/q)."""
    if q <= 0:
        raise DomainError("variation exponent must be positive")
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    # only the out-edges of u and their endpoints are converted to rows
    edges = graph.out_edges(u)
    m, h = f.manifold, H.values[edges]
    norms = _on_active_edges(graph, f, lambda src, dst, sel, _: m._norm_rows(
        m._point_state_rows(m._rows(f.values[src])), m._rows(h[sel])), edges)
    return float(np.sum(norms ** q) ** (1.0 / q))


def grad_div_identity(graph, f: VertexFunction, H: TangentEdgeFunction):
    """Both sides of the summation-by-parts identity, for verification.

    Returns ``(lhs, rhs)`` where ``lhs = <grad f, H>`` over directed edges
    and ``rhs = -sum over edges <log_{f(u)} f(v), div term(u, v)>``
    re-aggregates the same pairing through the transported reverse edges
    of ``divergence``.  Requires a symmetric edge set.
    """
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    if np.any(graph.reverse_edge_index < 0):
        raise DomainError("the identity requires a symmetric edge set")
    fr, h = f._to_rows(), f.manifold._rows(H.values)
    logs, _ = _edge_logs(graph, fr)
    lhs = float(np.sum(_edge_inners(graph, fr, graph.sqrt_weight * logs, h)))
    rhs = -float(np.sum(_edge_inners(graph, fr, logs,
                                     _div_terms(graph, fr, h))))
    return lhs, rhs


def symmetric_map(graph, f: VertexFunction, g: VertexFunction) -> float:
    """Symmetric pairing of two vertex functions on the same graph.

    Sums, over directed edges, the inner product at f(u) of
    ``log_{f(u)} f(v)`` with the transport to f(u) of ``log_{g(u)} g(v)``.
    Only edges active in *both* functions contribute.
    """
    _check_pair(graph, f)
    _check_pair(graph, g)
    if g.manifold != f.manifold:
        raise DomainError("symmetric map requires a common manifold")
    # both functions, restricted to the vertices active in both
    mask = _joint(f.mask, g.mask)
    f, g = (VertexFunction(h.manifold, h.values, mask,
                           validate=False)._to_rows() for h in (f, g))
    lf, lg = _edge_logs(graph, f)[0], _edge_logs(graph, g)[0]
    m = f.manifold

    def op(src, dst, sel, _):
        return m._inner_rows(f.state[:, src], lf[:, sel], m._transport_rows(
            g.state[:, src], f.rows[:, src], lg[:, sel]))
    return float(np.sum(_on_active_edges(graph, f, op)))


def vertex_norm_p(graph, f: VertexFunction, p: float) -> float:
    """Unweighted vertex p-norm: (sum_u (sum_v d(f(u),f(v))^2)^(p/2))^(1/p)."""
    if p <= 0:
        raise DomainError("vertex norm exponent must be positive")
    d = _edge_dists(graph, f._to_rows())
    S = _scatter(graph, d * d)
    return float(np.sum(S ** (p / 2.0)) ** (1.0 / p))


def vertex_distance(f: VertexFunction, g: VertexFunction) -> float:
    """l2 aggregate of pointwise geodesic distances over shared active set."""
    d = f.dists_to(g)
    return float(np.sqrt(np.sum(d * d)))


# ---------------------------------------------------------------------------
# p-Laplacians
# ---------------------------------------------------------------------------

def _smoothed_power(d, p, eps_smooth):
    """``d**(p-2)``, read as ``(d + eps_smooth)**(p-2)`` for p < 2 with
    ``0**negative`` evaluated as 0 (a dropped summand)."""
    if p == 2:
        return np.ones_like(d)
    if p > 2:
        return d ** (p - 2.0)
    base = d + eps_smooth
    if np.min(base, initial=np.inf) > 0:
        # always so when eps_smooth > 0
        return base ** (p - 2.0)
    out = np.zeros_like(base)
    pos = base > 0
    out[pos] = base[pos] ** (p - 2.0)
    return out


def _edge_coefficients(graph, f: VertexFunction, d, model: str, p: float,
                       eps_smooth: float):
    """Per-edge p-Laplacian coefficients ``b(u, v)``, zero on inactive edges.

    Both p-Laplacians read ``Delta_p f(u) = -sum_v b(u,v) log_{f(u)} f(v)``
    for the edge distances ``d``:

    * aniso: ``b = sqrt(w)^p d^{p-2}``;
    * iso:   ``b = w (alpha_u + alpha_v) / 2`` with the local-variation
      prefactor ``alpha_u = (sum_v w d^2)^{(p-2)/2}``.

    The singular factors are smoothed for p < 2 (see module docstring).
    """
    w = graph.weight
    if model == "iso":
        S = _scatter(graph, w * d * d)
        alpha = _smoothed_power(np.sqrt(S), p, eps_smooth)
    elif model != "aniso":
        raise DomainError(f"unknown model {model!r}")

    def op(src, dst, sel, _):
        if model == "aniso":
            return (graph.sqrt_weight[sel] ** p
                    * _smoothed_power(d[sel], p, eps_smooth))
        return 0.5 * w[sel] * (alpha[src] + alpha[dst])
    return _on_active_edges(graph, f, op)


class _Pass(NamedTuple):
    """What the operators read from one row function f, each computed
    once: its edge logs (component rows) and distances, and its fidelity
    logs (component rows) and distances to the data (None when lam = 0).
    All of them read the point state of f, which f holds."""

    logs: np.ndarray
    d: np.ndarray
    data_logs: np.ndarray | None
    data_d: np.ndarray | None


def _iterate_pass(graph, f, f0, lam, edges=None):
    """The ``_Pass`` of the row function f, completing its ``_edge_logs``
    when given; the row function ``f0`` is read only when ``lam > 0``."""
    logs, d = _edge_logs(graph, f) if edges is None else edges
    data = _data_logs(f, f0) if lam > 0 else (None, None)
    return _Pass(logs, d, *data)


def _residual(graph, f, lam, p, model, eps_smooth, it):
    """Residual ``R = -sum_v b(u,v) log_{f(u)} f(v) - lam log_{f(u)} f0(u)``
    as component rows (k, n), and the edge coefficients ``b``, from the
    pass ``it`` of the row function f (``_iterate_pass``).

    With ``lam = 0`` this is the p-Laplacian of the model.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    b = _edge_coefficients(graph, f, it.d, model, p, eps_smooth)
    R = _scatter(graph, -b * it.logs)
    if lam > 0:
        R -= lam * it.data_logs
    return R, b


def _residual_field(graph, f: VertexFunction, f0, lam, p, model, eps_smooth):
    """``_residual`` of the vertex function f as a tangent field: f (and
    f0, read only when ``lam > 0``) converted to rows once, R back once."""
    fr = f._to_rows()
    R, _ = _residual(graph, fr, lam, p, model, eps_smooth, _iterate_pass(
        graph, fr, f0._to_rows() if lam > 0 else None, lam))
    return TangentVertexField(f, f.manifold._points(R, (f.n_vertices,)))


def aniso_p_laplacian(graph, f: VertexFunction, p: float,
                      eps_smooth: float = EPS_SMOOTH_DEFAULT
                      ) -> TangentVertexField:
    """Edge-wise (anisotropic) p-Laplacian.

    Delta_p f(u) = - sum_v sqrt(w(u,v))^p d(f(u),f(v))^{p-2} log_{f(u)} f(v)
    with the singular factor smoothed for p < 2 (see module docstring).
    On symmetric graphs this is ``div`` of the flux
    ``||grad f(u,v)||^{p-2} grad f(u,v)``.
    """
    return _residual_field(graph, f, None, 0.0, p, "aniso", eps_smooth)


def iso_p_laplacian(graph, f: VertexFunction, p: float,
                    eps_smooth: float = EPS_SMOOTH_DEFAULT
                    ) -> TangentVertexField:
    """Vertex-wise (isotropic) p-Laplacian, ``div(alpha grad f)``.

    Delta_p f(u) = -1/2 sum_v w(u,v) (alpha_u + alpha_v) log_{f(u)} f(v),
    where alpha_u = (sum_v w d^2)^{(p-2)/2} = ||grad f(u)||^{p-2} is the
    local variation prefactor, smoothed for p < 2.  On graphs with
    symmetric weights this equals ``divergence`` of the flux
    ``alpha_u grad f(u, v)``; at p = 2 it equals the anisotropic operator.
    """
    return _residual_field(graph, f, None, 0.0, p, "iso", eps_smooth)


# ---------------------------------------------------------------------------
# energies, residuals and energy gradients
# ---------------------------------------------------------------------------

def _check_model_args(f, f0, lam, p):
    if f0.manifold != f.manifold:
        raise DomainError("f and f0 must share a manifold")
    if f0.n_vertices != f.n_vertices:
        raise DomainError("f and f0 must have equal vertex counts")
    if lam < 0:
        raise DomainError("lam must be non-negative")
    if p <= 0:
        raise DomainError("p must be positive")


def _energy(graph, lam, p, model, d, d0):
    """Model energy from the edge distances ``d`` (zero when inactive) and
    the fidelity distances ``d0`` (None when ``lam = 0``).

    The regularizer is ``(1/p) sum over directed edges (sqrt(w) d)^p``
    (aniso) or ``(1/p) sum_u (sum_v w d^2)^(p/2)`` (iso).
    """
    if model == "aniso":
        reg = np.sum((graph.sqrt_weight * d) ** p) / p
    else:
        reg = np.sum(_scatter(graph, graph.weight * d * d) ** (p / 2.0)) / p
    fid = 0.0 if d0 is None else 0.5 * lam * np.sum(d0 * d0)
    return float(fid + reg)


def _model_energy(graph, f, f0, lam, p, model):
    """``_energy`` of the vertex functions f and f0."""
    _check_pair(graph, f)
    _check_model_args(f, f0, lam, p)
    fr = f._to_rows()
    return _energy(graph, lam, p, model, _edge_dists(graph, fr),
                   fr.dists_to(f0._to_rows()))


def energy_aniso(graph, f: VertexFunction, f0: VertexFunction,
                 lam: float, p: float) -> float:
    """(lam/2) sum_u d(f,f0)^2 + (1/p) sum over directed edges (sqrt(w) d)^p."""
    return _model_energy(graph, f, f0, lam, p, "aniso")


def energy_iso(graph, f: VertexFunction, f0: VertexFunction,
               lam: float, p: float) -> float:
    """(lam/2) sum_u d(f,f0)^2 + (1/p) sum_u (sum_v w d^2)^(p/2)."""
    return _model_energy(graph, f, f0, lam, p, "iso")


def _data_logs(f, f0):
    """``(log_{f(u)} f0(u), d(f(u), f0(u)))`` of the row functions f and
    f0 on jointly active vertices, zeros elsewhere."""
    try:
        return f._on_active(f.manifold._log_and_dist_rows, f.state, f0.rows,
                            other=f0)
    except InjectivityError as err:
        u = -1 if err.vertex is None else err.vertex
        raise InjectivityError(
            f"fidelity term undefined at vertex {u}: the iterate and "
            "the datum are (numerically) antipodal", vertex=u) from None


def residual(graph, f: VertexFunction, f0: VertexFunction, lam: float,
             p: float, model: str = "aniso",
             eps_smooth: float = EPS_SMOOTH_DEFAULT) -> TangentVertexField:
    """Stationarity defect Delta_p f - lam log_f f0 of the denoising model.

    For both models and every p this is the exact Riemannian gradient of
    half the (smoothed) energy with doubled fidelity weight, on graphs with
    symmetric weights; it is the defect the solvers drive to zero.
    """
    _check_model_args(f, f0, lam, p)
    return _residual_field(graph, f, f0, lam, p, model, eps_smooth)


def energy_gradient(graph, f: VertexFunction, f0: VertexFunction, lam: float,
                    p: float, model: str = "aniso",
                    eps_smooth: float = EPS_SMOOTH_DEFAULT
                    ) -> TangentVertexField:
    """Exact Riemannian gradient of the (smoothed) denoising energy.

    Returns the gradient of ``energy_aniso``/``energy_iso`` at fidelity
    ``lam``: the data part ``-lam log_f f0`` plus the full derivative of
    the regularizer, with both endpoint contributions of every edge term
    included.  That is ``2 * residual`` of the same model at fidelity
    ``lam / 2``, which holds only on graphs with a symmetric edge set and
    symmetric weights; other graphs are rejected.
    """
    _check_pair(graph, f)
    _check_model_args(f, f0, lam, p)
    rev = graph.reverse_edge_index
    if np.any(rev < 0) or np.any(graph.weight[rev] != graph.weight):
        raise DomainError("the energy gradient requires a symmetric edge set "
                          "with symmetric weights")
    half = residual(graph, f, f0, lam / 2.0, p, model, eps_smooth)
    return TangentVertexField(f, 2.0 * half.values)
