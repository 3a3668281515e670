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

import numpy as np

from .errors import DomainError, InjectivityError
from .fields import (TangentEdgeFunction, TangentVertexField, VertexFunction,
                     active_edge_mask)
from .manifolds import ManifoldPoint, TangentVector

EPS_SMOOTH_DEFAULT = 1e-7

_TINY = 1e-15


# ---------------------------------------------------------------------------
# shape and aggregation helpers
# ---------------------------------------------------------------------------

def _expand(arr, point_shape):
    """Append singleton axes so a per-edge scalar broadcasts over tangents."""
    return np.asarray(arr).reshape(np.shape(arr) + (1,) * len(point_shape))


def _scatter(graph, terms):
    """Sum per-edge scalar or tangent ``terms`` over each vertex's out-edges."""
    n = graph.n_vertices
    flat = terms.reshape(terms.shape[0], -1)
    cols = [np.bincount(graph.src, weights=flat[:, j], minlength=n)
            for j in range(flat.shape[1])]
    return np.stack(cols, axis=1).reshape((n,) + terms.shape[1:])


def _check_pair(graph, f: VertexFunction):
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


def _on_active_edges(graph, f: VertexFunction, op):
    """Evaluate ``op(src, dst, sel)`` on the active edges only.

    ``src``/``dst`` are the endpoints of the active edges and ``sel`` selects
    their rows from per-edge arrays.  Each array ``op`` returns (one, or a
    tuple) is spread over all edges with zeros on inactive edges.
    """
    ae = active_edge_mask(graph, f)
    if ae is None:
        return op(graph.src, graph.dst, slice(None))
    idx = np.flatnonzero(ae)
    res = op(graph.src[idx], graph.dst[idx], idx)
    outs = []
    for r in res if isinstance(res, tuple) else (res,):
        full = np.zeros((graph.n_edges,) + r.shape[1:])
        full[idx] = r
        outs.append(full)
    return tuple(outs) if isinstance(res, tuple) else outs[0]


def edge_logs(graph, f: VertexFunction):
    """Per-edge logs ``log_{f(u)} f(v)`` and geodesic distances.

    Entries for edges with an inactive endpoint are zero.  Returns the pair
    ``(logs, dists)`` with shapes ``(m,) + point_shape`` and ``(m,)``.
    Raises InjectivityError naming the edge when an active edge joins
    values beyond the injectivity bound (the bound ``check_admissible``
    uses).
    """
    _check_pair(graph, f)

    def op(src, dst, sel):
        try:
            return f.manifold.log_and_dist(f.values[src], f.values[dst])
        except InjectivityError as err:
            _reraise_with_edge(err, src, dst)
    return _on_active_edges(graph, f, op)


def _edge_dists(graph, f: VertexFunction):
    """Per-edge geodesic distances with zeros on inactive edges."""
    _check_pair(graph, f)
    return _on_active_edges(graph, f, lambda src, dst, sel: f.manifold.dist(
        f.values[src], f.values[dst]))


def _edge_inners(graph, f: VertexFunction, A, B):
    """Pointwise edge inner products, zero on inactive edges."""
    return _on_active_edges(graph, f, lambda src, dst, sel: f.manifold.inner(
        f.values[src], A[sel], B[sel]))


# ---------------------------------------------------------------------------
# first-order operators
# ---------------------------------------------------------------------------

def directional_derivative(graph, f: VertexFunction, u: int, v: int):
    """Derivative of f along the edge (u, v): sqrt(w(u,v)) log_{f(u)} f(v).

    Zero when ``u == v``, when the edge is absent, or when either endpoint
    is inactive.  Returns a bare tangent coordinate array at ``f(u)``.
    """
    _check_pair(graph, f)
    zero = np.zeros(f.manifold.point_shape)
    if u == v:
        return zero
    e = graph.edge_index(u, v)
    if e < 0 or not (f.active[u] and f.active[v]):
        return zero
    lg = f.manifold.log(f.values[u], f.values[v])
    return np.sqrt(graph.weight[e]) * lg


def gradient(graph, f: VertexFunction) -> TangentEdgeFunction:
    """Edge function grad f(u, v) = sqrt(w(u, v)) log_{f(u)} f(v)."""
    logs, _ = edge_logs(graph, f)
    vals = _expand(np.sqrt(graph.weight), f.manifold.point_shape) * logs
    return TangentEdgeFunction(graph, f, vals)


def divergence(graph, f: VertexFunction, H: TangentEdgeFunction
               ) -> TangentVertexField:
    """Adjoint-style divergence of an edge function (see module docstring)."""
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    ps = f.manifold.point_shape
    ae = active_edge_mask(graph, f)

    terms = -_expand(np.sqrt(graph.weight), ps) * H.values
    if ae is not None:
        terms = terms * _expand(ae, ps)

    rev = graph.reverse_edge_index
    idx = np.flatnonzero(rev >= 0)
    if ae is not None:
        idx = idx[ae[idx]]
    if idx.size:
        r = rev[idx]
        back = f.manifold.transport(f.values[graph.dst[idx]],
                                    f.values[graph.src[idx]],
                                    H.values[r])
        terms[idx] += _expand(np.sqrt(graph.weight[r]), ps) * back

    vals = 0.5 * _scatter(graph, terms)
    return TangentVertexField(f, vals)


# ---------------------------------------------------------------------------
# inner products and norms of edge functions
# ---------------------------------------------------------------------------

def edge_inner(graph, f: VertexFunction, H: TangentEdgeFunction,
               K: TangentEdgeFunction) -> float:
    """Sum over directed edges of the Riemannian inner product at f(u)."""
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    _check_edge_fn(graph, K)
    return float(np.sum(_edge_inners(graph, f, H.values, K.values)))


def edge_norm_pq(graph, f: VertexFunction, H: TangentEdgeFunction,
                 p: float, q: float) -> float:
    """Mixed (p, q) norm: ((2/p) sum_u (sum_v ||H(u,v)||^q)^(p/q))^(1/p)."""
    if p <= 0 or q <= 0:
        raise DomainError("edge norm exponents must be positive")
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    norms = _on_active_edges(graph, f, lambda src, dst, sel: f.manifold.norm(
        f.values[src], H.values[sel]))
    S = _scatter(graph, norms ** q)
    return float(((2.0 / p) * np.sum(S ** (p / q))) ** (1.0 / p))


def local_variation(graph, f: VertexFunction, H: TangentEdgeFunction,
                    u: int, q: float = 2.0) -> float:
    """q-variation of H at vertex u: (sum over out-edges ||H||^q)^(1/q)."""
    if q <= 0:
        raise DomainError("variation exponent must be positive")
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    lo, hi = graph.indptr[u], graph.indptr[u + 1]
    if lo == hi:
        return 0.0
    sl = np.arange(lo, hi)
    ae = active_edge_mask(graph, f)
    if ae is not None:
        sl = sl[ae[sl]]
    if sl.size == 0:
        return 0.0
    norms = f.manifold.norm(f.values[graph.src[sl]], H.values[sl])
    return float(np.sum(norms ** q) ** (1.0 / q))


def grad_div_identity(graph, f: VertexFunction, H: TangentEdgeFunction):
    """Both sides of the summation-by-parts identity, for verification.

    Returns ``(lhs, rhs)`` where ``lhs = <grad f, H>`` over directed edges
    and ``rhs`` re-aggregates the same pairing through transported reverse
    edges.  Requires a symmetric edge set.
    """
    _check_pair(graph, f)
    _check_edge_fn(graph, H)
    rev = graph.reverse_edge_index
    if np.any(rev < 0):
        raise DomainError("the identity requires a symmetric edge set")

    lhs = edge_inner(graph, f, gradient(graph, f), H)

    logs, _ = edge_logs(graph, f)
    ps = f.manifold.point_shape
    back = _on_active_edges(graph, f, lambda s, d, sel: f.manifold.transport(
        f.values[d], f.values[s], H.values[rev[sel]]))
    T = 0.5 * (_expand(np.sqrt(graph.weight), ps) * H.values
               - _expand(np.sqrt(graph.weight[rev]), ps) * back)
    rhs = float(np.sum(_edge_inners(graph, f, logs, T)))
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
    act = f.active & g.active
    idx = np.flatnonzero(act[graph.src] & act[graph.dst])
    if idx.size == 0:
        return 0.0
    src, dst = graph.src[idx], graph.dst[idx]
    try:
        lf = f.manifold.log(f.values[src], f.values[dst])
        lg = g.manifold.log(g.values[src], g.values[dst])
    except InjectivityError as err:
        _reraise_with_edge(err, src, dst)
    moved = f.manifold.transport(g.values[src], f.values[src], lg)
    return float(np.sum(f.manifold.inner(f.values[src], lf, moved)))


def vertex_norm_p(graph, f: VertexFunction, p: float) -> float:
    """Unweighted vertex p-norm: (sum_u (sum_v d(f(u),f(v))^2)^(p/2))^(1/p)."""
    if p <= 0:
        raise DomainError("vertex norm exponent must be positive")
    d = _edge_dists(graph, f)
    S = _scatter(graph, d * d)
    return float(np.sum(S ** (p / 2.0)) ** (1.0 / p))


def vertex_distance(f: VertexFunction, g: VertexFunction) -> float:
    """l2 aggregate of pointwise geodesic distances over shared active set."""
    d = f.dists_to(g)
    return float(np.sqrt(np.sum(d * d)))


# ---------------------------------------------------------------------------
# p-Laplacians
# ---------------------------------------------------------------------------

def _singular_power(base, expo):
    """base**expo with 0**negative evaluated as 0 (dropped summand)."""
    out = np.zeros_like(base)
    pos = base > 0
    out[pos] = base[pos] ** expo
    return out


def _aniso_coeff(d, p, eps_smooth):
    if p == 2:
        return np.ones_like(d)
    if p < 2:
        return _singular_power(d + eps_smooth, p - 2.0)
    return d ** (p - 2.0)


def _iso_alpha(S, p, eps_smooth):
    if p == 2:
        return np.ones_like(S)
    if p < 2:
        return _singular_power(np.sqrt(S) + eps_smooth, p - 2.0)
    return S ** ((p - 2.0) / 2.0)


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
    if model == "aniso":
        b = np.sqrt(w) ** p * _aniso_coeff(d, p, eps_smooth)
    elif model == "iso":
        S = _scatter(graph, w * d * d)
        alpha = _iso_alpha(S, p, eps_smooth)
        b = 0.5 * w * (alpha[graph.src] + alpha[graph.dst])
    else:
        raise DomainError(f"unknown model {model!r}")
    ae = active_edge_mask(graph, f)
    if ae is not None:
        b = np.where(ae, b, 0.0)
    return b


def _residual(graph, f: VertexFunction, f0, lam, p, model, eps_smooth,
              logs, d):
    """Residual ``R = -sum_v b(u,v) log_{f(u)} f(v) - lam log_{f(u)} f0(u)``
    and the edge coefficients ``b``, from the edge pass
    ``(logs, d) = edge_logs(graph, f)``.

    With ``lam = 0`` this is the p-Laplacian of the model; ``f0`` is read
    only when ``lam > 0``.
    """
    if p <= 0:
        raise DomainError("p must be positive")
    b = _edge_coefficients(graph, f, d, model, p, eps_smooth)
    R = _scatter(graph, -_expand(b, f.manifold.point_shape) * logs)
    if lam > 0:
        R -= lam * _data_logs(f, f0)
    return R, b


def aniso_p_laplacian(graph, f: VertexFunction, p: float,
                      eps_smooth: float = EPS_SMOOTH_DEFAULT
                      ) -> TangentVertexField:
    """Edge-wise (anisotropic) p-Laplacian.

    Delta_p f(u) = - sum_v sqrt(w(u,v))^p d(f(u),f(v))^{p-2} log_{f(u)} f(v)
    with the singular factor smoothed for p < 2 (see module docstring).
    On symmetric graphs this is ``div`` of the flux
    ``||grad f(u,v)||^{p-2} grad f(u,v)``.
    """
    R, _ = _residual(graph, f, None, 0.0, p, "aniso", eps_smooth,
                     *edge_logs(graph, f))
    return TangentVertexField(f, R)


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
    R, _ = _residual(graph, f, None, 0.0, p, "iso", eps_smooth,
                     *edge_logs(graph, f))
    return TangentVertexField(f, R)


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


def _energy(graph, f: VertexFunction, f0: VertexFunction, lam, p, model, d):
    """Model energy of f given its edge distances ``d`` (zero when inactive).

    The regularizer is ``(1/p) sum over directed edges (sqrt(w) d)^p``
    (aniso) or ``(1/p) sum_u (sum_v w d^2)^(p/2)`` (iso).
    """
    w = graph.weight
    if model == "aniso":
        reg = np.sum((np.sqrt(w) * d) ** p) / p
    else:
        reg = np.sum(_scatter(graph, w * d * d) ** (p / 2.0)) / p
    d0 = f.dists_to(f0)
    return float(0.5 * lam * np.sum(d0 * d0) + reg)


def energy_aniso(graph, f: VertexFunction, f0: VertexFunction,
                 lam: float, p: float, eps_smooth: float = 0.0) -> float:
    """(lam/2) sum_u d(f,f0)^2 + (1/p) sum over directed edges (sqrt(w) d)^p.

    The smoothing parameter is accepted for signature symmetry with the
    operators but never enters the energy: d^p is finite for every p > 0.
    """
    _check_pair(graph, f)
    _check_model_args(f, f0, lam, p)
    return _energy(graph, f, f0, lam, p, "aniso", _edge_dists(graph, f))


def energy_iso(graph, f: VertexFunction, f0: VertexFunction,
               lam: float, p: float, eps_smooth: float = 0.0) -> float:
    """(lam/2) sum_u d(f,f0)^2 + (1/p) sum_u (sum_v w d^2)^(p/2)."""
    _check_pair(graph, f)
    _check_model_args(f, f0, lam, p)
    return _energy(graph, f, f0, lam, p, "iso", _edge_dists(graph, f))


def _data_logs(f: VertexFunction, f0: VertexFunction):
    """log_{f(u)} f0(u) on jointly active vertices, zeros elsewhere."""
    act = f.active & f0.active
    out = np.zeros_like(f.values)
    idx = np.flatnonzero(act)
    if idx.size:
        try:
            out[idx] = f.manifold.log(f.values[idx], f0.values[idx])
        except InjectivityError as err:
            i = err.vertex
            u = int(idx[i]) if i is not None and i < idx.size else -1
            raise InjectivityError(
                f"fidelity term undefined at vertex {u}: the iterate and "
                "the datum are (numerically) antipodal", vertex=u) from None
    return out


def residual(graph, f: VertexFunction, f0: VertexFunction, lam: float,
             p: float, model: str = "aniso",
             eps_smooth: float = EPS_SMOOTH_DEFAULT) -> TangentVertexField:
    """Stationarity defect Delta_p f - lam log_f f0 of the denoising model.

    For both models and every p this is the exact Riemannian gradient of
    half the (smoothed) energy with doubled fidelity weight, on graphs with
    symmetric weights; it is the defect the solvers drive to zero.
    """
    _check_model_args(f, f0, lam, p)
    R, _ = _residual(graph, f, f0, lam, p, model, eps_smooth,
                     *edge_logs(graph, f))
    return TangentVertexField(f, R)


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


def grad_dist_pow(x: ManifoldPoint, y: ManifoldPoint, p: float
                  ) -> TangentVector:
    """Gradient in x of d(x, y)^p, as a tangent vector at x.

    Equals ``-p d^{p-2} log_x y``; at ``x == y`` the gradient is zero for
    p > 1 and is taken to be zero (a subgradient choice) at p = 1.
    Exponents below 1 are rejected: d^p is then not locally Lipschitz.
    """
    if p < 1:
        raise DomainError("grad_dist_pow requires p >= 1")
    if x.manifold != y.manifold:
        raise DomainError("points live on different manifolds")
    m = x.manifold
    d = float(m.dist(x.coords, y.coords))
    if d < _TINY:
        return TangentVector(x, np.zeros(m.point_shape))
    lg = m.log(x.coords, y.coords)
    return TangentVector(x, -p * d ** (p - 2.0) * lg)
