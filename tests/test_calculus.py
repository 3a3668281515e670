"""Operator oracles.  Every Euclidean expectation is recomputed here with
independent plain loops; curved-space checks rest on the transport/log
identities and on values worked out by hand."""

import numpy as np
import pytest

from conftest import (clustered_vertex_function, random_point,
                      random_symmetric_graph)
import mvgraph.manifolds
from mvgraph.calculus import (_on_active_edges, aniso_p_laplacian,
                              directional_derivative,
                              divergence, edge_inner, edge_logs, edge_norm_pq,
                              energy_aniso, energy_gradient, energy_iso,
                              grad_div_identity, gradient, iso_p_laplacian,
                              local_variation, residual, symmetric_map,
                              vertex_distance, vertex_norm_p)
from mvgraph.errors import DomainError, InjectivityError
from mvgraph.fields import TangentEdgeFunction, VertexFunction
from mvgraph.graphs import WeightedGraph, grid_graph
from mvgraph.manifolds import Circle, Euclidean, Spd, Sphere2
from mvgraph.solvers import SolverConfig, explicit_step, solve


def path_graph(weights):
    """0-1-2-...-k chain with the given symmetric weights."""
    triples = []
    for i, w in enumerate(weights):
        triples += [(i, i + 1, w), (i + 1, i, w)]
    return WeightedGraph.from_edges(len(weights) + 1, triples, symmetric=True)


def edge_fn(graph, f, rng, sigma=1.0):
    vals = f.manifold.random_tangent(f.values[graph.src], sigma, rng)
    return TangentEdgeFunction(graph, f, vals)


# ---------------------------------------------------------------------------
# first-order operators: frozen examples
# ---------------------------------------------------------------------------

def test_directional_derivative_examples():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f = VertexFunction(e1, np.array([[0.0], [3.0]]))
    np.testing.assert_allclose(directional_derivative(g, f, 0, 1), [3.0])
    np.testing.assert_allclose(directional_derivative(g, f, 0, 0), [0.0])

    c = Circle()
    g4 = path_graph([4.0])
    fc = VertexFunction(c, np.array([[0.0], [np.pi / 4]]))
    np.testing.assert_allclose(directional_derivative(g4, fc, 0, 1), [np.pi / 2])


def test_directional_derivative_zero_for_non_neighbors():
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0])
    f = VertexFunction(e1, np.array([[0.0], [1.0], [5.0]]))
    np.testing.assert_array_equal(directional_derivative(g, f, 0, 2), [0.0])


def test_directional_derivative_antisymmetry(rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 12)
    f = clustered_vertex_function(s, rng, 12, spread=0.6)
    for u, v in [(0, 1), (3, 2)]:
        if g.edge_index(u, v) < 0:
            continue
        duv = directional_derivative(g, f, u, v)
        dvu = directional_derivative(g, f, v, u)
        back = s.transport(f.values[v], f.values[u], dvu)
        np.testing.assert_allclose(duv, -back, atol=1e-10)


def test_gradient_path_example():
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0])
    f = VertexFunction(e1, np.array([[0.0], [1.0], [3.0]]))
    grad = gradient(g, f)
    e = g.edge_index(1, 2)
    np.testing.assert_allclose(grad.values[e], [2.0])
    const = VertexFunction(e1, np.zeros((3, 1)))
    assert np.all(gradient(g, const).values == 0.0)


def test_gradient_masked_edges_zero(rng):
    c = Circle()
    mask = np.array([True, False, True, True])
    g = path_graph([1.0, 1.0, 1.0])
    f = VertexFunction(c, np.array([[0.0], [0.5], [1.0], [1.2]]), mask)
    grad = gradient(g, f)
    for e in range(g.n_edges):
        if not (mask[g.src[e]] and mask[g.dst[e]]):
            assert np.all(grad.values[e] == 0.0)
    e = g.edge_index(2, 3)
    np.testing.assert_allclose(grad.values[e], [0.2])


def test_divergence_two_vertex_example():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f = VertexFunction(e1, np.zeros((2, 1)))
    H = TangentEdgeFunction(g, f, np.array([[1.0], [-1.0]]))
    div = divergence(g, f, H)
    np.testing.assert_allclose(div.values[0], [-1.0])
    np.testing.assert_allclose(div.values[1], [1.0])
    zero = TangentEdgeFunction(g, f, np.zeros((2, 1)))
    assert np.all(divergence(g, f, zero).values == 0.0)


def _euclid_divergence(g, H):
    n, m = g.n_vertices, H.shape[1]
    out = np.zeros((n, m))
    for e in range(g.n_edges):
        u = int(g.src[e])
        out[u] -= 0.5 * np.sqrt(g.weight[e]) * H[e]
        r = g.reverse_edge_index[e]
        if r >= 0:
            out[u] += 0.5 * np.sqrt(g.weight[r]) * H[r]
    return out


def test_divergence_euclidean_closed_form(rng):
    e = Euclidean(3)
    g = random_symmetric_graph(rng, 15)
    f = clustered_vertex_function(e, rng, 15)
    H = edge_fn(g, f, rng)
    div = divergence(g, f, H)
    np.testing.assert_allclose(div.values, _euclid_divergence(g, H.values),
                               atol=1e-12)


@pytest.mark.parametrize("manifold", [Sphere2(), Spd(2)], ids=lambda m: m.kind)
def test_divergence_concise_form_for_gradients(manifold, rng):
    # the gradient is anti-symmetric under transport, so the divergence
    # reduces to -sum_v sqrt(w(u,v)) H(u,v)
    g = random_symmetric_graph(rng, 10)
    f = clustered_vertex_function(manifold, rng, 10, spread=0.5)
    H = gradient(g, f)
    div = divergence(g, f, H)
    k = len(manifold.point_shape)
    terms = -np.sqrt(g.weight).reshape((-1,) + (1,) * k) * H.values
    concise = np.zeros_like(div.values)
    for e in range(g.n_edges):
        concise[g.src[e]] += terms[e]
    np.testing.assert_allclose(div.values, concise, atol=1e-12)


@pytest.mark.parametrize("manifold", [Circle(), Sphere2(), Spd(2)],
                         ids=lambda m: m.kind)
def test_divergence_loop_reference_one_way_masked(manifold, rng):
    # make about 60% of the pairs one-way, draw fresh unequal weights and
    # mask two vertices; the reference walks the edges one at a time,
    # finds each reverse edge by lookup and transports it
    n = 12
    sym = random_symmetric_graph(rng, n)
    keep = (sym.src < sym.dst) | (rng.uniform(size=sym.n_edges) < 0.4)
    g = WeightedGraph(n, sym.src[keep], sym.dst[keep],
                      rng.uniform(0.1, 1.0, size=int(keep.sum())))
    assert np.any(g.reverse_edge_index < 0)
    mask = np.ones(n, dtype=bool)
    mask[[2, 7]] = False
    f = clustered_vertex_function(manifold, rng, n, spread=0.5, mask=mask)
    H = edge_fn(g, f, rng)
    ref = np.zeros_like(f.values)
    for e in range(g.n_edges):
        u, v = int(g.src[e]), int(g.dst[e])
        if not (mask[u] and mask[v]):
            continue
        ref[u] -= 0.5 * np.sqrt(g.weight[e]) * H.values[e]
        r = g.edge_index(v, u)
        if r >= 0:
            back = manifold.transport(f.values[v], f.values[u], H.values[r])
            ref[u] += 0.5 * np.sqrt(g.weight[r]) * back
    div = divergence(g, f, H)
    np.testing.assert_allclose(div.values, ref, atol=1e-12)
    assert np.all(div.values[~mask] == 0.0)


# ---------------------------------------------------------------------------
# inner products, norms, the gradient/divergence relationship
# ---------------------------------------------------------------------------

def test_edge_norm_single_edge():
    e1 = Euclidean(1)
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0)])
    f = VertexFunction(e1, np.zeros((2, 1)))
    H = TangentEdgeFunction(g, f, np.array([[3.0]]))
    assert edge_norm_pq(g, f, H, 2, 2) == pytest.approx(3.0)
    assert edge_inner(g, f, H, H) == pytest.approx(9.0)


def test_edge_norm_brute_force(rng):
    e = Euclidean(2)
    g = random_symmetric_graph(rng, 8)
    f = clustered_vertex_function(e, rng, 8)
    H = edge_fn(g, f, rng)
    norms = np.linalg.norm(H.values, axis=1)
    for p, q in [(2, 2), (1, 2), (1.5, 3.0), (0.5, 0.5)]:
        S = np.zeros(8)
        for e_ in range(g.n_edges):
            S[g.src[e_]] += norms[e_] ** q
        expect = ((2.0 / p) * np.sum(S ** (p / q))) ** (1.0 / p)
        assert edge_norm_pq(g, f, H, p, q) == pytest.approx(expect, rel=1e-12)


def test_local_variation(rng):
    e = Euclidean(3)
    g = random_symmetric_graph(rng, 9)
    f = clustered_vertex_function(e, rng, 9)
    H = edge_fn(g, f, rng)
    u = 4
    nbrs_lo, nbrs_hi = g.indptr[u], g.indptr[u + 1]
    norms = np.linalg.norm(H.values[nbrs_lo:nbrs_hi], axis=1)
    assert local_variation(g, f, H, u, 2) == pytest.approx(
        np.sqrt(np.sum(norms ** 2)))
    assert local_variation(g, f, H, u, 1) == pytest.approx(np.sum(norms))
    zero = TangentEdgeFunction(g, f, np.zeros_like(H.values))
    assert local_variation(g, f, zero, u, 2) == 0.0


@pytest.mark.parametrize("q", [1.0, 2.0, 0.5])
def test_local_variation_masked_loop_reference(rng, q):
    # NaN placeholders at inactive vertices: any edge that touched one
    # would make the variation NaN
    c = Circle()
    n = 12
    g = random_symmetric_graph(rng, n, extra=40)
    mask = rng.random(n) < 0.6
    mask[[0, 1]] = [True, False]
    vals = clustered_vertex_function(c, rng, n).values.copy()
    vals[~mask] = np.nan
    f = VertexFunction(c, vals, mask)
    H = TangentEdgeFunction(g, f, rng.normal(size=(g.n_edges, 1)))
    for u in range(n):
        norms = [abs(H.values[e, 0]) for e in range(g.n_edges)
                 if g.src[e] == u and mask[u] and mask[g.dst[e]]]
        expect = sum(x ** q for x in norms) ** (1.0 / q)
        got = local_variation(g, f, H, u, q)
        assert got == pytest.approx(expect, rel=1e-13, abs=0.0)
        if not mask[u]:
            assert got == 0.0


def test_vertex_queries_reject_out_of_range_vertices(rng):
    # unchecked, (0, 6) and vertex 9 ended in a raw IndexError and vertex -1
    # gave a variation of 0.0
    e1 = Euclidean(1)
    g = WeightedGraph.from_edges(
        4, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    f = VertexFunction(e1, np.arange(4.0)[:, None])
    H = edge_fn(g, f, rng)
    for u, v in [(0, 6), (6, 0), (-1, 0), (6, 6)]:
        with pytest.raises(DomainError):
            directional_derivative(g, f, u, v)
    for u in (9, 4, -1):
        with pytest.raises(DomainError):
            local_variation(g, f, H, u)
    assert local_variation(g, f, H, 3) == 0.0


@pytest.mark.parametrize("manifold", [Euclidean(3), Sphere2(), Spd(2)],
                         ids=lambda m: m.kind)
def test_grad_div_identity(manifold, rng):
    g = random_symmetric_graph(rng, 10)
    f = clustered_vertex_function(manifold, rng, 10, spread=0.5)
    H = edge_fn(g, f, rng)
    lhs, rhs = grad_div_identity(g, f, H)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    zero = TangentEdgeFunction(g, f, np.zeros_like(H.values))
    assert grad_div_identity(g, f, zero) == (0.0, 0.0)


def test_grad_div_identity_makes_one_edge_pass(rng):
    # Euclidean transport takes no log, so every row of the log kernel
    # comes from edge passes: both sides of the identity share one, which
    # evaluates each reverse pair once
    rows = []

    class CountingEuclidean(Euclidean):
        def _log_and_dist_rows(self, x, y):
            rows.append(x.shape[-1])
            return super()._log_and_dist_rows(x, y)

    e = CountingEuclidean(2)
    g = grid_graph(4, 4)
    f = VertexFunction(e, rng.normal(size=(16, 2)))
    H = edge_fn(g, f, rng)
    grad_div_identity(g, f, H)
    assert rows == [g.n_edges // 2]


def test_pairing_with_divergence_convention(rng):
    # with the factor-1/2 divergence the vertex pairing satisfies
    # <f, -div H> = -(1/2) <grad f, H> on Euclidean data; this is the
    # convention the closed-form and concise-form oracles pin down
    e = Euclidean(2)
    g = random_symmetric_graph(rng, 12)
    f = clustered_vertex_function(e, rng, 12)
    H = edge_fn(g, f, rng)
    div = divergence(g, f, H)
    lhs = float(np.sum(f.values * (-div.values)))
    inner_grad_h = edge_inner(g, f, gradient(g, f), H)
    assert lhs == pytest.approx(-0.5 * inner_grad_h, rel=1e-10, abs=1e-12)


def test_symmetric_map(rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 10)
    f = clustered_vertex_function(s, rng, 10, spread=0.5)
    h = clustered_vertex_function(s, rng, 10, spread=0.5)
    assert symmetric_map(g, f, h) == pytest.approx(symmetric_map(g, h, f),
                                                   abs=1e-10)
    # Euclidean brute force
    e = Euclidean(2)
    fe = clustered_vertex_function(e, rng, 10)
    ge_ = clustered_vertex_function(e, rng, 10)
    expect = 0.0
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        expect += np.dot(fe.values[v] - fe.values[u], ge_.values[v] - ge_.values[u])
    assert symmetric_map(g, fe, ge_) == pytest.approx(expect, rel=1e-12)


def test_symmetric_map_masked_counts_edges_active_in_both(rng):
    g = random_symmetric_graph(rng, 12)
    e = Euclidean(2)
    fmask = np.arange(12) % 4 != 1
    gmask = np.arange(12) % 3 != 2
    fv, gv = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    # placeholders at inactive vertices are never read
    fv[~fmask] = np.nan
    gv[~gmask] = np.nan
    fe = VertexFunction(e, fv, fmask)
    ge_ = VertexFunction(e, gv, gmask)
    both = fmask & gmask
    expect = 0.0
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        if both[u] and both[v]:
            expect += np.dot(fv[v] - fv[u], gv[v] - gv[u])
    assert expect != 0.0
    assert symmetric_map(g, fe, ge_) == pytest.approx(expect, rel=1e-12)
    assert symmetric_map(g, ge_, fe) == pytest.approx(expect, rel=1e-12)
    # one masked function: its mask alone selects the edges
    full = VertexFunction(e, np.nan_to_num(gv))
    expect = 0.0
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        if fmask[u] and fmask[v]:
            expect += np.dot(fv[v] - fv[u], full.values[v] - full.values[u])
    assert symmetric_map(g, fe, full) == pytest.approx(expect, rel=1e-12)
    assert symmetric_map(g, full, fe) == pytest.approx(expect, rel=1e-12)


def test_vertex_norm_p(rng):
    e = Euclidean(2)
    g = random_symmetric_graph(rng, 8)
    f = clustered_vertex_function(e, rng, 8)
    S = np.zeros(8)
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        S[u] += np.sum((f.values[v] - f.values[u]) ** 2)
    for p in (1.0, 2.0, 3.5):
        assert vertex_norm_p(g, f, p) == pytest.approx(
            np.sum(S ** (p / 2)) ** (1 / p), rel=1e-12)


def test_vertex_distance_example():
    e1 = Euclidean(1)
    f = VertexFunction(e1, np.array([[0.0], [0.0]]))
    g_ = VertexFunction(e1, np.array([[3.0], [4.0]]))
    assert vertex_distance(f, g_) == pytest.approx(5.0)
    assert vertex_distance(f, f) == 0.0


def test_dists_to_jointly_active_and_rejections():
    c = Circle()
    f = VertexFunction(c, np.array([[0.0], [0.5], [1.0]]),
                       np.array([True, False, True]))
    g_ = VertexFunction(c, np.array([[0.25], [3.0], [1.0]]),
                        np.array([True, True, False]))
    np.testing.assert_allclose(f.dists_to(g_), [0.25])
    with pytest.raises(DomainError):
        f.dists_to(VertexFunction(Euclidean(1), np.zeros((3, 1))))
    with pytest.raises(DomainError):
        f.dists_to(VertexFunction(c, np.zeros((2, 1))))


# ---------------------------------------------------------------------------
# p-Laplacians
# ---------------------------------------------------------------------------

def test_aniso_laplacian_path_example():
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0])
    f = VertexFunction(e1, np.array([[0.0], [1.0], [3.0]]))
    lap = aniso_p_laplacian(g, f, p=2)
    np.testing.assert_allclose(lap.values[1], [-1.0])   # -((0-1)+(3-1))
    const = VertexFunction(e1, np.full((3, 1), 0.7))
    for p in (0.5, 1, 2, 3):
        assert np.all(aniso_p_laplacian(g, const, p).values == 0.0)
        assert np.all(iso_p_laplacian(g, const, p).values == 0.0)


def test_aniso_p1_unit_vectors():
    e2 = Euclidean(2)
    g = WeightedGraph.from_edges(
        3, [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0)], symmetric=True)
    f = VertexFunction(e2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]))
    lap = aniso_p_laplacian(g, f, p=1, eps_smooth=0.0)
    np.testing.assert_allclose(lap.values[0], [-1.0, -1.0], atol=1e-14)


def test_aniso_zero_distance_summand_dropped():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f = VertexFunction(e1, np.array([[0.4], [0.4]]))
    lap = aniso_p_laplacian(g, f, p=1, eps_smooth=0.0)
    assert np.all(np.isfinite(lap.values)) and np.all(lap.values == 0.0)


def _euclid_aniso(g, vals, p, eps):
    out = np.zeros_like(vals)
    for e in range(g.n_edges):
        u, v = int(g.src[e]), int(g.dst[e])
        d = np.linalg.norm(vals[v] - vals[u])
        dd = d + eps if p < 2 else d
        fac = dd ** (p - 2.0) if (p >= 2 or dd > 0) else 0.0
        if p == 2:
            fac = 1.0
        out[u] -= np.sqrt(g.weight[e]) ** p * fac * (vals[v] - vals[u])
    return out


def _euclid_iso(g, vals, p, eps):
    n = g.n_vertices
    S = np.zeros(n)
    for e in range(g.n_edges):
        u, v = int(g.src[e]), int(g.dst[e])
        S[u] += g.weight[e] * np.sum((vals[v] - vals[u]) ** 2)
    if p == 2:
        alpha = np.ones(n)
    elif p < 2:
        alpha = np.array([(np.sqrt(s) + eps) ** (p - 2.0)
                          if np.sqrt(s) + eps > 0 else 0.0 for s in S])
    else:
        alpha = S ** ((p - 2.0) / 2.0)
    out = np.zeros_like(vals)
    for e in range(g.n_edges):
        u, v = int(g.src[e]), int(g.dst[e])
        out[u] -= 0.5 * (alpha[u] + alpha[v]) * g.weight[e] * (vals[v] - vals[u])
    return out


@pytest.mark.parametrize("p", [0.5, 1.0, 1.7, 2.0, 3.0])
def test_laplacians_euclidean_closed_forms(p, rng):
    e = Euclidean(3)
    g = random_symmetric_graph(rng, 14)
    f = clustered_vertex_function(e, rng, 14)
    eps = 1e-7 if p < 2 else 0.0
    np.testing.assert_allclose(
        aniso_p_laplacian(g, f, p, eps_smooth=eps).values,
        _euclid_aniso(g, f.values, p, eps), atol=1e-12)
    np.testing.assert_allclose(
        iso_p_laplacian(g, f, p, eps_smooth=eps).values,
        _euclid_iso(g, f.values, p, eps), atol=1e-12)


def test_iso_equals_aniso_at_p2(rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 11)
    f = clustered_vertex_function(s, rng, 11, spread=0.5)
    np.testing.assert_allclose(iso_p_laplacian(g, f, 2).values,
                               aniso_p_laplacian(g, f, 2).values, atol=1e-13)


@pytest.mark.parametrize("manifold", [Sphere2(), Spd(2)],
                         ids=lambda m: m.kind)
@pytest.mark.parametrize("p", [1.0, 3.0])
def test_iso_laplacian_is_divergence_of_its_flux(manifold, p):
    # Delta_p f = div(alpha grad f) with alpha_u = ||grad f(u)||^{p-2}
    # (smoothed for p < 2) taken at the edge's source vertex
    eps = 1e-7
    for seed in range(5):
        rng = np.random.default_rng(4100 + seed)
        n = int(rng.integers(5, 20))
        g = random_symmetric_graph(rng, n)
        f = clustered_vertex_function(manifold, rng, n, spread=0.6)
        grad = gradient(g, f)
        d = manifold.dist(f.values[g.src], f.values[g.dst])
        S = np.bincount(g.src, weights=g.weight * d * d, minlength=n)
        alpha = (np.sqrt(S) + eps) ** (p - 2.0) if p < 2 else S ** ((p - 2.0) / 2.0)
        shape = (-1,) + (1,) * len(manifold.point_shape)
        flux = TangentEdgeFunction(
            g, f, alpha[g.src].reshape(shape) * grad.values)
        np.testing.assert_allclose(
            iso_p_laplacian(g, f, p, eps_smooth=eps).values,
            divergence(g, f, flux).values, rtol=0, atol=1e-10)


def test_laplacian_is_divergence_of_scaled_gradient(rng):
    # Delta_p f = div(||grad f||^{p-2} grad f) with the stored convention
    e = Euclidean(2)
    g = random_symmetric_graph(rng, 10)
    f = clustered_vertex_function(e, rng, 10)
    grad = gradient(g, f)
    norms = np.linalg.norm(grad.values, axis=1)
    p = 1.3
    scaled = TangentEdgeFunction(
        g, f, np.where(norms[:, None] > 0, norms[:, None] ** (p - 2.0), 0.0)
        * grad.values)
    div = divergence(g, f, scaled)
    # same coefficient convention: ||grad f(u,v)||^{p-2} = (sqrt(w) d)^{p-2}
    expect = np.zeros_like(f.values)
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        d = np.linalg.norm(f.values[v] - f.values[u])
        expect[u] -= np.sqrt(g.weight[k]) ** p * d ** (p - 2.0) * (
            f.values[v] - f.values[u])
    np.testing.assert_allclose(div.values, expect, atol=1e-12)


def test_masked_spd_placeholders_are_harmless():
    m = Spd(2)
    g = path_graph([1.0, 1.0])
    vals = np.stack([np.eye(2), np.zeros((2, 2)), 2 * np.eye(2)])
    mask = np.array([True, False, True])
    f = VertexFunction(m, vals, mask)
    for op in (lambda: aniso_p_laplacian(g, f, 1.0),
               lambda: iso_p_laplacian(g, f, 1.0),
               lambda: gradient(g, f).values):
        out = op()
        arr = out.values if hasattr(out, "values") else out
        assert np.all(np.isfinite(arr))
    lap = aniso_p_laplacian(g, f, 2.0)
    assert np.all(lap.values == 0.0)   # all edges touch the masked vertex


# ---------------------------------------------------------------------------
# energies, residuals, energy gradients
# ---------------------------------------------------------------------------

def test_energy_two_vertex_example():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [0.0]]))
    f = VertexFunction(e1, np.array([[0.0], [1.0]]))
    assert energy_aniso(g, f, f0, lam=2.0, p=2) == pytest.approx(2.0)
    assert energy_aniso(g, f0, f0, lam=2.0, p=2) == 0.0
    assert energy_iso(g, f0, f0, lam=2.0, p=2) == 0.0


def test_energies_coincide_at_p2(rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 9)
    f = clustered_vertex_function(s, rng, 9, spread=0.4)
    f0 = clustered_vertex_function(s, rng, 9, spread=0.4)
    a = energy_aniso(g, f, f0, lam=1.3, p=2)
    i = energy_iso(g, f, f0, lam=1.3, p=2)
    assert a == pytest.approx(i, rel=1e-12)


def test_energy_regularizer_only_for_f0():
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [1.0]]))
    e = energy_aniso(g, f0, f0, lam=5.0, p=2)
    assert e == pytest.approx(1.0)   # (1/2) * 2 edges * w * d^2, data term 0


def test_residual_trivia(rng):
    c = Circle()
    g = path_graph([1.0, 1.0])
    const = VertexFunction(c, np.full((3, 1), 0.3))
    r = residual(g, const, const, lam=0.0, p=2, model="aniso")
    assert np.all(r.values == 0.0)
    f0 = clustered_vertex_function(c, rng, 3, spread=0.5)
    r2 = residual(g, f0, f0, lam=3.0, p=2, model="iso")
    lap = iso_p_laplacian(g, f0, 2)
    np.testing.assert_allclose(r2.values, lap.values, atol=1e-14)


def test_residual_euclidean_closed_form(rng):
    e = Euclidean(2)
    g = random_symmetric_graph(rng, 10)
    f = clustered_vertex_function(e, rng, 10)
    f0 = clustered_vertex_function(e, rng, 10)
    lam = 2.5
    r = residual(g, f, f0, lam=lam, p=2, model="aniso")
    expect = lam * (f.values - f0.values)
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        expect[u] += g.weight[k] * (f.values[u] - f.values[v])
    np.testing.assert_allclose(r.values, expect, atol=1e-12)


def _euclid_energy_gradient(g, vals, vals0, lam, p, eps, model):
    out = lam * (vals - vals0)
    if model == "aniso":
        for k in range(g.n_edges):
            u, v = int(g.src[k]), int(g.dst[k])
            d = np.linalg.norm(vals[v] - vals[u])
            dd = d + eps if p < 2 else d
            fac = 1.0 if p == 2 else (dd ** (p - 2.0) if dd > 0 else 0.0)
            out[u] -= 2.0 * np.sqrt(g.weight[k]) ** p * fac * (vals[v] - vals[u])
        return out
    S = np.zeros(g.n_vertices)
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        S[u] += g.weight[k] * np.sum((vals[v] - vals[u]) ** 2)
    if p == 2:
        alpha = np.ones(g.n_vertices)
    else:
        alpha = (np.sqrt(S) + eps) ** (p - 2.0)
    for k in range(g.n_edges):
        u, v = int(g.src[k]), int(g.dst[k])
        r = g.reverse_edge_index[k]
        out[u] -= (alpha[u] * g.weight[k] + alpha[v] * g.weight[r]) * (
            vals[v] - vals[u])
    return out


@pytest.mark.parametrize("model,p", [("aniso", 1.0), ("aniso", 2.0),
                                     ("iso", 1.0), ("iso", 2.0)])
def test_energy_gradient_euclidean_closed_form(model, p, rng):
    e = Euclidean(2)
    g = random_symmetric_graph(rng, 10)
    f = clustered_vertex_function(e, rng, 10)
    f0 = clustered_vertex_function(e, rng, 10)
    eps = 1e-7 if p < 2 else 0.0
    out = energy_gradient(g, f, f0, lam=1.5, p=p, model=model, eps_smooth=eps)
    expect = _euclid_energy_gradient(g, f.values, f0.values, 1.5, p, eps, model)
    np.testing.assert_allclose(out.values, expect, atol=1e-12)


def test_energy_gradient_matches_finite_differences(rng):
    # directional derivative of the energy along random tangents
    c = Circle()
    g = random_symmetric_graph(rng, 8)
    f = clustered_vertex_function(c, rng, 8, spread=0.6)
    f0 = clustered_vertex_function(c, rng, 8, spread=0.6)
    lam, h = 1.2, 1e-6
    for model, p, energy in [("aniso", 1.0, energy_aniso),
                             ("iso", 1.0, energy_iso)]:
        gradf = energy_gradient(g, f, f0, lam=lam, p=p, model=model)
        xi = c.random_tangent(f.values, 1.0, rng)
        fp = f.with_values(c.exp(f.values, h * xi))
        fm = f.with_values(c.exp(f.values, -h * xi))
        fd = (energy(g, fp, f0, lam, p) - energy(g, fm, f0, lam, p)) / (2 * h)
        pairing = float(np.sum(gradf.values * xi))
        assert fd == pytest.approx(pairing, rel=2e-5)


@pytest.mark.parametrize("model", ["aniso", "iso"])
def test_energy_gradient_rejects_unequal_reverse_weights(model):
    # symmetric edge set, w(0,1) != w(1,0): 2 residual at lam/2 is not the
    # gradient of the energy there
    c = Circle()
    g = WeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)])
    f = VertexFunction(c, np.array([[0.0], [1.0]]))
    with pytest.raises(DomainError):
        energy_gradient(g, f, f, lam=1.0, p=1.0, model=model)


# ---------------------------------------------------------------------------
# admissibility and quasi-norm regime
# ---------------------------------------------------------------------------

def test_check_admissible(rng):
    c = Circle()
    g = path_graph([1.0])
    good = VertexFunction(c, np.array([[0.0], [1.0]]))
    assert edge_logs(g, good)[1].max() == pytest.approx(1.0)
    bad = VertexFunction(c, np.array([[0.0], [np.pi]]))
    with pytest.raises(InjectivityError):
        edge_logs(g, bad)


def test_fidelity_injectivity_error_names_the_original_vertex():
    # vertices 0 and 2 are masked out, so the antipodal pair at vertex 3 is
    # row 1 of the active rows; the error must name vertex 3
    c = Circle()
    g = path_graph([1.0, 1.0, 1.0, 1.0])
    mask = np.array([False, True, False, True, True])
    f = VertexFunction(c, np.array([[9.0], [0.1], [9.0], [0.5], [0.2]]), mask)
    f0 = VertexFunction(c, np.array([[0.0], [0.1], [0.0], [0.5 - np.pi],
                                     [0.2]]), mask)
    with pytest.raises(InjectivityError, match="at vertex 3:") as exc:
        residual(g, f, f0, lam=1.0, p=2.0)
    assert exc.value.vertex == 3


def test_transport_injectivity_error_in_divergence_names_the_edge():
    # f(2) and f(3) are antipodal, so the transport along edge (2, 3) is
    # undefined; the error names that edge, not its position (2) among
    # the transported terms
    s = Sphere2()
    g = grid_graph(1, 4)
    x = np.array([0.0, 0.6, 0.8])
    f = VertexFunction(s, np.array([x, x, x, -x]))
    H = TangentEdgeFunction(g, f, np.zeros((g.n_edges, 3)))
    with pytest.raises(InjectivityError, match=r"edge \(2, 3\)") as exc:
        divergence(g, f, H)
    assert (exc.value.vertex, exc.value.neighbor) == (2, 3)


def test_transport_injectivity_error_in_symmetric_map_names_the_vertex():
    # f(2) and g(2) are antipodal, so the transport from g(2) to f(2) is
    # undefined; the error names vertex 2, not the position (3) of an
    # out-edge of vertex 2
    s = Sphere2()
    g = path_graph([1.0, 1.0])
    x, e = np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0])
    f = VertexFunction(s, np.array([x, x, x]))
    h = VertexFunction(s, np.array([e, e, -x]))
    with pytest.raises(InjectivityError, match="at vertex 2:") as exc:
        symmetric_map(g, f, h)
    assert exc.value.vertex == 2


def test_directional_derivative_injectivity_error_names_the_edge():
    # the one log is batch row 0; the error names edge (1, 2) instead
    s = Sphere2()
    g = path_graph([1.0, 1.0])
    x = np.array([0.0, 0.6, 0.8])
    f = VertexFunction(s, np.array([x, x, -x]))
    with pytest.raises(InjectivityError, match=r"edge \(1, 2\)") as exc:
        directional_derivative(g, f, 1, 2)
    assert (exc.value.vertex, exc.value.neighbor) == (1, 2)


def test_antipodal_one_way_edge_in_the_tail_is_named():
    # two reverse pairs, then the one-way edge (3, 0), antipodal: among the
    # evaluated edges it is the third, and the third edge of the paired
    # batch is the reverse (1, 0); the error names (3, 0)
    g = WeightedGraph.from_edges(4, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0),
                                     (2, 1, 1.0), (3, 0, 1.0)])
    e = g.paired_edges
    assert e.h == 2 and (e.src[4], e.dst[4]) == (3, 0)
    x = np.array([0.0, 0.6, 0.8])
    for f in (VertexFunction(Circle(), np.array([[0.0], [0.1], [0.2],
                                                 [np.pi]])),
              VertexFunction(Sphere2(), np.array([x, x, x, -x]))):
        for op in (lambda: edge_logs(g, f),
                   lambda: explicit_step(g, f, f, SolverConfig(dt=0.0))):
            with pytest.raises(InjectivityError,
                               match=r"edge \(3, 0\)") as exc:
                op()
            assert (exc.value.vertex, exc.value.neighbor) == (3, 0)


def test_quasi_norm_regime_runs(rng):
    c = Circle()
    g = random_symmetric_graph(rng, 8)
    f = clustered_vertex_function(c, rng, 8, spread=0.5)
    f0 = clustered_vertex_function(c, rng, 8, spread=0.5)
    lap = aniso_p_laplacian(g, f, p=0.1, eps_smooth=1e-4)
    assert np.all(np.isfinite(lap.values))
    e = energy_aniso(g, f, f0, lam=1.0, p=0.1)
    assert np.isfinite(e) and e >= 0

    r = residual(g, f, f0, lam=1.0, p=0.1, model="aniso", eps_smooth=1e-4)
    assert np.all(np.isfinite(r.values))


def test_edge_logs_distances_match_dist(rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 9)
    f = clustered_vertex_function(s, rng, 9, spread=0.5)
    logs, d = edge_logs(g, f)
    np.testing.assert_allclose(
        d, s.dist(f.values[g.src], f.values[g.dst]), atol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(logs, axis=1), d, atol=1e-13)


# ---------------------------------------------------------------------------
# the edge-log kernel against the per-edge expression
# ---------------------------------------------------------------------------

def _edge_pass_case(case, manifold, rng, n=14):
    """A graph and a function: symmetric, with one-way edges, or masked
    with NaN placeholders (an eigensolver fails on them)."""
    g = random_symmetric_graph(rng, n)
    if case == "one-way":
        keep = rng.random(g.n_edges) < 0.7
        g = WeightedGraph(n, g.src[keep], g.dst[keep], g.weight[keep])
        assert np.any(g.reverse_edge_index < 0)
    mask = np.arange(n) % 4 != 1 if case == "masked" else None
    f = clustered_vertex_function(manifold, rng, n, spread=0.8, mask=mask)
    if mask is not None:
        f.values[~mask] = np.nan
    return g, f


def _per_edge(graph, f):
    """The per-edge expression, zero on edges with an inactive endpoint."""
    act = f.active[graph.src] & f.active[graph.dst]
    logs = np.zeros(f.values[graph.src].shape)
    d = np.zeros(graph.n_edges)
    logs[act], d[act] = f.manifold.log_and_dist(
        f.values[graph.src[act]], f.values[graph.dst[act]])
    return logs, d, act


@pytest.mark.parametrize("case", ["symmetric", "one-way", "masked"])
@pytest.mark.parametrize("manifold", [Spd(2), Spd(3)], ids=lambda m: f"spd{m.n}")
def test_spd_edge_logs_match_per_edge_expression(manifold, case, rng):
    g, f = _edge_pass_case(case, manifold, rng)
    logs, d = edge_logs(g, f)
    ref_logs, ref_d, act = _per_edge(g, f)
    rev = g.reverse_edge_index
    # the kernel evaluates each one-way edge and the first edge of each
    # reverse pair; the second comes from the reverse-edge identity
    direct = (rev < 0) | (np.arange(g.n_edges) < rev)
    assert np.any(act & ~direct)
    assert np.array_equal(logs[direct], ref_logs[direct])
    assert np.array_equal(d[direct], ref_d[direct])
    assert np.all(logs[~act] == 0.0) and np.all(d[~act] == 0.0)
    filled = act & ~direct
    err = np.linalg.norm(logs[filled] - ref_logs[filled], axis=(1, 2))
    assert np.all(err <= 1e-12 * np.linalg.norm(ref_logs[filled], axis=(1, 2)))
    assert np.all(np.abs(d[filled] - ref_d[filled]) <= 1e-12 * ref_d[filled])


def _shared_reverse(manifold, g, f, ref_logs, ref_d):
    """The logs and distances that the reverse edges of a pass take, from
    the per-edge expression of their pairs' first edges: -log and the same
    distance, or on the sphere, with dot, d and d / |perp| of the first
    edge (u, v), log_v u = (d / |perp|)(x_u - dot x_v)."""
    rev = g.reverse_edge_index
    back = np.flatnonzero(rev >= 0)
    back = back[back > rev[back]]
    first = rev[back]
    logs, d = -ref_logs[first], ref_d[first]
    if isinstance(manifold, Sphere2):
        x, y = f.values[g.src[first]], f.values[g.dst[first]]
        dot = np.sum(x * y, axis=-1)
        perp = y - dot[:, None] * x
        pn = np.linalg.norm(perp, axis=-1)
        scale = np.where(pn > 1e-15, d / np.where(pn > 1e-15, pn, 1.0), 0.0)
        logs = scale[:, None] * (x - dot[:, None] * y)
    return back, logs, d


@pytest.mark.parametrize("case", ["symmetric", "one-way", "masked"])
@pytest.mark.parametrize("manifold", [Sphere2(), Circle(), Euclidean(3)],
                         ids=lambda m: m.kind)
def test_edge_logs_is_the_per_edge_expression(manifold, case, rng):
    g, f = _edge_pass_case(case, manifold, rng)
    logs, d = edge_logs(g, f)
    ref_logs, ref_d, act = _per_edge(g, f)
    if isinstance(manifold, Euclidean):
        # log_v u = u - v = -(v - u) exactly, and so is its length
        assert np.array_equal(logs, ref_logs) and np.array_equal(d, ref_d)
        return
    # the first edge of each pair and the one-way edges are evaluated
    # directly; each reverse takes its pair's shared form
    back, back_logs, back_d = _shared_reverse(manifold, g, f, ref_logs, ref_d)
    assert np.any(act[back])
    direct = np.ones(g.n_edges, dtype=bool)
    direct[back] = False
    assert np.array_equal(logs[direct], ref_logs[direct])
    assert np.array_equal(d[direct], ref_d[direct])
    assert np.array_equal(logs[back], np.where(act[back, None], back_logs,
                                               0.0))
    assert np.array_equal(d[back], np.where(act[back], back_d, 0.0))


def test_a_mask_keeps_reverse_pairs_whole(rng):
    n = 30
    g = one_way_graph(rng, n)
    e = g.paired_edges
    mask = rng.random(n) < 0.7
    f = VertexFunction(Circle(), random_point(Circle(), rng, n), mask)
    seen = []

    def op(src, dst, sel, h):
        seen.append((src, dst, sel, h))
        return np.ones(src.size)

    out = _on_active_edges(g, f, op)
    src, dst, sel, h = seen[0]
    act = mask[e.src] & mask[e.dst]
    assert 0 < h < e.h and sel.size < 2 * e.h + np.sum(~act[2 * e.h:])
    # the active edges, again in paired order
    assert np.array_equal(np.sort(sel), np.flatnonzero(act))
    assert np.array_equal(sel[h:2 * h], sel[:h] + e.h)
    assert np.all(sel[:h] < e.h) and np.all(sel[2 * h:] >= 2 * e.h)
    assert np.array_equal(src, e.src[sel]) and np.array_equal(dst, e.dst[sel])
    assert np.array_equal(src[h:2 * h], dst[:h])
    assert np.array_equal(dst[h:2 * h], src[:h])
    assert np.array_equal(out, act.astype(float))


def _per_edge_residual(g, f, f0, lam, p, model, eps=1e-7):
    """The residual and the energy edge by edge in CSR order, each edge
    with its own weight, log and distance."""
    logs, d, act = _per_edge(g, f)
    w = g.weight
    eps = eps if p < 2 else 0.0
    if model == "aniso":
        b = np.sqrt(w) ** p * (d + eps) ** (p - 2.0)
        reg = np.sum((np.sqrt(w) * d) ** p) / p
    else:
        S = np.bincount(g.src, weights=w * d * d, minlength=g.n_vertices)
        alpha = (np.sqrt(S) + eps) ** (p - 2.0)
        b = 0.5 * w * (alpha[g.src] + alpha[g.dst])
        reg = np.sum(S ** (p / 2.0)) / p
    b = np.where(act, b, 0.0)
    R = np.zeros(f.values.shape)
    np.add.at(R, g.src, -b[:, None] * logs)
    data_logs, d0 = f.manifold.log_and_dist(f.values, f0.values)
    return R - lam * data_logs, reg + 0.5 * lam * np.sum(d0 * d0)


def one_way_graph(rng, n):
    """A random graph with about 30% of its edges one-way and fresh
    weights, so that the two weights of a pair differ."""
    sym = random_symmetric_graph(rng, n)
    keep = rng.random(sym.n_edges) < 0.7
    g = WeightedGraph(n, sym.src[keep], sym.dst[keep],
                      rng.uniform(0.1, 1.0, size=int(keep.sum())))
    assert np.any(g.reverse_edge_index < 0)
    assert not g.paired_edges.equal_weights
    return g


@pytest.mark.parametrize("model,p", [("aniso", 1.0), ("aniso", 3.0),
                                     ("iso", 1.0), ("iso", 3.0)])
def test_unequal_pair_weights_give_the_per_edge_results(model, p, rng):
    # no coefficient or energy term is shared across a pair whose two
    # weights differ
    s = Sphere2()
    g = one_way_graph(rng, 16)
    f = clustered_vertex_function(s, rng, 16, spread=0.6)
    f0 = clustered_vertex_function(s, rng, 16, spread=0.6)
    R, energy = _per_edge_residual(g, f, f0, 0.7, p, model)
    np.testing.assert_allclose(residual(g, f, f0, 0.7, p, model).values, R,
                               rtol=1e-12, atol=1e-12)
    model_energy = energy_aniso if model == "aniso" else energy_iso
    assert model_energy(g, f, f0, 0.7, p) == pytest.approx(energy, rel=1e-12)
    laplacian = aniso_p_laplacian if model == "aniso" else iso_p_laplacian
    np.testing.assert_allclose(laplacian(g, f, p).values,
                               _per_edge_residual(g, f, f0, 0.0, p, model)[0],
                               rtol=1e-12, atol=1e-12)
    # five explicit sweeps, each from the per-edge residual
    cfg = SolverConfig(model=model, p=p, lam=0.7, dt=0.02, max_iters=5,
                       stop_tol=0.0)
    ref = f
    for _ in range(5):
        R, _ = _per_edge_residual(g, ref, f0, 0.7, p, model)
        ref = ref.with_values(s.exp(ref.values, -cfg.dt * R))
    got, rep = solve(g, f0, cfg, init=f)
    assert rep.iterations == 5
    np.testing.assert_allclose(got.values, ref.values, rtol=1e-12,
                               atol=1e-12)


def test_spd_edge_pass_decomposes_once_per_vertex_and_pair(rng, monkeypatch):
    matrices = []
    eigh_sym = mvgraph.manifolds._eigh_sym

    def counting(c):
        matrices.append(int(np.prod(np.shape(c)[1:])))
        return eigh_sym(c)

    monkeypatch.setattr(mvgraph.manifolds, "_eigh_sym", counting)
    g = random_symmetric_graph(rng, 40)
    f = VertexFunction(Spd(3), random_point(Spd(3), rng, 40))
    matrices.clear()
    edge_logs(g, f)
    n, m = g.n_vertices, g.n_edges
    # two per directed edge before: x^{+-1/2} and Log of the mid matrix
    assert matrices and sum(matrices) <= n + m // 2


def test_spd_operators_decompose_each_root_once(rng, monkeypatch):
    matrices = []
    eigh_sym = mvgraph.manifolds._eigh_sym

    def counting(c):
        matrices.append(int(np.prod(np.shape(c)[1:])))
        return eigh_sym(c)

    s = Spd(3)
    g = random_symmetric_graph(rng, 40)
    f, f0 = (VertexFunction(s, random_point(s, rng, 40)) for _ in range(2))
    H, K = edge_fn(g, f, rng), edge_fn(g, f, rng)
    n, m = g.n_vertices, g.n_edges
    # the roots x^{+-1/2} of each function once per vertex, plus one mid
    # matrix x^{-1/2} y x^{-1/2} per distance, evaluated log or transport
    bounds = {
        "energy_aniso": (lambda: energy_aniso(g, f, f0, 1.0, 1.0), 2 * n + m),
        "vertex_norm_p": (lambda: vertex_norm_p(g, f, 1.0), n + m),
        "edge_inner": (lambda: edge_inner(g, f, H, K), n),
        "edge_norm_pq": (lambda: edge_norm_pq(g, f, H, 2.0, 1.0), n),
        "divergence": (lambda: divergence(g, f, H), n + m),
        # two edge passes of n + m/2, and a transport per edge
        "symmetric_map": (lambda: symmetric_map(g, f, f0), 2 * n + 2 * m),
    }
    monkeypatch.setattr(mvgraph.manifolds, "_eigh_sym", counting)
    for name, (op, bound) in bounds.items():
        matrices.clear()
        op()
        assert matrices and sum(matrices) <= bound, name


def test_local_variation_decomposes_the_root_of_u_once(rng, monkeypatch):
    matrices = []
    eigh_sym = mvgraph.manifolds._eigh_sym

    def counting(c):
        matrices.append(int(np.prod(np.shape(c)[1:])))
        return eigh_sym(c)

    s = Spd(3)
    g = random_symmetric_graph(rng, 40)
    f = VertexFunction(s, random_point(s, rng, 40))
    H = edge_fn(g, f, rng)
    u = int(np.argmax(np.diff(g.indptr)))
    assert np.diff(g.indptr)[u] > 1
    monkeypatch.setattr(mvgraph.manifolds, "_eigh_sym", counting)
    local_variation(g, f, H, u)
    # the roots of u, not one copy per out-edge
    assert sum(matrices) == 1


@pytest.mark.parametrize("manifold", [Sphere2(), Circle()], ids=str)
def test_point_state_of_unmasked_points_is_their_rows(manifold, rng):
    # so the sweeps on sphere and circle data copy nothing for it
    f = clustered_vertex_function(manifold, rng, 12)._to_rows()
    assert f.state is f.rows
