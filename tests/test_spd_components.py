"""The Spd kernels, which work on component arrays, against the batched
matrix-product forms they replace (``spd_matmul``).  Both take their
eigenpairs from ``_eigh_sym``, so what is compared is the layout: the
congruences, the recomposition f(Lambda) and the reverse-edge product."""

import numpy as np
import pytest

import mvgraph.manifolds
import spd_matmul
from conftest import random_point, random_symmetric_graph
from mvgraph.calculus import _on_active_edges, _scatter, edge_logs
from mvgraph.fields import VertexFunction
from mvgraph.graphs import WeightedGraph
from mvgraph.manifolds import Spd, _components, _matrices

RTOL = 1e-13


def _assert_close(got, ref, rtol=RTOL):
    """Relative error of each row (Frobenius norm over the point axes)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    axes = tuple(range(1, ref.ndim))
    err = np.sqrt(np.sum((got - ref) ** 2, axis=axes))
    assert np.all(err <= rtol * np.sqrt(np.sum(ref ** 2, axis=axes)))


def _rotated(rng, lam):
    q, _ = np.linalg.qr(rng.normal(size=lam.shape + (3,)))
    return (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)


def _pairs(name, rng, n=5000):
    """Point pairs (x, y), n of them: more than one block of rows."""
    m = Spd(3)
    x = random_point(m, rng, n)
    if name == "random":
        return x, random_point(m, rng, n)
    if name == "near-isotropic":
        # every other mid matrix x^-1/2 y x^-1/2 is a I + 1e-6 S, whose
        # eigenvalue gaps send it to LAPACK; the rest are solved in closed
        # form in the same blocks.  |log a| >= 0.25 keeps the logs away
        # from zero, where a relative bound means nothing.
        y = random_point(m, rng, n)
        g = rng.normal(size=(n // 2, 3, 3))
        a = np.exp(rng.choice([-1.0, 1.0], size=(n // 2, 1, 1))
                   * rng.uniform(0.25, 0.7, size=(n // 2, 1, 1)))
        mid = a * np.eye(3) + 1e-6 * (g + np.swapaxes(g, -1, -2))
        rt, _ = spd_matmul.roots(x[::2])
        y[::2] = spd_matmul.sym(rt @ mid @ rt)
        return x, y
    assert name == "conditioned"
    # condition numbers up to 1e4, and y one moderate step away
    x = _rotated(rng, 10.0 ** rng.uniform(-2.0, 2.0, size=(n, 3)))
    g = rng.normal(scale=0.3, size=(n, 3, 3))
    rt, _ = spd_matmul.roots(x)
    return x, spd_matmul.sym(rt @ spd_matmul.exp(
        np.eye(3), g + np.swapaxes(g, -1, -2)) @ rt)


def _rtol(name, x):
    """Both forms round x^-1/2 y x^-1/2 to about eps * cond(x), so on
    badly conditioned points the bound of each row is 1e-14 (45 eps) per
    unit of its condition number."""
    if name != "conditioned":
        return RTOL
    w = np.linalg.eigvalsh(x)
    return 1e-14 * w[:, -1] / w[:, 0]


@pytest.mark.parametrize("name", ["random", "near-isotropic", "conditioned"])
def test_kernels_match_matmul_forms(name, rng, monkeypatch):
    x, y = _pairs(name, rng)
    m = Spd(3)
    rows = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kw):
        rows.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(mvgraph.manifolds.np.linalg, "eigh", counting)
    logs, d = m.log_and_dist(x, y)
    if name == "near-isotropic":
        assert 0 < sum(rows) < x.shape[0]
    ref_logs, ref_d = spd_matmul.log_and_dist(x, y)
    rtol = _rtol(name, x)
    _assert_close(logs, ref_logs, rtol)
    _assert_close(d, ref_d, rtol)
    _assert_close(m.dist(x, y), spd_matmul.dist(x, y), rtol)
    _assert_close(m.exp(x, ref_logs), spd_matmul.exp(x, ref_logs), rtol)


@pytest.mark.parametrize("case", ["symmetric", "one-way", "masked"])
@pytest.mark.parametrize("manifold", [Spd(2), Spd(3)],
                         ids=lambda m: f"spd{m.n}")
def test_edge_pass_matches_matmul_form(manifold, case, rng):
    n = 300
    g = random_symmetric_graph(rng, n, extra=6 * n)
    if case == "one-way":
        keep = rng.random(g.n_edges) < 0.7
        g = WeightedGraph(n, g.src[keep], g.dst[keep], g.weight[keep])
        assert np.any(g.reverse_edge_index < 0)
    mask = np.arange(n) % 5 != 2 if case == "masked" else None
    values = random_point(manifold, rng, n)
    if mask is not None:
        values[~mask] = np.nan
    f = VertexFunction(manifold, values, mask)
    logs, d = edge_logs(g, f)
    # _on_active_edges spreads along the last (batch) axis
    ref_logs, ref_d = _on_active_edges(
        g, f, lambda src, dst, sel, rev: tuple(
            np.moveaxis(a, 0, -1) for a in spd_matmul.edge_log_and_dist(
                f.values, src, dst, rev)))
    ref_logs = np.moveaxis(ref_logs, -1, 0)
    act = f.active[g.src] & f.active[g.dst]
    assert np.all(logs[~act] == 0.0) and np.all(d[~act] == 0.0)
    _assert_close(logs[act], ref_logs[act])
    _assert_close(d[act], ref_d[act])


def test_one_point_broadcasts_against_a_batch(rng):
    m = Spd(3)
    x, y = random_point(m, rng), random_point(m, rng, 50)
    xs = np.broadcast_to(x, y.shape)
    logs, d = m.log_and_dist(x, y)
    ref_logs, ref_d = spd_matmul.log_and_dist(xs, y)
    _assert_close(logs, ref_logs)
    _assert_close(d, ref_d)
    _assert_close(m.dist(x, y), ref_d)
    _assert_close(m.dist(y, x), spd_matmul.dist(y, xs))
    _assert_close(m.exp(x, ref_logs), spd_matmul.exp(xs, ref_logs))
    # a single pair gives a single value, as for the other manifolds
    assert np.ndim(m.dist(x, y[0])) == 0
    assert m.log(x, y[0]).shape == (3, 3)


def test_dist_decomposes_each_base_point_once(rng, monkeypatch):
    # the kNN-patch builder's broadcast: n base points against B blocks
    matrices = []
    eigh_sym = mvgraph.manifolds._eigh_sym

    def counting(c):
        matrices.append(int(np.prod(np.shape(c)[1:])))
        return eigh_sym(c)

    m = Spd(3)
    n, b = 40, 6
    x = random_point(m, rng, n)
    y = random_point(m, rng, b * n).reshape(b, n, 3, 3)
    monkeypatch.setattr(mvgraph.manifolds, "_eigh_sym", counting)
    d = m.dist(x, y)
    # the roots of x, then the mid matrices of every pair
    assert matrices == [n, b * n]
    # a column gets the same bits whatever the batch it is in
    assert np.array_equal(d, m.dist(np.broadcast_to(x, y.shape), y))
    assert d[1, 2] == m.dist(x[2], y[1, 2])


@pytest.mark.parametrize("k", [2, 3])
def test_empty_batches(k):
    m = Spd(k)
    x = np.zeros((0, k, k))
    logs, d = m.log_and_dist(x, x)
    assert logs.shape == (0, k, k) and d.shape == (0,)
    assert m.dist(np.eye(k), x).shape == (0,)
    assert m.exp(x, x).shape == (0, k, k)
    none = np.zeros(0, dtype=np.int64)
    p = m._rows(np.eye(k)[None])
    logs, d = m._edge_log_and_dist_rows(p, m._point_state_rows(p), none,
                                        none, none)
    assert logs.shape == (m.intrinsic_dim, 0) and d.shape == (0,)


def test_spd2_kernels_match_matmul_forms(rng):
    m = Spd(2)
    x, y = random_point(m, rng, 500), random_point(m, rng, 500)
    logs, d = m.log_and_dist(x, y)
    ref_logs, ref_d = spd_matmul.log_and_dist(x, y)
    _assert_close(logs, ref_logs)
    _assert_close(d, ref_d)
    _assert_close(m.dist(x, y), spd_matmul.dist(x, y))
    _assert_close(m.exp(x, ref_logs), spd_matmul.exp(x, ref_logs))


def test_scatter_of_symmetric_terms_is_the_nine_column_sum(rng):
    # the six component rows give the sum of all nine entries exactly
    g = random_symmetric_graph(rng, 40)
    f = VertexFunction(Spd(3), random_point(Spd(3), rng, 40))
    logs, _ = edge_logs(g, f)
    terms = -rng.uniform(0.1, 1.0, size=g.n_edges)[:, None, None] * logs

    def nine(t):
        return np.stack([np.bincount(g.src, weights=t[:, i, j],
                                     minlength=g.n_vertices)
                         for i in range(3) for j in range(3)],
                        axis=1).reshape(-1, 3, 3)

    assert np.array_equal(terms, terms.transpose(0, 2, 1))
    assert np.array_equal(_matrices(_scatter(g, _components(terms)),
                                    (g.n_vertices,)), nine(terms))
    # terms that are not symmetric are summed entry by entry, as nine rows
    terms[:, 0, 1] += 1.0
    rows = terms.reshape(g.n_edges, 9).T
    assert np.array_equal(_scatter(g, rows).T.reshape(-1, 3, 3), nine(terms))
