"""Graph construction oracles: enumerated edge counts, brute-force
recomputation of patch distances and neighbour selections, and the dense
n x n builders that the streamed ones must reproduce bit for bit."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (clustered_vertex_function, random_point,
                      random_symmetric_graph)
from mvgraph import graphs
from mvgraph.errors import ConfigError, DomainError, FormatError
from mvgraph.fields import VertexFunction
from mvgraph.graphs import (KNN_WEIGHT_FLOOR, WeightedGraph, _box_sum,
                            _patch_psm_candidates, epsilon_ball_graph,
                            grid_graph, knn_patch_graph, load_edges_tsv,
                            save_edges_tsv)
from mvgraph.manifolds import Circle, Spd, Sphere2
from mvgraph.synthetics import fibonacci_sphere


# ---------------------------------------------------------------------------
# WeightedGraph container
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, [(0, 0, 1.0)])          # self-loop
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (0, 1, 2.0)])  # duplicate
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, [(0, 1, -1.0)])         # nonpositive
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, [(0, 3, 1.0)])          # out of range
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, [(0, 1, 1.0)], symmetric=True)  # asym
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(2, [(0, 1, 1.0), (1, 0, 2.0)], symmetric=True)


def test_from_edges_rejects_fractional_endpoints():
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, [(0.5, 1.9, 1.0)])
    with pytest.raises(DomainError):
        WeightedGraph.from_edges(3, np.array([[0.0, 1.0, 1.0], [1.0, np.nan, 1.0]]))
    with pytest.raises(DomainError):
        WeightedGraph(3, [0.5], [1.9], [1.0])
    g = WeightedGraph.from_edges(3, np.array([[0.0, 2.0, 0.5]]))
    assert g.edge_index(0, 2) == 0


def test_sorted_and_shuffled_edges_give_identical_graphs(rng):
    ref = random_symmetric_graph(rng, 30)
    one_way = rng.random(ref.n_edges) < 0.3
    for symmetric, keep in ((True, np.ones(ref.n_edges, bool)),
                            (False, ~one_way)):
        src, dst = ref.src[keep], ref.dst[keep]
        w = ref.weight[keep].copy()
        perm = rng.permutation(src.size)
        graphs = [WeightedGraph(30, src, dst, w, symmetric=symmetric),
                  WeightedGraph(30, src[perm], dst[perm], w[perm],
                                symmetric=symmetric)]
        for g in graphs:
            for name in ("src", "dst", "weight", "indptr",
                         "reverse_edge_index"):
                assert np.array_equal(getattr(g, name),
                                      getattr(graphs[0], name))
            assert np.array_equal(g.weight, ref.weight[keep])
        # the graph never aliases the caller's weight array
        w[:] = 7.0
        assert np.array_equal(graphs[0].weight, ref.weight[keep])
    assert np.any(graphs[0].reverse_edge_index < 0)
    # duplicates are caught in sorted and in unsorted input
    for u, v in (([0, 1, 1], [1, 2, 2]), ([1, 0, 1], [2, 1, 2])):
        with pytest.raises(DomainError, match="duplicate"):
            WeightedGraph(3, u, v, [1.0, 1.0, 1.0])


def test_reverse_edge_index(rng):
    g = random_symmetric_graph(rng, 17)
    rev = g.reverse_edge_index
    pairs = {(int(u), int(v)): e for e, (u, v) in enumerate(zip(g.src, g.dst))}
    for e in range(g.n_edges):
        expect = pairs.get((int(g.dst[e]), int(g.src[e])), -1)
        assert rev[e] == expect


def test_neighbors_and_edge_index():
    g = WeightedGraph.from_edges(4, [(2, 0, 1.5), (2, 3, 0.5), (0, 2, 1.0)])
    nbrs, wts = g.neighbors(2)
    np.testing.assert_array_equal(nbrs, [0, 3])
    np.testing.assert_array_equal(wts, [1.5, 0.5])
    assert g.edge_index(2, 3) >= 0
    assert g.edge_index(3, 2) == -1
    np.testing.assert_array_equal(g.isolated_vertices(), [1])


def test_vertex_queries_reject_out_of_range_vertices():
    # with the key u*n + v unchecked, edge_index(0, 6) found edge (1, 2)
    g = WeightedGraph.from_edges(
        4, [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    for u, v in [(0, 6), (6, 0), (-1, 1), (1, -1), (4, 4), (0.5, 1.9)]:
        with pytest.raises(DomainError):
            g.edge_index(u, v)
    for u in (-1, 4, 9, 1.5):
        with pytest.raises(DomainError):
            g.neighbors(u)
    np.testing.assert_array_equal(g.neighbors(3)[0], [])
    assert g.edge_index(3, 3) == -1


# ---------------------------------------------------------------------------
# grid graphs
# ---------------------------------------------------------------------------

def test_grid_graph_edge_counts():
    assert grid_graph(1, 1).n_edges == 0
    assert grid_graph(2, 2).n_edges == 8
    g = grid_graph(3, 3)
    assert g.n_edges == 24
    assert g.symmetric
    assert g.out_degree[4] == 4          # center pixel
    assert set(g.out_degree) == {2, 3, 4}
    assert np.all(g.weight == 1.0)


# ---------------------------------------------------------------------------
# epsilon-ball graphs
# ---------------------------------------------------------------------------

def test_eps_ball_antipodal_points_unconnected():
    pos = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    with pytest.warns(UserWarning, match="isolated"):
        g = epsilon_ball_graph(pos, np.pi / 12, metric="arc")
    assert g.n_edges == 0
    assert g.isolated_vertices().size == 2


@pytest.mark.parametrize("metric", ["arc", "euclidean"])
def test_eps_ball_rejects_non_finite_positions(metric):
    pos = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [np.nan, 0.0, 0.0]])
    with pytest.raises(DomainError, match="finite"):
        epsilon_ball_graph(pos, 0.5, metric=metric)


@pytest.mark.parametrize("eps", [np.nan, 0.0, -1.0])
def test_eps_ball_rejects_non_positive_eps(eps):
    pos = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(DomainError, match="eps"):
        epsilon_ball_graph(pos, eps)


def test_eps_ball_collinear_voxels():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    g = epsilon_ball_graph(pos, 2.0, metric="euclidean", weight_rule="unit")
    assert g.n_edges == 6                # complete graph on 3 vertices
    assert np.all(g.weight == 1.0)
    assert g.symmetric


def test_eps_ball_inverse_square_weights():
    pos = np.array([[0.0, 0, 0], [0.5, 0, 0]])
    g = epsilon_ball_graph(pos, 1.0, metric="euclidean", weight_rule="invsq")
    np.testing.assert_allclose(g.weight, [4.0, 4.0])


def test_eps_ball_membership_brute_force(rng):
    pos = rng.normal(size=(60, 3))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    eps = 0.6
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = epsilon_ball_graph(pos, eps, metric="arc")
    have = set(zip(g.src.tolist(), g.dst.tolist()))
    for i in range(60):
        for j in range(60):
            if i == j:
                continue
            d = np.arctan2(np.linalg.norm(np.cross(pos[i], pos[j])), pos[i] @ pos[j])
            assert ((i, j) in have) == (d <= eps)
            if (i, j) in have:
                w = g.weight[g.edge_index(i, j)]
                assert w == pytest.approx(1.0 / d ** 2)


# ---------------------------------------------------------------------------
# patch distances
# ---------------------------------------------------------------------------

def _brute_patch_distance(f, shape, i, j, s):
    h, w = shape
    ri, ci = divmod(i, w)
    rj, cj = divmod(j, w)
    total = 0.0
    act = f.active
    for dk in range(-s, s + 1):
        for dl in range(-s, s + 1):
            pi = ((ri + dk) % h) * w + (ci + dl) % w
            pj = ((rj + dk) % h) * w + (cj + dl) % w
            if not (act[pi] and act[pj]):
                continue
            total += float(f.manifold.dist(f.values[pi], f.values[pj]) ** 2)
    return np.sqrt(total)


def _assert_psm_matches_brute(f, shape, s, window=None):
    """Check every block of the candidate stream against the brute-force
    patch distance; return the blocks joined as (n, K) arrays, one column
    per candidate."""
    psm2_cols, cand_cols = [], []
    for psm2, cand in _patch_psm_candidates(f, shape, s, window=window):
        for b in range(cand.shape[0]):
            for i in range(f.n_vertices):
                brute = _brute_patch_distance(f, shape, i, int(cand[b, i]), s)
                assert abs(psm2[b, i] - brute ** 2) <= 1e-12
        psm2_cols.append(psm2.T)
        cand_cols.append(cand.T)
    return np.hstack(psm2_cols), np.hstack(cand_cols)


def test_patch_distance_trivia():
    c = Circle()
    f = VertexFunction(c, np.zeros((12, 1)))
    for s in (1, 2):
        psm2, cand = _assert_psm_matches_brute(f, (3, 4), s)
        assert np.all(psm2 == 0.0)   # constant image
        assert not np.any(cand == np.arange(12)[:, None])


def test_patch_distance_single_term():
    c = Circle()
    f = VertexFunction(c, np.array([[0.0], [np.pi / 2]]))
    psm2, cand = _assert_psm_matches_brute(f, (1, 2), 0)
    np.testing.assert_array_equal(cand, [[1], [0]])
    np.testing.assert_allclose(np.sqrt(psm2), np.pi / 2, rtol=1e-12)


def test_patch_distance_matches_brute_force(rng):
    c = Circle()
    h, w = 5, 6
    mask = rng.random(h * w) > 0.15
    f = clustered_vertex_function(c, rng, h * w, spread=0.8, mask=mask)
    assert not mask.all()
    for window in (None, 1, 2):
        for s in (0, 1, 2):
            _assert_psm_matches_brute(f, (h, w), s, window=window)


# ---------------------------------------------------------------------------
# k-NN patch graphs
# ---------------------------------------------------------------------------

def test_knn_weight_interpolation():
    # PSM row of vertex 0 is (0.1, 0.3): most similar weight 1, least
    # similar falls to the floor
    c = Circle()
    f = VertexFunction(c, np.array([[0.0], [0.1], [0.3]]))
    g = knn_patch_graph(f, (1, 3), k=2, s=0)
    assert g.weight[g.edge_index(0, 1)] == pytest.approx(1.0)
    assert g.weight[g.edge_index(0, 2)] == pytest.approx(KNN_WEIGHT_FLOOR)


def test_knn_degenerate_all_equal():
    c = Circle()
    f = VertexFunction(c, np.zeros((4, 1)))
    g = knn_patch_graph(f, (2, 2), k=3, s=0)
    assert np.all(g.weight == 1.0)
    assert np.all(g.out_degree == 3)


def test_knn_k1_single_neighbor():
    c = Circle()
    f = VertexFunction(c, np.array([[0.0], [0.4], [1.4]]))
    g = knn_patch_graph(f, (1, 3), k=1, s=0)
    e = g.edge_index(0, 1)
    assert e >= 0 and g.weight[e] == 1.0


def test_knn_tie_break_smaller_index():
    # from vertex 0, vertices 1 and 2 tie at PSM 0.3; k=1 must pick 1.
    # (vertex 2's own nearest neighbour is 3, so symmetrization cannot
    # reintroduce an edge between 0 and 2)
    c = Circle()
    f = VertexFunction(c, np.array([[0.0], [0.3], [-0.3], [-0.5]]))
    g = knn_patch_graph(f, (1, 4), k=1, s=0)
    assert g.edge_index(0, 1) >= 0
    assert g.edge_index(0, 2) == -1 and g.edge_index(2, 0) == -1


def test_knn_too_few_candidates():
    c = Circle()
    f = VertexFunction(c, np.zeros((4, 1)))
    with pytest.raises(DomainError):
        knn_patch_graph(f, (2, 2), k=4, s=0)


@pytest.mark.parametrize("s", [-1, 1.5])
def test_knn_rejects_bad_patch_half_width(s):
    # s = -1 would sum empty patches and link every pixel at distance 0
    f = VertexFunction(Circle(), np.zeros((4, 1)))
    with pytest.raises(DomainError, match="half-width"):
        knn_patch_graph(f, (2, 2), k=1, s=s)


def test_knn_selection_brute_force(rng):
    c = Circle()
    h, w, k, s = 4, 5, 3, 1
    f = clustered_vertex_function(c, rng, h * w, spread=1.0)
    g = knn_patch_graph(f, (h, w), k=k, s=s)
    assert g.symmetric
    assert g.out_degree.min() >= k
    n = h * w
    psm = np.array([[_brute_patch_distance(f, (h, w), i, j, s) for j in range(n)]
                    for i in range(n)])
    for e in range(g.n_edges):
        u, v = int(g.src[e]), int(g.dst[e])
        row_u = np.delete(psm[u], u)
        row_v = np.delete(psm[v], v)
        ku = np.sort(row_u)[k - 1]
        kv = np.sort(row_v)[k - 1]
        # every kept edge was selected by at least one endpoint
        assert psm[u, v] <= ku + 1e-12 or psm[v, u] <= kv + 1e-12


def test_knn_window_restricts_candidates(rng):
    c = Circle()
    f = clustered_vertex_function(c, rng, 7 * 7, spread=1.0)
    g = knn_patch_graph(f, (7, 7), k=2, s=1, window=1)
    for e in range(g.n_edges):
        ru, cu = divmod(int(g.src[e]), 7)
        rv, cv = divmod(int(g.dst[e]), 7)
        dr = min((ru - rv) % 7, (rv - ru) % 7)
        dc = min((cu - cv) % 7, (cv - cu) % 7)
        assert max(dr, dc) <= 1


def test_knn_masked_vertices_have_no_edges(rng):
    c = Circle()
    mask = np.ones(16, dtype=bool)
    mask[[3, 7]] = False
    f = clustered_vertex_function(c, rng, 16, spread=0.5, mask=mask)
    g = knn_patch_graph(f, (4, 4), k=2, s=1)
    assert not np.isin(g.src, [3, 7]).any()
    assert not np.isin(g.dst, [3, 7]).any()


@pytest.mark.parametrize("k, window", [(2.7, None), (np.nan, None),
                                       ("3", None), (2, 1.6), (2, np.nan)])
def test_knn_rejects_non_integer_k_and_window(k, window):
    # int() used to truncate 2.7 and 1.6 silently and fail on NaN
    f = VertexFunction(Circle(), np.zeros((9, 1)))
    with pytest.raises(DomainError):
        knn_patch_graph(f, (3, 3), k=k, s=0, window=window)


def test_knn_rejects_small_window():
    f = VertexFunction(Circle(), np.zeros((9, 1)))
    with pytest.raises(ConfigError, match="window"):
        knn_patch_graph(f, (3, 3), k=1, s=0, window=0)


# ---------------------------------------------------------------------------
# streamed builders against the dense n x n references
# ---------------------------------------------------------------------------

def _dense_box_sum(a, s):
    out = np.zeros_like(a)
    for dk in range(-s, s + 1):
        out += np.roll(a, -dk, axis=-2)
    out2 = np.zeros_like(out)
    for dl in range(-s, s + 1):
        out2 += np.roll(out, -dl, axis=-1)
    return out2


def _dense_knn_reference(f, shape, k, s, window=None):
    """The kNN-patch builder as it was before streaming: the full (n, K)
    candidate arrays, then a lexsort per vertex."""
    h, w = shape
    n = h * w
    if window is None:
        disps = [(dr, dc) for dr in range(h) for dc in range(w)
                 if not (dr == 0 and dc == 0)]
    else:
        disps = sorted({(dr % h, dc % w)
                        for dr in range(-min(window, h - 1), min(window, h - 1) + 1)
                        for dc in range(-min(window, w - 1), min(window, w - 1) + 1)
                        if not (dr == 0 and dc == 0)})
    active, vals = f.active, f.values
    psm2 = np.empty((n, len(disps)))
    cand = np.empty((n, len(disps)), dtype=np.int64)
    for start in range(0, len(disps), 64):
        chunk = disps[start:start + 64]
        perms = np.stack([((np.arange(h)[:, None] + dr) % h * w
                           + (np.arange(w)[None, :] + dc) % w).ravel()
                          for dr, dc in chunk])
        d = f.manifold.dist(
            np.broadcast_to(vals, (len(chunk),) + vals.shape), vals[perms])
        a = d * d
        a *= active[None, :]
        a *= active[perms]
        b = _dense_box_sum(a.reshape(len(chunk), h, w), s).reshape(len(chunk), n)
        psm2[:, start:start + len(chunk)] = b.T
        cand[:, start:start + len(chunk)] = perms.T
    src_list, dst_list, w_list = [], [], []
    for i in range(n):
        if not active[i]:
            continue
        cj = cand[i]
        valid = active[cj] & (cj != i)
        rows, cols = psm2[i][valid], cj[valid]
        order = np.lexsort((cols, rows))[:k]
        dsel = np.sqrt(rows[order])
        d1, dk_ = dsel[0], dsel[-1]
        if dk_ > d1:
            wts = np.clip((dk_ - dsel) / (dk_ - d1), KNN_WEIGHT_FLOOR, 1.0)
        else:
            wts = np.ones(k)
        src_list.append(np.full(k, i, dtype=np.int64))
        dst_list.append(cols[order])
        w_list.append(wts)
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    wts = np.concatenate(w_list)
    keys = np.concatenate([src * n + dst, dst * n + src])
    wall = np.concatenate([wts, wts])
    order = np.argsort(keys, kind="stable")
    keys, wall = keys[order], wall[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(keys) > 0)))
    ukeys = keys[starts]
    uw = np.maximum.reduceat(wall, starts)
    return WeightedGraph(n, ukeys // n, ukeys % n, uw, symmetric=True)


def _dense_eps_ball_reference(pos, eps, metric, weight_rule):
    """The epsilon-ball builder as it was before streaming: every pairwise
    distance in one n x n array."""
    n = pos.shape[0]
    if metric == "arc":
        dots = np.clip(pos @ pos.T, -1.0, 1.0)
        cr = np.cross(pos[:, None, :], pos[None, :, :])
        d = np.arctan2(np.linalg.norm(cr, axis=-1), dots)
    else:
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    iu, ju = np.nonzero((d <= eps) & ~np.eye(n, dtype=bool))
    dij = d[iu, ju]
    wts = 1.0 / dij ** 2 if weight_rule == "invsq" else np.ones(dij.size)
    return WeightedGraph(n, iu, ju, wts, symmetric=True)


def _assert_same_graph(g, ref):
    assert g.n_vertices == ref.n_vertices and g.symmetric == ref.symmetric
    assert np.array_equal(g.src, ref.src)
    assert np.array_equal(g.dst, ref.dst)
    assert np.array_equal(g.weight, ref.weight)


def test_box_sum_matches_rolled_sum(rng):
    # the last shape is summed in cache-sized sub-blocks of displacements
    for shape, s in [((3, 5, 4), 1), ((2, 4, 6), 2), ((1, 2, 3), 4),
                     ((1, 1, 1), 2), ((5, 96, 128), 3)]:
        a = rng.random(shape) ** 3
        assert np.array_equal(_box_sum(a, s), _dense_box_sum(a, s))


_KNN_CASES = {
    # name: (manifold, (h, w), k, s, window, masked)
    "circle-global": (Circle(), (5, 6), 3, 1, None, False),
    "circle-masked": (Circle(), (5, 6), 3, 1, None, True),
    "circle-window1": (Circle(), (6, 7), 2, 1, 1, True),
    "circle-window2": (Circle(), (6, 7), 4, 2, 2, False),
    "circle-s0": (Circle(), (4, 5), 3, 0, None, False),
    "circle-s2": (Circle(), (5, 5), 3, 2, None, True),
    "circle-s-exceeds-grid": (Circle(), (2, 3), 2, 3, None, False),
    "circle-k1": (Circle(), (5, 6), 1, 1, None, True),
    "circle-9x9": (Circle(), (9, 9), 5, 1, None, True),
    # 575 displacements: two blocks of the default size
    "circle-two-blocks": (Circle(), (24, 24), 6, 2, None, True),
    "sphere2": (Sphere2(), (5, 6), 3, 1, None, True),
    "spd2": (Spd(2), (4, 5), 3, 1, 2, True),
}


@pytest.mark.parametrize("case", sorted(_KNN_CASES))
def test_knn_matches_dense_reference(case, rng, monkeypatch):
    manifold, (h, w), k, s, window, masked = _KNN_CASES[case]
    n = h * w
    mask = None
    if masked:
        mask = rng.random(n) > 0.2
        mask[:2] = True
    f = clustered_vertex_function(manifold, rng, n, spread=1.0, mask=mask)
    ref = _dense_knn_reference(f, (h, w), k, s, window)
    _assert_same_graph(knn_patch_graph(f, (h, w), k, s, window=window), ref)
    # blocks of 7 displacements: the merge runs many times on every case
    monkeypatch.setattr(graphs, "_BLOCK_PAIRS", 7 * n)
    _assert_same_graph(knn_patch_graph(f, (h, w), k, s, window=window), ref)


def test_knn_constant_image_matches_dense_reference(monkeypatch):
    # every candidate ties: the smaller index decides every selection
    f = VertexFunction(Circle(), np.full((63, 1), 0.5))
    ref = _dense_knn_reference(f, (7, 9), 4, 1)
    _assert_same_graph(knn_patch_graph(f, (7, 9), 4, 1), ref)
    monkeypatch.setattr(graphs, "_BLOCK_PAIRS", 5 * 63)
    _assert_same_graph(knn_patch_graph(f, (7, 9), 4, 1), ref)


def test_knn_quantized_image_matches_dense_reference(rng, monkeypatch):
    # few distinct values: ties straddle the k-th place in many rows
    vals = rng.integers(0, 3, size=(8 * 9, 1)) * 0.5
    f = VertexFunction(Circle(), vals.astype(float))
    for k, s in [(3, 0), (6, 1)]:
        ref = _dense_knn_reference(f, (8, 9), k, s)
        _assert_same_graph(knn_patch_graph(f, (8, 9), k, s), ref)
        monkeypatch.setattr(graphs, "_BLOCK_PAIRS", 3 * 72)
        _assert_same_graph(knn_patch_graph(f, (8, 9), k, s), ref)
        monkeypatch.undo()


@pytest.mark.parametrize("weight_rule", ["invsq", "unit"])
def test_eps_ball_euclidean_matches_dense_reference(weight_rule, rng,
                                                    monkeypatch):
    pos = rng.normal(size=(301, 3)) * 40.0 + 7.0
    ref = _dense_eps_ball_reference(pos, 25.0, "euclidean", weight_rule)
    assert ref.n_edges > 1000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rows in (None, 13, 1):   # 301 is not a multiple of 13
            if rows is not None:
                monkeypatch.setattr(graphs, "_BLOCK_PAIRS", rows * 301 * 3)
            _assert_same_graph(
                epsilon_ball_graph(pos, 25.0, "euclidean", weight_rule), ref)


def test_eps_ball_euclidean_huge_coordinates():
    # |x|^2 overflows here; the pairwise differences do not
    pos = np.array([[1e200, 0.0], [1e200, 1.0], [-1e200, 0.0]])
    with pytest.warns(UserWarning, match="isolated"), \
            np.errstate(over="ignore"):
        g = epsilon_ball_graph(pos, 1.5, "euclidean", "unit")
    assert g.src.tolist() == [0, 1] and g.dst.tolist() == [1, 0]


@pytest.mark.parametrize("rows", [None, 7])
def test_eps_ball_arc_matches_dense_reference(rows, monkeypatch):
    # the spd-sphere recipe's points and eps; 2000 is not a multiple of the
    # default 131 rows per block
    pos = fibonacci_sphere(2000)
    eps = np.pi / 12
    ref = _dense_eps_ball_reference(pos, eps, "arc", "invsq")
    assert ref.n_edges == 67678
    if rows is not None:
        monkeypatch.setattr(graphs, "_BLOCK_PAIRS", rows * 2000)
    _assert_same_graph(epsilon_ball_graph(pos, eps), ref)
    unit = epsilon_ball_graph(pos, eps, weight_rule="unit")
    assert np.array_equal(unit.src, ref.src) and np.array_equal(unit.dst, ref.dst)
    assert np.all(unit.weight == 1.0)


def test_eps_ball_arc_small_blocks_match_dense_reference(rng, monkeypatch):
    # The arc distance reads x.y from a matrix product.  At some sizes the
    # BLAS rounds a row block's product differently in the last bit from
    # the reference's one n x n product, so weights are compared to 1e-14
    # here; the recipe-size test above pins them bit for bit.
    pos = random_point(Sphere2(), rng, 301)
    ref = _dense_eps_ball_reference(pos, 0.3, "arc", "invsq")
    for rows in (None, 13, 1):
        if rows is not None:
            monkeypatch.setattr(graphs, "_BLOCK_PAIRS", rows * 301)
        g = epsilon_ball_graph(pos, 0.3)
        assert np.array_equal(g.src, ref.src) and np.array_equal(g.dst, ref.dst)
        np.testing.assert_allclose(g.weight, ref.weight, rtol=1e-14)


def test_eps_ball_large_eps_joins_every_pair(rng):
    pos = random_point(Sphere2(), rng, 40)
    for eps in (4.0, np.inf):
        g = epsilon_ball_graph(pos, eps)
        assert g.n_edges == 40 * 39
        np.testing.assert_allclose(
            g.weight, _dense_eps_ball_reference(pos, eps, "arc", "invsq").weight,
            rtol=1e-14)
    with pytest.warns(UserWarning, match="isolated"):
        assert epsilon_ball_graph(pos, 1e-9).n_edges == 0


def test_eps_ball_near_unit_vectors_keep_every_pair(rng):
    # norms may be off by up to 1e-8; the prefilter on x.y must still keep
    # every pair within eps
    eps = 0.25
    pos = random_point(Sphere2(), rng, 400)
    pos *= 1 + rng.uniform(-0.9e-8, 0.9e-8, size=(400, 1))
    # a pair 1e-9 inside eps whose short norms put x.y below cos(eps)
    theta = eps - 1e-9
    pos[:2] = (1 - 0.9e-8) * np.array([[1.0, 0.0, 0.0],
                                       [np.cos(theta), np.sin(theta), 0.0]])
    ref = _dense_eps_ball_reference(pos, eps, "arc", "invsq")
    assert ref.edge_index(0, 1) >= 0
    g = epsilon_ball_graph(pos, eps)
    assert np.array_equal(g.src, ref.src) and np.array_equal(g.dst, ref.dst)


def _builder_peak_mb(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_builders_memory_grows_with_edges_not_pairs(rng):
    # the dense builders peaked at 286 MB and 288 MB on these inputs
    h = w = 64
    f = clustered_vertex_function(Circle(), rng, h * w, spread=1.0)
    assert _builder_peak_mb(lambda: knn_patch_graph(f, (h, w), 12, 8)) < 64
    pos = random_point(Sphere2(), rng, 2000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _builder_peak_mb(
            lambda: epsilon_ball_graph(pos, np.pi / 12)) < 64


# ---------------------------------------------------------------------------
# TSV round trip
# ---------------------------------------------------------------------------

def test_edges_tsv_roundtrip(tmp_path, rng):
    g = random_symmetric_graph(rng, 12)
    p = tmp_path / "g.tsv"
    save_edges_tsv(p, g)
    first = p.read_text().splitlines()[0]
    assert first == f"# mvgraph-edges v1 n=12 symmetric=1"
    g2 = load_edges_tsv(p)
    assert g2.n_vertices == g.n_vertices and g2.symmetric == g.symmetric
    np.testing.assert_array_equal(g2.src, g.src)
    np.testing.assert_array_equal(g2.dst, g.dst)
    np.testing.assert_array_equal(g2.weight, g.weight)


def test_edges_tsv_rejects_garbage(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("not a header\n0\t1\t1.0\n")
    with pytest.raises(FormatError):
        load_edges_tsv(p)
    p.write_text("# mvgraph-edges v1 n=2 symmetric=0\n0\t1\n")
    with pytest.raises(FormatError):
        load_edges_tsv(p)
    p.write_text("# mvgraph-edges v1 n=2 symmetric=0\n0\t1\tfast\n")
    with pytest.raises(FormatError):
        load_edges_tsv(p)


def test_edges_tsv_skips_blank_lines(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("# mvgraph-edges v1 n=3 symmetric=0\n\n0\t1\t0.5\n \t \n"
                 "  1\t2\t0.25  \n\n")
    g = load_edges_tsv(p)
    assert g.src.tolist() == [0, 1] and g.dst.tolist() == [1, 2]
    assert g.weight.tolist() == [0.5, 0.25]


@pytest.mark.parametrize("line", ["0\t1", "0\t1\t2\t3", "0\t1\tfast",
                                  "0.5\t1\t1.0", "0\t\t1.0"])
def test_edges_tsv_names_the_bad_line(tmp_path, line):
    p = tmp_path / "bad.tsv"
    p.write_text("# mvgraph-edges v1 n=3 symmetric=0\n0\t1\t1.0\n\n"
                 f"{line}\n1\t2\t1.0\n")
    with pytest.raises(FormatError, match="^line 4: "):
        load_edges_tsv(p)


def test_edges_tsv_empty_body_loads_quietly(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("# mvgraph-edges v1 n=4 symmetric=1\n\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = load_edges_tsv(p)
    assert g.n_vertices == 4 and g.n_edges == 0


def test_edges_tsv_writes_repr_of_each_weight(tmp_path, monkeypatch):
    wts = [1e-3, 1 / 3, 2.0, 1e20, 5e-324, 0.1 + 0.2]
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)]
    g = WeightedGraph.from_edges(
        3, [(u, v, w) for (u, v), w in zip(edges, wts)])
    p = tmp_path / "g.tsv"
    save_edges_tsv(p, g)
    expect = "# mvgraph-edges v1 n=3 symmetric=0\n" + "".join(
        f"{u}\t{v}\t{float(w)!r}\n" for u, v, w in zip(g.src, g.dst, g.weight))
    assert p.read_text() == expect
    assert "0.30000000000000004" in expect and "5e-324" in expect
    # the body is written in chunks; 6 edges are not a multiple of 4
    monkeypatch.setattr(graphs, "_TSV_CHUNK", 4)
    save_edges_tsv(p, g)
    assert p.read_text() == expect
