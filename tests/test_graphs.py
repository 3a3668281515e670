"""Graph construction oracles: enumerated edge counts, brute-force
recomputation of patch distances and neighbour selections."""

import numpy as np
import pytest

from conftest import clustered_vertex_function, random_symmetric_graph
from mvgraph.errors import DomainError, FormatError
from mvgraph.fields import VertexFunction
from mvgraph.graphs import (KNN_WEIGHT_FLOOR, WeightedGraph,
                            _patch_psm_candidates, epsilon_ball_graph,
                            grid_graph, knn_patch_graph, load_edges_tsv,
                            save_edges_tsv)
from mvgraph.manifolds import Circle, Euclidean, wrap_angle


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
    psm2, cand = _patch_psm_candidates(f, shape, s, window=window)
    for i in range(f.n_vertices):
        for c in range(cand.shape[1]):
            brute = _brute_patch_distance(f, shape, i, int(cand[i, c]), s)
            assert abs(psm2[i, c] - brute ** 2) <= 1e-12
    return psm2, cand


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
