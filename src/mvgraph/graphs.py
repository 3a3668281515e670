"""Finite weighted directed graphs and the constructions used on images
and point clouds: 4-neighbour grids, epsilon-ball graphs over embedded
positions, and patch-similarity k-NN graphs.

Edges are stored CSR-style as parallel arrays (src, dst, weight) sorted by
(src, dst), plus an index pointer so the out-neighbourhood of vertex u is
the slice indptr[u]:indptr[u+1].  All weights are strictly positive; absent
edges are simply not stored.  Graphs are immutable after construction.

The calculus and the solvers read the edges in another order, the paired
layout (``PairedEdges``), in which the reverse of an edge is a slice.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import ConfigError, DomainError, FormatError

KNN_WEIGHT_FLOOR = 1e-3

# The builders take their n x n pair arrays in blocks of rows (epsilon-ball)
# or displacements (kNN) of about this many entries, so their working
# memory does not grow with n^2.
_BLOCK_PAIRS = 2 ** 18
# The patch box sum adds 2(2s+1) shifted copies of its input; it works on
# sub-blocks of about this many entries so that they stay in cache.
_CACHE_PAIRS = 2 ** 15
# The arc metric's unit vectors may be off by this much in norm; the
# epsilon-ball graph's dot-product prefilter is slackened to match.
_UNIT_TOL = 1e-8
# Chunk size, in edges, of one write of an edge-list file.
_TSV_CHUNK = 2 ** 16
# The largest vertex count whose edge keys u * n + v fit in int64,
# isqrt(2**63 - 1).
_MAX_VERTICES = 3_037_000_499


class WeightedGraph:
    """Directed weighted graph on vertices 0..n-1 with positive weights."""

    def __init__(self, n_vertices, src, dst, weight, symmetric=False):
        n = int(n_vertices)
        if n < 1:
            raise DomainError("graph needs at least one vertex")
        if n > _MAX_VERTICES:
            raise DomainError(f"{n} vertices exceed {_MAX_VERTICES}, above "
                              "which the edge keys u * n + v overflow int64")
        src, dst = np.asarray(src).ravel(), np.asarray(dst).ravel()
        if np.any(src != np.trunc(src)) or np.any(dst != np.trunc(dst)):
            raise DomainError("edge endpoints must be whole numbers")
        src, dst = src.astype(np.int64), dst.astype(np.int64)
        weight = np.asarray(weight, dtype=np.float64).ravel()
        if not (src.shape == dst.shape == weight.shape):
            raise DomainError("src, dst and weight must have equal length")
        if src.size:
            if src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n:
                raise DomainError("edge endpoint out of range")
            if np.any(src == dst):
                raise DomainError("self-loops are not allowed")
            if not np.all(np.isfinite(weight)) or np.any(weight <= 0):
                raise DomainError("edge weights must be positive and finite")
        keys = src * n + dst
        if np.all(keys[1:] > keys[:-1]):
            # already sorted by (src, dst), as the builders and edge files
            # deliver them; the graph still never aliases the caller's array
            weight = weight.copy()
        else:
            order = np.argsort(keys, kind="stable")
            src, dst, weight, keys = (src[order], dst[order], weight[order],
                                      keys[order])
            if np.any(keys[1:] == keys[:-1]):
                raise DomainError("duplicate directed edge")
        self.n_vertices = n
        self.src = src
        self.dst = dst
        self.weight = weight
        self._keys = keys
        self._indptr = None
        self._rev = None
        self._paired = None
        self.symmetric = bool(symmetric)
        if self.symmetric:
            rev = self.reverse_edge_index
            if np.any(rev < 0) or not np.array_equal(weight, weight[rev]):
                raise DomainError(
                    "graph marked symmetric but edge set or weights are not")

    @classmethod
    def from_edges(cls, n_vertices, edges, symmetric=False):
        """Build from an iterable (or (m,3) array) of (u, v, w) triples."""
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.float64)
        if arr.size == 0:
            arr = arr.reshape(0, 3)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise DomainError("edges must be (u, v, w) triples")
        return cls(n_vertices, arr[:, 0], arr[:, 1], arr[:, 2],
                   symmetric=symmetric)

    # -- queries ---------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return self.src.size

    @property
    def indptr(self) -> np.ndarray:
        """Offsets of each vertex's out-edges, built on first use."""
        if self._indptr is None:
            counts = np.bincount(self.src, minlength=self.n_vertices)
            self._indptr = np.concatenate(([0], np.cumsum(counts)))
        return self._indptr

    def _check_vertex(self, u):
        if not (isinstance(u, (int, np.integer)) and 0 <= u < self.n_vertices):
            raise DomainError(
                f"{u} is not a vertex index in [0, {self.n_vertices})")

    def out_edges(self, u) -> slice:
        """Positions of the out-edges of u in the edge arrays."""
        self._check_vertex(u)
        return slice(self.indptr[u], self.indptr[u + 1])

    def edge_index(self, u, v) -> int:
        """Position of edge (u, v) in the edge arrays, or -1 if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        key = int(u) * self.n_vertices + int(v)
        k = np.searchsorted(self._keys, key)
        if k < self._keys.size and self._keys[k] == key:
            return int(k)
        return -1

    @property
    def reverse_edge_index(self) -> np.ndarray:
        """For each edge e=(u,v), the index of (v,u), or -1 when absent."""
        if self._rev is None:
            rkeys = self.dst * self.n_vertices + self.src
            pos = np.searchsorted(self._keys, rkeys)
            np.minimum(pos, self._keys.size - 1, out=pos)
            pos[self._keys[pos] != rkeys] = -1
            self._rev = pos
        return self._rev

    @property
    def paired_edges(self) -> "PairedEdges":
        """The edges in paired order (``PairedEdges``), built on first use."""
        if self._paired is None:
            self._paired = PairedEdges(self)
        return self._paired

    def isolated_vertices(self) -> np.ndarray:
        """Vertices with no incident edge in either direction."""
        seen = np.zeros(self.n_vertices, dtype=bool)
        seen[self.src] = True
        seen[self.dst] = True
        return np.flatnonzero(~seen)


class PairedEdges:
    """The edges of a graph in paired order: the first edge of each reverse
    pair (the one at the lower CSR position), then their reverses in the
    same order, then the edges without a reverse (the tail).

    ``order`` is that permutation of the CSR positions, ``h`` the number of
    pairs: the reverse of edge i < h is edge i + h, and the edges from 2h on
    have none.  ``src``, ``dst``, ``sqrt_weight`` and ``weight`` (built when
    first read) are in this order.  ``equal_weights`` is True when the two
    edges of every pair have the same weight.
    """

    def __init__(self, graph):
        rev = graph.reverse_edge_index
        first = np.flatnonzero(rev > np.arange(rev.size))
        back = rev[first]
        self.order = np.concatenate([first, back, np.flatnonzero(rev < 0)])
        self.h = first.size
        self.n_vertices = graph.n_vertices
        self.src = graph.src[self.order]
        self.dst = graph.dst[self.order]
        self.equal_weights = graph.symmetric or np.array_equal(
            graph.weight[first], graph.weight[back])
        self.sqrt_weight = graph.weight[self.order]
        np.sqrt(self.sqrt_weight, out=self.sqrt_weight)
        self._csr_weight = graph.weight
        self._weight = None

    @property
    def weight(self) -> np.ndarray:
        if self._weight is None:
            self._weight = self._csr_weight[self.order]
        return self._weight


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def grid_graph(height, width) -> WeightedGraph:
    """Regular image grid, each pixel joined to its 4 direct neighbours with
    unit weight.  Boundary pixels simply have fewer neighbours."""
    h, w = int(height), int(width)
    if h < 1 or w < 1:
        raise DomainError("grid dimensions must be >= 1")
    idx = np.arange(h * w).reshape(h, w)
    pairs = []
    if w > 1:
        pairs.append((idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    if h > 1:
        pairs.append((idx[:-1, :].ravel(), idx[1:, :].ravel()))
    if pairs:
        a = np.concatenate([p[0] for p in pairs])
        b = np.concatenate([p[1] for p in pairs])
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
    else:
        src = dst = np.zeros(0, dtype=np.int64)
    return WeightedGraph(h * w, src, dst, np.ones(src.size), symmetric=True)


def epsilon_ball_graph(positions, eps, metric="arc",
                       weight_rule="invsq") -> WeightedGraph:
    """Join every pair of positions at distance <= eps.

    metric 'arc' treats rows as unit vectors on the 2-sphere and uses great
    circle distance; 'euclidean' uses the ambient norm.  weight_rule 'invsq'
    sets w = d^-2 (the point-cloud convention), 'unit' sets w = 1 (the voxel
    convention).  Isolated vertices are kept but reported via a warning.

    Pairs are taken in row blocks, so memory grows with the edge count,
    not with n^2; the arc metric prefilters each block on its dot products
    and computes the exact distance for the prefiltered pairs only.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[0] < 1:
        raise DomainError("positions must be a (n, d) array")
    if not np.isfinite(pos).all():
        raise DomainError("positions must be finite")
    if not eps > 0:
        raise DomainError("eps must be positive")
    if metric not in ("arc", "euclidean"):
        raise ConfigError(f"unknown metric {metric!r}")
    if weight_rule not in ("invsq", "unit"):
        raise ConfigError(f"unknown weight rule {weight_rule!r}")
    n = pos.shape[0]
    if metric == "arc":
        if pos.shape[1] != 3 or np.any(
                np.abs(np.linalg.norm(pos, axis=1) - 1) > _UNIT_TOL):
            raise DomainError("arc metric requires unit vectors in R^3")
        # arc <= eps <=> x.y >= cos(eps) on unit vectors
        lo = np.cos(min(eps, np.pi)) - 4 * _UNIT_TOL
        rows = max(1, _BLOCK_PAIRS // n)
    else:
        rows = max(1, _BLOCK_PAIRS // (n * pos.shape[1]))
    src, dst, dist = [], [], []
    for start in range(0, n, rows):
        blk = pos[start:start + rows]
        if metric == "arc":
            dots = np.clip(blk @ pos.T, -1.0, 1.0)
            bi, j = np.nonzero(dots >= lo)
            i = bi + start
            d = np.arctan2(np.linalg.norm(np.cross(pos[i], pos[j]), axis=-1),
                           dots[bi, j])
        else:
            norms = np.linalg.norm(blk[:, None] - pos[None], axis=-1)
            bi, j = np.nonzero(norms <= eps)
            i = bi + start
            d = norms[bi, j]
        keep = (d <= eps) & (i != j)
        src.append(i[keep])
        dst.append(j[keep])
        dist.append(d[keep])
    # the block lists are freed before the graph copies the edges
    dij = np.concatenate(dist)
    del dist
    if weight_rule == "invsq":
        if np.any(dij == 0.0):
            raise DomainError(
                "coincident positions produce infinite inverse-square weights")
        wts = 1.0 / dij ** 2
    else:
        wts = np.ones(dij.size)
    del dij
    src, dst = np.concatenate(src), np.concatenate(dst)
    g = WeightedGraph(n, src, dst, wts, symmetric=True)
    iso = g.isolated_vertices()
    if iso.size:
        warnings.warn(f"epsilon-ball graph has {iso.size} isolated vertices",
                      stacklevel=2)
    return g


# ---------------------------------------------------------------------------
# patch similarity
# ---------------------------------------------------------------------------

def _grid_shape(f, shape):
    h, w = int(shape[0]), int(shape[1])
    if h * w != f.n_vertices:
        raise DomainError(f"shape {shape} does not cover {f.n_vertices} vertices")
    return h, w


def _box_sum(a, s):
    """Sum of the (2s+1)^2 periodic patch around each pixel, per row of a.

    a has shape (B, h, w); summation is over the trailing two axes'
    offsets in [-s, s], rows first, each axis in the order -s..s.  The
    shifted copies are slices of one periodic extension of the array, so
    s may exceed h or w."""
    h, w = a.shape[1:]
    ext_rows, ext_cols = np.arange(-s, h + s) % h, np.arange(-s, w + s) % w
    out = np.zeros_like(a)
    step = max(1, _CACHE_PAIRS // (h * w))
    for i in range(0, a.shape[0], step):
        ext = a[i:i + step, ext_rows]
        rows = np.zeros_like(out[i:i + step])
        for dk in range(2 * s + 1):
            rows += ext[:, dk:dk + h]
        ext = rows[:, :, ext_cols]
        for dl in range(2 * s + 1):
            out[i:i + step] += ext[:, :, dl:dl + w]
    return out


def _patch_psm_candidates(f, shape, s, window=None):
    """Squared patch distances from every pixel to its candidates, in blocks.

    Yields pairs (psm2, cand) of shape (B, n), one row per displacement:
    cand[b, i] is the pixel that displacement b takes pixel i to, and
    psm2[b, i] the squared patch distance between the two (global: every
    displacement of the torus except zero; windowed: displacements within
    the square window).  Computation runs displacement-wise: the pixelwise
    squared distance field of one shift is box-filtered over the patch,
    which yields the patch distance of every pixel to its shifted partner
    at once.

    The patch distance is symmetric, so the field and the box filter run
    only for the canonical member of each pair of displacements d and -d,
    the one with the smaller flat offset; the rows of -d, which come after
    them in the same block, are a gather of those of d.  Direction rule:
    the pixel distance between p and q = p + d is ``dist(x_p, x_q)`` for
    canonical d, and for a self-inverse d (d = -d) with p the smaller
    pixel, so psm2(i, j) == psm2(j, i) bit for bit.
    """
    h, w = _grid_shape(f, shape)
    n = h * w
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise DomainError("patch half-width s must be an integer >= 0")
    # displacements (dr, dc) of the torus as flat offsets dr * w + dc
    if window is None:
        disps = np.arange(1, n)
    else:
        if not isinstance(window, (int, np.integer)):
            raise DomainError("search window must be an integer")
        if window < 1:
            raise ConfigError("search window must be >= 1")
        wr, wc = min(window, h - 1), min(window, w - 1)
        dr, dc = np.meshgrid(np.arange(-wr, wr + 1), np.arange(-wc, wc + 1),
                             indexing="ij")
        disps = np.unique((dr % h) * w + dc % w)
        disps = disps[disps != 0]
    # the displacement sets are closed under negation; keep one of each pair
    dr, dc = np.divmod(disps, w)
    negs = -dr % h * w + -dc % w
    canon = disps <= negs
    disps, negs = disps[canon], negs[canon]
    rows, cols = np.arange(h)[:, None], np.arange(w)
    active = f.active
    masked = not active.all()
    vals = f.values
    block = max(1, _BLOCK_PAIRS // (2 * n))
    for start in range(0, disps.size, block):
        fwd, neg = disps[start:start + block], negs[start:start + block]
        pair = fwd != neg
        dr, dc = np.divmod(np.concatenate([fwd, neg[pair]])[:, None, None], w)
        cand = ((rows + dr) % h * w + (cols + dc) % w).reshape(-1, n)
        b = fwd.size
        perms = cand[:b]
        a = f.manifold.dist(vals, vals[perms])
        a *= a
        if masked:
            a *= active[None, :]
            a *= active[perms]
        for r in np.flatnonzero(~pair):
            # a self-inverse d joins p and p + d in both directions; both
            # read the distance taken from the smaller pixel
            a[r] = a[r, np.minimum(np.arange(n), perms[r])]
        psm2 = np.empty(cand.shape)
        psm2[:b] = _box_sum(a.reshape(-1, h, w), s).reshape(-1, n)
        del a   # not held while the caller merges the block
        # psm2 of -d at pixel i is that of d at i - d, its candidate
        psm2[b:] = np.take_along_axis(psm2[:b][pair], cand[b:], axis=1)
        yield psm2, cand


def _top_k(vals, idx, k):
    """The k smallest entries of every row of ``vals`` under the order
    (value, idx), as arrays (values, idx) of shape (n, k), unordered within
    a row."""
    part = np.argpartition(vals, k - 1, axis=1)[:, :k]
    topv = np.take_along_axis(vals, part, axis=1)
    topi = np.take_along_axis(idx, part, axis=1)
    # argpartition chooses freely among entries equal to the k-th value;
    # order the rows where such a tie straddles the boundary by index
    tied = np.flatnonzero(
        np.count_nonzero(vals <= topv[:, k - 1:], axis=1) > k)
    if tied.size:
        v, i = vals[tied], idx[tied]
        order = np.lexsort((i, v), axis=1)[:, :k]
        topv[tied] = np.take_along_axis(v, order, axis=1)
        topi[tied] = np.take_along_axis(i, order, axis=1)
    return topv, topi


def knn_patch_graph(f, shape, k, s, window=None) -> WeightedGraph:
    """Patch-similarity k-nearest-neighbour graph of a grid-shaped signal.

    Each active pixel gets directed edges to its k most similar active
    pixels (self excluded; ties broken toward the smaller vertex index).
    Per vertex the weights interpolate linearly from 1 (most similar) to 0
    (least similar) and are then clamped to [KNN_WEIGHT_FLOOR, 1] so that
    every selected neighbour keeps a positive weight; if all k distances
    coincide every weight is 1.  The result is symmetrized by
    w(u,v) <- max(w(u,v), w(v,u)) over the union of the edge sets.

    The candidates stream through a running top-k per pixel, so memory
    grows with n * k, not with the n^2 candidate pairs.  The patch
    distance is symmetric bit for bit: the pixel distance of p and q is
    taken in the direction of the one of q - p and p - q with the smaller
    flat offset, from the smaller pixel when the two are equal.  The top-k
    keeps the k smallest candidates under the total order (value, index),
    so the graph does not depend on the order they arrive in.
    """
    h, w = _grid_shape(f, shape)
    n = h * w
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError("k must be an integer >= 1")
    if k >= n:
        raise DomainError("k must be smaller than the number of vertices")
    active = f.active
    # placeholders sort after every candidate: +inf at index n
    topv = np.full((n, k), np.inf)
    topi = np.full((n, k), n)
    count = np.zeros(n, dtype=np.int64)
    masked = not active.all()
    for psm2, cand in _patch_psm_candidates(f, shape, s, window=window):
        # no nonzero displacement takes a pixel to itself
        if masked:
            valid = active[cand]
            count += valid.sum(axis=0)
            psm2[~valid] = np.inf
        else:
            count += cand.shape[0]
        # merge only the rows where a candidate can enter the top k
        hit = np.flatnonzero((psm2 <= topv.max(axis=1)).any(axis=0))
        topv[hit], topi[hit] = _top_k(
            np.concatenate([topv[hit], psm2[:, hit].T], axis=1),
            np.concatenate([topi[hit], cand[:, hit].T], axis=1), k)
    act = np.flatnonzero(active)
    short = act[count[act] < k]
    if short.size:
        i = short[0]
        raise DomainError(
            f"vertex {i} has only {count[i]} candidates, need k={k}")
    if not act.size:
        return WeightedGraph(n, [], [], [], symmetric=True)
    dsel = np.sqrt(topv[act])
    d1, dk_ = dsel.min(axis=1, keepdims=True), dsel.max(axis=1, keepdims=True)
    spread = dk_ > d1
    wts = np.where(spread, np.clip((dk_ - dsel) / np.where(spread, dk_ - d1, 1.0),
                                   KNN_WEIGHT_FLOOR, 1.0), 1.0)
    src = np.repeat(act, k)
    dst = topi[act].ravel()
    wts = wts.ravel()
    # symmetrize over the union of edge sets
    keys = np.concatenate([src * n + dst, dst * n + src])
    wall = np.concatenate([wts, wts])
    order = np.argsort(keys, kind="stable")
    keys, wall = keys[order], wall[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(keys) > 0)))
    ukeys = keys[starts]
    uw = np.maximum.reduceat(wall, starts)
    return WeightedGraph(n, ukeys // n, ukeys % n, uw, symmetric=True)


# ---------------------------------------------------------------------------
# edge-list file format
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"^# mvgraph-edges v1 n=(\d+) symmetric=([01])$")
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def save_edges_tsv(path, graph: WeightedGraph):
    """Write the directed edge list as TSV with a versioned header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# mvgraph-edges v1 n={graph.n_vertices} "
                 f"symmetric={1 if graph.symmetric else 0}\n")
        for a in range(0, graph.n_edges, _TSV_CHUNK):
            b = a + _TSV_CHUNK
            fh.write("".join(f"{u}\t{v}\t{wt!r}\n" for u, v, wt in zip(
                graph.src[a:b].tolist(), graph.dst[a:b].tolist(),
                graph.weight[a:b].tolist())))


def load_edges_tsv(path, n_vertices=None) -> WeightedGraph:
    """Read a graph written by save_edges_tsv.

    Blank lines are skipped.  A malformed line raises FormatError naming
    its line in the file.  When ``n_vertices`` is given, a header with
    another vertex count raises FormatError before the body is read.  A
    header count above the largest endpoint is legal: the vertices past it
    are isolated.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            m = _HEADER_RE.match(header)
            if not m:
                raise FormatError(f"bad edge-list header: {header!r}")
            n = int(m.group(1))
            if n_vertices is not None and n != n_vertices:
                raise FormatError(f"edge list is for n={n} vertices, the "
                                  f"data has {n_vertices}")
            lines = fh.read().split("\n")
    except UnicodeDecodeError as err:
        raise FormatError(f"edge list is not UTF-8 text: {err}") from err
    symmetric = m.group(2) == "1"
    edges = _parse_rows(lines, 2, _EDGE_ROW,
                        "'u\\tv\\tw' with integer u and v")
    try:
        return WeightedGraph(n, edges["u"], edges["v"], edges["w"],
                             symmetric=symmetric)
    except DomainError as exc:
        raise FormatError(f"invalid edge list: {exc}") from exc


def _parse_rows(lines, first, dtype, expect):
    """Rows of ``dtype`` from the non-blank tab-separated ``lines``, in one
    ``np.loadtxt`` call; ``lines[0]`` is line ``first`` of the file.

    A malformed line raises FormatError naming its line and ``expect``.
    """
    body = [line for line in lines if line.strip()]
    if not body:
        return np.zeros(0, dtype)
    kw = dict(dtype=dtype, delimiter="\t", comments=None, ndmin=1)
    try:
        return np.loadtxt(body, **kw)
    except ValueError as err:
        for lineno, line in enumerate(lines, start=first):
            if line.strip():
                try:
                    np.loadtxt([line], **kw)
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: expected {expect}, "
                                      f"got {line!r}") from exc
        raise FormatError(f"malformed rows: {err}") from err
