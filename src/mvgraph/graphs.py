"""Finite weighted directed graphs and the constructions used on images
and point clouds: 4-neighbour grids, epsilon-ball graphs over embedded
positions, and patch-similarity k-NN graphs.

Edges are stored CSR-style as parallel arrays (src, dst, weight) sorted by
(src, dst), plus an index pointer so the out-neighbourhood of vertex u is
the slice indptr[u]:indptr[u+1].  All weights are strictly positive; absent
edges are simply not stored.  Graphs are immutable after construction.
"""

from __future__ import annotations

import re
import warnings

import numpy as np

from .errors import ConfigError, DomainError, FormatError

KNN_WEIGHT_FLOOR = 1e-3


class WeightedGraph:
    """Directed weighted graph on vertices 0..n-1 with positive weights."""

    def __init__(self, n_vertices, src, dst, weight, symmetric=False):
        n = int(n_vertices)
        if n < 1:
            raise DomainError("graph needs at least one vertex")
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
        order = np.lexsort((dst, src))
        src, dst, weight = src[order], dst[order], weight[order]
        keys = src * n + dst
        if keys.size and np.any(np.diff(keys) == 0):
            raise DomainError("duplicate directed edge")
        self.n_vertices = n
        self.src = src
        self.dst = dst
        self.weight = weight
        self._keys = keys
        counts = np.bincount(src, minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self._rev = None
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
    def out_degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def _check_vertex(self, u):
        if not (isinstance(u, (int, np.integer)) and 0 <= u < self.n_vertices):
            raise DomainError(
                f"{u} is not a vertex index in [0, {self.n_vertices})")

    def out_edges(self, u) -> slice:
        """Positions of the out-edges of u in the edge arrays."""
        self._check_vertex(u)
        return slice(self.indptr[u], self.indptr[u + 1])

    def neighbors(self, u):
        """(neighbor indices, weights) of the out-edges of u."""
        out = self.out_edges(u)
        return self.dst[out], self.weight[out]

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
            pos = np.minimum(pos, max(self._keys.size - 1, 0))
            found = self._keys.size > 0
            ok = found & (self._keys[pos] == rkeys)
            self._rev = np.where(ok, pos, -1)
        return self._rev

    def isolated_vertices(self) -> np.ndarray:
        """Vertices with no incident edge in either direction."""
        seen = np.zeros(self.n_vertices, dtype=bool)
        seen[self.src] = True
        seen[self.dst] = True
        return np.flatnonzero(~seen)


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
        if pos.shape[1] != 3 or np.any(np.abs(np.linalg.norm(pos, axis=1) - 1) > 1e-8):
            raise DomainError("arc metric requires unit vectors in R^3")
        dots = np.clip(pos @ pos.T, -1.0, 1.0)
        cr = np.cross(pos[:, None, :], pos[None, :, :])
        d = np.arctan2(np.linalg.norm(cr, axis=-1), dots)
    else:
        diff = pos[:, None, :] - pos[None, :, :]
        d = np.linalg.norm(diff, axis=-1)
    iu, ju = np.nonzero((d <= eps) & ~np.eye(n, dtype=bool))
    dij = d[iu, ju]
    if weight_rule == "invsq":
        if np.any(dij == 0.0):
            raise DomainError(
                "coincident positions produce infinite inverse-square weights")
        wts = 1.0 / dij ** 2
    else:
        wts = np.ones(dij.size)
    g = WeightedGraph(n, iu, ju, wts, symmetric=True)
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


def _shift_perm(h, w, dr, dc):
    """Flat index of pixel (r+dr, c+dc) with periodic wrap, for all pixels."""
    r = (np.arange(h)[:, None] + dr) % h
    c = (np.arange(w)[None, :] + dc) % w
    return (r * w + c).ravel()


def _box_sum(a, s):
    """Sum of the (2s+1)^2 periodic patch around each pixel, per row of a.

    a has shape (..., h, w); summation is over the trailing two axes'
    offsets in [-s, s]."""
    out = np.zeros_like(a)
    for dk in range(-s, s + 1):
        out += np.roll(a, -dk, axis=-2)
    out2 = np.zeros_like(out)
    for dl in range(-s, s + 1):
        out2 += np.roll(out, -dl, axis=-1)
    return out2


def _patch_psm_candidates(f, shape, s, window=None, block=64):
    """Squared patch distances from every pixel to its candidate set.

    Returns (psm2, cand): arrays of shape (n, K) where cand[i] lists the
    candidate vertex for each column (global: every displacement of the
    torus except zero; windowed: displacements within the square window).
    Computation runs displacement-wise: the pixelwise squared distance
    field of one shift is box-filtered over the patch, which yields the
    patch distance of every pixel to its shifted partner at once.
    """
    h, w = _grid_shape(f, shape)
    n = h * w
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise DomainError("patch half-width s must be an integer >= 0")
    if window is None:
        disps = [(dr, dc) for dr in range(h) for dc in range(w)
                 if not (dr == 0 and dc == 0)]
    else:
        wd = int(window)
        if wd < 1:
            raise ConfigError("search window must be >= 1")
        disps = [(dr % h, dc % w)
                 for dr in range(-min(wd, h - 1), min(wd, h - 1) + 1)
                 for dc in range(-min(wd, w - 1), min(wd, w - 1) + 1)
                 if not (dr == 0 and dc == 0)]
        disps = sorted(set(disps))
    active = f.active
    vals = f.values
    psm2 = np.empty((n, len(disps)))
    cand = np.empty((n, len(disps)), dtype=np.int64)
    for start in range(0, len(disps), block):
        chunk = disps[start:start + block]
        perms = np.stack([_shift_perm(h, w, dr, dc) for dr, dc in chunk])
        d = f.manifold.dist(
            np.broadcast_to(vals, (len(chunk),) + vals.shape), vals[perms])
        a = d * d
        a *= active[None, :]
        a *= active[perms]
        b = _box_sum(a.reshape(len(chunk), h, w), s).reshape(len(chunk), n)
        psm2[:, start:start + len(chunk)] = b.T
        cand[:, start:start + len(chunk)] = perms.T
    return psm2, cand


def knn_patch_graph(f, shape, k, s, window=None) -> WeightedGraph:
    """Patch-similarity k-nearest-neighbour graph of a grid-shaped signal.

    Each active pixel gets directed edges to its k most similar active
    pixels (self excluded; ties broken toward the smaller vertex index).
    Per vertex the weights interpolate linearly from 1 (most similar) to 0
    (least similar) and are then clamped to [KNN_WEIGHT_FLOOR, 1] so that
    every selected neighbour keeps a positive weight; if all k distances
    coincide every weight is 1.  The result is symmetrized by
    w(u,v) <- max(w(u,v), w(v,u)) over the union of the edge sets.
    """
    h, w = _grid_shape(f, shape)
    n = h * w
    k = int(k)
    if k < 1:
        raise DomainError("k must be >= 1")
    if k >= n:
        raise DomainError("k must be smaller than the number of vertices")
    psm2, cand = _patch_psm_candidates(f, shape, s, window=window)
    active = f.active
    src_list, dst_list, w_list = [], [], []
    for i in range(n):
        if not active[i]:
            continue
        row = psm2[i]
        cj = cand[i]
        valid = active[cj] & (cj != i)
        if valid.sum() < k:
            raise DomainError(
                f"vertex {i} has only {int(valid.sum())} candidates, need k={k}")
        rows, cols = row[valid], cj[valid]
        order = np.lexsort((cols, rows))[:k]
        dsel = np.sqrt(rows[order])
        jsel = cols[order]
        d1, dk_ = dsel[0], dsel[-1]
        if dk_ > d1:
            wts = np.clip((dk_ - dsel) / (dk_ - d1), KNN_WEIGHT_FLOOR, 1.0)
        else:
            wts = np.ones(k)
        src_list.append(np.full(k, i, dtype=np.int64))
        dst_list.append(jsel)
        w_list.append(wts)
    if not src_list:
        return WeightedGraph(n, [], [], [], symmetric=True)
    src = np.concatenate(src_list)
    dst = np.concatenate(dst_list)
    wts = np.concatenate(w_list)
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


def save_edges_tsv(path, graph: WeightedGraph):
    """Write the directed edge list as TSV with a versioned header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# mvgraph-edges v1 n={graph.n_vertices} "
                 f"symmetric={1 if graph.symmetric else 0}\n")
        for u, v, wt in zip(graph.src, graph.dst, graph.weight):
            fh.write(f"{u}\t{v}\t{float(wt)!r}\n")


def load_edges_tsv(path) -> WeightedGraph:
    """Read a graph written by save_edges_tsv."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = _HEADER_RE.match(header)
        if not m:
            raise FormatError(f"bad edge-list header: {header!r}")
        n = int(m.group(1))
        symmetric = m.group(2) == "1"
        src, dst, wts = [], [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'u\\tv\\tw'")
            try:
                src.append(int(parts[0]))
                dst.append(int(parts[1]))
                wts.append(float(parts[2]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
    try:
        return WeightedGraph(n, src, dst, wts, symmetric=symmetric)
    except DomainError as exc:
        raise FormatError(f"invalid edge list: {exc}") from exc
