"""Riemannian manifold kernels.

Four geometries are supported as value spaces for vertex data:

* ``Euclidean(m)``  -- flat R^m,
* ``Circle()``      -- S^1, represented by an angle in (-pi, pi],
* ``Sphere2()``     -- the unit 2-sphere embedded in R^3,
* ``Spd(n)``        -- symmetric positive definite n x n matrices with the
  affine-invariant metric  <u, v>_x = trace(x^-1 u x^-1 v).

Every kernel operation (``dist``, ``exp``, ``log``, ``transport``,
``inner``, ``norm``, ``random_tangent``) is vectorised: points and tangent
vectors are numpy arrays whose trailing axes carry ``point_shape`` and whose
leading axes are arbitrary batch axes, broadcast as numpy does.  A single
point is a batch with no leading axes.

Each kernel is written once, as a private row kernel on component rows: a
batch of N points or tangents is one contiguous (k, N) array, one row per
component and the batch axis last.  k is 1 for the circle, 3 for the
sphere, m for ``Euclidean(m)`` and n(n+1)/2 for ``Spd(n)`` (see the block
comment on component arrays).  ``Manifold`` is the only place that converts
between the two layouts: each public method is one conversion in
(``Manifold._batch_rows``), the row kernel, and one conversion out
(``Manifold._points``).  A solve converts its iterate and data to rows once
and the result back once, and the calculus operators convert their inputs
and outputs once each; both call the row kernels in between.

A base point enters a row kernel in one form only: its point state
(``Manifold._point_state_rows``), the per-point work that every kernel at
that point shares.  On the flat geometry, the circle and the sphere the
state is the point rows themselves; on ``Spd`` it is the roots x^{+-1/2},
so each base point is decomposed once, however many kernels read it.

Conventions:

* ``log`` raises :class:`~mvgraph.errors.InjectivityError` when the target
  lies on (or numerically too close to) the cut locus of the base point.
  "Too close" means within ``ANTIPODAL_MARGIN`` of the injectivity radius.
* ``exp`` re-projects its output onto the manifold (wrap / renormalise /
  symmetrise) so that long iterations cannot drift off the constraint set.
* Spd eigenvalues are clamped at ``EIG_CLAMP`` before any matrix logarithm
  or inverse square root.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, prod

import numpy as np

from .errors import DomainError, InjectivityError

ANTIPODAL_MARGIN = 1e-8
EIG_CLAMP = 1e-14

_TINY = 1e-15

# ``_eigh_sym`` hands a 3 x 3 row to LAPACK when, relative to the row's
# largest entry, two eigenvalues lie closer than _EIGH3_GAP or an eigenvalue
# is smaller in magnitude than _EIGH3_FLOOR.  Both were set from measured
# error against the exact matrix log of rotated diagonal matrices: at a gap
# of 1e-4 or more the closed form was as accurate as eigh, at 1e-5 up to 4x
# less; below 1e-8 an eigenvalue has fewer than 8 digits from either solver.
# Rows are taken _EIGH3_BLOCK at a time so that temporaries stay small.
_EIGH3_GAP = 1e-4
_EIGH3_FLOOR = 1e-8
_EIGH3_BLOCK = 2 ** 12


def wrap_angle(theta):
    """Map angles (radians) to the canonical interval (-pi, pi].

    Angles already in the interval pass through unchanged (no round-trip
    through modular arithmetic), so e.g. a zero-tangent exponential is an
    exact identity.  The result is a new array.
    """
    return _wrap_in_place(np.array(theta, dtype=np.float64, order="C"))


def _wrap_in_place(a):
    """``wrap_angle`` of ``a``, a float array no caller shares, written into
    ``a`` (or into a contiguous copy, which is returned).  Only the entries
    outside (-pi, pi] are read again, so the cost follows their number."""
    if not (isinstance(a, np.ndarray) and a.flags.c_contiguous):
        a = np.array(a, dtype=np.float64, order="C")
    flat = a.reshape(-1)
    bad = np.flatnonzero(~((flat > -np.pi) & (flat <= np.pi)))
    if bad.size:
        t = np.mod(flat[bad] + np.pi, 2.0 * np.pi) - np.pi
        t[t == -np.pi] = np.pi
        flat[bad] = t
    return a


# -- component arrays -------------------------------------------------------
#
# The row kernels hold a batch of N points or tangents as one (k, N) array,
# the batch axis last, so that each component is a contiguous row.  On the
# circle, the sphere and Euclidean(m) the components are the coordinates
# (k = 1, 3, m): a dot product is x[0]*y[0] + x[1]*y[1] + x[2]*y[2], which
# adds in the order a reduction over a length-3 axis does.  A symmetric
# n x n matrix has k = n(n+1)/2 distinct entries: the diagonal first, then
# the upper triangle by rows; for n = 3 the rows are (00, 11, 22, 01, 02,
# 12).  Spd products that need every entry use the (n, n, N) grid of the
# same rows.  Arithmetic on these rows runs at the speed of plain vector
# code, where a reduction over a short trailing axis, a batched 3 x 3
# ``matmul`` or a strided view of an (N, 3, 3) array does not.


@lru_cache(maxsize=None)
def _layout(n):
    """Row and column of each component of an n x n matrix, and the (n, n)
    grid of component numbers."""
    pairs = [(i, i) for i in range(n)] + [
        (i, j) for i in range(n) for j in range(i + 1, n)]
    rows, cols = np.array(pairs, dtype=np.intp).T
    grid = np.empty((n, n), dtype=np.intp)
    grid[rows, cols] = grid[cols, rows] = np.arange(len(pairs))
    return rows, cols, grid


def _size(c):
    """n of the n x n matrices with components c."""
    return (isqrt(8 * c.shape[0] + 1) - 1) // 2


def _components(x):
    """Components (k, N) of the symmetric parts of (..., n, n) matrices,
    N the flattened batch size."""
    n = x.shape[-1]
    rows, cols, _ = _layout(n)
    flat = x.reshape(-1, n * n)
    c = np.empty((rows.size, flat.shape[0]))
    # block by block: a transposing copy of the whole batch is several
    # times slower than one that stays in cache
    for a in range(0, flat.shape[0], _EIGH3_BLOCK):
        t = flat[a:a + _EIGH3_BLOCK].T
        c[:, a:a + _EIGH3_BLOCK] = 0.5 * (t[rows * n + cols]
                                          + t[cols * n + rows])
    return c


def _matrices(c, batch):
    """The ``batch + (n, n)`` matrices of components c (k, N)."""
    _, _, grid = _layout(_size(c))
    out = np.empty((c.shape[1], grid.size))
    for a in range(0, c.shape[1], _EIGH3_BLOCK):
        out[a:a + _EIGH3_BLOCK] = c[grid.ravel(), a:a + _EIGH3_BLOCK].T
    return out.reshape(batch + grid.shape)


def _grid(c):
    return c[_layout(_size(c))[2]]


def _upper(g):
    """Components of a grid that is symmetric."""
    rows, cols, _ = _layout(g.shape[0])
    return g[rows, cols]


def _symmetric_part(g):
    rows, cols, _ = _layout(g.shape[0])
    return 0.5 * (g[rows, cols] + g[cols, rows])


def _mul(a, b):
    """Matrix product of two grids.  einsum sums a one-column batch with a
    strided operand in another order, so the operands are made contiguous:
    then a column gets the same bits whatever the batch it is in."""
    return np.einsum("ik...,kj...->ij...", np.ascontiguousarray(a),
                     np.ascontiguousarray(b))


def _congruence(a, s):
    """a s a for symmetric a and s, in components."""
    a = _grid(a)
    return _upper(_mul(_mul(a, _grid(s)), a))


def _recompose(q, w):
    """q diag(w) q^T in components, from eigenvalues w (n, N) and
    eigenvectors q (n, n, N), q[:, j] the j-th."""
    return _upper(_mul(q * w, q.swapaxes(0, 1)))


def _frobenius(a, b):
    """Frobenius inner product of symmetric matrices in components."""
    n = _size(a)
    ab = a * b
    return ab[:n].sum(axis=0) + 2.0 * ab[n:].sum(axis=0)


def _per_point(d, batch):
    """Per-point values in the batch shape; a numpy scalar for one point."""
    return d.reshape(batch)[()]


def _broadcast(rows, shape, batch):
    """Rows (k, N) over the batch ``shape``, broadcast to ``batch`` and
    flattened."""
    if shape == batch:
        return rows
    r = rows.reshape(rows.shape[:1] + (1,) * (len(batch) - len(shape))
                     + shape)
    return np.broadcast_to(r, r.shape[:1] + batch).reshape(rows.shape[0], -1)


def _dot(a, b):
    """Row-wise dot product of two (3, N) arrays."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _blockwise(fn, *cols):
    """``fn`` over blocks of ``_EIGH3_BLOCK`` rows (the last axis) of
    component arrays; its output, an array or a tuple of them with rows
    last, joined."""
    n = cols[0].shape[-1]
    out = None
    for a in range(0, max(n, 1), _EIGH3_BLOCK):
        part = fn(*(c[..., a:a + _EIGH3_BLOCK] for c in cols))
        parts = part if isinstance(part, tuple) else (part,)
        if out is None:
            out = [np.empty(p.shape[:-1] + (n,)) for p in parts]
        for o, p in zip(out, parts):
            o[..., a:a + _EIGH3_BLOCK] = p
    return tuple(out) if isinstance(part, tuple) else out[0]


def _eigh_sym(c):
    """Eigendecomposition of symmetric matrices in components c (k, ...):
    ascending eigenvalues (n, ...) and orthonormal eigenvectors (n, n, ...),
    the j-th in [:, j] -- ``np.linalg.eigh`` with the batch axes last.

    3 x 3 rows are solved in closed form (``_eigh3``); the rows it cannot
    solve to full accuracy (non-finite or zero, nearly repeated or nearly
    zero eigenvalues) go to LAPACK, which raises ``LinAlgError`` where it
    fails.  Other sizes call ``np.linalg.eigh`` directly.
    """
    batch = c.shape[1:]
    c = c.reshape(c.shape[0], -1)
    if _size(c) != 3:
        w, q = np.linalg.eigh(_matrices(c, c.shape[1:]))
        w, q = w.T, np.moveaxis(q, 0, -1)
    else:
        w, q, slow = _eigh3(c)
        if slow.size:
            ws, qs = np.linalg.eigh(_matrices(c[:, slow], slow.shape))
            w[:, slow], q[..., slow] = ws.T, np.moveaxis(qs, 0, -1)
    return w.reshape(w.shape[:1] + batch), q.reshape(q.shape[:2] + batch)


def _eigh3(c):
    """Closed-form eigendecomposition of symmetric 3 x 3 matrices given by
    their six component rows, as ``_eigh_sym`` returns it, and the
    positions of the rows it leaves to LAPACK.

    Each row is scaled by its largest entry.  The eigenvalues follow Smith
    (1961), "Eigenvalues of a symmetric 3x3 matrix": with q = tr(A)/3,
    p^2 = tr((A - qI)^2)/6 and r = det(A - qI)/(2p^3), they are
    q + 2p cos(acos(r)/3 + 2k pi/3).  Those values decide which rows fall
    back (Kopp 2008, arXiv:physics/0610206, hands such rows to a slower
    solver).  Eigenvectors:

    * smallest: the null vector of A - lambda I (``_null_vector``), taken
      twice: at Smith's value, then at that vector's Rayleigh quotient.
      Smith's value is not accurate enough, relative to the gap, on
      ill-conditioned rows.
    * middle: the cross product of the largest eigenvalue's null vector
      with the smallest's.
    * largest: the cross product of the other two, so that the columns
      are orthonormal to rounding.

    The eigenvalues returned are the Rayleigh quotients of the columns.
    """
    scale = np.max(np.abs(c), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = tuple(c * (1.0 / scale))
        a00, a11, a22, a01, a02, a12 = a
        q = (a00 + a11 + a22) / 3.0
        b00, b11, b22 = a00 - q, a11 - q, a22 - q
        p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                     + 2.0 * (a01 * a01 + a02 * a02 + a12 * a12)) / 6.0)
        det = (b00 * (b11 * b22 - a12 * a12) - a01 * (a01 * b22 - a12 * a02)
               + a02 * (a01 * a12 - b11 * a02))
        phi = np.arccos(np.clip(det / (2.0 * p * p * p), -1.0, 1.0)) / 3.0
        l1 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        l3 = q + 2.0 * p * np.cos(phi)
        l2 = 3.0 * q - l1 - l3
        slow = np.flatnonzero(
            ~(np.minimum(l2 - l1, l3 - l2) >= _EIGH3_GAP)
            | ~(np.minimum(np.minimum(np.abs(l1), np.abs(l2)), np.abs(l3))
                >= _EIGH3_FLOOR))
        v1 = _null_vector(a, _rayleigh(a, _null_vector(a, l1)))
        v2 = _unit(_cross(_null_vector(a, l3), v1))
        cols = (v1, v2, _cross(v1, v2))
        w = np.array([_rayleigh(a, u) for u in cols]) * scale
        return w, np.stack([np.array(u) for u in cols], axis=1), slow


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _unit(u):
    n = 1.0 / np.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    return u[0] * n, u[1] * n, u[2] * n


def _rayleigh(a, u):
    """u^T A u for components a = (a00, a11, a22, a01, a02, a12)."""
    a00, a11, a22, a01, a02, a12 = a
    x, y, z = u
    return (a00 * x * x + a11 * y * y + a22 * z * z
            + 2.0 * (a01 * x * y + a02 * x * z + a12 * y * z))


def _null_vector(a, lam):
    """Unit eigenvector for a simple eigenvalue lam: the longest cross
    product of two rows of A - lam I."""
    a00, a11, a22, a01, a02, a12 = a
    r0, r1, r2 = ((a00 - lam, a01, a02), (a01, a11 - lam, a12),
                  (a02, a12, a22 - lam))
    best = _cross(r0, r1)
    n = best[0] * best[0] + best[1] * best[1] + best[2] * best[2]
    for u in (_cross(r0, r2), _cross(r1, r2)):
        un = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        longer = un > n
        best = tuple(np.where(longer, x, y) for x, y in zip(u, best))
        n = np.maximum(n, un)
    return _unit(best)


class Manifold:
    """Base class: the flat geometry of the coordinates, which concrete
    geometries override where they differ.

    The kernels are the private ``_..._rows`` methods on component rows (see
    the module docstring); they check no shapes.  Every public kernel is
    defined here, once: it converts its operands with ``_batch_rows``, which
    checks their shapes and takes the point state of the base point, calls
    the row kernel of the same name, and converts the result back with
    ``_points``.  Subclasses define no public kernel (``Circle.exp``, which
    also takes scalar angles, is the one exception).
    """

    kind: str
    point_shape: tuple
    intrinsic_dim: int
    injectivity_radius: float

    @property
    def params(self) -> dict:
        return {}

    # -- component rows ----------------------------------------------------

    def _rows(self, x):
        """Component rows (k, N) of points or tangents ``x`` of shape
        ``(..., *point_shape)``, N the flattened batch size: here the
        coordinates, one row each."""
        return np.ascontiguousarray(
            x.reshape(-1, prod(self.point_shape)).T)

    def _points(self, rows, batch):
        """The ``batch + point_shape`` array of component rows (k, N)."""
        return np.ascontiguousarray(rows.T).reshape(batch + self.point_shape)

    def _batch_rows(self, x, *arrays):
        """The point state of the base points ``x`` and the component rows
        of ``arrays`` (points or tangents), broadcast to their joint batch
        shape, and that shape.  The state is taken before x is broadcast,
        so that each base point is decomposed once."""
        arrays = [self._check_shape(a, "operand") for a in (x,) + arrays]
        shapes = [a.shape[:a.ndim - len(self.point_shape)] for a in arrays]
        batch = np.broadcast_shapes(*shapes)
        rows = [self._rows(a) for a in arrays]
        rows[0] = self._point_state_rows(rows[0])
        return [_broadcast(r, s, batch) for r, s in zip(rows, shapes)], batch

    # -- row kernels -------------------------------------------------------

    def _point_state_rows(self, x):
        """The form in which the base points x enter the row kernels, one
        column per point: the per-point work that every kernel at x shares.
        Here, on the circle and on the sphere it is x itself, the same
        array, so their kernels name it x."""
        return x

    def _log_and_dist_rows(self, x, y):
        """``(log_x y, dist(x, y))`` on rows (here y - x and its length).
        Raises InjectivityError where y is (numerically) on the cut locus
        of x."""
        v = y - x
        return v, self._norm_rows(x, v)

    def _exp_and_norm_rows(self, x, v):
        """``(exp_x v, dist(x, exp_x v))`` on rows (here x + v), sharing
        intermediate work.  The distance is the length of the geodesic step,
        ``||v||_x``, where every geodesic is minimizing (infinite
        injectivity radius); the compact geometries wrap it into [0, pi]."""
        return x + v, self._norm_rows(x, v)

    def _dist_rows(self, x, y):
        """``dist(x, y)`` on rows, which never raises."""
        return self._norm_rows(x, y - x)

    def _transport_rows(self, x, y, v):
        """Parallel transport of the tangents v from x to y on rows (here
        a copy of v); y are points."""
        return v.copy()

    def _inner_rows(self, x, u, v):
        """``<u, v>_x`` on rows."""
        return np.sum(u * v, axis=0)

    def _norm_rows(self, x, v):
        """``||v||_x`` on rows."""
        return np.sqrt(np.maximum(self._inner_rows(x, v, v), 0.0))

    def _edge_log_and_dist_rows(self, p, s, src, dst, rev):
        """``_log_and_dist_rows`` from the columns ``src`` of the point
        state ``s`` to the columns ``dst`` of the point rows ``p``, over a
        batch of edges.

        ``rev[i]`` is the batch position of the reverse of edge ``i``, or -1
        when it is not in the batch.  Geometries that can share work
        between an edge and its reverse override this.
        """
        return self._log_and_dist_rows(np.take(s, src, axis=1),
                                       np.take(p, dst, axis=1))

    # -- kernel operations -------------------------------------------------

    def dist(self, x, y):
        """Geodesic distance; unlike ``log`` it never raises."""
        (s, y), batch = self._batch_rows(x, y)
        return _per_point(self._dist_rows(s, y), batch)

    def exp(self, x, v):
        return self.exp_and_norm(x, v)[0]

    def exp_and_norm(self, x, v):
        """Return ``(exp_x v, dist(x, exp_x v))`` sharing intermediate work
        (``_exp_and_norm_rows``)."""
        (s, v), batch = self._batch_rows(x, v)
        y, t = self._exp_and_norm_rows(s, v)
        return self._points(y, batch), _per_point(t, batch)

    def log(self, x, y):
        return self.log_and_dist(x, y)[0]

    def log_and_dist(self, x, y):
        """Return ``(log_x y, dist(x, y))`` sharing intermediate work."""
        (s, y), batch = self._batch_rows(x, y)
        v, d = self._log_and_dist_rows(s, y)
        return self._points(v, batch), _per_point(d, batch)

    def transport(self, x, y, v):
        """Parallel transport of the tangent v at x to y along the
        geodesic."""
        (s, y, v), batch = self._batch_rows(x, y, v)
        return self._points(self._transport_rows(s, y, v), batch)

    def inner(self, x, u, v):
        (s, u, v), batch = self._batch_rows(x, u, v)
        return _per_point(self._inner_rows(s, u, v), batch)

    def norm(self, x, u):
        (s, u), batch = self._batch_rows(x, u)
        return _per_point(self._norm_rows(s, u), batch)

    def random_tangent(self, x, sigma, rng):
        """Isotropic Gaussian tangent draw: E ||v||_x^2 = sigma^2 * intrinsic_dim."""
        return rng.normal(0.0, sigma, size=self._check_shape(x).shape)

    # -- validation --------------------------------------------------------

    def check_point(self, x):
        """Raise DomainError unless every entry of ``x`` is a valid point."""
        raise NotImplementedError

    def _check_injective(self, d):
        """Raise InjectivityError, naming the first offending batch row,
        where a distance ``d`` lies within ``ANTIPODAL_MARGIN`` of the
        injectivity radius (``log`` is undefined there).  NaN distances
        are not compared."""
        bound = self.injectivity_radius - ANTIPODAL_MARGIN
        d = np.ravel(d)
        if d.size and np.fmax.reduce(d) > bound:
            raise InjectivityError(
                f"{self.kind}: log undefined for (numerically) antipodal pair",
                vertex=int(np.argmax(d > bound)))

    def _check_shape(self, arr, what="point"):
        arr = np.asarray(arr, dtype=np.float64)
        k = len(self.point_shape)
        if arr.ndim < k or arr.shape[arr.ndim - k:] != self.point_shape:
            raise DomainError(
                f"{self.kind}: {what} has shape {arr.shape}, expected trailing "
                f"{self.point_shape}")
        return arr


@dataclass(frozen=True)
class Euclidean(Manifold):
    """Flat R^m: the base class's row kernels."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("Euclidean dimension must be >= 1")

    kind = "euclidean"
    injectivity_radius = np.inf

    @property
    def point_shape(self):
        return (self.dim,)

    @property
    def intrinsic_dim(self):
        return self.dim

    @property
    def params(self):
        return {"m": self.dim}

    def check_point(self, x):
        x = self._check_shape(x)
        if not np.all(np.isfinite(x)):
            raise DomainError("euclidean: non-finite coordinates")


@dataclass(frozen=True)
class Circle(Manifold):
    """S^1 with angle representation in (-pi, pi]; geodesic distance is the
    absolute wrapped angle difference."""

    kind = "circle"
    point_shape = (1,)
    intrinsic_dim = 1
    injectivity_radius = np.pi

    def exp(self, x, v):
        # the step of _exp_and_norm_rows on angles of any broadcastable
        # shape, scalars too
        return _wrap_in_place(np.asarray(x, dtype=np.float64) + v)

    def _exp_and_norm_rows(self, x, v):
        t = wrap_angle(v[0])
        return _wrap_in_place(x + v), np.abs(t, out=t)

    def _log_and_dist_rows(self, x, y):
        v = _wrap_in_place(y - x)
        d = np.abs(v[0])
        self._check_injective(d)
        return v, d

    def _dist_rows(self, x, y):
        d = _wrap_in_place(y - x)[0]
        return np.abs(d, out=d)

    # 1-d tangent spaces: parallel transport is the identity (the default).

    def check_point(self, x):
        x = self._check_shape(x)
        th = x[..., 0]
        if not np.all(np.isfinite(th)):
            raise DomainError("circle: non-finite angle")
        if np.any(th <= -np.pi) or np.any(th > np.pi):
            raise DomainError("circle: angle outside (-pi, pi]")


@dataclass(frozen=True)
class Sphere2(Manifold):
    """Unit sphere in R^3.  Tangent vectors are ambient 3-vectors orthogonal
    to the base point; transport rotates along the connecting geodesic."""

    kind = "sphere2"
    point_shape = (3,)
    intrinsic_dim = 2
    injectivity_radius = np.pi

    UNIT_TOL = 1e-10

    def _exp_and_norm_rows(self, x, v):
        t = np.sqrt(_dot(v, v))
        # sinc(t/pi) = sin(t)/t, finite at t = 0
        y = np.cos(t) * x + np.sinc(t / np.pi) * v
        d = wrap_angle(t)
        return y / np.sqrt(_dot(y, y)), np.abs(d, out=d)

    def _log_and_dist_rows(self, x, y):
        dot = _dot(x, y)
        perp = y - dot * x
        pn = np.sqrt(_dot(perp, perp))
        d = np.arctan2(pn, dot)
        self._check_injective(d)
        scale = np.where(pn > _TINY, d / np.where(pn > _TINY, pn, 1.0), 0.0)
        return scale * perp, d

    def _dist_rows(self, x, y):
        c = _cross(x, y)
        return np.arctan2(np.sqrt(_dot(c, c)), _dot(x, y))

    def _transport_rows(self, x, y, v):
        xi, d = self._log_and_dist_rows(x, y)
        e = xi / np.where(d > _TINY, d, 1.0)
        a = _dot(e, v)
        out = v + ((np.cos(d) - 1.0) * a) * e - (np.sin(d) * a) * x
        out = np.where(d > _TINY, out, v)
        # numerical hygiene: remove any normal component that crept in
        return out - _dot(out, y) * y

    def random_tangent(self, x, sigma, rng):
        x = self._check_shape(x)
        e1, e2 = self._tangent_basis(x)
        z = rng.normal(0.0, sigma, size=x.shape[:-1] + (2,))
        return z[..., :1] * e1 + z[..., 1:] * e2

    def _tangent_basis(self, x):
        # pick the coordinate axis least aligned with x, orthonormalise
        k = np.argmin(np.abs(x), axis=-1)
        h = np.zeros_like(x)
        np.put_along_axis(h, k[..., None], 1.0, axis=-1)
        e1 = h - np.sum(h * x, axis=-1, keepdims=True) * x
        e1 = e1 / np.linalg.norm(e1, axis=-1, keepdims=True)
        e2 = np.cross(x, e1)
        return e1, e2

    def check_point(self, x):
        x = self._check_shape(x)
        n = np.linalg.norm(x, axis=-1)
        if not np.all(np.isfinite(x)):
            raise DomainError("sphere2: non-finite coordinates")
        if np.any(np.abs(n - 1.0) > self.UNIT_TOL):
            raise DomainError("sphere2: point not on the unit sphere")


def _roots(c):
    """x^1/2 over x^-1/2: their components stacked, 2k rows, eigenvalues
    clamped."""
    w, q = _eigh_sym(c)
    s = np.sqrt(np.maximum(w, EIG_CLAMP))
    return np.concatenate([_recompose(q, s), _recompose(q, 1.0 / s)])


def _log_mid(irt, y):
    """M = Log(x^-1/2 y x^-1/2) from irt = x^-1/2, and the logs of its
    eigenvalues."""
    mu, p = _eigh_sym(_congruence(irt, y))
    lmu = np.log(np.maximum(mu, EIG_CLAMP))
    return _recompose(p, lmu), lmu


def _log_block(rt, irt, y):
    """log_x y and dist(x, y) from the roots of x, and the grid x^1/2 M
    that the reverse edge reuses."""
    mid, lmu = _log_mid(irt, y)
    r = _grid(rt)
    rm = _mul(r, _grid(mid))
    return _upper(_mul(rm, r)), np.sqrt(np.sum(lmu * lmu, axis=0)), rm


@dataclass(frozen=True)
class Spd(Manifold):
    """Symmetric positive definite matrices with the affine-invariant metric.

    Closed forms used throughout (all via eigendecompositions of symmetric
    matrices):

    * dist(x, y)   = || Log(x^-1/2 y x^-1/2) ||_F
    * log_x(y)     = x^1/2 Log(x^-1/2 y x^-1/2) x^1/2
    * exp_x(v)     = x^1/2 Exp(x^-1/2 v x^-1/2) x^1/2
    * transport    = e v e^T with e = x^1/2 Exp(Delta/2) x^-1/2,
      Delta = Log(x^-1/2 y x^-1/2); this is the geodesic transport and an
      exact isometry of the metric.
    * log_y(x)     = -y x^-1/2 M x^1/2 and dist(y, x) = dist(x, y), with
      M = Log(x^-1/2 y x^-1/2) (Pennec, Fillard & Ayache 2006, "A
      Riemannian framework for tensor computing"): from log_x y = x Log(x^-1 y)
      and Log(y^-1 x) = -Log(x^-1 y).  ``_edge_log_and_dist_rows`` fills
      the reverse of each evaluated edge this way, so an edge pass costs one
      eigendecomposition per undirected edge, on top of the roots in the
      point state.
    * dist(x, exp_x v) = ||v||_x = ||Lambda||_F for the eigenvalues Lambda
      of x^-1/2 v x^-1/2, which ``exp`` decomposes anyway.

    The point state holds x^1/2 and x^-1/2, decomposed once per base
    point; the row kernels read the roots from it, never x itself.

    The component rows of a matrix are its n(n+1)/2 distinct entries (six
    for n = 3; ``_components``, ``_matrices``).  Eigenvalues and
    eigenvectors, f(Lambda) recomposed, and the products above are sums of
    those rows, taken ``_EIGH3_BLOCK`` columns at a time.  Every
    eigendecomposition goes through ``_eigh_sym``.  For n = 3 it is a
    closed form (Smith's trigonometric eigenvalues, cross-product
    eigenvectors) on the six rows; a matrix that is non-finite or zero, or
    whose eigenvalues are nearly repeated or nearly zero relative to its
    largest entry, goes to LAPACK instead (Kopp 2008).  Other sizes use
    LAPACK throughout.

    The manifold is a Cartan-Hadamard space, so exp/log are globally
    defined (injectivity radius infinite).
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("Spd matrix size must be >= 1")

    kind = "spd"
    injectivity_radius = np.inf

    SYM_TOL = 1e-12

    @property
    def point_shape(self):
        return (self.n, self.n)

    @property
    def intrinsic_dim(self):
        return self.n * (self.n + 1) // 2

    @property
    def params(self):
        return {"n": self.n}

    # -- component rows ----------------------------------------------------

    def _rows(self, x):
        return _components(x)

    def _points(self, rows, batch):
        return _matrices(rows, batch)

    # -- row kernels -------------------------------------------------------

    def _point_state_rows(self, x):
        """x^1/2 and x^-1/2: the components of x^1/2 followed by those of
        x^-1/2, 2k rows."""
        return _blockwise(_roots, x)

    def _log_and_dist_rows(self, s, y):
        return _blockwise(lambda *a: _log_block(*a)[:2], *np.split(s, 2), y)

    def _exp_and_norm_rows(self, s, v):
        def block(rt, irt, v):
            w, q = _eigh_sym(_congruence(irt, v))
            return (_congruence(rt, _recompose(q, np.exp(w))),
                    np.sqrt(np.sum(w * w, axis=0)))
        return _blockwise(block, *np.split(s, 2), v)

    def _edge_log_and_dist_rows(self, p, s, src, dst, rev):
        """One ``_log_mid`` per undirected pair, with the roots of each
        source vertex read from the point state ``s``; the reverse of an
        evaluated edge comes from the identity in the class docstring."""
        direct = np.flatnonzero((rev < 0) | (np.arange(src.size) < rev))
        logs = np.empty((p.shape[0], src.size))
        d = np.empty(src.size)
        for a in range(0, direct.size, _EIGH3_BLOCK):
            e = direct[a:a + _EIGH3_BLOCK]
            rt_e, irt_e = np.split(np.take(s, src[e], axis=1), 2)
            y = np.take(p, dst[e], axis=1)
            logs[:, e], d[e], rm = _log_block(rt_e, irt_e, y)
            pair = np.flatnonzero(rev[e] >= 0)
            # y x^-1/2 M x^1/2, with M x^1/2 the transpose of x^1/2 M
            back = _mul(_mul(_grid(y), _grid(irt_e)), rm.transpose(1, 0, 2))
            logs[:, rev[e[pair]]] = -np.take(_symmetric_part(back), pair,
                                             axis=1)
            d[rev[e[pair]]] = d[e[pair]]
        return logs, d

    def _dist_rows(self, s, y):
        return _blockwise(lambda irt, y: np.sqrt(np.sum(
            _log_mid(irt, y)[1] ** 2, axis=0)), np.split(s, 2)[1], y)

    def _transport_rows(self, s, y, v):
        # e v e^T = x^1/2 E (x^-1/2 v x^-1/2) E x^1/2, E = Exp(Delta/2)
        def block(rt, irt, y, v):
            mu, p = _eigh_sym(_congruence(irt, y))
            half = _recompose(p, np.sqrt(np.maximum(mu, EIG_CLAMP)))
            return _congruence(rt, _congruence(half, _congruence(irt, v)))
        return _blockwise(block, *np.split(s, 2), y, v)

    def _inner_rows(self, s, u, v):
        # trace(x^-1 u x^-1 v) = <x^-1/2 u x^-1/2, x^-1/2 v x^-1/2>_F
        return _blockwise(lambda irt, u, v: _frobenius(
            _congruence(irt, u), _congruence(irt, v)), np.split(s, 2)[1],
            u, v)

    # -- kernel operations ---------------------------------------------

    def random_tangent(self, x, sigma, rng):
        # s = g + g^T with g ~ N(0, (sigma/2)^2) iid gives Var(s_ii) = sigma^2
        # and Var(s_ij) = sigma^2/2, so E tr(s^2) = sigma^2 * n(n+1)/2 and the
        # draw is isotropic w.r.t. the affine-invariant metric at x.
        x = self._check_shape(x)
        g = rng.normal(0.0, sigma / 2.0, size=x.shape)
        (state, s), batch = self._batch_rows(x, g + np.swapaxes(g, -1, -2))
        return _matrices(_blockwise(_congruence, np.split(state, 2)[0], s),
                         batch)

    def check_point(self, x):
        x = self._check_shape(x)
        if not np.all(np.isfinite(x)):
            raise DomainError("spd: non-finite entries")
        asym = np.max(np.abs(x - np.swapaxes(x, -1, -2)), initial=0.0)
        if asym > self.SYM_TOL:
            raise DomainError(f"spd: matrix not symmetric (max asymmetry {asym:.3e})")
        w = np.linalg.eigvalsh(0.5 * (x + np.swapaxes(x, -1, -2)))
        if np.any(w <= 0.0):
            raise DomainError("spd: matrix not positive definite")


def from_kind(kind: str, params: dict | None = None) -> Manifold:
    """Instantiate a manifold from its ``kind`` tag and parameter dict."""
    params = params or {}
    if kind == "euclidean":
        return Euclidean(int(params["m"]))
    if kind == "circle":
        return Circle()
    if kind == "sphere2":
        return Sphere2()
    if kind == "spd":
        return Spd(int(params["n"]))
    raise DomainError(f"unknown manifold kind {kind!r}")
