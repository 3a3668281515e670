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
leading axes are arbitrary batch axes.  ``ManifoldPoint``/``TangentVector``
wrap single points for call sites where per-value validation matters; the
array interface is what the graph operators and solvers run on.

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

import numpy as np

from .errors import DomainError, InjectivityError

ANTIPODAL_MARGIN = 1e-8
EIG_CLAMP = 1e-14

_TINY = 1e-15


def wrap_angle(theta):
    """Map angles (radians) to the canonical interval (-pi, pi].

    Angles already in the interval pass through unchanged (no round-trip
    through modular arithmetic), so e.g. a zero-tangent exponential is an
    exact identity.
    """
    theta = np.asarray(theta, dtype=np.float64)
    out = np.mod(theta + np.pi, 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return np.where((theta > -np.pi) & (theta <= np.pi), theta, out)


def _sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _eigh_recompose(q, w):
    """q diag(w) q^T for batched eigendecompositions."""
    return (q * w[..., None, :]) @ np.swapaxes(q, -1, -2)


class Manifold:
    """Base class; concrete geometries fill in the kernel operations."""

    kind: str
    point_shape: tuple
    intrinsic_dim: int
    injectivity_radius: float

    @property
    def params(self) -> dict:
        return {}

    # -- kernel operations -------------------------------------------------

    def dist(self, x, y):
        raise NotImplementedError

    def exp(self, x, v):
        raise NotImplementedError

    def log(self, x, y):
        return self.log_and_dist(x, y)[0]

    def log_and_dist(self, x, y):
        """Return ``(log_x y, dist(x, y))`` sharing intermediate work."""
        raise NotImplementedError

    def transport(self, x, y, v):
        raise NotImplementedError

    def inner(self, x, u, v):
        raise NotImplementedError

    def norm(self, x, u):
        return np.sqrt(np.maximum(self.inner(x, u, u), 0.0))

    def random_tangent(self, x, sigma, rng):
        """Isotropic Gaussian tangent draw: E ||v||_x^2 = sigma^2 * intrinsic_dim."""
        raise NotImplementedError

    # -- validation --------------------------------------------------------

    def check_point(self, x):
        """Raise DomainError unless every entry of ``x`` is a valid point."""
        raise NotImplementedError

    def check_tangent(self, x, v):
        """Raise DomainError unless ``v`` is a valid tangent at ``x``."""
        raise NotImplementedError

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

    def dist(self, x, y):
        x, y = self._check_shape(x), self._check_shape(y)
        return np.linalg.norm(y - x, axis=-1)

    def exp(self, x, v):
        return np.asarray(x, dtype=np.float64) + v

    def log(self, x, y):
        return np.asarray(y, dtype=np.float64) - x

    def log_and_dist(self, x, y):
        v = self.log(x, y)
        return v, np.linalg.norm(v, axis=-1)

    def transport(self, x, y, v):
        return np.array(v, dtype=np.float64, copy=True)

    def inner(self, x, u, v):
        return np.sum(np.asarray(u) * np.asarray(v), axis=-1)

    def random_tangent(self, x, sigma, rng):
        x = self._check_shape(x)
        return rng.normal(0.0, sigma, size=x.shape)

    def check_point(self, x):
        x = self._check_shape(x)
        if not np.all(np.isfinite(x)):
            raise DomainError("euclidean: non-finite coordinates")

    def check_tangent(self, x, v):
        self.check_point(v)


@dataclass(frozen=True)
class Circle(Manifold):
    """S^1 with angle representation in (-pi, pi]; geodesic distance is the
    absolute wrapped angle difference."""

    kind = "circle"
    point_shape = (1,)
    intrinsic_dim = 1
    injectivity_radius = np.pi

    def dist(self, x, y):
        x, y = self._check_shape(x), self._check_shape(y)
        return np.abs(wrap_angle(y - x))[..., 0]

    def exp(self, x, v):
        return wrap_angle(np.asarray(x, dtype=np.float64) + v)

    def log_and_dist(self, x, y):
        x, y = self._check_shape(x), self._check_shape(y)
        v = wrap_angle(y - x)
        d = np.abs(v)[..., 0]
        bad = d > np.pi - ANTIPODAL_MARGIN
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise InjectivityError(
                "circle: log undefined for (numerically) antipodal pair",
                vertex=idx)
        return v, d

    def transport(self, x, y, v):
        # 1-d tangent spaces: parallel transport is the identity.
        return np.array(v, dtype=np.float64, copy=True)

    def inner(self, x, u, v):
        return np.sum(np.asarray(u) * np.asarray(v), axis=-1)

    def random_tangent(self, x, sigma, rng):
        x = self._check_shape(x)
        return rng.normal(0.0, sigma, size=x.shape)

    def check_point(self, x):
        x = self._check_shape(x)
        th = x[..., 0]
        if not np.all(np.isfinite(th)):
            raise DomainError("circle: non-finite angle")
        if np.any(th <= -np.pi) or np.any(th > np.pi):
            raise DomainError("circle: angle outside (-pi, pi]")

    def check_tangent(self, x, v):
        v = self._check_shape(v, "tangent")
        if not np.all(np.isfinite(v)):
            raise DomainError("circle: non-finite tangent")


@dataclass(frozen=True)
class Sphere2(Manifold):
    """Unit sphere in R^3.  Tangent vectors are ambient 3-vectors orthogonal
    to the base point; transport rotates along the connecting geodesic."""

    kind = "sphere2"
    point_shape = (3,)
    intrinsic_dim = 2
    injectivity_radius = np.pi

    UNIT_TOL = 1e-10

    def dist(self, x, y):
        x, y = self._check_shape(x), self._check_shape(y)
        c = np.cross(x, y)
        s = np.linalg.norm(c, axis=-1)
        return np.arctan2(s, np.sum(x * y, axis=-1))

    def exp(self, x, v):
        x = self._check_shape(x)
        v = self._check_shape(v, "tangent")
        t = np.linalg.norm(v, axis=-1, keepdims=True)
        # sinc(t/pi) = sin(t)/t, finite at t = 0
        y = np.cos(t) * x + np.sinc(t / np.pi) * v
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    def log_and_dist(self, x, y):
        x, y = self._check_shape(x), self._check_shape(y)
        dot = np.sum(x * y, axis=-1)
        perp = y - dot[..., None] * x
        pn = np.linalg.norm(perp, axis=-1)
        d = np.arctan2(pn, dot)
        bad = d > np.pi - ANTIPODAL_MARGIN
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise InjectivityError(
                "sphere2: log undefined for (numerically) antipodal pair",
                vertex=idx)
        scale = np.where(pn > _TINY, d / np.where(pn > _TINY, pn, 1.0), 0.0)
        return scale[..., None] * perp, d

    def transport(self, x, y, v):
        x = self._check_shape(x)
        y = self._check_shape(y)
        v = self._check_shape(v, "tangent")
        xi, d = self.log_and_dist(x, y)
        safe = np.where(d > _TINY, d, 1.0)
        e = xi / safe[..., None]
        a = np.sum(e * v, axis=-1)
        out = (v
               + ((np.cos(d) - 1.0) * a)[..., None] * e
               - (np.sin(d) * a)[..., None] * x)
        out = np.where(d[..., None] > _TINY, out, v)
        # numerical hygiene: remove any normal component that crept in
        return out - np.sum(out * y, axis=-1, keepdims=True) * y

    def inner(self, x, u, v):
        return np.sum(np.asarray(u) * np.asarray(v), axis=-1)

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

    def check_tangent(self, x, v):
        x = self._check_shape(x)
        v = self._check_shape(v, "tangent")
        if np.any(np.abs(np.sum(x * v, axis=-1)) > 1e-9):
            raise DomainError("sphere2: tangent not orthogonal to base point")


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

    # -- internal helpers --------------------------------------------------

    def _roots(self, x):
        """Eigendecomposition-based x^(1/2) and x^(-1/2), eigenvalues clamped."""
        w, q = np.linalg.eigh(_sym(np.asarray(x, dtype=np.float64)))
        w = np.maximum(w, EIG_CLAMP)
        s = np.sqrt(w)
        return _eigh_recompose(q, s), _eigh_recompose(q, 1.0 / s)

    def _log_mid(self, x, y):
        """Log(x^-1/2 y x^-1/2) plus the eigenvalue path for distances."""
        rt, irt = self._roots(x)
        s = _sym(irt @ np.asarray(y, dtype=np.float64) @ irt)
        mu, p = np.linalg.eigh(s)
        lmu = np.log(np.maximum(mu, EIG_CLAMP))
        return rt, irt, _eigh_recompose(p, lmu), lmu

    # -- kernel operations ---------------------------------------------

    def dist(self, x, y):
        _, _, _, lmu = self._log_mid(x, y)
        return np.sqrt(np.sum(lmu * lmu, axis=-1))

    def exp(self, x, v):
        x = self._check_shape(x)
        v = self._check_shape(v, "tangent")
        rt, irt = self._roots(x)
        s = _sym(irt @ v @ irt)
        w, q = np.linalg.eigh(s)
        return _sym(rt @ _eigh_recompose(q, np.exp(w)) @ rt)

    def log_and_dist(self, x, y):
        x = self._check_shape(x)
        y = self._check_shape(y)
        rt, _, mid, lmu = self._log_mid(x, y)
        return _sym(rt @ mid @ rt), np.sqrt(np.sum(lmu * lmu, axis=-1))

    def transport(self, x, y, v):
        x = self._check_shape(x)
        y = self._check_shape(y)
        v = self._check_shape(v, "tangent")
        rt, irt, mid, _ = self._log_mid(x, y)
        w, q = np.linalg.eigh(_sym(0.5 * mid))
        e = rt @ _eigh_recompose(q, np.exp(w)) @ irt
        return _sym(e @ v @ np.swapaxes(e, -1, -2))

    def inner(self, x, u, v):
        x = self._check_shape(x)
        w, q = np.linalg.eigh(_sym(x))
        xinv = _eigh_recompose(q, 1.0 / np.maximum(w, EIG_CLAMP))
        return np.einsum("...ij,...ji->...", xinv @ np.asarray(u), xinv @ np.asarray(v))

    def random_tangent(self, x, sigma, rng):
        # s = g + g^T with g ~ N(0, (sigma/2)^2) iid gives Var(s_ii) = sigma^2
        # and Var(s_ij) = sigma^2/2, so E tr(s^2) = sigma^2 * n(n+1)/2 and the
        # draw is isotropic w.r.t. the affine-invariant metric at x.
        x = self._check_shape(x)
        g = rng.normal(0.0, sigma / 2.0, size=x.shape)
        s = g + np.swapaxes(g, -1, -2)
        rt, _ = self._roots(x)
        return _sym(rt @ s @ rt)

    def check_point(self, x):
        x = self._check_shape(x)
        if not np.all(np.isfinite(x)):
            raise DomainError("spd: non-finite entries")
        asym = np.max(np.abs(x - np.swapaxes(x, -1, -2)))
        if asym > self.SYM_TOL:
            raise DomainError(f"spd: matrix not symmetric (max asymmetry {asym:.3e})")
        w = np.linalg.eigvalsh(_sym(x))
        if np.any(w <= 0.0):
            raise DomainError("spd: matrix not positive definite")

    def check_tangent(self, x, v):
        v = self._check_shape(v, "tangent")
        if not np.all(np.isfinite(v)):
            raise DomainError("spd: non-finite tangent entries")
        if np.max(np.abs(v - np.swapaxes(v, -1, -2))) > self.SYM_TOL:
            raise DomainError("spd: tangent not symmetric")


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


# ---------------------------------------------------------------------------
# single-point wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A validated single point; ``coords`` has the manifold's point shape."""

    manifold: Manifold
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64, copy=True)
        if coords.shape != self.manifold.point_shape:
            raise DomainError(
                f"point shape {coords.shape} does not match "
                f"{self.manifold.kind} point shape {self.manifold.point_shape}")
        self.manifold.check_point(coords)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __repr__(self):
        return f"ManifoldPoint({self.manifold.kind}, {self.coords.tolist()})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A validated tangent vector anchored at ``base``."""

    base: ManifoldPoint
    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64, copy=True)
        m = self.base.manifold
        if coords.shape != m.point_shape:
            raise DomainError(
                f"tangent shape {coords.shape} does not match "
                f"{m.kind} point shape {m.point_shape}")
        m.check_tangent(self.base.coords, coords)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __repr__(self):
        return f"TangentVector({self.base.manifold.kind}, {self.coords.tolist()})"


def _require_same_manifold(x: ManifoldPoint, y: ManifoldPoint):
    if x.manifold != y.manifold:
        raise DomainError(
            f"points live on different manifolds: {x.manifold} vs {y.manifold}")


def dist(x: ManifoldPoint, y: ManifoldPoint) -> float:
    """Geodesic distance between two points of the same manifold."""
    _require_same_manifold(x, y)
    return float(x.manifold.dist(x.coords, y.coords))


def exp(x: ManifoldPoint, xi: TangentVector) -> ManifoldPoint:
    """Exponential map; ``xi`` must be anchored at ``x``."""
    _require_base(x, xi)
    return ManifoldPoint(x.manifold, x.manifold.exp(x.coords, xi.coords))


def log(x: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
    """Inverse exponential; raises InjectivityError near the cut locus."""
    _require_same_manifold(x, y)
    return TangentVector(x, x.manifold.log(x.coords, y.coords))


def parallel_transport(x: ManifoldPoint, y: ManifoldPoint,
                       nu: TangentVector) -> TangentVector:
    """Transport ``nu`` from T_x to T_y along the connecting geodesic."""
    _require_same_manifold(x, y)
    _require_base(x, nu)
    out = x.manifold.transport(x.coords, y.coords, nu.coords)
    return TangentVector(y, out)


def inner(u: TangentVector, v: TangentVector) -> float:
    """Riemannian inner product of two tangents with a common base point."""
    if u.base.manifold != v.base.manifold or \
            not np.array_equal(u.base.coords, v.base.coords):
        raise DomainError("tangent vectors have different base points")
    return float(u.base.manifold.inner(u.base.coords, u.coords, v.coords))


def tnorm(u: TangentVector) -> float:
    """Riemannian norm of a tangent vector."""
    return float(u.base.manifold.norm(u.base.coords, u.coords))


def random_tangent(x: ManifoldPoint, sigma: float, rng) -> TangentVector:
    """Isotropic Gaussian tangent at ``x``: E ||v||^2 = sigma^2 * intrinsic_dim."""
    if sigma < 0:
        raise DomainError("sigma must be non-negative")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    return TangentVector(x, x.manifold.random_tangent(x.coords, float(sigma), rng))


def _require_base(x: ManifoldPoint, v: TangentVector):
    if v.base.manifold != x.manifold or not np.array_equal(v.base.coords, x.coords):
        raise DomainError("tangent vector is not anchored at the given point")
