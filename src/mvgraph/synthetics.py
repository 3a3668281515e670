"""Synthetic manifold-valued test images, the Riemannian noise model, and
the MSE metric.

The generators produce documented analogues of classical test data:

* :func:`gen_s2_whirl` — a smooth sphere-valued background with square
  whirl regions whose centers sit exactly on the poles.  The image is
  exactly symmetric under both horizontal and vertical mirroring (it is
  built from one quadrant by index reflection), which kills every odd
  grid mode; diffusion flows on it therefore contract at the rate of the
  first even mode.
* :func:`gen_phase_image` — a wrapped linear phase ramp with
  piecewise-constant ellipse/rectangle regions (circle-valued).
* :func:`gen_spd_on_sphere` — spherical Fibonacci sample points carrying
  anisotropic SPD(3) tensors aligned with the sphere's tangent frame,
  with discontinuities across two latitude bands.

All generators are deterministic; noise is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .fields import VertexFunction
from .manifolds import Circle, Spd, Sphere2, wrap_angle

NOISE_KINDS = ("wrapped-gaussian", "riemannian-gaussian")

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


# ---------------------------------------------------------------------------
# noise and evaluation
# ---------------------------------------------------------------------------

@dataclass
class NoiseSpec:
    """Perturbation model: exp at each value of a centered Gaussian tangent."""

    kind: str = "riemannian-gaussian"
    sigma: float = 0.1
    rng_seed: int = 0

    def validate(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {NOISE_KINDS}, "
                              f"got {self.kind!r}")
        if not 0 <= self.sigma < np.inf:
            raise ConfigError("sigma must be finite and non-negative")
        if (not isinstance(self.rng_seed, (int, np.integer))
                or self.rng_seed < 0):
            raise ConfigError(f"rng_seed must be a non-negative integer, "
                              f"got {self.rng_seed!r}")


def add_noise(f: VertexFunction, spec: NoiseSpec) -> VertexFunction:
    """Per-vertex exp_{f(u)}(xi_u), xi_u ~ N(0, sigma^2) in the tangent space.

    Masked vertices are copied untouched; sigma = 0 returns an exact copy.
    On the circle the wrapped-Gaussian and Riemannian-Gaussian kinds are the
    same construction; the wrapped kind is refused on other manifolds.
    Raises DomainError, naming sigma, when a noisy value is not a point of
    the manifold (on Spd a large sigma overflows the matrix exponential, or
    the eigensolver fails on the tangent draw).
    """
    spec.validate()
    if spec.kind == "wrapped-gaussian" and f.manifold.kind != "circle":
        raise DomainError(
            "wrapped-gaussian noise is only defined for circle-valued data")
    if spec.sigma == 0:
        return f.copy()
    rng = np.random.default_rng(spec.rng_seed)
    m = f.manifold

    def noisy(x):
        s = m._point_state_rows(x)
        return m._exp_and_norm_rows(
            s, m._random_tangent_rows(s, spec.sigma, rng))[0]
    fr = f._to_rows()
    try:
        with np.errstate(all="ignore"):
            out = f._with_rows(fr._on_active(noisy, fr.rows))
        out.check_points()
    except (DomainError, np.linalg.LinAlgError) as err:
        raise DomainError(f"noise at sigma {spec.sigma:g} leaves the "
                          f"manifold: {err}") from None
    return out


def mse(f: VertexFunction, g: VertexFunction) -> float:
    """Mean squared geodesic distance over jointly active vertices."""
    d = f.dists_to(g)
    return float(np.mean(d * d)) if d.size else 0.0


# ---------------------------------------------------------------------------
# sphere-valued whirl image
# ---------------------------------------------------------------------------

def _spherical(phi, psi):
    """Unit vector with polar angle phi (from +z) and azimuth psi."""
    phi, psi = np.broadcast_arrays(phi, psi)
    sp = np.sin(phi)
    return np.stack([sp * np.cos(psi), sp * np.sin(psi), np.cos(phi)],
                    axis=-1)


def _whirl_layout(h, w):
    """Whirl squares inside the construction quadrant.

    Returns (radius, [(row, col, kind), ...]) in quadrant coordinates.  A
    second (north) whirl is added only when two squares fit side by side.
    """
    qh, qw = (h + 1) // 2, (w + 1) // 2
    r = 2 if min(qh, qw) >= 8 else 1
    side = 2 * r + 1
    if qw >= 2 * side:
        return r, [(qh // 2, qw // 4, "south"),
                   (qh // 2, qw - 1 - qw // 4, "north")]
    return r, [(qh // 2, qw // 2, "south")]


def _check_grid_size(h, w):
    if h < 8 or w < 8:
        raise ConfigError("grid generators require height, width >= 8")


def gen_s2_whirl(height, width, include_whirls=True) -> VertexFunction:
    """Sphere-valued test image: smooth background plus pole-centered whirls.

    The background wanders gently in both polar and azimuthal angle
    (adjacent geodesic distances stay below pi/8).  Each whirl square
    spirals from the background toward a pole; its center pixel is the
    exact pole: (0,0,-1) for the clockwise/"south" squares, (0,0,+1) for
    the anti-clockwise/"north" ones.  The image equals its own horizontal
    and vertical mirror image exactly.
    """
    _check_grid_size(height, width)
    h, w = int(height), int(width)
    qh, qw = (h + 1) // 2, (w + 1) // 2

    # background over the quadrant
    ti = np.arange(qh) / (h - 1.0)
    tj = np.arange(qw) / (w - 1.0)
    phi = np.pi / 3 + (np.pi / 16) * np.cos(2 * np.pi * ti)
    psi = (np.pi / 16) * np.cos(2 * np.pi * tj)
    quad = _spherical(phi[:, None], psi[None, :])

    if include_whirls:
        r, squares = _whirl_layout(h, w)
        off = np.arange(-r, r + 1, dtype=np.float64)
        aa, bb = np.meshgrid(off, off, indexing="ij")
        rho = np.sqrt(aa ** 2 + bb ** 2) / (r + 1.0)
        theta = np.arctan2(bb, aa)
        for ci, cj, kind in squares:
            if kind == "south":
                wphi = np.pi - rho * (np.pi / 2)
                wpsi = theta + 2.0 * rho
            else:
                wphi = rho * (np.pi / 2)
                wpsi = theta - 2.0 * rho
            patch = _spherical(wphi, wpsi)
            patch[r, r] = [0.0, 0.0, -1.0 if kind == "south" else 1.0]
            quad[ci - r:ci + r + 1, cj - r:cj + r + 1] = patch

    ii = np.minimum(np.arange(h), h - 1 - np.arange(h))
    jj = np.minimum(np.arange(w), w - 1 - np.arange(w))
    img = quad[np.ix_(ii, jj)]
    return VertexFunction(Sphere2(), img.reshape(h * w, 3))


def whirl_centers(height, width):
    """Grid positions (row, col, kind) of every whirl center pixel."""
    _check_grid_size(height, width)
    h, w = int(height), int(width)
    _, squares = _whirl_layout(h, w)
    out = []
    for ci, cj, kind in squares:
        for i in {ci, h - 1 - ci}:
            for j in {cj, w - 1 - cj}:
                out.append((i, j, kind))
    return sorted(out)


# ---------------------------------------------------------------------------
# circle-valued phase image
# ---------------------------------------------------------------------------

def gen_phase_image(height, width) -> VertexFunction:
    """Wrapped linear phase ramp with constant ellipse/rectangle regions.

    The first grid row is always pure ramp, so wrapped neighbor distances
    along it equal the (small) ramp slope even where the raw angle crosses
    the +-pi seam.
    """
    _check_grid_size(height, width)
    h, w = int(height), int(width)
    i, j = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    img = -np.pi + (3.2 * np.pi / h) * i + (3.0 * np.pi / w) * j

    e1 = (((i - 0.32 * h) / (0.16 * h)) ** 2
          + ((j - 0.28 * w) / (0.13 * w)) ** 2) <= 1.0
    e2 = (((i - 0.62 * h) / (0.20 * h)) ** 2
          + ((j - 0.66 * w) / (0.15 * w)) ** 2) <= 1.0
    box = ((i >= 0.55 * h) & (i < 0.80 * h)
           & (j >= 0.12 * w) & (j < 0.30 * w))
    img = np.where(e1, 2.4, img)
    img = np.where(e2 & ~e1, -1.8, img)
    img = np.where(box & ~e1 & ~e2, 0.8, img)

    vals = wrap_angle(img.reshape(h * w, 1))
    return VertexFunction(Circle(), vals)


# ---------------------------------------------------------------------------
# SPD(3) field on the unit sphere
# ---------------------------------------------------------------------------

def fibonacci_sphere(n_points) -> np.ndarray:
    """Near-uniform deterministic sample of the unit sphere (n, 3)."""
    i = np.arange(n_points, dtype=np.float64)
    z = 1.0 - 2.0 * (i + 0.5) / n_points
    rad = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    th = _GOLDEN_ANGLE * i
    return np.stack([rad * np.cos(th), rad * np.sin(th), z], axis=1)


# eigenvalues (azimuthal, meridional, normal) per latitude band
_BAND_EIGS = np.array([
    [2.5, 0.8, 0.4],    # z > 0.4
    [0.9, 0.9, 2.2],    # -0.2 < z <= 0.4
    [1.8, 0.5, 0.9],    # z <= -0.2
])


def gen_spd_on_sphere(n_points=480):
    """Anisotropic SPD(3) tensors on spherical Fibonacci points.

    Each tensor's eigenframe is the local tangent frame (azimuthal,
    meridional, outward normal); eigenvalues are constant within three
    latitude bands separated at z = 0.4 and z = -0.2, giving two sharp
    discontinuity rings on an otherwise smoothly rotating field.

    Returns ``(positions, f)`` with positions of shape (n, 3).
    """
    n = int(n_points)
    if n < 12:
        raise ConfigError("gen_spd_on_sphere requires at least 12 points")
    pos = fibonacci_sphere(n)

    nrm = pos
    az = np.stack([-pos[:, 1], pos[:, 0], np.zeros(n)], axis=1)
    az /= np.linalg.norm(az, axis=1, keepdims=True)
    mer = np.cross(nrm, az)

    band = np.where(pos[:, 2] > 0.4, 0, np.where(pos[:, 2] > -0.2, 1, 2))
    eigs = _BAND_EIGS[band]
    frames = np.stack([az, mer, nrm], axis=2)          # columns are the frame
    vals = np.einsum("nik,nk,njk->nij", frames, eigs, frames)
    vals = 0.5 * (vals + np.swapaxes(vals, 1, 2))
    return pos, VertexFunction(Spd(3), vals)
