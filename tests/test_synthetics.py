"""Generator and noise-model oracles.

The noise law expectations are second-moment identities of the tangent
Gaussians (variance sigma^2 per intrinsic dimension); the generator checks
pin the documented structural guarantees (exact symmetry, pole centers,
smooth backgrounds, canonical angles).
"""

import re

import numpy as np
import pytest

import mvgraph.manifolds
from conftest import clustered_vertex_function, random_point
from mvgraph.errors import ConfigError, DomainError
from mvgraph.calculus import edge_logs
from mvgraph.fields import VertexFunction
from mvgraph.graphs import epsilon_ball_graph, grid_graph
from mvgraph.manifolds import Circle, Euclidean, Spd, Sphere2
from mvgraph.synthetics import (NoiseSpec, add_noise, gen_phase_image,
                                gen_s2_whirl, gen_spd_on_sphere, mse,
                                whirl_centers)


# ---------------------------------------------------------------------------
# noise model
# ---------------------------------------------------------------------------

def test_noise_spec_validation():
    NoiseSpec(kind="riemannian-gaussian", sigma=0.3, rng_seed=1).validate()
    NoiseSpec(kind="wrapped-gaussian", sigma=0.0, rng_seed=0).validate()
    with pytest.raises(ConfigError):
        NoiseSpec(kind="riemannian-gaussian", sigma=-0.1, rng_seed=0).validate()
    for sigma in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            NoiseSpec(kind="riemannian-gaussian", sigma=sigma).validate()
    with pytest.raises(ConfigError):
        NoiseSpec(kind="salt-pepper", sigma=0.1, rng_seed=0).validate()
    NoiseSpec(rng_seed=np.int64(3)).validate()
    for seed in (-1, 2.5, 2.0, None, "7"):
        with pytest.raises(ConfigError, match="rng_seed"):
            NoiseSpec(rng_seed=seed).validate()


def test_zero_sigma_is_identity():
    c = Circle()
    f = VertexFunction(c, np.array([[0.3], [1.0], [-2.0]]))
    out = add_noise(f, NoiseSpec(kind="wrapped-gaussian", sigma=0.0, rng_seed=7))
    np.testing.assert_array_equal(out.values, f.values)
    assert out.values is not f.values   # still a fresh buffer


def test_noise_deterministic_and_seed_sensitive():
    s = Sphere2()
    vals = np.tile([0.0, 0.0, 1.0], (50, 1))
    f = VertexFunction(s, vals)
    spec = NoiseSpec(kind="riemannian-gaussian", sigma=0.2, rng_seed=11)
    a = add_noise(f, spec)
    b = add_noise(f, spec)
    np.testing.assert_array_equal(a.values, b.values)
    c = add_noise(f, NoiseSpec(kind="riemannian-gaussian", sigma=0.2,
                               rng_seed=12))
    assert np.any(c.values != a.values)
    # outputs stay on the manifold
    f.manifold.check_point(a.values)


def test_noise_respects_mask():
    c = Circle()
    vals = np.array([[0.0], [99.0], [1.0]])    # masked placeholder is invalid
    mask = np.array([True, False, True])
    f = VertexFunction(c, vals, mask)
    out = add_noise(f, NoiseSpec(kind="wrapped-gaussian", sigma=0.5,
                                 rng_seed=3))
    assert out.values[1, 0] == 99.0
    assert out.mask is not None and list(out.mask) == [True, False, True]
    assert out.values[0, 0] != 0.0 and out.values[2, 0] != 1.0


@pytest.mark.parametrize("manifold", [Circle(), Sphere2(), Spd(3)],
                         ids=lambda m: m.kind)
def test_masked_noise_is_the_compressed_draw(manifold):
    rng = np.random.default_rng(4)
    n = 30
    mask = rng.random(n) < 0.5
    vals = clustered_vertex_function(manifold, rng, n).values.copy()
    vals[~mask] = np.nan     # placeholders that no draw may touch
    spec = NoiseSpec(sigma=0.3, rng_seed=9)
    out = add_noise(VertexFunction(manifold, vals, mask), spec)
    alone = add_noise(VertexFunction(manifold, vals[mask]), spec)
    assert np.array_equal(out.values[mask], alone.values)
    assert np.isnan(out.values[~mask]).all()


def test_wrapped_gaussian_is_circle_only():
    e = Euclidean(2)
    f = VertexFunction(e, np.zeros((4, 2)))
    with pytest.raises(DomainError):
        add_noise(f, NoiseSpec(kind="wrapped-gaussian", sigma=0.1, rng_seed=0))
    # on the circle both kinds are the same construction
    c = Circle()
    fc = VertexFunction(c, np.zeros((10, 1)))
    a = add_noise(fc, NoiseSpec(kind="wrapped-gaussian", sigma=0.3, rng_seed=5))
    b = add_noise(fc, NoiseSpec(kind="riemannian-gaussian", sigma=0.3,
                                rng_seed=5))
    np.testing.assert_array_equal(a.values, b.values)


def test_spd_noise_decomposes_each_vertex_twice(monkeypatch):
    # the roots of each vertex, shared by the tangent draw and the step,
    # and the step's mid matrix: 2n matrices, not 3n
    matrices = []
    eigh_sym = mvgraph.manifolds._eigh_sym

    def counting(c):
        matrices.append(int(np.prod(np.shape(c)[1:])))
        return eigh_sym(c)

    s = Spd(3)
    f = VertexFunction(s, random_point(s, np.random.default_rng(3), 40))
    monkeypatch.setattr(mvgraph.manifolds, "_eigh_sym", counting)
    add_noise(f, NoiseSpec(sigma=0.25, rng_seed=1))
    assert sum(matrices) == 80


@pytest.mark.parametrize("sigma", [40.0, 1000.0, 1e308])
def test_spd_noise_off_the_manifold_is_refused(sigma):
    # at 40 some noisy matrices are not positive definite, at 1000 the
    # matrix exponential overflows, at 1e308 the tangent draw does and the
    # eigensolver fails; none may come back as a point
    _, f = gen_spd_on_sphere(50)
    with pytest.raises(DomainError,
                       match=re.escape(f"sigma {sigma:g} leaves")):
        add_noise(f, NoiseSpec(sigma=sigma, rng_seed=1))


@pytest.mark.parametrize("manifold,n,dim", [
    (Circle(), 100_000, 1),
    (Sphere2(), 100_000, 2),
    (Spd(3), 20_000, 6),
], ids=lambda v: getattr(v, "kind", str(v)))
def test_noise_mse_law(manifold, n, dim):
    rng = np.random.default_rng(99)
    if manifold.kind == "circle":
        base = np.zeros((n, 1))
    elif manifold.kind == "sphere2":
        base = np.tile([0.0, 0.6, 0.8], (n, 1))
    else:
        base = np.tile(np.diag([1.0, 2.0, 0.5]), (n, 1, 1))
    f = VertexFunction(manifold, base, validate=False)
    sigma = 0.3 if dim < 6 else 0.25
    out = add_noise(f, NoiseSpec(kind="riemannian-gaussian", sigma=sigma,
                                 rng_seed=int(rng.integers(1 << 30))))
    assert mse(f, out) == pytest.approx(dim * sigma ** 2, rel=0.03)


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_examples():
    c = Circle()
    f = VertexFunction(c, np.array([[0.0], [1.0]]))
    g = VertexFunction(c, np.array([[np.pi / 2], [1.0]]))
    assert mse(f, g) == pytest.approx((np.pi / 2) ** 2 / 2)
    assert mse(f, f) == 0.0
    assert mse(f, g) == mse(g, f)


def test_mse_identity_with_vertex_distance():
    from mvgraph.calculus import vertex_distance
    s = Sphere2()
    rng = np.random.default_rng(4)
    a = rng.normal(size=(20, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b = rng.normal(size=(20, 3))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    f, g = VertexFunction(s, a), VertexFunction(s, b)
    assert mse(f, g) == pytest.approx(vertex_distance(f, g) ** 2 / 20,
                                      rel=1e-12)


def test_mse_excludes_masked():
    c = Circle()
    mask = np.array([True, True, False])
    f = VertexFunction(c, np.array([[0.0], [0.5], [1.0]]), mask)
    g = VertexFunction(c, np.array([[0.0], [0.5], [-2.0]]), mask)
    assert mse(f, g) == 0.0


def test_mse_relabel_invariance():
    c = Circle()
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=(15, 1)) * 0.5, rng.normal(size=(15, 1)) * 0.5
    perm = rng.permutation(15)
    assert mse(VertexFunction(c, a), VertexFunction(c, b)) == pytest.approx(
        mse(VertexFunction(c, a[perm]), VertexFunction(c, b[perm])), rel=1e-12)


# ---------------------------------------------------------------------------
# sphere-valued whirl image
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("h,w", [(8, 8), (9, 13), (32, 32)])
def test_s2_whirl_unit_and_symmetric(h, w):
    f = gen_s2_whirl(h, w)
    assert f.values.shape == (h * w, 3)
    np.testing.assert_allclose(np.linalg.norm(f.values, axis=1), 1.0,
                               atol=1e-12)
    img = f.values.reshape(h, w, 3)
    np.testing.assert_array_equal(img, img[::-1, :, :])
    np.testing.assert_array_equal(img, img[:, ::-1, :])


def test_s2_whirl_pole_centers():
    h, w = 32, 32
    f = gen_s2_whirl(h, w)
    img = f.values.reshape(h, w, 3)
    centers = whirl_centers(h, w)
    kinds = {k for _, _, k in centers}
    assert kinds == {"south", "north"}
    for i, j, kind in centers:
        target = [0.0, 0.0, -1.0] if kind == "south" else [0.0, 0.0, 1.0]
        np.testing.assert_array_equal(img[i, j], target)
    # small grids still get at least the clockwise/south whirl
    small = whirl_centers(8, 8)
    assert any(k == "south" for _, _, k in small)
    img8 = gen_s2_whirl(8, 8).values.reshape(8, 8, 3)
    i, j, _ = small[0]
    np.testing.assert_array_equal(img8[i, j], [0.0, 0.0, -1.0])


@pytest.mark.parametrize("h,w", [(8, 8), (32, 32)])
def test_s2_whirl_background_smooth(h, w):
    f = gen_s2_whirl(h, w, include_whirls=False)
    g = grid_graph(h, w)
    dmax = edge_logs(g, f)[1].max()
    assert dmax < np.pi / 8


def test_s2_whirl_admissible_and_deterministic():
    f1 = gen_s2_whirl(32, 32)
    f2 = gen_s2_whirl(32, 32)
    np.testing.assert_array_equal(f1.values, f2.values)
    g = grid_graph(32, 32)
    assert edge_logs(g, f1)[1].max() < np.pi


def test_s2_whirl_size_validation():
    with pytest.raises(ConfigError):
        gen_s2_whirl(7, 8)
    with pytest.raises(ConfigError):
        gen_s2_whirl(8, 7)


# ---------------------------------------------------------------------------
# circle-valued phase image
# ---------------------------------------------------------------------------

def test_phase_image_canonical_angles():
    f = gen_phase_image(64, 64)
    assert f.values.shape == (64 * 64, 1)
    assert np.all(f.values > -np.pi) and np.all(f.values <= np.pi)
    np.testing.assert_array_equal(f.values, gen_phase_image(64, 64).values)


def test_phase_image_has_constant_regions():
    h = w = 64
    f = gen_phase_image(h, w)
    img = f.values.reshape(h, w)
    # somewhere the image is locally constant on a 2x2 block
    d_right = np.abs(np.angle(np.exp(1j * (img[:, 1:] - img[:, :-1]))))
    d_down = np.abs(np.angle(np.exp(1j * (img[1:, :] - img[:-1, :]))))
    flat = (d_right[:-1, :] == 0) & (d_down[:, :-1] == 0)
    assert flat.sum() > 20


def test_phase_image_ramp_wraps_without_jumps():
    h = w = 64
    f = gen_phase_image(h, w)
    img = f.values.reshape(h, w)
    # the first row is pure ramp by construction: wrapped steps stay equal
    # to the ramp slope even where the raw angle crosses +-pi
    c = Circle()
    row = img[0]
    steps = c.dist(row[:-1, None], row[1:, None])
    assert np.all(steps < 0.5)
    assert np.ptp(steps) < 1e-12
    raw = np.diff(row)
    assert np.any(np.abs(raw) > np.pi)      # a wrap does occur in the raw row
    g = grid_graph(h, w)
    assert edge_logs(g, f)[1].max() < np.pi


def test_phase_image_size_validation():
    with pytest.raises(ConfigError):
        gen_phase_image(7, 64)


# ---------------------------------------------------------------------------
# SPD field on the sphere
# ---------------------------------------------------------------------------

def test_spd_sphere_basic():
    pos, f = gen_spd_on_sphere(480)
    assert pos.shape == (480, 3)
    np.testing.assert_allclose(np.linalg.norm(pos, axis=1), 1.0, atol=1e-12)
    assert f.values.shape == (480, 3, 3)
    f.manifold.check_point(f.values)        # symmetric positive definite
    pos2, f2 = gen_spd_on_sphere(480)
    np.testing.assert_array_equal(pos, pos2)
    np.testing.assert_array_equal(f.values, f2.values)


def test_spd_sphere_mean_degree():
    pos, _ = gen_spd_on_sphere(480)
    g = epsilon_ball_graph(pos, np.pi / 12, metric="arc", weight_rule="invsq")
    mean_deg = g.n_edges / 480
    assert 6.5 <= mean_deg <= 8.7


def test_spd_sphere_band_discontinuities():
    pos, f = gen_spd_on_sphere(480)
    g = epsilon_ball_graph(pos, np.pi / 12, metric="arc", weight_rule="invsq")
    m = f.manifold
    d = m.dist(f.values[g.src], f.values[g.dst])
    # smooth within bands, with clear jumps across the two latitude cuts
    assert np.median(d) < 0.4
    assert d.max() > 3 * np.median(d)
    crossings = ((pos[g.src, 2] - 0.4) * (pos[g.dst, 2] - 0.4) < 0) | (
        (pos[g.src, 2] + 0.2) * (pos[g.dst, 2] + 0.2) < 0)
    assert d[crossings].min() > np.median(d[~crossings])


def test_spd_sphere_size_validation():
    with pytest.raises(ConfigError):
        gen_spd_on_sphere(11)
