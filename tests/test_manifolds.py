"""Kernel oracles: closed-form values computed by hand, plus the exp/log/
transport identities every geometry has to satisfy."""

import numpy as np
import pytest

from conftest import ALL_MANIFOLDS, random_point
import mvgraph.manifolds
import spd_matmul
from mvgraph.errors import DomainError, InjectivityError
from mvgraph.fields import VertexFunction
from mvgraph.manifolds import (EIG_CLAMP, Circle, Euclidean, Manifold, Spd,
                               Sphere2, _components, _eigh_sym, _matrices,
                               from_kind, wrap_angle)


# ---------------------------------------------------------------------------
# frozen closed-form values
# ---------------------------------------------------------------------------

def test_circle_quarter_arc():
    c = Circle()
    assert c.dist([0.0], [np.pi / 2]) == pytest.approx(np.pi / 2, abs=1e-15)


def test_circle_wraparound_distance():
    # minimizing |y - x + 2 pi k| over integers k gives 2 pi - 6
    c = Circle()
    assert c.dist([3.0], [-3.0]) == pytest.approx(2 * np.pi - 6, abs=1e-13)


def test_circle_log_and_exp():
    c = Circle()
    assert c.log([0.0], [np.pi / 2])[0] == pytest.approx(np.pi / 2)
    assert c.exp([0.0], [np.pi])[0] == pytest.approx(np.pi)
    # wrap: 3 + 0.5 leaves (-pi, pi] and comes back at 3.5 - 2 pi
    stepped = c.exp([3.0], [0.5])
    assert stepped[0] == pytest.approx(3.5 - 2 * np.pi, abs=1e-13)
    c.check_point(stepped)


def test_wrap_angle_half_open_interval():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    th = wrap_angle(np.linspace(-20, 20, 1001))
    assert np.all(th > -np.pi) and np.all(th <= np.pi)


def test_spd_unit_distance():
    # dist(I, diag(e,1,1)) = ||Log(diag(e,1,1))||_F = 1
    m = Spd(3)
    assert m.dist(np.eye(3), np.diag([np.e, 1.0, 1.0])) == pytest.approx(
        1.0, abs=1e-12)


def test_spd_log_at_identity():
    m = Spd(3)
    np.testing.assert_allclose(m.log(np.eye(3), np.diag([np.e, 1.0, 1.0])),
                               np.diag([1.0, 0, 0]), atol=1e-12)


def test_spd_inner_at_identity():
    m = Spd(3)
    u = np.diag([1.0, 0, 0])
    assert m.inner(np.eye(3), u, u) == pytest.approx(1.0, abs=1e-13)
    assert m.norm(np.eye(3), u) == pytest.approx(1.0, abs=1e-13)


def test_sphere_exp_quarter_turn():
    s = Sphere2()
    np.testing.assert_allclose(s.exp([0.0, 0.0, 1.0], [np.pi / 2, 0.0, 0.0]),
                               [1.0, 0.0, 0.0], atol=1e-12)


def test_sphere_transport_example():
    # transporting the binormal (0,1,0) along the geodesic from the north
    # pole to (1,0,0) leaves it unchanged
    s = Sphere2()
    out = s.transport([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-12)


def test_euclidean_closed_forms():
    e = Euclidean(3)
    x = [1.0, 2.0, 3.0]
    y = [4.0, 6.0, 3.0]
    assert e.dist(x, y) == pytest.approx(5.0)
    np.testing.assert_array_equal(e.log(x, y), [3.0, 4.0, 0.0])
    np.testing.assert_array_equal(e.exp(x, [1.0, 1.0, 1.0]), [2.0, 3.0, 4.0])
    nu = [0.5, -0.5, 2.0]
    np.testing.assert_array_equal(e.transport(x, y, nu), nu)


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------

def test_point_invariants_rejected():
    with pytest.raises(DomainError):
        Sphere2().check_point([1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        Circle().check_point([4.0])
    with pytest.raises(DomainError):
        Spd(2).check_point([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(DomainError):
        Spd(2).check_point([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
    with pytest.raises(DomainError):
        Euclidean(2).check_point([1.0, 2.0, 3.0])


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=lambda m: m.kind)
def test_empty_batch_is_valid(manifold):
    empty = np.zeros((0,) + manifold.point_shape)
    manifold.check_point(empty)
    assert VertexFunction(manifold, empty).n_vertices == 0


def test_subclasses_define_no_public_kernel():
    # each public kernel is defined once, on Manifold, around the row
    # kernel of the same name
    kernels = ("dist", "log", "exp", "log_and_dist", "exp_and_norm",
               "transport", "inner", "norm")
    kinds = [cls for cls in Manifold.__subclasses__()
             if cls.__module__ == "mvgraph.manifolds"]
    assert sorted(cls.__name__ for cls in kinds) == [
        "Circle", "Euclidean", "Spd", "Sphere2"]
    defined = [(cls.__name__, op) for cls in kinds for op in kernels
               if op in vars(cls)]
    # Circle.exp also takes scalar angles
    assert defined == [("Circle", "exp")]


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=lambda m: m.kind)
def test_public_kernels_keep_the_point_layout(manifold, rng):
    # each public kernel converts to component rows and back once: batch
    # axes in front, broadcasting as numpy does
    ps = manifold.point_shape
    x = random_point(manifold, rng, 10).reshape((2, 5) + ps)
    v = manifold.random_tangent(x, 0.2, rng)
    y, t = manifold.exp_and_norm(x, v)
    assert y.shape == x.shape and t.shape == (2, 5)
    logs, d = manifold.log_and_dist(x, y)
    np.testing.assert_allclose(logs, v, atol=1e-10)
    np.testing.assert_allclose(d, t, atol=1e-10)
    np.testing.assert_allclose(manifold.norm(x, v), t, atol=1e-10)
    one = manifold.exp_and_norm(x[1, 2], v)
    every = manifold.exp_and_norm(np.broadcast_to(x[1, 2], x.shape), v)
    assert all(np.array_equal(a, b) for a, b in zip(one, every))
    rows = manifold._rows(x)
    state = manifold._point_state_rows(rows)
    if isinstance(manifold, Spd):
        k = manifold.intrinsic_dim
        assert state.shape == (2 * k, 10)
        rt = _matrices(state[:k], (2, 5))
        np.testing.assert_allclose(rt @ rt, x, atol=1e-12)
    else:
        assert state is rows


def test_descriptor_mismatch_rejected():
    with pytest.raises(DomainError):
        Euclidean(3).dist([0.0, 0.0], [0.0, 0.0, 0.0])


def test_antipodal_log_raises():
    c = Circle()
    with pytest.raises(InjectivityError):
        c.log([0.0], [np.pi])
    s = Sphere2()
    with pytest.raises(InjectivityError):
        s.log([0.0, 0.0, 1.0], [0.0, 0.0, -1.0])


def test_from_kind_roundtrip():
    for m in ALL_MANIFOLDS:
        assert from_kind(m.kind, m.params) == m
    with pytest.raises(DomainError):
        from_kind("torus")


# ---------------------------------------------------------------------------
# identities on random batches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=lambda m: m.kind)
def test_kernel_identities(manifold, rng):
    n = 2000
    x = random_point(manifold, rng, n)
    # targets inside 0.9 * injectivity radius
    radius = min(manifold.injectivity_radius, np.pi) * 0.9
    xi = manifold.random_tangent(x, 0.35, rng)
    nrm = manifold.norm(x, xi)
    scale = np.minimum(1.0, radius / np.maximum(nrm, 1e-12))
    xi = xi * scale.reshape(scale.shape + (1,) * len(manifold.point_shape))
    y = manifold.exp(x, xi)

    # roundtrip and norm compatibility
    v = manifold.log(x, y)
    assert manifold.dist(manifold.exp(x, v), y).max() < 1e-10
    assert np.abs(manifold.dist(x, y) - manifold.norm(x, v)).max() < 1e-10

    # geodesic midpoint is equidistant
    mid = manifold.exp(x, 0.5 * v)
    assert np.abs(manifold.dist(x, mid) - manifold.dist(mid, y)).max() < 1e-10

    # transport: isometry, inner-product preservation, reversal
    u1 = manifold.random_tangent(x, 0.5, rng)
    u2 = manifold.random_tangent(x, 0.5, rng)
    t1 = manifold.transport(x, y, u1)
    t2 = manifold.transport(x, y, u2)
    assert np.abs(manifold.norm(y, t1) - manifold.norm(x, u1)).max() < 1e-12
    assert np.abs(manifold.inner(y, t1, t2) - manifold.inner(x, u1, u2)).max() < 1e-11
    back = manifold.transport(x, y, v)
    assert manifold.norm(y, back + manifold.log(y, x)).max() < 1e-10

    # transport with x = y is the identity
    same = manifold.transport(x, x, u1)
    assert np.abs(same - u1).max() < 1e-12


def test_spd_exp_stays_positive_definite(rng):
    m = Spd(3)
    x = random_point(m, rng, 200)
    big = m.random_tangent(x, 3.0, rng)
    y = m.exp(x, big)
    assert np.linalg.eigvalsh(y).min() > 0


def test_sphere_exp_renormalizes(rng):
    s = Sphere2()
    x = random_point(s, rng, 500)
    xi = s.random_tangent(x, 1.0, rng)
    y = s.exp(x, xi)
    assert np.abs(np.linalg.norm(y, axis=-1) - 1).max() < 1e-12


# ---------------------------------------------------------------------------
# random tangent statistics
# ---------------------------------------------------------------------------

def test_random_tangent_zero_sigma():
    for m in ALL_MANIFOLDS:
        x = random_point(m, np.random.default_rng(3))
        xi = m.random_tangent(x, 0.0, np.random.default_rng(7))
        assert xi.shape == m.point_shape
        assert np.all(xi == 0.0)


@pytest.mark.parametrize("manifold,sigma", [
    (Circle(), 0.3),
    (Sphere2(), 0.25),
    (Spd(3), 0.25),
], ids=lambda a: str(a))
def test_random_tangent_second_moment(manifold, sigma, rng):
    n = 100_000
    x = random_point(manifold, rng)
    xs = np.broadcast_to(x, (n,) + manifold.point_shape)
    xi = manifold.random_tangent(xs, sigma, rng)
    mean_sq = float(np.mean(manifold.norm(xs, xi) ** 2))
    expect = sigma ** 2 * manifold.intrinsic_dim
    assert abs(mean_sq - expect) < 0.03 * expect


def test_spd_dist_checks_shapes():
    m = Spd(3)
    with pytest.raises(DomainError):
        m.dist(2 * np.eye(2), np.eye(2))
    with pytest.raises(DomainError):
        m.dist(np.eye(3), np.eye(2))


# ---------------------------------------------------------------------------
# closed-form 3 x 3 eigensolver against LAPACK
# ---------------------------------------------------------------------------

def _rotated(rng, lam):
    """Random rotations of diag(lam) for each row of lam."""
    q, _ = np.linalg.qr(rng.normal(size=lam.shape + (3,)))
    return (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)


def _eigh_case(name, rng, n=2000):
    g = rng.normal(size=(n, 3, 3))
    s = 0.5 * (g + np.swapaxes(g, -1, -2))
    if name == "random":
        return s
    if name == "random-spd":
        return _rotated(rng, np.exp(rng.normal(size=(n, 3))))
    if name.startswith("near-isotropic"):
        return np.eye(3) + float(name.split()[1]) * s
    if name == "isotropic":
        return rng.uniform(0.1, 10.0, size=(n, 1, 1)) * np.eye(3)
    if name == "repeated-pair":
        a, b = rng.uniform(0.5, 2.0, size=(2, n))
        return _rotated(rng, np.stack([a, a, b], axis=1))
    if name == "conditioned":
        return _rotated(rng, 10.0 ** rng.uniform(-12, 4, size=(n, 3)))
    assert name == "zero"
    return np.zeros((4, 3, 3))


EIGH_CASES = ["random", "random-spd", "near-isotropic 1e-2",
              "near-isotropic 1e-4", "near-isotropic 1e-6",
              "near-isotropic 1e-8", "isotropic", "repeated-pair",
              "conditioned", "zero"]


@pytest.mark.parametrize("name", EIGH_CASES)
def test_eigh_sym_matches_eigh(name, rng):
    a = _eigh_case(name, rng)
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    w, q = spd_matmul.eigh(a)
    we, qe = np.linalg.eigh(a)
    scale = np.abs(a).max(axis=(1, 2))
    assert np.all(np.diff(w, axis=-1) >= 0)
    assert np.all(np.abs(w - we) <= 1e-13 * scale[:, None])
    assert np.abs(np.swapaxes(q, -1, -2) @ q - np.eye(3)).max() <= 1e-12
    err = np.abs(spd_matmul.recompose(q, w) - a).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * scale)
    # the matrix log, where it exists: either solver knows an eigenvalue lam
    # to about eps * scale, so its log only to eps * scale / lam.
    # Eigenvectors are not unique, so they are compared only through what
    # they recompose.
    spd = we[:, 0] > 0
    log = spd_matmul.recompose(q, np.log(np.maximum(w, EIG_CLAMP)))
    ref = spd_matmul.recompose(qe, np.log(np.maximum(we, EIG_CLAMP)))
    err = np.abs(log - ref)[spd].max(axis=(1, 2))
    cond = scale[spd] / we[spd, 0]
    assert np.all(err <= 1e-12 + 1e3 * np.finfo(float).eps * cond)


def test_eigh_sym_keeps_batch_shape(rng):
    a = _eigh_case("random", rng, 24).reshape(2, 3, 4, 3, 3)
    c = _components(a).reshape(6, 2, 3, 4)
    w, q = _eigh_sym(c)
    assert w.shape == (3, 2, 3, 4) and q.shape == (3, 3, 2, 3, 4)
    w1, q1 = _eigh_sym(c[:, 1, 2, 3])
    assert np.array_equal(w1, w[:, 1, 2, 3])
    assert np.array_equal(q1, q[:, :, 1, 2, 3])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_components_round_trip(k, rng):
    g = rng.normal(size=(2, 5, k, k))
    x = g + np.swapaxes(g, -1, -2)
    c = _components(x)
    assert c.shape == (k * (k + 1) // 2, 10)
    assert np.array_equal(_matrices(c, (2, 5)), x)
    # the diagonal comes first; an asymmetric input gives its symmetric part
    assert np.array_equal(c[:k], np.diagonal(x, axis1=-2, axis2=-1).reshape(
        10, k).T)
    assert np.array_equal(_components(g), _components(
        0.5 * (g + np.swapaxes(g, -1, -2))))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigh_sym_non_finite_rows_raise(bad, rng):
    a = _eigh_case("random-spd", rng, 10)
    a[3] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _eigh_sym(_components(a))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_eigh_sym_uses_lapack_for_other_sizes(k, rng, monkeypatch):
    m = Spd(k)
    x, y = random_point(m, rng, 8), random_point(m, rng, 8)
    rows = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kw):
        rows.append(int(np.prod(np.shape(a)[:-2])))
        return eigh(a, *args, **kw)

    monkeypatch.setattr(mvgraph.manifolds.np.linalg, "eigh", counting)
    m.dist(x, y)
    # roots of x and the mid matrices: all of them through LAPACK except
    # for 3 x 3, where none of these well-separated spectra falls back
    assert sum(rows) == (0 if k == 3 else 16)
