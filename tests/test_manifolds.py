"""Kernel oracles: closed-form values computed by hand, plus the exp/log/
transport identities every geometry has to satisfy."""

import numpy as np
import pytest

from conftest import ALL_MANIFOLDS, random_point
from mvgraph.errors import DomainError, InjectivityError
from mvgraph.manifolds import (Circle, Euclidean, Spd, Sphere2, from_kind,
                               wrap_angle)


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
