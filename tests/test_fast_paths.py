"""The circle and sweep fast paths agree bit for bit with the forms they
replace: ``wrap_angle`` against the reference in ``circle_wrap``, the
sphere2 distance and transport on component rows against the point-layout
forms in ``sphere2_ref``, the unmasked ``_smoothed_power`` and ``dists_to``
against their masked forms, and whole explicit circle solves against the
reference wrap."""

import numpy as np
import pytest

import circle_wrap
import mvgraph.manifolds
import sphere2_ref
from mvgraph.calculus import _smoothed_power
from mvgraph.errors import InjectivityError
from mvgraph.fields import VertexFunction
from mvgraph.graphs import knn_patch_graph
from mvgraph.manifolds import (_TINY, ANTIPODAL_MARGIN, Circle, Sphere2,
                               wrap_angle)
from mvgraph.solvers import SolverConfig, solve
from mvgraph.synthetics import NoiseSpec, add_noise, gen_phase_image

from conftest import random_point

PI = np.pi
SPECIAL = [PI, -PI, 3 * PI, -3 * PI, np.nextafter(-PI, 0.0), 0.0, -0.0,
           2 * PI, -2 * PI, np.nextafter(PI, 4.0)]


def _same(got, want):
    """Equal values, NaN where NaN, and the same shape."""
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def _fresh(theta):
    """wrap_angle of ``theta``, checked to leave it unmodified and to
    share no memory with it."""
    before = np.array(theta, copy=True)
    got = wrap_angle(theta)
    assert np.array_equal(theta, before, equal_nan=True)
    assert not np.shares_memory(got, theta)
    return got


# ---------------------------------------------------------------------------
# wrap_angle
# ---------------------------------------------------------------------------

def test_wrap_angle_matches_reference_on_random_angles():
    theta = np.random.default_rng(0).uniform(-50.0, 50.0, 20_000)
    _same(_fresh(theta), circle_wrap.wrap_angle(theta))


def test_wrap_angle_matches_reference_on_boundaries():
    theta = np.array(SPECIAL)
    got = _fresh(theta)
    _same(got, circle_wrap.wrap_angle(theta))
    assert got[0] == PI and got[1] == PI and got[2] == PI
    assert got[4] == theta[4]      # -pi + 1 ulp is in range


@pytest.mark.parametrize("theta", [
    np.array(3 * PI), np.array(0.5), np.array(-PI),
    np.linspace(-20.0, 20.0, 41).reshape(41, 1),
    np.linspace(-20.0, 20.0, 80).reshape(10, 8).T,
    np.linspace(-20.0, 20.0, 90)[::3],
    np.array(SPECIAL * 3).reshape(6, 5)[:, 1:4],
], ids=["0d-out", "0d-in", "0d-minus-pi", "n1", "transposed", "strided",
        "2d-view"])
def test_wrap_angle_matches_reference_on_shapes(theta):
    _same(_fresh(theta), circle_wrap.wrap_angle(theta))


def test_wrap_angle_non_finite():
    theta = np.array([np.nan, np.inf, -np.inf, 1.0, 4.0])
    with np.errstate(invalid="ignore"):
        got, want = _fresh(theta), circle_wrap.wrap_angle(theta)
    _same(got, want)
    assert np.isnan(got[:3]).all() and got[3] == 1.0


def test_wrap_angle_does_not_touch_a_view_of_the_callers_array():
    img = np.linspace(-10.0, 10.0, 64).reshape(8, 8)
    keep = img.copy()
    vals = _fresh(img.reshape(64, 1))
    assert np.array_equal(img, keep)
    _same(vals, circle_wrap.wrap_angle(keep.reshape(64, 1)))


@pytest.mark.parametrize("order", ["C", "F"])
def test_circle_kernels_match_reference_wrap(order):
    rng = np.random.default_rng(5)
    x, y, v = (np.array(rng.uniform(-PI, PI, (4, 5, 1)), order=order)
               for _ in range(3))
    c = Circle()
    _same(c.dist(x, y), np.abs(circle_wrap.wrap_angle(y - x))[..., 0])
    _same(c.log(x, y), circle_wrap.wrap_angle(y - x))
    _same(c.exp(x, 4.0 * v), circle_wrap.wrap_angle(x + 4.0 * v))
    for x0 in (np.float64(3.0), np.array(3.0), 3.0):
        _same(c.exp(x0, 0.5), circle_wrap.wrap_angle(3.5))


def test_wrap_angle_accepts_lists():
    _same(wrap_angle([4.0, -4.0]), circle_wrap.wrap_angle([4.0, -4.0]))


def test_sphere2_kernels_match_point_layout_reference():
    rng = np.random.default_rng(6)
    s = Sphere2()
    x, y = random_point(s, rng, 5000), random_point(s, rng, 5000)
    # pairs at d < _TINY: equal points, and points one rounding step apart
    y[:50] = x[:50]
    y[50:100] = np.nextafter(x[50:100], 2.0)
    v = s.random_tangent(x, 1.0, rng)
    d = s.dist(x, y)
    assert np.all(d[:100] < _TINY) and np.all(d[100:] > _TINY)
    _same(d, sphere2_ref.dist(x, y))
    _same(s.transport(x, y, v), sphere2_ref.transport(x, y, v))
    # dist never raises, antipodal pairs included; broadcasting as numpy
    _same(s.dist(x[:50], -x[:50]), sphere2_ref.dist(x[:50], -x[:50]))
    _same(s.dist(x[0], y), sphere2_ref.dist(x[0], y))
    _same(s.transport(x[0], y[1], v), sphere2_ref.transport(x[0], y[1], v))


# ---------------------------------------------------------------------------
# _smoothed_power and dists_to
# ---------------------------------------------------------------------------

def _masked_power(d, p, eps_smooth):
    base = d + eps_smooth
    out = np.zeros_like(base)
    pos = base > 0
    out[pos] = base[pos] ** (p - 2.0)
    return out


@pytest.mark.parametrize("p", [1.0, 0.1, 1.5])
@pytest.mark.parametrize("eps_smooth", [1e-7, 1e-4])
def test_smoothed_power_matches_masked_form(p, eps_smooth):
    d = np.abs(np.random.default_rng(1).normal(size=5_000))
    d[::7] = 0.0
    assert np.array_equal(_smoothed_power(d, p, eps_smooth),
                          _masked_power(d, p, eps_smooth))


def test_smoothed_power_drops_zero_summands_without_smoothing():
    d = np.array([0.0, 1.0, 4.0, 0.0])
    got = _smoothed_power(d, 1.0, 0.0)
    assert np.array_equal(got, [0.0, 1.0, 0.25, 0.0])
    assert np.array_equal(got, _masked_power(d, 1.0, 0.0))
    assert _smoothed_power(np.zeros(0), 1.0, 1e-7).shape == (0,)


@pytest.mark.parametrize("manifold", [Circle(), Sphere2()], ids=str)
def test_unmasked_dists_to_matches_all_true_mask(manifold):
    rng = np.random.default_rng(2)
    x, y = random_point(manifold, rng, 300), random_point(manifold, rng, 300)
    f, g = VertexFunction(manifold, x), VertexFunction(manifold, y)
    full = VertexFunction(manifold, x, np.ones(300, dtype=bool))
    assert np.array_equal(f.dists_to(g), full.dists_to(g))
    assert np.array_equal(g.dists_to(f), g.dists_to(full))


# ---------------------------------------------------------------------------
# whole solves and the injectivity check
# ---------------------------------------------------------------------------

def _phase_problem(masked):
    clean = gen_phase_image(12, 12)
    noisy = add_noise(clean, NoiseSpec("riemannian-gaussian", 0.6, rng_seed=3))
    mask = None
    if masked:
        mask = np.random.default_rng(4).random(noisy.n_vertices) > 0.2
    f0 = VertexFunction(noisy.manifold, noisy.values, mask)
    return knn_patch_graph(f0, (12, 12), k=6, s=2), f0


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_circle_solve_matches_reference_wrap(masked, monkeypatch):
    graph, f0 = _phase_problem(masked)
    cfg = SolverConfig(model="aniso", p=1.0, lam=0.05, dt=0.02,
                       max_iters=20, stop_tol=0.0, record_energy=True)
    fast, rep = solve(graph, f0, cfg)
    monkeypatch.setattr(mvgraph.manifolds, "wrap_angle",
                        circle_wrap.wrap_angle)
    ref, ref_rep = solve(graph, f0, cfg)
    assert rep.iterations == ref_rep.iterations == 20
    assert np.array_equal(fast.values, ref.values)
    assert rep.change_trace == ref_rep.change_trace
    assert rep.energy_trace == ref_rep.energy_trace
    assert rep.residual_max == ref_rep.residual_max


def test_check_injective_names_the_first_offender():
    bound = PI - ANTIPODAL_MARGIN
    c = Circle()
    d = np.array([0.1, np.nan, bound, PI, 0.2, PI])
    with pytest.raises(InjectivityError) as err:
        c._check_injective(d)
    assert err.value.vertex == 3
    assert "antipodal" in str(err.value)
    with pytest.raises(InjectivityError) as err:
        c._check_injective(np.array([[0.0, 0.1], [PI, 0.0]]))
    assert err.value.vertex == 2
    with pytest.raises(InjectivityError) as err:
        c._check_injective(np.float64(PI))
    assert err.value.vertex == 0


def test_check_injective_passes_nan_empty_and_in_range():
    c = Circle()
    c._check_injective(np.array([np.nan, 0.5, np.nan]))
    c._check_injective(np.array([np.nan]))
    c._check_injective(np.zeros(0))
    c._check_injective(np.array([PI - 2 * ANTIPODAL_MARGIN, 0.0]))
