"""Iteration oracles: frozen single-step values, fixed points, stopping
behaviour, masked handling, and the injectivity back-off."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (clustered_vertex_function, random_point,
                      random_symmetric_graph)
import mvgraph.calculus
import mvgraph.solvers
from mvgraph.calculus import energy_aniso, energy_iso, residual
from mvgraph.errors import ConfigError, DivergenceError, InjectivityError
from mvgraph.fields import VertexFunction
from mvgraph.graphs import WeightedGraph, grid_graph
from mvgraph.manifolds import Circle, Euclidean, Manifold, Spd, Sphere2
from mvgraph.solvers import (EXPLICIT_RESIDUAL_FACTOR, SolverConfig,
                             explicit_step, jacobi_step, solve)


def path_graph(weights):
    triples = []
    for i, w in enumerate(weights):
        triples += [(i, i + 1, w), (i + 1, i, w)]
    return WeightedGraph.from_edges(len(weights) + 1, triples, symmetric=True)


def cfg(**kw):
    base = dict(model="aniso", p=2.0, lam=0.0, dt=1e-1, max_iters=50,
                stop_tol=1e-7, scheme="explicit")
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

def test_config_rejections():
    with pytest.raises(ConfigError):
        cfg(p=0.0).validate()
    with pytest.raises(ConfigError):
        cfg(p=-1.0).validate()
    with pytest.raises(ConfigError):
        cfg(lam=-0.5).validate()
    with pytest.raises(ConfigError):
        cfg(model="fancy").validate()
    with pytest.raises(ConfigError):
        cfg(scheme="rk4").validate()
    with pytest.raises(ConfigError):
        cfg(dt=0.0).validate()
    with pytest.raises(ConfigError):
        cfg(dt=-1e-3).validate()
    with pytest.raises(ConfigError):
        cfg(max_iters=0).validate()
    with pytest.raises(ConfigError):
        cfg(stop_tol=-1e-3).validate()
    with pytest.raises(ConfigError):
        cfg(eps_smooth=-1e-9).validate()
    # the diagonal update divides by lam + sum of coefficients, so a
    # near-zero lam is refused for the jacobi scheme
    with pytest.raises(ConfigError):
        cfg(scheme="jacobi", lam=0.0).validate()
    with pytest.raises(ConfigError):
        cfg(scheme="jacobi", lam=1e-7).validate()
    cfg(scheme="jacobi", lam=1e-6).validate()
    cfg(model="iso", p=0.1, lam=3.0).validate()


def test_solve_validates_config():
    g = path_graph([1.0])
    f0 = VertexFunction(Euclidean(1), np.array([[0.0], [1.0]]))
    with pytest.raises(ConfigError):
        solve(g, f0, cfg(p=0.0))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["p", "lam", "dt", "eps_smooth", "stop_tol"])
def test_config_rejects_non_finite_fields(name, value):
    # NaN fails every sign rule silently (nan < 0 is False), and NaN
    # smoothing would zero every edge coefficient
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        cfg(**{name: value}).validate()


@pytest.mark.parametrize("value", [2.5, np.nan, np.inf, -np.inf])
def test_config_rejects_fractional_max_iters(value):
    # range() raised a raw TypeError inside solve for these
    with pytest.raises(ConfigError, match="max_iters must be a whole number"):
        cfg(max_iters=value).validate()


def test_config_accepts_a_whole_float_max_iters():
    g = path_graph([1.0])
    f0 = VertexFunction(Euclidean(1), np.array([[0.0], [1.0]]))
    _, rep = solve(g, f0, cfg(max_iters=3.0, stop_tol=0.0))
    assert rep.iterations == 3


# ---------------------------------------------------------------------------
# frozen single steps
# ---------------------------------------------------------------------------

def test_explicit_step_zero_dt_is_identity():
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0])
    f = VertexFunction(e1, np.array([[0.0], [1.0], [3.0]]))
    out = explicit_step(g, f, f, cfg(dt=0.0, lam=0.0))
    np.testing.assert_array_equal(out.values, f.values)

    c = Circle()
    fc = VertexFunction(c, np.array([[0.1], [2.0], [-1.0]]))
    out = explicit_step(g, fc, fc, cfg(dt=0.0, lam=0.0))
    np.testing.assert_array_equal(out.values, fc.values)


def test_explicit_heat_step_frozen():
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0])
    f = VertexFunction(e1, np.array([[0.0], [1.0], [3.0]]))
    out = explicit_step(g, f, f, cfg(dt=0.1, lam=0.0))
    np.testing.assert_allclose(out.values, [[0.1], [1.1], [2.8]], atol=1e-14)


def test_explicit_step_constant_is_fixed():
    s = Sphere2()
    g = path_graph([1.0, 1.0])
    p = np.array([0.0, 0.6, 0.8])
    f = VertexFunction(s, np.tile(p, (3, 1)))
    out = explicit_step(g, f, f, cfg(dt=0.1, lam=3.0))
    np.testing.assert_allclose(out.values, f.values, atol=1e-15)


def test_explicit_step_moves_toward_data():
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [0.0]]))
    f = VertexFunction(c, np.array([[1.0], [1.0]]))
    out = explicit_step(g, f, f0, cfg(dt=0.1, lam=2.0))
    # smoothing term vanishes (constant), data term pulls by lam*(0-1)
    np.testing.assert_allclose(out.values, [[0.8], [0.8]], atol=1e-14)


def test_jacobi_single_edge_frozen():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [2.0]]))
    out = jacobi_step(g, f0, f0, cfg(scheme="jacobi", lam=1.0))
    np.testing.assert_allclose(out.values, [[1.0], [1.0]], atol=1e-14)


def test_jacobi_is_simultaneous(rng):
    # each vertex update must read only the previous sweep's values
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0, 1.0])
    vals = rng.normal(size=(4, 1))
    f0 = VertexFunction(e1, vals.copy())
    out = jacobi_step(g, f0, f0, cfg(scheme="jacobi", lam=2.0))
    for u in range(4):
        nbrs = g.dst[g.out_edges(u)]
        expect = (np.sum(vals[nbrs] - vals[u]) + 2.0 * 0.0) / (2.0 + len(nbrs))
        assert out.values[u, 0] == pytest.approx(vals[u, 0] + expect, abs=1e-14)


# ---------------------------------------------------------------------------
# fixed points and convergence
# ---------------------------------------------------------------------------

def test_constant_field_is_fixed_point_of_flow():
    s = Sphere2()
    g = path_graph([1.0, 1.0])
    p = np.array([0.0, 0.6, 0.8])
    f = VertexFunction(s, np.tile(p, (3, 1)))
    out, rep = solve(g, f, cfg(lam=0.0, max_iters=5, stop_tol=0.0))
    np.testing.assert_allclose(out.values, f.values, atol=1e-15)
    assert rep.final_change == pytest.approx(0.0, abs=1e-15)


def test_two_vertex_minimizer_both_schemes():
    # lam=1, single unit edge, f0=(0,2): stationarity gives (2/3, 4/3)
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [2.0]]))
    target = np.array([[2.0 / 3.0], [4.0 / 3.0]])

    fj, rep_j = solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=200,
                                 stop_tol=1e-13))
    assert rep_j.reason == "converged"
    np.testing.assert_allclose(fj.values, target, atol=1e-10)
    assert rep_j.residual_max < 1e-9

    fe, _ = solve(g, f0, cfg(scheme="explicit", lam=1.0, dt=0.3,
                             max_iters=500, stop_tol=1e-13))
    np.testing.assert_allclose(fe.values, target, atol=1e-10)


def test_huge_tolerance_stops_after_one_sweep():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [2.0]]))
    _, rep = solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=50,
                              stop_tol=1e9))
    assert rep.iterations == 1
    assert rep.reason == "converged"
    assert len(rep.change_trace) == 1


@pytest.mark.parametrize("stop_tol, sweeps", [(1e-3, 1), (1e-4, 6)])
def test_explicit_spike_with_small_mean_change_is_stalled(stop_tol, sweeps):
    # one vertex at 5 among 4,096 at 0: the mean change is a 4,096th of the
    # spike's step, so it meets stop_tol while max ||R|| is 14 (1e-3) or
    # 2.9 (1e-4), far from a fixed point
    g = grid_graph(64, 64)
    vals = np.zeros((4096, 1))
    vals[2080] = 5.0
    f0 = VertexFunction(Euclidean(1), vals)
    _, rep = solve(g, f0, cfg(lam=1.0, dt=0.05, stop_tol=stop_tol,
                              max_iters=10_000))
    assert rep.iterations == sweeps
    assert rep.residual_max * 0.05 > EXPLICIT_RESIDUAL_FACTOR * stop_tol
    assert rep.reason == "stalled"


def test_small_change_with_large_residual_is_stalled():
    # aniso p=1, lam=1 on a noisy 8x8 image: the damping lam + sum b grows
    # like 1/eps_smooth on collapsed patches, so the mean change drops
    # below stop_tol while the residual is still O(1)
    rng = np.random.default_rng(880)
    f0 = clustered_vertex_function(Euclidean(1), rng, 64, spread=0.5)
    g = grid_graph(8, 8)
    out, rep = solve(g, f0, cfg(model="aniso", p=1.0, lam=1.0,
                                scheme="jacobi", stop_tol=1e-6,
                                max_iters=4000))
    assert rep.reason == "stalled"
    assert rep.iterations == 303
    assert rep.change_trace[-1] < 1e-6
    assert min(rep.change_trace[:-1]) >= 1e-6
    assert rep.residual_max > 1e3 * 1.0 * 1e-6
    # the run ends at the sweep where the change test first held
    same, rep_same = solve(g, f0, cfg(model="aniso", p=1.0, lam=1.0,
                                      scheme="jacobi", stop_tol=0.0,
                                      max_iters=rep.iterations))
    np.testing.assert_array_equal(out.values, same.values)
    assert rep_same.reason == "max_iters"
    assert rep_same.residual_max == rep.residual_max


def test_max_iters_reason():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [2.0]]))
    _, rep = solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=3,
                              stop_tol=0.0))
    assert rep.iterations == 3
    assert rep.reason == "max_iters"
    assert len(rep.change_trace) == 3


def test_large_lam_pins_to_data(rng):
    c = Circle()
    g = random_symmetric_graph(rng, 10)
    f0 = clustered_vertex_function(c, rng, 10, spread=0.5)
    out, _ = solve(g, f0, cfg(scheme="jacobi", lam=1e8, max_iters=60,
                              stop_tol=1e-14))
    np.testing.assert_allclose(out.values, f0.values, atol=1e-6)


def test_heat_flow_reaches_consensus_at_mean(rng):
    e1 = Euclidean(1)
    g = grid_graph(5, 5)
    f0 = VertexFunction(e1, rng.normal(size=(25, 1)))
    mean0 = f0.values.mean()
    out, _ = solve(g, f0, cfg(lam=0.0, dt=0.1, max_iters=500, stop_tol=0.0))
    assert out.values.mean() == pytest.approx(mean0, abs=1e-10)
    assert np.max(np.abs(out.values - mean0)) < 1e-3


def test_energy_descends_per_explicit_step(rng):
    # dt=1e-4, p=2, lam=1: the recorded energy never increases over
    # 1000 steps (within 1e-12 slack)
    c = Circle()
    g = random_symmetric_graph(rng, 20)
    f0 = clustered_vertex_function(c, rng, 20, spread=0.8)
    _, rep = solve(g, f0, cfg(lam=1.0, dt=1e-4, max_iters=1000, stop_tol=0.0,
                              record_energy=True))
    tr = np.asarray(rep.energy_trace)
    assert tr.shape == (rep.iterations + 1,)
    assert np.all(np.diff(tr) <= 1e-12)
    assert np.all(np.isfinite(tr))


def test_energy_trace_absent_by_default():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [2.0]]))
    _, rep = solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=3,
                              stop_tol=0.0))
    assert rep.energy_trace is None


def test_init_argument():
    e1 = Euclidean(1)
    g = path_graph([1.0])
    f0 = VertexFunction(e1, np.array([[0.0], [2.0]]))
    init = VertexFunction(e1, np.array([[5.0], [5.0]]))
    out, _ = solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=1,
                              stop_tol=0.0), init=init)
    # one sweep from init, not from f0
    np.testing.assert_allclose(
        out.values,
        [[(5.0 - 5.0 + 1.0 * (0.0 - 5.0)) / 2.0 + 5.0],
         [(5.0 - 5.0 + 1.0 * (2.0 - 5.0)) / 2.0 + 5.0]], atol=1e-13)


def test_solve_does_not_mutate_inputs(rng):
    c = Circle()
    g = random_symmetric_graph(rng, 8)
    f0 = clustered_vertex_function(c, rng, 8, spread=0.5)
    before = f0.values.copy()
    solve(g, f0, cfg(lam=1.0, dt=0.05, max_iters=20))
    np.testing.assert_array_equal(f0.values, before)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

def test_masked_vertices_frozen_bitwise():
    c = Circle()
    g = path_graph([1.0, 1.0, 1.0])
    vals = np.array([[0.1], [2.7], [0.3], [0.5]])
    mask = np.array([True, False, True, True])
    f0 = VertexFunction(c, vals, mask)
    out, _ = solve(g, f0, cfg(lam=0.5, dt=0.1, max_iters=30, stop_tol=0.0))
    assert out.values[1, 0] == vals[1, 0]
    assert out.mask is not None and not out.mask[1]
    # active vertices did move
    assert abs(out.values[2, 0] - vals[2, 0]) > 1e-6


@pytest.mark.parametrize("model", ["aniso", "iso"])
def test_masked_neighbour_adds_no_damping(model):
    # the edge (2, 3) to the masked vertex 3 is inactive: its coefficient
    # must not enter vertex 2's jacobi damping lam + sum b (at p=1 it
    # would be ~1/eps_smooth and freeze vertex 2 at its datum)
    e1 = Euclidean(1)
    g = path_graph([1.0, 1.0, 1.0])
    vals = np.array([[0.0], [1.0], [3.0], [9.0]])
    f0 = VertexFunction(e1, vals, np.array([True, True, True, False]))
    out, rep = solve(g, f0, cfg(model=model, p=1.0, lam=1.0,
                                scheme="jacobi", max_iters=2000,
                                stop_tol=0.0))
    assert out.values[3, 0] == 9.0
    if model == "aniso":
        # stationarity at vertex 2 with its single active unit edge:
        # lam (3 - f2) = 1 once vertex 1 lies below it
        assert out.values[2, 0] == pytest.approx(2.0, abs=1e-6)
        assert rep.residual_max < 1e-3
    else:
        assert abs(out.values[2, 0] - 3.0) > 0.5
        assert rep.residual_max < 1e-10


def test_masked_spd_zero_placeholder():
    m = Spd(2)
    g = path_graph([1.0, 1.0])
    vals = np.stack([np.eye(2), np.zeros((2, 2)), 3.0 * np.eye(2)])
    mask = np.array([True, False, True])
    f0 = VertexFunction(m, vals, mask)
    out, _ = solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=10,
                              stop_tol=0.0))
    assert np.all(out.values[1] == 0.0)
    assert np.all(np.isfinite(out.values))


# ---------------------------------------------------------------------------
# determinism and the injectivity back-off
# ---------------------------------------------------------------------------

def test_solve_deterministic(rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 12)
    f0 = clustered_vertex_function(s, rng, 12, spread=0.5)
    c1 = cfg(lam=2.0, dt=0.05, max_iters=40, stop_tol=0.0)
    c2 = cfg(lam=2.0, dt=0.05, max_iters=40, stop_tol=0.0)
    f1, r1 = solve(g, f0, c1)
    f2, r2 = solve(g, f0, c2)
    np.testing.assert_array_equal(f1.values, f2.values)
    assert r1.change_trace == r2.change_trace


def test_injectivity_violation_raises_without_backoff():
    # one explicit sweep lands the two values exactly antipodal
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [2.0]]))
    bad_dt = (2.0 + np.pi) / 4.0
    with pytest.raises(InjectivityError):
        solve(g, f0, cfg(lam=0.0, dt=bad_dt, max_iters=3, stop_tol=0.0))


def test_injectivity_backoff_halves_dt():
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [2.0]]))
    bad_dt = (2.0 + np.pi) / 4.0
    f1, rep1 = solve(g, f0, cfg(lam=0.0, dt=bad_dt, max_iters=1, stop_tol=0.0,
                                halve_dt_on_injectivity=True))
    assert rep1.iterations == 1
    # the sweep was retried at dt/2: gap 2 shrinks to 2 - 4*(dt/2)
    gap = 2.0 - 2.0 * bad_dt
    np.testing.assert_allclose(
        float(f1.values[1, 0] - f1.values[0, 0]) % (2 * np.pi),
        gap % (2 * np.pi), atol=1e-10)
    # later sweeps go back to the configured dt and keep running
    f3, rep3 = solve(g, f0, cfg(lam=0.0, dt=bad_dt, max_iters=3, stop_tol=0.0,
                                halve_dt_on_injectivity=True))
    assert rep3.iterations == 3
    assert np.all(np.isfinite(f3.values))


def test_explicit_step_raises_on_injectivity_violation():
    # the single step of the instance above, outside solve
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [2.0]]))
    bad_dt = (2.0 + np.pi) / 4.0
    with pytest.raises(InjectivityError):
        explicit_step(g, f0, f0, cfg(lam=0.0, dt=bad_dt))


def test_explicit_step_never_halves_dt():
    # the instance above: a public step raises even when the config
    # allows solve to halve dt
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [2.0]]))
    bad_dt = (2.0 + np.pi) / 4.0
    with pytest.raises(InjectivityError):
        explicit_step(g, f0, f0, cfg(lam=0.0, dt=bad_dt,
                                     halve_dt_on_injectivity=True))


def test_antipodal_datum_is_never_halved_away():
    # the first sweep overshoots both vertices from 3 to pi, antipodal to
    # their datum 0: the fidelity log of that iterate is undefined, and
    # halving dt would only hide it
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.zeros((2, 1)))
    init = VertexFunction(c, np.full((2, 1), 3.0))
    with pytest.raises(InjectivityError,
                       match="fidelity term undefined at vertex 0"):
        solve(g, f0, cfg(lam=1.0, dt=(3.0 + np.pi) / 3.0, max_iters=3,
                         stop_tol=0.0, halve_dt_on_injectivity=True),
              init=init)


def test_halving_retry_reuses_the_sweeps_residual(monkeypatch):
    # the dt_trace instance below, one sweep retried once at dt/2
    calls = []
    residual_ = mvgraph.solvers._residual

    def counting(*args):
        calls.append(args)
        return residual_(*args)

    monkeypatch.setattr(mvgraph.solvers, "_residual", counting)
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [2.0]]))
    bad_dt = (2.0 + np.pi) / 4.0
    _, rep = solve(g, f0, cfg(lam=0.0, dt=bad_dt, max_iters=1, stop_tol=0.0,
                              halve_dt_on_injectivity=True))
    assert rep.dt_trace == [bad_dt / 2]
    # the sweep's R and the residual of the returned iterate
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# one edge pass per iterate
# ---------------------------------------------------------------------------

def test_solve_makes_one_edge_pass_per_iterate(rng):
    rows = []

    class CountingSphere2(Sphere2):
        def _log_parts(self, x, y):
            rows.append(x.shape[-1])
            return super()._log_parts(x, y)

        def dist(self, x, y):
            rows.append(len(x))
            return super().dist(x, y)

        def _dist_rows(self, x, y):
            rows.append(x.shape[-1])
            return super()._dist_rows(x, y)

    s = CountingSphere2()
    g = grid_graph(6, 5)
    f0 = clustered_vertex_function(s, rng, g.n_vertices, spread=0.5)
    k = 7
    rows.clear()
    _, rep = solve(g, f0, cfg(lam=0.0, dt=0.05, max_iters=k, stop_tol=0.0))
    assert rep.iterations == k
    # edge logs of the start and of each sweep's result, each reverse pair
    # evaluated once; the change of a sweep is the length of its steps,
    # which takes no distance
    assert rows == [g.n_edges // 2] * (k + 1)


def test_explicit_step_on_flat_data_makes_one_edge_pass(rng, monkeypatch):
    calls = []
    edge_logs = mvgraph.calculus._edge_logs

    def counting(graph, f):
        calls.append(f)
        return edge_logs(graph, f)

    # the iterate's pass calls it from calculus, the check of a new
    # iterate from solvers
    monkeypatch.setattr(mvgraph.calculus, "_edge_logs", counting)
    monkeypatch.setattr(mvgraph.solvers, "_edge_logs", counting)
    g = grid_graph(4, 4)
    f0 = VertexFunction(Euclidean(2), rng.normal(size=(16, 2)))
    explicit_step(g, f0, f0, cfg(lam=0.5))
    assert len(calls) == 1


def test_spd_sweep_decomposes_each_matrix_once(rng, monkeypatch):
    matrices = []
    eigh_sym = mvgraph.manifolds._eigh_sym

    def counting(c):
        matrices.append(int(np.prod(np.shape(c)[1:])))
        return eigh_sym(c)

    monkeypatch.setattr(mvgraph.manifolds, "_eigh_sym", counting)
    m = Spd(3)
    g = random_symmetric_graph(rng, 40)
    f0 = VertexFunction(m, random_point(m, rng, 40))
    f = VertexFunction(m, random_point(m, rng, 40))
    n, half = g.n_vertices, g.n_edges // 2
    # a sweep with its edge pass: the roots x^{+-1/2}, the mid matrices of
    # the edges and of the fidelity term, and the exp
    sweep = n + half + 2 * n
    for step in (explicit_step, jacobi_step):
        matrices.clear()
        step(g, f, f0, cfg(lam=1.0, dt=0.1))
        assert matrices and sum(matrices) <= sweep
    for k in (1, 3):
        matrices.clear()
        solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=k,
                         stop_tol=0.0), init=f)
        # the start iterate's pass takes no exp, and the norm of the final
        # residual reads the roots the returned iterate took for its pass
        assert sum(matrices) <= (k + 1) * sweep - n


@pytest.mark.parametrize("manifold", [Sphere2(), Spd(3)], ids=str)
def test_solve_checks_shapes_once(manifold, rng, monkeypatch):
    calls = []
    check = Manifold._check_shape

    def counting(self, arr, *args):
        calls.append(np.shape(arr))
        return check(self, arr, *args)

    monkeypatch.setattr(Manifold, "_check_shape", counting)
    g = random_symmetric_graph(rng, 20)
    f0 = clustered_vertex_function(manifold, rng, 20, spread=0.5)
    counts = []
    for k in (1, 20):
        calls.clear()
        solve(g, f0, cfg(scheme="jacobi", lam=1.0, max_iters=k,
                         stop_tol=0.0))
        counts.append(len(calls))
    # the data's rows serve as the start iterate: one check, not per sweep
    assert counts == [1, 1]


# ---------------------------------------------------------------------------
# the row layout of a solve
# ---------------------------------------------------------------------------

def _layout_case(manifold, masked, rng, n=16):
    g = random_symmetric_graph(rng, n)
    mask = np.arange(n) % 5 != 2 if masked else None
    f0 = clustered_vertex_function(manifold, rng, n, spread=0.6, mask=mask)
    init = clustered_vertex_function(manifold, rng, n, spread=0.6, mask=mask)
    return g, f0, init


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("manifold", [Euclidean(3), Circle(), Sphere2(),
                                      Spd(3)], ids=lambda m: m.kind)
@pytest.mark.parametrize("scheme,lam", [("explicit", 0.0),
                                        ("explicit", 0.8), ("jacobi", 0.8)])
def test_solve_matches_chained_public_steps(manifold, masked, scheme, lam,
                                            rng):
    # a public step converts to rows and back on every call, solve once:
    # the conversions are exact, so the iterates agree bit for bit
    g, f0, init = _layout_case(manifold, masked, rng)
    c = cfg(scheme=scheme, p=1.0, lam=lam, dt=0.05, max_iters=5,
            stop_tol=0.0)
    step = jacobi_step if scheme == "jacobi" else explicit_step
    f = init
    for _ in range(c.max_iters):
        f = step(g, f, f0, c)
    out, rep = solve(g, f0, c, init=init)
    assert rep.iterations == c.max_iters
    assert np.array_equal(out.values, f.values)


@pytest.mark.parametrize("manifold,placeholder", [
    (Sphere2(), np.nan), (Spd(3), 0.0), (Spd(3), "asymmetric")],
    ids=["sphere2-nan", "spd-zero", "spd-asymmetric"])
def test_masked_solve_returns_inactive_values_bytewise(manifold, placeholder,
                                                       rng):
    g, f0, _ = _layout_case(manifold, True, rng)
    off = ~f0.mask
    if placeholder == "asymmetric":
        # no Spd point: its component rows would make it symmetric
        f0.values[off] = np.arange(9.0).reshape(3, 3) - 4.0
    else:
        f0.values[off] = placeholder
    before = f0.values.copy()
    for scheme in ("explicit", "jacobi"):
        out, _ = solve(g, f0, cfg(scheme=scheme, p=1.0, lam=0.8, dt=0.05,
                                  max_iters=3, stop_tol=0.0))
        assert out.values[off].tobytes() == before[off].tobytes()
        assert np.all(np.isfinite(out.values[f0.mask]))
        step = jacobi_step if scheme == "jacobi" else explicit_step
        f = step(g, f0, f0, cfg(lam=0.8, dt=0.05))
        assert f.values[off].tobytes() == before[off].tobytes()
    assert f0.values.tobytes() == before.tobytes()


@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
@pytest.mark.parametrize("manifold", [Euclidean(3), Circle(), Sphere2(),
                                      Spd(3)], ids=lambda m: m.kind)
def test_change_is_the_distance_between_iterates(manifold, masked, rng):
    # weak edges and dt * lam = 1.9: each step overshoots the datum by 90%,
    # so on the circle and the sphere some steps are longer than pi and
    # their length must wrap; the masked SPD vertex holds a zero placeholder
    n = 12
    g = random_symmetric_graph(rng, n)
    g = WeightedGraph(n, g.src, g.dst, 1e-3 * g.weight, symmetric=True)
    mask = np.arange(n) % 5 != 3 if masked else None
    vals, start = random_point(manifold, rng, n), random_point(manifold, rng, n)
    if masked and isinstance(manifold, Spd):
        vals[~mask] = start[~mask] = 0.0
    f0 = VertexFunction(manifold, vals, mask)
    init = VertexFunction(manifold, start, mask)
    c = cfg(lam=1.0, dt=1.9, max_iters=4, stop_tol=0.0,
            halve_dt_on_injectivity=True)
    _, rep = solve(g, f0, c, init=init)
    iterates = [init] + [solve(g, f0, replace(c, max_iters=k), init=init)[0]
                         for k in range(1, c.max_iters + 1)]
    longest = 0.0
    for k in range(c.max_iters):
        fk, fnext = iterates[k], iterates[k + 1]
        assert rep.change_trace[k] == pytest.approx(
            np.mean(fk.dists_to(fnext)), rel=1e-12)
        R = residual(g, fk, f0, c.lam, c.p, c.model, c.eps_smooth)
        longest = max(longest, rep.dt_trace[k] * R.max_norm())
    if manifold.injectivity_radius == np.pi:
        assert longest > np.pi


@pytest.mark.parametrize("model,scheme,masked", [
    ("aniso", "explicit", False), ("iso", "explicit", False),
    ("aniso", "jacobi", False), ("iso", "jacobi", False),
    ("iso", "jacobi", True)])
def test_residual_max_is_the_residual_of_the_returned_iterate(
        model, scheme, masked, rng):
    s = Sphere2()
    g = random_symmetric_graph(rng, 12)
    mask = np.arange(12) % 5 != 3 if masked else None
    f0 = clustered_vertex_function(s, rng, 12, spread=0.8, mask=mask)
    c = cfg(model=model, scheme=scheme, p=1.0, lam=0.7, dt=0.02,
            max_iters=8, stop_tol=0.0)
    f, rep = solve(g, f0, c)
    assert rep.residual_max == residual(g, f, f0, c.lam, c.p, model,
                                        c.eps_smooth).max_norm()


@pytest.mark.parametrize("manifold,model,masked", [
    (Sphere2(), "aniso", False), (Sphere2(), "iso", False),
    (Circle(), "aniso", False), (Circle(), "iso", False),
    (Sphere2(), "iso", True)])
def test_energy_trace_matches_energy_of_iterates(manifold, model, masked,
                                                 rng):
    g = random_symmetric_graph(rng, 12)
    mask = np.arange(12) % 5 != 3 if masked else None
    f0 = clustered_vertex_function(manifold, rng, 12, spread=0.8, mask=mask)
    energy = energy_aniso if model == "aniso" else energy_iso
    c = cfg(model=model, p=1.0, lam=0.7, dt=0.02, stop_tol=0.0,
            record_energy=True)
    k = 6
    _, rep = solve(g, f0, replace(c, max_iters=k))
    assert len(rep.energy_trace) == k + 1
    assert rep.energy_trace[0] == pytest.approx(
        energy(g, f0, f0, 0.7, 1.0), rel=1e-12)
    for i in range(1, k + 1):
        fi, _ = solve(g, f0, replace(c, max_iters=i))
        assert rep.energy_trace[i] == pytest.approx(
            energy(g, fi, f0, 0.7, 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("manifold,dt", [(Euclidean(2), 10.0), (Spd(3), 50.0)],
                         ids=lambda x: getattr(x, "kind", x))
def test_diverging_run_raises_divergence_error(manifold, dt):
    # dt far above the grid's stability bound: the Euclidean iterate
    # overflows, and the SPD eigensolver fails on the second sweep
    g = grid_graph(8, 8)
    f0 = VertexFunction(manifold,
                        random_point(manifold, np.random.default_rng(0), 64))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                  match="sweep"):
        solve(g, f0, cfg(lam=0.0, dt=dt, max_iters=1000))


def test_direct_steps_raise_divergence_error():
    # the instance above, stepped without solve: the first iterate has
    # entries near 1e258 and condition numbers near 4e18, so whether the
    # second step ends in a failing eigensolver or in non-finite matrices
    # is down to rounding; either is a divergence
    g = grid_graph(8, 8)
    m = Spd(3)
    f0 = VertexFunction(m, random_point(m, np.random.default_rng(0), 64))
    with np.errstate(all="ignore"):
        f1 = explicit_step(g, f0, f0, cfg(lam=0.0, dt=50.0))
        with pytest.raises(DivergenceError, match="step diverged"):
            explicit_step(g, f1, f0, cfg(lam=0.0, dt=50.0))
        # two well-conditioned points and a step whose matrix exponential
        # overflows: the new iterate is not finite by construction
        pair = VertexFunction(m, random_point(m, np.random.default_rng(1), 2))
        assert np.all(np.linalg.cond(pair.values) < 1e2)
        with pytest.raises(DivergenceError, match="not finite"):
            explicit_step(path_graph([1.0]), pair, pair, cfg(lam=0.0, dt=1e4))
        # a failing eigensolver is re-raised as a divergence too
        bad = VertexFunction(m, np.full((64, 3, 3), np.nan), validate=False)
        for step in (explicit_step, jacobi_step):
            with pytest.raises(DivergenceError, match="step") as info:
                step(g, bad, f0, cfg(lam=1.0, dt=1e-3))
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_solve_and_explicit_step_report_a_non_finite_iterate_alike():
    # the well-conditioned SPD pair above: the exp of the first step
    # overflows, which both paths report before any further linear algebra
    m = Spd(3)
    pair = VertexFunction(m, random_point(m, np.random.default_rng(1), 2))
    c = cfg(lam=0.0, dt=1e4, max_iters=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError,
                           match="sweep 1 diverged: its iterate is not finite"):
            solve(path_graph([1.0]), pair, c)
        with pytest.raises(DivergenceError, match="explicit step diverged: "
                                                  "its iterate is not finite"):
            explicit_step(path_graph([1.0]), pair, pair, c)
    assert [str(w.message) for w in caught] == []


# ---------------------------------------------------------------------------
# dt per sweep
# ---------------------------------------------------------------------------

def test_dt_trace_records_the_dt_of_each_sweep():
    c = Circle()
    g = path_graph([1.0])
    f0 = VertexFunction(c, np.array([[0.0], [2.0]]))
    bad_dt = (2.0 + np.pi) / 4.0
    _, rep = solve(g, f0, cfg(lam=0.0, dt=bad_dt, max_iters=3, stop_tol=0.0,
                              halve_dt_on_injectivity=True))
    # the first sweep is retried once at dt/2; later sweeps keep bad_dt
    assert rep.dt_trace == [bad_dt / 2, bad_dt, bad_dt]
    _, rep = solve(g, f0, cfg(lam=0.0, dt=0.1, max_iters=4, stop_tol=0.0))
    assert rep.dt_trace == [0.1] * 4


@pytest.mark.parametrize("manifold", [Sphere2(), Circle(), Spd(3)])
@pytest.mark.parametrize("scheme", ["jacobi", "explicit"])
def test_solve_on_edgeless_graph_returns_data(manifold, scheme, rng):
    # the edge sums used to fail reshaping an empty array into (0, -1)
    g = WeightedGraph(4, [], [], [], symmetric=True)
    f0 = VertexFunction(manifold, random_point(manifold, rng, 4))
    f, report = solve(g, f0, cfg(scheme=scheme, lam=1.0, dt=0.5,
                                 record_energy=True))
    assert report.reason == "converged" and report.iterations == 1
    np.testing.assert_allclose(f.values, f0.values, atol=1e-14)
    assert report.residual_max <= 1e-13
    # from another start, jacobi lands on the data in one step
    init = VertexFunction(manifold, random_point(manifold, rng, 4))
    if scheme == "jacobi":
        f, report = solve(g, f0, cfg(scheme=scheme, lam=1.0), init=init)
        np.testing.assert_allclose(f.values, f0.values, atol=1e-12)
