"""End-to-end command line tests, run in-process via cli.main."""

import warnings

import numpy as np
import pytest

from mvgraph.cli import main
from mvgraph.fields import VertexFunction
from mvgraph.graphs import load_edges_tsv
from mvgraph.manifolds import Circle, Euclidean
from mvgraph.mvdio import load_csv, load_mvd, load_positions_tsv, save_mvd
from mvgraph.synthetics import fibonacci_sphere, mse

from conftest import clustered_vertex_function


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_phase(tmp_path):
    out = tmp_path / "p.mvd"
    assert run("generate", "--kind", "phase", "--shape", 16, 16,
               "--out", out) == 0
    got = load_mvd(out)
    assert got.function.manifold == Circle()
    assert got.shape == (16, 16)


def test_generate_s2whirl_units(tmp_path):
    out = tmp_path / "w.mvd"
    assert run("generate", "--kind", "s2whirl", "--shape", 8, 8,
               "--out", out) == 0
    f = load_mvd(out).function
    assert np.allclose(np.linalg.norm(f.values, axis=1), 1.0, atol=1e-12)


def test_generate_spd_sphere_writes_positions(tmp_path):
    out = tmp_path / "clean.mvd"
    assert run("generate", "--kind", "spd-sphere", "--shape", 48,
               "--out", out) == 0
    got = load_mvd(out)
    assert got.function.manifold.kind == "spd"
    assert got.shape == (48,)
    pos = load_positions_tsv(tmp_path / "clean.positions.tsv")
    assert pos.shape == (48, 3)

    explicit = tmp_path / "pos.tsv"
    assert run("generate", "--kind", "spd-sphere", "--shape", 48,
               "--out", out, "--positions", explicit) == 0
    assert np.array_equal(load_positions_tsv(explicit), pos)


@pytest.mark.parametrize("argv", [
    ("--kind", "phase", "--shape", "16"),            # wrong arity
    ("--kind", "phase", "--shape", "4", "4"),        # too small
    ("--kind", "spd-sphere", "--shape", "48", "48"),
    ("--kind", "spd-sphere", "--shape", "5"),
])
def test_generate_bad_shape_exits_2(tmp_path, argv):
    assert run("generate", *argv, "--out", tmp_path / "x.mvd") == 2


def test_generate_positions_only_for_spd_sphere(tmp_path):
    assert run("generate", "--kind", "phase", "--shape", 16, 16,
               "--out", tmp_path / "x.mvd",
               "--positions", tmp_path / "p.tsv") == 2


# ---------------------------------------------------------------------------
# noise + eval
# ---------------------------------------------------------------------------

def test_noise_sigma_zero_is_byte_identical(tmp_path):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 16, 16, "--out", clean)
    out = tmp_path / "n.mvd"
    assert run("noise", "--in", clean, "--sigma", 0, "--seed", 3,
               "--out", out) == 0
    assert out.read_bytes() == clean.read_bytes()


def test_noise_deterministic_and_calibrated(tmp_path, capsys):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 64, 64, "--out", clean)
    n1, n2 = tmp_path / "n1.mvd", tmp_path / "n2.mvd"
    run("noise", "--in", clean, "--sigma", 0.3, "--seed", 7, "--out", n1)
    run("noise", "--in", clean, "--sigma", 0.3, "--seed", 7, "--out", n2)
    assert n1.read_bytes() == n2.read_bytes()

    assert run("eval", "--a", n1, "--b", clean) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("mse=")
    assert float(line[4:]) == pytest.approx(0.09, rel=0.1)


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_noise_non_finite_sigma_exits_2(tmp_path, sigma):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 8, 8, "--out", clean)
    out = tmp_path / "n.mvd"
    assert run("noise", "--in", clean, "--sigma", sigma, "--seed", 3,
               "--out", out) == 2
    assert not out.exists()


def test_noise_negative_seed_exits_2(tmp_path, capsys):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 8, 8, "--out", clean)
    out = tmp_path / "n.mvd"
    capsys.readouterr()
    assert run("noise", "--in", clean, "--sigma", 0.1, "--seed", -1,
               "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: rng_seed")
    assert not out.exists()


def test_eval_self_is_zero(tmp_path, capsys):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 16, 16, "--out", clean)
    assert run("eval", "--a", clean, "--b", clean) == 0
    assert capsys.readouterr().out.strip() == "mse=0.0"


def test_eval_mismatched_inputs_exit_3(tmp_path):
    a, b = tmp_path / "a.mvd", tmp_path / "b.mvd"
    run("generate", "--kind", "phase", "--shape", 16, 16, "--out", a)
    rng = np.random.default_rng(0)
    save_mvd(b, VertexFunction(Euclidean(2), rng.normal(size=(256, 2))))
    assert run("eval", "--a", a, "--b", b) == 3


def test_missing_file_exits_3(tmp_path):
    assert run("eval", "--a", tmp_path / "no.mvd", "--b", tmp_path / "no.mvd") == 3


# ---------------------------------------------------------------------------
# build-graph
# ---------------------------------------------------------------------------

def test_build_graph_grid4_3x3(tmp_path):
    f = VertexFunction(Euclidean(1), np.arange(9.0)[:, None])
    src = tmp_path / "f.mvd"
    save_mvd(src, f, shape=(3, 3))
    out = tmp_path / "g.tsv"
    assert run("build-graph", "--kind", "grid4", "--in", src, "--out", out) == 0
    g = load_edges_tsv(out)
    assert g.n_edges == 24
    assert g.symmetric


def test_build_graph_grid4_needs_2d_shape(tmp_path):
    f = VertexFunction(Euclidean(1), np.arange(9.0)[:, None])
    src = tmp_path / "f.mvd"
    save_mvd(src, f)                      # flat shape (9,)
    assert run("build-graph", "--kind", "grid4", "--in", src,
               "--out", tmp_path / "g.tsv") == 2


def test_build_graph_knn_patch_outdegree(tmp_path):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 8, 8, "--out", clean)
    out = tmp_path / "g.tsv"
    assert run("build-graph", "--kind", "knn-patch", "--k", 3, "--patch", 1,
               "--in", clean, "--out", out) == 0
    g = load_edges_tsv(out)
    deg = np.bincount(g.src, minlength=64)
    assert deg.min() >= 3


def test_build_graph_eps_ball_symmetric(tmp_path):
    pos = fibonacci_sphere(300)
    pf = tmp_path / "pos.tsv"
    from mvgraph.mvdio import save_positions_tsv
    save_positions_tsv(pf, pos)
    f = clustered_vertex_function(Circle(), np.random.default_rng(1), 300)
    src = tmp_path / "f.mvd"
    save_mvd(src, f)
    out = tmp_path / "g.tsv"
    assert run("build-graph", "--kind", "eps-ball", "--eps", np.pi / 12,
               "--positions", pf, "--in", src, "--out", out) == 0
    assert "symmetric=1" in out.read_text().splitlines()[0]


@pytest.mark.parametrize("argv", [
    ("--kind", "knn-patch", "--k", 3, "--patch", -1),
    ("--kind", "eps-ball", "--eps", "nan"),
])
def test_build_graph_bad_geometry_exits_3(tmp_path, argv):
    pos = tmp_path / "pos.tsv"
    from mvgraph.mvdio import save_positions_tsv
    save_positions_tsv(pos, fibonacci_sphere(64))
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 8, 8, "--out", clean)
    out = tmp_path / "g.tsv"
    assert run("build-graph", *argv, "--positions", pos, "--in", clean,
               "--out", out) == 3
    assert not out.exists()


def test_edgeless_eps_ball_graph_denoises_to_the_input(tmp_path):
    # eps below every point spacing: no edge, every vertex isolated
    clean = tmp_path / "c.mvd"
    pos = tmp_path / "pos.tsv"
    run("generate", "--kind", "spd-sphere", "--shape", 50, "--out", clean,
        "--positions", pos)
    graph = tmp_path / "g.tsv"
    with pytest.warns(UserWarning, match="50 isolated"):
        assert run("build-graph", "--kind", "eps-ball", "--eps", 1e-6,
                   "--positions", pos, "--in", clean, "--out", graph) == 0
    assert load_edges_tsv(graph).n_edges == 0
    out = tmp_path / "o.mvd"
    assert run("denoise", "--in", clean, "--graph", graph, "--lambda", 1,
               "--scheme", "jacobi", "--out", out) == 0
    assert mse(load_mvd(out).function, load_mvd(clean).function) < 1e-24


def test_build_graph_eps_ball_requires_positions(tmp_path):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 8, 8, "--out", clean)
    assert run("build-graph", "--kind", "eps-ball", "--eps", 0.3,
               "--in", clean, "--out", tmp_path / "g.tsv") == 2


# ---------------------------------------------------------------------------
# denoise
# ---------------------------------------------------------------------------

def _small_problem(tmp_path, h=6, w=6, sigma=0.2):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", h * 2, w * 2, "--out", clean)
    noisy = tmp_path / "n.mvd"
    run("noise", "--in", clean, "--sigma", sigma, "--seed", 5, "--out", noisy)
    graph = tmp_path / "g.tsv"
    run("build-graph", "--kind", "grid4", "--in", noisy, "--out", graph)
    return clean, noisy, graph


def test_denoise_jacobi_rejects_lambda_zero(tmp_path):
    _, noisy, graph = _small_problem(tmp_path)
    assert run("denoise", "--in", noisy, "--graph", graph, "--model", "aniso",
               "--p", 2, "--lambda", 0, "--scheme", "jacobi",
               "--out", tmp_path / "o.mvd") == 2


@pytest.mark.parametrize("flag", ["--eps-smooth", "--lambda"])
def test_denoise_non_finite_parameter_exits_2(tmp_path, flag):
    # at p = 1 a NaN smoothing would zero every coefficient, and a NaN
    # lambda fails every sign test and would act as lambda = 0
    _, noisy, graph = _small_problem(tmp_path)
    out = tmp_path / "o.mvd"
    assert run("denoise", "--in", noisy, "--graph", graph, "--p", 1,
               flag, "nan", "--out", out) == 2
    assert not out.exists()


def test_denoise_huge_lambda_pins_input(tmp_path):
    _, noisy, graph = _small_problem(tmp_path)
    out = tmp_path / "o.mvd"
    assert run("denoise", "--in", noisy, "--graph", graph, "--model", "aniso",
               "--p", 2, "--lambda", 1e8, "--scheme", "jacobi",
               "--max-iters", 1, "--out", out) == 0
    got = load_mvd(out).function
    ref = load_mvd(noisy).function
    assert mse(got, ref) < 1e-10
    assert load_mvd(out).shape == load_mvd(noisy).shape


def test_denoise_flow_contracts_to_consensus(tmp_path):
    rng = np.random.default_rng(8)
    f = VertexFunction(Euclidean(1), rng.normal(size=(36, 1)))
    src = tmp_path / "f.mvd"
    save_mvd(src, f, shape=(6, 6))
    graph = tmp_path / "g.tsv"
    run("build-graph", "--kind", "grid4", "--in", src, "--out", graph)
    out = tmp_path / "o.mvd"
    assert run("denoise", "--in", src, "--graph", graph, "--model", "aniso",
               "--p", 2, "--lambda", 0, "--scheme", "explicit",
               "--dt", 1e-2, "--max-iters", 2000, "--tol", 0,
               "--out", out) == 0
    got = load_mvd(out).function.values
    assert np.var(got) < 1e-4 * np.var(f.values)
    assert np.mean(got) == pytest.approx(np.mean(f.values), abs=1e-10)


def test_denoise_trace_csv(tmp_path):
    _, noisy, graph = _small_problem(tmp_path)
    out, trace = tmp_path / "o.mvd", tmp_path / "t.csv"
    assert run("denoise", "--in", noisy, "--graph", graph, "--model", "aniso",
               "--p", 2, "--lambda", 1, "--scheme", "explicit",
               "--dt", 1e-4, "--max-iters", 10, "--tol", 0,
               "--trace", trace, "--out", out) == 0
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iter,energy,avg_rel_change"
    assert len(lines) == 12                      # header + initial + 10 sweeps
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == ""
    energies = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    changes = [float(ln.split(",")[2]) for ln in lines[2:]]
    assert all(c > 0 for c in changes)


def test_denoise_injectivity_exit_3(tmp_path, capsys):
    vals = np.array([[0.0], [np.pi - 1e-12]])
    f = VertexFunction(Circle(), vals)
    src = tmp_path / "f.mvd"
    save_mvd(src, f)
    graph = tmp_path / "g.tsv"
    from mvgraph.graphs import WeightedGraph, save_edges_tsv
    save_edges_tsv(graph, WeightedGraph.from_edges(
        2, [(0, 1, 1.0), (1, 0, 1.0)], symmetric=True))
    assert run("denoise", "--in", src, "--graph", graph, "--model", "aniso",
               "--p", 2, "--lambda", 1, "--scheme", "jacobi",
               "--out", tmp_path / "o.mvd") == 3
    err = capsys.readouterr().err
    assert "antipodal" in err or "injectivity" in err


def test_denoise_divergence_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src = tmp_path / "f.mvd"
    save_mvd(src, VertexFunction(Euclidean(2), rng.normal(size=(64, 2))),
             shape=(8, 8))
    graph = tmp_path / "g.tsv"
    run("build-graph", "--kind", "grid4", "--in", src, "--out", graph)
    with np.errstate(all="ignore"):
        assert run("denoise", "--in", src, "--graph", graph, "--lambda", 0,
                   "--dt", 10, "--out", tmp_path / "o.mvd") == 3
    assert "diverged" in capsys.readouterr().err


def test_denoise_oversized_vertex_count_exits_3(tmp_path, capsys):
    # a header promising 1e14 vertices and no body: rejected before
    # anything of that size is allocated
    _, noisy, _ = _small_problem(tmp_path)
    graph = tmp_path / "huge.tsv"
    graph.write_text("# mvgraph-edges v1 n=99999999999999 symmetric=1\n")
    assert run("denoise", "--in", noisy, "--graph", graph,
               "--out", tmp_path / "o.mvd") == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("delta", [-1, 1], ids=["smaller", "larger"])
def test_denoise_checks_the_edge_header_vertex_count(delta, tmp_path,
                                                     capsys):
    _, noisy, graph = _small_problem(tmp_path)
    n = load_mvd(noisy).function.n_vertices
    head, body = graph.read_text().split("\n", 1)
    assert head.startswith(f"# mvgraph-edges v1 n={n} ")
    bad = tmp_path / "bad.tsv"
    bad.write_text(head.replace(f"n={n}", f"n={n + delta}") + "\n" + body)
    capsys.readouterr()
    assert run("denoise", "--in", noisy, "--graph", bad,
               "--out", tmp_path / "o.mvd") == 3
    err = capsys.readouterr().err
    assert err == f"error: edge list is for n={n + delta} vertices, the data has {n}\n"


def test_denoise_accepts_isolated_vertices_past_the_last_edge(tmp_path):
    # the header counts every vertex; the last one has no edge
    _, noisy, graph = _small_problem(tmp_path)
    g = load_edges_tsv(graph)
    keep = (g.src != g.n_vertices - 1) & (g.dst != g.n_vertices - 1)
    lines = graph.read_text().splitlines()
    graph.write_text("\n".join([lines[0]] + [ln for ln, k in zip(
        lines[1:], keep) if k]) + "\n")
    assert load_edges_tsv(graph).n_edges == int(keep.sum())
    assert run("denoise", "--in", noisy, "--graph", graph, "--lambda", 1,
               "--max-iters", 3, "--out", tmp_path / "o.mvd") == 0


def test_denoise_overflowing_dt_exits_3_without_warnings(tmp_path, capsys):
    src = tmp_path / "w.mvd"
    run("generate", "--kind", "s2whirl", "--shape", 8, 8, "--out", src)
    graph = tmp_path / "g.tsv"
    run("build-graph", "--kind", "grid4", "--in", src, "--out", graph)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("denoise", "--in", src, "--graph", graph, "--lambda", 0,
                   "--dt", 1e300, "--out", tmp_path / "o.mvd") == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: sweep 1 diverged")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_csv_rowcount_and_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    f = VertexFunction(Euclidean(2), rng.normal(size=(10, 2)))
    src = tmp_path / "f.mvd"
    save_mvd(src, f)
    out = tmp_path / "f.csv"
    assert run("export", "--in", src, "--format", "csv", "--out", out) == 0
    assert len(out.read_text().strip().splitlines()) == 10
    assert np.array_equal(load_csv(out).values, f.values)


def test_export_ply_lattice_fallback(tmp_path):
    src = tmp_path / "w.mvd"
    run("generate", "--kind", "s2whirl", "--shape", 8, 8, "--out", src)
    out = tmp_path / "w.ply"
    assert run("export", "--in", src, "--format", "ply", "--out", out) == 0
    lines = out.read_text().splitlines()
    assert "element vertex 64" in lines
    body = lines[lines.index("end_header") + 1:]
    row1 = [float(t) for t in body[1].split()]
    assert row1[:3] == [1.0, 7.0, 0.0]           # col 1, top row of the image


def test_export_ply_spd_with_positions(tmp_path):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "spd-sphere", "--shape", 48, "--out", clean)
    out = tmp_path / "c.ply"
    assert run("export", "--in", clean, "--format", "ply", "--out", out,
               "--positions", tmp_path / "c.positions.tsv") == 0
    assert "element vertex 48" in out.read_text().splitlines()


def test_export_ply_circle_exits_2(tmp_path):
    clean = tmp_path / "c.mvd"
    run("generate", "--kind", "phase", "--shape", 8, 8, "--out", clean)
    assert run("export", "--in", clean, "--format", "ply",
               "--out", tmp_path / "c.ply") == 2


def _positions_case(tmp_path, damage):
    """A 16-point spd-sphere input and its positions file, damaged."""
    clean = tmp_path / "c.mvd"
    pos = tmp_path / "pos.tsv"
    run("generate", "--kind", "spd-sphere", "--shape", 16, "--out", clean,
        "--positions", pos)
    lines = pos.read_bytes().split(b"\n")
    if damage == "non-utf8":
        lines[3] = lines[3].replace(b"\t", b"\t\xe9", 1)
    elif damage == "token":
        lines[3] = b"\t".join(lines[3].split(b"\t")[:2] + [b"abc", b"1"])
    else:   # the idx column skips 2
        del lines[3]
    pos.write_bytes(b"\n".join(lines))
    return clean, pos


@pytest.mark.parametrize("command", ["build-graph", "export"])
@pytest.mark.parametrize("damage", ["non-utf8", "token", "skipped-index"])
def test_malformed_positions_exit_3(tmp_path, capsys, command, damage):
    clean, pos = _positions_case(tmp_path, damage)
    out = tmp_path / "out"
    capsys.readouterr()
    if command == "build-graph":
        rc = run("build-graph", "--kind", "eps-ball", "--eps", 0.5,
                 "--positions", pos, "--in", clean, "--out", out)
    else:
        rc = run("export", "--in", clean, "--format", "ply",
                 "--positions", pos, "--out", out)
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 4: ")
    assert not out.exists()


def test_memory_error_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(path):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")
    monkeypatch.setattr("mvgraph.cli.load_mvd", exhausted)
    assert run("eval", "--a", tmp_path / "a.mvd",
               "--b", tmp_path / "b.mvd") == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: out of memory: Unable to allocate 8.00 EiB for "
                   "an array"]


# ---------------------------------------------------------------------------
# recipes and argument plumbing
# ---------------------------------------------------------------------------

def test_recipe_unknown_exits_2(tmp_path):
    assert run("recipe", "nope", "--out-dir", tmp_path) == 2


def test_recipe_dti_slice_requires_input(tmp_path):
    assert run("recipe", "dti-slice", "--out-dir", tmp_path) == 2


def test_recipe_s2_flow_reproduces(tmp_path, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert run("recipe", "s2-flow", "--out-dir", d1) == 0
    out1 = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("mse=")]
    assert run("recipe", "s2-flow", "--out-dir", d2) == 0
    out2 = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("mse=")]
    assert out1 and out1 == out2
    assert (d1 / "clean.mvd").exists()


def test_help_and_missing_subcommand(capsys):
    assert run("--help") == 0
    capsys.readouterr()
    assert main([]) == 2
