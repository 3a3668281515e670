"""File-format tests: binary vertex-function files, CSV/TSV, and PLY export."""

import json
import warnings

import numpy as np
import pytest

from mvgraph.errors import ConfigError, FormatError
from mvgraph.manifolds import Circle, Euclidean, Spd, Sphere2
from mvgraph.fields import VertexFunction
from mvgraph.mvdio import (
    export_csv,
    export_ply,
    load_csv,
    load_mvd,
    load_positions_tsv,
    save_mvd,
    save_positions_tsv,
)

from conftest import clustered_vertex_function, random_point

MANIFOLDS = [Euclidean(2), Circle(), Sphere2(), Spd(3)]


def _make_file(path, header, payload):
    blob = json.dumps(header).encode("utf-8") + b"\n" + payload
    path.write_bytes(blob)


def _valid_header(mfd, n, mask=False, **overrides):
    h = {"format": "mvd", "version": 1, "manifold": mfd.kind,
         "params": mfd.params, "shape": [n], "mask": mask}
    h.update(overrides)
    return h


# ---------------------------------------------------------------------------
# binary roundtrips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("manifold", MANIFOLDS, ids=lambda m: m.kind)
def test_roundtrip_bit_exact(tmp_path, manifold):
    rng = np.random.default_rng(71)
    f = clustered_vertex_function(manifold, rng, 17)
    path = tmp_path / "f.mvd"
    save_mvd(path, f)
    out = load_mvd(path)
    assert out.function.manifold == manifold
    assert out.shape == (17,)
    assert out.function.mask is None
    assert np.array_equal(out.function.values, f.values)
    assert out.function.values.dtype == np.float64


def test_roundtrip_mask_and_placeholders(tmp_path):
    rng = np.random.default_rng(5)
    f = clustered_vertex_function(Sphere2(), rng, 12)
    mask = np.ones(12, dtype=bool)
    mask[[3, 7]] = False
    vals = f.values.copy()
    vals[3] = 99.0                      # not a unit vector: must be tolerated
    vals[7] = 0.0
    g = VertexFunction(Sphere2(), vals, mask, validate=False)
    path = tmp_path / "m.mvd"
    save_mvd(path, g)
    header = json.loads(path.read_bytes().split(b"\n", 1)[0])
    assert header["mask"] is True
    out = load_mvd(path)
    assert np.array_equal(out.function.values, vals)
    assert np.array_equal(out.function.mask, mask)


def test_shape_header_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    f = clustered_vertex_function(Euclidean(2), rng, 20)
    path = tmp_path / "s.mvd"
    save_mvd(path, f, shape=(4, 5))
    assert load_mvd(path).shape == (4, 5)
    with pytest.raises(ConfigError):
        save_mvd(path, f, shape=(3, 5))


# ---------------------------------------------------------------------------
# malformed files
# ---------------------------------------------------------------------------

def _payload(vals):
    return np.ascontiguousarray(vals, dtype="<f8").tobytes()


def test_header_must_be_json(tmp_path):
    p = tmp_path / "bad.mvd"
    p.write_bytes(b"not json at all\n" + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_mvd(p)


@pytest.mark.parametrize("override", [
    {"format": "npz"},
    {"version": 2},
    {"manifold": "torus"},
    {"shape": []},
    {"shape": [0]},
    {"shape": [2, -3]},
])
def test_header_field_rejections(tmp_path, override):
    p = tmp_path / "bad.mvd"
    vals = np.full((6, 1), 0.25)
    _make_file(p, _valid_header(Circle(), 6, **override), _payload(vals))
    with pytest.raises(FormatError):
        load_mvd(p)


def test_spd_header_needs_matrix_size(tmp_path):
    p = tmp_path / "bad.mvd"
    h = _valid_header(Spd(3), 2)
    h["params"] = {}
    _make_file(p, h, _payload(np.broadcast_to(np.eye(3), (2, 3, 3))))
    with pytest.raises(FormatError):
        load_mvd(p)


def test_payload_length_must_match(tmp_path):
    vals = np.full((6, 1), 0.25)
    p = tmp_path / "bad.mvd"
    _make_file(p, _valid_header(Circle(), 6), _payload(vals)[:-8])
    with pytest.raises(FormatError):
        load_mvd(p)
    _make_file(p, _valid_header(Circle(), 6), _payload(vals) + b"\x00")
    with pytest.raises(FormatError):
        load_mvd(p)


def test_mask_bytes_must_be_binary(tmp_path):
    vals = np.full((4, 1), 0.25)
    p = tmp_path / "bad.mvd"
    _make_file(p, _valid_header(Circle(), 4, mask=True),
               _payload(vals) + bytes([1, 0, 2, 1]))
    with pytest.raises(FormatError):
        load_mvd(p)
    _make_file(p, _valid_header(Circle(), 4, mask=True),
               _payload(vals) + bytes([1, 0, 0, 1]))
    out = load_mvd(p)
    assert np.array_equal(out.function.mask, [True, False, False, True])


def test_values_must_satisfy_manifold_invariants(tmp_path):
    p = tmp_path / "bad.mvd"
    _make_file(p, _valid_header(Circle(), 3),
               _payload(np.array([[0.1], [4.0], [0.2]])))
    with pytest.raises(FormatError):
        load_mvd(p)
    vecs = np.array([[1.0, 0, 0], [0.5, 0.5, 0.5]])
    _make_file(p, _valid_header(Sphere2(), 2), _payload(vecs))
    with pytest.raises(FormatError):
        load_mvd(p)


def test_spd_resymmetrization_policy(tmp_path):
    base = np.array([[[2.0, 0.3], [0.3, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
    p = tmp_path / "spd.mvd"

    tiny = base.copy()
    tiny[0, 0, 1] += 1e-13              # within tolerance: silently fixed
    _make_file(p, _valid_header(Spd(2), 2), _payload(tiny))
    out = load_mvd(p)
    v = out.function.values
    assert np.array_equal(v, np.swapaxes(v, 1, 2))

    big = base.copy()
    big[0, 0, 1] += 1e-6                # beyond tolerance: rejected
    _make_file(p, _valid_header(Spd(2), 2), _payload(big))
    with pytest.raises(FormatError):
        load_mvd(p)

    nonpd = base.copy()
    nonpd[1] = [[1.0, 2.0], [2.0, 1.0]]  # symmetric but indefinite
    _make_file(p, _valid_header(Spd(2), 2), _payload(nonpd))
    with pytest.raises(FormatError):
        load_mvd(p)


@pytest.mark.parametrize("at", [(0, 0), (0, 1)], ids=["diagonal", "off"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spd_non_finite_entry_fails_without_warnings(bad, at, tmp_path):
    # an infinite diagonal entry minus its own transpose is inf - inf
    vals = np.stack([np.eye(2), np.eye(2)])
    vals[(1,) + at] = bad
    p = tmp_path / "spd.mvd"
    _make_file(p, _valid_header(Spd(2), 2), _payload(vals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError):
            load_mvd(p)


def test_spd_masked_rows_not_validated(tmp_path):
    vals = np.stack([np.eye(2), [[0.0, 5.0], [-3.0, 0.0]]])
    p = tmp_path / "spd.mvd"
    _make_file(p, _valid_header(Spd(2), 2, mask=True),
               _payload(vals) + bytes([1, 0]))
    out = load_mvd(p)
    assert np.array_equal(out.function.values[1], vals[1])


# ---------------------------------------------------------------------------
# CSV / positions TSV
# ---------------------------------------------------------------------------

def test_csv_roundtrip_euclidean_exact(tmp_path):
    rng = np.random.default_rng(13)
    f = VertexFunction(Euclidean(3), rng.normal(size=(25, 3)) * 1e3)
    p = tmp_path / "f.csv"
    export_csv(p, f)
    assert len(p.read_text().strip().splitlines()) == 25
    g = load_csv(p)
    assert g.manifold == Euclidean(3)
    assert np.array_equal(g.values, f.values)


def test_csv_roundtrip_other_manifolds(tmp_path):
    rng = np.random.default_rng(14)
    for manifold in [Circle(), Sphere2(), Spd(2)]:
        f = clustered_vertex_function(manifold, rng, 9)
        p = tmp_path / "f.csv"
        export_csv(p, f)
        g = load_csv(p, manifold)
        assert np.array_equal(g.values, f.values)
        row = p.read_text().splitlines()[0]
        assert len(row.split(",")) == f.values[0].size


def test_positions_tsv_roundtrip(tmp_path):
    rng = np.random.default_rng(15)
    pos = random_point(Sphere2(), rng, 30)
    p = tmp_path / "pos.tsv"
    save_positions_tsv(p, pos)
    lines = p.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["idx", "x", "y", "z"]
    assert lines[1].split("\t")[0] == "0"
    back = load_positions_tsv(p)
    assert np.array_equal(back, pos)


def test_positions_tsv_malformed(tmp_path):
    p = tmp_path / "pos.tsv"
    p.write_text("idx\tx\ty\tz\n0\t1.0\tnope\t0.0\n")
    with pytest.raises(FormatError):
        load_positions_tsv(p)


# ---------------------------------------------------------------------------
# PLY export
# ---------------------------------------------------------------------------

def _parse_ply(text):
    lines = text.strip().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    n = None
    props = []
    for k, line in enumerate(lines):
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("property"):
            _, dtype, name = line.split()
            assert dtype == "double"
            props.append(name)
        elif line == "end_header":
            body = lines[k + 1:]
            return n, props, body
    raise AssertionError("no end_header")


def test_ply_sphere2(tmp_path):
    rng = np.random.default_rng(21)
    f = clustered_vertex_function(Sphere2(), rng, 8)
    pos = random_point(Sphere2(), rng, 8)
    p = tmp_path / "f.ply"
    export_ply(p, f, pos)
    n, props, body = _parse_ply(p.read_text())
    assert n == 8 and len(body) == 8
    assert props == ["x", "y", "z", "nx", "ny", "nz"]
    row = np.array([float(t) for t in body[0].split()])
    assert np.array_equal(row, np.concatenate([pos[0], f.values[0]]))


def test_ply_spd3(tmp_path):
    rng = np.random.default_rng(22)
    f = clustered_vertex_function(Spd(3), rng, 5)
    pos = random_point(Sphere2(), rng, 5)
    p = tmp_path / "f.ply"
    export_ply(p, f, pos)
    n, props, body = _parse_ply(p.read_text())
    assert n == 5 and len(body) == 5
    assert props == ["x", "y", "z", "xx", "xy", "xz", "yy", "yz", "zz"]
    row = np.array([float(t) for t in body[2].split()])
    m = f.values[2]
    expect = np.concatenate([pos[2], [m[0, 0], m[0, 1], m[0, 2],
                                      m[1, 1], m[1, 2], m[2, 2]]])
    assert np.array_equal(row, expect)


def test_ply_unsupported_manifolds(tmp_path):
    rng = np.random.default_rng(23)
    pos = np.zeros((4, 3))
    for manifold in [Circle(), Euclidean(2), Spd(2)]:
        f = clustered_vertex_function(manifold, rng, 4)
        with pytest.raises(ConfigError):
            export_ply(tmp_path / "f.ply", f, pos)


def test_ply_position_count_must_match(tmp_path):
    rng = np.random.default_rng(24)
    f = clustered_vertex_function(Sphere2(), rng, 4)
    with pytest.raises(ConfigError):
        export_ply(tmp_path / "f.ply", f, np.zeros((3, 3)))
