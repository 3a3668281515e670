"""File formats: binary vertex-function files, CSV/TSV tables, PLY export.

The native container (``.mvd``) is a single UTF-8 JSON header line

    {"format": "mvd", "version": 1, "manifold": ..., "params": {...},
     "shape": [...], "mask": true|false}

followed by the raw payload: little-endian float64 ambient coordinates,
row-major, one block per vertex (circle: 1 angle; sphere2: 3; spd(n): the
full n-by-n matrix; euclidean: m), then one 0/1 byte per vertex when
``mask`` is true (1 = active).  Save/load roundtrips are bit-exact; the
loader validates the manifold invariants on active vertices and rejects
malformed content with :class:`FormatError`.  SPD payloads whose asymmetry
is within ``Spd.SYM_TOL`` are re-symmetrized on load (a bitwise no-op for
exactly symmetric data); anything worse is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, FormatError
from .fields import VertexFunction
from .graphs import _parse_rows
from .manifolds import Manifold, Spd, from_kind

_KINDS = ("euclidean", "circle", "sphere2", "spd")
_POSITION_ROW = np.dtype([("idx", np.int64), ("xyz", np.float64, 3)])


@dataclass
class MvdFile:
    """A loaded vertex function plus the grid shape recorded in its header."""

    function: VertexFunction
    shape: tuple


def save_mvd(path, f: VertexFunction, shape=None):
    """Write ``f`` to ``path``; ``shape`` defaults to the flat vertex count."""
    shape = (f.n_vertices,) if shape is None else tuple(int(s) for s in shape)
    if math.prod(shape) != f.n_vertices:
        raise ConfigError(f"shape {shape} does not cover {f.n_vertices} vertices")
    header = {"format": "mvd", "version": 1, "manifold": f.manifold.kind,
              "params": f.manifold.params, "shape": list(shape),
              "mask": f.mask is not None}
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    blob += np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    if f.mask is not None:
        blob += f.mask.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


def _parse_header(line):
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise FormatError(f"unreadable header line: {err}") from err
    if not isinstance(header, dict):
        raise FormatError("header is not a JSON object")
    if header.get("format") != "mvd":
        raise FormatError(f"not an mvd file (format={header.get('format')!r})")
    if header.get("version") != 1:
        raise FormatError(f"unsupported version {header.get('version')!r}")
    if header.get("manifold") not in _KINDS:
        raise FormatError(f"unknown manifold {header.get('manifold')!r}")
    shape = header.get("shape")
    if (not isinstance(shape, list) or not shape
            or any(not isinstance(s, int) or s < 1 for s in shape)):
        raise FormatError(f"invalid shape {shape!r}")
    if not isinstance(header.get("mask"), bool):
        raise FormatError("mask flag must be a JSON boolean")
    try:
        manifold = from_kind(header["manifold"], header.get("params") or {})
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"invalid manifold params: {err}") from err
    return manifold, tuple(shape), header["mask"]


def load_mvd(path) -> MvdFile:
    """Read an ``.mvd`` file, validating format and manifold invariants."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, _, body = blob.partition(b"\n")
    if not _:
        raise FormatError("missing header line")
    manifold, shape, has_mask = _parse_header(head)

    n = math.prod(shape)
    amb = int(np.prod(manifold.point_shape))
    expect = n * amb * 8 + (n if has_mask else 0)
    if len(body) != expect:
        raise FormatError(
            f"payload is {len(body)} bytes, expected {expect}")
    values = np.frombuffer(body[:n * amb * 8], dtype="<f8")
    values = values.reshape((n,) + manifold.point_shape).copy()
    mask = None
    if has_mask:
        raw = np.frombuffer(body[n * amb * 8:], dtype=np.uint8)
        if np.any(raw > 1):
            raise FormatError("mask bytes must be 0 or 1")
        mask = raw.astype(bool)

    if isinstance(manifold, Spd):
        act = slice(None) if mask is None else mask
        # inf - inf is NaN here, and the invariant check below rejects it
        with np.errstate(invalid="ignore"):
            sym = 0.5 * (values[act] + np.swapaxes(values[act], -1, -2))
            asym = np.max(np.abs(values[act]
                                 - np.swapaxes(values[act], -1, -2)),
                          initial=0.0)
        if asym > Spd.SYM_TOL:
            raise FormatError(
                f"spd payload asymmetry {asym:.3e} exceeds {Spd.SYM_TOL:g}")
        values[act] = sym
    try:
        f = VertexFunction(manifold, values, mask)
    except DomainError as err:
        raise FormatError(f"payload violates manifold invariants: {err}") from err
    return MvdFile(f, shape)


# ---------------------------------------------------------------------------
# CSV (ambient coordinates, one row per vertex)
# ---------------------------------------------------------------------------

def export_csv(path, f: VertexFunction):
    """One row per vertex: the flattened ambient coordinates, full precision."""
    np.savetxt(path, f.values.reshape(f.n_vertices, -1),
               fmt="%.17g", delimiter=",")


def load_csv(path, manifold: Manifold | None = None) -> VertexFunction:
    """Inverse of :func:`export_csv`; defaults to Euclidean(#columns)."""
    try:
        flat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as err:
        raise FormatError(f"unparseable csv: {err}") from err
    if manifold is None:
        from .manifolds import Euclidean
        manifold = Euclidean(flat.shape[1])
    amb = int(np.prod(manifold.point_shape))
    if flat.shape[1] != amb:
        raise FormatError(f"csv has {flat.shape[1]} columns, "
                          f"{manifold.kind} needs {amb}")
    values = flat.reshape((flat.shape[0],) + manifold.point_shape)
    try:
        return VertexFunction(manifold, values)
    except DomainError as err:
        raise FormatError(f"csv violates manifold invariants: {err}") from err


# ---------------------------------------------------------------------------
# positions TSV
# ---------------------------------------------------------------------------

def save_positions_tsv(path, positions):
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ConfigError(f"positions must have shape (n, 3), got {pos.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("idx\tx\ty\tz\n")
        for i, (x, y, z) in enumerate(pos):
            fh.write("%d\t%.17g\t%.17g\t%.17g\n" % (i, x, y, z))


def load_positions_tsv(path) -> np.ndarray:
    """Read an (n, 3) array written by save_positions_tsv.

    Blank lines are skipped.  A malformed line, or an ``idx`` column that
    does not count 0, 1, ..., raises FormatError naming its line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise FormatError(f"line {lineno}: not UTF-8 text ({err.reason} "
                          f"at byte {err.start})") from err
    head = next((k for k, ln in enumerate(lines) if ln.strip()), None)
    if (head is None
            or lines[head].strip().split("\t") != ["idx", "x", "y", "z"]):
        raise FormatError("positions file must start with 'idx\\tx\\ty\\tz'")
    body = lines[head + 1:]
    rows = _parse_rows(body, head + 2, _POSITION_ROW,
                       "'idx\\tx\\ty\\tz' with an integer idx")
    bad = np.flatnonzero(rows["idx"] != np.arange(rows.size))
    if bad.size:
        k = [k for k, ln in enumerate(body) if ln.strip()][bad[0]]
        raise FormatError(f"line {head + 2 + k}: expected idx {bad[0]}, "
                          f"got {body[k]!r}")
    return rows["xyz"].copy()


# ---------------------------------------------------------------------------
# PLY point clouds for external viewers
# ---------------------------------------------------------------------------

def _ply_attributes(f: VertexFunction):
    if f.manifold.kind == "sphere2":
        return ["nx", "ny", "nz"], f.values
    if f.manifold.kind == "spd" and f.manifold.point_shape == (3, 3):
        v = f.values
        cols = [v[:, 0, 0], v[:, 0, 1], v[:, 0, 2],
                v[:, 1, 1], v[:, 1, 2], v[:, 2, 2]]
        return ["xx", "xy", "xz", "yy", "yz", "zz"], np.stack(cols, axis=1)
    raise ConfigError(
        f"ply export supports sphere2 and spd(3) values, not {f.manifold.kind}")


def export_ply(path, f: VertexFunction, positions):
    """ASCII PLY point cloud: positions plus unit-vector or tensor attributes."""
    names, attrs = _ply_attributes(f)
    pos = np.asarray(positions, dtype=np.float64)
    if pos.shape != (f.n_vertices, 3):
        raise ConfigError(f"positions shape {pos.shape} does not match "
                          f"({f.n_vertices}, 3)")
    rows = np.concatenate([pos, attrs], axis=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {f.n_vertices}\n")
        for name in ["x", "y", "z"] + names:
            fh.write(f"property double {name}\n")
        fh.write("end_header\n")
        for row in rows:
            fh.write(" ".join("%.17g" % c for c in row) + "\n")
