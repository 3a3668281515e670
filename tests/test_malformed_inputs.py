"""Seeded malformed-input sweep: ``denoise`` and ``eval`` on damaged copies
of a valid ``.mvd`` and its graph TSV, and ``noise``, ``build-graph --kind
knn-patch`` and ``export`` on the damaged ``.mvd``, exit 0, 2 or 3 with a
one-line message, never with a traceback or a numpy warning.  The inputs
are an 8 x 8 phase image (circle) and an 8 x 8 whirl (sphere2), each with
its grid graph, and 60 SPD(3) samples on the sphere with their
epsilon-ball graph.  Besides damaged bytes and values, a payload is read
under the header of another manifold kind."""

import json
import struct
import time
import warnings

import numpy as np
import pytest

from mvgraph.cli import main

N_CASES = 40
BUDGET_S = 5.0

DENOISE = ["--model", "aniso", "--p", "1", "--lambda", "0.1", "--dt", "1e-2",
           "--max-iters", "20"]
# generate arguments, build-graph arguments and denoise arguments per kind;
# {d} is the directory of the valid files
KINDS = {
    "circle": (["--kind", "phase", "--shape", "8", "8"], ["--kind", "grid4"],
               DENOISE),
    "s2whirl": (["--kind", "s2whirl", "--shape", "8", "8"],
                ["--kind", "grid4"], DENOISE),
    "spd-sphere": (["--kind", "spd-sphere", "--shape", "60",
                    "--positions", "{d}/pos.tsv"],
                   ["--kind", "eps-ball", "--eps", "0.6",
                    "--positions", "{d}/pos.tsv"],
                   ["--model", "aniso", "--p", "1", "--lambda", "10",
                    "--scheme", "jacobi", "--max-iters", "20"]),
}


@pytest.fixture(scope="module", params=sorted(KINDS))
def valid(request, tmp_path_factory):
    d = tmp_path_factory.mktemp(request.param)
    mvd, tsv = d / "data.mvd", d / "graph.tsv"
    gen, build, denoise = ([a.replace("{d}", str(d)) for a in args]
                           for args in KINDS[request.param])
    assert main(["generate", *gen, "--out", str(mvd)]) == 0
    assert main(["build-graph", *build, "--in", str(mvd),
                 "--out", str(tsv)]) == 0
    return mvd, tsv, mvd.read_bytes(), tsv.read_bytes(), denoise


def _truncate(rng, blob):
    return blob[:int(rng.integers(0, len(blob)))]


def _edit_byte(rng, blob):
    out = bytearray(blob)
    out[int(rng.integers(0, len(out)))] = int(rng.integers(0, 256))
    return bytes(out)


def _payload(blob):
    head, _, body = blob.partition(b"\n")
    return head + b"\n", bytearray(body)


def _set_value(rng, blob, value):
    head, body = _payload(blob)
    i = int(rng.integers(0, len(body) // 8))
    body[8 * i:8 * i + 8] = struct.pack("<d", value)
    return head + bytes(body)


# (kind, params, floats per vertex) of the headers a payload is read under
SWAPS = (("circle", {}, 1), ("sphere2", {}, 3), ("spd", {"n": 3}, 9),
         ("euclidean", {"m": 1}, 1), ("euclidean", {"m": 3}, 3))


def _swap_kind(rng, blob):
    """The payload under the header of another manifold kind, its vertex
    count the one the payload holds for that kind where that divides."""
    head, _, body = blob.partition(b"\n")
    header = json.loads(head)
    swaps = [s for s in SWAPS if s[0] != header["manifold"]]
    kind, params, per_vertex = swaps[int(rng.integers(0, len(swaps)))]
    floats = len(body) // 8
    if floats % per_vertex == 0:
        header["shape"] = [floats // per_vertex]
    header.update(manifold=kind, params=params)
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body


def _tsv_token(rng, blob, token):
    lines = blob.split(b"\n")
    k = int(rng.integers(1, len(lines) - 1))
    cols = lines[k].split(b"\t")
    cols[int(rng.integers(0, len(cols)))] = token
    lines[k] = b"\t".join(cols)
    return b"\n".join(lines)


def _cases(mvd, tsv):
    """(label, damaged file, bytes) triples, seeded."""
    rng = np.random.default_rng(20260)
    for _ in range(N_CASES // 8):
        yield "truncate mvd", "mvd", _truncate(rng, mvd)
        yield "truncate tsv", "tsv", _truncate(rng, tsv)
        yield "edit mvd", "mvd", _edit_byte(rng, mvd)
        yield "edit tsv", "tsv", _edit_byte(rng, tsv)
        tok = (b"nan", b"inf", b"-inf")[int(rng.integers(0, 3))]
        yield f"{tok.decode()} value", "mvd", _set_value(rng, mvd, float(tok))
        yield f"{tok.decode()} in tsv", "tsv", _tsv_token(rng, tsv, tok)
        # off the manifold: an angle outside (-pi, pi], a sphere point off
        # the unit sphere, an asymmetric or indefinite matrix
        out = (np.pi + 1e-9, -np.pi, 4.0, -7.5)[int(rng.integers(0, 4))]
        yield f"value {out!r}", "mvd", _set_value(rng, mvd, out)
        yield "edit mvd header", "mvd", _edit_byte(
            rng, mvd[:mvd.index(b"\n")]) + mvd[mvd.index(b"\n"):]
        yield "manifold kind swap", "mvd", _swap_kind(rng, mvd)


def test_damaged_inputs_fail_cleanly(valid, tmp_path, capsys):
    mvd, tsv, mvd_blob, tsv_blob, denoise = valid
    for i, (label, which, blob) in enumerate(_cases(mvd_blob, tsv_blob)):
        bad = tmp_path / f"bad{i}.{which}"
        bad.write_bytes(blob)
        data, graph = (bad, tsv) if which == "mvd" else (mvd, bad)
        readers = [["denoise", "--in", data, "--graph", graph, *denoise,
                    "--out", tmp_path / "out.mvd"],
                   ["eval", "--a", data, "--b", mvd]]
        if which == "mvd":
            readers += [["noise", "--in", data, "--sigma", "0.2",
                         "--out", tmp_path / "noisy.mvd"],
                        ["build-graph", "--kind", "knn-patch", "--k", "4",
                         "--patch", "1", "--in", data,
                         "--out", tmp_path / "knn.tsv"],
                        ["export", "--in", data, "--format", "csv",
                         "--out", tmp_path / "out.csv"],
                        ["export", "--in", data, "--format", "ply",
                         "--out", tmp_path / "out.ply"]]
        for argv in readers:
            capsys.readouterr()
            t0 = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main([str(a) for a in argv])
            took = time.perf_counter() - t0
            err = capsys.readouterr().err
            case = f"{label} ({argv[0]}): rc={rc} err={err!r}"
            assert rc in (0, 2, 3), case
            assert "Traceback" not in err and "Warning" not in err, case
            assert [str(w.message) for w in caught] == [], case
            assert took < BUDGET_S, case
            if rc:
                assert err.startswith("error:"), case
