"""Seeded malformed-input sweep over circle files: ``denoise`` and ``eval``
on damaged copies of a valid 8 x 8 phase ``.mvd`` and its grid TSV exit
0, 2 or 3 with a one-line message, never with a traceback or a numpy
warning."""

import struct
import time
import warnings

import numpy as np
import pytest

from mvgraph.cli import main

N_CASES = 40
BUDGET_S = 5.0


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    d = tmp_path_factory.mktemp("circle")
    mvd, tsv = d / "phase.mvd", d / "grid.tsv"
    assert main(["generate", "--kind", "phase", "--shape", "8", "8",
                 "--out", str(mvd)]) == 0
    assert main(["build-graph", "--kind", "grid4", "--in", str(mvd),
                 "--out", str(tsv)]) == 0
    return mvd, tsv, mvd.read_bytes(), tsv.read_bytes()


def _truncate(rng, blob):
    return blob[:int(rng.integers(0, len(blob)))]


def _edit_byte(rng, blob):
    out = bytearray(blob)
    out[int(rng.integers(0, len(out)))] = int(rng.integers(0, 256))
    return bytes(out)


def _payload(blob):
    head, _, body = blob.partition(b"\n")
    return head + b"\n", bytearray(body)


def _set_angle(rng, blob, value):
    head, body = _payload(blob)
    i = int(rng.integers(0, len(body) // 8))
    body[8 * i:8 * i + 8] = struct.pack("<d", value)
    return head + bytes(body)


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
        yield f"{tok.decode()} angle", "mvd", _set_angle(rng, mvd, float(tok))
        yield f"{tok.decode()} in tsv", "tsv", _tsv_token(rng, tsv, tok)
        out = (np.pi + 1e-9, -np.pi, 4.0, -7.5)[int(rng.integers(0, 4))]
        yield f"angle {out!r}", "mvd", _set_angle(rng, mvd, out)
        yield "edit mvd header", "mvd", _edit_byte(
            rng, mvd[:mvd.index(b"\n")]) + mvd[mvd.index(b"\n"):]


def test_damaged_circle_inputs_fail_cleanly(valid, tmp_path, capsys):
    mvd, tsv, mvd_blob, tsv_blob = valid
    for i, (label, which, blob) in enumerate(_cases(mvd_blob, tsv_blob)):
        bad = tmp_path / f"bad{i}.{which}"
        bad.write_bytes(blob)
        data, graph = (bad, tsv) if which == "mvd" else (mvd, bad)
        for argv in (["denoise", "--in", data, "--graph", graph,
                      "--model", "aniso", "--p", "1", "--lambda", "0.1",
                      "--dt", "1e-2", "--max-iters", "20",
                      "--out", tmp_path / "out.mvd"],
                     ["eval", "--a", data, "--b", mvd]):
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
