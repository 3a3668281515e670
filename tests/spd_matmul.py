"""The Spd kernels written on (N, n, n) arrays with batched matrix products:
the forms the component-array kernels replace, kept as a test reference.

Eigenpairs come from ``mvgraph.manifolds._eigh_sym`` (converted to the
layout of ``np.linalg.eigh``), so a comparison with the kernels isolates the
layout of the products and the recomposition from the eigensolver, which
has its own tests.
"""

import numpy as np

from mvgraph.manifolds import EIG_CLAMP, _components, _eigh_sym


def sym(a):
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def recompose(q, w):
    """q diag(w) q^T for batched eigendecompositions."""
    return (q * w[..., None, :]) @ np.swapaxes(q, -1, -2)


def eigh(a):
    """``_eigh_sym`` of the symmetric part of (..., n, n) matrices, as
    ``np.linalg.eigh`` returns it."""
    a = np.asarray(a, dtype=np.float64)
    w, q = _eigh_sym(_components(a).reshape((-1,) + a.shape[:-2]))
    return np.moveaxis(w, 0, -1), np.moveaxis(q, (0, 1), (-2, -1))


def roots(x):
    w, q = eigh(x)
    s = np.sqrt(np.maximum(w, EIG_CLAMP))
    return recompose(q, s), recompose(q, 1.0 / s)


def log_mid(irt, y):
    mu, p = eigh(irt @ y @ irt)
    lmu = np.log(np.maximum(mu, EIG_CLAMP))
    return recompose(p, lmu), lmu


def dist(x, y):
    _, irt = roots(x)
    _, lmu = log_mid(irt, y)
    return np.sqrt(np.sum(lmu * lmu, axis=-1))


def exp(x, v):
    rt, irt = roots(x)
    w, q = eigh(irt @ v @ irt)
    return sym(rt @ recompose(q, np.exp(w)) @ rt)


def log_and_dist(x, y):
    rt, irt = roots(x)
    mid, lmu = log_mid(irt, y)
    return sym(rt @ mid @ rt), np.sqrt(np.sum(lmu * lmu, axis=-1))


def edge_log_and_dist(points, src, dst, h):
    """Edges in paired order (h pairs, edge h + i the reverse of edge i):
    the first h and the tail as ``log_and_dist``, the reverses from
    log_y(x) = -y x^-1/2 M x^1/2."""
    direct = np.r_[0:h, 2 * h:src.size]
    x, y = points[src[direct]], points[dst[direct]]
    rt, irt = roots(x)
    mid, lmu = log_mid(irt, y)
    logs = np.empty((src.size,) + points.shape[1:])
    d = np.empty(src.size)
    logs[direct] = sym(rt @ mid @ rt)
    d[direct] = np.sqrt(np.sum(lmu * lmu, axis=-1))
    logs[h:2 * h] = -sym(y[:h] @ irt[:h] @ mid[:h] @ rt[:h])
    d[h:2 * h] = d[:h]
    return logs, d
