"""The Sphere2 distance and transport written on (..., 3) point arrays, with
``np.cross`` and reductions over the last axis: the forms the row kernels
replace, kept as a test reference."""

import numpy as np

from mvgraph.manifolds import _TINY


def dist(x, y):
    s = np.linalg.norm(np.cross(x, y), axis=-1)
    return np.arctan2(s, np.sum(x * y, axis=-1))


def log_and_dist(x, y):
    dot = np.sum(x * y, axis=-1)
    perp = y - dot[..., None] * x
    pn = np.linalg.norm(perp, axis=-1)
    d = np.arctan2(pn, dot)
    scale = np.where(pn > _TINY, d / np.where(pn > _TINY, pn, 1.0), 0.0)
    return scale[..., None] * perp, d


def transport(x, y, v):
    xi, d = log_and_dist(x, y)
    safe = np.where(d > _TINY, d, 1.0)
    e = xi / safe[..., None]
    a = np.sum(e * v, axis=-1)
    out = (v
           + ((np.cos(d) - 1.0) * a)[..., None] * e
           - (np.sin(d) * a)[..., None] * x)
    out = np.where(d[..., None] > _TINY, out, v)
    return out - np.sum(out * y, axis=-1, keepdims=True) * y
