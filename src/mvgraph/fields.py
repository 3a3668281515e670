"""Containers for manifold-valued signals and tangent fields on graphs.

A :class:`VertexFunction` stores one manifold point per vertex as a single
numpy array of shape ``(n,) + point_shape``; an optional boolean mask marks
vertices as active (``True``) or missing (``False``).  Inactive vertices are
ignored by all operators, contribute no energy terms, and are never updated
by the solvers; their stored coordinates are allowed to be placeholders that
do not satisfy the manifold invariants.

Tangent data comes in two flavours mirroring the function spaces of the
calculus: per-vertex fields (one tangent at each f(u)) and per-edge
functions (one tangent at the start point f(u) of every directed edge).

Inside a solve a vertex function is held in component rows (``_VertexRows``,
the layout of ``manifolds``), and ``_VertexRows._on_active`` is where the
active vertices are selected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InjectivityError
from .manifolds import Manifold


@dataclass(eq=False)
class VertexFunction:
    """A map from graph vertices into a manifold, with an optional mask."""

    manifold: Manifold
    values: np.ndarray
    mask: np.ndarray | None = None
    validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        ps = self.manifold.point_shape
        if values.ndim != 1 + len(ps) or values.shape[1:] != ps:
            raise DomainError(
                f"values shape {values.shape} does not match (n,) + "
                f"{ps} for manifold {self.manifold.kind}")
        self.values = values
        if self.mask is not None:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != (values.shape[0],):
                raise DomainError("mask length does not match vertex count")
            self.mask = mask
        if self.validate:
            self.check_points()

    # -- basic queries -------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.values.shape[0]

    @property
    def active(self) -> np.ndarray:
        """Boolean per-vertex activity array (all True when unmasked)."""
        if self.mask is None:
            return np.ones(self.n_vertices, dtype=bool)
        return self.mask

    def dists_to(self, other: "VertexFunction") -> np.ndarray:
        """Geodesic distances to ``other`` on the jointly active vertices.

        Raises DomainError unless both functions share a manifold and a
        vertex count.
        """
        if other.manifold != self.manifold:
            raise DomainError(f"functions on different manifolds: "
                              f"{self.manifold} vs {other.manifold}")
        if other.n_vertices != self.n_vertices:
            raise DomainError(f"functions with different vertex counts: "
                              f"{self.n_vertices} vs {other.n_vertices}")
        return self._to_rows().dists_to(other._to_rows())

    def _to_rows(self) -> "_VertexRows":
        """This function in component rows, the layout of a solve."""
        m = self.manifold
        return _VertexRows(m, _rows_of(m, self.values, self.mask), self.mask)

    def _with_rows(self, rows) -> "VertexFunction":
        """A copy whose active vertices take their values from the
        component rows (k, n); inactive vertices keep their stored values
        byte for byte (a placeholder need not survive a conversion)."""
        m = self.manifold
        mask = None if self.mask is None else self.mask.copy()
        if mask is None:
            values = m._points(rows, (self.n_vertices,))
        else:
            values = self.values.copy()
            values[mask] = m._points(rows[:, mask], (int(mask.sum()),))
        return VertexFunction(m, values, mask, validate=False)

    def check_points(self):
        """Validate the manifold invariants on all active vertices."""
        self.manifold.check_point(
            self.values if self.mask is None else self.values[self.mask])

    # -- derivation ------------------------------------------------------

    def copy(self) -> "VertexFunction":
        return VertexFunction(self.manifold, self.values.copy(),
                              None if self.mask is None else self.mask.copy(),
                              validate=False)

    def with_values(self, values, validate=False) -> "VertexFunction":
        """Same manifold and mask, new coordinate array."""
        return VertexFunction(self.manifold, values, self.mask, validate=validate)


@dataclass(eq=False)
class TangentVertexField:
    """One tangent vector per vertex, anchored at the vertex's value."""

    base: VertexFunction
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.base.values.shape:
            raise DomainError(
                f"tangent field shape {values.shape} does not match base "
                f"values shape {self.base.values.shape}")
        self.values = values

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold

    def max_norm(self) -> float:
        """Largest norm over the active vertices (0 when none is active)."""
        f = self.base._to_rows()
        return f.max_norm(_rows_of(f.manifold, self.values, f.mask))


@dataclass(eq=False)
class TangentEdgeFunction:
    """One tangent vector per directed edge (u, v), anchored at f(u)."""

    graph: "WeightedGraph"  # noqa: F821 - structural reference only
    base: VertexFunction
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        expect = (self.graph.n_edges,) + self.base.manifold.point_shape
        if values.shape != expect:
            raise DomainError(
                f"edge function shape {values.shape} does not match {expect}")
        self.values = values

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold


def _joint(a, b):
    """Mask of the vertices active in both masks (None: all are)."""
    if a is None or b is None:
        return b if a is None else a
    return a & b


def _spread(res, idx, n, fill=None):
    """Each array of ``res`` (one, a tuple of them, or None) spread along
    its last axis over n columns: its columns go to ``idx``, and the other
    columns are zero, or for the first array those of ``fill`` when
    given."""
    if res is None:
        return None
    outs = []
    for r in res if isinstance(res, tuple) else (res,):
        out = (np.zeros(r.shape[:-1] + (n,), r.dtype)
               if fill is None or outs else fill.copy())
        out[..., idx] = r
        outs.append(out)
    return tuple(outs) if isinstance(res, tuple) else outs[0]


def _rows_of(manifold, values, mask):
    """Component rows (k, n) of per-vertex ``values`` (``Manifold._rows``),
    their shape checked.  Only the active columns are converted: a
    placeholder need not be a point, so inactive columns hold zeros."""
    values = manifold._check_shape(values)
    if mask is None:
        return manifold._rows(values)
    active = manifold._rows(values[mask])
    rows = np.zeros(active.shape[:1] + mask.shape)
    rows[:, mask] = active
    return rows


@dataclass(eq=False)
class _VertexRows:
    """A vertex function in component rows, the layout in which a solve
    runs: ``rows`` is the (k, n) array of ``Manifold._rows``, one row per
    component and the vertex axis last, with zero columns at inactive
    vertices; ``mask`` as in :class:`VertexFunction`."""

    manifold: Manifold
    rows: np.ndarray
    mask: np.ndarray | None = None

    @property
    def n_vertices(self) -> int:
        return self.rows.shape[-1]

    def with_rows(self, rows) -> "_VertexRows":
        """Same manifold and mask, new rows."""
        return _VertexRows(self.manifold, rows, self.mask)

    def _on_active(self, op, *arrays, other=None, fill=None):
        """``op(rows, *arrays)`` on the columns of the active vertices only.

        The vertices are those active here (and in ``other``, when given);
        ``arrays`` hold one column per vertex, the vertex axis last (None
        passes through).  Each array ``op`` returns (one, a tuple of them,
        or None) is spread along its last axis over all vertices, with zero
        columns elsewhere; the first takes the columns of ``fill`` there
        instead, when given.  An InjectivityError's ``vertex`` is
        renumbered to the full vertex list.  Unmasked, ``op`` runs on the
        full arrays and its result is returned as it is.
        """
        mask = self.mask if other is None else _joint(self.mask, other.mask)
        if mask is None:
            return op(self.rows, *arrays)
        idx = np.flatnonzero(mask)
        try:
            res = op(np.take(self.rows, idx, axis=-1),
                     *(None if a is None else np.take(a, idx, axis=-1)
                       for a in arrays))
        except InjectivityError as err:
            if err.vertex is not None:
                err.vertex = int(idx[err.vertex])
            raise
        return _spread(res, idx, self.n_vertices, fill)

    def dists_to(self, other: "_VertexRows") -> np.ndarray:
        """``VertexFunction.dists_to`` of row functions (unchecked)."""
        mask = _joint(self.mask, other.mask)
        at = slice(None) if mask is None else mask
        return self.manifold._dist_rows(self.rows[:, at], other.rows[:, at])

    def max_norm(self, v, state=None) -> float:
        """Largest ``||v||`` of the tangent rows v over the active vertices
        (0 when none is active); ``state`` is the point state, when the
        caller has it."""
        norms = self._on_active(self.manifold._norm_rows, v, state)
        return float(np.max(norms, initial=0.0))
