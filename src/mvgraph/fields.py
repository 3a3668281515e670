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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InjectivityError
from .manifolds import ANTIPODAL_MARGIN, Manifold


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

    @property
    def n_active(self) -> int:
        return self.n_vertices if self.mask is None else int(self.mask.sum())

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
        act = self.active & other.active
        return self.manifold.dist(self.values[act], other.values[act])

    def check_points(self):
        """Validate the manifold invariants on all active vertices."""
        if self.mask is None:
            self.manifold.check_point(self.values)
        elif self.mask.any():
            self.manifold.check_point(self.values[self.mask])

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

    def norms(self) -> np.ndarray:
        """Riemannian norm of the tangent at each vertex."""
        return self.manifold.norm(self.base.values, self.values)

    def max_norm(self) -> float:
        """Largest norm over the active vertices (0 when none is active)."""
        act = self.base.active
        if not act.any():
            return 0.0
        return float(self.manifold.norm(self.base.values[act],
                                        self.values[act]).max())


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

    def norms(self) -> np.ndarray:
        """Riemannian norm at f(u) of the tangent on each edge."""
        return self.manifold.norm(self.base.values[self.graph.src], self.values)


def active_edge_mask(graph, f: VertexFunction):
    """Edges whose both endpoints are active, or None when all are."""
    if f.mask is None:
        return None
    return f.mask[graph.src] & f.mask[graph.dst]


def check_admissible(graph, f: VertexFunction) -> float:
    """Verify every active edge joins values within the injectivity domain.

    Returns the maximum geodesic distance across active edges.  Raises
    InjectivityError naming the first offending edge otherwise.
    """
    if f.n_vertices != graph.n_vertices:
        raise DomainError("vertex function length does not match graph")
    ae = active_edge_mask(graph, f)
    src, dst = graph.src, graph.dst
    if ae is not None:
        src, dst = src[ae], dst[ae]
    if src.size == 0:
        return 0.0
    d = f.manifold.dist(f.values[src], f.values[dst])
    dmax = float(d.max())
    limit = f.manifold.injectivity_radius - ANTIPODAL_MARGIN
    if dmax > limit:
        k = int(np.argmax(d))
        raise InjectivityError(
            f"edge ({src[k]}, {dst[k]}) joins values at geodesic distance "
            f"{dmax:.6f}, beyond the injectivity bound {limit:.6f}",
            vertex=int(src[k]), neighbor=int(dst[k]))
    return dmax
