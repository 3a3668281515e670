"""Calculus, p-Laplace operators and denoising flows for manifold-valued
functions on weighted graphs."""

from .errors import (ConfigError, DivergenceError, DomainError, FormatError,
                     InjectivityError, MvgraphError)
from .manifolds import (Circle, Euclidean, Manifold, ManifoldPoint, Spd,
                        Sphere2, TangentVector, from_kind)
from .fields import TangentEdgeFunction, TangentVertexField, VertexFunction
from .graphs import (WeightedGraph, epsilon_ball_graph, grid_graph,
                     knn_patch_graph, load_edges_tsv, save_edges_tsv)
from .calculus import (aniso_p_laplacian, directional_derivative, divergence,
                       edge_inner, edge_norm_pq, energy_aniso,
                       energy_gradient, energy_iso, grad_dist_pow,
                       grad_div_identity, gradient, iso_p_laplacian,
                       local_variation, residual, symmetric_map,
                       vertex_distance, vertex_norm_p)
from .solvers import SolveReport, SolverConfig, explicit_step, jacobi_step, solve
from .synthetics import (NoiseSpec, add_noise, fibonacci_sphere,
                         gen_phase_image, gen_s2_whirl, gen_spd_on_sphere,
                         mse, whirl_centers)
from .mvdio import (MvdFile, export_csv, export_ply, load_csv, load_mvd,
                    load_positions_tsv, save_mvd, save_positions_tsv)

__version__ = "0.1.0"

__all__ = [
    "MvgraphError", "ConfigError", "DomainError", "InjectivityError",
    "DivergenceError", "FormatError",
    "Manifold", "Euclidean", "Circle", "Sphere2", "Spd", "ManifoldPoint",
    "TangentVector", "from_kind",
    "VertexFunction", "TangentVertexField", "TangentEdgeFunction",
    "WeightedGraph", "grid_graph", "epsilon_ball_graph", "knn_patch_graph",
    "save_edges_tsv", "load_edges_tsv",
    "directional_derivative", "gradient", "divergence", "edge_inner",
    "edge_norm_pq", "local_variation", "grad_div_identity", "symmetric_map",
    "vertex_norm_p", "vertex_distance", "aniso_p_laplacian",
    "iso_p_laplacian", "energy_aniso", "energy_iso", "residual",
    "energy_gradient", "grad_dist_pow",
    "SolverConfig", "SolveReport", "explicit_step", "jacobi_step", "solve",
    "NoiseSpec", "add_noise", "mse", "gen_s2_whirl", "whirl_centers",
    "gen_phase_image", "gen_spd_on_sphere", "fibonacci_sphere",
    "MvdFile", "save_mvd", "load_mvd", "export_csv", "load_csv",
    "save_positions_tsv", "load_positions_tsv", "export_ply",
]
