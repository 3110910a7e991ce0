"""Stable manifolds of nonautonomous systems under nonuniform dichotomies.

The package computes local stable-manifold graphs by a contraction iteration
on discretized graph functions, certifies the linear part's dichotomy bounds
numerically, and checks the admissibility quantities (radius function beta,
tail integrals, perturbation-size limits) that make the construction valid.
"""
from .errors import (BlowupError, ConfigError, ContractionError, ConvergenceError,
                     DecayBoundError, DivergenceError, LipschitzError, NumericalError,
                     TailBoundError)
from .expr import ExpressionError, compile_expression
from .quadrature import (adaptive_simpson, adaptive_simpson_many, composite_simpson,
                         cumulative_simpson)
from .linalg import rk4_propagate, rk4_step, spectral_norm
from .rates import (BUILTIN_FAMILIES, AxiomReport, GrowthRate, builtin_rate,
                    check_growth_axioms, expression_rate)
from .dichotomy import (DichotomyCertificate, DichotomyParams, LinearSystem, matrix_system,
                        pair_grid, rate_power_system, sharp_oscillating_system,
                        sharpness_probe, transition, transition_inverse, verify_dichotomy)
from .admissibility import (BetaFunction, LimitCheck, MonotonicityCheck, TailBoundInfo,
                            analytic_tail_bound, check_limit_condition, check_monotonicity,
                            closed_form_beta, default_capacity, delta_max, delta_max_bounds,
                            improper_rate_integral, improper_rate_integrals)
from .manifold import (ManifoldGraph, Perturbation, SolverConfig, apply_phi_operator,
                       check_vanishes_at_origin, cubic_perturbation, eval_phi_many,
                       expression_perturbation, graph_metric_distance, nonlinear_flow,
                       nonlinear_flow_many, outer_contraction_factor, solve_manifold,
                       solver_radius)
from .verify import (DecayReport, FlowReport, InvarianceReport, PerturbationBoundReport,
                     PerturbationDistance, check_decay, check_flows, check_invariance,
                     check_perturbation_bound, common_solver_config,
                     default_perturbation_samples,
                     perturbation_distance, random_decay_pairs,
                     random_invariance_samples, small_ball_radius, stability_constant)
from .config import (build_comparison, build_params, build_perturbation, build_rate,
                     build_rates, build_solver_config, build_system, resolve_config)

__version__ = "0.2.0"

__all__ = [
    "AxiomReport", "BUILTIN_FAMILIES", "BetaFunction", "BlowupError", "ConfigError",
    "ContractionError", "ConvergenceError", "DecayBoundError", "DecayReport",
    "DichotomyCertificate", "DichotomyParams", "DivergenceError", "ExpressionError",
    "FlowReport", "GrowthRate", "InvarianceReport", "LimitCheck", "LinearSystem", "LipschitzError",
    "ManifoldGraph", "MonotonicityCheck", "NumericalError", "Perturbation",
    "PerturbationBoundReport", "PerturbationDistance", "SolverConfig", "TailBoundError",
    "TailBoundInfo", "adaptive_simpson", "adaptive_simpson_many", "analytic_tail_bound",
    "apply_phi_operator", "build_comparison", "build_params", "build_perturbation",
    "build_rate", "build_rates", "build_solver_config", "build_system",
    "builtin_rate", "check_decay", "check_flows", "check_growth_axioms", "check_invariance",
    "check_limit_condition", "check_monotonicity", "check_perturbation_bound",
    "check_vanishes_at_origin", "closed_form_beta", "common_solver_config",
    "compile_expression", "composite_simpson",
    "cubic_perturbation", "cumulative_simpson",
    "default_capacity", "default_perturbation_samples", "delta_max",
    "delta_max_bounds", "eval_phi_many", "expression_perturbation",
    "expression_rate", "graph_metric_distance",
    "improper_rate_integral", "improper_rate_integrals",
    "matrix_system",
    "nonlinear_flow", "nonlinear_flow_many", "outer_contraction_factor", "pair_grid",
    "perturbation_distance", "random_decay_pairs", "random_invariance_samples",
    "rate_power_system", "resolve_config", "rk4_propagate", "rk4_step",
    "sharp_oscillating_system", "sharpness_probe", "small_ball_radius",
    "solve_manifold", "solver_radius", "spectral_norm", "stability_constant",
    "transition", "transition_inverse", "verify_dichotomy", "__version__",
]
