"""Dynamical verification of computed graphs and the perturbation-stability bound.

Invariance: flow a manifold point forward with the full nonlinearity; the
arrival must sit back on the graph (relative to |x|) and inside the shrunken
ball.  Samples are drawn from the *small* ball of radius
(delta / C) * beta_tilde(s), where beta_tilde = beta * nu^-eps; that is the
region the invariance statement covers.

Decay: two manifold trajectories separate no faster than
2 C (mu(t)/mu(s))^a nu(s)^eps |xi - xi_bar|.

Each check validates all its samples first, then flows them in one batch
(``nonlinear_flow_many``; every row equals a one-sample flow bit for bit) and
evaluates the graph at all start and arrival points in one ``eval_phi_many``
call each.  A blow-up raises for the first sample in sample order, as a
sample-by-sample loop would.

Perturbation stability: solving with f and f_bar at a common certified radius,
the graph distance sup |phi - phi_bar|_1 / |xi|_1 is bounded by
K * sup |f - f_bar|_1 / |u|_1^(q+1) with K = 4 * 3^(q+1) * C^(q+1) * D * delta^q.
The f-distance is reported as a sampled lower bound (resolution attached), so
a pass of the bound check is conservative.

All state norms here are sum norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .admissibility import default_capacity, delta_max
from .dichotomy import DichotomyParams, LinearSystem
# nonlinear_flow (one sample) stays importable from this module, where
# perfbench/tracer.py wraps it; the checks below flow their samples in one batch
from .manifold import (ManifoldGraph, Perturbation, SolverConfig, eval_phi_many,
                       graph_metric_distance, nonlinear_flow,  # noqa: F401
                       nonlinear_flow_many, solve_manifold)
from .rates import GrowthRate

__all__ = ["InvarianceReport", "check_invariance", "DecayReport", "check_decay",
           "PerturbationDistance", "perturbation_distance", "default_perturbation_samples",
           "PerturbationBoundReport", "check_perturbation_bound", "small_ball_radius",
           "random_invariance_samples", "random_decay_pairs", "stability_constant"]


def small_ball_radius(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                      s: float) -> float:
    """(delta / C) * beta_tilde(s): the certified invariance region at time s."""
    return float(graph.radius_fn(np.asarray(s, dtype=float))) / graph.C * math.exp(
        -params.eps * float(nu.log_eval(s)))


def random_invariance_samples(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                              n: int, tau_max: float, rng: np.random.Generator
                              ) -> list[tuple[float, np.ndarray, float]]:
    """Draw (s, xi, tau) with xi in the small ball at s and tau in (0, tau_max]."""
    s_lo, s_hi = float(graph.s_grid[0]), float(graph.s_grid[-1])
    out = []
    for _ in range(n):
        s = float(rng.uniform(s_lo, s_hi))
        direction = rng.standard_normal(graph.n_stable)
        norm = np.abs(direction).sum()
        if norm == 0.0:
            direction = np.ones(graph.n_stable)
            norm = float(graph.n_stable)
        radius = small_ball_radius(graph, nu, params, s)
        xi = direction / norm * radius * float(rng.uniform(0.05, 1.0))
        tau = float(rng.uniform(0.1, tau_max))
        out.append((s, xi, tau))
    return out


def random_decay_pairs(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                       n: int, tau_max: float, rng: np.random.Generator
                       ) -> list[tuple[float, np.ndarray, np.ndarray, float]]:
    """Draw (s, xi, xi_bar, t) with both seeds in the small ball at s and t >= s."""
    samples = random_invariance_samples(graph, nu, params, n, tau_max, rng)
    out = []
    for s, xi, tau in samples:
        direction = rng.standard_normal(graph.n_stable)
        norm = np.abs(direction).sum()
        if norm == 0.0:
            direction = np.ones(graph.n_stable)
            norm = float(graph.n_stable)
        radius = small_ball_radius(graph, nu, params, s)
        xi_bar = direction / norm * radius * float(rng.uniform(0.05, 1.0))
        out.append((s, xi, xi_bar, s + tau))
    return out


def _flow_from_graph(graph: ManifoldGraph, system: LinearSystem, pert: Perturbation,
                     s: np.ndarray, xi: np.ndarray, tau: np.ndarray, h: float):
    """Flow the graph points (s[b], xi[b], phi(s[b], xi[b])) for tau[b], all in one batch."""
    v0 = np.concatenate([xi, eval_phi_many(graph, s, xi)], axis=1)
    return nonlinear_flow_many(system, pert, s, v0, tau, h)


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    max_residual: float
    all_within_radius: bool
    tol: float
    rows: tuple[dict, ...]


def check_invariance(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                     nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                     samples: Sequence[tuple[float, np.ndarray, float]],
                     h: float = 1e-3, tol: float = 1e-3) -> InvarianceReport:
    """Flow manifold points forward and measure how far they land off the graph.

    Each sample (s, xi, tau) must start inside the small ball (a violation is
    a caller error and raises).  The residual is
    |y(s+tau) - phi(s+tau, x(s+tau))|_1 / |x(s+tau)|_1 and the arrival must
    stay within the slice ball radius (1 + tol slack).
    """
    n_e = graph.n_stable
    xi_all = np.array([np.atleast_1d(np.asarray(xi, dtype=float)) for _, xi, _ in samples],
                      dtype=float).reshape(len(samples), n_e)
    xi_norms = [float(np.abs(xi).sum()) for xi in xi_all]
    for (s, _, _), xi_norm in zip(samples, xi_norms):
        allowed = small_ball_radius(graph, nu, params, s)
        if xi_norm > allowed * (1.0 + 1e-9):
            raise ValueError(
                f"sample (s={s:g}, |xi|={xi_norm:g}) outside the small ball {allowed:g}")
    t1, v1 = _flow_from_graph(graph, system, pert, np.array([s for s, _, _ in samples]),
                              xi_all, np.array([tau for _, _, tau in samples]), h)
    x1, y1 = v1[:, :n_e], v1[:, n_e:]
    phi1 = eval_phi_many(graph, t1, x1)
    rows = []
    for b, (s, _, tau) in enumerate(samples):
        x1_norm = float(np.abs(x1[b]).sum())
        off_graph = float(np.abs(y1[b] - phi1[b]).sum())
        residual = off_graph / x1_norm if x1_norm > 0.0 else 0.0
        within = x1_norm <= float(graph.radius_fn(np.asarray(t1[b], dtype=float))) * (1.0 + tol)
        rows.append({"s": s, "xi_norm": xi_norms[b], "tau": tau,
                     "residual": residual, "arrival_norm": x1_norm, "within_radius": within})
    max_residual = max((r["residual"] for r in rows), default=0.0)
    all_within = all(r["within_radius"] for r in rows)
    return InvarianceReport(max_residual <= tol and all_within, max_residual, all_within,
                            tol, tuple(rows))


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    max_ratio: float
    tol: float
    rows: tuple[dict, ...]


def check_decay(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                pairs: Sequence[tuple[float, np.ndarray, np.ndarray, float]],
                h: float = 1e-3, tol: float = 1e-3) -> DecayReport:
    """Check the two-trajectory separation bound 2C (mu(t)/mu(s))^a nu(s)^eps |xi - xi_bar|."""
    kept = []
    for s, xi, xi_bar, t in pairs:
        if t < s:
            raise ValueError("pair has t < s")
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        xi_bar = np.atleast_1d(np.asarray(xi_bar, dtype=float))
        seed_gap = float(np.abs(xi - xi_bar).sum())
        if seed_gap != 0.0:
            kept.append((s, t, xi, xi_bar, seed_gap))
    # rows 2i and 2i+1 of the batch flow the two seeds of pair i
    seeds = np.array([[xi, xi_bar] for _, _, xi, xi_bar, _ in kept],
                     dtype=float).reshape(2 * len(kept), graph.n_stable)
    _, v = _flow_from_graph(graph, system, pert, np.repeat([p[0] for p in kept], 2), seeds,
                            np.repeat([t - s for s, t, *_ in kept], 2), h)
    rows = []
    for (s, t, _, _, seed_gap), v1, v2 in zip(kept, v[0::2], v[1::2]):
        observed = float(np.abs(v1 - v2).sum())
        bound = 2.0 * graph.C * math.exp(
            params.a * (float(mu.log_eval(t)) - float(mu.log_eval(s)))
            + params.eps * float(nu.log_eval(s))) * seed_gap
        rows.append({"s": s, "t": t, "seed_gap": seed_gap, "observed": observed,
                     "bound": bound, "ratio": observed / bound})
    max_ratio = max((r["ratio"] for r in rows), default=0.0)
    return DecayReport(max_ratio <= 1.0 + tol, max_ratio, tol, tuple(rows))


@dataclass(frozen=True)
class PerturbationDistance:
    """Sampled lower bound of sup |f(t,u) - g(t,u)|_1 / |u|_1^(q+1)."""

    value: float
    n_samples: int
    t_count: int
    direction_count: int
    radius_count: int


def default_perturbation_samples(n: int, t_grid: Sequence[float],
                                 radii: Sequence[float],
                                 rng: np.random.Generator | None = None,
                                 n_random_directions: int = 8
                                 ) -> list[tuple[float, np.ndarray]]:
    """Dense t x direction x radius sample set, always including the axis rays.

    Axis directions matter: for componentwise perturbations the defining sup
    is typically attained on an axis, and omitting them silently underreports
    the distance.
    """
    directions = [np.eye(n)[i] * sign for i in range(n) for sign in (1.0, -1.0)]
    if rng is not None:
        for _ in range(n_random_directions):
            d = rng.standard_normal(n)
            norm = np.abs(d).sum()
            if norm > 0.0:
                directions.append(d / norm)
    samples = []
    for t in t_grid:
        for d in directions:
            for r in radii:
                samples.append((float(t), d * float(r)))
    return samples


def perturbation_distance(f: Perturbation | Callable, f_bar: Perturbation | Callable,
                          q: float, samples: Sequence[tuple[float, np.ndarray]]
                          ) -> PerturbationDistance:
    """Evaluate the order-(q+1) weighted sup distance on an explicit sample set."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    f_fn = f.f if isinstance(f, Perturbation) else f
    g_fn = f_bar.f if isinstance(f_bar, Perturbation) else f_bar
    worst = 0.0
    t_seen, d_seen, r_seen = set(), set(), set()
    for t, u in samples:
        u = np.asarray(u, dtype=float)
        norm = float(np.abs(u).sum())
        if norm == 0.0:
            continue
        gap = float(np.abs(np.asarray(f_fn(t, u)) - np.asarray(g_fn(t, u))).sum())
        worst = max(worst, gap / norm ** (q + 1.0))
        t_seen.add(round(t, 12))
        r_seen.add(round(norm, 12))
        d_seen.add(tuple(np.round(u / norm, 12)))
    return PerturbationDistance(worst, len(samples), len(t_seen), len(d_seen), len(r_seen))


def stability_constant(q: float, C: float, D: float, delta: float) -> float:
    """K = 4 * 3^(q+1) * C^(q+1) * D * delta^q in the graph-vs-perturbation bound."""
    return 4.0 * 3.0 ** (q + 1.0) * C ** (q + 1.0) * D * delta ** q


@dataclass(frozen=True)
class PerturbationBoundReport:
    passed: bool
    graph_distance: float
    f_distance: PerturbationDistance
    stability_k: float
    delta: float
    quotient: float
    history: tuple[tuple[dict, ...], tuple[dict, ...]]
    notes: tuple[str, ...] = ()


def check_perturbation_bound(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                             params: DichotomyParams, pert: Perturbation,
                             pert_bar: Perturbation, cfg: SolverConfig,
                             samples: Sequence[tuple[float, np.ndarray]] | None = None,
                             rng: np.random.Generator | None = None,
                             solved: tuple[ManifoldGraph, list[dict]] | None = None
                             ) -> PerturbationBoundReport:
    """Solve with f and f_bar at one common certified radius and compare graphs.

    Both solves share delta = min(requested, delta_max at c = max(c_f, c_fbar)),
    hence identical slice radii, so node values are directly comparable.
    ``solved`` is an optional (graph, history) of ``pert`` already solved
    under ``cfg``; it stands in for the f solve when its delta and C equal the
    common ones, which is then exactly the solve it saves.
    """
    if pert.q != pert_bar.q:
        raise ValueError("perturbation orders q must match for the stability bound")
    cap = cfg.C if cfg.C is not None else default_capacity(params.D)
    c_common = max(pert.c, pert_bar.c)
    certified = delta_max(c_common, pert.q, cap, params.D, cfg.delta_cap)
    delta = certified if cfg.delta is None else min(cfg.delta, certified)
    common_cfg = replace(cfg, delta=delta, C=cap)
    if solved is not None and solved[0].delta == delta and solved[0].C == cap:
        graph, hist = solved
    else:
        graph, hist = solve_manifold(system, mu, nu, params, pert, common_cfg)
    graph_bar, hist_bar = solve_manifold(system, mu, nu, params, pert_bar, common_cfg)
    gd = graph_metric_distance(graph.values, graph_bar.values, graph)
    if samples is None:
        t_grid = [float(s) for s in graph.s_grid]
        radii = [0.25, 0.5, 1.0]
        samples = default_perturbation_samples(system.n, t_grid, radii, rng)
    fd = perturbation_distance(pert, pert_bar, pert.q, samples)
    k = stability_constant(pert.q, graph.C, params.D, graph.delta)
    notes = ("f-distance is a sampled lower bound; the pass verdict is conservative",)
    quotient = gd / fd.value if fd.value > 0.0 else math.inf if gd > 0.0 else 0.0
    return PerturbationBoundReport(gd <= k * fd.value, gd, fd, k, float(graph.delta),
                                   quotient, (tuple(hist), tuple(hist_bar)), notes)
