"""Dynamical verification of computed graphs and the perturbation-stability bound.

Invariance: flow a manifold point forward with the full nonlinearity; the
arrival must sit back on the graph (relative to |x|) and inside the shrunken
ball.  Samples are drawn from the *small* ball of radius
(delta / C) * beta_tilde(s), where beta_tilde = beta * nu^-eps; that is the
region the invariance statement covers.  Every sampler takes a standard-library
``random.Random``: a direction is one ``gauss(0, 1)`` draw per component,
scaled to unit sum norm, and radii, times and tau are ``uniform`` draws.

Decay: two manifold trajectories separate no faster than
2 C (mu(t)/mu(s))^a nu(s)^eps |xi - xi_bar|.

``check_flows`` runs both checks on one flow: it validates all invariance
samples and decay pairs first, then flows the invariance samples followed by
both seeds of each pair in one batch (``nonlinear_flow_many``; every row
equals a one-sample flow bit for bit) and evaluates the graph at all start
points in one ``eval_phi_many`` call.  A blow-up raises for the first row in
that order, as a sample-by-sample loop over the invariance samples and then
the pairs would.  ``check_invariance`` and ``check_decay`` are its one-check
forms.

Perturbation stability: solving with f and f_bar at a common certified radius,
the graph distance sup |phi - phi_bar|_1 / |xi|_1 is bounded by
K * sup |f - f_bar|_1 / |u|_1^(q+1) with K = 4 * 3^(q+1) * C^(q+1) * D * delta^q.
The f-distance is reported as a sampled lower bound (resolution attached), so
a pass of the bound check is conservative.

All state norms here are sum norms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .dichotomy import DichotomyParams, LinearSystem
# nonlinear_flow (one sample) stays importable from this module, where
# perfbench/tracer.py wraps it; the checks below flow their samples in one batch
from .manifold import (ManifoldGraph, Perturbation, SolverConfig, eval_phi_many,
                       flow_steps, graph_metric_distance, nonlinear_flow,  # noqa: F401
                       nonlinear_flow_many, solve_manifold, solver_radius)
from .rates import GrowthRate

__all__ = ["InvarianceReport", "check_invariance", "DecayReport", "check_decay",
           "FlowReport", "check_flows",
           "PerturbationDistance", "perturbation_distance", "default_perturbation_samples",
           "PerturbationBoundReport", "check_perturbation_bound", "common_solver_config",
           "small_ball_radius",
           "random_invariance_samples", "random_decay_pairs", "stability_constant"]


def small_ball_radius(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                      s: float) -> float:
    """(delta / C) * beta_tilde(s): the certified invariance region at time s."""
    return float(graph.radius_fn(np.asarray(s, dtype=float))) / graph.C * math.exp(
        -params.eps * float(nu.log_eval(s)))


def _small_ball_point(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                      s: float, rng: random.Random) -> np.ndarray:
    """A point of the small ball at s: random direction, radius fraction in [0.05, 1)."""
    direction = np.array([rng.gauss(0.0, 1.0) for _ in range(graph.n_stable)])
    norm = np.abs(direction).sum()
    if norm == 0.0:
        direction = np.ones(graph.n_stable)
        norm = float(graph.n_stable)
    radius = small_ball_radius(graph, nu, params, s)
    return direction / norm * radius * float(rng.uniform(0.05, 1.0))


def random_invariance_samples(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                              n: int, tau_max: float, rng: random.Random
                              ) -> list[tuple[float, np.ndarray, float]]:
    """Draw (s, xi, tau) with xi in the small ball at s and tau in (0, tau_max]."""
    s_lo, s_hi = float(graph.s_grid[0]), float(graph.s_grid[-1])
    out = []
    for _ in range(n):
        s = float(rng.uniform(s_lo, s_hi))
        xi = _small_ball_point(graph, nu, params, s, rng)
        tau = float(rng.uniform(0.1, tau_max))
        out.append((s, xi, tau))
    return out


def random_decay_pairs(graph: ManifoldGraph, nu: GrowthRate, params: DichotomyParams,
                       n: int, tau_max: float, rng: random.Random
                       ) -> list[tuple[float, np.ndarray, np.ndarray, float]]:
    """Draw (s, xi, xi_bar, t) with both seeds in the small ball at s and t >= s."""
    samples = random_invariance_samples(graph, nu, params, n, tau_max, rng)
    out = []
    for s, xi, tau in samples:
        out.append((s, xi, _small_ball_point(graph, nu, params, s, rng), s + tau))
    return out


@dataclass(frozen=True)
class InvarianceReport:
    passed: bool
    max_residual: float
    all_within_radius: bool
    tol: float
    rows: tuple[dict, ...]


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    max_ratio: float
    tol: float
    rows: tuple[dict, ...]


@dataclass(frozen=True)
class FlowReport:
    """Both verdicts of one shared batch flow, with the work that flow did.

    ``rows`` counts the flowed samples, ``rk4_steps`` their steps
    (sum of ``flow_steps``) and ``step_rounds`` the rounds of the batched
    stepper (the largest per-row step count).
    """

    invariance: InvarianceReport
    decay: DecayReport
    rows: int
    rk4_steps: int
    step_rounds: int


def check_flows(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                samples: Sequence[tuple[float, np.ndarray, float]],
                pairs: Sequence[tuple[float, np.ndarray, np.ndarray, float]],
                h: float = 1e-3, tol: float = 1e-3) -> FlowReport:
    """Invariance on ``samples`` and decay on ``pairs``, from one batch flow.

    Invariance: each sample (s, xi, tau) must start inside the small ball (a
    violation is a caller error and raises).  The residual is
    |y(s+tau) - phi(s+tau, x(s+tau))|_1 / |x(s+tau)|_1 and the arrival must
    stay within the slice ball radius (1 + tol slack).

    Decay: each pair (s, xi, xi_bar, t) needs t >= s (else it raises); the
    separation at t must stay within 2C (mu(t)/mu(s))^a nu(s)^eps |xi - xi_bar|.
    Pairs with xi = xi_bar are skipped.

    Both sets are validated before anything flows.  The invariance samples,
    then both seeds of each decay pair, flow as the rows of one
    ``nonlinear_flow_many`` call, so a blow-up raises for the first invariance
    sample that blows up, else for the first decay seed.
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
    kept = []
    for s, xi, xi_bar, t in pairs:
        if t < s:
            raise ValueError("pair has t < s")
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        xi_bar = np.atleast_1d(np.asarray(xi_bar, dtype=float))
        seed_gap = float(np.abs(xi - xi_bar).sum())
        if seed_gap != 0.0:
            kept.append((s, t, xi, xi_bar, seed_gap))
    # rows m + 2i and m + 2i + 1 of the batch flow the two seeds of pair i
    m = len(samples)
    seeds = np.array([[xi, xi_bar] for _, _, xi, xi_bar, _ in kept],
                     dtype=float).reshape(2 * len(kept), n_e)
    s0 = np.concatenate([[s for s, _, _ in samples], np.repeat([p[0] for p in kept], 2)])
    tau = np.concatenate([[tau for _, _, tau in samples],
                          np.repeat([t - s for s, t, *_ in kept], 2)])
    xi0 = np.concatenate([xi_all, seeds])
    v0 = np.concatenate([xi0, eval_phi_many(graph, s0, xi0)], axis=1)
    t1, v1 = nonlinear_flow_many(system, pert, s0, v0, tau, h)

    x1, y1 = v1[:m, :n_e], v1[:m, n_e:]
    phi1 = eval_phi_many(graph, t1[:m], x1)
    inv_rows = []
    for b, (s, _, tau_b) in enumerate(samples):
        x1_norm = float(np.abs(x1[b]).sum())
        off_graph = float(np.abs(y1[b] - phi1[b]).sum())
        residual = off_graph / x1_norm if x1_norm > 0.0 else 0.0
        within = x1_norm <= float(graph.radius_fn(np.asarray(t1[b], dtype=float))) * (1.0 + tol)
        inv_rows.append({"s": s, "xi_norm": xi_norms[b], "tau": tau_b,
                         "residual": residual, "arrival_norm": x1_norm,
                         "within_radius": within})
    max_residual = max((r["residual"] for r in inv_rows), default=0.0)
    all_within = all(r["within_radius"] for r in inv_rows)
    inv = InvarianceReport(max_residual <= tol and all_within, max_residual, all_within,
                           tol, tuple(inv_rows))

    dec_rows = []
    for (s, t, _, _, seed_gap), va, vb in zip(kept, v1[m::2], v1[m + 1::2]):
        observed = float(np.abs(va - vb).sum())
        bound = 2.0 * graph.C * math.exp(
            params.a * (float(mu.log_eval(t)) - float(mu.log_eval(s)))
            + params.eps * float(nu.log_eval(s))) * seed_gap
        dec_rows.append({"s": s, "t": t, "seed_gap": seed_gap, "observed": observed,
                         "bound": bound, "ratio": observed / bound})
    max_ratio = max((r["ratio"] for r in dec_rows), default=0.0)
    dec = DecayReport(max_ratio <= 1.0 + tol, max_ratio, tol, tuple(dec_rows))

    steps = flow_steps(tau, h)
    return FlowReport(inv, dec, len(tau), int(steps.sum()), int(steps.max(initial=0)))


def check_invariance(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                     nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                     samples: Sequence[tuple[float, np.ndarray, float]],
                     h: float = 1e-3, tol: float = 1e-3) -> InvarianceReport:
    """Flow manifold points forward and measure how far they land off the graph
    (``check_flows`` without decay pairs)."""
    return check_flows(graph, system, mu, nu, params, pert, samples, (), h, tol).invariance


def check_decay(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                pairs: Sequence[tuple[float, np.ndarray, np.ndarray, float]],
                h: float = 1e-3, tol: float = 1e-3) -> DecayReport:
    """Check the two-trajectory separation bound 2C (mu(t)/mu(s))^a nu(s)^eps |xi - xi_bar|
    (``check_flows`` without invariance samples)."""
    return check_flows(graph, system, mu, nu, params, pert, (), pairs, h, tol).decay


# random directions of the perturbation-distance samples, besides the axis rays
_RANDOM_DIRECTIONS = 8


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
                                 rng: random.Random | None = None
                                 ) -> list[tuple[float, np.ndarray]]:
    """Dense t x direction x radius sample set, always including the axis rays,
    plus ``_RANDOM_DIRECTIONS`` random directions when ``rng`` is given.

    Axis directions matter: for componentwise perturbations the defining sup
    is typically attained on an axis, and omitting them silently underreports
    the distance.
    """
    directions = [np.eye(n)[i] * sign for i in range(n) for sign in (1.0, -1.0)]
    if rng is not None:
        for _ in range(_RANDOM_DIRECTIONS):
            d = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
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
    """Evaluate the order-(q+1) weighted sup distance on an explicit sample set.

    ``f`` and ``f_bar`` are perturbations or callables with the same batch
    contract; each is evaluated once on all samples with u != 0.
    """
    if len(samples) == 0:
        raise ValueError("empty sample set")
    f_fn = f.f if isinstance(f, Perturbation) else f
    g_fn = f_bar.f if isinstance(f_bar, Perturbation) else f_bar
    t = np.array([ts for ts, _ in samples], dtype=float)
    u = np.array([np.asarray(us, dtype=float) for _, us in samples])
    norms = np.abs(u).sum(axis=1)
    keep = norms != 0.0
    t, u, norms = t[keep], u[keep], norms[keep]
    gap = np.abs(f_fn(t, u) - g_fn(t, u)).sum(axis=1)
    worst = float((gap / norms ** (q + 1.0)).max(initial=0.0))
    t_seen = {round(tt, 12) for tt in t.tolist()}
    r_seen = {round(r, 12) for r in norms.tolist()}
    d_seen = {tuple(d) for d in np.round(u / norms[:, None], 12).tolist()}
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
    notes: tuple[str, ...] = ()


def common_solver_config(params: DichotomyParams, pert: Perturbation,
                         pert_bar: Perturbation, cfg: SolverConfig) -> SolverConfig:
    """``cfg`` at the one radius that f and f_bar are solved and compared at.

    C is that of ``cfg`` and delta = min(cfg.delta, delta_max at
    c = max(c_f, c_fbar)); delta_max decreases in c, so the solve of either
    perturbation is certified at it.  ValueError if the orders q differ.
    """
    if pert.q != pert_bar.q:
        raise ValueError("perturbation orders q must match for the stability bound")
    cap, certified = solver_radius(params, max(pert, pert_bar, key=lambda p: p.c),
                                   replace(cfg, delta=None))
    delta = certified if cfg.delta is None else min(cfg.delta, certified)
    return replace(cfg, delta=delta, C=cap)


def check_perturbation_bound(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                             params: DichotomyParams, pert: Perturbation,
                             pert_bar: Perturbation, cfg: SolverConfig,
                             rng: random.Random | None = None,
                             solved: tuple[ManifoldGraph, list[dict]] | None = None
                             ) -> PerturbationBoundReport:
    """Solve with f and f_bar at one common certified radius and compare graphs.

    Both graphs share the delta and C of ``common_solver_config``, hence
    identical slice radii, so node values are directly comparable.
    ``solved`` is an optional (graph, history) of ``pert`` already solved at
    that delta and C; it stands in for the f solve, so only f_bar is solved.
    A ``solved`` graph at another delta or C raises ValueError.  Without
    ``solved`` both are solved here.  A ``cfg.beta_fn`` serves both solves,
    which then share their tail integrals.
    """
    common_cfg = common_solver_config(params, pert, pert_bar, cfg)
    if solved is None:
        graph, _ = solve_manifold(system, mu, nu, params, pert, common_cfg)
    elif (solved[0].delta, solved[0].C) != (common_cfg.delta, common_cfg.C):
        raise ValueError(f"solved graph has delta={solved[0].delta!r}, C={solved[0].C!r}; "
                         f"the comparison needs delta={common_cfg.delta!r}, "
                         f"C={common_cfg.C!r}")
    else:
        graph = solved[0]
    graph_bar, _ = solve_manifold(system, mu, nu, params, pert_bar, common_cfg)
    gd = graph_metric_distance(graph.values, graph_bar.values, graph)
    radii = [0.25, 0.5, 1.0]
    samples = default_perturbation_samples(system.n, graph.s_grid.tolist(), radii, rng)
    fd = perturbation_distance(pert, pert_bar, pert.q, samples)
    k = stability_constant(pert.q, graph.C, params.D, graph.delta)
    notes = ("f-distance is a sampled lower bound; the pass verdict is conservative",)
    quotient = gd / fd.value if fd.value > 0.0 else math.inf if gd > 0.0 else 0.0
    return PerturbationBoundReport(gd <= k * fd.value, gd, fd, k, float(graph.delta),
                                   quotient, notes)
