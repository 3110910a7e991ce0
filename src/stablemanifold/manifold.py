"""Local stable-manifold graphs via the Lyapunov-Perron fixed point.

The graph phi : (s, xi) -> eta lives on shrinking balls of radius
delta * beta(s) in the stable block.  One outer iteration maps the current
graph through::

    (Phi phi)(s, xi) = - integral_s^inf V(r,s)^-1 f_F(r, x(r), phi(r, x(r))) dr

where x is the inner trajectory solving the variation-of-constants equation

    x(t) = U(t,s) xi + integral_s^t U(t,r) f_E(r, x(r), phi(r, x(r))) dr

by Picard sweeps (cumulative Simpson on the integrand; the scalar cocycle
U(t,r) = U(t,s)/U(r,s) of block-scalar systems makes a sweep O(N)); matrix
systems step it in differential form with projected RK4.  The nodes of a slice
are solved together in chunks of max(1, 4096 // len(t_grid)); a node leaves
the sweep at its own tolerance, so its value matches a solve of that node
alone bit for bit.  Each node path is checked against its decay envelope.
The slice tables (truncation point, grid, propagator factors, envelope)
depend only on the slice radii: ``solve_manifold`` builds them once and
drops them when it returns.

Graphs are stored per s-slice on a shared tensor lattice in normalized
coordinates; evaluation is multilinear per slice, linear in s between slices,
clamped radially to the slice ball (the unique Lipschitz extension beyond the
ball takes the boundary value along the ray).  Beyond the last slice the last
values are reused with the radius continued by the closed-form beta shape when
one exists, log-linearly otherwise.

``nonlinear_flow_many`` integrates the full nonlinear system for a batch of
samples at once, each with its own start time and duration; ``nonlinear_flow``
is its one-sample form.  It, the inner-grid stepper and ``linalg.rk4_propagate``
share one RK4 step, ``linalg.rk4_step``.

Norms on state blocks are sum norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .admissibility import BetaFunction, analytic_tail_bound, default_capacity, delta_max
from .dichotomy import DichotomyParams, LinearSystem
from .errors import (BlowupError, ContractionError, ConvergenceError, DecayBoundError,
                     DivergenceError, LipschitzError, NumericalError, TailBoundError)
from .expr import compile_expression
from .linalg import rk4_step
from .quadrature import adaptive_simpson, composite_simpson, cumulative_simpson
from .rates import GrowthRate

__all__ = ["Perturbation", "cubic_perturbation", "expression_perturbation",
           "ManifoldGraph", "SolverConfig", "eval_phi", "eval_phi_many",
           "InnerTrajectory", "inner_trajectory", "apply_phi_operator",
           "solve_manifold", "nonlinear_flow", "nonlinear_flow_many",
           "outer_contraction_factor", "graph_metric_distance"]

# inner-grid samples per chunk of nodes: bounds every (nodes, grid, state) array
_CHUNK_SAMPLES = 4096


@dataclass(frozen=True)
class Perturbation:
    """Nonlinearity f(t, v) vanishing at v = 0 with |f(t,u)-f(t,v)| <= c|u-v|(|u|+|v|)^q.

    ``f`` maps (t, v in R^n) -> R^n; ``batch`` (optional) evaluates a whole
    time/state sample block at once and exists purely for speed.
    """

    f: Callable[[float, np.ndarray], np.ndarray]
    c: float
    q: float
    label: str = ""
    f_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"perturbation constant c must be positive, got {self.c}")
        if not self.q >= 1.0:
            raise ValueError(f"perturbation order q must be >= 1, got {self.q}")

    def batch(self, t: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.f_batch is not None:
            return self.f_batch(t, v)
        return np.asarray([self.f(float(tt), vv) for tt, vv in zip(t, v)], dtype=float)


def cubic_perturbation(coef: float, n: int = 2) -> Perturbation:
    """f(t, v) = (0, ..., 0, coef * v_1^3): order-3 forcing of the last component."""
    if n < 2:
        raise ValueError("cubic perturbation needs n >= 2")

    def f(t: float, v: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        out[-1] = coef * v[0] ** 3
        return out

    def f_batch(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[:, -1] = coef * v[:, 0] ** 3
        return out

    return Perturbation(f, c=abs(coef), q=2.0, label=f"cubic(coef={coef:g})", f_batch=f_batch)


def expression_perturbation(components: Sequence[str], c: float, q: float,
                            label: str = "") -> Perturbation:
    """Componentwise formulas in variables t, u1..un (n = number of components)."""
    n = len(components)
    names = ("t",) + tuple(f"u{i + 1}" for i in range(n))
    fns = [compile_expression(text, variables=names) for text in components]

    def env_for(t, v):
        env = {"t": t}
        for i in range(n):
            env[f"u{i + 1}"] = v[..., i]
        return env

    def f(t: float, v: np.ndarray) -> np.ndarray:
        env = env_for(t, np.asarray(v, dtype=float))
        return np.array([float(fn(**env)) for fn in fns])

    def f_batch(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        env = env_for(np.asarray(t, dtype=float), np.asarray(v, dtype=float))
        cols = [np.broadcast_to(np.asarray(fn(**env), dtype=float), t.shape) for fn in fns]
        return np.stack(cols, axis=1)

    return Perturbation(f, c=c, q=q, label=label or f"expr({', '.join(components)})",
                        f_batch=f_batch)


def outer_contraction_factor(c: float, q: float, C: float, D: float, delta: float) -> float:
    """Certified contraction factor of the graph operator on the node metric."""
    return 2.0 ** (q + 2.0) * 3.0 ** q * c * C ** (q + 1.0) * D * delta ** q


def _build_lattice(n_axes: int, nodes_per_axis: int):
    if nodes_per_axis < 3 or nodes_per_axis % 2 == 0:
        raise ValueError("nodes_per_axis must be an odd integer >= 3")
    axis = np.linspace(-1.0, 1.0, nodes_per_axis)
    grids = np.meshgrid(*([axis] * n_axes), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    l1 = np.abs(pts).sum(axis=1)
    in_ball = l1 <= 1.0 + 1e-12
    targets = pts.copy()
    outside = ~in_ball
    targets[outside] = pts[outside] / l1[outside, None]
    return pts, in_ball, targets


@dataclass
class ManifoldGraph:
    """Discrete graph phi on s-slices sharing one normalized node lattice.

    ``values[k, j]`` is phi at slice s_grid[k], node ``radii[k] * unit_lattice[j]``
    (clamped to the slice ball for the few lattice corners outside it).
    """

    s_grid: np.ndarray
    radii: np.ndarray
    unit_lattice: np.ndarray
    in_ball: np.ndarray
    targets_unit: np.ndarray
    values: np.ndarray
    n_stable: int
    n_unstable: int
    delta: float
    C: float
    nodes_per_axis: int
    radius_fn: Callable[[np.ndarray], np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def n_slices(self) -> int:
        return len(self.s_grid)

    def node_points(self, k: int) -> np.ndarray:
        """Physical node targets of slice k (out-of-ball corners clamped)."""
        return self.targets_unit * self.radii[k]


def _slice_eval(graph: ManifoldGraph, k_arr: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Evaluate per-point slice interpolants: xi (N, n_E) at slices k_arr (N,)."""
    m = graph.nodes_per_axis
    d = graph.n_stable
    rho = graph.radii[k_arr]
    u = xi / rho[:, None]
    l1 = np.abs(u).sum(axis=1)
    over = l1 > 1.0
    if np.any(over):
        u = u.copy()
        u[over] /= l1[over, None]
    pos = (u + 1.0) * (0.5 * (m - 1))
    i0 = np.floor(pos).astype(np.int64)
    np.clip(i0, 0, m - 2, out=i0)
    frac = pos - i0
    out = np.zeros((len(u), graph.n_unstable))
    for corner in range(2 ** d):
        w = np.ones(len(u))
        flat = np.zeros(len(u), dtype=np.int64)
        for axis in range(d):
            bit = (corner >> axis) & 1
            flat = flat * m + (i0[:, axis] + bit)
            w = w * (frac[:, axis] if bit else 1.0 - frac[:, axis])
        out += graph.values[k_arr, flat] * w[:, None]
    return out


def eval_phi_many(graph: ManifoldGraph, t: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Vectorized graph evaluation at times t (N,) and stable points xi (N, n_E)."""
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    s_grid = graph.s_grid
    rho_t = np.asarray(graph.radius_fn(t), dtype=float)
    norms = np.abs(xi).sum(axis=1)
    scale = np.ones_like(norms)
    over = norms > rho_t
    scale[over] = rho_t[over] / norms[over]
    xi_c = xi * scale[:, None]
    if len(s_grid) == 1:
        return _slice_eval(graph, np.zeros(len(t), dtype=np.int64), xi_c)
    idx = np.searchsorted(s_grid, t, side="right") - 1
    np.clip(idx, 0, len(s_grid) - 1, out=idx)
    idx2 = np.minimum(idx + 1, len(s_grid) - 1)
    den = s_grid[idx2] - s_grid[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(den > 0.0, (t - s_grid[idx]) / np.where(den > 0.0, den, 1.0), 0.0)
    np.clip(w, 0.0, 1.0, out=w)
    lo = _slice_eval(graph, idx, xi_c)
    hi = _slice_eval(graph, idx2, xi_c)
    return lo * (1.0 - w[:, None]) + hi * w[:, None]


def eval_phi(graph: ManifoldGraph, s: float, xi) -> np.ndarray:
    """Graph value phi(s, xi); xi may be a scalar when the stable block is 1-D."""
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float)).reshape(1, graph.n_stable)
    return eval_phi_many(graph, np.array([float(s)]), xi_arr)[0]


def _assemble_state(x: np.ndarray, phi_vals: np.ndarray) -> np.ndarray:
    return np.concatenate([x, phi_vals], axis=1)


@dataclass(frozen=True)
class InnerTrajectory:
    t: np.ndarray
    x: np.ndarray
    sweeps: int
    max_decay_ratio: float


@dataclass(frozen=True)
class _SliceTable:
    """Inner grid and propagator tables of one s-slice, shared by its node paths."""

    s: float
    t: np.ndarray               # uniform grid from s to the truncation point
    h: float                    # its step
    u: np.ndarray | None        # U(t, s) on closed-form systems
    v_inv: np.ndarray | None    # V(t, s)^-1: scalars, or the (T, n, n) table Q(s) T(s, t)
    envelope: np.ndarray        # C (mu(t)/mu(s))^a nu(s)^eps: decay bound per unit |xi|_1


def _slice_table(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                 params: DichotomyParams, C: float, s: float, t_max: float, h: float,
                 outer: bool = True) -> _SliceTable:
    n = max(2, int(math.ceil((t_max - s) / h)))
    h_eff = (t_max - s) / n
    t_grid = s + h_eff * np.arange(n + 1)
    v_inv = _unstable_inverse_factors(system, s, t_grid) if outer else None
    u = None
    if system.form == "closed_form":
        u = np.asarray(system.U(t_grid, s), dtype=float)
        if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
            raise NumericalError("stable propagator under/overflowed on the inner grid; "
                                 "shorten the integration horizon")
    log_b = params.a * (np.asarray(mu.log_eval(t_grid), dtype=float) - float(mu.log_eval(s)))
    envelope = C * np.exp(log_b + params.eps * float(nu.log_eval(s)))
    return _SliceTable(s, t_grid, h_eff, u, v_inv, envelope)


def _forcing(graph: ManifoldGraph, pert: Perturbation, t_grid: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """f(t, x, phi(t, x)) along node paths x (B, T, n_E) on the grid t_grid (T,)."""
    t = np.tile(t_grid, len(x))
    flat = x.reshape(len(t), -1)
    fv = pert.batch(t, _assemble_state(flat, eval_phi_many(graph, t, flat)))
    return fv.reshape(x.shape[:2] + (-1,))


def _node_paths(graph: ManifoldGraph, system: LinearSystem, pert: Perturbation,
                table: _SliceTable, xi: np.ndarray, picard_tol: float,
                max_sweeps: int = 80) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner paths x (B, T, n_E) of the nodes xi (B, n_E), f along them, sweeps per node.

    Closed-form systems sweep the whole chunk; a node leaves once its own sweep
    distance is <= picard_tol and keeps that sweep's f-values if the sweep left
    its path unchanged bit for bit.  Matrix systems step the chunk with RK4.
    """
    n_b, n_e = xi.shape
    if system.form != "closed_form":
        proj_t = system.P(table.s).T

        def deriv(tt: float, states: np.ndarray) -> np.ndarray:
            t = np.full(len(states), tt)
            stable = states[:, :n_e]
            full = _assemble_state(stable, eval_phi_many(graph, t, stable))
            return states @ system.A(tt).T + pert.batch(t, full) @ proj_t

        def project(states: np.ndarray) -> None:
            states[:, n_e:] = 0.0

        start = np.zeros((n_b, system.n))
        start[:, :n_e] = xi
        paths = _rk4_grid(deriv, table.t, start, project)
        x = np.ascontiguousarray(np.moveaxis(paths[..., :n_e], 1, 0))
        return x, _forcing(graph, pert, table.t, x), np.ones(n_b, dtype=np.int64)
    u = table.u[:, None]
    x = u * xi[:, None, :]
    fv = np.empty(x.shape[:2] + (system.n,))
    sweeps = np.zeros(n_b, dtype=np.int64)
    active = np.arange(n_b)
    stale: list[int] = []
    for sweep in range(1, max_sweeps + 1):
        x_old = x[active]
        fv_old = _forcing(graph, pert, table.t, x_old)
        cum = cumulative_simpson(np.moveaxis(fv_old[..., :n_e] / u, 1, 0), table.h)
        x_new = u * (xi[active, None, :] + np.moveaxis(cum, 1, 0))
        done = np.abs(x_new - x_old).max(axis=(1, 2)) <= picard_tol
        same = (x_new.view(np.int64) == x_old.view(np.int64)).all(axis=(1, 2))
        x[active] = x_new
        fv[active[done & same]] = fv_old[done & same]
        stale.extend(active[done & ~same])
        sweeps[active[done]] = sweep
        active = active[~done]
        if not active.size:
            if stale:
                fv[stale] = _forcing(graph, pert, table.t, x[stale])
            return x, fv, sweeps
    raise ConvergenceError(f"inner Picard sweeps stalled above tolerance {picard_tol:g}")


def _check_decay(table: _SliceTable, x: np.ndarray, xi: np.ndarray, slack: float,
                 first_node: int = 0) -> float:
    """Worst ratio of |x(t)|_1 to the decay envelope of the paths x (B, T, n_E).

    A ratio above ``slack`` raises DecayBoundError naming s, node and ratio.
    """
    xi_norm = np.abs(xi).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(x).sum(axis=2) / (table.envelope * xi_norm[:, None])
    worst = np.where(xi_norm > 0.0, ratios.max(axis=1), 0.0)
    bad = np.flatnonzero(~(worst <= slack))
    if bad.size:
        b = int(bad[0])
        j = int(np.argmax(ratios[b]))
        raise DecayBoundError(
            f"inner trajectory from s={table.s:g}, node {first_node + b} "
            f"(|xi|={xi_norm[b]:g}) broke its decay envelope: ratio {worst[b]:.6f} "
            f"at t={table.t[j]:g} (slack {slack:g})",
            s=table.s, node=first_node + b, ratio=float(worst[b]))
    return float(worst.max())


def inner_trajectory(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                     nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                     s: float, xi, t_max: float, h: float, picard_tol: float = 1e-10,
                     decay_slack: float = 1.05) -> InnerTrajectory:
    """Trajectory through (s, xi) in the stable block, coupled to the current graph.

    Requires |xi|_1 <= delta * beta(s) (the slice ball).  The accepted
    trajectory must respect |x(t)|_1 <= C (mu(t)/mu(s))^a nu(s)^eps |xi|_1 up
    to ``decay_slack``; a violation raises DecayBoundError, which signals
    either an oversized delta or a bad graph iterate.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float)).reshape(1, graph.n_stable)
    xi_norm = float(np.abs(xi).sum())
    rho_s = float(graph.radius_fn(np.asarray(s, dtype=float)))
    if xi_norm > rho_s * (1.0 + 1e-9):
        raise ValueError(f"|xi|={xi_norm:g} outside the slice ball of radius {rho_s:g}")
    if t_max <= s:
        raise ValueError("t_max must exceed s")
    table = _slice_table(system, mu, nu, params, graph.C, s, t_max, h, outer=False)
    x, _, sweeps = _node_paths(graph, system, pert, table, xi, picard_tol)
    worst = _check_decay(table, x, xi, decay_slack)
    return InnerTrajectory(table.t, x[0], int(sweeps[0]), worst)


def _rate_integrand(mu: GrowthRate, nu: GrowthRate, p: float, eps: float):
    def w(r: float) -> float:
        return math.exp(p * float(mu.log_eval(r)) + eps * float(nu.log_eval(r)))
    return w


def _truncation_point(mu: GrowthRate, nu: GrowthRate, p: float, eps: float, s: float,
                      target: float, t_cut_max: float) -> float:
    """Smallest doubling span T with certified integral_T^inf mu^p nu^eps <= target."""
    info = analytic_tail_bound(mu, nu, p, eps)
    if info is not None and info.divergent:
        raise DivergenceError("outer integrand does not decay; dichotomy constants "
                              "are inconsistent with the perturbation order")
    span = 1.0
    if info is not None and info.fn is not None:
        while span <= t_cut_max:
            bound = info.fn(s + span)
            if math.isfinite(bound) and bound <= target:
                return s + span
            span *= 2.0
        raise TailBoundError(
            f"analytic tail bound stays above {target:.3e} within span {t_cut_max:g}")
    w = _rate_integrand(mu, nu, p, eps)
    lo = s
    deltas: list[float] = []
    while span <= t_cut_max:
        hi = s + span
        deltas.append(adaptive_simpson(w, lo, hi, max(0.01 * target, 5e-324)))
        if deltas[-1] == 0.0:
            return hi
        if len(deltas) >= 2 and deltas[-2] > 0.0:
            theta = deltas[-1] / deltas[-2]
            if theta < 1.0 and deltas[-1] * theta / (1.0 - theta) <= target:
                return hi
        lo = hi
        span *= 2.0
    raise TailBoundError(
        f"no truncation certifying tail <= {target:.3e} within span {t_cut_max:g}")


def _rk4_grid(deriv: Callable[[float, np.ndarray], np.ndarray], t_grid: np.ndarray,
              y0: np.ndarray, project: Callable[[np.ndarray], None] | None = None
              ) -> np.ndarray:
    """Classical 4th-order steps along ``t_grid``; the state at every grid point.

    ``project``, when given, acts in place on each new state.
    """
    out = np.empty((len(t_grid),) + y0.shape)
    y = out[0] = y0
    for j in range(len(t_grid) - 1):
        y = rk4_step(deriv, t_grid[j], y, t_grid[j + 1] - t_grid[j])
        if project is not None:
            project(y)
        out[j + 1] = y
    return out


def _unstable_inverse_factors(system: LinearSystem, s: float,
                              t_grid: np.ndarray) -> np.ndarray:
    """V(r, s)^-1 along the grid: scalars for closed forms, else one backward sweep.

    Matrix systems propagate W(r) = Q(s) T(s, r) forward in r via
    W' = -W A(r), W(s) = Q(s); then V(r,s)^-1 f = W(r) f on the unstable block,
    avoiding per-sample inversions entirely.
    """
    if system.form == "closed_form":
        v = np.asarray(system.V(t_grid, s), dtype=float)
        if np.any(v == 0.0) or not np.all(np.isfinite(v)):
            raise NumericalError("unstable propagator under/overflowed on the outer grid")
        return 1.0 / v
    q_s = np.eye(system.n) - system.P(s)
    return _rk4_grid(lambda r, w: -w @ system.A(r), t_grid, q_s)


@dataclass(frozen=True)
class SolverConfig:
    """Resolution and tolerance knobs of the manifold solver."""

    s_grid: tuple[float, ...]
    delta: float | None = None       # None: use the certified delta_max
    C: float | None = None           # None: default_capacity(D)
    nodes_per_axis: int = 41
    h: float = 0.01
    outer_tol: float = 1e-8
    max_outer: int = 30
    picard_tol: float = 1e-10
    tail_abs_tol: float = 1e-12
    t_cut_max: float = 1e5
    lipschitz_tol: float = 1e-3
    quad_rel_tol: float = 1e-8
    decay_slack: float = 1.05
    delta_cap: float = 1.0


def graph_metric_distance(old: np.ndarray, new: np.ndarray, graph: ManifoldGraph) -> float:
    """sup over slices and nonzero in-ball nodes of |Delta phi|_1 / |xi|_1."""
    norms = np.abs(graph.targets_unit).sum(axis=1)
    mask = graph.in_ball & (norms > 0.0)
    diff = np.abs(new[:, mask] - old[:, mask]).sum(axis=2)
    scaled = diff / (norms[mask][None, :] * graph.radii[:, None])
    return float(scaled.max()) if scaled.size else 0.0


def _check_lipschitz(graph: ManifoldGraph, values: np.ndarray, tol: float):
    """Adjacent in-ball nodes must satisfy |Dphi|_1 <= (1 + tol) |Dxi|_1."""
    m = graph.nodes_per_axis
    d = graph.n_stable
    shape = (m,) * d
    in_ball = graph.in_ball.reshape(shape)
    worst = 0.0
    where = None
    for k in range(graph.n_slices):
        dxi = 2.0 * graph.radii[k] / (m - 1)
        vals = values[k].reshape(shape + (graph.n_unstable,))
        for axis in range(d):
            sl_lo = [slice(None)] * d
            sl_hi = [slice(None)] * d
            sl_lo[axis] = slice(0, m - 1)
            sl_hi[axis] = slice(1, m)
            pair_ok = in_ball[tuple(sl_lo)] & in_ball[tuple(sl_hi)]
            if not pair_ok.any():
                continue
            diff = np.abs(vals[tuple(sl_hi)] - vals[tuple(sl_lo)]).sum(axis=-1)
            ratio = float((diff[pair_ok] / dxi).max())
            if ratio > worst:
                worst = ratio
                where = (float(graph.s_grid[k]), axis)
    if worst > 1.0 + tol:
        raise LipschitzError(
            f"graph iterate violated the Lipschitz-1 bound: ratio {worst:.6f} "
            f"at slice s={where[0]:g}", worst_ratio=worst, location=where)
    return worst


def _slice_tables(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                  nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                  cfg: SolverConfig) -> list[_SliceTable]:
    """Tables of every slice; they depend on the slice radii, not on the graph values.

    Truncation points come from the decay-certified tail bound of the outer
    integrand, per slice.
    """
    q, c = pert.q, pert.c
    tables = []
    for s, rho in zip(graph.s_grid.tolist(), graph.radii.tolist()):
        coef = (3.0 ** (q + 1.0) * c * graph.C ** (q + 1.0) * params.D * rho ** (q + 1.0)
                * math.exp((params.b - (q + 1.0) * params.a) * float(mu.log_eval(s))
                           + params.eps * (q + 1.0) * float(nu.log_eval(s))))
        t_cut = _truncation_point(mu, nu, (q + 1.0) * params.a - params.b, params.eps, s,
                                  cfg.tail_abs_tol / coef, cfg.t_cut_max)
        tables.append(_slice_table(system, mu, nu, params, graph.C, s, t_cut, cfg.h))
    return tables


def apply_phi_operator(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                       nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                       cfg: SolverConfig,
                       tables: Sequence[_SliceTable] | None = None) -> ManifoldGraph:
    """One outer iteration: recompute every node value through the graph operator.

    ``tables`` are the slice tables of the solve, built here when not given.
    Node values at lattice corners outside the slice ball are computed at
    their radially clamped targets, which keeps the interpolant consistent
    with the Lipschitz extension.  Every node path must respect its decay
    envelope up to ``cfg.decay_slack``; the worst ratio is returned in
    ``meta["max_decay_ratio"]``.
    """
    if tables is None:
        tables = _slice_tables(graph, system, mu, nu, params, pert, cfg)
    n_e = graph.n_stable
    new_values = np.empty_like(graph.values)
    worst = 0.0
    for k, table in enumerate(tables):
        targets = graph.targets_unit * float(graph.radii[k])
        chunk = max(1, _CHUNK_SAMPLES // len(table.t))
        for lo in range(0, len(targets), chunk):
            xi = targets[lo:lo + chunk]
            x, fv, _ = _node_paths(graph, system, pert, table, xi, cfg.picard_tol)
            worst = max(worst, _check_decay(table, x, xi, cfg.decay_slack, lo))
            if system.form == "closed_form":
                integrand = table.v_inv[:, None] * fv[..., n_e:]
            else:
                integrand = np.einsum("rij,brj->bri", table.v_inv, fv)[..., n_e:]
            new_values[k, lo:lo + chunk] = -composite_simpson(np.moveaxis(integrand, 1, 0),
                                                              table.h)
    _check_lipschitz(graph, new_values, cfg.lipschitz_tol)
    return replace(graph, values=new_values, meta={**graph.meta, "max_decay_ratio": worst})


def _make_radius_fn(s_grid: np.ndarray, radii: np.ndarray, beta_fn: BetaFunction):
    s_grid = np.asarray(s_grid, dtype=float)
    radii = np.asarray(radii, dtype=float)
    s_max = float(s_grid[-1])
    r_last = float(radii[-1])
    closed = beta_fn.closed_form_value
    if closed(s_max) is not None:
        ref = float(closed(s_max))

        def radius(t):
            t = np.asarray(t, dtype=float)
            base = np.interp(t, s_grid, radii)
            beyond = t > s_max
            if np.any(beyond):
                base = np.where(beyond, r_last * np.asarray(closed(t), dtype=float) / ref, base)
            return base if base.ndim else float(base)

        return radius
    if len(s_grid) >= 2:
        slope = (math.log(radii[-1]) - math.log(radii[-2])) / (s_grid[-1] - s_grid[-2])
    else:
        slope = 0.0

    def radius(t):
        t = np.asarray(t, dtype=float)
        base = np.interp(t, s_grid, radii)
        beyond = t > s_max
        if np.any(beyond):
            base = np.where(beyond, r_last * np.exp(slope * (t - s_max)), base)
        return base if base.ndim else float(base)

    return radius


def solve_manifold(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                   params: DichotomyParams, pert: Perturbation,
                   cfg: SolverConfig) -> tuple[ManifoldGraph, list[dict]]:
    """Iterate the graph operator from phi = 0 until the node metric settles.

    Returns the converged graph and the iteration history
    [{iteration, distance, ratio, max_decay_ratio}].  The measured contraction
    ratio must stay within 10% of the certified factor; persistent excess
    raises ContractionError, exhaustion of the budget raises ConvergenceError.
    The slice tables are built once here and dropped on return.
    """
    n_e, n_f = system.n_stable, system.n_unstable
    cap = cfg.C if cfg.C is not None else default_capacity(params.D)
    if not cap > params.D:
        raise ValueError(f"capacity C={cap} must exceed D={params.D}")
    certified = delta_max(pert.c, pert.q, cap, params.D, cfg.delta_cap)
    delta = cfg.delta if cfg.delta is not None else certified
    if delta > certified * (1.0 + 1e-12):
        raise ValueError(f"delta={delta:g} exceeds the certified delta_max={certified:g}")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    if s_grid.size == 0 or np.any(np.diff(s_grid) <= 0.0):
        raise ValueError("s_grid must be strictly increasing and nonempty")
    for s in s_grid:
        probe = np.abs(np.asarray(pert.f(float(s), np.zeros(system.n)))).max()
        if probe != 0.0:
            raise ValueError(f"perturbation must vanish at the origin; f({s:g}, 0) != 0")
    beta_fn = BetaFunction(mu, nu, params.a, params.eps, pert.q, cfg.quad_rel_tol)
    radii = np.array([delta * beta_fn.beta(float(s)) for s in s_grid])
    lattice, in_ball, targets = _build_lattice(n_e, cfg.nodes_per_axis)
    graph = ManifoldGraph(
        s_grid=s_grid, radii=radii, unit_lattice=lattice, in_ball=in_ball,
        targets_unit=targets, values=np.zeros((len(s_grid), len(lattice), n_f)),
        n_stable=n_e, n_unstable=n_f, delta=float(delta), C=float(cap),
        nodes_per_axis=cfg.nodes_per_axis,
        radius_fn=_make_radius_fn(s_grid, radii, beta_fn),
        meta={"system": system.label, "perturbation": pert.label,
              "params": params, "beta_closed_form": beta_fn.closed_form},
    )
    tables = _slice_tables(graph, system, mu, nu, params, pert, cfg)
    factor = outer_contraction_factor(pert.c, pert.q, cap, params.D, delta)
    history: list[dict] = []
    strikes = 0
    prev_distance = None
    for iteration in range(1, cfg.max_outer + 1):
        new_graph = apply_phi_operator(graph, system, mu, nu, params, pert, cfg, tables)
        distance = graph_metric_distance(graph.values, new_graph.values, graph)
        ratio = (distance / prev_distance) if prev_distance else None
        history.append({"iteration": iteration, "distance": distance, "ratio": ratio,
                        "max_decay_ratio": new_graph.meta["max_decay_ratio"]})
        graph = new_graph
        if distance <= cfg.outer_tol:
            return graph, history
        if ratio is not None and ratio > 1.1 * factor and distance > 10.0 * cfg.outer_tol:
            strikes += 1
            if strikes >= 2:
                raise ContractionError(
                    f"outer iteration contracted at ratio {ratio:.4f}, above the "
                    f"certified factor {factor:.4f} (+10%), twice in a row")
        else:
            strikes = 0
        prev_distance = distance
    raise ConvergenceError(
        f"outer iteration did not reach {cfg.outer_tol:g} in {cfg.max_outer} steps",
        history=history)


def nonlinear_flow_many(system: LinearSystem, pert: Perturbation, s, v0, tau,
                        h: float = 1e-3, blowup_factor: float = 1e8
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the full nonlinear system for B samples at once.

    Sample b starts from v0[b] (B, n) at time s[b] and runs for tau[b] >= 0 in
    ceil(tau[b] / h) equal steps (none when tau[b] = 0), accumulating its own
    time t += dt; every row equals a one-sample ``nonlinear_flow`` bit for bit.
    All samples step together and each leaves the batch after its last step.
    Closed-form systems step the transformed variable w = T(t0+dt', t0)^-1 v,
    whose derivative has no linear part, so the linear flow is reproduced
    exactly; matrix systems use plain 4th-order steps on v' = A(t) v + f, with
    A evaluated on the batch's times.  A sample blows up, and leaves the batch,
    when |v|_1 exceeds blowup_factor * max(1, |v0[b]|_1); BlowupError is then
    raised for the lowest-index sample that blew up, with its t_blowup.
    Returns the arrival times (B,) and states (B, n).
    """
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    v = np.array(v0, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be nonnegative")
    if v.ndim != 2 or v.shape[1] != system.n or s.shape != (len(v),) or tau.shape != s.shape:
        raise ValueError(f"states must have shape (B, {system.n}), s and tau shape (B,)")
    n_steps = np.where(tau == 0.0, 0, np.maximum(1, np.ceil(tau / h))).astype(np.int64)
    t = s.copy()
    t_blowup = np.full(len(v), math.nan)
    n_e = system.n_stable
    closed = system.form == "closed_form"

    def factors(tt: np.ndarray, t0: np.ndarray) -> np.ndarray:
        # diagonal of T(tt, t0): U on the stable block, V on the unstable one
        g = np.empty((len(tt), system.n))
        g[:, :n_e] = np.asarray(system.U(tt, t0), dtype=float)[:, None]
        g[:, n_e:] = np.asarray(system.V(tt, t0), dtype=float)[:, None]
        return g

    def deriv(tt: np.ndarray, vv: np.ndarray) -> np.ndarray:
        return np.matmul(system.A(tt), vv[:, :, None])[:, :, 0] + pert.batch(tt, vv)

    # the batch: sample indices and their limits, step sizes, steps left, times, states
    idx = np.flatnonzero(n_steps)
    limit = blowup_factor * np.maximum(1.0, np.abs(v[idx]).sum(axis=1))
    dt = tau[idx] / n_steps[idx]
    left, tb, vb = n_steps[idx], t[idx], v[idx]
    while idx.size:
        if closed:
            def deriv_w(tt: np.ndarray, w: np.ndarray, t0: np.ndarray = tb) -> np.ndarray:
                g = factors(tt, t0)
                return pert.batch(tt, g * w) / g

            vb = factors(tb + dt, tb) * rk4_step(deriv_w, tb, vb, dt)
        else:
            vb = rk4_step(deriv, tb, vb, dt)
        tb = tb + dt
        left = left - 1
        total = np.abs(vb).sum(axis=1)
        blown = ~np.isfinite(total) | (total > limit)
        leave = blown | (left == 0)
        if leave.any():
            t[idx[leave]] = tb[leave]
            v[idx[leave]] = vb[leave]
            t_blowup[idx[blown]] = tb[blown]
            keep = ~leave
            idx, limit, dt, left, tb, vb = (idx[keep], limit[keep], dt[keep], left[keep],
                                            tb[keep], vb[keep])
    first = np.flatnonzero(~np.isnan(t_blowup))
    if first.size:
        at = float(t_blowup[first[0]])
        raise BlowupError(f"trajectory left the trust region at t={at:g}", t_blowup=at)
    return t, v


def nonlinear_flow(system: LinearSystem, pert: Perturbation, s: float, v0, tau: float,
                   h: float = 1e-3, blowup_factor: float = 1e8) -> tuple[float, np.ndarray]:
    """Integrate the full nonlinear system from state v0 (n,) at time s for duration tau.

    The one-sample form of ``nonlinear_flow_many``; returns the arrival time and state.
    """
    t, v = nonlinear_flow_many(system, pert, [s], np.asarray(v0, dtype=float)[None], [tau],
                               h, blowup_factor)
    return float(t[0]), v[0]
