"""Local stable-manifold graphs via the Lyapunov-Perron fixed point.

The graph phi : (s, xi) -> eta lives on shrinking balls of radius
delta * beta(s) in the stable block.  One outer iteration maps the current
graph through::

    (Phi phi)(s, xi) = - integral_s^inf V(r,s)^-1 f_F(r, x(r), phi(r, x(r))) dr

where x is the inner trajectory solving the variation-of-constants equation

    x(t) = U(t,s) xi + integral_s^t U(t,r) f_E(r, x(r), phi(r, x(r))) dr

by Picard sweeps.  Since U(t,r) = T(t,r)P(r) = T(t,s)P(s) T(s,r), a sweep is
one cumulative Simpson pass::

    x(t) = T(t,s)P(s) [xi + integral_s^t P(s)T(s,r) f_E dr]

and the outer integrand is Q(s)T(s,r) f.  The slice table supplies the three
maps: on closed-form systems the scalars U(t,s) and 1/V(t,s), on matrix
systems RK4 tables of the stable columns of T(t,s) and of T(s,r).  Its grid is
uniform in the system's clock rho = log mu(t) when T(t,s) depends on t only
through rho (``LinearSystem.clock``, set by ``rate_power_system``), mu has a
derivative and f does not depend on t; both pull-back maps then carry the
Jacobian dt/drho = mu/mu', so the Simpson sums run in rho.  For e^t the clock
is t itself and the weight is 1.  Every other inner problem (oscillating and
matrix systems, time-dependent forcing, rates without a derivative) keeps a
grid uniform in t.  The nodes of a slice are solved together in chunks of
max(1, 4096 // len(t_grid)); a node leaves the sweep at its own tolerance, so
its value matches a solve of that node alone bit for bit.  When f reads no
unstable component (``Perturbation.reads``, as for the cubic v' = v + u^3),
phi never enters the inner problem: the sweeps hand f zeros in the unstable
columns and do not evaluate the graph.  The operator is then constant, so
Phi(0) is its fixed point: ``solve_manifold`` applies it once and takes that
graph as the second iterate instead of applying it again.  When the pulled-back
stable forcing P(s)T(s,r) f along the linear paths U(t,s) xi is zero (f_E = 0
and T(s,r) keeps the blocks apart, as for the cubic), those paths are already
the sweep's fixed point: a Simpson pass over zeros gives +-0, and xi + (+-0)
is xi bit for bit for every xi but -0.0, which no lattice target is.  Such a
chunk stops after its first forcing, with no Simpson pass.  The test reads
the pulled-back forcing, not f, so a coupling A(t) still sweeps; NaN counts
as nonzero.  Each node path is
checked against its decay envelope.  The slice tables (truncation point, grid,
propagator maps, envelope) depend only on the slice radii: ``solve_manifold``
builds them once and drops them when it returns.

Graphs are stored per s-slice on a shared tensor lattice in normalized
coordinates; evaluation is multilinear per slice, linear in s between slices,
clamped radially to the slice ball (the unique Lipschitz extension beyond the
ball takes the boundary value along the ray).  Beyond the last slice the last
values are reused with the radius continued by the closed-form beta shape when
one exists, log-linearly otherwise.

``nonlinear_flow_many`` integrates the full nonlinear system for a batch of
samples at once, each with its own start time and duration; ``nonlinear_flow``
is its one-sample form.  It and ``linalg.rk4_propagate``, which builds the
matrix slice tables from one call of A on all stage times, RK4 step matrices
and their prefix products, share one RK4 step, ``linalg.rk4_step``, and its
``rk4_stage_times``.  The flow evaluates its linear part once per step round
on those times through ``linalg.rk4_stage_values``: A on matrix systems, the
diagonal of T(t, s) from ``dichotomy.closed_form_diagonal`` on closed-form
ones.
Every caller evaluates the perturbation on a batch of samples (see ``Perturbation``).

Norms on state blocks are sum norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .admissibility import (BetaFunction, analytic_tail_bound, default_capacity, delta_max,
                            improper_rate_integrals)
from .dichotomy import DichotomyParams, LinearSystem, closed_form_diagonal
from .errors import (BlowupError, ContractionError, ConvergenceError, DecayBoundError,
                     LipschitzError, NumericalError, TailBoundError)
from .expr import compile_expression
from .linalg import rk4_propagate, rk4_stage_values, rk4_step
# adaptive_simpson is not called here; perfbench/tracer.py wraps it in this namespace
from .quadrature import adaptive_simpson, composite_simpson, cumulative_simpson  # noqa: F401
from .rates import GrowthRate

__all__ = ["Perturbation", "cubic_perturbation", "expression_perturbation",
           "ManifoldGraph", "SolverConfig", "eval_phi_many",
           "apply_phi_operator", "solve_manifold", "solver_radius", "check_vanishes_at_origin",
           "nonlinear_flow", "nonlinear_flow_many", "flow_steps",
           "outer_contraction_factor", "graph_metric_distance"]

# inner-grid samples per chunk of nodes: bounds every (nodes, grid, state) array
_CHUNK_SAMPLES = 4096
# work counters of the inner solves, per operator application and summed per solve
_INNER_WORK = ("node_paths", "points", "simpson_sweeps")
# Picard sweeps an inner chunk may take before ConvergenceError
_MAX_SWEEPS = 80
# sweep distance that settles a node, node-metric distance that ends the outer iteration
# and its budget of operator applications
_PICARD_TOL, _OUTER_TOL, _MAX_OUTER = 1e-10, 1e-8, 30
# certificate slacks: of the decay envelope and of the Lipschitz-1 bound
_DECAY_SLACK, _LIPSCHITZ_TOL = 1.05, 1e-3


@dataclass(frozen=True)
class Perturbation:
    """Nonlinearity f(t, v) vanishing at v = 0 with |f(t,u)-f(t,v)| <= c|u-v|(|u|+|v|)^q.

    ``f`` works on samples: times t of shape (B,) and states v of shape (B, n)
    map to f-values of shape (B, n), row b being f(t[b], v[b]).  A single
    sample is the batch B = 1.  ``autonomous`` declares that f does not
    depend on t; only then may the inner grid follow a system's clock.
    ``reads`` names the state components f reads (None: all).  When it names
    no unstable component, the solver hands f zeros there instead of the graph.
    The builders derive both declarations; ``solve_manifold`` probes ``reads``.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    c: float
    q: float
    label: str = ""
    autonomous: bool = False
    reads: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.c > 0.0:
            raise ValueError(f"perturbation constant c must be positive, got {self.c}")
        if not self.q >= 1.0:
            raise ValueError(f"perturbation order q must be >= 1, got {self.q}")


def cubic_perturbation(coef: float, n: int = 2) -> Perturbation:
    """f(t, v) = (0, ..., 0, coef * v_1^3): order-3 forcing of the last component.

    The cube is sign(v_1) |v_1|^3, so f is odd bit for bit and every element
    takes numpy's vectorized pow (negative bases of ``v_1 ** 3`` do not).
    """
    if n < 2:
        raise ValueError("cubic perturbation needs n >= 2")

    def f(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[:, -1] = coef * np.copysign(np.abs(v[:, 0]) ** 3, v[:, 0])
        return out

    return Perturbation(f, c=abs(coef), q=2.0, label=f"cubic(coef={coef:g})", autonomous=True,
                        reads=(0,))


def expression_perturbation(components: Sequence[str], c: float, q: float,
                            label: str = "") -> Perturbation:
    """Componentwise formulas in variables t, u1..un (n = number of components)."""
    n = len(components)
    names = ("t",) + tuple(f"u{i + 1}" for i in range(n))
    fns = [compile_expression(text, variables=names) for text in components]

    def f(t: np.ndarray, v: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        v = np.asarray(v, dtype=float)
        env = {"t": t, **{f"u{i + 1}": v[:, i] for i in range(n)}}
        cols = [np.broadcast_to(np.asarray(fn(**env), dtype=float), t.shape) for fn in fns]
        return np.stack(cols, axis=1)

    used = set().union(*(fn.used for fn in fns))
    return Perturbation(f, c=c, q=q, label=label or f"expr({', '.join(components)})",
                        autonomous="t" not in used,
                        reads=tuple(i for i in range(n) if f"u{i + 1}" in used))


def outer_contraction_factor(c: float, q: float, C: float, D: float, delta: float) -> float:
    """Certified contraction factor of the graph operator on the node metric."""
    return 2.0 ** (q + 2.0) * 3.0 ** q * c * C ** (q + 1.0) * D * delta ** q


def _build_lattice(n_axes: int, nodes_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """In-ball mask and targets of the unit lattice, corners outside the ball pulled back."""
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
    return in_ball, targets


@dataclass
class ManifoldGraph:
    """Discrete graph phi on s-slices sharing one normalized node lattice.

    ``values[k, j]`` is phi at slice s_grid[k], node ``radii[k] * targets_unit[j]``:
    lattice node j scaled to the slice, the few corners outside the ball clamped to it.
    """

    s_grid: np.ndarray
    radii: np.ndarray
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


@dataclass(frozen=True)
class _SliceTable:
    """Inner grid and propagator maps of one s-slice, shared by its node paths.

    For stable vectors y (B, T, n_E) and f-values fv (B, T, n) along the grid,
    ``stable(y)`` is T(t, s)P(s) y, and ``pull_stable(fv)`` and
    ``pull_unstable(fv)`` are the stable coordinates of P(s)T(s, t) fv and the
    unstable ones of Q(s)T(s, t) fv, each times the weight dt/dclock of
    ``_inner_grid``, so that Simpson sums with step ``h`` integrate them over t.
    """

    s: float
    t: np.ndarray               # grid from s to the truncation point, uniform in the clock
    h: float                    # its step in the clock: rho = log mu(t), or t
    envelope: np.ndarray        # C (mu(t)/mu(s))^a nu(s)^eps: decay bound per unit |xi|_1
    stable: Callable[[np.ndarray], np.ndarray]
    pull_stable: Callable[[np.ndarray], np.ndarray]
    pull_unstable: Callable[[np.ndarray], np.ndarray]


def _inner_grid(system: LinearSystem, pert: Perturbation, s: float, t_max: float,
                h: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Grid from s to t_max uniform in a clock, its step there and dt/dclock on it.

    The clock is rho = log mu(t) for the system's ``clock`` mu when mu has a
    derivative and the perturbation is autonomous: then the propagators and
    the forcing depend on t only through rho, and dt/drho = mu/mu'.  Otherwise
    it is t itself, with weight 1.  The step is about h in the clock; the
    endpoints are exactly s and t_max.
    """
    mu = system.clock if pert.autonomous else None
    clocked = mu is not None and mu.has_derivative
    lo, hi = (float(mu.log_eval(s)), float(mu.log_eval(t_max))) if clocked else (s, t_max)
    n = max(2, int(math.ceil((hi - lo) / h)))
    h_eff = (hi - lo) / n
    clock = lo + h_eff * np.arange(n + 1)
    t_grid, weight = mu.log_inverse(clock) if clocked else (clock, np.ones(n + 1))
    t_grid[0], t_grid[-1] = s, t_max
    return t_grid, h_eff, weight


def _slice_table(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                 params: DichotomyParams, pert: Perturbation, C: float, s: float,
                 t_max: float, h: float) -> _SliceTable:
    t_grid, h_eff, weight = _inner_grid(system, pert, s, t_max, h)
    n_e = system.n_stable
    if system.form == "closed_form":
        u = np.asarray(system.U(t_grid, s), dtype=float)[:, None]
        if np.any(u <= 0.0) or not np.all(np.isfinite(u)):
            raise NumericalError("stable propagator under/overflowed on the inner grid; "
                                 "shorten the integration horizon")
        u_pull = u / weight[:, None]
        v = np.asarray(system.V(t_grid, s), dtype=float)
        v_inv = None if np.any(v == 0.0) or not np.all(np.isfinite(v)) else (weight / v)[:, None]

        def stable(y):
            return u * y

        def pull_stable(fv):
            return fv[..., :n_e] / u_pull

        def pull_unstable(fv):
            if v_inv is None:
                raise NumericalError("unstable propagator under/overflowed on the outer grid")
            return v_inv * fv[..., n_e:]
    else:
        eye = np.eye(system.n)
        t0, dt = t_grid[:-1], np.diff(t_grid)
        fwd = rk4_propagate(system.A, t0, dt, eye[:, :n_e])[:, :n_e]
        back = rk4_propagate(lambda r: -system.A(r), t0, dt, eye, right=True)  # T(s, r)
        back = back * weight[:, None, None]

        def stable(y):
            return np.einsum("tij,btj->bti", fwd, y)

        def pull_stable(fv):
            return np.einsum("tij,btj->bti", back[:, :n_e], fv)

        def pull_unstable(fv):
            return np.einsum("tij,btj->bti", back[:, n_e:], fv)
    log_b = params.a * (np.asarray(mu.log_eval(t_grid), dtype=float) - float(mu.log_eval(s)))
    envelope = C * np.exp(log_b + params.eps * float(nu.log_eval(s)))
    return _SliceTable(s, t_grid, h_eff, envelope, stable, pull_stable, pull_unstable)


def _ignores_graph(pert: Perturbation, n_stable: int) -> bool:
    """True when f reads no unstable component, so the graph operator ignores the graph."""
    return pert.reads is not None and max(pert.reads, default=-1) < n_stable


def _forcing(graph: ManifoldGraph, pert: Perturbation, t_grid: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """f(t, x, phi(t, x)) along node paths x (B, T, n_E) on the grid t_grid (T,).

    When f reads no unstable component the graph is not evaluated: f gets
    zeros in the unstable columns, which it never reads.
    """
    t = np.tile(t_grid, len(x))
    v = np.zeros((len(t), graph.n_stable + graph.n_unstable))
    v[:, :graph.n_stable] = x.reshape(len(t), -1)
    if not _ignores_graph(pert, graph.n_stable):
        v[:, graph.n_stable:] = eval_phi_many(graph, t, v[:, :graph.n_stable])
    return pert.f(t, v).reshape(x.shape[:2] + (-1,))


def _node_paths(graph: ManifoldGraph, pert: Perturbation, table: _SliceTable,
                xi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Inner paths x (B, T, n_E) of the nodes xi (B, n_E), f along them, sweeps per
    node and the number of node paths summed over the cumulative Simpson passes.

    Every sweep updates the whole chunk; a node leaves once its own sweep
    distance is <= _PICARD_TOL and keeps that sweep's f-values if the sweep left
    its path unchanged bit for bit.  When the pulled-back stable forcing of the
    linear paths is zero everywhere, the chunk stops there with one sweep and
    no Simpson pass: the pass would add +-0 to xi, and no lattice target is
    -0.0, so the sweep would return the linear paths bit for bit.
    """
    n_b = len(xi)
    x = table.stable(xi[:, None, :])
    fv_old = _forcing(graph, pert, table.t, x)
    pulled = table.pull_stable(fv_old)
    if not pulled.any():
        return x, fv_old, np.ones(n_b, dtype=np.int64), 0
    fv = np.empty(x.shape[:2] + (graph.n_stable + graph.n_unstable,))
    sweeps = np.zeros(n_b, dtype=np.int64)
    active = np.arange(n_b)
    stale: list[int] = []
    passes = 0
    for sweep in range(1, _MAX_SWEEPS + 1):
        x_old = x[active]
        cum = cumulative_simpson(np.moveaxis(pulled, 1, 0), table.h)
        passes += len(active)
        x_new = table.stable(xi[active, None, :] + np.moveaxis(cum, 1, 0))
        done = np.abs(x_new - x_old).max(axis=(1, 2)) <= _PICARD_TOL
        same = (x_new.view(np.int64) == x_old.view(np.int64)).all(axis=(1, 2))
        x[active] = x_new
        fv[active[done & same]] = fv_old[done & same]
        stale.extend(active[done & ~same])
        sweeps[active[done]] = sweep
        active = active[~done]
        if not active.size:
            if stale:
                fv[stale] = _forcing(graph, pert, table.t, x[stale])
            return x, fv, sweeps, passes
        if sweep < _MAX_SWEEPS:
            fv_old = _forcing(graph, pert, table.t, x[active])
            pulled = table.pull_stable(fv_old)
    raise ConvergenceError(f"inner Picard sweeps stalled above tolerance {_PICARD_TOL:g}")


def _check_decay(table: _SliceTable, x: np.ndarray, xi: np.ndarray,
                 first_node: int = 0) -> float:
    """Worst ratio of |x(t)|_1 to the decay envelope of the paths x (B, T, n_E).

    A ratio above ``_DECAY_SLACK`` raises DecayBoundError naming s, node and ratio.
    """
    xi_norm = np.abs(xi).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(x).sum(axis=2) / (table.envelope * xi_norm[:, None])
    worst = np.where(xi_norm > 0.0, ratios.max(axis=1), 0.0)
    bad = np.flatnonzero(~(worst <= _DECAY_SLACK))
    if bad.size:
        b = int(bad[0])
        j = int(np.argmax(ratios[b]))
        raise DecayBoundError(
            f"inner trajectory from s={table.s:g}, node {first_node + b} "
            f"(|xi|={xi_norm[b]:g}) broke its decay envelope: ratio {worst[b]:.6f} "
            f"at t={table.t[j]:g} (slack {_DECAY_SLACK:g})",
            s=table.s, node=first_node + b, ratio=float(worst[b]))
    return float(worst.max())


def _truncation_points(mu: GrowthRate, nu: GrowthRate, p: float, eps: float,
                       s_values: np.ndarray, targets: np.ndarray, t_cut_max: float) -> np.ndarray:
    """Per s, the first T = s + 2^k, 2^k <= t_cut_max, with integral_T^inf mu^p nu^eps <= target.

    The tail is the analytic bound if the pair has one, else the tail integral at rel_tol
    1e-3 raised by 1e-3; one batch per k.  TailBoundError names the first s left uncut.
    """
    info = analytic_tail_bound(mu, nu, p, eps)
    cuts = np.empty(len(s_values))
    todo = np.arange(len(s_values))
    span = 1.0
    while todo.size and span <= t_cut_max:
        ends = s_values[todo] + span
        if info is not None and info.fn is not None:
            tails = np.array([info.fn(end) for end in ends.tolist()])
        else:
            tails = improper_rate_integrals(mu, nu, p, eps, ends, 1e-3) * (1.0 + 1e-3)
        done = np.isfinite(tails) & (tails <= targets[todo])
        cuts[todo[done]] = ends[done]
        todo = todo[~done]
        span *= 2.0
    if todo.size:
        raise TailBoundError(f"tail of the outer integrand stays above {targets[todo[0]]:.3e} "
                             f"within span {t_cut_max:g}", s=float(s_values[todo[0]]))
    return cuts


@dataclass(frozen=True)
class SolverConfig:
    """What a run varies in the manifold solver: its slices, radius and resolution.

    Budgets and certificate slacks are module constants (``_PICARD_TOL``,
    ``_OUTER_TOL``, ``_MAX_OUTER``, ``_DECAY_SLACK``, ``_LIPSCHITZ_TOL``).
    ``beta_fn`` is no knob and no config key sets it: a ``BetaFunction`` of the
    solve's (mu, nu, a, eps, q) lets solves share its cached tail integrals
    I(s); None gives each solve its own.
    """

    s_grid: tuple[float, ...]
    delta: float | None = None       # None: use the certified delta_max
    C: float | None = None           # None: default_capacity(D)
    nodes_per_axis: int = 41
    h: float = 0.01                  # inner-grid step in the system's clock (see _inner_grid)
    tail_abs_tol: float = 1e-12
    t_cut_max: float = 1e5
    delta_cap: float = 1.0
    beta_fn: BetaFunction | None = field(default=None, compare=False, repr=False)


def graph_metric_distance(old: np.ndarray, new: np.ndarray, graph: ManifoldGraph) -> float:
    """sup over slices and nonzero in-ball nodes of |Delta phi|_1 / |xi|_1."""
    norms = np.abs(graph.targets_unit).sum(axis=1)
    mask = graph.in_ball & (norms > 0.0)
    diff = np.abs(new[:, mask] - old[:, mask]).sum(axis=2)
    scaled = diff / (norms[mask][None, :] * graph.radii[:, None])
    return float(scaled.max()) if scaled.size else 0.0


def _check_lipschitz(graph: ManifoldGraph, values: np.ndarray):
    """Adjacent in-ball nodes must satisfy |Dphi|_1 <= (1 + _LIPSCHITZ_TOL) |Dxi|_1."""
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
    if worst > 1.0 + _LIPSCHITZ_TOL:
        raise LipschitzError(
            f"graph iterate violated the Lipschitz-1 bound: ratio {worst:.6f} "
            f"at slice s={where[0]:g}", worst_ratio=worst, location=where)
    return worst


def _slice_tables(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                  nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                  cfg: SolverConfig) -> list[_SliceTable]:
    """Tables of every slice; they depend on the slice radii, not on the graph values.

    Slice s is cut where the certified tail of the outer integrand mu^((q+1)a-b) nu^eps
    is at most tail_abs_tol / coef(s), every slice in one ``_truncation_points`` call.
    """
    q, c = pert.q, pert.c
    targets = np.array([cfg.tail_abs_tol / (
        3.0 ** (q + 1.0) * c * graph.C ** (q + 1.0) * params.D * rho ** (q + 1.0)
        * math.exp((params.b - (q + 1.0) * params.a) * float(mu.log_eval(s))
                   + params.eps * (q + 1.0) * float(nu.log_eval(s))))
        for s, rho in zip(graph.s_grid.tolist(), graph.radii.tolist())])
    cuts = _truncation_points(mu, nu, (q + 1.0) * params.a - params.b, params.eps,
                              graph.s_grid, targets, cfg.t_cut_max)
    return [_slice_table(system, mu, nu, params, pert, graph.C, s, t_cut, cfg.h)
            for s, t_cut in zip(graph.s_grid.tolist(), cuts.tolist())]


def apply_phi_operator(graph: ManifoldGraph, system: LinearSystem, mu: GrowthRate,
                       nu: GrowthRate, params: DichotomyParams, pert: Perturbation,
                       cfg: SolverConfig,
                       tables: Sequence[_SliceTable] | None = None) -> ManifoldGraph:
    """One outer iteration: recompute every node value through the graph operator.

    ``tables`` are the slice tables of the solve, built here when not given.
    Node values at lattice corners outside the slice ball are computed at
    their radially clamped targets, which keeps the interpolant consistent
    with the Lipschitz extension.  Every node path must respect its decay
    envelope up to ``_DECAY_SLACK``; the worst ratio is returned in
    ``meta["max_decay_ratio"]``.  The worst ratio of |Dphi|_1 to |Dxi|_1 over
    adjacent in-ball nodes, bounded by 1 + ``_LIPSCHITZ_TOL``, is returned
    in ``meta["max_lipschitz_ratio"]``.  ``meta["inner"]`` counts the work of
    this application: ``node_paths``, their grid ``points`` (each path times its
    grid length) and ``simpson_sweeps`` (each path times its cumulative Simpson
    passes, 0 for a chunk settled on its linear paths).
    """
    if tables is None:
        tables = _slice_tables(graph, system, mu, nu, params, pert, cfg)
    new_values = np.empty_like(graph.values)
    worst = 0.0
    inner = dict.fromkeys(_INNER_WORK, 0)
    for k, table in enumerate(tables):
        targets = graph.targets_unit * float(graph.radii[k])
        chunk = max(1, _CHUNK_SAMPLES // len(table.t))
        for lo in range(0, len(targets), chunk):
            xi = targets[lo:lo + chunk]
            x, fv, _, passes = _node_paths(graph, pert, table, xi)
            worst = max(worst, _check_decay(table, x, xi, lo))
            integrand = np.moveaxis(table.pull_unstable(fv), 1, 0)
            new_values[k, lo:lo + chunk] = -composite_simpson(integrand, table.h)
            inner["node_paths"] += len(xi)
            inner["points"] += len(xi) * len(table.t)
            inner["simpson_sweeps"] += passes
    lipschitz = _check_lipschitz(graph, new_values)
    return replace(graph, values=new_values, meta={**graph.meta, "max_decay_ratio": worst,
                                                   "max_lipschitz_ratio": lipschitz,
                                                   "inner": inner})


def _make_radius_fn(s_grid: np.ndarray, radii: np.ndarray, beta_fn: BetaFunction):
    s_grid = np.asarray(s_grid, dtype=float)
    radii = np.asarray(radii, dtype=float)
    s_max = float(s_grid[-1])
    r_last = float(radii[-1])
    closed = beta_fn.closed_form_value
    if closed(s_max) is not None:
        ref = float(closed(s_max))

        def extend(t):
            return r_last * np.asarray(closed(t), dtype=float) / ref
    else:
        slope = 0.0
        if len(s_grid) >= 2:
            slope = (math.log(radii[-1]) - math.log(radii[-2])) / (s_grid[-1] - s_grid[-2])

        def extend(t):
            return r_last * np.exp(slope * (t - s_max))

    def radius(t):
        t = np.asarray(t, dtype=float)
        base = np.interp(t, s_grid, radii)
        beyond = t > s_max
        if np.any(beyond):
            base = np.where(beyond, extend(t), base)
        return base if base.ndim else float(base)

    return radius


def _check_reads(pert: Perturbation, s_grid: np.ndarray, n: int):
    """ValueError unless f on s_grid ignores the components left out of ``pert.reads``.

    Compares f at the state of ones with f as those components are set to 0
    one after another, and names the first one whose zero changes f.
    """
    outside = [i for i in pert.reads if not 0 <= i < n]
    if outside:
        raise ValueError(f"perturbation reads component {outside[0]}, outside [0, {n})")
    probe = np.ones((len(s_grid), n))
    base = pert.f(s_grid, probe)
    for i in sorted(set(range(n)) - set(pert.reads)):
        probe[:, i] = 0.0
        if not np.array_equal(pert.f(s_grid, probe), base, equal_nan=True):
            raise ValueError(f"perturbation declares reads={pert.reads} but f depends on "
                             f"component {i} (u{i + 1})")


def solver_radius(params: DichotomyParams, pert: Perturbation,
                  cfg: SolverConfig) -> tuple[float, float]:
    """Capacity C and graph radius delta of a solve under ``cfg``.

    ValueError unless C exceeds D and delta is positive and within the
    certified delta_max (the default when ``cfg.delta`` is None).
    """
    cap = cfg.C if cfg.C is not None else default_capacity(params.D)
    if not cap > params.D:
        raise ValueError(f"capacity C={cap} must exceed D={params.D}")
    certified = delta_max(pert.c, pert.q, cap, params.D, cfg.delta_cap)
    delta = cfg.delta if cfg.delta is not None else certified
    if delta > certified * (1.0 + 1e-12):
        raise ValueError(f"delta={delta:g} exceeds the certified delta_max={certified:g} "
                         f"at c={pert.c:g}")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return cap, delta


def check_vanishes_at_origin(pert: Perturbation, s_grid: np.ndarray, n: int):
    """ValueError naming the first s of ``s_grid`` where f(s, 0) != 0."""
    at_origin = np.abs(pert.f(s_grid, np.zeros((len(s_grid), n)))).max(axis=1)
    bad = np.flatnonzero(at_origin != 0.0)
    if bad.size:
        raise ValueError(f"perturbation must vanish at the origin; "
                         f"f({s_grid[bad[0]]:g}, 0) != 0")


def solve_manifold(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                   params: DichotomyParams, pert: Perturbation,
                   cfg: SolverConfig) -> tuple[ManifoldGraph, list[dict]]:
    """Iterate the graph operator from phi = 0 until the node metric settles.

    Returns the converged graph and the iteration history
    [{iteration, distance, ratio, max_decay_ratio, max_lipschitz_ratio}].  The
    graph's ``meta["slices"]`` holds each slice's truncation point ``t_cut``
    and inner-grid length ``grid_points``, and ``meta["inner"]`` the work
    counters of ``apply_phi_operator`` summed over the applications.  The
    measured contraction ratio must stay within 10% of the certified factor;
    persistent excess raises ContractionError, a distance above ``_OUTER_TOL``
    after ``_MAX_OUTER`` steps ConvergenceError.  The slice tables are built
    once here and dropped on return.
    When f reads no unstable component, Phi ignores the graph: the first
    iterate Phi(0) is the fixed point and serves as every later iterate
    unchanged, so the operator runs once.  ``cfg.beta_fn`` supplies the radius
    function beta, built here when None.
    ValueError rejects a perturbation that does not vanish at the origin or
    whose ``reads`` f contradicts (see ``_check_reads``), and a ``cfg.beta_fn``
    built for another (mu, nu, a, eps, q).
    """
    n_e, n_f = system.n_stable, system.n_unstable
    cap, delta = solver_radius(params, pert, cfg)
    s_grid = np.asarray(cfg.s_grid, dtype=float)
    if s_grid.size == 0 or np.any(np.diff(s_grid) <= 0.0):
        raise ValueError("s_grid must be strictly increasing and nonempty")
    check_vanishes_at_origin(pert, s_grid, system.n)
    if pert.reads is not None:
        _check_reads(pert, s_grid, system.n)
    key = (mu, nu, params.a, params.eps, pert.q)
    beta_fn = cfg.beta_fn if cfg.beta_fn is not None else BetaFunction(*key)
    if (beta_fn.mu, beta_fn.nu, beta_fn.a, beta_fn.eps, beta_fn.q) != key:
        raise ValueError("cfg.beta_fn was built for another (mu, nu, a, eps, q)")
    radii = delta * beta_fn.beta(s_grid)
    in_ball, targets = _build_lattice(n_e, cfg.nodes_per_axis)
    graph = ManifoldGraph(
        s_grid=s_grid, radii=radii, in_ball=in_ball,
        targets_unit=targets, values=np.zeros((len(s_grid), len(targets), n_f)),
        n_stable=n_e, n_unstable=n_f, delta=float(delta), C=float(cap),
        nodes_per_axis=cfg.nodes_per_axis,
        radius_fn=_make_radius_fn(s_grid, radii, beta_fn),
    )
    tables = _slice_tables(graph, system, mu, nu, params, pert, cfg)
    graph = replace(graph, meta={"slices": {
        "t_cut": [float(table.t[-1]) for table in tables],
        "grid_points": [len(table.t) for table in tables]}})
    factor = outer_contraction_factor(pert.c, pert.q, cap, params.D, delta)
    history: list[dict] = []
    strikes = 0
    prev_distance = None
    constant = _ignores_graph(pert, n_e)
    inner = dict.fromkeys(_INNER_WORK, 0)
    for iteration in range(1, _MAX_OUTER + 1):
        if constant and iteration > 1:
            new_graph = graph  # Phi does not read graph.values: Phi(graph) is graph
        else:
            new_graph = apply_phi_operator(graph, system, mu, nu, params, pert, cfg, tables)
            inner = {key: inner[key] + new_graph.meta["inner"][key] for key in _INNER_WORK}
        distance = graph_metric_distance(graph.values, new_graph.values, graph)
        ratio = (distance / prev_distance) if prev_distance else None
        history.append({"iteration": iteration, "distance": distance, "ratio": ratio,
                        "max_decay_ratio": new_graph.meta["max_decay_ratio"],
                        "max_lipschitz_ratio": new_graph.meta["max_lipschitz_ratio"]})
        graph = new_graph
        if distance <= _OUTER_TOL:
            return replace(graph, meta={**graph.meta, "inner": inner}), history
        if ratio is not None and ratio > 1.1 * factor and distance > 10.0 * _OUTER_TOL:
            strikes += 1
            if strikes >= 2:
                raise ContractionError(
                    f"outer iteration contracted at ratio {ratio:.4f}, above the "
                    f"certified factor {factor:.4f} (+10%), twice in a row")
        else:
            strikes = 0
        prev_distance = distance
    raise ConvergenceError(
        f"outer iteration did not reach {_OUTER_TOL:g} in {_MAX_OUTER} steps",
        history=history)


def flow_steps(tau: np.ndarray, h: float) -> np.ndarray:
    """Steps of each sample of ``nonlinear_flow_many``: ceil(tau / h), at least one,
    and none where tau = 0."""
    return np.where(tau == 0.0, 0, np.maximum(1, np.ceil(tau / h))).astype(np.int64)


def nonlinear_flow_many(system: LinearSystem, pert: Perturbation, s, v0, tau,
                        h: float = 1e-3, blowup_factor: float = 1e8
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the full nonlinear system for B samples at once.

    Sample b starts from v0[b] (B, n) at time s[b] and runs for a finite
    tau[b] >= 0 in ``flow_steps`` equal steps of a finite h > 0, accumulating
    its own time t += dt; every row equals a one-sample ``nonlinear_flow`` bit
    for bit.  All samples step together and each leaves the batch after its
    last step.  Each step round evaluates the linear part once, on the
    ``rk4_stage_times`` of all rows, and the RK4 stages look their values up by
    time row.  Closed-form systems step the transformed variable
    w = T(t0+dt', t0)^-1 v, whose derivative has no linear part, so the linear
    flow is reproduced exactly; matrix systems use plain 4th-order steps on
    v' = A(t) v + f.  A sample blows up, and leaves the batch, when |v|_1
    exceeds blowup_factor * max(1, |v0[b]|_1); BlowupError is then raised for
    the lowest-index sample that blew up, with its t_blowup.
    Returns the arrival times (B,) and states (B, n).
    """
    s = np.asarray(s, dtype=float)
    tau = np.asarray(tau, dtype=float)
    v = np.array(v0, dtype=float)
    if not np.all((tau >= 0.0) & (tau < math.inf)):
        raise ValueError("tau must be finite and nonnegative")
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if v.ndim != 2 or v.shape[1] != system.n or s.shape != (len(v),) or tau.shape != s.shape:
        raise ValueError(f"states must have shape (B, {system.n}), s and tau shape (B,)")
    n_steps = flow_steps(tau, h)
    t = s.copy()
    t_blowup = np.full(len(v), math.nan)
    closed = system.form == "closed_form"

    # both read ``stage``, the linear part of the current step round keyed by time row
    def deriv_w(tt: np.ndarray, w: np.ndarray) -> np.ndarray:
        g = stage[tt.tobytes()]
        return pert.f(tt, g * w) / g

    def deriv(tt: np.ndarray, vv: np.ndarray) -> np.ndarray:
        return np.matmul(stage[tt.tobytes()], vv[:, :, None])[:, :, 0] + pert.f(tt, vv)

    # the batch: sample indices and their limits, step sizes, steps left, times, states
    idx = np.flatnonzero(n_steps)
    limit = blowup_factor * np.maximum(1.0, np.abs(v[idx]).sum(axis=1))
    dt = tau[idx] / n_steps[idx]
    left, tb, vb = n_steps[idx], t[idx], v[idx]
    while idx.size:
        if closed:
            stage = rk4_stage_values(
                lambda r: closed_form_diagonal(system, r, np.tile(tb, 3)), tb, dt)
            vb = stage[(tb + dt).tobytes()] * rk4_step(deriv_w, tb, vb, dt)
        else:
            stage = rk4_stage_values(
                lambda r: np.broadcast_to(system.A(r), (r.size, system.n, system.n)), tb, dt)
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
