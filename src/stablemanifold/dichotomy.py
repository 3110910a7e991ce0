"""Linear evolution systems and nonuniform dichotomy certificates.

A system is either *closed form* (scalar propagators U, V on the stable and
unstable coordinate blocks) or *matrix form* (a coefficient matrix A(t) whose
transition matrix is obtained by fixed-step 4th-order propagation).

The dichotomy bounds checked here, for projections P(t) with complement Q(t),
growth rates mu, nu and constants (D, a, b, eps)::

    |T(t,s) P(s)|        <= D * (mu(t)/mu(s))^a  * nu(s)^eps      (t >= s)
    |T(t,s)^-1 Q(t)|     <= D * (mu(t)/mu(s))^-b * nu(t)^eps      (t >= s)

with D >= 1, a < 0 <= b, eps >= 0.  Operator norms are spectral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import rk4_propagate, spectral_norm
from .rates import GrowthRate

__all__ = ["DichotomyParams", "LinearSystem", "DichotomyCertificate",
           "coordinate_projection", "rate_power_system", "sharp_oscillating_system",
           "matrix_system", "transition", "transition_inverse", "verify_dichotomy",
           "sharpness_probe", "pair_grid"]


@dataclass(frozen=True)
class DichotomyParams:
    """Constants (D, a, b, eps) of a nonuniform dichotomy bound."""

    D: float
    a: float
    b: float
    eps: float

    def __post_init__(self):
        if not self.D >= 1.0:
            raise ValueError(f"D must be >= 1, got {self.D}")
        if not self.a < 0.0:
            raise ValueError(f"a must be negative, got {self.a}")
        if not self.b >= 0.0:
            raise ValueError(f"b must be >= 0, got {self.b}")
        if not self.eps >= 0.0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")


def coordinate_projection(n: int, n_stable: int) -> Callable[[float], np.ndarray]:
    p = np.zeros((n, n))
    p[:n_stable, :n_stable] = np.eye(n_stable)

    def projection(t: float) -> np.ndarray:
        return p

    return projection


def _diagonal(*entries) -> np.ndarray:
    """diag(entries): (n, n) for scalar entries, (B, n, n) for entries of shape (B,)."""
    d = np.stack(entries, axis=-1)
    out = np.zeros(d.shape + d.shape[-1:])
    out[..., range(len(entries)), range(len(entries))] = d
    return out


@dataclass(frozen=True)
class LinearSystem:
    """A linear nonautonomous system split along a projection-valued curve P(t).

    Exactly one of the two representations drives the transition matrix:
    closed-form scalar factors (U, V) on the blocks, or the coefficient
    matrix A(t).  ``meta`` carries builder-specific structure (used by the
    sharpness probe and by solvers that can exploit scalar blocks).

    ``A`` maps a scalar t to an (n, n) matrix and times t of shape (B,) to
    either (B, n, n), one matrix per time, or a constant (n, n); the batched
    nonlinear flow evaluates it on arrays.  ``U`` and ``V`` broadcast over
    array arguments the same way.
    """

    n: int
    n_stable: int
    P: Callable[[float], np.ndarray]
    A: Callable[[float], np.ndarray] | None = None
    U: Callable[[float, float], float] | None = None
    V: Callable[[float, float], float] | None = None
    label: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def form(self) -> str:
        return "closed_form" if (self.U is not None and self.V is not None) else "matrix"

    @property
    def n_unstable(self) -> int:
        return self.n - self.n_stable


def rate_power_system(mu: GrowthRate, a: float, b: float) -> LinearSystem:
    """2-D block-scalar system with U = (mu(t)/mu(s))^a, V = (mu(t)/mu(s))^b.

    Realizes a uniform (mu, mu)-dichotomy with D = 1, eps = 0 exactly; any
    eps >= 0 then holds with slack.
    """
    def u_factor(t, s):
        return np.exp(a * (mu.log_eval(t) - mu.log_eval(s)))

    def v_factor(t, s):
        return np.exp(b * (mu.log_eval(t) - mu.log_eval(s)))

    coeff = None
    if mu.has_derivative:
        def coeff(t, _mu=mu):  # noqa: F811 - deliberate rebind
            r = _mu.deriv(t) / _mu(t)
            return _diagonal(a * r, b * r)

    return LinearSystem(2, 1, coordinate_projection(2, 1), A=coeff, U=u_factor, V=v_factor,
                        label=f"rate_power(a={a:g}, b={b:g}, mu={mu.label})",
                        meta={"kind": "rate_power", "a": a, "b": b, "mu": mu})


def sharp_oscillating_system(mu: GrowthRate, nu: GrowthRate, a: float, b: float,
                             eps: float) -> LinearSystem:
    """2-D system whose stable bound is attained along t = 2k*pi, s = (2k-1)*pi.

    The scalar propagators carry an oscillating nonuniform factor with
    amplitude eps/2::

        U(t,s) = (mu(t)/mu(s))^a * exp(w*log(nu(t))*(cos t - 1) - w*log(nu(s))*(cos s - 1))
        V(t,s) = (mu(t)/mu(s))^b * exp(-w*log(nu(t))*(cos t - 1) + w*log(nu(s))*(cos s - 1))

    with w = eps/2, so the (D=1, a, b, eps) dichotomy bounds hold and U hits
    (mu(t)/mu(s))^a * nu(s)^eps exactly at the probe pairs.
    """
    w = 0.5 * eps

    def osc(t):
        return w * nu.log_eval(t) * (np.cos(t) - 1.0)

    def u_factor(t, s):
        return np.exp(a * (mu.log_eval(t) - mu.log_eval(s)) + osc(t) - osc(s))

    def v_factor(t, s):
        return np.exp(b * (mu.log_eval(t) - mu.log_eval(s)) - osc(t) + osc(s))

    coeff = None
    if mu.has_derivative and nu.has_derivative:
        def osc_deriv(t):
            return w * (nu.deriv(t) / nu(t) * (np.cos(t) - 1.0) - nu.log_eval(t) * np.sin(t))

        def coeff(t):  # noqa: F811 - deliberate rebind
            r = mu.deriv(t) / mu(t)
            return _diagonal(a * r + osc_deriv(t), b * r - osc_deriv(t))

    return LinearSystem(2, 1, coordinate_projection(2, 1), A=coeff, U=u_factor, V=v_factor,
                        label=f"sharp_oscillating(a={a:g}, b={b:g}, eps={eps:g})",
                        meta={"kind": "sharp_oscillating", "a": a, "b": b, "eps": eps,
                              "mu": mu, "nu": nu})


def matrix_system(coeff: Callable[[float], np.ndarray], n: int, n_stable: int,
                  label: str = "matrix") -> LinearSystem:
    """System given by a coefficient matrix A(t) with coordinate projections.

    ``coeff`` must also accept times of shape (B,); see ``LinearSystem``.
    """
    return LinearSystem(n, n_stable, coordinate_projection(n, n_stable), A=coeff,
                        label=label, meta={"kind": "matrix"})


def _closed_form_transition(system: LinearSystem, t: float, s: float) -> np.ndarray:
    m = np.zeros((system.n, system.n))
    u = float(system.U(t, s))
    v = float(system.V(t, s))
    for i in range(system.n_stable):
        m[i, i] = u
    for i in range(system.n_stable, system.n):
        m[i, i] = v
    return m


def transition(system: LinearSystem, t: float, s: float, h: float = 1e-3) -> np.ndarray:
    """Transition matrix T(t, s) mapping states at time s to states at time t >= s."""
    if t < s:
        raise ValueError(f"transition requires t >= s, got t={t}, s={s}")
    if system.form == "closed_form":
        return _closed_form_transition(system, t, s)
    return rk4_propagate(lambda r, m: system.A(r) @ m, s, np.eye(system.n), t, h)


def transition_inverse(system: LinearSystem, t: float, s: float, h: float = 1e-3,
                       cond_limit: float = 1e8) -> tuple[np.ndarray, list[str]]:
    """T(t, s)^-1 = T(s, t), with a conditioning-aware route for matrix systems.

    Direct inversion is used while the (spectral) condition number stays below
    ``cond_limit``; beyond it, or on a singular factor, the inverse is obtained
    by propagating the system backward from t to s.  Returns (matrix, notes).
    """
    if t < s:
        raise ValueError(f"transition_inverse requires t >= s, got t={t}, s={s}")
    notes: list[str] = []
    if system.form == "closed_form":
        m = np.zeros((system.n, system.n))
        u = float(system.U(t, s))
        v = float(system.V(t, s))
        if u == 0.0 or v == 0.0:
            notes.append(f"singular closed-form factor at (t={t}, s={s})")
            return np.full((system.n, system.n), np.nan), notes
        for i in range(system.n_stable):
            m[i, i] = 1.0 / u
        for i in range(system.n_stable, system.n):
            m[i, i] = 1.0 / v
        return m, notes
    fwd = transition(system, t, s, h)
    try:
        inv = np.linalg.inv(fwd)
        cond = spectral_norm(fwd) * spectral_norm(inv)
        if cond <= cond_limit:
            return inv, notes
        notes.append(f"condition number {cond:.3e} above {cond_limit:.1e}; "
                     "using backward propagation")
    except np.linalg.LinAlgError:
        notes.append("transition matrix numerically singular; using backward propagation")
    back = rk4_propagate(lambda r, m: system.A(r) @ m, t, np.eye(system.n), s, h)
    return back, notes


def pair_grid(t_max: float, n_pairs: int) -> list[tuple[float, float]]:
    """Deterministic grid of exactly ``n_pairs`` time pairs (t, s), 0 <= s <= t <= t_max."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be positive")
    fractions = (0.0, 0.25, 0.5, 0.75, 1.0)
    pairs = []
    for i in range(n_pairs):
        t = t_max * (i + 1) / n_pairs
        s = fractions[i % len(fractions)] * t
        pairs.append((t, s))
    return pairs


@dataclass(frozen=True)
class DichotomyCertificate:
    """Grid evidence for a claimed dichotomy; pass means every pair stayed in bound."""

    passed: bool
    max_stable_ratio: float
    max_unstable_ratio: float
    max_commutation_residual: float
    tol: float
    n_pairs: int
    rows: tuple[tuple[float, float, float, float, float], ...]
    notes: tuple[str, ...] = ()


def verify_dichotomy(system: LinearSystem, mu: GrowthRate, nu: GrowthRate,
                     params: DichotomyParams, pairs: Sequence[tuple[float, float]],
                     tol: float = 1e-9, h: float = 1e-3) -> DichotomyCertificate:
    """Check both dichotomy bounds and projection commutation on a grid of pairs.

    Each row records (t, s, stable_ratio, unstable_ratio, commutation_residual)
    where the ratios are measured norm over claimed bound.  The certificate
    passes iff all ratios are <= 1 + tol and all residuals <= tol.
    """
    rows = []
    notes: list[str] = []
    for t, s in pairs:
        log_ratio = mu.log_eval(t) - mu.log_eval(s)
        stable_bound = params.D * np.exp(params.a * log_ratio + params.eps * nu.log_eval(s))
        unstable_bound = params.D * np.exp(-params.b * log_ratio + params.eps * nu.log_eval(t))
        if system.form == "closed_form":
            u = abs(float(system.U(t, s)))
            v = abs(float(system.V(t, s)))
            stable_norm = u if system.n_stable > 0 else 0.0
            unstable_norm = (1.0 / v if v > 0.0 else np.inf) if system.n_unstable > 0 else 0.0
            commut = 0.0
        else:
            fwd = transition(system, t, s, h)
            inv, inv_notes = transition_inverse(system, t, s, h)
            notes.extend(inv_notes)
            p_s = system.P(s)
            p_t = system.P(t)
            q_t = np.eye(system.n) - p_t
            stable_norm = spectral_norm(fwd @ p_s)
            unstable_norm = spectral_norm(inv @ q_t)
            commut = spectral_norm(p_t @ fwd - fwd @ p_s)
        rows.append((float(t), float(s), float(stable_norm / stable_bound),
                     float(unstable_norm / unstable_bound), float(commut)))
    arr = np.asarray(rows)
    max_s = float(arr[:, 2].max())
    max_u = float(arr[:, 3].max())
    max_c = float(arr[:, 4].max())
    passed = bool(max_s <= 1.0 + tol and max_u <= 1.0 + tol and max_c <= tol)
    return DichotomyCertificate(passed, max_s, max_u, max_c, tol, len(rows),
                                tuple(tuple(r) for r in rows), tuple(dict.fromkeys(notes)))


def sharpness_probe(system: LinearSystem, ks: Sequence[int]) -> list[dict]:
    """Residuals |U(t,s) - attained bound| at t = 2k*pi, s = (2k-1)*pi.

    Only meaningful on the sharp oscillating builder; anything else raises,
    since the probe pairs are tied to that system's phase structure.
    """
    if system.meta.get("kind") != "sharp_oscillating":
        raise ValueError("sharpness probe requires a sharp_oscillating system")
    mu: GrowthRate = system.meta["mu"]
    nu: GrowthRate = system.meta["nu"]
    a = system.meta["a"]
    eps = system.meta["eps"]
    out = []
    for k in ks:
        if k < 1:
            raise ValueError("probe indices must be positive integers")
        t = 2.0 * np.pi * k
        s = (2.0 * k - 1.0) * np.pi
        observed = float(system.U(t, s))
        expected = float(np.exp(a * (mu.log_eval(t) - mu.log_eval(s)) + eps * nu.log_eval(s)))
        out.append({"k": int(k), "t": t, "s": s, "observed": observed,
                    "expected": expected, "residual": abs(observed - expected)})
    return out
