"""Small dense linear-algebra and ODE-stepping helpers.

Spectral norms come from numpy's
SVD: a power iteration from a fixed start vector misses a top singular
direction orthogonal to that start, and so would understate a norm that
certifies a bound.  One 4th-order Runge-Kutta step, ``rk4_step``, serves every
integrator: the nonlinear flow and the linear propagator ``rk4_propagate``.
Both evaluate their linear part once on all stage times, which
``rk4_stage_times`` forms as the step does, and look a stage's values up by
its time row.  The propagator gets every step's matrix from one batched
``rk4_step`` on identities and composes them by a prefix scan in log2(steps)
rounds.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["spectral_norm", "rk4_stage_times", "rk4_stage_values", "rk4_step",
           "rk4_propagate"]


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a real 2-D matrix; nan if an entry is not finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return float(np.linalg.norm(m, 2)) if np.isfinite(m).all() else np.nan


def rk4_stage_times(t, dt) -> np.ndarray:
    """The stage times of ``rk4_step`` from t over dt, stacked to shape (3,) + t.shape:
    k1 runs at row 0 (t itself), k2 and k3 at row 1 (t + dt/2), k4 at row 2 (t + dt).
    """
    return np.stack([t, t + 0.5 * dt, t + dt])


def rk4_stage_values(fn: Callable[[np.ndarray], np.ndarray], t: np.ndarray,
                     dt: np.ndarray) -> dict[bytes, np.ndarray]:
    """``fn`` of the steps from t[j] over dt[j], evaluated once on all their stage times.

    ``fn`` takes the flattened ``rk4_stage_times(t, dt)``, shape (3 len(t),), and
    returns one value per time along its first axis.  Maps the bytes of each
    stage-time row, as ``rk4_step`` hands the row to ``deriv``, to that row's
    values, shape (len(t), ...).
    """
    times = rk4_stage_times(t, dt)
    values = fn(times.ravel())
    values = values.reshape(times.shape + values.shape[1:])
    return {r.tobytes(): v for r, v in zip(times, values)}


def rk4_step(deriv: Callable, t, y: np.ndarray, dt):
    """One classical 4th-order step of y' = deriv(t, y) from t to t + dt.

    ``t`` and ``dt`` are scalars, or arrays of shape (B,) that step a batch
    ``y`` of shape (B, ...) row by row; ``deriv`` then receives times (B,).
    """
    t0, t_half, t1 = rk4_stage_times(t, dt)
    step = dt
    if isinstance(dt, np.ndarray):  # one step size per row of y
        step = dt.reshape(dt.shape + (1,) * (y.ndim - dt.ndim))
    k1 = deriv(t0, y)
    k2 = deriv(t_half, y + 0.5 * step * k1)
    k3 = deriv(t_half, y + 0.5 * step * k2)
    k4 = deriv(t1, y + step * k3)
    return y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_propagate(A: Callable[[np.ndarray], np.ndarray], t: np.ndarray, dt: np.ndarray,
                  y0: np.ndarray, right: bool = False) -> np.ndarray:
    """States of y' = A(t) y, or y' = y A(t) with ``right``, from y0 at t[0] and after
    each ``rk4_step`` from t[j] to t[j] + dt[j]: shape (len(t) + 1,) + y0.shape.

    The equation is linear, so step j is a matrix M_j: ``rk4_step`` applied to
    the identity.  All M_j come from one batched ``rk4_step``, and ``A`` is
    called once, on the ``rk4_stage_times`` of all steps.  The prefix products
    M_j...M_0 (M_0...M_j with ``right``) are formed by a Hillis-Steele scan in
    ceil(log2 len(t)) batched products; row 0 is y0 itself.
    """
    n = y0.shape[-1] if right else y0.shape[0]
    # an A that returns one constant (n, n) is broadcast over the times
    stage = rk4_stage_values(lambda r: np.broadcast_to(A(r), (r.size, n, n)), t, dt)

    def deriv(r, m):
        return m @ stage[r.tobytes()] if right else stage[r.tobytes()] @ m

    prod = rk4_step(deriv, t, np.broadcast_to(np.eye(n), (len(t), n, n)), dt)
    k = 1
    while k < len(prod):
        prod[k:] = prod[:-k] @ prod[k:] if right else prod[k:] @ prod[:-k]
        k *= 2
    out = np.empty((len(t) + 1,) + y0.shape)
    out[0] = y0
    out[1:] = y0 @ prod if right else prod @ y0
    return out
