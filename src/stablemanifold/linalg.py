"""Small dense linear-algebra and ODE-stepping helpers.

Spectral norms, like the condition numbers of ``dichotomy``, come from numpy's
SVD: a power iteration from a fixed start vector misses a top singular
direction orthogonal to that start, and so would understate a norm that
certifies a bound.  One 4th-order Runge-Kutta step, ``rk4_step``, serves every
integrator: the nonlinear flow and the linear propagator ``rk4_propagate``.
The propagator evaluates A(t) once on all its stage times, gets every step's
matrix from one batched ``rk4_step`` on identities and composes them by a
prefix scan in log2(steps) rounds.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["spectral_norm", "rk4_step", "rk4_propagate"]


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a real 2-D matrix; nan if an entry is not finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return float(np.linalg.norm(m, 2)) if np.isfinite(m).all() else np.nan


def rk4_step(deriv: Callable, t, y: np.ndarray, dt):
    """One classical 4th-order step of y' = deriv(t, y) from t to t + dt.

    ``t`` and ``dt`` are scalars, or arrays of shape (B,) that step a batch
    ``y`` of shape (B, ...) row by row; ``deriv`` then receives times (B,).
    """
    half = 0.5 * dt
    step = dt
    if isinstance(dt, np.ndarray):  # one step size per row of y
        step = dt.reshape(dt.shape + (1,) * (y.ndim - dt.ndim))
    k1 = deriv(t, y)
    k2 = deriv(t + half, y + 0.5 * step * k1)
    k3 = deriv(t + half, y + 0.5 * step * k2)
    k4 = deriv(t + dt, y + step * k3)
    return y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_propagate(A: Callable[[np.ndarray], np.ndarray], t: np.ndarray, dt: np.ndarray,
                  y0: np.ndarray, right: bool = False) -> np.ndarray:
    """States of y' = A(t) y, or y' = y A(t) with ``right``, from y0 at t[0] and after
    each ``rk4_step`` from t[j] to t[j] + dt[j]: shape (len(t) + 1,) + y0.shape.

    The equation is linear, so step j is a matrix M_j: ``rk4_step`` applied to
    the identity.  All M_j come from one batched ``rk4_step``, and ``A`` is
    called once, on the stage times t, t + 0.5 dt and t + dt of all steps,
    computed as ``rk4_step`` computes them.  The prefix products M_j...M_0
    (M_0...M_j with ``right``) are formed by a Hillis-Steele scan in
    ceil(log2 len(t)) batched products; row 0 is y0 itself.
    """
    times = np.stack([t, t + 0.5 * dt, t + dt])
    a = A(times.ravel())
    a = np.broadcast_to(a, (times.size,) + a.shape[-2:]).reshape(times.shape + a.shape[-2:])
    stage = {r.tobytes(): m for r, m in zip(times, a)}  # rk4_step forms the same rows

    def deriv(r, m):
        return m @ stage[r.tobytes()] if right else stage[r.tobytes()] @ m

    prod = rk4_step(deriv, times[0], np.broadcast_to(np.eye(a.shape[-1]), a.shape[1:]), dt)
    k = 1
    while k < len(prod):
        prod[k:] = prod[:-k] @ prod[k:] if right else prod[k:] @ prod[:-k]
        k *= 2
    out = np.empty((len(t) + 1,) + y0.shape)
    out[0] = y0
    out[1:] = y0 @ prod if right else prod @ y0
    return out
