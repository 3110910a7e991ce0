"""Small dense linear-algebra and ODE-stepping helpers.

Spectral norms are computed without any external eigensolver: closed form for
1x1 and 2x2, power iteration on M^T M above that.  One 4th-order Runge-Kutta
step, ``rk4_step``, serves every integrator of the package: the transition-matrix
propagator here, the solver's inner-grid stepper and the nonlinear flow.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["spectral_norm", "rk4_step", "rk4_propagate"]


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a real matrix.

    Exact formulas for sizes 1 and 2; otherwise power iteration on M^T M
    (50 iterations or relative change below 1e-12, deterministic start).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = m.shape
    if rows == 1 and cols == 1:
        return abs(m[0, 0])
    if rows == 2 and cols == 2:
        gram_trace = float(np.sum(m * m))
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        disc = max(gram_trace * gram_trace - 4.0 * det * det, 0.0)
        return float(np.sqrt(0.5 * (gram_trace + np.sqrt(disc))))
    gram = m.T @ m
    v = np.ones(cols) / np.sqrt(cols)
    lam = 0.0
    for _ in range(50):
        w = gram @ v
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam_new = float(v @ (gram @ v))
        if lam > 0.0 and abs(lam_new - lam) <= 1e-12 * lam:
            lam = lam_new
            break
        lam = lam_new
    return float(np.sqrt(max(lam, 0.0)))


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


def rk4_propagate(deriv: Callable[[float, np.ndarray], np.ndarray], t0: float,
                  y0: np.ndarray, t1: float, h: float) -> np.ndarray:
    """Integrate y' = deriv(t, y) from t0 to t1 with fixed 4th-order steps.

    The step count is chosen so the grid lands exactly on t1 with step size
    at most ``h``; integration may run backward (t1 < t0).
    """
    span = t1 - t0
    if span == 0.0:
        return np.array(y0, dtype=float, copy=True)
    n_steps = max(1, int(np.ceil(abs(span) / h)))
    dt = span / n_steps
    t = t0
    y = np.array(y0, dtype=float, copy=True)
    for _ in range(n_steps):
        y = rk4_step(deriv, t, y, dt)
        t += dt
    return y
