"""Simpson-rule quadrature: adaptive on intervals, composite/cumulative on samples.

The adaptive rule is the classic bisection scheme with Richardson error control
(accept when the two-panel refinement moves the estimate by less than 15*tol).
Many intervals are integrated at once, level by level, each result equal bit
for bit to the depth-first recursion on its interval alone.
The cumulative rule returns prefix integrals at every sample point of a uniform
grid; odd-index prefixes use the half-panel three-point rule so the whole table
retains O(h^4) accuracy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError

__all__ = ["adaptive_simpson", "adaptive_simpson_many", "composite_simpson",
           "cumulative_simpson"]


def adaptive_simpson_many(f: Callable[[np.ndarray], np.ndarray], a, b, tol,
                          max_depth: int = 52, rel_floor: float = 0.0) -> np.ndarray:
    """Integrate array-valued ``f`` over every [a_i, b_i] to absolute tolerance tol_i.

    A positive ``rel_floor`` raises each tol_i to rel_floor times the
    interval's 3-point Simpson estimate, where that estimate is finite and larger.

    The bisection trees of all intervals grow together, one call of ``f`` per
    level on the quarter points of every node still splitting.  They are then
    summed bottom-up in the recursion's order, so each result is bit-identical
    to integrating its interval alone.  A level wider than 2^16 nodes, or 2^10
    per interval, raises ConvergenceError: the tolerance is below round-off,
    and the tree would grow toward 2^max_depth nodes.
    """
    a, b, tol = (np.array(x, dtype=float).ravel() for x in np.broadcast_arrays(a, b, tol))
    out = np.zeros(a.shape)
    live = np.flatnonzero(b != a)
    if not live.size:
        return out
    a, b, tol = a[live], b[live], tol[live]
    fa, fb, fm = np.split(f(np.concatenate([a, b, 0.5 * (a + b)])), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    if rel_floor:
        tol = np.where(np.isfinite(whole), np.maximum(tol, rel_floor * whole), tol)
    levels = []  # per level: leaf mask and the leaves' values
    depth = max_depth
    with np.errstate(over="ignore", invalid="ignore"):
        while a.size:
            if a.size > max(1 << 16, 1024 * live.size):
                raise ConvergenceError(f"adaptive Simpson level of {a.size} nodes: the "
                                       "tolerance is below the integrand's round-off")
            m = 0.5 * (a + b)
            quarters = f(np.concatenate([0.5 * (a + m), 0.5 * (m + b)]))
            flm, frm = quarters[:a.size], quarters[a.size:]
            left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
            delta = left + right - whole
            # a non-finite estimate cannot improve under bisection: keep it as the answer
            leaf = (depth <= 0) | ~np.isfinite(delta) | (np.abs(delta) <= 15.0 * tol)
            levels.append((leaf, (left + right + delta / 15.0)[leaf]))
            # children of the splitting nodes, each left half before its right half
            split = ~leaf
            a, b, fa, fb, fm, whole = np.stack([x[split] for x in (
                a, m, m, b, fa, fm, fm, fb, flm, frm, left, right)]).reshape(
                6, 2, -1).transpose(0, 2, 1).reshape(6, -1)
            tol = np.repeat(0.5 * tol[split], 2)
            depth -= 1
        sums = np.empty(0)
        for leaf, values in reversed(levels):
            node = np.empty(leaf.shape)
            node[leaf] = values
            node[~leaf] = sums[0::2] + sums[1::2]
            sums = node
    out[live] = sums
    return out


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float,
                     max_depth: int = 52) -> float:
    """Integrate array-valued ``f`` over [a, b] to absolute tolerance ``tol``."""
    return float(adaptive_simpson_many(f, a, b, tol, max_depth)[0])


def composite_simpson(y: np.ndarray, h: float):
    """Integral of uniformly sampled ``y`` (leading axis) with spacing ``h``."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0] - 1
    if n < 1:
        return np.zeros(y.shape[1:]) if y.ndim > 1 else 0.0
    if n == 1:
        return 0.5 * h * (y[0] + y[1])
    if n % 2 == 0:
        return (h / 3.0) * (y[0] + 4.0 * y[1:-1:2].sum(axis=0) + 2.0 * y[2:-2:2].sum(axis=0) + y[-1])
    head = composite_simpson(y[:-1], h)
    tail = (h / 12.0) * (-y[-3] + 8.0 * y[-2] + 5.0 * y[-1])
    return head + tail


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Prefix integrals of uniformly sampled ``y`` at every sample point.

    ``y`` may be 1-D or have trailing component axes; integration runs along
    axis 0.  out[j] approximates the integral from sample 0 to sample j.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0] - 1
    out = np.zeros_like(y)
    if n < 1:
        return out
    if n == 1:
        out[1] = 0.5 * h * (y[0] + y[1])
        return out
    np.cumsum((h / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]), axis=0, out=out[2::2])
    # odd prefixes below m = n rounded down to even: half-panel rule with the right neighbor
    m = n - n % 2
    out[1:m:2] = out[0:m - 1:2] + (h / 12.0) * (5.0 * y[0:m - 1:2] + 8.0 * y[1:m:2] - y[2:m + 1:2])
    if n % 2 == 1:
        out[n] = out[n - 1] + (h / 12.0) * (-y[n - 2] + 8.0 * y[n - 1] + 5.0 * y[n])
    return out
