"""Growth-rate families and axiom checks.

A growth rate is an increasing function mu : [0, inf) -> [1, inf) with
mu(0) = 1 and mu(t) -> inf.  Four builtin families are provided::

    exponential   e^t
    polynomial    1 + t
    log_poly      (1 + t) * (1 + log(1 + t))^lam
    loglog_poly   (1 + t) * (1 + log(1 + t)) * (1 + log(1 + log(1 + t)))^lam

The log families admit a slower companion rate (selected with
``nu_companion=True``) used as the second leg of a nonuniform bound:
``1 + log(1 + t)`` for log_poly, ``1 + log(1 + log(1 + t))`` for loglog_poly.

Rates evaluate elementwise on numpy arrays.  ``log_eval`` gives log(mu(t))
without overflow, which downstream quadrature relies on for large t; the log
families nest ``np.log1p`` so that it stays accurate to rounding near t = 0.
``log_inverse`` maps the rate clock rho = log(mu(t)) back to t, with the
Jacobian dt/drho = mu(t)/mu'(t): in closed form for the exponential
(identity) and polynomial (expm1) families.  Every other rate with a
derivative gets a vectorized bisection on double bit patterns, started from
a checked Newton bracket: 17 evaluations of ``log_eval`` per grid on the
bundled clocks, where a bisection over all of [0, inf] takes 64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .expr import compile_expression

__all__ = ["GrowthRate", "AxiomReport", "builtin_rate", "expression_rate",
           "check_growth_axioms", "BUILTIN_FAMILIES"]

BUILTIN_FAMILIES = ("exponential", "polynomial", "log_poly", "loglog_poly")


@dataclass(frozen=True)
class GrowthRate:
    """A scalar growth rate with optional derivative, log-scale evaluator and its inverse.

    ``log_inv`` maps rho = log(mu(t)) to (t, dt/drho) in closed form; without
    it, a rate with a derivative inverts ``log_eval`` numerically.
    """

    label: str
    fn: Callable
    deriv: Callable | None = None
    log_fn: Callable | None = None
    family: str | None = None
    params: Mapping[str, float] = field(default_factory=dict)
    log_inv: Callable | None = None

    def __call__(self, t):
        return self.fn(t)

    def log_eval(self, t):
        """log(mu(t)), overflow-safe when a closed log form is known."""
        if self.log_fn is not None:
            return self.log_fn(t)
        return np.log(self.fn(t))

    def log_inverse(self, rho):
        """Times t >= 0 with log(mu(t)) = rho >= 0, and dt/drho = mu(t)/mu'(t) there.

        Needs a derivative.  Returns new arrays.
        """
        if self.log_inv is not None:
            return self.log_inv(rho)
        if self.deriv is None:
            raise ValueError(f"rate {self.label!r} has no derivative to invert log(mu) with")
        t = _solve_log(self, np.asarray(rho, dtype=float))
        return t, self.fn(t) / self.deriv(t)

    @property
    def has_derivative(self) -> bool:
        return self.deriv is not None


_NEWTON_STEPS = 6
_BRACKET = 256  # bit patterns on each side of the Newton time
_INF = np.float64(np.inf).view(np.int64)


def _solve_log(rate: GrowthRate, rho: np.ndarray) -> np.ndarray:
    """Smallest t >= 0 with log(mu(t)) >= rho, elementwise.

    Bisection on the bit patterns of nonnegative doubles, which are ordered
    like the numbers, so it ends on adjacent doubles and never trusts log(mu)
    beyond its sign against rho.  It starts from a bracket of +-_BRACKET
    patterns around a Newton estimate: a few steps on log(mu(expm1(u))) = rho
    in u = log1p(t) from u = max(rho, 0), with slope mu'/mu (1 + t).  Each
    end is checked with one evaluation of log(mu); an element whose bracket
    fails the check starts instead from the whole range, one pattern below 0.0
    up to inf, and takes up to 64 halvings.  Only unfinished elements are
    evaluated in each halving.  The test against rho is the same either
    way, so for a log(mu) nondecreasing in t the result does not depend on the
    start: it is the first double where the test holds, and rho <= 0 gives
    t = 0.
    """
    shape, rho = rho.shape, rho.ravel()
    with np.errstate(all="ignore"):
        u = np.maximum(rho, 0.0)
        for _ in range(_NEWTON_STEPS):
            t = np.expm1(u)
            slope = rate.deriv(t) / rate.fn(t) * (1.0 + t)
            u = np.maximum(u - (rate.log_eval(t) - rho) / slope, 0.0)
        guess = np.clip(np.expm1(u).view(np.int64), 0, _INF)
        lo = np.maximum(guess - _BRACKET, -1)
        hi = np.minimum(guess + _BRACKET, _INF)
        held = ((lo < 0) | ~(rate.log_eval(np.maximum(lo, 0).view(np.float64)) >= rho)) & (
            rate.log_eval(hi.view(np.float64)) >= rho)
        lo[~held], hi[~held] = -1, _INF
        rows = np.flatnonzero(hi - lo > 1)
        while rows.size:
            lo_r, hi_r = lo[rows], hi[rows]
            mid = lo_r + (hi_r - lo_r) // 2
            up = rate.log_eval(mid.view(np.float64)) >= rho[rows]
            hi[rows] = np.where(up, mid, hi_r)
            lo[rows] = np.where(up, lo_r, mid)
            rows = rows[hi[rows] - lo[rows] > 1]
    return hi.view(np.float64).reshape(shape)


def _l1(t):
    return 1.0 + np.log1p(t)


def _l2(t):
    return 1.0 + np.log(_l1(t))


def _log_l1(t):
    """log(_l1(t)) without rounding 1 + log1p(t) first, which loses the small t."""
    return np.log1p(np.log1p(t))


def _log_l2(t):
    """log(_l2(t)), nested the same way."""
    return np.log1p(_log_l1(t))


def _exp_clock(rho):
    """The inverse of log(e^t) = t: the identity, with dt/drho = 1."""
    return np.array(rho, dtype=float), np.ones(np.shape(rho))


def builtin_rate(family: str, lam: float | None = None, nu_companion: bool = False) -> GrowthRate:
    """Construct a builtin rate; see the module docstring for the families.

    ``lam`` is required (and must be positive) for the log families unless the
    companion rate is requested, where it plays no role.
    """
    if family not in BUILTIN_FAMILIES:
        raise ValueError(f"unknown rate family {family!r}; expected one of {BUILTIN_FAMILIES}")
    if family == "exponential":
        return GrowthRate("exponential", np.exp, deriv=np.exp,
                          log_fn=lambda t: np.asarray(t, dtype=float) + 0.0,
                          family="exponential", log_inv=_exp_clock)
    if family == "polynomial":
        return GrowthRate("polynomial", lambda t: 1.0 + np.asarray(t, dtype=float),
                          deriv=lambda t: np.ones_like(np.asarray(t, dtype=float)),
                          log_fn=np.log1p, family="polynomial",
                          log_inv=lambda rho: (np.expm1(rho), np.exp(rho)))
    if family == "log_poly":
        if nu_companion:
            return GrowthRate("log_plain", _l1,
                              deriv=lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float)),
                              log_fn=_log_l1, family="log_plain")
        if lam is None or lam <= 0:
            raise ValueError("log_poly requires lam > 0")
        lam = float(lam)
        return GrowthRate(
            f"log_poly(lam={lam:g})",
            lambda t: (1.0 + np.asarray(t, dtype=float)) * _l1(t) ** lam,
            deriv=lambda t: _l1(t) ** (lam - 1.0) * (_l1(t) + lam),
            log_fn=lambda t: np.log1p(t) + lam * _log_l1(t),
            family="log_poly", params={"lam": lam},
        )
    # loglog_poly
    if nu_companion:
        return GrowthRate(
            "loglog_plain", _l2,
            deriv=lambda t: 1.0 / ((1.0 + np.asarray(t, dtype=float)) * _l1(t)),
            log_fn=_log_l2, family="loglog_plain",
        )
    if lam is None or lam <= 0:
        raise ValueError("loglog_poly requires lam > 0")
    lam = float(lam)

    def _ll_deriv(t, lam=lam):
        l1 = _l1(t)
        l2 = _l2(t)
        return l1 * l2 ** lam + l2 ** lam + lam * l2 ** (lam - 1.0)

    return GrowthRate(
        f"loglog_poly(lam={lam:g})",
        lambda t: (1.0 + np.asarray(t, dtype=float)) * _l1(t) * _l2(t) ** lam,
        deriv=_ll_deriv,
        log_fn=lambda t: np.log1p(t) + _log_l1(t) + lam * _log_l2(t),
        family="loglog_poly", params={"lam": lam},
    )


def expression_rate(text: str) -> GrowthRate:
    """Compile a user-supplied rate formula in the variable ``t``.

    No derivative or closed log form is attached; axiom compliance is reported
    by :func:`check_growth_axioms`, not enforced here.
    """
    f = compile_expression(text, variables=("t",))
    return GrowthRate(text, lambda t: f(t=t))


# the divergence probe: a rate must reach _DIVERGENCE_LEVEL by t = _DIVERGENCE_T
_DIVERGENCE_T = 1e12
_DIVERGENCE_LEVEL = 4.0


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the three growth-rate axiom probes on a finite grid."""

    unit_at_zero: bool
    monotone_on_grid: bool
    diverges: bool
    unit_error: float
    worst_violation: float
    worst_pair: tuple[float, float] | None
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.unit_at_zero and self.monotone_on_grid and self.diverges


def check_growth_axioms(rate: GrowthRate, grid) -> AxiomReport:
    """Probe unit value at 0, monotonicity on ``grid``, and divergence.

    ``grid`` must be nonempty and start at 0.  Violations are reported, not
    raised; any drop between neighbouring grid values breaks monotonicity.
    Divergence is necessarily a heuristic on finite probes: the rate must
    reach ``_DIVERGENCE_LEVEL`` by t = ``_DIVERGENCE_T`` and keep strictly
    increasing along the decade ladder up to it; an overflow to inf counts as
    divergent.  The level is low on purpose so the doubly-logarithmic
    companion rate (about 4.36 at 1e12) still registers as unbounded.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] != 0.0:
        raise ValueError("grid must be nonempty and start at 0")
    notes: list[str] = []
    ladder = np.power(_DIVERGENCE_T, np.linspace(0.25, 1.0, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(rate(grid), dtype=float)
        unit_error = abs(float(rate(0.0)) - 1.0)
        ladder_vals = np.asarray(rate(ladder), dtype=float)
    unit_ok = unit_error <= 1e-12
    if np.isnan(vals).any():
        notes.append("rate evaluated to NaN on the grid")
        monotone_ok = False
        worst = float("nan")
        pair = None
    else:
        drops = vals[:-1] - vals[1:]
        drops = np.where(np.isfinite(drops), drops, 0.0)
        worst = float(drops.max(initial=0.0))
        if worst > 0.0:
            i = int(np.argmax(drops))
            pair = (float(grid[i]), float(grid[i + 1]))
            monotone_ok = False
        else:
            pair = None
            monotone_ok = True
    if np.isnan(ladder_vals).any():
        diverges = False
        notes.append("divergence probe evaluated to NaN")
    elif np.isinf(ladder_vals).any():
        diverges = True
    else:
        steps_up = np.diff(ladder_vals) > 1e-12 * np.abs(ladder_vals[:-1])
        diverges = bool(ladder_vals[-1] >= _DIVERGENCE_LEVEL and steps_up.all())
    return AxiomReport(unit_ok, monotone_ok, diverges, unit_error, worst, pair, tuple(notes))
