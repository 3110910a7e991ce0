"""Admissibility certificates: integrability, the radius function beta, delta_max.

Given rates (mu, nu), dichotomy constants (D, a, b, eps) and a perturbation
order q, the manifold construction is admissible when

* g(t) = mu(t)^(a-b) nu(t)^eps is eventually decreasing with g -> 0,
* I(s) = integral_s^inf mu(r)^(a q) nu(r)^eps dr converges,
* beta(s) = mu(s)^a / (nu(s)^(eps (1+1/q)) I(s)^(1/q)) and mu(s)^a/beta(s)
  are nonincreasing.

beta is computed from the tail integral by adaptive Simpson quadrature with a
certified truncation point; closed forms for the builtin rate pairs are kept
separately so they can serve as independent cross-checks and as cheap
extrapolators, never as the quadrature's own shortcut.  I(s) is the walk from
s cut at its anchor, the least power of two >= max(s, 1), plus the anchor's
walk unless the cut walk is certified; a batch runs all these walks in lockstep
and combines them per s, each I(s) bit-identical to computing its s alone.
Each round integrates a block of windows per walk, 1, 2, 4, ... up to
``_BLOCK_CAP``, so the slow log tails, 35 doubling windows from 1, take 10 rounds.

All rate evaluations run in log space so large-t probes degrade to underflow
instead of inf*0 artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DivergenceError, NumericalError, TailBoundError
# adaptive_simpson is not called here; perfbench/tracer.py wraps it in this namespace
from .quadrature import adaptive_simpson, adaptive_simpson_many  # noqa: F401
from .rates import GrowthRate, _l1, _l2

__all__ = ["LimitCheck", "check_limit_condition", "TailBoundInfo", "analytic_tail_bound",
           "improper_rate_integral", "improper_rate_integrals", "BetaFunction",
           "closed_form_beta", "MonotonicityCheck", "check_monotonicity", "delta_max",
           "delta_max_bounds", "delta_max_terms", "default_capacity"]

_DEFAULT_LIMIT_GRID = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)
_LOG_MAX = math.log(np.finfo(float).max)  # math.exp overflows above it
_MONOTONICITY_SLACK = 1e-9  # largest relative uptick that still counts as nonincreasing
_BLOCK_CAP = 4  # most windows a tail walk integrates per round: blocks of 1, 2, 4, 4, ...


@dataclass(frozen=True)
class LimitCheck:
    """Outcome of the mu^(a-b) nu^eps -> 0 probe on a geometric grid."""

    passed: bool
    inconclusive: bool
    eventually_decreasing: bool
    tail_drop_ok: bool


def check_limit_condition(mu: GrowthRate, nu: GrowthRate, a: float, b: float, eps: float,
                          t_grid: Sequence[float] | None = None) -> LimitCheck:
    """Probe that g(t) = mu(t)^(a-b) nu(t)^eps decays.

    Passes when g is eventually decreasing on the grid and the last sample has
    dropped below 1e-3 of the first.  Overflow artifacts (NaN in log space)
    make the check inconclusive rather than failed.
    """
    grid = np.asarray(_DEFAULT_LIMIT_GRID if t_grid is None else t_grid, dtype=float)
    if grid.size < 2:
        raise ValueError("limit-condition grid needs at least two points")
    with np.errstate(over="ignore", invalid="ignore"):
        log_g = np.asarray([(a - b) * float(mu.log_eval(t)) + eps * float(nu.log_eval(t))
                            for t in grid])
    if np.isnan(log_g).any():
        return LimitCheck(False, True, False, False)
    rises = np.nonzero(np.diff(log_g) > 0.0)[0]
    first_decreasing = int(rises[-1]) + 1 if rises.size else 0
    eventually_decreasing = first_decreasing <= log_g.size - 2
    tail_drop_ok = bool(log_g[-1] < log_g[0] + math.log(1e-3))
    return LimitCheck(eventually_decreasing and tail_drop_ok, False,
                      eventually_decreasing, tail_drop_ok)


@dataclass(frozen=True)
class TailBoundInfo:
    """Certified upper bound for a rate-integral tail, or a divergence verdict."""

    fn: Callable[[float], float] | None
    exact: bool
    divergent: bool


_TRIPLES = {
    "polynomial": lambda r: (1.0, 0.0, 0.0),
    "log_poly": lambda r: (1.0, r.params["lam"], 0.0),
    "log_plain": lambda r: (0.0, 1.0, 0.0),
    "loglog_poly": lambda r: (1.0, 1.0, r.params["lam"]),
    "loglog_plain": lambda r: (0.0, 0.0, 1.0),
}


def _poly_log_tail(alpha: float, beta: float, gamma: float) -> TailBoundInfo | None:
    """Tail certificate for integrands (1+r)^alpha L1(r)^beta L2(r)^gamma.

    Uses exact antiderivatives where substitution applies and the chord
    comparison L(r)/L(T) <= (1+r)/(1+T) (valid for r >= T since L >= 1 and L
    has slope at most 1/(1+r)) to absorb positive log exponents otherwise.
    """
    if alpha < -1.0:
        shift = max(beta, 0.0) + max(gamma, 0.0)
        edge = alpha + shift + 1.0
        if edge >= 0.0:
            return None
        exact = beta == 0.0 and gamma == 0.0
        return TailBoundInfo(
            lambda T: (1.0 + T) ** (alpha + 1.0) * _l1(T) ** beta * _l2(T) ** gamma / abs(edge),
            exact, False)
    if alpha == -1.0:
        if gamma == 0.0:
            if beta < -1.0:
                return TailBoundInfo(lambda T: _l1(T) ** (beta + 1.0) / abs(beta + 1.0), True, False)
            return TailBoundInfo(None, False, True)
        if beta == -1.0:
            if gamma < -1.0:
                return TailBoundInfo(lambda T: _l2(T) ** (gamma + 1.0) / abs(gamma + 1.0), True, False)
            return TailBoundInfo(None, False, True)
        if beta < -1.0:
            if gamma <= 0.0:
                return TailBoundInfo(
                    lambda T: _l2(T) ** gamma * _l1(T) ** (beta + 1.0) / abs(beta + 1.0),
                    False, False)
            edge = beta + gamma + 1.0
            if edge >= 0.0:
                return None
            return TailBoundInfo(
                lambda T: _l2(T) ** gamma * _l1(T) ** (beta + 1.0) / abs(edge), False, False)
        return TailBoundInfo(None, False, True)
    return TailBoundInfo(None, False, True)


def analytic_tail_bound(mu: GrowthRate, nu: GrowthRate, p: float,
                        eps: float) -> TailBoundInfo | None:
    """Tail certificate for integral_T^inf mu(r)^p nu(r)^eps dr, if the family pair admits one.

    Returns None for rate pairs outside the builtin catalogue (the caller then
    falls back to the doubling heuristic).
    """
    mu_exp = mu.family == "exponential"
    nu_exp = nu.family == "exponential"
    if mu_exp and nu_exp:
        rho = p + eps
        if rho >= 0.0:
            return TailBoundInfo(None, False, True)
        return TailBoundInfo(lambda T: math.exp(rho * T) / abs(rho), True, False)
    if mu_exp:
        if p >= 0.0:
            return TailBoundInfo(None, False, True)
        if nu.family not in _TRIPLES or not nu.has_derivative:
            return None

        def bound(T: float) -> float:
            # log nu is concave for the slow families, so its slope at T bounds
            # the slope beyond T:  nu(r)^eps <= nu(T)^eps exp(eps k (r - T)).
            k = eps * float(nu.deriv(T)) / float(nu(T))
            rho = p + k
            if rho >= 0.0:
                return math.inf
            return math.exp(eps * float(nu.log_eval(T)) + p * T) / abs(rho)

        return TailBoundInfo(bound, False, False)
    if mu.family not in _TRIPLES:
        return None
    if nu_exp:
        if eps > 0.0:
            return TailBoundInfo(None, False, True)
        nu_triple = (0.0, 0.0, 0.0)
    elif nu.family in _TRIPLES:
        nu_triple = _TRIPLES[nu.family](nu)
    else:
        return None
    mu_triple = _TRIPLES[mu.family](mu)
    alpha = p * mu_triple[0] + eps * nu_triple[0]
    beta = p * mu_triple[1] + eps * nu_triple[1]
    gamma = p * mu_triple[2] + eps * nu_triple[2]
    return _poly_log_tail(alpha, beta, gamma)


def _map(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """fn per element of x, e.g. math.exp: np.exp differs from it in the last bit
    on a few percent of arguments, which would move every beta."""
    x = np.ravel(x)
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _rate_integrand(mu: GrowthRate, nu: GrowthRate, p: float,
                    eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """r -> mu(r)^p nu(r)^eps elementwise, evaluated in log space by math.exp; inf
    above the float range."""
    def integrand(r: np.ndarray) -> np.ndarray:
        logs = np.ravel(p * np.asarray(mu.log_eval(r)) + eps * np.asarray(nu.log_eval(r)))
        try:
            return _map(math.exp, logs)
        except OverflowError:  # above the float range: inf
            return np.where(logs > _LOG_MAX, math.inf, _map(math.exp, np.minimum(logs, _LOG_MAX)))
    return integrand


def _anchor(s: float) -> float:
    """The least power of two >= max(s, 1), where the walk from s hands over its tail;
    s itself from 2^52 on, where a power of two above s has no window of width 1."""
    if s <= 1.0:
        return 1.0
    mant, expo = math.frexp(s)
    return s if mant == 0.5 or expo >= 53 or not math.isfinite(s) else math.ldexp(1.0, expo)


def _span_error(s: float, rel_tol: float, max_span: float) -> TailBoundError:
    return TailBoundError(
        f"no truncation certifying rel_tol={rel_tol:g} within span {max_span:g}", s=s)


def _walk(info: TailBoundInfo | None, s: float, stop: float, scale: float, rel_tol: float,
          max_span: float):
    """Coroutine over the doubling windows from s, the last one cut at ``stop``.

    Yields the windows (lo, hi, tol) in blocks of 1, 2, 4, ... up to ``_BLOCK_CAP``,
    each tol 0.01 rel_tol times the mass when the block is issued, and is sent
    each block's masses: floats, or the ConvergenceError of a window's
    quadrature.  It judges the windows in order and discards the masses past
    the one that ends it.  Returns (outcome, lo), lo the start of the last
    window judged; the outcome is (mass, certified), certified once truncation
    is and uncertified when a window reaches ``stop``, or the NumericalError
    that ended the walk.  A window that ends more than ``max_span`` beyond s
    without ending the walk is a TailBoundError, as is a first window of no
    width (s + 1 == s, or NaN), which ends the walk before its first block.
    """
    total = 0.0
    deltas: list[float] = []
    lo, hi = s, min(s + 1.0, stop)
    if not hi > lo:
        return TailBoundError(f"no window of positive width starts at s={s:g}", s=s), lo
    first_ref = scale * (hi - lo)
    size = 1
    while True:
        tol = max(0.01 * rel_tol * (total if total > 0.0 else first_ref), 5e-324)
        block = [(lo, hi, tol)]
        while len(block) < size and hi < stop and hi - s <= max_span:
            lo, hi = hi, min(s + 2.0 * (hi - s), stop)
            block.append((lo, hi, tol))
        masses = yield block
        for (lo, hi, _), delta in zip(block, masses):
            if isinstance(delta, ConvergenceError):
                return delta, lo
            if not math.isfinite(delta):
                return DivergenceError(
                    f"window [{lo:g}, {hi:g}] mass overflows the float range"), lo
            total += delta
            deltas.append(delta)
            if info is not None and total > 0.0:
                bound = info.fn(hi)
                if math.isfinite(bound):
                    if bound <= 0.2 * rel_tol * total:
                        return (total, True), lo
                    if info.exact and len(deltas) >= 2 and (
                            bound <= 1e-3 * total
                            or (hi - s >= 1e10 and bound <= total)):
                        # doubly-log tails never reach the 1e-3 fraction; past a
                        # huge span settle for quadrature >= half the mass
                        return (total + bound, True), lo
            elif info is None and len(deltas) >= 2 and total > 0.0:
                if deltas[-1] < 0.1 * rel_tol * total and deltas[-2] > 0.0:
                    theta = deltas[-1] / deltas[-2]
                    if theta < 1.0:
                        tail_est = deltas[-1] * theta / (1.0 - theta)
                        if tail_est <= rel_tol * total:
                            return (total, True), lo
            if (len(deltas) >= 3 and deltas[-1] > 4.0 * deltas[-2] > 0.0
                    and 2.0 * deltas[-1] > total):
                return DivergenceError(
                    "window masses are growing; partial integrals not Cauchy"), lo
            # the span limit is 1e12 max(1, 1 + s): a convergent tail from a huge s
            # spreads its mass over spans of order s
            if (hi - s > 1e12 and hi - s > 1e12 * (1.0 + s) and total > 0.0
                    and deltas[-1] > 1e-3 * total):
                return DivergenceError(
                    f"window mass still {deltas[-1] / total:.2e} of the total at span "
                    f"{hi - s:.1e}; partial integrals not Cauchy"), lo
            if hi >= stop:
                return (total, False), lo
            if hi - s > max_span:
                return _span_error(s, rel_tol, max_span), lo
        lo, hi = hi, min(s + 2.0 * (hi - s), stop)
        size = min(2 * size, _BLOCK_CAP)


def _masses(integrand: Callable[[np.ndarray], np.ndarray], windows: list, rel_floor: float) -> list:
    """The mass of every window (lo, hi, tol), integrated in one batch.

    Where the batch outgrows the quadrature's level cap, each window is
    integrated alone and one that still does gets its ConvergenceError, so
    only a walk that reaches it fails.
    """
    try:
        return adaptive_simpson_many(integrand, *np.array(windows).T,
                                     rel_floor=rel_floor).tolist()
    except ConvergenceError:
        masses = []
        for window in windows:
            try:
                masses.append(float(adaptive_simpson_many(integrand, *window,
                                                          rel_floor=rel_floor)[0]))
            except ConvergenceError as exc:
                masses.append(exc)
        return masses


def improper_rate_integrals(mu: GrowthRate, nu: GrowthRate, p: float, eps: float,
                            s_values: Sequence[float], rel_tol: float = 1e-8,
                            max_span: float = 1e30) -> np.ndarray:
    """integral_s^inf mu(r)^p nu(r)^eps dr at every s, by windowed adaptive Simpson.

    Windows double in span from s; truncation is certified by the analytic
    tail bound when the family pair has one, otherwise by geometric
    extrapolation of the window masses.  Once the last window holds under
    0.1 rel_tol of the mass and shrank by a ratio theta < 1, the rest is
    taken as delta theta / (1 - theta), the sum of the later windows if each
    keeps shrinking by theta.  That is an estimate, not a bound: it holds
    where window masses shrink at least geometrically from there on.  A power
    law r^-k shrinks by 2^(1-k) per window, and reaches rel_tol only at a
    span near rel_tol^(-1/(k-1)): (1 + r)^-1.2 would need about 1e40, so it
    raises TailBoundError at the default ``max_span``.
    When the analytic tail is exact (not just an upper bound) and has fallen
    below 1e-3 of the accumulated mass, it is added instead of walked down to
    rel_tol, which keeps slowly decaying (logarithmic) tails reachable while
    leaving >= 99.9% of the value to genuine quadrature.
    Raises DivergenceError when window masses refuse to decay and
    TailBoundError when a window ending more than ``max_span`` beyond s
    leaves the tail uncertified, or when s + 1 == s (or s is NaN).

    A walk integrates its windows in blocks of 1, 2, 4, ... up to ``_BLOCK_CAP``
    windows.  Each window's absolute tolerance is 0.01 rel_tol times the walk's
    mass when its block is issued, a lower bound on the mass before the window,
    raised to 0.01 rel_tol times the window's own 3-point Simpson estimate
    when that is finite and larger (``rel_floor``), so a window that dwarfs
    the mass before it is integrated to a reachable tolerance and the growth
    rule can judge it.

    Anchors.  I(s) = P(s) + I(A), with A the least power of two >= max(s, 1).
    The piece P(s) is the walk from s with its last window cut at A, and I(A)
    the walk from A.  Pieces and anchor walks run independently, each distinct
    s and anchor once, so the far tail is walked once per anchor, not once
    per s.  Then each I(s) is combined: the piece alone where its truncation
    is certified before A, else P(s) + I(A).  The error budget is that of a
    walk from s: the windows of I(A) are integrated to 0.01 rel_tol times
    masses of I(A) and its truncation is certified to 0.2 rel_tol I(A); as
    the integrand is nonnegative, I(A) <= I(s), so the piece tolerances plus
    the anchor's certified error stay within rel_tol I(s).  Each s keeps its
    own rules: the span is measured from s over every window it relied on,
    the anchor's included, and the anchor's error is the error of every s
    that reaches it.

    Each round integrates the next block of every unfinished walk in one
    ``adaptive_simpson_many`` call while an s waits on a walk.  A walk judges
    its block's windows in order and discards the masses past the window that
    ends it; where the round outgrows the quadrature's level cap, each window
    is integrated alone, so a window past a walk's end cannot fail the walk.
    Each I(s) is formed in order once its walks end.  A window's mass depends
    only on (lo, hi, tol), a walk's blocks only on the walk and A only on s,
    so each value equals a one-element call, and the error raised is that of
    the first failing s in ``s_values``.
    """
    integrand = _rate_integrand(mu, nu, p, eps)
    info = analytic_tail_bound(mu, nu, p, eps)
    if info is not None and info.divergent:
        raise DivergenceError(
            f"integral of {mu.label}^{p:g} * {nu.label}^{eps:g} diverges (family analysis)")
    s_list = np.array(s_values, dtype=float).ravel().tolist()
    distinct = list(dict.fromkeys(s_list))
    anchors = list(dict.fromkeys(map(_anchor, distinct)))
    starts = distinct + anchors
    x = np.array(starts)
    w0, w1 = np.split(integrand(np.concatenate([x, x + 1.0])), 2)
    zero = np.flatnonzero((w0 == 0.0) & (w1 == 0.0))
    # integrand below the float range from these starts on: I = 0.0
    below = {starts[i] for i in zero[integrand(x[zero] + 100.0) == 0.0].tolist()}
    scales = dict(zip(starts, map(max, w0.tolist(), w1.tolist())))
    keys = [(s, _anchor(s)) for s in distinct if s < _anchor(s)] + [(a, math.inf) for a in anchors]
    walks = {(lo, stop): _walk(info, lo, stop, scales[lo], rel_tol, max_span)
             for lo, stop in keys if lo not in below}
    blocks = {}  # (start, stop) -> the running walk's block of windows (lo, hi, tol)
    ended = {}  # (start, stop) -> (mass and certified, or the error; start of the last window)
    values = {}  # s -> I(s), formed in the order of s

    def tail(s: float) -> float | None:
        """I(s) from the ended walks, None while one it needs runs; raises its error."""
        anchor = _anchor(s)
        total, certified = 0.0, s in below
        if s < anchor and not certified:
            if (s, anchor) not in ended:
                return None
            outcome = ended[s, anchor][0]
            if isinstance(outcome, NumericalError):
                raise outcome
            total, certified = outcome
        if certified or anchor in below:
            return total
        if (anchor, math.inf) not in ended:
            return None
        outcome, last_lo = ended[anchor, math.inf]
        # A's own span error: s, behind A, overruns its span no later (s = A: A's error is s's)
        if s < anchor and (last_lo - s > max_span or isinstance(outcome, TailBoundError)):
            raise _span_error(s, rel_tol, max_span)
        if isinstance(outcome, NumericalError):
            raise outcome
        return total + outcome[0]

    def pending() -> bool:
        """Whether an s still waits on a walk; forms the I(s) before it, in order."""
        for s in distinct[len(values):]:
            value = tail(s)
            if value is None:
                return True
            values[s] = value
        return False

    sends = dict.fromkeys(walks)  # what each walk is sent this round: None starts it
    while True:
        for key, masses in sends.items():
            try:
                blocks[key] = walks[key].send(masses)
            except StopIteration as done:
                ended[key] = done.value
                blocks.pop(key, None)
        if not pending():
            return np.array([values[s] for s in s_list])
        masses = iter(_masses(integrand, [w for block in blocks.values() for w in block],
                              0.01 * rel_tol))
        sends = {key: [next(masses) for _ in block] for key, block in blocks.items()}


def improper_rate_integral(mu: GrowthRate, nu: GrowthRate, p: float, eps: float, s: float,
                           rel_tol: float = 1e-8, max_span: float = 1e30) -> float:
    """integral_s^inf mu(r)^p nu(r)^eps dr; the one-element ``improper_rate_integrals``."""
    return float(improper_rate_integrals(mu, nu, p, eps, [s], rel_tol, max_span)[0])


def closed_form_beta(mu: GrowthRate, nu: GrowthRate, a: float, eps: float,
                     q: float) -> tuple[str, Callable[[float], float]] | None:
    """Closed-form beta for the builtin rate pairs, when the constants allow one.

    exponential pair (aq + eps < 0):
        beta(s) = |aq + eps|^(1/q) * exp(-eps (1 + 2/q) s)
    polynomial pair (aq + eps + 1 < 0):
        beta(s) = |aq + eps + 1|^(1/q) * (1+s)^(-(eps(1+2/q) + 1/q))
    log_poly(lam) with plain-log companion (aq = -1, lam - eps - 1 > 0):
        beta(s) = (lam-eps-1)^(1/q) * (1+s)^(-1/q) * L1(s)^(-(eps(1+2/q)+1/q))
    loglog_poly(lam) with plain-loglog companion (aq = -1, lam - eps - 1 > 0):
        beta(s) = (lam-eps-1)^(1/q) * ((1+s) L1(s))^(-1/q) * L2(s)^(-(eps(1+2/q)+1/q))
    """
    aq = a * q
    if mu.family == "exponential" and nu.family == "exponential":
        if aq + eps >= 0.0:
            return None
        coef = abs(aq + eps) ** (1.0 / q)
        rate = eps * (1.0 + 2.0 / q)
        return "exponential", lambda s: coef * np.exp(-rate * np.asarray(s, dtype=float))
    if mu.family == "polynomial" and nu.family == "polynomial":
        if aq + eps + 1.0 >= 0.0:
            return None
        coef = abs(aq + eps + 1.0) ** (1.0 / q)
        expo = eps * (1.0 + 2.0 / q) + 1.0 / q
        return "polynomial", lambda s: coef * (1.0 + s) ** (-expo)
    if mu.family == "log_poly" and nu.family == "log_plain":
        lam = mu.params["lam"]
        if aq != -1.0 or lam - eps - 1.0 <= 0.0:
            return None
        coef = (lam - eps - 1.0) ** (1.0 / q)
        expo = eps * (1.0 + 2.0 / q) + 1.0 / q
        return "log_poly", lambda s: coef * (1.0 + s) ** (-1.0 / q) * _l1(s) ** (-expo)
    if mu.family == "loglog_poly" and nu.family == "loglog_plain":
        lam = mu.params["lam"]
        if aq != -1.0 or lam - eps - 1.0 <= 0.0:
            return None
        coef = (lam - eps - 1.0) ** (1.0 / q)
        expo = eps * (1.0 + 2.0 / q) + 1.0 / q
        return "loglog_poly", lambda s: (coef * ((1.0 + s) * _l1(s)) ** (-1.0 / q)
                                         * _l2(s) ** (-expo))
    return None


class BetaFunction:
    """The radius function beta and every quantity derived from the tail integral I(s).

    Each method takes an array of s and reads I(s) from ``integrals``, which
    computes the missing I(s) of a grid in one batch and keeps them.  Logs and
    exps are taken per element by ``math``, as in ``_rate_integrand``.
    ``closed_form`` is a label naming the matching analytic formula when one
    exists (kept for cross-checks and horizon extrapolation, not used to
    produce beta here).
    """

    def __init__(self, mu: GrowthRate, nu: GrowthRate, a: float, eps: float, q: float,
                 rel_tol: float = 1e-8):
        self.mu = mu
        self.nu = nu
        self.a = a
        self.eps = eps
        self.q = q
        self.rel_tol = rel_tol
        cf = closed_form_beta(mu, nu, a, eps, q)
        self.closed_form = cf[0] if cf else None
        self._closed_fn = cf[1] if cf else None
        self._integrals: dict[float, float] = {}

    def integrals(self, s_values: Sequence[float]) -> np.ndarray:
        """I(s) = integral_s^inf mu^(a q) nu^eps at every s; one batch for the missing s."""
        keys = [float(s) for s in np.ravel(s_values)]
        missing = list(dict.fromkeys(s for s in keys if s not in self._integrals))
        if missing:
            values = improper_rate_integrals(self.mu, self.nu, self.a * self.q, self.eps,
                                             missing, self.rel_tol)
            self._integrals.update(zip(missing, values.tolist()))
        return np.array([self._integrals[s] for s in keys])

    def _logs(self, s_values: Sequence[float]):
        """s, I(s), log mu(s), log nu(s), log I(s) and beta(s) as arrays.

        Raises TailBoundError at the first s whose I(s) has underflowed to
        0.0, since beta(s) then has no float value.
        """
        s = np.array(s_values, dtype=float).ravel()
        integrals = self.integrals(s)
        low = np.flatnonzero(~(integrals > 0.0))
        if low.size:
            bad = float(s[low[0]])
            raise TailBoundError(f"tail integral I(s) underflows to {integrals[low[0]]:g} at "
                                 f"s={bad:g}; beta(s) needs log I(s)", s=bad)
        log_mu = np.asarray(self.mu.log_eval(s), dtype=float)
        log_nu = np.asarray(self.nu.log_eval(s), dtype=float)
        log_i = _map(math.log, integrals)
        beta = _map(math.exp, self.a * log_mu - self.eps * (1.0 + 1.0 / self.q) * log_nu
                    - log_i / self.q)
        return s, integrals, log_mu, log_nu, log_i, beta

    def beta(self, s_values: Sequence[float]) -> np.ndarray:
        """beta(s) = mu(s)^a / (nu(s)^(eps(1+1/q)) I(s)^(1/q)) at every s."""
        return self._logs(s_values)[-1]

    def table(self, s_values: Sequence[float]) -> dict[str, np.ndarray]:
        """The columns of ``beta.csv`` at every s, from one evaluation of beta.

        s, beta, its closed form (NaN without one), beta_tilde = beta nu^-eps,
        mu^a/beta, I(s) and the identity residual
        |mu^(-aq) nu^(eps(q+1)) beta^q I - 1|.  The relation is algebraically
        exact, so with beta taken from the closed form (when the rate pair has
        one) the residual isolates the quadrature error of I(s).  Without a
        closed form both factors share the quadrature value and the residual
        only reflects round-off.
        """
        s, integrals, log_mu, log_nu, log_i, beta = self._logs(s_values)
        if self._closed_fn is not None:
            # one scalar call per s: numpy's array power differs in the last bit
            closed = np.array([self._closed_fn(x) for x in s.tolist()], dtype=float)
        else:
            closed = np.full(s.size, math.nan)
        log_term = (-self.a * self.q * log_mu + self.eps * (self.q + 1.0) * log_nu
                    + self.q * _map(math.log, beta if self._closed_fn is None else closed)
                    + log_i)
        return {"s": s, "beta_quadrature": beta, "beta_closed_form": closed,
                "beta_tilde": beta * _map(math.exp, -self.eps * log_nu),
                "mu_pow_a_over_beta": self._over_beta(log_mu, beta),
                "tail_integral": integrals,
                "identity_residual": np.abs(_map(math.expm1, log_term))}

    def _over_beta(self, log_mu: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """mu(s)^a / beta(s) from log mu(s) and beta(s)."""
        return _map(math.exp, self.a * log_mu) / beta

    def closed_form_value(self, s: float) -> float | None:
        return self._closed_fn(s) if self._closed_fn is not None else None


@dataclass(frozen=True)
class MonotonicityCheck:
    """Nonincreasing probes for beta and mu^a/beta on a grid (quadrature values)."""

    beta_nonincreasing: bool
    ratio_nonincreasing: bool
    worst_beta_uptick: float
    worst_ratio_uptick: float
    samples: tuple[tuple[float, float, float], ...]  # (s, beta, mu^a/beta)


def check_monotonicity(beta: BetaFunction, grid: Sequence[float]) -> MonotonicityCheck:
    """Check that beta and mu^a/beta are nonincreasing along ``grid``.

    ``_MONOTONICITY_SLACK`` absorbs relative quadrature noise between neighboring values.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("monotonicity grid must be increasing with at least two points")
    _, _, log_mu, _, _, betas = beta._logs(grid)
    ratios = beta._over_beta(log_mu, betas)

    def worst_uptick(vals: np.ndarray) -> float:
        rel = (vals[1:] - vals[:-1]) / vals[:-1]
        return float(rel.max(initial=-math.inf))

    wb = worst_uptick(betas)
    wr = worst_uptick(ratios)
    samples = tuple(zip(grid.tolist(), betas.tolist(), ratios.tolist()))
    return MonotonicityCheck(wb <= _MONOTONICITY_SLACK, wr <= _MONOTONICITY_SLACK, wb, wr,
                             samples)


def delta_max_bounds(c: float, q: float, C: float, D: float) -> dict[str, float]:
    """The six radius bounds whose minimum certifies the fixed-point scheme.

    Keys name the estimate each inequality protects; ``ball_closure`` is the
    only non-strict one.
    """
    if not q >= 1.0:
        raise ValueError(f"q must be >= 1, got {q}")
    if not D >= 1.0:
        raise ValueError(f"D must be >= 1, got {D}")
    if not C > D:
        raise ValueError(f"capacity C must exceed D, got C={C}, D={D}")
    if c < 0.0:
        raise ValueError(f"perturbation constant c must be >= 0, got {c}")
    if c == 0.0:
        inf = math.inf
        return dict(ball_closure=inf, inner_contraction=inf, outer_margin=inf,
                    outer_contraction=inf, graph_lipschitz_a=inf, graph_lipschitz_b=inf)
    two_q = 2.0 ** q
    three_q = 3.0 ** q
    return {
        "ball_closure": ((C - D) / (two_q * 3.0 * three_q * c * C ** (q + 1.0) * D)) ** (1.0 / q),
        "inner_contraction": (1.0 / (two_q * 3.0 * three_q * c * C ** q * D)) ** (1.0 / q),
        "outer_margin": (1.0 / (4.0 * two_q * three_q * c * C ** q * D)) ** (1.0 / q),
        "outer_contraction": (1.0 / (4.0 * two_q * three_q * c * C ** (q + 1.0) * D)) ** (1.0 / q),
        "graph_lipschitz_a": (1.0 / (2.0 * two_q * 3.0 * three_q * c * C ** q * D)) ** (1.0 / q),
        "graph_lipschitz_b": (1.0 / (4.0 * two_q * three_q * c * C ** (q + 1.0) * D)) ** (1.0 / q),
    }


def delta_max_terms(bounds: dict[str, float], delta_cap: float = 1.0) -> dict[str, float]:
    """The terms whose minimum is delta_max, keyed as ``bounds`` plus ``delta_cap``.

    ``ball_closure`` is non-strict and taken as is; the strict bounds carry a
    0.99 safety factor.
    """
    terms = {k: v if k == "ball_closure" else 0.99 * v for k, v in bounds.items()}
    terms["delta_cap"] = delta_cap
    return terms


def delta_max(c: float, q: float, C: float, D: float, delta_cap: float = 1.0) -> float:
    """Largest certified graph radius for perturbation constants (c, q) and capacity C.

    Exact minimum of ``delta_max_terms``: the six proof bounds, with a 0.99
    safety factor on the strict ones, and ``delta_cap``.  Degenerate c = 0
    returns ``delta_cap``.
    """
    return min(delta_max_terms(delta_max_bounds(c, q, C, D), delta_cap).values())


def default_capacity(D: float) -> float:
    """Default decay-capacity constant C = 2D (any C > D certifies; 2D leaves margin)."""
    return 2.0 * D
