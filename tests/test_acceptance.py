"""Acceptance gate: every release criterion, at its stated tolerance and budget.

Each test prints exactly one line, `criterion <n> (<what>): PASS|FAIL [...]`,
so a plain run doubles as the sign-off checklist (use -s to see the lines).
"""
import math
import random
import time
from contextlib import contextmanager
from importlib import resources

import numpy as np
import pytest

from stablemanifold.admissibility import BetaFunction, closed_form_beta, delta_max
from stablemanifold.config import (build_params, build_perturbation, build_rates,
                                   build_solver_config, build_system, load_config,
                                   resolve_config)
from stablemanifold.dichotomy import (DichotomyParams, pair_grid, rate_power_system,
                                      sharp_oscillating_system, sharpness_probe,
                                      verify_dichotomy)
from stablemanifold.manifold import (SolverConfig, cubic_perturbation,
                                     outer_contraction_factor, solve_manifold)
from stablemanifold.quadrature import adaptive_simpson
from stablemanifold.rates import builtin_rate
from stablemanifold.verify import (check_decay, check_invariance, check_perturbation_bound,
                                   random_decay_pairs, random_invariance_samples)

EXP = builtin_rate("exponential")
POLY = builtin_rate("polynomial")
LOG4 = builtin_rate("log_poly", lam=4.0)
LOG_NU = builtin_rate("log_poly", nu_companion=True)
LLOG4 = builtin_rate("loglog_poly", lam=4.0)
LLOG_NU = builtin_rate("loglog_poly", nu_companion=True)

FAMILIES = [
    ("exponential", EXP, EXP, -1.0, 0.1, 2.0),
    ("polynomial", POLY, POLY, -1.0, 0.1, 2.0),
    ("log", LOG4, LOG_NU, -0.5, 0.5, 2.0),
    ("loglog", LLOG4, LLOG_NU, -0.5, 0.5, 2.0),
]

ORACLE_PARAMS = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
ORACLE_CFG = SolverConfig(s_grid=tuple(np.linspace(0.0, 2.0, 21)), delta=0.02, C=2.0,
                          nodes_per_axis=41, h=0.01)


@contextmanager
def criterion(label):
    info = {}
    t0 = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - t0:.2f}s)", flush=True)
        raise
    detail = info.get("detail", "")
    suffix = f" [{detail}]" if detail else ""
    print(f"{label}: PASS{suffix} ({time.perf_counter() - t0:.2f}s)", flush=True)


@pytest.fixture(scope="module")
def oracle():
    # u' = -u, v' = v + u^3: invariant graph v = -u^3/4, default resolution
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    pert = cubic_perturbation(1.0)
    t0 = time.perf_counter()
    graph, history = solve_manifold(system, EXP, EXP, ORACLE_PARAMS, pert, ORACLE_CFG)
    seconds = time.perf_counter() - t0
    return {"system": system, "pert": pert, "graph": graph, "history": history,
            "solve_seconds": seconds}


def test_c1_fundamental_identity():
    with criterion("criterion 1 (fundamental identity, 4 families x 10 points)") as info:
        t0 = time.perf_counter()
        worst = 0.0
        for _, mu, nu, a, eps, q in FAMILIES:
            resid = BetaFunction(mu, nu, a, eps, q).identity_residual(np.linspace(0.0, 2.0, 10))
            worst = max(worst, float(resid.max()))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-6
        assert elapsed < 5.0
        info["detail"] = f"max residual {worst:.2e} <= 1e-6, {elapsed:.2f}s < 5s"


def test_c2_closed_form_beta_match():
    with criterion("criterion 2 (closed-form radius match, 20 points)") as info:
        t0 = time.perf_counter()
        worst = 0.0
        for _, mu, nu, a, eps, q in FAMILIES:
            formula = closed_form_beta(mu, nu, a, eps, q)[1]
            grid = np.linspace(0.0, 2.0, 20)
            for s, quad in zip(grid, BetaFunction(mu, nu, a, eps, q).beta(grid)):
                worst = max(worst, abs(quad / float(formula(s)) - 1.0))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-6
        assert elapsed < 5.0
        info["detail"] = f"max rel mismatch {worst:.2e} <= 1e-6, {elapsed:.2f}s < 5s"


def test_c3_dichotomy_sharpness():
    with criterion("criterion 3 (oscillating system: bounds hold and are attained)") as info:
        t0 = time.perf_counter()
        system = sharp_oscillating_system(EXP, EXP, a=-1.0, b=1.0, eps=0.2)
        params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.2)
        cert = verify_dichotomy(system, EXP, EXP, params, pair_grid(20.0, 50), tol=1e-9)
        assert cert.passed
        assert cert.max_stable_ratio <= 1.0 + 1e-9
        assert cert.max_unstable_ratio <= 1.0 + 1e-9
        probe = sharpness_probe(system, range(1, 6))
        worst = max(row["residual"] for row in probe)
        elapsed = time.perf_counter() - t0
        assert len(probe) == 5
        assert worst <= 1e-9
        assert elapsed < 2.0
        info["detail"] = (f"ratio {cert.max_stable_ratio:.12f}, attainment residual "
                          f"{worst:.2e} <= 1e-9, {elapsed:.2f}s < 2s")


def test_c4_oracle_manifold_accuracy(oracle):
    with criterion("criterion 4 (cubic-oracle manifold accuracy)") as info:
        t0 = time.perf_counter()
        graph = oracle["graph"]
        worst = 0.0
        for k in range(graph.n_slices):
            xi = graph.node_points(k)[:, 0]
            mask = xi != 0.0
            err = np.abs(graph.values[k][mask, 0] + xi[mask] ** 3 / 4.0)
            worst = max(worst, float((err / np.abs(xi[mask]) ** 3).max()))
        elapsed = oracle["solve_seconds"] + (time.perf_counter() - t0)
        assert worst <= 1e-2
        assert len(oracle["history"]) <= 5
        assert elapsed < 60.0
        info["detail"] = (f"max |phi - exact|/|xi|^3 = {worst:.2e} <= 1e-2, "
                          f"{len(oracle['history'])} iterations, {elapsed:.2f}s < 60s")


def test_c5_contraction_factor_bound(oracle):
    with criterion("criterion 5 (observed contraction within certified factor)") as info:
        factor = outer_contraction_factor(1.0, 2.0, 2.0, 1.0, 0.02)
        assert factor == pytest.approx(0.4608, rel=1e-12)
        ratios = [row["ratio"] for row in oracle["history"] if row["ratio"] is not None]
        worst = max(ratios) if ratios else 0.0
        assert worst <= factor * 1.1
        info["detail"] = f"max ratio {worst:.4f} <= {factor * 1.1:.4f}"


def test_c6_invariance_and_decay(oracle):
    with criterion("criterion 6 (invariance + decay, 200 samples each)") as info:
        t0 = time.perf_counter()
        graph, system, pert = oracle["graph"], oracle["system"], oracle["pert"]
        rng = random.Random(2026)
        samples = random_invariance_samples(graph, EXP, ORACLE_PARAMS, 200, 1.0, rng)
        inv = check_invariance(graph, system, EXP, EXP, ORACLE_PARAMS, pert, samples,
                               h=1e-2, tol=1e-2)
        pairs = random_decay_pairs(graph, EXP, ORACLE_PARAMS, 200, 1.0, rng)
        dec = check_decay(graph, system, EXP, EXP, ORACLE_PARAMS, pert, pairs,
                          h=1e-2, tol=1e-2)
        elapsed = time.perf_counter() - t0
        assert inv.passed and len(inv.rows) == 200
        assert dec.passed
        assert elapsed < 60.0
        info["detail"] = (f"invariance residual {inv.max_residual:.2e} <= 1e-2, decay "
                          f"ratio {dec.max_ratio:.3f} <= 1.01, {elapsed:.2f}s < 60s")


def test_c7_perturbation_stability():
    with criterion("criterion 7 (graph distance vs perturbation distance)") as info:
        t0 = time.perf_counter()
        system = rate_power_system(EXP, a=-1.0, b=1.0)
        rep = check_perturbation_bound(system, EXP, EXP, ORACLE_PARAMS,
                                       cubic_perturbation(1.0), cubic_perturbation(1.05),
                                       ORACLE_CFG)
        elapsed = time.perf_counter() - t0
        assert rep.passed
        assert rep.graph_distance <= rep.stability_k * rep.f_distance.value
        assert rep.stability_k == pytest.approx(0.3456, rel=1e-12)
        # the cubic graph is linear in the forcing coefficient, so the
        # quotient equals (delta * beta)^2 / 4 = 2e-4 up to quadrature noise
        assert rep.quotient == pytest.approx(2e-4, rel=5e-2)
        assert elapsed < 120.0
        info["detail"] = (f"quotient {rep.quotient:.6e} ~ 2e-4 (5%), bound "
                          f"{rep.stability_k * rep.f_distance.value:.2e}, "
                          f"{elapsed:.2f}s < 120s")


def test_c8_delta_max_regression():
    with criterion("criterion 8 (certified radius vs brute-force scan)") as info:
        value = delta_max(1.0, 2.0, 2.0, 1.0)
        target = 0.99 / math.sqrt(1152.0)
        assert abs(value - target) <= 1e-6

        c, q, C, D = 1.0, 2.0, 2.0, 1.0
        deltas = np.arange(1e-6, 0.1 + 1e-12, 1e-6)
        dq = deltas ** q
        two_q, three_q = 2.0 ** q, 3.0 ** q
        ok = ((two_q * 3.0 * three_q * c * C ** (q + 1.0) * D * dq <= C - D)
              & (two_q * 3.0 * three_q * c * C ** q * D * dq < 1.0)
              & (4.0 * two_q * three_q * c * C ** q * D * dq < 1.0)
              & (4.0 * two_q * three_q * c * C ** (q + 1.0) * D * dq < 1.0)
              & (2.0 * two_q * 3.0 * three_q * c * C ** q * D * dq < 1.0))
        sup_scan = float(deltas[ok].max())
        # the scan recovers the unsafe supremum 1/sqrt(1152); the library value
        # sits exactly 1% below it
        assert abs(sup_scan - 1.0 / math.sqrt(1152.0)) <= 1e-6
        assert value <= sup_scan
        assert abs(value - 0.99 * sup_scan) <= 2e-6
        info["detail"] = (f"delta_max {value:.9f} = 0.99/sqrt(1152) +/- 1e-6, "
                          f"scan sup {sup_scan:.9f}")


BUNDLED = ("oracle_cubic", "exponential", "sharp_oscillating", "polynomial", "log_example",
           "loglog_example")


def _cubic_gain(system, s: float) -> float:
    """K(s) = integral_s^inf U(r,s)^3 / V(r,s) dr by adaptive Simpson on doubling windows.

    The windows [s, s + 1], [s + 1, s + 2], ..., [s + 2^(k-1), s + 2^k], each to
    absolute tolerance 1e-12, are summed until one adds at most 1e-13 of the
    total.  The integrand is positive, so no window is skipped.
    """
    def f(r):
        return system.U(r, s) ** 3 / system.V(r, s)

    total, lo, span = 0.0, s, 1.0
    while True:
        piece = adaptive_simpson(f, lo, s + span, 1e-12)
        total += piece
        if piece <= 1e-13 * total:
            return total
        lo, span = s + span, 2.0 * span


def test_c9_closed_form_graph_matches_reference():
    # the cubic forcing coef * u^3 only drives the unstable coordinate, so the
    # inner path is U(r,s) xi and the exact graph is -coef * xi^3 * K(s)
    with criterion("criterion 9 (closed-form graph vs its K(s) reference, 6 configs)") as info:
        t0 = time.perf_counter()
        worst = {}
        for name in BUNDLED:
            path = str(resources.files("stablemanifold") / "configs" / f"{name}.json")
            resolved = resolve_config(load_config(path), label_default=name)
            mu, nu = build_rates(resolved)
            system = build_system(resolved, mu, nu)
            pert = build_perturbation(resolved["perturbation"], system.n)
            graph, _ = solve_manifold(system, mu, nu, build_params(resolved), pert,
                                      build_solver_config(resolved))
            coef = resolved["perturbation"]["coef"]
            worst[name] = 0.0
            for k, s in enumerate(graph.s_grid.tolist()):
                gain = _cubic_gain(system, s)
                xi = graph.node_points(k)[:, 0]
                mask = xi != 0.0
                cube = xi[mask] ** 3 * gain
                err = np.abs(graph.values[k][mask, 0] + coef * cube) / np.abs(cube)
                worst[name] = max(worst[name], float(err.max()))
        elapsed = time.perf_counter() - t0
        name = max(worst, key=worst.get)
        assert worst[name] <= 1e-5, worst
        info["detail"] = (f"max |phi + coef xi^3 K|/(|xi|^3 K) = {worst[name]:.2e} "
                          f"({name}) <= 1e-5, {elapsed:.2f}s")
