import math
import random
from dataclasses import replace

import numpy as np
import pytest

from stablemanifold import verify
from stablemanifold.admissibility import delta_max
from stablemanifold.dichotomy import DichotomyParams, rate_power_system
from stablemanifold.errors import BlowupError
from stablemanifold.manifold import (SolverConfig, cubic_perturbation, eval_phi_many,
                                     expression_perturbation, flow_steps,
                                     graph_metric_distance, nonlinear_flow, solve_manifold)
from stablemanifold.rates import builtin_rate
from stablemanifold.verify import (check_decay, check_flows, check_invariance,
                                   check_perturbation_bound,
                                   default_perturbation_samples, perturbation_distance,
                                   random_decay_pairs, random_invariance_samples,
                                   small_ball_radius, stability_constant)

EXP = builtin_rate("exponential")
PARAMS = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
CFG = SolverConfig(s_grid=tuple(np.linspace(0.0, 2.0, 21)), delta=0.02, C=2.0,
                   nodes_per_axis=41, h=0.01)


@pytest.fixture(scope="module")
def solved():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    pert = cubic_perturbation(1.0)
    graph, _ = solve_manifold(system, EXP, EXP, PARAMS, pert, CFG)
    return system, pert, graph


def test_small_ball_radius(solved):
    _, _, graph = solved
    # (delta / C) * beta with beta = sqrt(2) and no nonuniform factor
    assert small_ball_radius(graph, EXP, PARAMS, 0.0) == pytest.approx(
        0.01 * math.sqrt(2.0), rel=1e-8)


def test_invariance_sample_generator(solved):
    _, _, graph = solved
    rng = random.Random(42)
    samples = random_invariance_samples(graph, EXP, PARAMS, 30, 1.0, rng)
    assert len(samples) == 30
    for s, xi, tau in samples:
        assert graph.s_grid[0] <= s <= graph.s_grid[-1]
        assert np.abs(xi).sum() <= small_ball_radius(graph, EXP, PARAMS, s) * (1 + 1e-12)
        assert 0.0 < tau <= 1.0
    again = random_invariance_samples(graph, EXP, PARAMS, 30, 1.0,
                                      random.Random(42))
    assert all(a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]
               for a, b in zip(samples, again))


def test_invariance_holds_on_oracle(solved):
    system, pert, graph = solved
    rng = random.Random(1)
    samples = random_invariance_samples(graph, EXP, PARAMS, 25, 1.0, rng)
    report = check_invariance(graph, system, EXP, EXP, PARAMS, pert, samples,
                              h=1e-2, tol=1e-2)
    assert report.passed
    assert report.max_residual <= 1e-4
    assert report.all_within_radius
    assert len(report.rows) == 25


def test_invariance_rejects_oversized_seed(solved):
    system, pert, graph = solved
    big = small_ball_radius(graph, EXP, PARAMS, 0.5) * 2.0
    with pytest.raises(ValueError, match="outside the small ball"):
        check_invariance(graph, system, EXP, EXP, PARAMS, pert,
                         [(0.5, np.array([big]), 0.5)])


def test_decay_holds_on_oracle(solved):
    system, pert, graph = solved
    rng = random.Random(2)
    pairs = random_decay_pairs(graph, EXP, PARAMS, 25, 1.0, rng)
    report = check_decay(graph, system, EXP, EXP, PARAMS, pert, pairs,
                         h=1e-2, tol=1e-3)
    assert report.passed
    # separation here is essentially e^-tau * gap, a quarter of the bound 2C
    assert report.max_ratio <= 0.3
    assert report.rows


def test_decay_rejects_backward_time(solved):
    system, pert, graph = solved
    with pytest.raises(ValueError, match="t < s"):
        check_decay(graph, system, EXP, EXP, PARAMS, pert,
                    [(1.0, np.array([0.001]), np.array([0.002]), 0.5)])


def test_check_flows_equals_the_separate_checks(solved):
    system, pert, graph = solved
    rng = random.Random(3)
    samples = random_invariance_samples(graph, EXP, PARAMS, 12, 1.0, rng)
    pairs = random_decay_pairs(graph, EXP, PARAMS, 12, 1.0, rng)
    pairs.append((0.5, np.array([0.001]), np.array([0.001]), 1.0))  # no gap: skipped
    kw = dict(h=1e-2, tol=1e-3)
    both = check_flows(graph, system, EXP, EXP, PARAMS, pert, samples, pairs, **kw)
    assert both.invariance == check_invariance(graph, system, EXP, EXP, PARAMS, pert,
                                               samples, **kw)
    assert both.decay == check_decay(graph, system, EXP, EXP, PARAMS, pert, pairs, **kw)
    assert len(both.invariance.rows) == 12 and len(both.decay.rows) == 12
    steps = flow_steps(np.array([tau for *_, tau in samples]
                                + [t - s for s, *_, t in pairs[:12] for _ in (0, 1)]), 1e-2)
    assert (both.rows, both.rk4_steps, both.step_rounds) == (36, steps.sum(), steps.max())


def test_check_flows_raises_for_a_blown_decay_seed(solved):
    system, pert, graph = solved
    # the decay seeds need not lie in the small ball: xi = 100 drives v past the trust
    # region, while the invariance sample ahead of it in the batch stays bounded
    samples = random_invariance_samples(graph, EXP, PARAMS, 1, 1.0, random.Random(4))
    pairs = [(0.5, np.array([0.001]), np.array([0.002]), 1.5),
             (0.5, np.array([0.001]), np.array([100.0]), 30.5)]
    with pytest.raises(BlowupError) as one:
        nonlinear_flow(system, pert, 0.5, np.array([100.0, *eval_phi_many(graph, [0.5], [[100.0]])[0]]),
                       30.0, h=1e-2)
    with pytest.raises(BlowupError) as batch:
        check_flows(graph, system, EXP, EXP, PARAMS, pert, samples, pairs, h=1e-2)
    assert batch.value.t_blowup == one.value.t_blowup
    with pytest.raises(BlowupError):
        check_decay(graph, system, EXP, EXP, PARAMS, pert, pairs, h=1e-2)


def test_perturbation_distance_axis_attainment():
    f = cubic_perturbation(1.0)
    g = cubic_perturbation(1.05)
    samples = default_perturbation_samples(2, [0.0, 1.0], [0.25, 0.5, 1.0])
    dist = perturbation_distance(f, g, 2.0, samples)
    assert dist.value == pytest.approx(0.05, rel=1e-12)
    assert dist.n_samples == len(samples)
    zero = perturbation_distance(f, f, 2.0, samples)
    assert zero.value == 0.0


def _sample_loop_distance(f, g, q, samples):
    """Reference: the distance, one sample at a time."""
    worst = 0.0
    for t, u in samples:
        one_t, one_u = np.array([t]), np.asarray(u, dtype=float)[None]
        norm = np.abs(one_u).sum(axis=1)
        if norm[0] == 0.0:
            continue
        gap = np.abs(f.f(one_t, one_u) - g.f(one_t, one_u)).sum(axis=1)
        worst = max(worst, float((gap / norm ** (q + 1.0))[0]))
    return worst


@pytest.mark.parametrize("f, g", [
    (cubic_perturbation(1.0), cubic_perturbation(1.05)),
    (expression_perturbation(["exp(-t)*u1*u2^2", "u1^3 - u2^3"], c=3.0, q=2.0),
     expression_perturbation(["exp(-2*t)*u1*u2^2", "1.1*u1^3 - u2^3"], c=3.3, q=2.0)),
], ids=["cubic", "expression"])
def test_perturbation_distance_matches_sample_loop(f, g):
    rng = random.Random(3)
    samples = default_perturbation_samples(2, [0.0, 0.7, 1.9], [0.25, 0.5, 1.0], rng)
    samples.insert(5, (0.7, np.zeros(2)))
    dist = perturbation_distance(f, g, 2.0, samples)
    worst = _sample_loop_distance(f, g, 2.0, samples)
    assert worst > 0.0
    assert dist.value == worst
    assert dist.n_samples == len(samples)


def test_perturbation_distance_empty_samples():
    f = cubic_perturbation(1.0)
    with pytest.raises(ValueError, match="empty"):
        perturbation_distance(f, f, 2.0, [])


def test_default_samples_include_axes():
    rng = random.Random(0)
    samples = default_perturbation_samples(3, [0.0], [1.0], rng)
    dirs = {tuple(u) for _, u in samples}
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert tuple(e) in dirs and tuple(-e) in dirs
    # 6 axis rays + 8 random directions, one t, one radius
    assert len(samples) == 14


def test_stability_constant_value():
    assert stability_constant(2.0, 2.0, 1.0, 0.02) == pytest.approx(0.3456, rel=1e-12)


def test_perturbation_bound_on_oracle():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=tuple(np.linspace(0.0, 2.0, 11)), delta=0.02, C=2.0,
                       nodes_per_axis=21, h=0.01)
    f = cubic_perturbation(1.0)
    graph, _ = solve_manifold(system, EXP, EXP, PARAMS, f, cfg)
    report = check_perturbation_bound(graph, system, EXP, EXP, PARAMS, f,
                                      cubic_perturbation(1.05), cfg)
    assert report.passed
    assert report.delta == pytest.approx(0.02)
    assert report.stability_k == pytest.approx(0.3456, rel=1e-12)
    assert report.f_distance.value == pytest.approx(0.05, rel=1e-12)
    # graphs -xi^3/4 and -1.05 xi^3/4 differ by (delta beta)^2 / 4 per unit
    # f-gap, far under the certified constant
    assert report.quotient == pytest.approx(2e-4, rel=1e-4)
    assert report.graph_distance <= report.stability_k * report.f_distance.value
    assert report.notes


def test_perturbation_bound_reuses_a_matching_base_solve(monkeypatch):
    # the graph of f, at delta 0.01 on a coarser grid and lattice than cfg, is compared
    # at its own radius: f_bar is solved once, with the graph's delta, C, s grid and
    # lattice, and f is not solved again
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=tuple(np.linspace(0.0, 2.0, 5)), delta=0.02, C=2.0,
                       nodes_per_axis=9, h=0.02)
    own = replace(cfg, s_grid=(0.0, 1.0, 2.0), nodes_per_axis=5, delta=0.01)
    f, g = cubic_perturbation(1.0), cubic_perturbation(1.05)
    graph, _ = solve_manifold(system, EXP, EXP, PARAMS, f, own)
    graph_bar, _ = solve_manifold(system, EXP, EXP, PARAMS, g, own)
    calls = []

    def counting_solve(*args):
        calls.append(args)
        return solve_manifold(*args)

    monkeypatch.setattr(verify, "solve_manifold", counting_solve)
    report = check_perturbation_bound(graph, system, EXP, EXP, PARAMS, f, g, cfg)
    [(*_, pert, bar_cfg)] = calls
    assert pert is g and bar_cfg == own
    assert report.delta == 0.01
    assert report.stability_k == stability_constant(2.0, 2.0, 1.0, 0.01)
    assert report.graph_distance == graph_metric_distance(graph.values, graph_bar.values,
                                                          graph)


def test_perturbation_bound_rejects_a_radius_uncertified_for_c_bar():
    # delta_max at c = 1 exceeds delta_max at c_bar = 1.05: the f_bar solve raises
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=None, C=2.0, nodes_per_axis=5, h=0.05)
    f, g = cubic_perturbation(1.0), cubic_perturbation(1.05)
    graph, _ = solve_manifold(system, EXP, EXP, PARAMS, f, cfg)
    assert graph.delta == delta_max(1.0, 2.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="exceeds the certified delta_max=.* at c=1.05"):
        check_perturbation_bound(graph, system, EXP, EXP, PARAMS, f, g, cfg)


def test_perturbation_bound_rejects_mismatched_order(solved):
    system, f, graph = solved
    g_fn = lambda t, v: np.array([0.0, v[0] ** 2])
    from stablemanifold.manifold import Perturbation
    g = Perturbation(g_fn, c=1.0, q=1.0)
    with pytest.raises(ValueError, match="orders q must match"):
        check_perturbation_bound(graph, system, EXP, EXP, PARAMS, f, g, CFG)
