import math
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stablemanifold import manifold
from stablemanifold.admissibility import analytic_tail_bound
from stablemanifold.config import (build_params, build_perturbation, build_rates,
                                   build_solver_config, build_system, load_run_input,
                                   resolve_config)
from stablemanifold.dichotomy import (DichotomyParams, LinearSystem, matrix_system,
                                      rate_power_system, sharp_oscillating_system)
from stablemanifold.errors import (BlowupError, DecayBoundError, DivergenceError, NumericalError,
                                   TailBoundError)
from stablemanifold.expr import compile_expression
from stablemanifold.manifold import (ManifoldGraph, Perturbation, SolverConfig,
                                     apply_phi_operator, cubic_perturbation, eval_phi_many, expression_perturbation,
                                     graph_metric_distance, nonlinear_flow, nonlinear_flow_many,
                                     outer_contraction_factor, solve_manifold)
from stablemanifold.linalg import rk4_step
from stablemanifold.quadrature import composite_simpson, cumulative_simpson
from stablemanifold.rates import builtin_rate, expression_rate

EXP = builtin_rate("exponential")
POLY = builtin_rate("polynomial")
PARAMS = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
CFG = SolverConfig(s_grid=tuple(np.linspace(0.0, 2.0, 21)), delta=0.02, C=2.0,
                   nodes_per_axis=41, h=0.01)


@pytest.fixture(scope="module")
def solved():
    # u' = -u, v' = v + u^3 carries the invariant graph v = -u^3/4
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    pert = cubic_perturbation(1.0)
    graph, history = solve_manifold(system, EXP, EXP, PARAMS, pert, CFG)
    return system, pert, graph, history


def exact_phi(xi):
    return -np.asarray(xi) ** 3 / 4.0


def inner_path(graph, system, mu, nu, params, pert, s, xi, t_max, h):
    """Grid, path, sweeps and worst decay ratio of the node xi at slice s, as a solve has them."""
    table = manifold._slice_table(system, mu, nu, params, pert, graph.C, s, t_max, h)
    xi = np.atleast_1d(np.asarray(xi, dtype=float)).reshape(1, graph.n_stable)
    x, _, sweeps, _ = manifold._node_paths(graph, pert, table, xi)
    return table.t, x[0], int(sweeps[0]), manifold._check_decay(table, x, xi)


def test_perturbation_validation():
    with pytest.raises(ValueError, match="c must be positive"):
        Perturbation(lambda t, v: v, c=0.0, q=2.0)
    with pytest.raises(ValueError, match="q must be >= 1"):
        Perturbation(lambda t, v: v, c=1.0, q=0.5)


def test_cubic_perturbation_shape():
    pert = cubic_perturbation(2.0)
    assert pert.c == 2.0 and pert.q == 2.0
    out = pert.f(np.zeros(1), np.array([[0.5, 9.0]]))[0]
    assert np.allclose(out, [0.0, 0.25])
    batch = pert.f(np.zeros(3), np.array([[0.5, 9.0], [1.0, 0.0], [-1.0, 3.0]]))
    assert np.allclose(batch, [[0.0, 0.25], [0.0, 2.0], [0.0, -2.0]])
    with pytest.raises(ValueError, match="n >= 2"):
        cubic_perturbation(1.0, n=1)


def test_expression_perturbation_matches_cubic():
    pert = expression_perturbation(["0", "u1^3"], c=1.0, q=2.0)
    ref = cubic_perturbation(1.0)
    t = np.linspace(0.0, 1.0, 5)
    v = np.column_stack([np.linspace(-0.5, 0.5, 5), np.zeros(5)])
    assert np.allclose(pert.f(t, v), ref.f(t, v))
    one_t, one_v = np.array([0.3]), np.array([[0.2, 1.0]])
    assert np.allclose(pert.f(one_t, one_v), ref.f(one_t, one_v))
    assert pert.autonomous and ref.autonomous
    assert not expression_perturbation(["0", "u1^3 * exp(-t)"], c=1.0, q=2.0).autonomous


def test_outer_contraction_factor_value():
    # 2^(q+2) 3^q c C^(q+1) D delta^q at the reference constants
    assert outer_contraction_factor(1.0, 2.0, 2.0, 1.0, 0.02) == pytest.approx(
        0.4608, rel=1e-12)


def test_solver_converges_in_two_iterations(solved):
    _, _, graph, history = solved
    assert len(history) == 2
    assert history[0]["distance"] == pytest.approx(2e-4, rel=1e-6)
    assert history[1]["distance"] == 0.0


def test_contraction_ratios_within_certified_factor(solved):
    _, _, _, history = solved
    factor = outer_contraction_factor(1.0, 2.0, 2.0, 1.0, 0.02)
    for row in history:
        if row["ratio"] is not None:
            assert row["ratio"] <= 1.1 * factor


def test_node_values_match_exact_graph(solved):
    _, _, graph, _ = solved
    for k in range(graph.n_slices):
        xi = graph.node_points(k)[:, 0]
        err = np.abs(graph.values[k][:, 0] - exact_phi(xi))
        assert err.max() <= 1e-8
        mask = xi != 0.0
        assert (err[mask] / np.abs(xi[mask]) ** 3).max() <= 1e-4


def test_graph_radii_from_beta(solved):
    _, _, graph, _ = solved
    # eps = 0 exponential pair: beta = sqrt(2) at every s
    assert np.allclose(graph.radii, 0.02 * math.sqrt(2.0), rtol=1e-8)
    assert graph.radius_fn(0.5) == pytest.approx(0.02 * math.sqrt(2.0), rel=1e-8)


def test_graph_is_odd(solved):
    _, _, graph, _ = solved
    for xi in [0.005, 0.015, 0.025]:
        plus = eval_phi_many(graph, [0.7], [[xi]])[0, 0]
        minus = eval_phi_many(graph, [0.7], [[-xi]])[0, 0]
        assert plus == pytest.approx(-minus, abs=1e-15)


def test_eval_phi_interpolates(solved):
    _, _, graph, _ = solved
    rng = np.random.default_rng(3)
    s = rng.uniform(0.0, 2.0, size=20)
    xi = rng.uniform(-0.028, 0.028, size=(20, 1))
    vals = eval_phi_many(graph, s, xi)
    assert np.abs(vals[:, 0] - exact_phi(xi[:, 0])).max() <= 1e-8


def test_eval_phi_beyond_horizon(solved):
    # the radius function extrapolates, and the last slice carries the values
    _, _, graph, _ = solved
    assert eval_phi_many(graph, [5.0], [[0.02]])[0, 0] == pytest.approx(exact_phi(0.02),
                                                                       abs=1e-8)


def test_eval_phi_clamps_to_ball(solved):
    _, _, graph, _ = solved
    rho = graph.radius_fn(0.0)
    assert (eval_phi_many(graph, [0.0], [[10.0]])[0, 0]
            == eval_phi_many(graph, [0.0], [[rho]])[0, 0])


def test_graph_metric_distance_against_zero(solved):
    # sup |phi(xi)|/|xi| over nodes = rho^2/4, attained at the ball edge
    _, _, graph, _ = solved
    zeros = np.zeros_like(graph.values)
    dist = graph_metric_distance(zeros, graph.values, graph)
    rho = graph.radii.max()
    assert dist == pytest.approx(rho ** 2 / 4.0, rel=1e-4)
    assert graph_metric_distance(graph.values, graph.values, graph) == 0.0


def test_graph_lipschitz_one(solved):
    _, _, graph, _ = solved
    rng = np.random.default_rng(5)
    rho = graph.radius_fn(1.0)
    for _ in range(20):
        x1, x2 = rng.uniform(-rho, rho, size=2)
        d_phi = abs(eval_phi_many(graph, [1.0], [[x1]])[0, 0]
                    - eval_phi_many(graph, [1.0], [[x2]])[0, 0])
        assert d_phi <= abs(x1 - x2) * 1.0001 + 1e-15


def test_inner_trajectory_decoupled_decay(solved):
    system, pert, graph, _ = solved
    t, x, sweeps, worst = inner_path(graph, system, EXP, EXP, PARAMS, pert,
                                     s=0.0, xi=0.02, t_max=3.0, h=0.01)
    # the stable component never feels the forcing here, so x = xi e^-(t-s)
    expected = 0.02 * np.exp(-t)
    assert np.abs(x[:, 0] - expected).max() <= 1e-12
    assert worst <= 1.05
    assert sweeps <= 2


def test_nonlinear_flow_preserves_graph(solved):
    system, pert, graph, _ = solved
    xi = 0.02
    v0 = np.array([xi, float(exact_phi(xi))])
    t1, v1 = nonlinear_flow(system, pert, 0.0, v0, tau=1.5, h=1e-3)
    assert t1 == pytest.approx(1.5)
    u = xi * math.exp(-1.5)
    assert v1[0] == pytest.approx(u, rel=1e-10)
    assert v1[1] == pytest.approx(float(exact_phi(u)), rel=1e-6)


def test_nonlinear_flow_matrix_route_matches(solved):
    system, pert, _, _ = solved
    mat = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)
    v0 = np.array([0.02, -2e-6])
    _, va = nonlinear_flow(system, pert, 0.0, v0, tau=1.0, h=1e-3)
    _, vb = nonlinear_flow(mat, pert, 0.0, v0, tau=1.0, h=1e-3)
    assert np.allclose(va, vb, rtol=1e-9, atol=1e-15)


def test_nonlinear_flow_blowup(solved):
    system, pert, _, _ = solved
    with pytest.raises(BlowupError):
        nonlinear_flow(system, pert, 0.0, np.array([0.0, 4.0]), tau=30.0, h=1e-2,
                       blowup_factor=100.0)


def test_nonlinear_flow_validation(solved):
    system, pert, _, _ = solved
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            nonlinear_flow(system, pert, 0.0, np.array([1e-3, 0.0]), tau=tau)
    for h in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            nonlinear_flow(system, pert, 0.0, np.array([1e-3, 0.0]), tau=1.0, h=h)
    with pytest.raises(ValueError, match="shape"):
        nonlinear_flow(system, pert, 0.0, np.zeros(3), tau=1.0)


# t-dependent, non-diagonal A(t) built from config expressions, with one constant row
MATRIX_COEFF = [["-1 - 0.1*exp(-t)", "0.3*exp(-t)"], ["0", "1"]]


def _config_matrix_system():
    node = {"system": {"kind": "matrix", "coeff": MATRIX_COEFF, "n_stable": 1},
            "dichotomy": {"a": -1.0, "b": 1.0, "eps": 0.0, "D": 1.0}}
    return build_system(node, EXP, EXP)


@pytest.mark.parametrize("kind", ["closed_form", "matrix"])
def test_nonlinear_flow_many_equals_one_sample_calls(kind):
    system = rate_power_system(EXP, a=-1.0, b=1.0) if kind == "closed_form" \
        else _config_matrix_system()
    assert system.form == kind
    pert = cubic_perturbation(1.0)
    h = 0.01
    # zero duration, durations that are not multiples of h, different step counts
    s = np.array([0.3, 0.0, 1.25, 0.7, 2.0])
    tau = np.array([0.0, 0.37, 1.0, 0.053, 0.2])
    v0 = np.array([[0.01, -2.5e-7], [0.02, -2e-6], [-0.015, 8e-7], [0.005, 0.0],
                   [0.012, -4e-7]])
    t_b, v_b = nonlinear_flow_many(system, pert, s, v0, tau, h)
    assert len({max(1, math.ceil(x / h)) for x in tau[1:]}) == 4
    for b in range(len(s)):
        t1, v1 = nonlinear_flow(system, pert, s[b], v0[b], tau[b], h)
        assert t_b[b].tobytes() == np.float64(t1).tobytes()
        assert v_b[b].tobytes() == v1.tobytes()
    assert t_b[0] == s[0] and np.array_equal(v_b[0], v0[0])


@pytest.mark.parametrize("kind", ["closed_form", "matrix"])
def test_nonlinear_flow_many_evaluates_the_linear_part_once_per_round(kind):
    # the closed form's U and the matrix's A each see one call per step round, on
    # the three stage times of every row still in the batch; the flow is unchanged
    base = rate_power_system(EXP, a=-1.0, b=1.0) if kind == "closed_form" \
        else _config_matrix_system()
    name = "U" if kind == "closed_form" else "A"
    inner = getattr(base, name)
    sizes = []

    def counting(t, *rest):
        sizes.append(np.shape(t))
        return inner(t, *rest)

    system = replace(base, **{name: counting})
    pert = cubic_perturbation(1.0)
    h = 0.01
    s = np.array([0.3, 0.0, 1.25, 0.7])
    tau = np.array([0.0, 0.37, 1.0, 0.053])
    v0 = np.array([[0.01, -2.5e-7], [0.02, -2e-6], [-0.015, 8e-7], [0.005, 0.0]])
    t_b, v_b = nonlinear_flow_many(system, pert, s, v0, tau, h)
    steps = manifold.flow_steps(tau, h)
    assert len(sizes) == steps.max() == 100
    # rows leave after their last step: 3 rows for 6 rounds, 2 until 37, then 1
    assert sizes == [(3 * int((steps > r).sum()),) for r in range(steps.max())]
    t_ref, v_ref = nonlinear_flow_many(base, pert, s, v0, tau, h)
    assert t_b.tobytes() == t_ref.tobytes() and v_b.tobytes() == v_ref.tobytes()


def test_nonlinear_flow_many_reports_lowest_blown_index(solved):
    system, pert, _, _ = solved
    # sample 2 blows up earlier than sample 1; the error names sample 1
    s = np.array([0.0, 0.5, 0.0])
    v0 = np.array([[0.001, 0.0], [0.0, 4.0], [0.0, 8.0]])
    kw = dict(h=1e-2, blowup_factor=100.0)
    t_seq = []
    for b in (1, 2):
        with pytest.raises(BlowupError) as one:
            nonlinear_flow(system, pert, s[b], v0[b], 30.0, **kw)
        t_seq.append(one.value.t_blowup)
    assert t_seq[1] < t_seq[0]
    with pytest.raises(BlowupError) as batch:
        nonlinear_flow_many(system, pert, s, v0, np.array([1.0, 30.0, 30.0]), **kw)
    assert batch.value.t_blowup == t_seq[0]


def test_nonlinear_flow_many_validation(solved):
    system, pert, _, _ = solved
    for tau in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            nonlinear_flow_many(system, pert, [0.0, 0.0], np.zeros((2, 2)), [1.0, tau])
    with pytest.raises(ValueError, match="h must be positive and finite"):
        nonlinear_flow_many(system, pert, [0.0, 0.0], np.zeros((2, 2)), [1.0, 0.5], h=math.nan)
    with pytest.raises(ValueError, match="shape"):
        nonlinear_flow_many(system, pert, [0.0], np.zeros((2, 2)), [1.0, 1.0])


def test_coefficient_matrices_broadcast_over_times():
    t = np.array([0.0, 0.25, 1.0, 3.5, 10.0])
    diagonal = [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]
    configs = [(_config_matrix_system(), MATRIX_COEFF),
               (build_system({"system": {"kind": "matrix", "n_stable": 2, "coeff": diagonal},
                              "dichotomy": {}}, EXP, EXP), diagonal)]
    for system, coeff in configs:
        batch = system.A(t)
        assert batch.shape == (len(t), system.n, system.n)
        for b, tt in enumerate(t):  # each entry's expression at the scalar time
            scalar = np.array([[float(compile_expression(e, variables=("t",))(t=float(tt)))
                                for e in row] for row in coeff])
            assert batch[b].tobytes() == scalar.tobytes()
    for system in (rate_power_system(EXP, a=-1.0, b=1.0),
                   sharp_oscillating_system(EXP, EXP, -1.0, 1.0, 0.2)):
        batch = system.A(t)
        assert batch.shape == (len(t), system.n, system.n)
        for b in range(len(t)):
            assert batch[b].tobytes() == system.A(t[b:b + 1])[0].tobytes()


def test_solver_rejects_oversized_delta():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.05, C=2.0, nodes_per_axis=5, h=0.05)
    with pytest.raises(ValueError, match="certified delta_max"):
        solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)


def test_solver_rejects_nonvanishing_perturbation():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    bad = Perturbation(lambda t, v: np.column_stack([np.zeros(len(t)), 1e-3 + v[:, 0] ** 3]),
                       c=1.0, q=2.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=5, h=0.05)
    with pytest.raises(ValueError, match="vanish at the origin"):
        solve_manifold(system, EXP, EXP, PARAMS, bad, cfg)


CUT_S = np.linspace(0.0, 2.0, 21)
CUT_TARGETS = np.geomspace(1e-3, 1e-9, 21)


def test_quadrature_cut_matches_the_analytic_cut():
    # the expression pair has no analytic tail bound, so its cuts come from the tail
    # integral; the polynomial pair's bound (1 + T)^-2.9 / 2.9 is exact
    expr = expression_rate("1 + t")
    assert analytic_tail_bound(expr, expr, -4.0, 0.1) is None
    cuts = manifold._truncation_points(POLY, POLY, -4.0, 0.1, CUT_S, CUT_TARGETS, 5000.0)
    got = manifold._truncation_points(expr, expr, -4.0, 0.1, CUT_S, CUT_TARGETS, 5000.0)
    assert got.tobytes() == cuts.tobytes()
    spans = cuts - CUT_S
    assert np.all(np.log2(spans) == np.round(np.log2(spans)))
    assert np.all((1.0 + cuts) ** -2.9 / 2.9 <= CUT_TARGETS)
    assert np.all((1.0 + CUT_S + spans / 2.0) ** -2.9 / 2.9 > CUT_TARGETS)


def test_quadrature_cuts_share_the_anchor_walks(monkeypatch):
    # each walk from s + 2^k hands its tail beyond the next power of two to one walk
    # shared by the batch: 946 adaptive Simpson intervals, where a full walk from
    # every s + 2^k takes 1821
    from stablemanifold import admissibility
    intervals = []
    quadrature = admissibility.adaptive_simpson_many

    def counting(f, a, *rest, **kw):
        intervals.append(np.size(a))
        return quadrature(f, a, *rest, **kw)

    monkeypatch.setattr(admissibility, "adaptive_simpson_many", counting)
    expr = expression_rate("1 + t")
    manifold._truncation_points(expr, expr, -4.0, 0.1, CUT_S, CUT_TARGETS, 5000.0)
    assert sum(intervals) <= 1000


@pytest.mark.parametrize("rate", [POLY, expression_rate("1 + t")], ids=["analytic", "quadrature"])
def test_cut_beyond_t_cut_max_names_the_first_failing_slice(rate):
    # spans of 8 and 16 reach the first four targets; the fifth (s = 0.4) needs 32
    with pytest.raises(TailBoundError, match="within span 16") as info:
        manifold._truncation_points(rate, rate, -4.0, 0.1, CUT_S, CUT_TARGETS, 16.0)
    assert info.value.s == CUT_S[4]


@pytest.mark.parametrize("rate", [POLY, expression_rate("1 + t")], ids=["analytic", "quadrature"])
def test_divergent_outer_integrand_raises_divergence(rate):
    # (1 + r)^-0.9 has no finite tail
    with pytest.raises(DivergenceError):
        manifold._truncation_points(rate, rate, -1.0, 0.1, CUT_S, CUT_TARGETS, 5000.0)


def test_nonvanishing_error_names_first_bad_slice():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    late = Perturbation(lambda t, v: np.column_stack(
        [np.zeros(len(t)), np.where(t >= 0.5, 1e-3, 0.0) + v[:, 0] ** 3]), c=1.0, q=2.0)
    cfg = SolverConfig(s_grid=(0.0, 0.5, 1.0), delta=0.02, C=2.0, nodes_per_axis=5, h=0.05)
    with pytest.raises(ValueError, match=r"f\(0\.5, 0\) != 0"):
        solve_manifold(system, EXP, EXP, PARAMS, late, cfg)


def test_solver_rejects_bad_lattice():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=4, h=0.05)
    with pytest.raises(ValueError, match="odd integer"):
        solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)


def test_matrix_route_reproduces_graph():
    # same dynamics entering through the coefficient-matrix interface
    mat = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)
    cfg = SolverConfig(s_grid=(0.0, 0.5), delta=0.02, C=2.0, nodes_per_axis=7,
                       h=0.05, tail_abs_tol=1e-9)
    graph, history = solve_manifold(mat, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)
    assert len(history) == 2
    for k in range(graph.n_slices):
        xi = graph.node_points(k)[:, 0]
        mask = xi != 0.0
        err = np.abs(graph.values[k][mask, 0] - exact_phi(xi[mask]))
        assert (err / np.abs(xi[mask]) ** 3).max() <= 1e-4


def test_history_records_decay_ratio(solved):
    # at t = s the path sits at |xi|, the envelope at C |xi| = 2 |xi|
    _, _, graph, history = solved
    for row in history:
        assert row["max_decay_ratio"] == pytest.approx(0.5, rel=1e-12)
    assert graph.meta["max_decay_ratio"] == history[-1]["max_decay_ratio"]


def _largest_adjacent_node_ratio(graph):
    """Reference: max |Dphi|_1 / |Dxi|_1 over pairs of adjacent in-ball nodes."""
    m, d = graph.nodes_per_axis, graph.n_stable
    in_ball = graph.in_ball.reshape((m,) * d)
    worst = 0.0
    for k in range(graph.n_slices):
        vals = graph.values[k].reshape((m,) * d + (graph.n_unstable,))
        dxi = 2.0 * graph.radii[k] / (m - 1)
        for axis in range(d):
            pair_in_ball = (np.take(in_ball, range(m - 1), axis)
                            & np.take(in_ball, range(1, m), axis))
            diff = np.abs(np.diff(vals, axis=axis)).sum(axis=-1)
            worst = max(worst, float((diff[pair_in_ball] / dxi).max()))
    return worst


def _stable_plane_oracle():
    # u1' = -u1, u2' = -u2, v' = v + u1^3: a 2-D stable block with closed-form factors
    base = rate_power_system(EXP, a=-1.0, b=1.0)
    system = LinearSystem(3, 2, U=base.U, V=base.V)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=5, h=0.05)
    return solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0, n=3), cfg)


@pytest.mark.parametrize("d", [1, 2])
def test_history_records_lipschitz_margin(solved, d):
    graph, history = solved[2:] if d == 1 else _stable_plane_oracle()
    assert graph.n_stable == d
    assert history[-1]["max_lipschitz_ratio"] == _largest_adjacent_node_ratio(graph)
    assert graph.meta["max_lipschitz_ratio"] == history[-1]["max_lipschitz_ratio"]
    for row in history:
        assert 0.0 < row["max_lipschitz_ratio"] <= 1.0 + manifold._LIPSCHITZ_TOL


def test_decay_slack_is_enforced(monkeypatch):
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=5, h=0.05)
    monkeypatch.setattr(manifold, "_DECAY_SLACK", 0.4)
    with pytest.raises(DecayBoundError, match="node") as info:
        solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)
    assert info.value.s == 0.0
    assert info.value.ratio == pytest.approx(0.5, rel=1e-12)
    assert 0 <= info.value.node < 5


FEEDBACK = expression_perturbation(["u1*u2*u1 + u2^3", "u1^3 + u2*u1^2"], c=3, q=2)
# the same feedback on a 2-D stable block: f reaches both stable coordinates
FEEDBACK_D2 = expression_perturbation(["u2*u3*u1 + u3^3", "u1*u3*u2 + u3^3",
                                       "u1^3 + u2^3 + u3*u1^2"], c=3, q=2)
MATRIX_D1 = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)


@pytest.mark.parametrize("d", [1, 2])
def test_matrix_route_matches_closed_form_under_feedback(d):
    # the Picard sweep on RK4 propagator tables against exact U and V
    base = rate_power_system(EXP, a=-1.0, b=1.0)
    if d == 1:
        closed, mat, pert, m = base, MATRIX_D1, FEEDBACK, 7
    else:
        closed = LinearSystem(3, 2, U=base.U, V=base.V)
        mat = matrix_system(lambda t: np.diag([-1.0, -1.0, 1.0]), 3, 2)
        pert, m = FEEDBACK_D2, 5
    cfg = SolverConfig(s_grid=(0.0, 0.5), delta=None, C=2.0, nodes_per_axis=m, h=0.05,
                       tail_abs_tol=1e-9)
    ref, _ = solve_manifold(closed, EXP, EXP, PARAMS, pert, cfg)
    graph, _ = solve_manifold(mat, EXP, EXP, PARAMS, pert, cfg)
    assert graph.n_stable == d
    for k in range(graph.n_slices):
        xi_norm = np.abs(graph.node_points(k)).sum(axis=1)
        mask = xi_norm > 0.0
        err = np.abs(graph.values[k] - ref.values[k]).sum(axis=1)
        assert (err[mask] / xi_norm[mask] ** 3).max() <= 1e-7


def test_inner_trajectory_matrix_route_sweeps_like_closed_form(solved):
    system, _, graph, _ = solved
    runs = [inner_path(graph, form, EXP, EXP, PARAMS, FEEDBACK,
                       s=0.0, xi=0.02, t_max=3.0, h=0.01) for form in (system, MATRIX_D1)]
    assert runs[0][2] == runs[1][2] > 1
    assert np.abs(runs[0][1] - runs[1][1]).max() <= 1e-12


def test_inner_trajectory_tolerates_unstable_overflow(solved):
    # V(t, s) = e^(2(t-s)) overflows beyond t - s = 355 while U = e^-(t-s) stays finite;
    # only the outer map reads V
    _, pert, graph, _ = solved
    base = rate_power_system(EXP, a=-1.0, b=1.0)
    system = LinearSystem(2, 1, U=base.U,
                          V=lambda t, s: np.exp(2.0 * (np.asarray(t) - s)))
    with np.errstate(over="ignore"):
        t, _, sweeps, _ = inner_path(graph, system, EXP, EXP, PARAMS, pert,
                                     s=0.0, xi=0.02, t_max=400.0, h=0.5)
        table = manifold._slice_table(system, EXP, EXP, PARAMS, pert, graph.C, 0.0, 400.0,
                                      0.5)
    assert t[-1] == 400.0 and sweeps == 1
    with pytest.raises(NumericalError, match="unstable propagator"):
        table.pull_unstable(np.zeros((1, len(table.t), 2)))


@pytest.mark.parametrize("system", [rate_power_system(EXP, a=-1.0, b=1.0),
                                    replace(MATRIX_D1, clock=EXP)],
                         ids=["closed_form", "matrix"])
def test_exponential_table_equals_uniform_t_table(system):
    # e^t has the clock rho = t and weight 1; a forcing that reads t keeps a t grid
    pert = cubic_perturbation(1.0)
    clocked = manifold._slice_table(system, EXP, EXP, PARAMS, pert, 2.0, 0.3, 8.3, 0.07)
    plain = manifold._slice_table(system, EXP, EXP, PARAMS, replace(pert, autonomous=False),
                                  2.0, 0.3, 8.3, 0.07)
    assert clocked.t.tobytes() == plain.t.tobytes() and clocked.h == plain.h
    fv = np.random.default_rng(1).normal(size=(3, len(clocked.t), 2))
    for name in ("pull_stable", "pull_unstable"):
        assert getattr(clocked, name)(fv).tobytes() == getattr(plain, name)(fv).tobytes()


@pytest.mark.parametrize("mu", [POLY, builtin_rate("log_poly", lam=4.0),
                                builtin_rate("loglog_poly", lam=4.0)], ids=lambda r: r.label)
def test_slice_table_grid_is_uniform_in_log_mu(mu):
    system = rate_power_system(mu, a=-0.5, b=0.5)
    table = manifold._slice_table(system, mu, mu, PARAMS, cubic_perturbation(1.0), 2.0,
                                  0.4, 300.0, 0.05)
    assert table.t[0] == 0.4 and table.t[-1] == 300.0
    rho = mu.log_eval(table.t)
    assert table.h <= 0.05
    assert np.allclose(np.diff(rho), table.h, rtol=0.0, atol=1e-12)
    assert len(table.t) < 0.2 * (300.0 - 0.4) / 0.05  # far fewer points than a t grid
    # both pull-back maps carry dt/drho = mu/mu'
    weight = mu(table.t) / mu.deriv(table.t)
    fv = np.ones((1, len(table.t), 2))
    u = system.U(table.t, 0.4)
    v = system.V(table.t, 0.4)
    assert np.allclose(table.pull_stable(fv)[0, :, 0], weight / u, rtol=1e-12, atol=0.0)
    assert np.allclose(table.pull_unstable(fv)[0, :, 0], weight / v, rtol=1e-12, atol=0.0)


def _rotating_coeff(t):
    """A(t) of u' = R u - u/(1+t), v' = v/(1+t), R the unit rotation generator."""
    t = np.asarray(t, dtype=float)
    a = np.zeros(t.shape + (3, 3))
    a[..., 0, 0] = a[..., 1, 1] = -1.0 / (1.0 + t)
    a[..., 0, 1], a[..., 1, 0] = 1.0, -1.0
    a[..., 2, 2] = 1.0 / (1.0 + t)
    return a


ROTATING = matrix_system(_rotating_coeff, 3, 2, label="rotating")


@pytest.mark.parametrize("system, pert", [
    (rate_power_system(expression_rate("1 + t"), a=-1.0, b=1.0), cubic_perturbation(1.0)),
    (rate_power_system(POLY, a=-1.0, b=1.0),
     expression_perturbation(["0", "u1^3 * exp(-t)"], c=1.0, q=2.0)),
    (sharp_oscillating_system(POLY, POLY, a=-1.0, b=1.0, eps=0.1), cubic_perturbation(1.0)),
    (ROTATING, cubic_perturbation(1.0, n=3)),
], ids=["expression-rate", "time-dependent-forcing", "sharp-oscillating", "matrix"])
def test_unclocked_inner_problems_keep_uniform_t_grid(system, pert):
    table = manifold._slice_table(system, POLY, POLY, PARAMS, pert, 2.0, 0.5, 20.0, 0.1)
    assert table.t[0] == 0.5 and table.t[-1] == 20.0
    assert len(table.t) == 196 and table.h == pytest.approx(0.1)
    assert np.allclose(np.diff(table.t), table.h, rtol=1e-12)
    if system.form == "closed_form":  # weight 1: the pull maps apply 1/U and 1/V
        fv = np.ones((1, len(table.t), 2))
        assert np.all(table.pull_stable(fv)[0, :, 0] == 1.0 / system.U(table.t, 0.5))


def test_rotating_matrix_system_under_polynomial_rates():
    # x(r) = (1+s)/(1+r) R(r-s) xi never sees the forcing, so the exact graph is
    # phi(s, xi) = -(1+s)^4 integral_s^inf (1+r)^-4 (xi_1 cos(r-s) + xi_2 sin(r-s))^3 dr;
    # the rotation has period 2 pi in t, far below the t step of a log(1+t) grid
    params = DichotomyParams(D=1.5, a=-1.0, b=1.0, eps=0.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.01, C=2.0, nodes_per_axis=5, h=0.05,
                       tail_abs_tol=1e-9, t_cut_max=5000.0)
    graph, _ = solve_manifold(ROTATING, POLY, POLY, params, cubic_perturbation(1.0, n=3), cfg)
    tau = np.linspace(0.0, 2000.0, 400001)  # the tail beyond 2000 is below 1e-9 of the value
    for k, s in enumerate(graph.s_grid.tolist()):
        gains = [composite_simpson(((1.0 + s) / (1.0 + s + tau)) ** 4 * np.cos(tau) ** j
                                   * np.sin(tau) ** (3 - j), tau[1]) for j in range(4)]
        xi = graph.node_points(k)
        exact = -sum(math.comb(3, j) * xi[:, 0] ** j * xi[:, 1] ** (3 - j) * gains[j]
                     for j in range(4))
        err = np.abs(graph.values[k][:, 0] - exact)
        # Simpson at t step 0.05 on the cos(3 tau) harmonic leaves about 3e-6
        assert err.max() <= 1e-5 * np.abs(xi).sum(axis=1).max() ** 3


def _per_stage_rk4_grid(deriv, t_grid, y0):
    """Reference slice-table propagation: one call of ``deriv`` per RK4 stage."""
    out = np.empty((len(t_grid),) + y0.shape)
    y = out[0] = y0
    for j in range(len(t_grid) - 1):
        y = out[j + 1] = rk4_step(deriv, t_grid[j], y, t_grid[j + 1] - t_grid[j])
    return out


def test_matrix_slice_tables_match_per_stage_reference(monkeypatch):
    # forward T(t, s)P(s) as y' = A y and backward T(s, r) as w' = -w A, with A(r) at
    # every stage time; the grids are bit-identical, the tables' maps and an inner
    # trajectory agree within 1e-12 (the step matrices compose in another order)
    params = DichotomyParams(D=1.5, a=-1.0, b=1.0, eps=0.0)
    pert = cubic_perturbation(1.0, n=3)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.01, C=2.0, nodes_per_axis=3, h=0.05,
                       tail_abs_tol=1e-6, t_cut_max=200.0)
    graph, _ = solve_manifold(ROTATING, POLY, POLY, params, pert, cfg)
    xi = np.array([0.3, -0.2]) * float(graph.radius_fn(0.5))

    def tables_and_trajectory():
        rng = np.random.default_rng(5)
        table = manifold._slice_table(ROTATING, POLY, POLY, params, pert, 2.0, 0.5, 30.0, 0.05)
        y = rng.standard_normal((2, len(table.t), 2))
        fv = rng.standard_normal((2, len(table.t), 3))
        x = inner_path(graph, ROTATING, POLY, POLY, params, pert, s=0.5, xi=xi, t_max=30.0,
                       h=0.05)[1]
        return table.t, table.stable(y), table.pull_stable(fv), table.pull_unstable(fv), x

    new = tables_and_trajectory()

    def per_stage(A, t, dt, y0, right=False):
        t_grid = np.append(t, t[-1] + dt[-1])
        assert np.array_equal(np.diff(t_grid), dt)
        if right:
            return _per_stage_rk4_grid(lambda r, w: -w @ _rotating_coeff(r), t_grid, y0)
        return _per_stage_rk4_grid(lambda r, y: _rotating_coeff(r) @ y, t_grid, y0)

    monkeypatch.setattr(manifold, "rk4_propagate", per_stage)
    ref = tables_and_trajectory()
    assert new[0].tobytes() == ref[0].tobytes()
    for a, b in zip(new[1:], ref[1:]):
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_inner_trajectory_on_rate_clock_grid():
    # u' = -u/(1+t), v' = v/(1+t) + u^3: the stable coordinate is U(t,s) xi = xi (1+s)/(1+t)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.1)
    system = rate_power_system(POLY, a=-1.0, b=1.0)
    pert = cubic_perturbation(1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), C=2.0, nodes_per_axis=5, h=0.05,
                       tail_abs_tol=1e-9, t_cut_max=5000.0)
    graph, _ = solve_manifold(system, POLY, POLY, params, pert, cfg)
    xi = 0.5 * float(graph.radius_fn(0.5))
    t, x, sweeps, worst = inner_path(graph, system, POLY, POLY, params, pert,
                                     s=0.5, xi=xi, t_max=200.0, h=0.05)
    assert t[0] == 0.5 and t[-1] == 200.0
    assert np.allclose(np.diff(np.log1p(t)), np.log(201.0 / 1.5) / (len(t) - 1))
    assert np.abs(x[:, 0] - xi * 1.5 / (1.0 + t)).max() <= 1e-15 * xi
    assert sweeps <= 2 and worst <= 1.05


@pytest.mark.parametrize("system, pert, delta, stale",
                         [(rate_power_system(EXP, a=-1.0, b=1.0), cubic_perturbation(1.0),
                           0.02, False),
                          (rate_power_system(EXP, a=-1.0, b=1.0), FEEDBACK, None, True),
                          (MATRIX_D1, FEEDBACK, None, True)],
                         ids=["oracle", "feedback", "matrix-feedback"])
def test_chunked_slices_match_single_node_chunks(monkeypatch, system, pert, delta, stale):
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=delta, C=2.0, nodes_per_axis=41, h=0.01)
    calls = {"forcing": 0, "sweeps": 0}
    sweep_counts = []
    forcing, sweep, node_paths = (manifold._forcing, manifold.cumulative_simpson,
                                  manifold._node_paths)

    def count_forcing(*args):
        calls["forcing"] += 1
        return forcing(*args)

    def count_sweep(*args):
        calls["sweeps"] += 1
        return sweep(*args)

    def record_sweeps(*args):
        out = node_paths(*args)
        sweep_counts.append(set(out[2].tolist()))
        return out

    monkeypatch.setattr(manifold, "_forcing", count_forcing)
    monkeypatch.setattr(manifold, "cumulative_simpson", count_sweep)
    monkeypatch.setattr(manifold, "_node_paths", record_sweeps)
    monkeypatch.setattr(manifold, "_CHUNK_SAMPLES", 1)
    single, single_history = solve_manifold(system, EXP, EXP, PARAMS, pert, cfg)
    monkeypatch.setattr(manifold, "_CHUNK_SAMPLES", 10 ** 9)
    calls.update(forcing=0, sweeps=0)
    sweep_counts.clear()
    whole, whole_history = solve_manifold(system, EXP, EXP, PARAMS, pert, cfg)
    # one chunk per slice and operator application; f free of the graph applies it once
    passes = 1 if manifold._ignores_graph(pert, system.n_stable) else len(whole_history)
    assert len(sweep_counts) == 2 * passes
    assert np.array_equal(single.values, whole.values)
    assert single_history == whole_history
    # feedback reaches the stable block: nodes of one chunk take different
    # sweep counts, and paths moved by their last sweep recompute f
    assert any(len(counts) > 1 for counts in sweep_counts) == stale
    if stale:
        assert calls["forcing"] > calls["sweeps"]
    else:
        # the cubic forces no stable part: each chunk stops on its linear paths
        assert calls["sweeps"] == 0 and calls["forcing"] == len(sweep_counts)


def _node_loop_value(graph, pert, table, xi, picard_tol):
    """Reference: one node at a time, Picard sweeps through the table's maps (at least
    one Simpson pass) and then the outer integral."""
    t, h = table.t, table.h

    def forcing(x):
        return pert.f(t, np.concatenate([x, eval_phi_many(graph, t, x)], axis=1))[None]

    x = table.stable(xi[None, None, :])[0]
    for _ in range(80):
        cum = cumulative_simpson(table.pull_stable(forcing(x))[0], h)
        x_new = table.stable((xi[None, :] + cum)[None])[0]
        distance = np.max(np.abs(x_new - x))
        x = x_new
        if distance <= picard_tol:
            break
    return -composite_simpson(table.pull_unstable(forcing(x))[0], h)


# f_E = 0, but A couples the blocks: P(s)T(s, r) f has a stable part
COUPLED = matrix_system(lambda t: np.array([[-1.0, 0.5], [0.0, 1.0]]), 2, 1)


@pytest.mark.parametrize("system, pert, sweeps",
                         [(rate_power_system(EXP, a=-1.0, b=1.0), FEEDBACK, True),
                          (rate_power_system(EXP, a=-1.0, b=1.0), cubic_perturbation(1.0),
                           False),
                          (MATRIX_D1, cubic_perturbation(1.0), False),
                          (COUPLED, cubic_perturbation(1.0), True)],
                         ids=["feedback", "cubic", "matrix-cubic", "coupled-cubic"])
def test_operator_matches_node_loop_reference(monkeypatch, system, pert, sweeps):
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=None, C=2.0, nodes_per_axis=41, h=0.01)
    graph, _ = solve_manifold(rate_power_system(EXP, a=-1.0, b=1.0), EXP, EXP, PARAMS,
                              FEEDBACK, cfg)
    tables = manifold._slice_tables(graph, system, EXP, EXP, PARAMS, pert, cfg)
    passes = []
    simpson = manifold.cumulative_simpson
    monkeypatch.setattr(manifold, "cumulative_simpson",
                        lambda *args: passes.append(1) or simpson(*args))
    new = manifold.apply_phi_operator(graph, system, EXP, EXP, PARAMS, pert, cfg, tables)
    # a zero pulled-back stable forcing settles every chunk on its linear paths
    assert bool(passes) == sweeps
    assert (new.meta["inner"]["simpson_sweeps"] > 0) == sweeps
    for k, table in enumerate(tables):
        for j, xi in enumerate(graph.node_points(k)):
            ref = _node_loop_value(graph, pert, table, xi, manifold._PICARD_TOL)
            assert np.array_equal(new.values[k, j], ref)


@pytest.mark.parametrize("d, m", [(1, 5), (1, 41), (1, 81), (2, 5), (2, 21), (3, 9)])
def test_lattice_targets_hold_no_negative_zero(d, m):
    # the linear-path stop of the inner sweep is exact for every xi but -0.0
    _, targets = manifold._build_lattice(d, m)
    assert (targets == 0.0).any()
    assert not np.signbit(targets[targets == 0.0]).any()


def _random_graph(d: int, seed: int) -> ManifoldGraph:
    m = 5
    in_ball, targets = manifold._build_lattice(d, m)
    s_grid = np.array([0.0, 0.7, 1.5])
    radii = np.array([0.03, 0.025, 0.02])

    def radius(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, s_grid, radii) * np.exp(-np.maximum(t - s_grid[-1], 0.0))

    values = np.random.default_rng(seed).uniform(-1e-3, 1e-3, size=(3, len(targets), 1))
    return ManifoldGraph(s_grid, radii, in_ball, targets, values, n_stable=d,
                         n_unstable=1, delta=0.02, C=2.0, nodes_per_axis=m,
                         radius_fn=radius)


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_phi_many_matches_eval_phi(d, data):
    graph = _random_graph(d, seed=d)
    n = data.draw(st.integers(1, 12))
    coord = st.floats(-0.05, 0.05, allow_nan=False)
    t = np.array(data.draw(st.lists(st.floats(-0.5, 3.0), min_size=n, max_size=n)))
    xi = np.array(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                     min_size=n, max_size=n)))
    batch = eval_phi_many(graph, t, xi)
    rows = np.concatenate([eval_phi_many(graph, t[i:i + 1], xi[i:i + 1]) for i in range(n)])
    assert np.array_equal(batch, rows)


@pytest.mark.parametrize("d", [1, 2])
def test_one_slice_graph_reads_slice_zero(d):
    # one slice: every t reads slice 0 at the radially clamped point, bit for bit
    many = _random_graph(d, seed=d)
    values = many.values[:1].copy()
    values[0, ::2] = -0.0
    graph = replace(many, s_grid=many.s_grid[:1], radii=many.radii[:1], values=values)
    rng = np.random.default_rng(7)
    t = np.concatenate([[-0.5, 0.0, 0.7, 3.0], rng.uniform(-0.5, 3.0, 60)])
    xi = rng.uniform(-0.05, 0.05, size=(len(t), d))
    xi[:4] = 0.0
    rho, norms = graph.radius_fn(t), np.abs(xi).sum(axis=1)
    over = norms > rho
    assert over.any() and not over.all()
    scale = np.ones(len(t))
    scale[over] = rho[over] / norms[over]
    expected = manifold._slice_eval(graph, np.zeros(len(t), dtype=np.int64),
                                    xi * scale[:, None])
    assert eval_phi_many(graph, t, xi).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clamping_is_radial_lipschitz_extension(d, data):
    # outside the slice ball the graph takes its boundary value along the ray
    graph = _random_graph(d, seed=d)
    t = data.draw(st.floats(-0.5, 3.0))
    direction = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    assume(np.abs(direction).sum() >= 1e-3)
    rho = float(graph.radius_fn(t))
    xi = direction * (rho * data.draw(st.floats(1.001, 100.0)) / np.abs(direction).sum())
    edge = xi * (rho / np.abs(xi).sum())
    outside = eval_phi_many(graph, np.array([t]), xi[None])
    on_ray = eval_phi_many(graph, np.array([t]), edge[None])
    np.testing.assert_allclose(outside, on_ray, rtol=1e-12, atol=1e-18)


def test_reads_are_derived_from_the_components():
    assert cubic_perturbation(1.0).reads == (0,)
    assert cubic_perturbation(1.0, n=3).reads == (0,)
    assert expression_perturbation(["0", "u1^3"], c=1.0, q=2.0).reads == (0,)
    assert FEEDBACK.reads == (0, 1)
    assert FEEDBACK_D2.reads == (0, 1, 2)
    assert expression_perturbation(["u2*t", "u2^3"], c=1.0, q=2.0).reads == (1,)
    assert expression_perturbation(["0", "0"], c=1.0, q=2.0).reads == ()


SKIP_CFG = SolverConfig(s_grid=(0.0, 0.5, 1.0), delta=None, C=2.0, nodes_per_axis=9, h=0.05,
                        tail_abs_tol=1e-9)


def test_skipping_the_graph_is_exact():
    # f never reads the unstable column, so handing it zeros there changes no bit
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    pert = cubic_perturbation(1.0)
    skipped, skipped_history = solve_manifold(system, EXP, EXP, PARAMS, pert, SKIP_CFG)
    full, full_history = solve_manifold(system, EXP, EXP, PARAMS, replace(pert, reads=None),
                                        SKIP_CFG)
    assert skipped.values.tobytes() == full.values.tobytes()
    assert skipped_history == full_history


def _solve_counting_operator(monkeypatch, pert):
    """Solve under ``pert`` on SKIP_CFG; returns the graph, history and operator calls."""
    calls = []
    original = manifold.apply_phi_operator

    def count(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(manifold, "apply_phi_operator", count)
    graph, history = solve_manifold(rate_power_system(EXP, a=-1.0, b=1.0), EXP, EXP, PARAMS,
                                    pert, SKIP_CFG)
    return graph, history, len(calls)


def test_graph_free_solve_applies_the_operator_once(monkeypatch):
    pert = cubic_perturbation(1.0)
    graph, history, calls = _solve_counting_operator(monkeypatch, pert)
    # f reads no unstable component: Phi(0) is the fixed point, and the second
    # history row is the zero step that a real second pass gives
    assert calls == 1 and len(history) == 2
    assert history[1]["distance"] == 0.0 and history[1]["ratio"] == 0.0
    again = apply_phi_operator(graph, rate_power_system(EXP, a=-1.0, b=1.0), EXP, EXP, PARAMS,
                               pert, SKIP_CFG)
    assert again.values.tobytes() == graph.values.tobytes()
    assert again.meta == graph.meta


def test_feedback_solve_applies_the_operator_every_iteration(monkeypatch):
    graph, history, calls = _solve_counting_operator(monkeypatch, FEEDBACK)
    assert calls == len(history) >= 2
    # the work counters sum over the applications; phi = 0 zeroes the stable part
    # of FEEDBACK, so the first pass stops on the linear paths and every later
    # path sweeps
    inner, per_pass = graph.meta["inner"], len(SKIP_CFG.s_grid) * SKIP_CFG.nodes_per_axis
    assert inner["node_paths"] == calls * per_pass
    assert inner["simpson_sweeps"] >= (calls - 1) * per_pass > 0


@pytest.mark.parametrize("pert, evaluated",
                         [(cubic_perturbation(1.0), False),
                          (replace(cubic_perturbation(1.0), reads=None), True),
                          (FEEDBACK, True)], ids=["cubic", "reads-all", "feedback"])
def test_solver_evaluates_the_graph_only_when_f_reads_it(monkeypatch, pert, evaluated):
    calls = []
    original = manifold.eval_phi_many

    def count(graph, t, xi):
        calls.append(len(t))
        return original(graph, t, xi)

    monkeypatch.setattr(manifold, "eval_phi_many", count)
    solve_manifold(rate_power_system(EXP, a=-1.0, b=1.0), EXP, EXP, PARAMS, pert, SKIP_CFG)
    assert (len(calls) > 0) == evaluated


def test_solver_rejects_wrong_reads():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    with pytest.raises(ValueError, match=r"depends on component 1 \(u2\)"):
        solve_manifold(system, EXP, EXP, PARAMS, replace(FEEDBACK, reads=(0,)), SKIP_CFG)
    with pytest.raises(ValueError, match=r"component 2, outside \[0, 2\)"):
        solve_manifold(system, EXP, EXP, PARAMS, replace(cubic_perturbation(1.0),
                                                         reads=(0, system.n)), SKIP_CFG)
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        solve_manifold(system, EXP, EXP, PARAMS, replace(FEEDBACK, reads=(-1, 0, 1)),
                       SKIP_CFG)
    # the feedback declared in full passes the probe
    solve_manifold(system, EXP, EXP, PARAMS, replace(FEEDBACK, reads=(1, 0)), SKIP_CFG)


def _cube_samples():
    rng = np.random.default_rng(5)
    u = np.concatenate([rng.uniform(-1.0, 1.0, 4000), rng.uniform(-1e-3, 1e-3, 4000),
                        -np.logspace(-100, 100, 201), np.logspace(-100, 100, 201),
                        [0.0, -0.0, 0.5, -0.5]])
    return np.zeros(len(u)), np.column_stack([u, rng.uniform(-1.0, 1.0, len(u))])


@pytest.mark.parametrize("coef", [1.0, -2.0, 1.05])
def test_cubic_forcing_is_odd_bit_for_bit(coef):
    f = cubic_perturbation(coef).f
    t, v = _cube_samples()
    assert (v[:, 0] < 0.0).sum() > 4000 and (v[:, 0] > 0.0).sum() > 4000
    assert f(t, -v)[:, -1].tobytes() == (-f(t, v)[:, -1]).tobytes()
    assert not f(t, v)[:, :-1].any()


@pytest.mark.parametrize("coef", [1.0, -2.0, 0.5])
def test_cubic_forcing_is_within_one_ulp_of_the_power(coef):
    # power-of-two coefficients keep the product exact, so this compares the cubes
    t, v = _cube_samples()
    u = v[:, 0]
    np.testing.assert_array_max_ulp(cubic_perturbation(coef).f(t, v)[:, -1], coef * u ** 3,
                                    maxulp=1)


def _bundled_problem(name):
    """(system, mu, nu, params, pert, cfg) of a bundled config."""
    path = str(resources.files("stablemanifold") / "configs" / f"{name}.json")
    resolved = resolve_config(load_run_input(path)[0], label_default=name)
    mu, nu = build_rates(resolved)
    system = build_system(resolved, mu, nu)
    pert = build_perturbation(resolved["perturbation"], system.n)
    return system, mu, nu, build_params(resolved), pert, build_solver_config(resolved)


@pytest.mark.parametrize("name", ["exponential", "loglog_example"])
def test_bundled_graph_is_exactly_odd(name):
    graph, _ = solve_manifold(*_bundled_problem(name))
    # linspace lattices are not exactly symmetric: compare the pairs that are
    index = {(p + 0.0).tobytes(): j for j, p in enumerate(graph.targets_unit)}
    pairs = [(j, index[key]) for j, p in enumerate(graph.targets_unit)
             if (key := (-p + 0.0).tobytes()) in index and index[key] > j]
    assert len(pairs) >= 2
    lo, hi = np.array(pairs).T
    assert np.array_equal(graph.values[:, hi], -graph.values[:, lo])


@pytest.mark.parametrize("name", ["oracle_cubic", "log_example"])
def test_solve_records_each_slice_cut_and_grid_length(name):
    problem = _bundled_problem(name)
    graph, _ = solve_manifold(*problem)
    tables = manifold._slice_tables(graph, *problem)
    assert graph.meta["slices"] == {"t_cut": [float(table.t[-1]) for table in tables],
                                    "grid_points": [len(table.t) for table in tables]}
    assert len(tables) == graph.n_slices
