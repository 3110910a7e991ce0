import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemanifold import manifold
from stablemanifold.config import build_system
from stablemanifold.dichotomy import (DichotomyParams, matrix_system, rate_power_system,
                                      sharp_oscillating_system)
from stablemanifold.errors import BlowupError, DecayBoundError
from stablemanifold.manifold import (InnerTrajectory, ManifoldGraph, Perturbation,
                                     SolverConfig, cubic_perturbation, eval_phi, eval_phi_many,
                                     expression_perturbation, graph_metric_distance,
                                     inner_trajectory, nonlinear_flow, nonlinear_flow_many,
                                     outer_contraction_factor, solve_manifold)
from stablemanifold.quadrature import composite_simpson, cumulative_simpson
from stablemanifold.rates import builtin_rate

EXP = builtin_rate("exponential")
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


def test_perturbation_validation():
    with pytest.raises(ValueError, match="c must be positive"):
        Perturbation(lambda t, v: v, c=0.0, q=2.0)
    with pytest.raises(ValueError, match="q must be >= 1"):
        Perturbation(lambda t, v: v, c=1.0, q=0.5)


def test_cubic_perturbation_shape():
    pert = cubic_perturbation(2.0)
    assert pert.c == 2.0 and pert.q == 2.0
    out = pert.f(0.0, np.array([0.5, 9.0]))
    assert np.allclose(out, [0.0, 0.25])
    batch = pert.batch(np.zeros(3), np.array([[0.5, 9.0], [1.0, 0.0], [-1.0, 3.0]]))
    assert np.allclose(batch, [[0.0, 0.25], [0.0, 2.0], [0.0, -2.0]])
    with pytest.raises(ValueError, match="n >= 2"):
        cubic_perturbation(1.0, n=1)


def test_expression_perturbation_matches_cubic():
    pert = expression_perturbation(["0", "u1^3"], c=1.0, q=2.0)
    ref = cubic_perturbation(1.0)
    t = np.linspace(0.0, 1.0, 5)
    v = np.column_stack([np.linspace(-0.5, 0.5, 5), np.zeros(5)])
    assert np.allclose(pert.batch(t, v), ref.batch(t, v))
    assert np.allclose(pert.f(0.3, np.array([0.2, 1.0])), ref.f(0.3, np.array([0.2, 1.0])))


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
        plus = eval_phi(graph, 0.7, xi)[0]
        minus = eval_phi(graph, 0.7, -xi)[0]
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
    assert eval_phi(graph, 5.0, 0.02)[0] == pytest.approx(exact_phi(0.02), abs=1e-8)


def test_eval_phi_clamps_to_ball(solved):
    _, _, graph, _ = solved
    rho = graph.radius_fn(0.0)
    assert eval_phi(graph, 0.0, 10.0)[0] == eval_phi(graph, 0.0, rho)[0]


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
        d_phi = abs(eval_phi(graph, 1.0, x1)[0] - eval_phi(graph, 1.0, x2)[0])
        assert d_phi <= abs(x1 - x2) * 1.0001 + 1e-15


def test_inner_trajectory_decoupled_decay(solved):
    system, pert, graph, _ = solved
    traj = inner_trajectory(graph, system, EXP, EXP, PARAMS, pert,
                            s=0.0, xi=0.02, t_max=3.0, h=0.01)
    assert isinstance(traj, InnerTrajectory)
    # the stable component never feels the forcing here, so x = xi e^-(t-s)
    expected = 0.02 * np.exp(-traj.t)
    assert np.abs(traj.x[:, 0] - expected).max() <= 1e-12
    assert traj.max_decay_ratio <= 1.05
    assert traj.sweeps <= 2


def test_inner_trajectory_rejects_outside_ball(solved):
    system, pert, graph, _ = solved
    with pytest.raises(ValueError, match="outside the slice ball"):
        inner_trajectory(graph, system, EXP, EXP, PARAMS, pert,
                         s=0.0, xi=0.1, t_max=2.0, h=0.01)
    with pytest.raises(ValueError, match="t_max"):
        inner_trajectory(graph, system, EXP, EXP, PARAMS, pert,
                         s=1.0, xi=0.01, t_max=0.5, h=0.01)


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
    with pytest.raises(ValueError, match="tau"):
        nonlinear_flow(system, pert, 0.0, np.zeros(2), tau=-1.0)
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
    with pytest.raises(ValueError, match="tau"):
        nonlinear_flow_many(system, pert, [0.0, 0.0], np.zeros((2, 2)), [1.0, -1.0])
    with pytest.raises(ValueError, match="shape"):
        nonlinear_flow_many(system, pert, [0.0], np.zeros((2, 2)), [1.0, 1.0])


def test_coefficient_matrices_broadcast_over_times():
    t = np.array([0.0, 0.25, 1.0, 3.5, 10.0])
    systems = [_config_matrix_system(),
               build_system({"system": {"kind": "matrix", "n_stable": 2,
                                        "coeff": [["-1", "0", "0"], ["0", "-1", "0"],
                                                  ["0", "0", "1"]]},
                             "dichotomy": {}}, EXP, EXP),
               rate_power_system(EXP, a=-1.0, b=1.0),
               sharp_oscillating_system(EXP, EXP, -1.0, 1.0, 0.2)]
    for system in systems:
        batch = system.A(t)
        assert batch.shape == (len(t), system.n, system.n)
        for b, tt in enumerate(t):
            assert batch[b].tobytes() == system.A(float(tt)).tobytes()


def test_solver_rejects_oversized_delta():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.05, C=2.0, nodes_per_axis=5, h=0.05)
    with pytest.raises(ValueError, match="certified delta_max"):
        solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)


def test_solver_rejects_nonvanishing_perturbation():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    bad = Perturbation(lambda t, v: np.array([0.0, 1e-3 + v[0] ** 3]), c=1.0, q=2.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=5, h=0.05)
    with pytest.raises(ValueError, match="vanish at the origin"):
        solve_manifold(system, EXP, EXP, PARAMS, bad, cfg)


def test_solver_rejects_bad_lattice():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=4, h=0.05)
    with pytest.raises(ValueError, match="odd integer"):
        solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)


def test_matrix_route_reproduces_graph():
    # same dynamics entering through the coefficient-matrix interface
    mat = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)
    cfg = SolverConfig(s_grid=(0.0, 0.5), delta=0.02, C=2.0, nodes_per_axis=7,
                       h=0.05, tail_abs_tol=1e-9, outer_tol=1e-10)
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


def test_decay_slack_is_enforced():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=0.02, C=2.0, nodes_per_axis=5, h=0.05,
                       decay_slack=0.4)
    with pytest.raises(DecayBoundError, match="node") as info:
        solve_manifold(system, EXP, EXP, PARAMS, cubic_perturbation(1.0), cfg)
    assert info.value.s == 0.0
    assert info.value.ratio == pytest.approx(0.5, rel=1e-12)
    assert 0 <= info.value.node < 5


FEEDBACK = expression_perturbation(["u1*u2*u1 + u2^3", "u1^3 + u2*u1^2"], c=3, q=2)


@pytest.mark.parametrize("pert, delta, stale", [(cubic_perturbation(1.0), 0.02, False),
                                                (FEEDBACK, None, True)],
                         ids=["oracle", "feedback"])
def test_chunked_slices_match_single_node_chunks(monkeypatch, pert, delta, stale):
    system = rate_power_system(EXP, a=-1.0, b=1.0)
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
    assert len(sweep_counts) == 2 * len(whole_history)  # one chunk per slice
    assert np.array_equal(single.values, whole.values)
    assert single_history == whole_history
    # feedback reaches the stable block: nodes of one chunk take different
    # sweep counts, and paths moved by their last sweep recompute f
    assert any(len(counts) > 1 for counts in sweep_counts) == stale
    assert (calls["forcing"] > calls["sweeps"]) == stale


def _node_loop_value(graph, pert, table, xi, picard_tol):
    """Reference: one node at a time, Picard sweeps and then the outer integral."""
    t, h, u = table.t, table.h, table.u[:, None]
    n_e = graph.n_stable

    def forcing(x):
        return pert.batch(t, np.concatenate([x, eval_phi_many(graph, t, x)], axis=1))

    x = u * xi[None, :]
    for _ in range(80):
        x_new = u * (xi[None, :] + cumulative_simpson(forcing(x)[:, :n_e] / u, h))
        distance = np.max(np.abs(x_new - x))
        x = x_new
        if distance <= picard_tol:
            break
    return -composite_simpson(table.v_inv[:, None] * forcing(x)[:, n_e:], h)


def test_operator_matches_node_loop_reference():
    system = rate_power_system(EXP, a=-1.0, b=1.0)
    cfg = SolverConfig(s_grid=(0.0, 1.0), delta=None, C=2.0, nodes_per_axis=41, h=0.01)
    graph, _ = solve_manifold(system, EXP, EXP, PARAMS, FEEDBACK, cfg)
    tables = manifold._slice_tables(graph, system, EXP, EXP, PARAMS, FEEDBACK, cfg)
    new = manifold.apply_phi_operator(graph, system, EXP, EXP, PARAMS, FEEDBACK, cfg, tables)
    for k, table in enumerate(tables):
        for j, xi in enumerate(graph.node_points(k)):
            ref = _node_loop_value(graph, FEEDBACK, table, xi, cfg.picard_tol)
            assert np.array_equal(new.values[k, j], ref)


def _random_graph(d: int, seed: int) -> ManifoldGraph:
    m = 5
    lattice, in_ball, targets = manifold._build_lattice(d, m)
    s_grid = np.array([0.0, 0.7, 1.5])
    radii = np.array([0.03, 0.025, 0.02])

    def radius(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, s_grid, radii) * np.exp(-np.maximum(t - s_grid[-1], 0.0))

    values = np.random.default_rng(seed).uniform(-1e-3, 1e-3, size=(3, len(lattice), 1))
    return ManifoldGraph(s_grid, radii, lattice, in_ball, targets, values, n_stable=d,
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
    rows = np.stack([eval_phi(graph, t[i], xi[i]) for i in range(n)])
    assert np.array_equal(batch, rows)
