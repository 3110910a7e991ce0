import numpy as np
import pytest

from stablemanifold import dichotomy
from stablemanifold.dichotomy import (DichotomyParams, LinearSystem, closed_form_diagonal,
                                      matrix_system, pair_grid, rate_power_system,
                                      sharp_oscillating_system, sharpness_probe,
                                      verify_dichotomy)
from stablemanifold.config import build_system
from stablemanifold.expr import compile_expression
from stablemanifold.linalg import rk4_step, spectral_norm
from stablemanifold.rates import builtin_rate

EXP = builtin_rate("exponential")
POLY = builtin_rate("polynomial")


def _stable_projection(n, n_stable):
    """The coordinate projection onto the first ``n_stable`` coordinates."""
    p = np.zeros((n, n))
    p[:n_stable, :n_stable] = np.eye(n_stable)
    return p


def _recorded_scans(monkeypatch):
    """Each ``rk4_propagate`` call of ``verify_dichotomy``, in order, as
    (step start times, step sizes, right, final state)."""
    calls = []
    propagate = dichotomy.rk4_propagate

    def recording(A, t, dt, y0, right=False):
        out = propagate(A, t, dt, y0, right=right)
        calls.append((t, dt, right, out[-1]))
        return out

    monkeypatch.setattr(dichotomy, "rk4_propagate", recording)
    return calls


def test_params_validation():
    DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    with pytest.raises(ValueError, match="D must be >= 1"):
        DichotomyParams(D=0.5, a=-1.0, b=1.0, eps=0.0)
    with pytest.raises(ValueError, match="a must be negative"):
        DichotomyParams(D=1.0, a=0.0, b=1.0, eps=0.0)
    with pytest.raises(ValueError, match="b must be >= 0"):
        DichotomyParams(D=1.0, a=-1.0, b=-1.0, eps=0.0)
    with pytest.raises(ValueError, match="eps must be >= 0"):
        DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=-0.1)


@pytest.mark.parametrize("n_stable", [0, 2, -1])
def test_linear_system_needs_both_blocks(n_stable):
    # rejected where the system is built, not deep inside a later solve
    with pytest.raises(ValueError, match="n_stable"):
        matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, n_stable)
    base = rate_power_system(POLY, a=-2.0, b=0.5)
    with pytest.raises(ValueError, match="n_stable"):
        LinearSystem(2, n_stable, U=base.U, V=base.V)


def test_rate_power_scalar_factors():
    sys_ = rate_power_system(EXP, a=-1.0, b=1.0)
    assert float(sys_.U(2.0, 1.0)) == pytest.approx(np.exp(-1.0), rel=1e-14)
    assert float(sys_.V(2.0, 1.0)) == pytest.approx(np.exp(1.0), rel=1e-14)
    assert sys_.form == "closed_form"
    assert sys_.n == 2 and sys_.n_stable == 1 and sys_.n_unstable == 1


def test_transition_block_diagonal():
    sys_ = rate_power_system(POLY, a=-2.0, b=0.5)
    u = (4.0 / 2.0) ** -2.0
    v = (4.0 / 2.0) ** 0.5
    assert np.allclose(closed_form_diagonal(sys_, 3.0, 1.0), [u, v], rtol=1e-14)


@pytest.mark.parametrize("system", [rate_power_system(EXP, a=-1.0, b=1.0),
                                    matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)],
                         ids=["closed_form", "matrix"])
def test_verify_dichotomy_rejects_backward_pairs(system, monkeypatch):
    # rejected before any pair is propagated, the valid first pair included
    calls = _recorded_scans(monkeypatch)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    with pytest.raises(ValueError, match="t >= s"):
        verify_dichotomy(system, EXP, EXP, params, [(1.0, 0.0), (1.0, 2.0)])
    assert calls == []


def test_matrix_form_matches_closed_form(monkeypatch):
    closed = rate_power_system(EXP, a=-1.0, b=1.0)
    mat = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    pairs = [(1.0, 0.0), (2.5, 1.25), (4.0, 3.9)]
    calls = _recorded_scans(monkeypatch)
    rows = verify_dichotomy(mat, EXP, EXP, params, pairs, h=1e-3).rows
    assert np.allclose(rows, verify_dichotomy(closed, EXP, EXP, params, pairs).rows,
                       rtol=1e-10, atol=0.0)
    for (t, s), (*_, fwd), (*_, back) in zip(pairs, calls[::2], calls[1::2]):
        g = closed_form_diagonal(closed, t, s)
        assert np.allclose(fwd, np.diag(g), rtol=1e-10)
        assert np.allclose(back, np.diag(1.0 / g), rtol=1e-10)


def test_backward_scan_inverts_the_forward_scan(monkeypatch):
    mat = matrix_system(lambda t: np.array([[-1.0, 0.3], [0.0, 1.0]]), 2, 1)
    params = DichotomyParams(D=2.0, a=-1.0, b=1.0, eps=0.0)
    calls = _recorded_scans(monkeypatch)
    verify_dichotomy(mat, EXP, EXP, params, [(2.0, 0.5)], h=1e-3)
    (*_, fwd), (*_, back) = calls
    assert np.allclose(back @ fwd, np.eye(2), atol=1e-9)


def test_backward_scan_of_an_ill_conditioned_pair(monkeypatch):
    # over a long window the forward map has condition number ~e^(2(t-s)) = e^24;
    # the backward scan gives its inverse without inverting it
    mat = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    calls = _recorded_scans(monkeypatch)
    cert = verify_dichotomy(mat, EXP, EXP, params, [(12.0, 0.0)], h=1e-2)
    assert np.allclose(calls[1][3], np.diag([np.exp(12.0), np.exp(-12.0)]), rtol=1e-6)
    assert cert.max_unstable_ratio == pytest.approx(1.0, rel=1e-6)


def _three_state_closed_form():
    base = rate_power_system(POLY, a=-2.0, b=0.5)
    return LinearSystem(3, 2, U=base.U, V=base.V, label="diag3")


@pytest.mark.parametrize("system", [
    rate_power_system(POLY, a=-2.0, b=0.5),
    rate_power_system(builtin_rate("loglog_poly", lam=1.5), a=-1.0, b=1.0),
    sharp_oscillating_system(EXP, POLY, a=-1.0, b=1.0, eps=0.2),
    _three_state_closed_form(),
], ids=["polynomial", "loglog", "sharp", "three_state"])
def test_closed_form_diagonal_batch_equals_scalar_calls(system):
    pairs = pair_grid(30.0, 17)
    t = np.array([t for t, _ in pairs])
    s = np.array([s for _, s in pairs])
    batch = closed_form_diagonal(system, t, s)
    assert batch.shape == (len(pairs), system.n)
    for row, (tt, ss) in zip(batch, pairs):
        u, v = float(system.U(tt, ss)), float(system.V(tt, ss))
        expected = np.array([u] * system.n_stable + [v] * system.n_unstable)
        assert row.tobytes() == expected.tobytes()
        assert closed_form_diagonal(system, tt, ss).tobytes() == expected.tobytes()


def test_verify_dichotomy_closed_form_exact():
    sys_ = rate_power_system(EXP, a=-1.0, b=1.0)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    cert = verify_dichotomy(sys_, EXP, EXP, params, pair_grid(10.0, 40), tol=1e-9)
    assert cert.passed
    assert cert.max_stable_ratio == pytest.approx(1.0, abs=1e-12)
    assert cert.max_unstable_ratio == pytest.approx(1.0, abs=1e-12)
    assert cert.max_commutation_residual == 0.0


def test_verify_dichotomy_matrix_route():
    mat = matrix_system(lambda t: np.diag([-1.0, 1.0]), 2, 1)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    cert = verify_dichotomy(mat, EXP, EXP, params, pair_grid(5.0, 20), tol=1e-7, h=1e-3)
    assert cert.passed
    assert cert.max_commutation_residual <= 1e-7


def test_verify_dichotomy_propagates_each_matrix_pair_once(monkeypatch):
    # one grid of ceil((t - s) / h) equal steps per pair, scanned twice: forward for
    # T(t, s), then right-multiplied for T(s, t); the ill-conditioned (12, 0) included
    mat = matrix_system(lambda t: np.array([[-1.0, 0.3], [0.0, 1.0]]), 2, 1)
    params = DichotomyParams(D=2.0, a=-1.0, b=1.0, eps=0.0)
    pairs = pair_grid(3.0, 6) + [(12.0, 0.0)]
    h = 1e-2
    calls = _recorded_scans(monkeypatch)
    cert = verify_dichotomy(mat, EXP, EXP, params, pairs, h=h)
    assert [right for _, _, right, _ in calls] == [False, True] * len(pairs)
    p = _stable_projection(2, 1)
    for (t, s), row, fwd_call, back_call in zip(pairs, cert.rows, calls[::2], calls[1::2]):
        grid, dt, _, fwd = fwd_call
        assert grid.tobytes() == back_call[0].tobytes() and dt.tobytes() == back_call[1].tobytes()
        assert len(dt) == max(1, int(np.ceil((t - s) / h)))
        assert grid[0] == s and grid[-1] + dt[-1] == pytest.approx(t, abs=1e-12)
        unstable = spectral_norm(back_call[3] @ (np.eye(2) - p)) / (
            params.D * np.exp(-params.b * (t - s)))
        stable = spectral_norm(fwd @ p) / (params.D * np.exp(params.a * (t - s)))
        assert row[2:4] == (stable, unstable)


TIME_DEPENDENT = [["-1 - 0.5*exp(-t)", "0.3*exp(-t)", "0"],
                  ["-0.3", "-1", "t/(1 + t)"],
                  ["0", "0", "1 + 1/(1 + t)"]]


def _per_stage_propagate(deriv, t0, y0, t1, h):
    """Reference propagation: y' = deriv(t, y) by equal steps, one call per RK4 stage."""
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


def _close(a, b, rel=1e-12):
    """Max-norm relative distance of a from b within ``rel``."""
    return np.shape(a) == np.shape(b) and np.abs(a - b).max() <= rel * np.abs(b).max()


def test_matrix_transitions_match_per_stage_reference(monkeypatch):
    # config-built A(t) against A evaluated entry by entry at every scalar stage time,
    # within 1e-12 (the propagator composes its step matrices in another order), for
    # Y' = A Y and Y' = -Y A; (12, 0) is ill conditioned
    system = build_system({"system": {"kind": "matrix", "coeff": TIME_DEPENDENT, "n_stable": 2},
                           "dichotomy": {}}, EXP, EXP)
    entries = [[compile_expression(e, variables=("t",)) for e in row] for row in TIME_DEPENDENT]

    def coeff(r):
        return np.array([[float(fn(t=r)) for fn in row] for row in entries])

    params = DichotomyParams(D=3.0, a=-0.5, b=0.5, eps=0.0)
    pairs = pair_grid(4.0, 6) + [(12.0, 0.0)]
    h = 0.01
    calls = _recorded_scans(monkeypatch)
    cert = verify_dichotomy(system, EXP, EXP, params, pairs, h=h)
    eye = np.eye(3)
    p = _stable_projection(3, 2)
    for (t, s), row, (*_, fwd), (*_, back) in zip(pairs, cert.rows, calls[::2], calls[1::2]):
        assert _close(fwd, _per_stage_propagate(lambda r, m: coeff(r) @ m, s, eye, t, h))
        assert _close(back, _per_stage_propagate(lambda r, m: -m @ coeff(r), s, eye, t, h))
        log_ratio = EXP.log_eval(t) - EXP.log_eval(s)
        stable = spectral_norm(fwd @ p) / (params.D * np.exp(params.a * log_ratio))
        unstable = spectral_norm(back @ (eye - p)) / (params.D * np.exp(-params.b * log_ratio))
        assert row == (t, s, stable, unstable, spectral_norm(p @ fwd - fwd @ p))


def test_verify_dichotomy_coupled_stable_block():
    # the stable block [[-1, -0.5], [-0.5, -1]] decays like e^(-0.5 t): its
    # top singular direction (1, -1, 0) is orthogonal to (1, 1, 1)
    mat = matrix_system(lambda t: np.array([[-1.0, -0.5, 0.0], [-0.5, -1.0, 0.0],
                                            [0.0, 0.0, 1.0]]), 3, 2)
    pairs = pair_grid(10.0, 5)
    false = verify_dichotomy(mat, EXP, EXP, DichotomyParams(D=1.0, a=-1.5, b=1.0, eps=0.0),
                             pairs, tol=1e-7, h=1e-2)
    assert not false.passed
    assert false.max_stable_ratio == pytest.approx(np.exp(3.0), rel=1e-6)  # t - s = 3
    true = verify_dichotomy(mat, EXP, EXP, DichotomyParams(D=1.0, a=-0.5, b=1.0, eps=0.0),
                            pairs, tol=1e-7, h=1e-2)
    assert true.passed


def test_verify_dichotomy_fails_cleanly_on_a_non_finite_transition():
    # the unstable factor e^((t^5 - s^5) / 5) overflows on the pairs (6, 3) and (8, 6);
    # the stable ratio reads nan there and the certificate fails
    mat = matrix_system(lambda t: np.diag([-1.0, 0.0])
                        + np.multiply.outer(t ** 4, np.diag([0.0, 1.0])), 2, 1)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cert = verify_dichotomy(mat, EXP, EXP, params, pair_grid(10.0, 5), h=1e-2)
    assert not cert.passed
    assert np.isnan(cert.max_stable_ratio)


def test_verify_dichotomy_rejects_empty_pairs():
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.0)
    with pytest.raises(ValueError, match="pairs must not be empty"):
        verify_dichotomy(rate_power_system(EXP, a=-1.0, b=1.0), EXP, EXP, params, [])


def test_verify_dichotomy_rejects_overclaimed_rate():
    # the system contracts like e^-(t-s); claiming a = -2 must fail
    sys_ = rate_power_system(EXP, a=-1.0, b=1.0)
    params = DichotomyParams(D=1.0, a=-2.0, b=1.0, eps=0.0)
    cert = verify_dichotomy(sys_, EXP, EXP, params, pair_grid(10.0, 40), tol=1e-9)
    assert not cert.passed
    assert cert.max_stable_ratio > 1.0 + 1e-9


def test_verify_dichotomy_with_nonuniform_slack():
    # eps > 0 only loosens the claimed bounds for this uniform system
    sys_ = rate_power_system(POLY, a=-1.0, b=1.0)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.1)
    cert = verify_dichotomy(sys_, POLY, POLY, params, pair_grid(10.0, 30), tol=1e-9)
    assert cert.passed
    assert cert.max_stable_ratio <= 1.0


def test_sharp_system_passes_its_own_bounds():
    sys_ = sharp_oscillating_system(EXP, EXP, a=-1.0, b=1.0, eps=0.2)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.2)
    cert = verify_dichotomy(sys_, EXP, EXP, params, pair_grid(30.0, 60), tol=1e-9)
    assert cert.passed


def test_sharp_system_attains_stable_bound():
    sys_ = sharp_oscillating_system(EXP, EXP, a=-1.0, b=1.0, eps=0.2)
    rows = sharpness_probe(sys_, range(1, 6))
    assert len(rows) == 5
    for row in rows:
        assert row["residual"] <= 1e-12
        assert row["t"] == pytest.approx(2.0 * np.pi * row["k"])
        assert row["s"] == pytest.approx((2.0 * row["k"] - 1.0) * np.pi)


def test_sharp_bound_not_attained_off_phase():
    # away from the probe phases the oscillating factor sits strictly below
    sys_ = sharp_oscillating_system(EXP, EXP, a=-1.0, b=1.0, eps=0.2)
    t, s = 2.0 * np.pi + 1.0, np.pi
    observed = float(sys_.U(t, s))
    bound = float(np.exp(-(t - s) + 0.2 * s))
    assert observed < bound * 0.999


def test_sharpness_probe_requires_sharp_system():
    sys_ = rate_power_system(EXP, a=-1.0, b=1.0)
    with pytest.raises(ValueError, match="sharp_oscillating"):
        sharpness_probe(sys_, [1])


def test_sharpness_probe_rejects_bad_index():
    sys_ = sharp_oscillating_system(EXP, EXP, a=-1.0, b=1.0, eps=0.2)
    with pytest.raises(ValueError, match="positive"):
        sharpness_probe(sys_, [0])


def test_pair_grid_deterministic_and_ordered():
    pairs = pair_grid(10.0, 25)
    assert len(pairs) == 25
    assert pairs == pair_grid(10.0, 25)
    for t, s in pairs:
        assert 0.0 <= s <= t <= 10.0


def test_sharp_matrix_route_cross_check(monkeypatch):
    # the sharp system's coefficient matrix must reproduce its closed form
    sys_ = sharp_oscillating_system(EXP, EXP, a=-1.0, b=1.0, eps=0.2)
    assert sys_.A is not None
    mat = matrix_system(sys_.A, 2, 1)
    params = DichotomyParams(D=1.0, a=-1.0, b=1.0, eps=0.2)
    pairs = [(1.0, 0.0), (4.0, 2.0)]
    calls = _recorded_scans(monkeypatch)
    rows = verify_dichotomy(mat, EXP, EXP, params, pairs, h=1e-3).rows
    assert np.allclose(rows, verify_dichotomy(sys_, EXP, EXP, params, pairs).rows,
                       rtol=1e-9, atol=1e-12)
    for (t, s), (*_, fwd), (*_, back) in zip(pairs, calls[::2], calls[1::2]):
        g = closed_form_diagonal(sys_, t, s)
        assert np.allclose(fwd, np.diag(g), rtol=1e-9, atol=1e-12)
        assert np.allclose(back, np.diag(1.0 / g), rtol=1e-9, atol=1e-12)
