import numpy as np
import pytest

from stablemanifold.linalg import rk4_propagate, rk4_step, spectral_norm


def test_spectral_norm_1x1():
    assert spectral_norm(np.array([[-3.0]])) == 3.0


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-14)


def test_spectral_norm_rotation_is_one():
    th = 0.7
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert spectral_norm(R) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_nilpotent():
    assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5, 8):
        M = rng.standard_normal((n, n))
        assert spectral_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-8)


def _propagate(A, t0, y0, t1, h):
    """State at t1 of y' = A(t) y from y0 at t0, by equal steps of size at most h."""
    n_steps = max(1, int(np.ceil(abs(t1 - t0) / h)))
    dt = np.full(n_steps, (t1 - t0) / n_steps)
    return rk4_propagate(A, np.add.accumulate(np.concatenate([[t0], dt[1:]])), dt, y0)[-1]


def _constant(m):
    return lambda t: np.asarray(m, dtype=float)


def test_rk4_scalar_decay():
    y = _propagate(_constant([[-1.0]]), 0.0, np.array([1.0]), 1.0, 0.01)
    assert y[0] == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_rk4_backward_integration():
    y = _propagate(_constant([[1.0]]), 1.0, np.array([1.0]), 0.0, 0.01)
    assert y[0] == pytest.approx(np.exp(-1.0), rel=1e-9)


def test_rk4_lands_exactly_on_t1():
    # 0.3 does not divide 1.0; the last partial step must land on t1
    y = _propagate(_constant([[-1.0]]), 0.0, np.array([1.0]), 1.0, 0.3)
    assert y[0] == pytest.approx(np.exp(-1.0), rel=1e-4)


def test_rk4_fourth_order():
    errs = []
    for h in (0.1, 0.05):
        y = _propagate(_constant([[-1.0]]), 0.0, np.array([1.0]), 1.0, h)
        errs.append(abs(y[0] - np.exp(-1.0)))
    assert errs[1] < errs[0] / 12.0


def test_rk4_matrix_state():
    # M' = A M with A the rotation generator; M(t) is the rotation matrix
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    M = _propagate(_constant(A), 0.0, np.eye(2), np.pi / 3.0, 1e-3)
    c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
    assert np.allclose(M, [[c, -s], [s, c]], atol=1e-10)


def test_rk4_time_dependent_coefficient():
    y = _propagate(lambda t: 2.0 * t[:, None, None], 0.0, np.array([1.0]), 1.0, 0.005)
    assert y[0] == pytest.approx(np.e, rel=1e-10)


def test_rk4_propagate_calls_A_once_on_the_stage_times():
    # uneven steps; every state equals rk4_step with A evaluated at the stage time
    def rotation(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.stack([np.zeros_like(t), -1.0 - t], -1),
                         np.stack([1.0 + t, -0.1 * t], -1)], -2)

    calls = []

    def counting(t):
        calls.append(t)
        return rotation(t)

    t = np.array([0.0, 0.1, 0.35, 0.4])
    dt = np.array([0.1, 0.25, 0.05, -0.2])
    y0 = np.array([[1.0, 0.5], [0.0, 2.0]])
    out = rk4_propagate(counting, t, dt, y0)
    assert len(calls) == 1 and calls[0].shape == (12,)
    right = rk4_propagate(rotation, t, dt, y0, right=True)
    assert out.shape == right.shape == (5, 2, 2)
    assert out[0].tobytes() == right[0].tobytes() == y0.tobytes()
    y = z = y0
    for j in range(len(t)):
        y = rk4_step(lambda r, m: rotation(r) @ m, t[j], y, dt[j])
        z = rk4_step(lambda r, m: m @ rotation(r), t[j], z, dt[j])
        assert out[j + 1].tobytes() == y.tobytes()
        assert right[j + 1].tobytes() == z.tobytes()
