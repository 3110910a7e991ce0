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
    # the last two have a top singular direction orthogonal to (1, ..., 1)
    matrices = [rng.standard_normal((n, n)) for n in (2, 3, 5, 8)] + [
        np.array([[1.0, -1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.1]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, -1.0, 0.0]])]
    for M in matrices:
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


def _close(a, b, rel=1e-12):
    """Max-norm relative distance of a from b within ``rel``."""
    return np.shape(a) == np.shape(b) and np.abs(a - b).max() <= rel * np.abs(b).max()


def test_rk4_propagate_calls_A_once_on_the_stage_times():
    # uneven steps; every state is within 1e-12 of rk4_step with A evaluated at the
    # stage time (the prefix products compose the step matrices in another order)
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
        assert _close(out[j + 1], y)
        assert _close(right[j + 1], z)


# B = diag(rotation-contraction block, growth): exp(g B) has a closed form, and
# A(t) = (1 + cos t) B commutes with itself at all times, so T(t, t0) = exp(g B)
# with g = (t + sin t) - (t0 + sin t0)
_B = np.array([[-0.1, -1.0, 0.0], [1.0, -0.1, 0.0], [0.0, 0.0, 0.2]])


def _exp_b(g):
    """exp(g B) for every g of a 1-D array: shape (len(g), 3, 3)."""
    out = np.zeros(g.shape + (3, 3))
    out[:, 0, 0] = out[:, 1, 1] = np.exp(-0.1 * g) * np.cos(g)
    out[:, 1, 0] = np.exp(-0.1 * g) * np.sin(g)
    out[:, 0, 1] = -out[:, 1, 0]
    out[:, 2, 2] = np.exp(0.2 * g)
    return out


def _time_dependent_b(t):
    return (1.0 + np.cos(t))[:, None, None] * _B


def _sequential(A, t, dt, y0, right=False):
    """Reference: one rk4_step per step, A evaluated at each scalar stage time."""
    def deriv(r, m):
        a = np.asarray(A(np.array([r])), dtype=float).reshape(-1, 3, 3)[0]
        return m @ a if right else a @ m

    out = [np.asarray(y0, dtype=float)]
    for j in range(len(t)):
        out.append(rk4_step(deriv, t[j], out[-1], dt[j]))
    return np.stack(out)


def _sheared_b(t):
    """B plus a t-proportional shear that does not commute with B: order matters."""
    return _B + t[:, None, None] * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]])


@pytest.mark.parametrize("steps", [0, 1, 2, 3])
@pytest.mark.parametrize("right", [False, True])
def test_rk4_propagate_few_steps(steps, right):
    dt = np.array([0.3, -0.2, 0.45])[:steps]
    t = 0.7 + np.concatenate([[0.0], np.cumsum(dt)[:-1]])[:steps]
    y0 = np.array([[1.0, -0.5, 0.25], [0.0, 2.0, 1.0]])
    y0 = y0 if right else y0.T
    calls = []

    def counting(r):
        calls.append(r)
        return _sheared_b(r)

    out = rk4_propagate(counting, t, dt, y0, right=right)
    assert len(calls) == 1 and calls[0].shape == (3 * steps,)
    assert out.shape == (steps + 1,) + y0.shape
    assert out[0].tobytes() == y0.tobytes()
    assert _close(out, _sequential(_sheared_b, t, dt, y0, right))


@pytest.mark.parametrize("right", [False, True])
@pytest.mark.parametrize("coefficient", ["time-dependent", "constant"])
def test_rk4_propagate_long_uneven_partly_backward_grid(right, coefficient):
    # 2999 steps, not a power of two, of random sizes in [-0.004, 0.01)
    rng = np.random.default_rng(17)
    dt = rng.uniform(-0.004, 0.01, 2999)
    assert np.any(dt < 0.0)
    t = 0.5 + np.concatenate([[0.0], np.cumsum(dt)[:-1]])
    grid = np.append(t, t[-1] + dt[-1])
    if coefficient == "constant":
        A, g = (lambda r: _B), grid - grid[0]
    else:
        A, g = _time_dependent_b, (grid + np.sin(grid)) - (grid[0] + np.sin(grid[0]))
    y0 = np.array([0.3, -1.2, 0.8])
    out = rk4_propagate(A, t, dt, y0, right=right)
    assert out.shape == (3000, 3) and out[0].tobytes() == y0.tobytes()
    assert _close(out, _sequential(A, t, dt, y0, right))
    expm = _exp_b(g)
    # RK4 at steps below 0.01 on coefficients of size 2: a global error near 1e-10
    assert _close(out, y0 @ expm if right else expm @ y0, rel=1e-9)
    assert _close(rk4_propagate(A, t, dt, np.eye(3), right=right), expm, rel=1e-9)
