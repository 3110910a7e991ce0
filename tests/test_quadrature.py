import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablemanifold.errors import ConvergenceError
from stablemanifold.quadrature import (adaptive_simpson, adaptive_simpson_many,
                                       composite_simpson, cumulative_simpson)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    """The depth-first recursion that adaptive_simpson_many must reproduce bit for bit."""
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or not np.isfinite(delta) or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _adapt(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adapt(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)


def _recursive_simpson(f, a, b, tol, max_depth=52):
    if b == a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(f, a, b, fa, fm, fb, whole, tol, max_depth)


# integrands on arrays; the scalar oracle evaluates them on one-element arrays,
# so both sides see the same float for the same point
INTEGRANDS = {
    "exp_decay": lambda x: np.exp(-x),
    "oscillating": lambda x: np.sin(7.0 * x) * np.exp(-0.1 * x),
    "spike": lambda x: np.exp(-((x - 0.3) / 0.01) ** 2),
    "kink": lambda x: np.abs(x - 0.37),
    "overflow": lambda x: np.where(x < 8.5, np.exp(-x), np.exp(1000.0 * x)),  # inf from 8.5
}


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(INTEGRANDS)),
       intervals=st.lists(st.tuples(st.floats(-2.0, 9.0), st.floats(0.0, 4.0),
                                    st.integers(-12, -3)), min_size=1, max_size=12),
       max_depth=st.one_of(st.integers(0, 6), st.just(52)),
       empty=st.booleans())
@example(name="overflow", intervals=[(8.0, 1.0, -6), (6.0, 4.0, -9)], max_depth=52, empty=False)
@example(name="spike", intervals=[(0.0, 1.0, -12), (0.2, 0.2, -12)], max_depth=3, empty=True)
def test_adaptive_simpson_many_equals_recursion(name, intervals, max_depth, empty):
    f = INTEGRANDS[name]
    a = np.array([lo for lo, _, _ in intervals])
    b = np.array([lo + width for lo, width, _ in intervals])
    if empty:
        b[0] = a[0]  # b == a integrates to 0.0 without a call
    tol = np.array([10.0 ** k for _, _, k in intervals])
    with np.errstate(over="ignore", invalid="ignore"):
        got = adaptive_simpson_many(f, a, b, tol, max_depth)
        want = [_recursive_simpson(lambda x: f(np.array([x]))[0], lo, hi, t, max_depth)
                for lo, hi, t in zip(a.tolist(), b.tolist(), tol.tolist())]
    assert np.array_equal(got, want, equal_nan=True)


def test_adaptive_simpson_many_calls_the_integrand_once_per_level():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sin(x)

    a = np.linspace(0.0, 3.0, 20)
    adaptive_simpson_many(f, a, a + 1.0, 1e-10)
    batch = len(calls)
    singles = []
    for lo in a:
        calls.clear()
        adaptive_simpson(f, lo, lo + 1.0, 1e-10)
        singles.append(len(calls))
    # the root points, then one call per tree level of the deepest interval
    assert batch == max(singles)


def test_tolerance_below_round_off_raises_instead_of_growing():
    # e^64 at the right end: an absolute 1e-3 is a relative 1e-31
    with pytest.raises(ConvergenceError, match="round-off"):
        adaptive_simpson(lambda x: np.exp(x * (20.0 - x)), 0.0, 4.0, 1e-3)


def test_rel_floor_raises_each_tolerance_to_its_three_point_estimate():
    # the floor reads the 3-point estimate of each interval; an infinite one keeps tol
    a, b = np.array([0.0, 0.0, 2.0, 0.0]), np.array([1.0, 10.0, 2.0, 800.0])
    with np.errstate(over="ignore"):
        whole = (b - a) / 6.0 * (np.exp(a) + 4.0 * np.exp(0.5 * (a + b)) + np.exp(b))
        tol = np.where(np.isfinite(whole), np.maximum(1e-14, 1e-5 * whole), 1e-14)
        got = adaptive_simpson_many(np.exp, a, b, 1e-14, rel_floor=1e-5)
        assert got.tobytes() == adaptive_simpson_many(np.exp, a, b, tol).tobytes()
        assert got[1] != adaptive_simpson_many(np.exp, a, b, 1e-14)[1]
        assert abs(got[1] - np.expm1(10.0)) <= 1e-5 * np.expm1(10.0)


def test_adaptive_exact_on_cubic():
    # Simpson integrates cubics exactly, so even one panel suffices
    val = adaptive_simpson(lambda x: x ** 3, 0.0, 1.0, 1e-3)
    assert val == pytest.approx(0.25, abs=1e-14)


def test_adaptive_sin():
    val = adaptive_simpson(np.sin, 0.0, np.pi, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)


def test_adaptive_decaying_exponential():
    val = adaptive_simpson(lambda x: np.exp(-x), 0.0, 50.0, 1e-12)
    assert val == pytest.approx(1.0 - np.exp(-50.0), rel=1e-11)


def test_adaptive_meets_requested_tolerance():
    f = lambda x: np.exp(x) * np.cos(5.0 * x)
    exact = (np.exp(np.pi) * (np.cos(5 * np.pi) + 5 * np.sin(5 * np.pi)) - 1.0) / 26.0
    for tol in (1e-6, 1e-9, 1e-12):
        val = adaptive_simpson(f, 0.0, np.pi, tol)
        assert abs(val - exact) <= 10.0 * tol


def test_composite_even_panel_count_exact_on_cubics():
    xs = np.linspace(0.0, 1.0, 7)
    val = composite_simpson(xs ** 3, xs[1] - xs[0])
    assert val == pytest.approx(0.25, abs=1e-14)


def test_composite_odd_panel_count_exact_on_quadratics():
    xs = np.linspace(0.0, 2.0, 6)
    val = composite_simpson(xs ** 2, xs[1] - xs[0])
    assert val == pytest.approx(8.0 / 3.0, abs=1e-13)


def test_composite_fourth_order_convergence():
    errs = []
    for n in (32, 64):
        xs = np.linspace(0.0, np.pi, n + 1)
        errs.append(abs(composite_simpson(np.sin(xs), xs[1] - xs[0]) - 2.0))
    assert errs[1] < errs[0] / 12.0


def test_composite_leading_axis_for_matrix_samples():
    xs = np.linspace(0.0, 1.0, 9)
    y = np.stack([xs ** 2, xs ** 3], axis=1)
    val = composite_simpson(y, xs[1] - xs[0])
    assert np.allclose(val, [1.0 / 3.0, 0.25], atol=1e-14)


def test_cumulative_exact_on_quadratics_at_every_prefix():
    xs = np.linspace(0.0, 1.0, 11)
    c = cumulative_simpson(xs ** 2, xs[1] - xs[0])
    assert np.allclose(c, xs ** 3 / 3.0, atol=1e-14)


def test_cumulative_endpoint_matches_composite():
    xs = np.linspace(0.0, 3.0, 17)
    y = np.exp(-xs)
    c = cumulative_simpson(y, xs[1] - xs[0])
    assert c[0] == 0.0
    assert c[-1] == pytest.approx(composite_simpson(y, xs[1] - xs[0]), abs=1e-14)


def test_cumulative_odd_sample_count():
    xs = np.linspace(0.0, 1.0, 10)
    c = cumulative_simpson(xs ** 2, xs[1] - xs[0])
    assert c[-1] == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_cumulative_monotone_for_positive_integrand():
    xs = np.linspace(0.0, 5.0, 41)
    c = cumulative_simpson(np.exp(-xs), xs[1] - xs[0])
    assert np.all(np.diff(c) > 0.0)


def test_cumulative_vectorized_columns():
    xs = np.linspace(0.0, 1.0, 21)
    y = np.stack([np.ones_like(xs), xs], axis=1)
    c = cumulative_simpson(y, xs[1] - xs[0])
    assert np.allclose(c[:, 0], xs, atol=1e-14)
    assert np.allclose(c[:, 1], xs ** 2 / 2.0, atol=1e-14)


def test_adaptive_handles_narrow_spike():
    # spike at 0.5 of width ~1e-3; adaptive refinement must find it
    f = lambda x: np.exp(-((x - 0.5) / 1e-3) ** 2)
    val = adaptive_simpson(f, 0.0, 1.0, 1e-10)
    assert val == pytest.approx(1e-3 * np.sqrt(np.pi), rel=1e-7)


@pytest.mark.parametrize("n_samples", [1, 2, 3, 4, 9, 10, 130, 801])
def test_cumulative_simpson_batch_equals_columns(n_samples):
    # the inner solver integrates a (T, B, n) stack in one call
    rng = np.random.default_rng(n_samples)
    y = rng.standard_normal((n_samples, 5, 2)) * np.exp(rng.standard_normal((n_samples, 5, 1)))
    batch = cumulative_simpson(y, 0.01)
    for b in range(5):
        for i in range(2):
            assert np.array_equal(batch[:, b, i], cumulative_simpson(y[:, b, i], 0.01))
    # the same stack stored node-major, as the solver keeps it
    view = np.moveaxis(np.ascontiguousarray(np.moveaxis(y, 1, 0)), 1, 0)
    assert np.array_equal(cumulative_simpson(view, 0.01), batch)


@pytest.mark.parametrize("n_samples", [2, 3, 4, 9, 10, 130, 801])
@pytest.mark.parametrize("n_comp", [1, 2])
def test_composite_simpson_node_major_stack_equals_nodes(n_samples, n_comp):
    # outer integrals of a chunk: a (B, T, n) array viewed as (T, B, n)
    rng = np.random.default_rng(n_samples * n_comp)
    y = rng.standard_normal((4, n_samples, n_comp)) * np.exp(
        rng.standard_normal((4, n_samples, 1)))
    batch = composite_simpson(np.moveaxis(y, 1, 0), 0.01)
    for b in range(4):
        assert np.array_equal(batch[b], composite_simpson(y[b], 0.01))


def _cumulative_by_index(y, h):
    """Reference prefix integrals: each odd prefix written out by its index."""
    n = y.shape[0] - 1
    out = np.zeros_like(y)
    if n == 1:
        out[1] = 0.5 * h * (y[0] + y[1])
    if n < 2:
        return out
    out[2::2] = np.cumsum((h / 3.0) * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]), axis=0)
    for j in range(1, n, 2):
        out[j] = out[j - 1] + (h / 12.0) * (5.0 * y[j - 1] + 8.0 * y[j] - y[j + 1])
    if n % 2 == 1:
        out[n] = out[n - 1] + (h / 12.0) * (-y[n - 2] + 8.0 * y[n - 1] + 5.0 * y[n])
    return out


@pytest.mark.parametrize("n_samples", [0, 1, 2, 3, 4, 5, 10, 11, 600, 601])
def test_cumulative_simpson_equals_per_index_prefixes(n_samples):
    # the strided odd prefixes are bit-identical to one prefix at a time, odd and even T
    rng = np.random.default_rng(100 + n_samples)
    y = rng.standard_normal((n_samples, 4, 3)) * np.exp(rng.standard_normal((n_samples, 4, 1)))
    got = cumulative_simpson(y, 0.013)
    assert got.shape == y.shape
    assert got.tobytes() == _cumulative_by_index(y, 0.013).tobytes()
