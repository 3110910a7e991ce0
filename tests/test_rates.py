import math
import os
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from stablemanifold import rates
from stablemanifold.cli import main
from stablemanifold.rates import (BUILTIN_FAMILIES, GrowthRate, builtin_rate,
                                  check_growth_axioms, expression_rate)

ALL_BUILTINS = [
    builtin_rate("exponential"),
    builtin_rate("polynomial"),
    builtin_rate("log_poly", lam=4.0),
    builtin_rate("log_poly", nu_companion=True),
    builtin_rate("loglog_poly", lam=2.0),
    builtin_rate("loglog_poly", nu_companion=True),
]


def test_log_poly_point_value():
    # at t = e - 1 the inner log is 1, so the value is e * 2^lam
    r = builtin_rate("log_poly", lam=4.0)
    assert r(math.e - 1.0) == pytest.approx(math.e * 16.0, rel=1e-14)


@pytest.mark.parametrize("rate,slope", [
    (builtin_rate("log_poly", lam=4.0), 5.0),
    (builtin_rate("log_poly", nu_companion=True), 1.0),
    (builtin_rate("loglog_poly", lam=2.0), 4.0),
    (builtin_rate("loglog_poly", nu_companion=True), 1.0),
])
def test_log_families_log_eval_is_accurate_near_zero(rate, slope):
    # log mu(t) = slope * t + O(t^2); forming 1 + log1p(t) before the log rounds t away
    for t in (1e-12, 1e-9):
        assert float(rate.log_eval(t)) == pytest.approx(slope * t, rel=10.0 * slope * t, abs=0.0)


def test_loglog_poly_point_value():
    # t chosen so 1 + log(1+t) = e, hence the outer loglog factor is 2^lam
    r = builtin_rate("loglog_poly", lam=2.0)
    t = math.exp(math.e - 1.0) - 1.0
    assert r(t) == pytest.approx(math.exp(math.e - 1.0) * math.e * 4.0, rel=1e-14)


def test_companion_values():
    log_plain = builtin_rate("log_poly", nu_companion=True)
    loglog_plain = builtin_rate("loglog_poly", nu_companion=True)
    assert log_plain(math.e - 1.0) == pytest.approx(2.0, rel=1e-14)
    assert loglog_plain(math.exp(math.e - 1.0) - 1.0) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("rate", ALL_BUILTINS, ids=lambda r: r.label)
def test_unit_value_at_zero(rate):
    assert float(rate(0.0)) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("rate", ALL_BUILTINS, ids=lambda r: r.label)
def test_log_eval_consistency(rate):
    for t in (0.0, 0.5, 3.0, 20.0):
        assert float(rate.log_eval(t)) == pytest.approx(math.log(float(rate(t))),
                                                        abs=1e-12)


def test_log_eval_survives_overflow():
    r = builtin_rate("exponential")
    with np.errstate(over="ignore"):
        assert math.isinf(float(r(1000.0)))
    assert float(r.log_eval(1000.0)) == 1000.0


@pytest.mark.parametrize("rate", ALL_BUILTINS, ids=lambda r: r.label)
def test_derivative_matches_finite_difference(rate):
    assert rate.has_derivative
    h = 1e-6
    for t in (0.1, 1.0, 7.0):
        fd = (float(rate(t + h)) - float(rate(t - h))) / (2.0 * h)
        assert float(rate.deriv(t)) == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("rate", ALL_BUILTINS, ids=lambda r: r.label)
def test_builtin_axioms_pass(rate):
    rep = check_growth_axioms(rate, np.linspace(0.0, 50.0, 201))
    assert rep.passed, rep


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown rate family"):
        builtin_rate("quadratic")


@pytest.mark.parametrize("family", ["log_poly", "loglog_poly"])
def test_log_families_require_positive_lam(family):
    with pytest.raises(ValueError, match="lam > 0"):
        builtin_rate(family)
    with pytest.raises(ValueError, match="lam > 0"):
        builtin_rate(family, lam=-1.0)


def test_expression_rate_compiles_and_evaluates():
    r = expression_rate("1 + t")
    assert float(r(3.0)) == 4.0
    assert not r.has_derivative
    rep = check_growth_axioms(r, np.linspace(0.0, 50.0, 101))
    assert rep.passed


def test_axioms_flag_non_monotone_rate():
    r = expression_rate("1 + t - t*t")
    rep = check_growth_axioms(r, np.linspace(0.0, 10.0, 101))
    assert not rep.passed
    assert not rep.monotone_on_grid
    assert rep.worst_pair is not None
    assert rep.worst_violation > 0.0


def test_axioms_flag_bounded_rate():
    r = expression_rate("2 - exp(-t)")
    rep = check_growth_axioms(r, np.linspace(0.0, 10.0, 101))
    assert rep.monotone_on_grid
    assert not rep.diverges
    assert not rep.passed


def test_axioms_flag_wrong_value_at_zero():
    r = expression_rate("2 + t")
    rep = check_growth_axioms(r, np.linspace(0.0, 10.0, 11))
    assert not rep.unit_at_zero
    assert rep.unit_error == pytest.approx(1.0)


def test_axioms_note_nan_values():
    r = expression_rate("log(t - 5)")
    with np.errstate(invalid="ignore", divide="ignore"):
        rep = check_growth_axioms(r, np.linspace(0.0, 10.0, 21))
    assert not rep.passed
    assert any("NaN" in n for n in rep.notes)


def test_axiom_grid_must_start_at_zero():
    r = builtin_rate("exponential")
    with pytest.raises(ValueError, match="start at 0"):
        check_growth_axioms(r, np.linspace(1.0, 10.0, 5))
    with pytest.raises(ValueError, match="start at 0"):
        check_growth_axioms(r, np.array([]))


def test_slow_companions_still_register_divergent():
    # doubly-logarithmic growth is unbounded even though it is ~4.4 at t = 1e12
    r = builtin_rate("loglog_poly", nu_companion=True)
    rep = check_growth_axioms(r, np.linspace(0.0, 50.0, 51))
    assert rep.diverges


def test_builtin_families_tuple():
    assert BUILTIN_FAMILIES == ("exponential", "polynomial", "log_poly", "loglog_poly")


@pytest.mark.parametrize("rate", ALL_BUILTINS, ids=lambda r: r.label)
def test_log_inverse_recovers_times_and_jacobian(rate):
    t_max = 500.0 if rate.family == "exponential" else 1e6  # e^t overflows beyond 709
    t_true = np.concatenate([[0.0], np.geomspace(0.01, t_max, 200)])
    t, weight = rate.log_inverse(rate.log_eval(t_true))
    assert t[0] == 0.0
    assert np.allclose(t, t_true, rtol=1e-12, atol=0.0)
    # dt/drho = mu/mu'
    assert np.allclose(weight, rate(t_true) / rate.deriv(t_true), rtol=1e-12, atol=0.0)


def test_log_inverse_of_exponential_is_exact_identity():
    rho = np.array([0.0, 0.3, 7.0, 1e3])
    t, weight = builtin_rate("exponential").log_inverse(rho)
    assert t.tobytes() == rho.tobytes() and t is not rho
    assert np.all(weight == 1.0)


def test_log_inverse_needs_a_derivative():
    with pytest.raises(ValueError, match="no derivative"):
        expression_rate("1 + t^2").log_inverse(np.array([0.5]))


def reference_solve_log(rate, rho):
    """The 64-round bisection over all of [0, inf] that the Newton bracket replaced."""
    lo = np.full(rho.shape, -1, dtype=np.int64)
    hi = np.full(rho.shape, np.float64(np.inf).view(np.int64))
    with np.errstate(over="ignore"):
        while np.any(hi - lo > 1):
            mid = lo + (hi - lo) // 2
            up = rate.log_eval(mid.view(np.float64)) >= rho
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
    return hi.view(np.float64)


def counting(rate: GrowthRate, sizes: list) -> GrowthRate:
    """``rate`` whose log_eval appends the size of each argument to ``sizes``."""
    def log_fn(t):
        sizes.append(np.size(t))
        return rate.log_fn(t)

    return replace(rate, log_fn=log_fn)


LOG_RATES = [
    builtin_rate("log_poly", lam=4.0),
    builtin_rate("log_poly", lam=0.5),
    builtin_rate("loglog_poly", lam=2.0),
    builtin_rate("loglog_poly", lam=7.0),
    builtin_rate("log_poly", nu_companion=True),
    builtin_rate("loglog_poly", nu_companion=True),
]
# rho = 0, two subnormals, a tiny normal, t overflowing to inf, inf, NaN; then dense grids
EDGE_RHO = np.array([0.0, 5e-324, 1e-310, 1e-300, 800.0, 2e3, np.inf, np.nan])
DENSE_RHO = np.concatenate([EDGE_RHO, np.linspace(0.0, 30.0, 3001),
                            np.geomspace(1e-12, 700.0, 1001)])


@pytest.mark.parametrize("rate", LOG_RATES, ids=lambda r: r.label)
def test_log_inverse_equals_the_full_range_bisection(rate):
    with np.errstate(over="ignore", invalid="ignore"):  # mu/mu' at t = inf
        t, _ = rate.log_inverse(DENSE_RHO)
    assert t.tobytes() == reference_solve_log(rate, DENSE_RHO).tobytes()
    assert t[0] == 0.0 and np.isinf(t[EDGE_RHO.size - 1])


@pytest.mark.parametrize("rate", LOG_RATES, ids=lambda r: r.label)
def test_a_wrong_derivative_only_costs_rounds(rate):
    # Newton steps 100 times too short leave every bracket off its root: each row
    # falls back to the whole range and must still land on the same double
    rho = np.linspace(0.5, 6.0, 400)  # t stays finite, also for loglog_plain
    sizes = []
    wrong = counting(replace(rate, deriv=lambda t: 100.0 * rate.deriv(t)), sizes)
    assert rates._solve_log(wrong, rho).tobytes() == reference_solve_log(rate, rho).tobytes()
    # the bisection evaluates only unfinished rows: all of them ran the long way
    assert sizes.count(rho.size) > 60


def test_solve_log_keeps_the_shape_of_rho():
    rate = builtin_rate("log_poly", lam=4.0)
    rho = np.linspace(0.0, 3.0, 6).reshape(2, 3)
    assert rates._solve_log(rate, rho).shape == (2, 3)
    assert rates._solve_log(rate, np.asarray(1.5)).shape == ()


def _bundled(name):
    return str(resources.files("stablemanifold") / "configs" / f"{name}.json")


@pytest.mark.parametrize("name", ["log_example", "loglog_example"])
def test_bundled_clock_grids_invert_in_few_log_evaluations(name, tmp_path, monkeypatch):
    grids = []
    solve = rates._solve_log
    monkeypatch.setattr(rates, "_solve_log",
                        lambda rate, rho: grids.append((rate, rho)) or solve(rate, rho))
    assert main(["solve-manifold", "--config", _bundled(name), "--out", str(tmp_path)]) == 0
    assert len(grids) == 6  # one clock grid per slice
    for rate, rho in grids:
        sizes = []
        t = solve(counting(rate, sizes), rho)
        assert t.tobytes() == reference_solve_log(rate, rho).tobytes()
        assert len(sizes) <= 20  # the full-range bisection takes 64 or 65


@pytest.mark.parametrize("name", ["log_example", "loglog_example"])
def test_all_artifacts_match_the_full_range_bisection(name, tmp_path, monkeypatch):
    path = _bundled(name)
    assert main(["all", "--config", path, "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(rates, "_solve_log", reference_solve_log)
    assert main(["all", "--config", path, "--out", str(tmp_path / "ref")]) == 0
    for table in ("graph.csv", "convergence.csv", "compare.csv"):
        with open(os.path.join(tmp_path, "new", table), "rb") as new, \
                open(os.path.join(tmp_path, "ref", table), "rb") as ref:
            assert new.read() == ref.read(), table
