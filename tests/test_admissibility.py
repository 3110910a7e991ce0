import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablemanifold.admissibility import (BetaFunction, _rate_integrand, analytic_tail_bound,
                                          check_limit_condition, check_monotonicity,
                                          closed_form_beta, default_capacity, delta_max,
                                          delta_max_bounds, improper_rate_integral,
                                          improper_rate_integrals)
from stablemanifold.config import uniform_grid
from stablemanifold.errors import (ConvergenceError, DivergenceError, NumericalError,
                                   TailBoundError)
from stablemanifold.rates import GrowthRate, builtin_rate, expression_rate

EXP = builtin_rate("exponential")
POLY = builtin_rate("polynomial")
LOG4 = builtin_rate("log_poly", lam=4.0)
LOG_NU = builtin_rate("log_poly", nu_companion=True)
LLOG4 = builtin_rate("loglog_poly", lam=4.0)
LLOG_NU = builtin_rate("loglog_poly", nu_companion=True)

# (mu, nu, a, eps, q, I(0) by hand antiderivative)
FAMILY_CASES = [
    (EXP, EXP, -1.0, 0.1, 2.0, 1.0 / 1.9),
    (POLY, POLY, -1.0, 0.1, 2.0, 1.0 / 0.9),
    (LOG4, LOG_NU, -0.5, 0.5, 2.0, 0.4),
    (LLOG4, LLOG_NU, -0.5, 0.5, 2.0, 0.4),
]


@pytest.mark.parametrize("mu,nu,a,eps,q,expected", FAMILY_CASES,
                         ids=["exp", "poly", "log", "loglog"])
def test_tail_integral_at_zero(mu, nu, a, eps, q, expected):
    assert BetaFunction(mu, nu, a, eps, q).integrals([0.0])[0] == pytest.approx(expected,
                                                                                rel=1e-8)


@pytest.mark.parametrize("mu,nu,a,eps,q,_", FAMILY_CASES,
                         ids=["exp", "poly", "log", "loglog"])
def test_beta_matches_closed_form(mu, nu, a, eps, q, _):
    label, formula = closed_form_beta(mu, nu, a, eps, q)
    assert label == mu.family
    grid = np.linspace(0.0, 3.0, 7)
    for s, beta in zip(grid, BetaFunction(mu, nu, a, eps, q).beta(grid)):
        assert beta == pytest.approx(float(formula(s)), rel=1e-6)


def test_beta_exponential_spot_value():
    # sqrt(|aq + eps|) at s = 0 for the exponential pair
    assert BetaFunction(EXP, EXP, -1.0, 0.1, 2.0).beta([0.0])[0] == pytest.approx(
        math.sqrt(1.9), rel=1e-8)
    assert BetaFunction(EXP, EXP, -1.0, 0.0, 2.0).beta([0.0])[0] == pytest.approx(
        math.sqrt(2.0), rel=1e-8)


@pytest.mark.parametrize("mu,nu,a,eps,q,_", FAMILY_CASES,
                         ids=["exp", "poly", "log", "loglog"])
def test_identity_residual_small(mu, nu, a, eps, q, _):
    rng = np.random.default_rng(7)
    table = BetaFunction(mu, nu, a, eps, q).table(rng.uniform(0.0, 4.0, 5))
    for resid in table["identity_residual"]:
        assert resid <= 1e-6


def test_identity_residual_without_closed_form():
    # expression rates share the quadrature value, so only round-off remains
    mu = expression_rate("exp(t)")
    nu = expression_rate("exp(t)")
    assert BetaFunction(mu, nu, -1.0, 0.1, 2.0).table([0.5])["identity_residual"][0] <= 1e-12


def test_closed_form_none_when_divergent():
    assert closed_form_beta(EXP, EXP, -1.0, 2.5, 2.0) is None  # aq + eps >= 0
    assert closed_form_beta(POLY, POLY, -0.4, 0.0, 2.0) is None  # aq + eps + 1 >= 0
    assert closed_form_beta(LOG4, LOG_NU, -0.7, 0.5, 2.0) is None  # aq != -1
    assert closed_form_beta(LOG4, LOG_NU, -0.5, 3.5, 2.0) is None  # lam - eps - 1 <= 0
    assert closed_form_beta(EXP, POLY, -1.0, 0.1, 2.0) is None  # mixed pair


def test_beta_function_cache_and_tilde():
    bf = BetaFunction(EXP, EXP, -1.0, 0.1, 2.0)
    assert bf.closed_form == "exponential"
    v1 = bf.beta([1.0])[0]
    assert bf.beta([1.0])[0] == v1
    assert bf.table([1.0])["beta_tilde"][0] == pytest.approx(v1 * math.exp(-0.1), rel=1e-14)
    assert bf.closed_form_value(1.0) == pytest.approx(v1, rel=1e-6)


def test_beta_function_no_closed_form():
    bf = BetaFunction(EXP, POLY, -1.0, 0.1, 2.0)
    assert bf.closed_form is None
    assert bf.closed_form_value(0.0) is None
    assert bf.beta([0.0])[0] > 0.0


def test_divergent_integral_family_analysis():
    with pytest.raises(DivergenceError, match="family analysis"):
        improper_rate_integral(EXP, EXP, 1.0, 0.0, 0.0)
    with pytest.raises(DivergenceError, match="family analysis"):
        improper_rate_integral(POLY, POLY, -0.5, 0.0, 0.0)
    with pytest.raises(DivergenceError, match="family analysis"):
        improper_rate_integral(LOG4, LOG_NU, -0.25, 0.0, 0.0)  # (1+r)^-1 L1^-1 tail


def test_divergent_integral_heuristic_route():
    # expression rates carry no family, so divergence must come from the
    # window-mass heuristics
    mu = expression_rate("exp(t)")
    with pytest.raises(DivergenceError):
        improper_rate_integral(mu, mu, 0.5, 0.0, 0.0)


def test_window_far_above_the_mass_before_it_reports_growth():
    # exp(t (20 - t)) peaks at e^100: the window [2, 4] holds about e^61.5 against
    # e^33 before it; its tolerance follows its own 3-point estimate, so the growth
    # rule fires instead of a round-off ConvergenceError
    mu, nu = expression_rate("exp(t*(20 - t))"), expression_rate("1 + t")
    with pytest.raises(DivergenceError, match="growing"):
        improper_rate_integral(mu, nu, 1.0, 0.0, 0.0)


def test_integrand_above_float_range_reports_divergence():
    # (1 + r)^120 is about 1e360 at r = 1000: inf there, math.exp everywhere else
    rate = expression_rate("1 + t")
    with pytest.raises(DivergenceError, match="overflows the float range"):
        improper_rate_integral(rate, rate, 120.0, 0.0, 1000.0)
    r = np.array([0.5, 1000.0, 300.0, 2.0])
    got = _rate_integrand(rate, rate, 120.0, 0.0)(r)
    logs = 120.0 * rate.log_eval(r) + 0.0 * rate.log_eval(r)
    assert got[1] == math.inf
    assert [got[i] for i in (0, 2, 3)] == [math.exp(logs[i]) for i in (0, 2, 3)]


def test_heuristic_route_matches_analytic():
    mu = expression_rate("exp(t)")
    got = improper_rate_integral(mu, mu, -2.0, 0.0, 0.0)
    assert got == pytest.approx(0.5, rel=1e-7)


def test_tail_bound_error_when_span_exhausted():
    # convergent log tail, but the allowed span is far too short to certify it
    with pytest.raises(TailBoundError, match="span"):
        improper_rate_integral(LOG4, LOG_NU, -1.0, 0.0, 0.0, max_span=10.0)


@pytest.mark.parametrize("mu, nu, p, exact, s_values", [
    (POLY, POLY, -1.5, lambda s: 2.0 / math.sqrt(1.0 + s), [1e12, 1e13]),
    (LOG4, LOG_NU, -1.0, lambda s: 1.0 / (3.0 * (1.0 + math.log1p(s)) ** 3), [3e9, 1e10]),
], ids=["polynomial", "log"])
def test_convergent_tail_from_a_huge_s_returns_its_value(mu, nu, p, exact, s_values):
    # these tails spread their mass over spans of order s, so the "not Cauchy" span
    # limit must grow with s
    got = improper_rate_integrals(mu, nu, p, 0.0, s_values)
    assert got.tolist() == pytest.approx([exact(s) for s in s_values], rel=1e-8)


@pytest.mark.parametrize("s", [2.0 ** 52 + 5, 2.0 ** 53 + 2])
def test_tail_from_s_whose_next_power_of_two_has_no_unit_window(s):
    # above 2^52 the power of two after s has no window of width 1; s is its own anchor
    got = improper_rate_integral(POLY, POLY, -1.5, 0.0, s)
    assert got == pytest.approx(2.0 / math.sqrt(1.0 + s), rel=1e-12)


@pytest.mark.parametrize("s", [2.0 ** 53, 1e17])
def test_tail_from_s_without_a_unit_window_names_s(s):
    with pytest.raises(TailBoundError, match="no window of positive width") as info:
        improper_rate_integrals(POLY, POLY, -1.5, 0.0, [s])
    assert info.value.s == s


def test_slow_power_law_tail_by_extrapolation_raises():
    # (1 + r)^-1.2 has I(s) = 5 (1 + s)^-0.2, but its doubling windows shrink by
    # 2^-0.2: extrapolation certifies rel_tol 1e-8 only past a span near 1e40
    mu, nu = expression_rate("(1+t)^2"), expression_rate("1+t")
    assert analytic_tail_bound(mu, nu, -0.6, 0.0) is None
    for s in (0.0, 10.0, 1e4):
        with pytest.raises(TailBoundError, match=r"span 1e\+30") as info:
            improper_rate_integrals(mu, nu, -0.6, 0.0, [s])
        assert info.value.s == s


def test_analytic_tail_bound_flags():
    assert analytic_tail_bound(EXP, EXP, -2.0, 0.1).exact
    assert analytic_tail_bound(POLY, POLY, -2.0, 0.1).exact
    info = analytic_tail_bound(LOG4, LOG_NU, -0.5 * 2.0, 0.5)
    assert info is not None and not info.divergent
    mixed = analytic_tail_bound(EXP, POLY, -1.0, 0.1)
    assert mixed is not None and not mixed.exact and not mixed.divergent
    assert analytic_tail_bound(expression_rate("exp(t)"), EXP, -1.0, 0.0) is None


def test_tail_bound_really_bounds():
    info = analytic_tail_bound(POLY, POLY, -2.0, 0.1)
    for T in [1.0, 5.0, 20.0]:
        exact = (1.0 + T) ** (-0.9) / 0.9
        assert info.fn(T) == pytest.approx(exact, rel=1e-12)


def test_limit_condition_pass_and_fail():
    ok = check_limit_condition(EXP, EXP, -1.0, 1.0, 0.1)
    assert ok.passed and ok.eventually_decreasing and ok.tail_drop_ok
    bad = check_limit_condition(EXP, EXP, -1.0, 1.0, 3.0)
    assert not bad.passed and not bad.inconclusive
    slow = check_limit_condition(POLY, POLY, -1.0, 1.0, 0.1, t_grid=[0.0, 0.5, 1.0])
    assert not slow.passed  # grid too short for the 1e-3 drop
    with pytest.raises(ValueError, match="two points"):
        check_limit_condition(EXP, EXP, -1.0, 1.0, 0.0, t_grid=[1.0])


def test_monotonicity_on_exponential_pair():
    grid = np.linspace(0.0, 3.0, 7)
    check = check_monotonicity(BetaFunction(EXP, EXP, -1.0, 0.1, 2.0), grid)
    assert check.beta_nonincreasing and check.ratio_nonincreasing
    assert len(check.samples) == 7
    assert check.samples[0][1] == pytest.approx(math.sqrt(1.9), rel=1e-6)


def test_monotonicity_grid_validation():
    with pytest.raises(ValueError, match="increasing"):
        check_monotonicity(BetaFunction(EXP, EXP, -1.0, 0.1, 2.0), [0.0, 1.0, 0.5])


def test_delta_max_oracle_value():
    # min over the six bounds lands on the outer-contraction estimate:
    # (4 * 2^q * 3^q * c * C^(q+1) * D)^(-1/q) = 1/sqrt(1152) for (1, 2, 2, 1)
    assert delta_max(1.0, 2.0, 2.0, 1.0) == 0.99 / math.sqrt(1152.0)


def test_delta_max_bounds_keys_and_binding():
    bounds = delta_max_bounds(1.0, 2.0, 2.0, 1.0)
    assert set(bounds) == {"ball_closure", "inner_contraction", "outer_margin",
                           "outer_contraction", "graph_lipschitz_a", "graph_lipschitz_b"}
    assert min(bounds.values()) == bounds["outer_contraction"]
    assert bounds["outer_contraction"] == pytest.approx(1.0 / math.sqrt(1152.0))


def test_delta_max_brute_force_scan():
    c, q, C, D = 1.0, 2.0, 2.0, 1.0
    dm = delta_max(c, q, C, D)
    two_q, three_q = 2.0 ** q, 3.0 ** q

    def admissible(d):
        dq = d ** q
        return (two_q * 3.0 * three_q * c * C ** (q + 1.0) * D * dq <= C - D
                and two_q * 3.0 * three_q * c * C ** q * D * dq < 1.0
                and 4.0 * two_q * three_q * c * C ** q * D * dq < 1.0
                and 4.0 * two_q * three_q * c * C ** (q + 1.0) * D * dq < 1.0
                and 2.0 * two_q * 3.0 * three_q * c * C ** q * D * dq < 1.0)

    assert admissible(dm)
    # every scanned delta below dm is admissible; the first failure sits
    # within the 1% safety margin above dm
    grid = np.arange(1e-4, 0.1, 1e-4)
    failures = grid[[not admissible(float(d)) for d in grid]]
    assert failures.size and failures.min() > dm
    assert failures.min() <= dm / 0.99 + 1e-4


def test_delta_max_respects_cap():
    # the cap is 1.0, so the degenerate c = 0 certifies exactly that
    assert delta_max(0.0, 2.0, 2.0, 1.0) == 1.0


def test_delta_max_monotone_in_capacity_above_2d():
    # with C >= 2D every bound shrinks as C grows
    values = [delta_max(1.0, 2.0, C, 1.0) for C in np.linspace(2.0, 10.0, 9)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_delta_max_validation():
    with pytest.raises(ValueError, match="q must be >= 1"):
        delta_max_bounds(1.0, 0.5, 2.0, 1.0)
    with pytest.raises(ValueError, match="capacity C"):
        delta_max_bounds(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="D must be >= 1"):
        delta_max_bounds(1.0, 2.0, 2.0, 0.5)
    with pytest.raises(ValueError, match="c must be >= 0"):
        delta_max_bounds(-1.0, 2.0, 2.0, 1.0)


def test_default_capacity():
    assert default_capacity(1.0) == 2.0
    assert default_capacity(3.0) == 6.0


def test_random_admissible_params_keep_identity_tight():
    rng = np.random.default_rng(11)
    for _ in range(8):
        a = -float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(1.0, 3.0))
        eps = float(rng.uniform(0.0, min(0.5, -a * q - 0.1)))
        s = float(rng.uniform(0.0, 2.0))
        assert BetaFunction(EXP, EXP, a, eps, q).table([s])["identity_residual"][0] <= 1e-6


BUILTIN_RATES = [EXP, POLY, LOG4, LOG_NU, LLOG4, LLOG_NU]
S_BATCH = [0.0, 0.5, 3.0, 10.0, 40.0, 3.0]


def _outcome(fn):
    try:
        return fn()
    except NumericalError as exc:
        return type(exc), str(exc)


def _assert_batch_equals_singles(mu, nu, p, eps, s_values, **kw):
    singles = [_outcome(lambda: improper_rate_integral(mu, nu, p, eps, s, **kw))
               for s in s_values]
    batch = _outcome(lambda: improper_rate_integrals(mu, nu, p, eps, s_values, **kw).tolist())
    failures = [o for o in singles if isinstance(o, tuple)]
    # bit-identical values, or the error of the first failing s
    assert batch == (failures[0] if failures else singles)


@pytest.mark.parametrize("mu", BUILTIN_RATES, ids=lambda r: r.label)
@pytest.mark.parametrize("nu", BUILTIN_RATES, ids=lambda r: r.label)
def test_batched_tail_integrals_equal_one_element_calls(mu, nu):
    _assert_batch_equals_singles(mu, nu, -2.0, 0.1, S_BATCH)


@pytest.mark.parametrize("mu,nu,a,eps,q,expected", FAMILY_CASES,
                         ids=["exp", "poly", "log", "loglog"])
def test_batched_slow_tails_equal_one_element_calls(mu, nu, a, eps, q, expected):
    # aq = -1 on the log pairs: the exact-tail shortcut after many windows
    _assert_batch_equals_singles(mu, nu, a * q, eps, S_BATCH)


def test_batched_expression_tails_equal_one_element_calls():
    # no family, so truncation comes from geometric extrapolation of window masses
    mu, nu = expression_rate("exp(t)"), expression_rate("1 + t")
    assert analytic_tail_bound(mu, nu, -2.0, 0.5) is None
    _assert_batch_equals_singles(mu, nu, -2.0, 0.5, S_BATCH)


def test_batched_tail_raises_the_first_failing_s_in_order():
    # (1+r)^8 e^-r rises until r = 7: from s <= 2 the windows grow (DivergenceError
    # at the third window); from s >= 5 they shrink too slowly for a span of 8
    # (TailBoundError at the fifth)
    hump, one = expression_rate("(1 + t)^8 * exp(-t)"), builtin_rate("polynomial")
    with pytest.raises(TailBoundError, match="span 8") as info:
        improper_rate_integrals(hump, one, 1.0, 0.0, [20.0, 0.0, 5.0], max_span=8.0)
    assert info.value.s == 20.0
    with pytest.raises(DivergenceError, match="growing"):
        improper_rate_integrals(hump, one, 1.0, 0.0, [2.0, 20.0, 0.0], max_span=8.0)
    with pytest.raises(TailBoundError) as info:
        improper_rate_integrals(hump, one, 1.0, 0.0, [10.0, 20.0], max_span=8.0)
    assert info.value.s == 10.0
    for s_values in ([20.0, 0.0, 5.0], [2.0, 20.0, 0.0], [10.0, 20.0], [5.0, 0.0]):
        _assert_batch_equals_singles(hump, one, 1.0, 0.0, s_values, max_span=8.0)


@pytest.mark.parametrize("s", [2.0 ** 53, 1.7e308, math.nan])
def test_walk_without_a_window_of_width_raises_at_once(s):
    # s + 1 == s (or s is NaN): every window would be [s, s], of mass 0, and no rule
    # would end the walk; a few sends bound the test where the guard is missing.  The
    # walk ends before its first block, with the error as its outcome and s as its lo
    from stablemanifold.admissibility import _walk
    walk = _walk(None, s, math.inf, 1.0, 1e-8, 1e30)
    blocks = []
    with pytest.raises(StopIteration) as done:
        blocks.append(next(walk))
        for _ in range(3):
            blocks.append(walk.send([0.0] * len(blocks[-1])))
    assert blocks == []
    error, lo = done.value.value
    assert isinstance(error, TailBoundError)
    assert "no window of positive width" in str(error)
    for got in (error.s, lo):
        assert got == s or math.isnan(s) and math.isnan(got)


@pytest.mark.parametrize("p,s", [(-1.46, 1.7e308), (1.0, 1e308), (1.0, math.nan)])
def test_tail_from_a_point_without_window_width_raises_with_s(p, s):
    # exp(t) rates: the integrand is NaN or inf there, so s is no point below the float range
    rate = expression_rate("exp(t)")
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(TailBoundError, match="no window of positive width") as info:
        improper_rate_integrals(rate, rate, p, 0.0, [s])
    assert info.value.s == s or math.isnan(s) and math.isnan(info.value.s)


def test_walk_failing_at_its_start_keeps_the_order_of_s():
    # the walk from 1.7e308 fails before its first window; 20.0 fails in round five
    hump, one = expression_rate("(1 + t)^8 * exp(-t)"), builtin_rate("polynomial")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TailBoundError, match="span 8") as info:
            improper_rate_integrals(hump, one, 1.0, 0.0, [20.0, 1.7e308], max_span=8.0)
        assert info.value.s == 20.0
        with pytest.raises(TailBoundError, match="no window") as info:
            improper_rate_integrals(hump, one, 1.0, 0.0, [1.7e308, 20.0], max_span=8.0)
        assert info.value.s == 1.7e308


def _rate_bad_past(t0, bad):
    """e^t up to t0, with log mu(t) = ``bad(t)`` beyond; no family, so walks certify by
    extrapolation."""
    def log_fn(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > t0, bad(t), t)
    return GrowthRate(f"e^t up to {t0:g}", lambda t: np.exp(log_fn(t)), log_fn=log_fn)


E_T = GrowthRate("e^t", np.exp, log_fn=lambda t: np.asarray(t, dtype=float))
# mu^-2 = 2 + sin(1e6 t) past 40: no adaptive Simpson level resolves it before the cap
NOISY = _rate_bad_past(40.0, lambda t: -0.5 * np.log(2.0 + np.sin(1e6 * t)))
NAN_PAST = _rate_bad_past(40.0, lambda t: np.full(t.shape, math.nan))


@pytest.mark.parametrize("bad,error", [(NOISY, ConvergenceError), (NAN_PAST, DivergenceError)],
                         ids=["level-cap", "nan"])
def test_walk_certified_before_a_failing_window_of_its_block(monkeypatch, bad, error):
    # e^-2r from 1 certifies at its sixth window [17, 33]; its third block also holds
    # [33, 65], where the bad integrand fails: a ConvergenceError, or a NaN mass
    from stablemanifold import admissibility
    quadrature = admissibility.adaptive_simpson_many
    integrand = _rate_integrand(bad, E_T, -2.0, 0.0)
    if bad is NOISY:
        with pytest.raises(ConvergenceError):
            quadrature(integrand, 33.0, 65.0, 1e-10)
    else:
        assert math.isnan(quadrature(integrand, 33.0, 65.0, 1e-10)[0])
    expected = improper_rate_integral(E_T, E_T, -2.0, 0.0, 1.0)
    assert abs(expected / (math.exp(-2.0) / 2.0) - 1.0) <= 1e-8
    windows = []

    def recording(f, a, b, tol, **kw):
        windows.extend(zip(np.ravel(a).tolist(), np.ravel(b).tolist()))
        return quadrature(f, a, b, tol, **kw)

    monkeypatch.setattr(admissibility, "adaptive_simpson_many", recording)
    assert improper_rate_integral(bad, E_T, -2.0, 0.0, 1.0) == expected
    assert windows[-1] == (33.0, 65.0)
    # a walk that reaches the bad windows fails, and a batch raises the first s's error
    with pytest.raises(error):
        improper_rate_integral(bad, E_T, -2.0, 0.0, 40.5)
    _assert_batch_equals_singles(bad, E_T, -2.0, 0.0, [1.0, 40.5, 1.0])
    _assert_batch_equals_singles(bad, E_T, -2.0, 0.0, [40.5, 1.0])


def test_level_cap_fails_an_s_in_every_batch():
    # mu^-2 = 2 + sin(1e4 t) below 1 and e^-2t above: the window [0, 1] of the walk from 0
    # needs a level of 129544 nodes, alone or beside the windows of 400 other s
    def log_fn(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 1.0, -0.5 * np.log(2.0 + np.sin(1e4 * t)), t)

    noisy = GrowthRate("noisy below 1", lambda t: np.exp(log_fn(t)), log_fn=log_fn)
    with pytest.raises(ConvergenceError, match="129544 nodes"):
        improper_rate_integral(noisy, E_T, -2.0, 0.0, 0.0)
    with pytest.raises(ConvergenceError, match="129544 on one interval"):
        improper_rate_integrals(noisy, E_T, -2.0, 0.0, [0.0, *np.linspace(1.5, 600.0, 400)])


# (mu, nu, p, eps): every builtin rate pair, the slow family tails and the hump, whose
# windows grow from s <= 2
TAIL_CASES = ([(mu, nu, -2.0, 0.1) for mu in BUILTIN_RATES for nu in BUILTIN_RATES]
              + [(mu, nu, a * q, eps) for mu, nu, a, eps, q, _ in FAMILY_CASES]
              + [(expression_rate("(1 + t)^8 * exp(-t)"), expression_rate("1 + t"), 1.0, 0.0)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batches_equal_one_element_calls(data):
    # duplicates and anchors from 1 to 1024; a span of 50 leaves slow tails uncertified
    mu, nu, p, eps = data.draw(st.sampled_from(TAIL_CASES), label="case")
    max_span = data.draw(st.sampled_from([1e30, 50.0]), label="max_span")
    point = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 64.0]), st.floats(0.0, 600.0))
    s_values = data.draw(st.lists(point, min_size=1, max_size=5), label="s")
    s_values += data.draw(st.lists(st.sampled_from(s_values), max_size=2), label="repeats")
    _assert_batch_equals_singles(mu, nu, p, eps, s_values, max_span=max_span)


def test_hump_walk_reaches_its_underflowed_rate_without_a_warning():
    # the walk from 3 reaches t = 1028, where (1 + t)^8 e^-t is 0.0: log mu is -inf there
    hump = expression_rate("(1 + t)^8 * exp(-t)")
    assert hump.log_eval(np.array([1028.0]))[0] == -np.inf
    _assert_batch_equals_singles(hump, expression_rate("1 + t"), 1.0, 0.0, [3.0])


def test_beta_function_integrals_fill_the_cache_in_one_batch(monkeypatch):
    from stablemanifold import admissibility
    batches = []
    quadrature = admissibility.improper_rate_integrals

    def counting(mu, nu, p, eps, s_values, *rest):
        batches.append(list(s_values))
        return quadrature(mu, nu, p, eps, s_values, *rest)

    monkeypatch.setattr(admissibility, "improper_rate_integrals", counting)
    bf = BetaFunction(LOG4, LOG_NU, -0.5, 0.5, 2.0)
    got = bf.integrals([0.0, 2.0, 0.0, 7.0])
    assert batches == [[0.0, 2.0, 7.0]]
    assert got[0] == got[2]
    assert bf.integrals([7.0, 9.0])[0] == got[3] and bf.beta([2.0])[0] > 0.0
    assert batches == [[0.0, 2.0, 7.0], [9.0]]
    assert got.tolist() == [improper_rate_integral(LOG4, LOG_NU, -0.5 * 2.0, 0.5, s)
                            for s in (0.0, 2.0, 0.0, 7.0)]


def test_beta_of_an_underflowed_tail_raises_with_s():
    # e^(-1.9 r) integrates to e^(-1.9 s)/1.9, below the float range at s = 400
    bf = BetaFunction(EXP, EXP, -1.0, 0.1, 2.0)
    with pytest.raises(TailBoundError, match="underflows") as info:
        bf.beta([400.0])
    assert info.value.s == 400.0
    # the first underflowed s of the array is the one named
    with pytest.raises(TailBoundError, match="underflows") as info:
        bf.beta([0.0, 400.0, 500.0])
    assert info.value.s == 400.0


ANCHOR_S = [0.0, 0.3, 1.0, 1.7, 2.0, 5.5, 40.0, 257.0]


@pytest.mark.parametrize("mu,p,eps,exact", [
    (EXP, -1.0, 0.1, lambda s: math.exp(-0.9 * s) / 0.9),
    (POLY, -2.0, 0.1, lambda s: (1.0 + s) ** -0.9 / 0.9)], ids=["exp", "poly"])
def test_anchored_tails_match_the_exact_tails(mu, p, eps, exact):
    # anchors 1, 1, 1, 2, 2, 8, 64 and 512: s = 1 and 2 are their own anchors, the
    # other pieces run from one window to eight (s = 257 on the slow polynomial tail)
    got = improper_rate_integrals(mu, mu, p, eps, ANCHOR_S)
    for s, value in zip(ANCHOR_S, got.tolist()):
        assert abs(value / exact(s) - 1.0) <= 1e-8, s


def test_points_below_one_share_one_anchor_walk(monkeypatch):
    # the 248 admissibility points of the matrix-d2 benchmark config lie in [0, 1]:
    # each s < 1 integrates its window [s, 1], and the walk from 1 runs once
    from stablemanifold import admissibility
    calls = []
    quadrature = admissibility.adaptive_simpson_many

    def counting(f, a, b, tol, **kw):
        calls.append(list(zip(np.ravel(a).tolist(), np.ravel(b).tolist())))
        return quadrature(f, a, b, tol, **kw)

    monkeypatch.setattr(admissibility, "adaptive_simpson_many", counting)
    improper_rate_integral(EXP, EXP, -2.0, 0.0, 1.0)
    walk = [w for call in calls for w in call]
    s_values = list(dict.fromkeys(uniform_grid(1.0, 200) + uniform_grid(1.0, 50)))
    assert len(s_values) == 248 and len(walk) == 3
    # a repeated s adds no window: one round of every piece and the anchor's first
    # window, then one round of the anchor's next block, its second and third windows
    for batch in (s_values, s_values[:10] + s_values):
        calls.clear()
        improper_rate_integrals(EXP, EXP, -2.0, 0.0, batch)
        windows = [w for call in calls for w in call]
        assert [len(call) for call in calls] == [248, 2]
        assert sorted(w for w in windows if w[0] < 1.0) == sorted((s, 1.0) for s in s_values
                                                                  if s < 1.0)
        assert [w for w in windows if w[0] >= 1.0] == walk


def test_piece_before_an_underflowed_anchor_stands_alone():
    # e^(-1.46 r) from s = 500 is about 1e-317, and subnormal, up to the anchor 512,
    # where it underflows: the uncertified piece [500, 512] is I(500) with I(512) = 0.0
    mu = expression_rate("exp(t)")
    s_values = [0.0, 500.0, 3.0]
    _assert_batch_equals_singles(mu, mu, -1.46, 0.0, s_values)
    got = improper_rate_integrals(mu, mu, -1.46, 0.0, s_values)[1]
    assert abs(got / (math.exp(-730.0) / 1.46) - 1.0) <= 1e-6


def reference_beta(mu, nu, a, eps, q, s, integral):
    """beta(s) for one s, as the scalar route computed it before BetaFunction took arrays."""
    log_beta = (a * float(mu.log_eval(s)) - eps * (1.0 + 1.0 / q) * float(nu.log_eval(s))
                - math.log(integral) / q)
    return math.exp(log_beta)


def reference_identity_residual(mu, nu, a, eps, q, s, integral):
    """|mu^(-aq) nu^(eps(q+1)) beta^q I - 1| for one s, beta from the closed form if any."""
    cf = closed_form_beta(mu, nu, a, eps, q)
    beta_s = cf[1](s) if cf is not None else reference_beta(mu, nu, a, eps, q, s, integral)
    log_term = (-a * q * float(mu.log_eval(s)) + eps * (q + 1.0) * float(nu.log_eval(s))
                + q * math.log(beta_s) + math.log(integral))
    return abs(math.expm1(log_term))


REFERENCE_CASES = [case[:5] for case in FAMILY_CASES] + [
    (expression_rate("exp(t)"), expression_rate("1 + t"), -1.0, 0.1, 2.0)]


@pytest.mark.parametrize("mu,nu,a,eps,q", REFERENCE_CASES,
                         ids=["exp", "poly", "log", "loglog", "expression"])
def test_array_methods_equal_the_scalar_formulas(mu, nu, a, eps, q):
    s_values = np.linspace(0.0, 4.0, 161)
    bf = BetaFunction(mu, nu, a, eps, q)
    integrals = bf.integrals(s_values).tolist()
    table = bf.table(s_values)
    beta, tilde, ratio, resid = (bf.beta(s_values), table["beta_tilde"],
                                 table["mu_pow_a_over_beta"], table["identity_residual"])
    for k, (s, integral) in enumerate(zip(s_values.tolist(), integrals)):
        b = reference_beta(mu, nu, a, eps, q, s, integral)
        assert beta[k] == b, s
        assert tilde[k] == b * math.exp(-eps * float(nu.log_eval(s))), s
        assert resid[k] == reference_identity_residual(mu, nu, a, eps, q, s, integral), s
        # beta.csv's form bit for bit; the monotonicity check's old form to round-off
        log_mu_a = a * float(mu.log_eval(s))
        assert ratio[k] == math.exp(log_mu_a) / b, s
        assert ratio[k] == pytest.approx(math.exp(log_mu_a - math.log(b)), rel=1e-13, abs=0.0)
    assert bf.beta(0.0).tolist() == [beta[0]]
