import copy
import json
import math
from fractions import Fraction
from importlib import resources

import pytest

from stablemanifold.config import (_SOLVER_DEFAULTS, build_comparison, build_params,
                                   build_perturbation, build_rates, build_solver_config,
                                   build_system, load_run_input, resolve_config,
                                   scale_tolerances, uniform_grid)
from stablemanifold.errors import ConfigError
from stablemanifold.manifold import SolverConfig


def base_config():
    return {
        "label": "unit",
        "rates": {"mu": {"family": "exponential"}, "nu": {"family": "exponential"}},
        "dichotomy": {"a": -1.0, "b": 1.0, "eps": 0.0, "D": 1.0},
        "system": {"kind": "rate_power"},
        "perturbation": {"kind": "cubic", "coef": 1.0},
        "solver": {"s_max": 1.0, "n_slices": 3, "delta": 0.02, "C": 2.0},
    }


def test_defaults_are_materialized():
    resolved = resolve_config(base_config())
    assert resolved["comparison"] == {"scale": 1.05}
    assert resolved["solver"]["s_grid"] == [0.0, 0.5, 1.0]
    assert resolved["solver"]["nodes_per_axis"] == 41
    assert resolved["solver"]["h"] == 0.01
    assert resolved["verification"]["n_invariance"] == 50
    assert resolved["verification"]["flow_h"] == resolved["solver"]["h"]
    assert resolved["checks"]["identity_tol"] == 1e-6
    assert resolved["checks"]["beta_s_max"] == 1.0
    assert resolved["output"]["dir"] == "out"
    assert resolved["seed"] == 0
    assert resolved["dichotomy"]["eps"] == 0.0


@pytest.mark.parametrize("stop", [1.0, 2.0, 4.0, 2.5, 0.7, 0.3, 1e-300, 1e300])
def test_uniform_grid_is_correctly_rounded(stop):
    for n in range(2, 42):
        grid = uniform_grid(stop, n)
        assert grid == [float(Fraction(stop) * i / (n - 1)) for i in range(n)]
        assert grid[0] == 0.0 and grid[-1] == stop


def test_resolved_config_is_stable_under_reresolve():
    resolved = resolve_config(base_config())
    assert resolve_config(copy.deepcopy(resolved)) == resolved


@pytest.mark.parametrize("mutate,key", [
    (lambda c: c.update(bogus=1), "bogus"),
    (lambda c: c["rates"].update(extra=1), "rates.extra"),
    (lambda c: c["rates"]["mu"].update(family="fourier"), "rates.mu.family"),
    (lambda c: c["rates"]["mu"].update(lam=2.0), "rates.mu.lam"),
    (lambda c: c["dichotomy"].update(a=0.0), "dichotomy.a"),
    (lambda c: c["dichotomy"].update(b=-1.0), "dichotomy.b"),
    (lambda c: c["dichotomy"].update(D=0.5), "dichotomy.D"),
    (lambda c: c["system"].update(kind="spectral"), "system.kind"),
    (lambda c: c["perturbation"].update(coef=0.0), "perturbation.coef"),
    (lambda c: c["solver"].update(nodes_per_axis=10), "solver.nodes_per_axis"),
    (lambda c: c["solver"].update(decay_slack=0.5), "solver.decay_slack"),
    (lambda c: c["solver"].update(s_grid=[0.0, 1.0]), "solver.s_grid"),
    (lambda c: c.update(comparison={"scale": 1.0}), "comparison.scale"),
    (lambda c: c.update(seed=-1), "seed"),
    # solver budgets and certificate slacks are constants, at these values, not keys
    (lambda c: c["solver"].update(outer_tol=1e-8), "solver.outer_tol"),
    (lambda c: c["solver"].update(max_outer=30), "solver.max_outer"),
    (lambda c: c["solver"].update(picard_tol=1e-10), "solver.picard_tol"),
    (lambda c: c["solver"].update(lipschitz_tol=1e-3), "solver.lipschitz_tol"),
    (lambda c: c["solver"].update(quad_rel_tol=1e-8), "solver.quad_rel_tol"),
    (lambda c: c["solver"].update(decay_slack=1.05), "solver.decay_slack"),
], ids=["extra-top", "extra-rates", "bad-family", "stray-lam", "zero-a", "neg-b",
        "small-D", "bad-kind", "zero-coef", "even-nodes", "slack", "grid-xor",
        "unit-scale", "neg-seed", "outer-tol", "max-outer", "picard-tol", "lipschitz-tol",
        "quad-rel-tol", "decay-slack"])
def test_violations_name_the_key(mutate, key):
    raw = base_config()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == key


def test_missing_required_key():
    raw = base_config()
    del raw["dichotomy"]["a"]
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "dichotomy.a"


def test_log_family_needs_lam():
    raw = base_config()
    raw["rates"]["mu"] = {"family": "log_poly"}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "rates.mu.lam"


def test_expression_rate_validated():
    raw = base_config()
    raw["rates"]["mu"] = {"expr": "exp(x)"}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "rates.mu.expr"
    assert "bad expression" in str(err.value)


def test_matrix_system_validation():
    raw = base_config()
    raw["system"] = {"kind": "matrix", "coeff": [["-1", "0"], ["0"]], "n_stable": 1}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "system.coeff[1]"
    raw["system"] = {"kind": "matrix", "coeff": [["-1", "0"], ["0", "1"]], "n_stable": 2}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "system.n_stable"


def test_component_count_must_match_dimension():
    raw = base_config()
    raw["perturbation"] = {"kind": "expr", "components": ["0", "u1^3", "0"],
                           "c": 1.0, "q": 2.0}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "perturbation.components"


def test_comparison_order_must_match():
    raw = base_config()
    raw["comparison"] = {"kind": "expr", "components": ["0", "u1^2"], "c": 1.0, "q": 1.0}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.path == "comparison"


def test_load_config_and_manifest_unwrap(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(base_config()))
    assert load_run_input(str(cfg_path))[0]["label"] == "unit"

    manifest = {"package": {"name": "x", "version": "0"},
                "config": resolve_config(base_config())}
    man_path = tmp_path / "manifest.json"
    man_path.write_text(json.dumps(manifest))
    assert resolve_config(load_run_input(str(man_path))[0]) == manifest["config"]


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_run_input(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_run_input(str(arr))
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_input(str(tmp_path / "missing.json"))


def test_builders_produce_working_objects():
    resolved = resolve_config(base_config())
    mu, nu = build_rates(resolved)
    assert mu.family == "exponential" and nu.family == "exponential"
    params = build_params(resolved)
    assert params.a == -1.0 and params.D == 1.0
    system = build_system(resolved, mu, nu)
    assert system.n == 2 and system.n_stable == 1
    pert = build_perturbation(resolved["perturbation"], system.n)
    assert pert.q == 2.0 and pert.c == 1.0
    comp = build_comparison(resolved, system.n)
    assert comp.c == pytest.approx(1.05)
    import numpy as np
    v = np.array([0.1, 0.0])
    t = np.zeros(1)
    assert comp.f(t, v[None])[0, 1] == pytest.approx(1.05 * pert.f(t, v[None])[0, 1])
    cfg = build_solver_config(resolved)
    assert cfg.delta == 0.02 and cfg.C == 2.0 and cfg.s_grid == (0.0, 0.5, 1.0)


def test_auto_delta_maps_to_none():
    raw = base_config()
    raw["solver"] = {"s_max": 1.0, "n_slices": 3}
    cfg = build_solver_config(resolve_config(raw))
    assert cfg.delta is None and cfg.C is None


# solver keys that no bundled config sets, each with the reason it stays a key
UNSET_SOLVER_KEYS = {"delta_cap": "perfbench/tracer.py's solve_key reads SolverConfig.delta_cap"}


def test_every_solver_key_is_set_by_a_bundled_config():
    # a key no config sets is a knob no run varies: make it a constant or delete it
    paths = sorted((resources.files("stablemanifold") / "configs").glob("*.json"))
    assert len(paths) == 6
    set_keys = set().union(*(json.loads(path.read_text())["solver"] for path in paths))
    assert set(UNSET_SOLVER_KEYS) <= set(_SOLVER_DEFAULTS) - set_keys
    assert set(_SOLVER_DEFAULTS) - set_keys - set(UNSET_SOLVER_KEYS) == set()


def test_minimal_solver_block_resolves_to_solver_config_defaults():
    raw = base_config()
    raw["solver"] = {"s_max": 1.0}
    cfg = build_solver_config(resolve_config(raw))
    assert len(cfg.s_grid) == 21
    assert cfg == SolverConfig(s_grid=cfg.s_grid)


def test_matrix_builder_evaluates_coefficients():
    raw = base_config()
    raw["system"] = {"kind": "matrix", "coeff": [["-1", "0"], ["0", "1"]], "n_stable": 1}
    resolved = resolve_config(raw)
    mu, nu = build_rates(resolved)
    system = build_system(resolved, mu, nu)
    import numpy as np
    assert np.allclose(system.A(np.array([0.3]))[0], np.diag([-1.0, 1.0]))


def test_scale_tolerances():
    resolved = resolve_config(base_config())
    scaled = scale_tolerances(resolved, 10.0)
    assert scaled["verification"]["tol"] == pytest.approx(0.1)
    assert scaled["checks"]["identity_tol"] == pytest.approx(1e-5)
    assert scaled["checks"]["dichotomy_tol"] == pytest.approx(1e-8)
    assert scaled["checks"]["beta_match_tol"] == pytest.approx(1e-5)
    # the original stays untouched, factor 1 is the identity
    assert resolved["verification"]["tol"] == 1e-2
    assert scale_tolerances(resolved, 1.0) is resolved


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    else:
        yield path, obj


def test_scale_tolerances_changes_exactly_four_values():
    # the solver's certificate tolerances and the monotonicity slack stay as they are
    resolved = resolve_config(base_config())
    before, after = dict(_leaves(resolved)), dict(_leaves(scale_tolerances(resolved, 10.0)))
    assert before.keys() == after.keys()
    changed = {path for path in before if before[path] != after[path]}
    assert changed == {"verification.tol", "checks.dichotomy_tol", "checks.identity_tol",
                       "checks.beta_match_tol"}
    assert not {"solver.lipschitz_tol", "solver.decay_slack"} & before.keys()


def test_sharp_oscillating_kind():
    raw = base_config()
    raw["system"] = {"kind": "sharp_oscillating"}
    raw["dichotomy"]["eps"] = 0.2
    resolved = resolve_config(raw)
    mu, nu = build_rates(resolved)
    system = build_system(resolved, mu, nu)
    assert system.meta["kind"] == "sharp_oscillating"
    assert float(system.U(2.0 * math.pi, math.pi)) > 0.0


@pytest.mark.parametrize("components, reads, autonomous",
                         [(["0", "u1^3"], (0,), True),
                          (["0", "u1^3 * exp(-t)"], (0,), False),
                          (["u1*u2*u1 + u2^3", "u1^3 + u2*u1^2"], (0, 1), True)])
def test_scaled_comparison_keeps_the_declarations(components, reads, autonomous):
    raw = base_config()
    raw["perturbation"] = {"kind": "expr", "components": components, "c": 3.0, "q": 2.0}
    resolved = resolve_config(raw)
    pert = build_perturbation(resolved["perturbation"], 2)
    comp = build_comparison(resolved, 2)
    assert (pert.reads, pert.autonomous) == (reads, autonomous)
    assert (comp.reads, comp.autonomous) == (reads, autonomous)
    assert comp.label.endswith("x 1.05")
