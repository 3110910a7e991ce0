"""Run configuration: JSON schema validation, defaults, and object builders.

A raw config maps to a fully resolved dict in which every default is
materialized, so a run is reproducible from its manifest alone.  Validation is
strict: unknown keys are rejected and every violation names the offending key
path (the CLI turns that into exit code 2).
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields
from typing import Any

import numpy as np

from .dichotomy import (DichotomyParams, LinearSystem, matrix_system, rate_power_system,
                        sharp_oscillating_system)
from .errors import ConfigError
from .expr import ExpressionError, compile_expression
from .manifold import (Perturbation, SolverConfig, cubic_perturbation,
                       expression_perturbation)
from .rates import BUILTIN_FAMILIES, GrowthRate, builtin_rate, expression_rate

_MISSING = object()


def load_run_input(path: str) -> tuple[dict, dict | None]:
    """Read a JSON config, or a manifest from a previous run.

    Returns (config, manifest_cli).  For a manifest the embedded config is
    unwrapped and its recorded CLI flags (seed, tol_scale) come back alongside,
    so the caller can reproduce the original run without re-passing them.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(path, "top level must be a JSON object")
    if "config" in raw and "package" in raw:
        cfg = raw["config"]
        if not isinstance(cfg, dict):
            raise ConfigError(path, "manifest field 'config' must be an object")
        cli = raw.get("cli")
        return cfg, cli if isinstance(cli, dict) else None
    return raw, None


def _mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _reject_extras(obj: dict, path: str, allowed: set[str]) -> None:
    extras = sorted(set(obj) - allowed)
    if extras:
        raise ConfigError(f"{path}.{extras[0]}" if path else extras[0], "unknown key")


def _get(obj: dict, path: str, key: str, default: Any = _MISSING) -> Any:
    if key in obj:
        return obj[key]
    if default is _MISSING:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return default


def _number(value: Any, path: str, lo: float | None = None, hi: float | None = None,
            strict_lo: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(path, "must be finite")
    if lo is not None and (x <= lo if strict_lo else x < lo):
        raise ConfigError(path, f"must be {'>' if strict_lo else '>='} {lo:g}, got {x:g}")
    if hi is not None and x > hi:
        raise ConfigError(path, f"must be <= {hi:g}, got {x:g}")
    return x


def _integer(value: Any, path: str, lo: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(path, f"must be >= {lo}, got {value}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, f"expected a nonempty string, got {value!r}")
    return value


def _expression(value: Any, path: str, variables: tuple[str, ...]) -> str:
    text = _string(value, path)
    try:
        compile_expression(text, variables=variables)
    except ExpressionError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from exc
    return text


def _resolve_rate(obj: Any, path: str) -> dict:
    obj = _mapping(obj, path)
    if "expr" in obj:
        _reject_extras(obj, path, {"expr"})
        return {"expr": _expression(obj["expr"], f"{path}.expr", ("t",))}
    family = _string(_get(obj, path, "family"), f"{path}.family")
    if family not in BUILTIN_FAMILIES:
        raise ConfigError(f"{path}.family",
                          f"unknown family {family!r}; expected one of {BUILTIN_FAMILIES} "
                          "or an 'expr' entry")
    _reject_extras(obj, path, {"family", "lam", "companion"})
    companion = obj.get("companion", False)
    if not isinstance(companion, bool):
        raise ConfigError(f"{path}.companion", "expected true or false")
    out: dict[str, Any] = {"family": family}
    if companion:
        out["companion"] = True
    needs_lam = family in ("log_poly", "loglog_poly") and not companion
    if needs_lam:
        out["lam"] = _number(_get(obj, path, "lam"), f"{path}.lam", lo=0.0, strict_lo=True)
    elif "lam" in obj:
        raise ConfigError(f"{path}.lam", "only the log families take lam")
    return out


def _resolve_system(obj: Any, path: str) -> dict:
    obj = _mapping(obj, path)
    kind = _string(_get(obj, path, "kind"), f"{path}.kind")
    if kind in ("rate_power", "sharp_oscillating"):
        _reject_extras(obj, path, {"kind"})
        return {"kind": kind}
    if kind != "matrix":
        raise ConfigError(f"{path}.kind",
                          f"unknown kind {kind!r}; expected rate_power, sharp_oscillating "
                          "or matrix")
    _reject_extras(obj, path, {"kind", "coeff", "n_stable"})
    coeff = _get(obj, path, "coeff")
    if not isinstance(coeff, list) or not coeff:
        raise ConfigError(f"{path}.coeff", "expected a nonempty matrix of expressions")
    n = len(coeff)
    rows = []
    for i, row in enumerate(coeff):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigError(f"{path}.coeff[{i}]", f"expected a row of {n} expressions")
        rows.append([_expression(e, f"{path}.coeff[{i}][{j}]", ("t",))
                     for j, e in enumerate(row)])
    n_stable = _integer(_get(obj, path, "n_stable"), f"{path}.n_stable", lo=1)
    if n_stable >= n:
        raise ConfigError(f"{path}.n_stable", f"must be < n={n}, got {n_stable}")
    return {"kind": "matrix", "coeff": rows, "n_stable": n_stable}


def _resolve_perturbation(obj: Any, path: str) -> dict:
    obj = _mapping(obj, path)
    kind = _string(_get(obj, path, "kind"), f"{path}.kind")
    if kind == "cubic":
        _reject_extras(obj, path, {"kind", "coef"})
        coef = _number(_get(obj, path, "coef"), f"{path}.coef")
        if coef == 0.0:
            raise ConfigError(f"{path}.coef", "must be nonzero")
        return {"kind": "cubic", "coef": coef}
    if kind != "expr":
        raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}; expected cubic or expr")
    _reject_extras(obj, path, {"kind", "components", "c", "q"})
    comps = _get(obj, path, "components")
    if not isinstance(comps, list) or not comps:
        raise ConfigError(f"{path}.components", "expected a nonempty list of expressions")
    names = ("t",) + tuple(f"u{i + 1}" for i in range(len(comps)))
    comps = [_expression(e, f"{path}.components[{i}]", names) for i, e in enumerate(comps)]
    return {"kind": "expr", "components": comps,
            "c": _number(_get(obj, path, "c"), f"{path}.c", lo=0.0, strict_lo=True),
            "q": _number(_get(obj, path, "q"), f"{path}.q", lo=1.0)}


def _resolve_comparison(obj: Any, path: str) -> dict:
    obj = _mapping(obj, path)
    if "scale" in obj:
        _reject_extras(obj, path, {"scale"})
        scale = _number(obj["scale"], f"{path}.scale", lo=0.0, strict_lo=True)
        if scale == 1.0:
            raise ConfigError(f"{path}.scale", "must differ from 1")
        return {"scale": scale}
    return _resolve_perturbation(obj, path)


# SolverConfig fields that a run fills in and no config key sets
_RUN_SCOPED = frozenset({"beta_fn", "tables"})
# s_grid has no default and delta, C default to None, written "auto" in a config
_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)
                    if f.name not in _RUN_SCOPED
                    and f.default is not MISSING and f.default is not None}

_CHECK_DEFAULTS = {
    "dichotomy_pairs": 40, "dichotomy_tol": 1e-9, "dichotomy_h": 1e-3,
    "beta_points": 10, "identity_tol": 1e-6, "beta_match_tol": 1e-6,
    "monotonicity_points": 11,
}


def uniform_grid(stop: float, n: int) -> list[float]:
    """n points stop * i / (n - 1) from 0 to stop, each correctly rounded.

    The one grid rule of slice times and admissibility grids: a point that two
    grids share as a rational is then the same double on both, and the last
    point is stop.  The quotient of the exact integers is rounded once; stop * i
    in floats rounds twice where the product is inexact (0.7 * 3 / 3 gives
    0.6999999999999998), and ``np.linspace`` rounds i * step instead.
    """
    num, den = stop.as_integer_ratio()
    return [num * i / (den * (n - 1)) for i in range(n)]


def _resolve_solver(obj: Any, path: str) -> dict:
    obj = _mapping(obj, path)
    allowed = {"s_grid", "s_max", "n_slices", "delta", "C"} | set(_SOLVER_DEFAULTS)
    _reject_extras(obj, path, allowed)
    if "s_grid" in obj:
        grid = obj["s_grid"]
        if not isinstance(grid, list) or len(grid) < 2:
            raise ConfigError(f"{path}.s_grid", "expected a list of at least two times")
        s_grid = [_number(v, f"{path}.s_grid[{i}]", lo=0.0) for i, v in enumerate(grid)]
        if any(b <= a for a, b in zip(s_grid, s_grid[1:])):
            raise ConfigError(f"{path}.s_grid", "must be strictly increasing")
        if "s_max" in obj or "n_slices" in obj:
            raise ConfigError(f"{path}.s_grid", "give either s_grid or s_max/n_slices")
    else:
        s_max = _number(_get(obj, path, "s_max"), f"{path}.s_max", lo=0.0, strict_lo=True)
        n_slices = _integer(obj.get("n_slices", 21), f"{path}.n_slices", lo=2)
        s_grid = uniform_grid(s_max, n_slices)
    out: dict[str, Any] = {"s_grid": s_grid}
    for key in ("delta", "C"):
        val = obj.get(key, "auto")
        if val == "auto":
            out[key] = "auto"
        else:
            out[key] = _number(val, f"{path}.{key}", lo=0.0, strict_lo=True)
    for key, default in _SOLVER_DEFAULTS.items():
        if isinstance(default, int):
            out[key] = _integer(obj.get(key, default), f"{path}.{key}", lo=1)
        else:
            out[key] = _number(obj.get(key, default), f"{path}.{key}", lo=0.0, strict_lo=True)
    if out["nodes_per_axis"] < 3 or out["nodes_per_axis"] % 2 == 0:
        raise ConfigError(f"{path}.nodes_per_axis", "must be an odd integer >= 3")
    return out


def _resolve_verification(obj: Any, path: str, default_h: float) -> dict:
    obj = _mapping(obj, path)
    _reject_extras(obj, path, {"n_invariance", "n_decay", "tau_max", "tol", "flow_h"})
    return {
        "n_invariance": _integer(obj.get("n_invariance", 50), f"{path}.n_invariance", lo=1),
        "n_decay": _integer(obj.get("n_decay", 50), f"{path}.n_decay", lo=1),
        "tau_max": _number(obj.get("tau_max", 1.0), f"{path}.tau_max", lo=0.0,
                           strict_lo=True),
        "tol": _number(obj.get("tol", 1e-2), f"{path}.tol", lo=0.0, strict_lo=True),
        "flow_h": _number(obj.get("flow_h", default_h), f"{path}.flow_h", lo=0.0,
                          strict_lo=True),
    }


def _resolve_checks(obj: Any, path: str) -> dict:
    obj = _mapping(obj, path)
    _reject_extras(obj, path, set(_CHECK_DEFAULTS))
    out = {}
    for key, default in _CHECK_DEFAULTS.items():
        if isinstance(default, int):
            out[key] = _integer(obj.get(key, default), f"{path}.{key}", lo=1)
        else:
            out[key] = _number(obj.get(key, default), f"{path}.{key}", lo=0.0,
                               strict_lo=True)
    for key in ("beta_points", "monotonicity_points"):
        if out[key] < 2:
            raise ConfigError(f"{path}.{key}", "need at least two sample points")
    return out


def resolve_config(raw: dict, label_default: str = "run") -> dict:
    """Validate ``raw`` and return the fully materialized config dict."""
    raw = _mapping(raw, "")
    _reject_extras(raw, "", {"label", "seed", "rates", "dichotomy", "system",
                             "perturbation", "comparison", "solver", "verification",
                             "checks", "output"})
    rates_obj = _mapping(_get(raw, "", "rates"), "rates")
    _reject_extras(rates_obj, "rates", {"mu", "nu"})
    mu_node = _resolve_rate(_get(rates_obj, "rates", "mu"), "rates.mu")
    nu_node = _resolve_rate(_get(rates_obj, "rates", "nu"), "rates.nu")

    dich = _mapping(_get(raw, "", "dichotomy"), "dichotomy")
    _reject_extras(dich, "dichotomy", {"a", "b", "eps", "D"})
    a = _number(_get(dich, "dichotomy", "a"), "dichotomy.a", hi=0.0)
    if a == 0.0:
        raise ConfigError("dichotomy.a", "must be < 0")
    b = _number(_get(dich, "dichotomy", "b"), "dichotomy.b", lo=0.0)
    eps = _number(dich.get("eps", 0.0), "dichotomy.eps", lo=0.0)
    D = _number(dich.get("D", 1.0), "dichotomy.D", lo=1.0)

    system = _resolve_system(_get(raw, "", "system"), "system")
    pert = _resolve_perturbation(_get(raw, "", "perturbation"), "perturbation")
    comparison = _resolve_comparison(raw.get("comparison", {"scale": 1.05}), "comparison")
    solver = _resolve_solver(_get(raw, "", "solver"), "solver")
    verification = _resolve_verification(raw.get("verification", {}), "verification",
                                         solver["h"])
    checks = _resolve_checks(raw.get("checks", {}), "checks")

    output = _mapping(raw.get("output", {}), "output")
    _reject_extras(output, "output", {"dir"})
    out_dir = _string(output.get("dir", "out"), "output.dir")

    label = _string(raw.get("label", label_default), "label")
    seed = _integer(raw.get("seed", 0), "seed", lo=0)

    n = len(system["coeff"]) if system["kind"] == "matrix" else 2
    if pert["kind"] == "expr" and len(pert["components"]) != n:
        raise ConfigError("perturbation.components",
                          f"need {n} components to match the system dimension")
    if comparison.get("kind") == "expr" and len(comparison["components"]) != n:
        raise ConfigError("comparison.components",
                          f"need {n} components to match the system dimension")
    pert_q = 2.0 if pert["kind"] == "cubic" else pert["q"]
    comp_q = None if "scale" in comparison else (
        2.0 if comparison["kind"] == "cubic" else comparison["q"])
    if comp_q is not None and comp_q != pert_q:
        raise ConfigError("comparison",
                          f"order q={comp_q:g} must match the perturbation's q={pert_q:g}")

    return {
        "label": label, "seed": seed,
        "rates": {"mu": mu_node, "nu": nu_node},
        "dichotomy": {"a": a, "b": b, "eps": eps, "D": D},
        "system": system, "perturbation": pert, "comparison": comparison,
        "solver": solver, "verification": verification, "checks": checks,
        "output": {"dir": out_dir},
    }


def build_rate(node: dict) -> GrowthRate:
    if "expr" in node:
        return expression_rate(node["expr"])
    return builtin_rate(node["family"], lam=node.get("lam"),
                        nu_companion=bool(node.get("companion")))


def build_rates(resolved: dict) -> tuple[GrowthRate, GrowthRate]:
    return build_rate(resolved["rates"]["mu"]), build_rate(resolved["rates"]["nu"])


def build_params(resolved: dict) -> DichotomyParams:
    d = resolved["dichotomy"]
    return DichotomyParams(a=d["a"], b=d["b"], eps=d["eps"], D=d["D"])


def build_system(resolved: dict, mu: GrowthRate, nu: GrowthRate) -> LinearSystem:
    node = resolved["system"]
    d = resolved["dichotomy"]
    if node["kind"] == "rate_power":
        return rate_power_system(mu, d["a"], d["b"])
    if node["kind"] == "sharp_oscillating":
        return sharp_oscillating_system(mu, nu, d["a"], d["b"], d["eps"])
    entries = [[compile_expression(e, variables=("t",)) for e in row]
               for row in node["coeff"]]

    def coeff(t: np.ndarray) -> np.ndarray:
        """A(t): (B, n, n) at times t of shape (B,)."""
        a = np.empty(t.shape + (len(entries),) * 2)
        for i, row in enumerate(entries):
            for j, fn in enumerate(row):
                a[:, i, j] = fn(t=t)
        return a

    return matrix_system(coeff, len(entries), node["n_stable"], label="matrix")


def build_perturbation(node: dict, n: int) -> Perturbation:
    if node["kind"] == "cubic":
        return cubic_perturbation(node["coef"], n)
    return expression_perturbation(node["components"], node["c"], node["q"])


def build_comparison(resolved: dict, n: int) -> Perturbation:
    node = resolved["comparison"]
    if "scale" not in node:
        return build_perturbation(node, n)
    scale = node["scale"]
    base = resolved["perturbation"]
    if base["kind"] == "cubic":
        return cubic_perturbation(base["coef"] * scale, n)
    inner = build_perturbation(base, n)
    return Perturbation(lambda t, v: scale * inner.f(t, v), c=inner.c * abs(scale),
                        q=inner.q, label=f"{inner.label} x {scale:g}",
                        autonomous=inner.autonomous, reads=inner.reads)


def build_solver_config(resolved: dict) -> SolverConfig:
    s = resolved["solver"]
    kw = {f.name: None if s[f.name] == "auto" else s[f.name] for f in fields(SolverConfig)
          if f.name not in _RUN_SCOPED}
    return SolverConfig(**{**kw, "s_grid": tuple(s["s_grid"])})


def scale_tolerances(resolved: dict, factor: float) -> dict:
    """Return a copy with every pass/fail tolerance multiplied by ``factor``."""
    if factor == 1.0:
        return resolved
    out = json.loads(json.dumps(resolved))
    out["verification"]["tol"] *= factor
    for key in ("dichotomy_tol", "identity_tol", "beta_match_tol"):
        out["checks"][key] *= factor
    return out
