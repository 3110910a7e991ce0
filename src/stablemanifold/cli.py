"""Config-driven command line: runs the pipeline and writes machine-readable artifacts.

Every invocation writes ``manifest.json`` (package version, CLI flags, and the
fully resolved config) plus one ``report-<command>.json`` per executed command
and plot-ready CSV tables.  Artifacts are deterministic: fixed seeds, fixed
reduction orders, no timestamps, floats at 17 significant digits in CSVs.

Exit status: 0 all checks passed, 1 numerical failure (diagnostic on stderr),
2 config or usage violation (offending key on stderr).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import replace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .admissibility import (BetaFunction, check_limit_condition, check_monotonicity,
                            delta_max_bounds, delta_max_terms)
from .config import (build_comparison, build_params, build_perturbation, build_rates,
                     build_solver_config, build_system, load_run_input, resolve_config,
                     scale_tolerances, uniform_grid)
from .dichotomy import pair_grid, sharpness_probe, verify_dichotomy
from .errors import ConfigError, NumericalError
from .manifold import (check_vanishes_at_origin, outer_contraction_factor, solve_manifold,
                       solver_radius)
from .rates import check_growth_axioms
# check_invariance and check_decay are not called here; perfbench/tracer.py wraps
# them in this namespace
from .verify import (check_decay, check_flows, check_invariance,  # noqa: F401
                     check_perturbation_bound, common_solver_config, random_decay_pairs,
                     random_invariance_samples)

COMMANDS = ("check-rates", "check-dichotomy", "admissibility", "solve-manifold",
            "verify", "perturb-compare", "all")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and non-finite floats into valid JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_json(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                              and not isinstance(v, bool) else str(v)
                              for v in row) + "\n")


class Runner:
    """Shared state for one CLI invocation.

    f is solved once per run, at the radius its comparison with f_bar needs:
    solve-manifold, verify and perturb-compare read that one graph, and
    perturb-compare solves only f_bar.

    One ``BetaFunction`` serves the whole run: ``cfg.beta_fn`` carries it into
    admissibility and every solve, so each tail integral I(s) is computed once.
    """

    def __init__(self, resolved: dict, out_dir: str, seed: int):
        self.resolved = resolved
        self.out = out_dir
        self.seed = seed
        self.mu, self.nu = build_rates(resolved)
        self.params = build_params(resolved)
        self.system = build_system(resolved, self.mu, self.nu)
        self.pert = build_perturbation(resolved["perturbation"], self.system.n)
        self.pert_bar = build_comparison(resolved, self.system.n)
        self.cfg = replace(build_solver_config(resolved), beta_fn=BetaFunction(
            self.mu, self.nu, self.params.a, self.params.eps, self.pert.q))
        self._solved = None
        self._check_solver_inputs()
        # one delta per run: "auto" is delta_max at max(c, c_bar), so the solve,
        # verify and perturb-compare share one graph of f
        self.cfg = common_solver_config(self.params, self.pert, self.pert_bar, self.cfg)
        self.delta_c = (max(self.pert.c, self.pert_bar.c)
                        if resolved["solver"]["delta"] == "auto" else None)

    def _check_solver_inputs(self) -> None:
        """ConfigError naming the key, before any stage runs, for inputs a solve rejects.

        A fixed ``solver.delta`` must not exceed delta_max at max(c, c_bar), the
        radius that f and f_bar are compared at.
        """
        s_grid, n, cfg = np.asarray(self.cfg.s_grid), self.system.n, self.cfg
        larger_c = max(self.pert, self.pert_bar, key=lambda p: p.c)
        checks = {
            "solver.C": lambda: solver_radius(self.params, self.pert, replace(cfg, delta=None)),
            "solver.delta": lambda: solver_radius(self.params, larger_c, cfg),
            "perturbation.components": lambda: check_vanishes_at_origin(self.pert, s_grid, n),
            "comparison.components": lambda: check_vanishes_at_origin(self.pert_bar, s_grid, n),
        }
        for key, check in checks.items():
            try:
                check()
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from exc

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def rng(self, stream: int) -> random.Random:
        """Sample stream ``stream`` of this run's seed (1: verify, 2: perturb-compare)."""
        return random.Random(f"{self.seed}:{stream}")

    def solve(self):
        """The solved graph and its history, computed once per invocation."""
        if self._solved is None:
            self._solved = solve_manifold(self.system, self.mu, self.nu, self.params,
                                          self.pert, self.cfg)
        return self._solved

    # ------------------------------------------------------------- commands

    def check_rates(self) -> tuple[bool, dict]:
        ch = self.resolved["checks"]
        grid = np.linspace(0.0, ch["axiom_t_max"], ch["axiom_points"])
        reports = {}
        rows = []
        with np.errstate(over="ignore", invalid="ignore"):
            mu_vals = np.asarray(self.mu(grid), dtype=float)
            nu_vals = np.asarray(self.nu(grid), dtype=float)
        for t, mv, nv in zip(grid, mu_vals, nu_vals):
            rows.append([t, mv, nv])
        _write_csv(self.path("rates.csv"), ["t", "mu", "nu"], rows)
        passed = True
        for name, rate in (("mu", self.mu), ("nu", self.nu)):
            rep = check_growth_axioms(rate, grid)
            reports[name] = {
                "label": rate.label, "passed": rep.passed,
                "unit_at_zero": rep.unit_at_zero, "monotone_on_grid": rep.monotone_on_grid,
                "diverges": rep.diverges, "unit_error": rep.unit_error,
                "worst_violation": rep.worst_violation, "worst_pair": rep.worst_pair,
                "notes": list(rep.notes),
            }
            passed = passed and rep.passed
        return passed, {"rates": reports, "grid_max": ch["axiom_t_max"],
                        "grid_points": ch["axiom_points"]}

    def check_dichotomy(self) -> tuple[bool, dict]:
        ch = self.resolved["checks"]
        tol = ch["dichotomy_tol"]
        pairs = pair_grid(ch["dichotomy_t_max"], ch["dichotomy_pairs"])
        cert = verify_dichotomy(self.system, self.mu, self.nu, self.params, pairs,
                                tol=tol, h=ch["dichotomy_h"])
        _write_csv(self.path("dichotomy-pairs.csv"),
                   ["t", "s", "stable_ratio", "unstable_ratio", "commutation_residual"],
                   [list(r) for r in cert.rows])
        report = {
            "passed": cert.passed, "tol": tol, "n_pairs": cert.n_pairs,
            "max_stable_ratio": cert.max_stable_ratio,
            "max_unstable_ratio": cert.max_unstable_ratio,
            "max_commutation_residual": cert.max_commutation_residual,
            "notes": list(cert.notes),
        }
        passed = cert.passed
        if self.system.meta.get("kind") == "sharp_oscillating":
            probe = sharpness_probe(self.system, range(1, ch["sharpness_k_max"] + 1))
            _write_csv(self.path("sharpness.csv"),
                       ["k", "t", "s", "observed", "expected", "residual"],
                       [[r["k"], r["t"], r["s"], r["observed"], r["expected"],
                         r["residual"]] for r in probe])
            worst = max(r["residual"] for r in probe)
            report["sharpness"] = {"worst_residual": worst, "attained": worst <= tol,
                                   "k_max": ch["sharpness_k_max"]}
            passed = passed and worst <= tol
        return passed, report

    def admissibility(self) -> tuple[bool, dict]:
        ch = self.resolved["checks"]
        d = self.resolved["dichotomy"]
        q = self.pert.q
        limit = check_limit_condition(self.mu, self.nu, d["a"], d["b"], d["eps"])
        beta = self.cfg.beta_fn
        # the solver's slices come from the same rule, so it finds them in beta's cache
        s_values = uniform_grid(ch["beta_s_max"], ch["beta_points"])
        mono_grid = uniform_grid(ch["beta_s_max"], ch["monotonicity_points"])
        beta.integrals(s_values + mono_grid)  # both grids' I(s) in one batch
        table = beta.table(s_values)
        b_quad = table["beta_quadrature"]
        worst_resid = float(table["identity_residual"].max())
        if beta.closed_form is not None:
            worst_match = float(np.abs(b_quad / table["beta_closed_form"] - 1.0).max())
        else:
            worst_match = 0.0
        _write_csv(self.path("beta.csv"), list(table),
                   zip(*(column.tolist() for column in table.values())))
        mono = check_monotonicity(beta, mono_grid)
        cap, certified = solver_radius(self.params, self.pert, replace(self.cfg, delta=None))
        bounds = delta_max_bounds(self.pert.c, q, cap, d["D"])
        terms = delta_max_terms(bounds, self.cfg.delta_cap)
        binding = sorted(k for k, v in terms.items() if v == certified)
        identity_ok = worst_resid <= ch["identity_tol"]
        match_ok = worst_match <= ch["beta_match_tol"] or beta.closed_form is None
        passed = bool(limit.passed and identity_ok and match_ok
                      and mono.beta_nonincreasing and mono.ratio_nonincreasing)
        report = {
            "passed": passed,
            "limit_condition": {"passed": limit.passed, "inconclusive": limit.inconclusive,
                                "eventually_decreasing": limit.eventually_decreasing,
                                "tail_drop_ok": limit.tail_drop_ok},
            "beta": {"closed_form": beta.closed_form, "s_values": s_values,
                     "worst_identity_residual": worst_resid,
                     "identity_tol": ch["identity_tol"],
                     "worst_closed_form_mismatch": worst_match,
                     "beta_match_tol": ch["beta_match_tol"],
                     "beta_at_zero": float(b_quad[0])},
            "monotonicity": {"beta_nonincreasing": mono.beta_nonincreasing,
                             "ratio_nonincreasing": mono.ratio_nonincreasing,
                             "worst_beta_uptick": mono.worst_beta_uptick,
                             "worst_ratio_uptick": mono.worst_ratio_uptick},
            "delta_max": {"value": certified, "bounds": bounds, "binding": binding,
                          "c": self.pert.c, "q": q, "C": cap, "D": d["D"]},
        }
        return passed, report

    def solve_manifold_cmd(self) -> tuple[bool, dict]:
        graph, history = self.solve()
        rows = []
        for k, s in enumerate(graph.s_grid):
            pts = graph.node_points(k)
            for j in range(pts.shape[0]):
                rows.append([int(k), float(s), float(graph.radii[k]),
                             *pts[j].tolist(), *graph.values[k, j].tolist()])
        header = (["slice", "s", "radius"]
                  + [f"xi_{i + 1}" for i in range(graph.n_stable)]
                  + [f"phi_{i + 1}" for i in range(graph.n_unstable)])
        _write_csv(self.path("graph.csv"), header, rows)
        _write_csv(self.path("convergence.csv"), ["iter", "distance", "ratio"],
                   [[row["iteration"], row["distance"],
                     row["ratio"] if row["ratio"] is not None else math.nan]
                    for row in history])
        factor = outer_contraction_factor(self.pert.c, self.pert.q, graph.C,
                                          self.params.D, graph.delta)
        report = {
            "passed": True, "delta": graph.delta, "delta_resolved_at_c": self.delta_c,
            "C": graph.C,
            "certified_contraction_factor": factor,
            "iterations": history, "n_slices": graph.n_slices,
            "nodes_per_slice": len(graph.targets_unit),
            "radii": graph.radii.tolist(), "slices": graph.meta["slices"],
            "inner": graph.meta["inner"],
        }
        return True, report

    def verify_cmd(self) -> tuple[bool, dict]:
        v = self.resolved["verification"]
        graph, _ = self.solve()
        rng = self.rng(1)
        inv_samples = random_invariance_samples(graph, self.nu, self.params,
                                                v["n_invariance"], v["tau_max"], rng)
        pairs = random_decay_pairs(graph, self.nu, self.params, v["n_decay"],
                                   v["tau_max"], rng)
        flows = check_flows(graph, self.system, self.mu, self.nu, self.params, self.pert,
                            inv_samples, pairs, h=v["flow_h"], tol=v["tol"])
        inv, dec = flows.invariance, flows.decay
        _write_csv(self.path("verify-invariance.csv"),
                   ["s", "xi_norm", "tau", "residual", "arrival_norm", "within_radius"],
                   [[r["s"], r["xi_norm"], r["tau"], r["residual"], r["arrival_norm"],
                     r["within_radius"]] for r in inv.rows])
        _write_csv(self.path("verify-decay.csv"),
                   ["s", "t", "seed_gap", "observed", "bound", "ratio"],
                   [[r["s"], r["t"], r["seed_gap"], r["observed"], r["bound"], r["ratio"]]
                    for r in dec.rows])
        passed = bool(inv.passed and dec.passed)
        return passed, {
            "passed": passed, "tol": v["tol"],
            "invariance": {"passed": inv.passed, "max_residual": inv.max_residual,
                           "all_within_radius": inv.all_within_radius,
                           "n_samples": v["n_invariance"]},
            "decay": {"passed": dec.passed, "max_ratio": dec.max_ratio,
                      "n_pairs": v["n_decay"]},
            "flow": {"rows": flows.rows, "rk4_steps": flows.rk4_steps,
                     "step_rounds": flows.step_rounds},
        }

    def perturb_compare(self) -> tuple[bool, dict]:
        rep = check_perturbation_bound(self.system, self.mu, self.nu, self.params,
                                       self.pert, self.pert_bar, self.cfg, rng=self.rng(2),
                                       solved=self.solve())
        _write_csv(self.path("compare.csv"),
                   ["graph_distance", "f_distance", "stability_constant", "quotient",
                    "delta"],
                   [[rep.graph_distance, rep.f_distance.value, rep.stability_k,
                     rep.quotient, rep.delta]])
        return bool(rep.passed), {
            "passed": rep.passed, "graph_distance": rep.graph_distance,
            "f_distance": rep.f_distance.value,
            "f_distance_samples": rep.f_distance.n_samples,
            "stability_constant": rep.stability_k, "quotient": rep.quotient,
            "delta": rep.delta, "comparison_label": self.pert_bar.label,
            "notes": list(rep.notes),
        }


_DISPATCH: dict[str, Callable[[Runner], tuple[bool, dict]]] = {
    "check-rates": Runner.check_rates,
    "check-dichotomy": Runner.check_dichotomy,
    "admissibility": Runner.admissibility,
    "solve-manifold": Runner.solve_manifold_cmd,
    "verify": Runner.verify_cmd,
    "perturb-compare": Runner.perturb_compare,
}


def _failure_detail(report: dict) -> str:
    """One-line hint naming what failed inside a command report."""
    flat: list[str] = []

    def walk(prefix: str, obj: Any) -> None:
        if isinstance(obj, dict):
            for k, v in obj.items():
                if k == "passed" or not isinstance(v, (dict, bool)):
                    continue
                p = f"{prefix}.{k}" if prefix else k
                if isinstance(v, bool):
                    if not v and k not in ("inconclusive",):
                        flat.append(p)
                else:
                    walk(p, v)

    walk("", report)
    return ", ".join(flat) if flat else "see report"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stablemanifold",
        description="Stable-manifold solver and checker for nonautonomous systems "
                    "with nonuniform dichotomies.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config "
                        "(or a manifest.json from a previous run)")
    parser.add_argument("--out", default=None, help="artifact directory "
                        "(default: output.dir from the config)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed for verification sampling")
    parser.add_argument("--tol-scale", type=float, default=None,
                        help="multiply all pass/fail tolerances by this factor")
    args = parser.parse_args(argv)

    try:
        raw, recorded = load_run_input(args.config)
        label_default = os.path.splitext(os.path.basename(args.config))[0]
        resolved = resolve_config(raw, label_default=label_default)
        # a manifest replays its recorded flags unless overridden, so a run is
        # reproducible from the manifest alone
        recorded = recorded or {}

        def recorded_number(key, default):
            val = recorded.get(key, default)
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError(f"cli.{key}", f"expected a number, got {val!r}")
            return val

        tol_scale = (args.tol_scale if args.tol_scale is not None
                     else float(recorded_number("tol_scale", 1.0)))
        seed = (args.seed if args.seed is not None
                else recorded_number("seed", resolved["seed"]))
        if not isinstance(seed, int):
            raise ConfigError("cli.seed", f"expected an integer, got {seed!r}")
        if not 0.0 < tol_scale < math.inf:
            raise ConfigError("--tol-scale", f"must be positive and finite, got {tol_scale!r}")
        if seed < 0:
            raise ConfigError("--seed", "must be >= 0")
        scaled = scale_tolerances(resolved, tol_scale)
        out_dir = args.out if args.out is not None else resolved["output"]["dir"]
        os.makedirs(out_dir, exist_ok=True)
        runner = Runner(scaled, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = {
        "package": {"name": "stablemanifold", "version": __version__},
        "command": args.command,
        "cli": {"seed": seed, "tol_scale": tol_scale, "out": out_dir},
        "config": resolved,
    }
    _write_json(runner.path("manifest.json"), manifest)

    chain = list(_DISPATCH) if args.command == "all" else [args.command]
    for name in chain:
        try:
            passed, report = _DISPATCH[name](runner)
        except NumericalError as exc:
            print(f"{name}: FAIL: {type(exc).__name__}: {exc}", file=sys.stderr)
            # the attributes the error holds (history, s, node, ratio, ...) are its context
            context = {k: v for k, v in vars(exc).items() if not k.startswith("_")}
            _write_json(runner.path(f"report-{name}.json"),
                        {"passed": False, "error": {"type": type(exc).__name__,
                                                    "message": str(exc), **context}})
            return 1
        report = {"command": name, **report, "passed": passed}
        _write_json(runner.path(f"report-{name}.json"), report)
        if passed:
            print(f"{name}: PASS")
        else:
            print(f"{name}: FAIL: {_failure_detail(report)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
