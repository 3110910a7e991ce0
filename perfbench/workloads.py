"""Workloads of the benchmark: the configs each one hands to ``stablemanifold all``.

Every workload is a closed loop with one client: its configs run back to
back, one child process at a time.  The package receives only the JSON
written here; the ``--seed`` of the benchmark goes to every run as ``--seed``.
"""
from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

CONFIGS = Path(__file__).resolve().parents[1] / "src" / "stablemanifold" / "configs"

# Why each workload is in the benchmark, and which layers it loads or bypasses.
WHY = {
    "oracle": "Closed-form Picard route at production size (d=1, m=41, 21 slices); "
              "solve and perturb-compare dominate; tail quadrature and the matrix "
              "route nearly idle.",
    "matrix-d2": "Only workload on the RK4 matrix route: d=2 interpolation and clamping, "
                 "RK4 dichotomy check, eval_phi_many called per point; Picard sweeps idle.",
    "families": "Five other bundled configs: tail quadrature of every rate family, "
                "sharpness probe, most nonlinear_flow steps; small lattices, long inner "
                "grids.",
}

FAMILIES = ("exponential", "polynomial", "log_example", "loglog_example",
            "sharp_oscillating")

# Bound of the C4 oracle criterion: max |phi + xi_1^3/4| / |xi|_1^3 over graph.csv.
CUBIC_GRAPH_TOL = 1e-2


def matrix_d2_config() -> dict:
    """3-D matrix-form system diag(-1, -1, 1) with a 2-D stable block.

    Exponential rates with a = -1, b = 1, eps = 0 and the cubic coupling
    v' = v + u1^3, so the graph is phi = -xi_1^3 / 4 in closed form.
    """
    return {
        "label": "matrix_d2",
        "seed": 0,
        "rates": {"mu": {"family": "exponential"}, "nu": {"family": "exponential"}},
        "dichotomy": {"a": -1.0, "b": 1.0, "eps": 0.0, "D": 1.0},
        "system": {"kind": "matrix", "n_stable": 2,
                   "coeff": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "1"]]},
        "perturbation": {"kind": "cubic", "coef": 1.0},
        "comparison": {"scale": 1.05},
        "solver": {"s_max": 1.0, "n_slices": 2, "delta": 0.02, "C": 2.0,
                   "nodes_per_axis": 5, "h": 0.2, "tail_abs_tol": 1e-9},
        # sample counts sized so that admissibility and verify each take one to
        # two seconds: shorter stages are swamped by the host's speed jitter
        "verification": {"n_invariance": 80, "n_decay": 80, "tau_max": 1.0, "tol": 0.01,
                         "flow_h": 0.01},
        "checks": {"dichotomy_pairs": 12, "dichotomy_h": 0.005, "beta_points": 200,
                   "monotonicity_points": 50},
    }


def _bundled(name: str) -> dict:
    with open(CONFIGS / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _shrink(cfg: dict) -> dict:
    """A tiny copy of ``cfg`` for the self-test: coarse lattice, few samples."""
    cfg = copy.deepcopy(cfg)
    solver = cfg["solver"]
    matrix = cfg["system"]["kind"] == "matrix"
    solver["nodes_per_axis"] = 3 if matrix else 5
    if "n_slices" in solver:
        solver["n_slices"] = 2 if matrix else 3
    solver["h"] = max(solver["h"], 0.05)
    cfg["verification"] = {**cfg.get("verification", {}), "n_invariance": 3, "n_decay": 3}
    cfg["checks"] = {**cfg.get("checks", {}), "dichotomy_pairs": 3}
    return cfg


def cases(workload: str, tiny: bool = False) -> list[tuple[str, dict, bool]]:
    """(name, config, has closed-form cubic graph) for each run of one pass."""
    if workload == "oracle":
        out = [("oracle_cubic", _bundled("oracle_cubic"), True)]
    elif workload == "matrix-d2":
        out = [("matrix_d2", matrix_d2_config(), True)]
    elif workload == "families":
        out = [(name, _bundled(name), False) for name in FAMILIES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if tiny:
        out = [(name, _shrink(cfg), cubic) for name, cfg, cubic in out]
    return out


def cubic_graph_error(graph_csv: Path) -> float:
    """max |phi_1 + xi_1^3/4| / |xi|_1^3 over the nonzero nodes of ``graph.csv``."""
    worst = 0.0
    with open(graph_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            xi = [float(v) for k, v in row.items() if k.startswith("xi_")]
            norm = sum(abs(v) for v in xi)
            if norm > 0.0:
                worst = max(worst, abs(float(row["phi_1"]) + xi[0] ** 3 / 4.0) / norm ** 3)
    return worst
