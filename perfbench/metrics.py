"""Metric definitions and their computation from the child records.

End-to-end metrics are summed over the configs of one pass of a workload
(``peak_rss_mb`` is the maximum) and reported as the median over passes.
Their times are at the reference speed of ``reference.py``, without the
reference loops.  Per-layer metrics come from a traced pass; counts repeat
exactly, times are raw medians over the traced passes.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass

from reference import scaled_gaps

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "admissibility_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "verify_s": ("s", "lower"),
    "perturb_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# stage span -> end-to-end metric
STAGE_METRICS = {
    "cli.admissibility": "admissibility_s",
    "cli.solve-manifold": "solve_s",
    "cli.verify": "verify_s",
    "cli.perturb-compare": "perturb_s",
}

# name -> (unit, better, end-to-end metric it should move, workload where that shows)
PER_LAYER = {
    "manifold.eval_phi_many.calls": ("count", "lower", "solve_s, perturb_s", "matrix-d2"),
    "manifold.eval_phi_many.points": ("count", "lower", "solve_s, perturb_s", "oracle"),
    "manifold.eval_phi_many.self_s": ("s", "lower", "solve_s, perturb_s",
                                      "oracle, matrix-d2"),
    "manifold.eval_phi_many.points_per_s": ("1/s", "higher", "solve_s, perturb_s", "oracle"),
    "manifold.apply_phi_operator.calls": ("count", "lower", "solve_s", "all"),
    "manifold.apply_phi_operator.self_s": ("s", "lower", "solve_s", "all"),
    "manifold.inner.sweeps": ("count", "lower", "solve_s", "oracle, families"),
    "manifold.inner.node_paths": ("count", "lower", "solve_s", "oracle, families"),
    "manifold.inner.points": ("count", "lower", "solve_s", "oracle, families"),
    "manifold.solve_manifold.calls": ("count", "lower", "perturb_s, wall_s", "all"),
    "manifold.solve_manifold.distinct": ("count", "lower", "perturb_s, wall_s", "all"),
    "manifold.solve_manifold.useful_ratio": ("ratio", "higher", "perturb_s, wall_s", "all"),
    "admissibility.improper_rate_integral.calls": ("count", "lower", "admissibility_s",
                                                   "families"),
    "admissibility.improper_rate_integral.distinct": ("count", "lower", "admissibility_s",
                                                      "families"),
    "admissibility.improper_rate_integral.useful_ratio": ("ratio", "higher",
                                                          "admissibility_s", "families"),
    "admissibility.improper_rate_integral.s": ("s", "lower", "admissibility_s", "families"),
    "quadrature.adaptive_simpson.calls": ("count", "lower", "admissibility_s", "families"),
    "quadrature.adaptive_simpson.self_s": ("s", "lower", "admissibility_s", "families"),
    "verify.nonlinear_flow.calls": ("count", "lower", "verify_s", "families, oracle"),
    "verify.nonlinear_flow.steps": ("count", "lower", "verify_s", "families, oracle"),
    "verify.nonlinear_flow.self_s": ("s", "lower", "verify_s", "families, oracle"),
    "verify.nonlinear_flow.steps_per_s": ("1/s", "higher", "verify_s", "families, oracle"),
    "verify.check_invariance.s": ("s", "lower", "verify_s", "families, oracle"),
    "verify.check_decay.s": ("s", "lower", "verify_s", "families, oracle"),
    "verify.check_perturbation_bound.s": ("s", "lower", "perturb_s", "all"),
    "dichotomy.verify_dichotomy.s": ("s", "lower", "wall_s", "matrix-d2"),
    "linalg.rk4_propagate.calls": ("count", "lower", "wall_s", "matrix-d2"),
    "linalg.rk4_propagate.self_s": ("s", "lower", "wall_s", "matrix-d2"),
    "config.resolve_s": ("s", "lower", "setup_s", "all"),
    "cli.artifact_bytes": ("bytes", "lower", "wall_s", "all"),
    "cli.stage_other_s": ("s", "lower", "wall_s", "all"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s", "all"),
}


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def _raw_gaps(start: float, end: float, samples: list[list[float]]) -> float:
    return end - start - sum(e - s for s, e in samples if start <= s and e <= end)


def pass_end_to_end(children: list[dict], scale: bool = True) -> dict[str, float]:
    """End-to-end values of one pass from its children (one per config).

    Times leave out the reference loops; with ``scale`` they are at the
    reference speed, else as measured.
    """
    gaps = scaled_gaps if scale else _raw_gaps
    out = {name: 0.0 for name in END_TO_END}
    for child in children:
        samples = child["record"]["reference"]
        stages = [s for s in child["record"]["spans"] if s["name"].startswith("cli.")]
        out["wall_s"] += gaps(child["launch"], child["exit"], samples)
        out["setup_s"] += gaps(child["launch"], min(s["start"] for s in stages), samples)
        for span in stages:
            metric = STAGE_METRICS.get(span["name"])
            if metric is not None:
                out[metric] += gaps(span["start"], span["end"], samples)
        out["peak_rss_mb"] = max(out["peak_rss_mb"], child["peak_rss_mb"])
    return out


def reference_s(children: list[dict]) -> list[float]:
    """The times of the reference loops run in a pass."""
    return [e - s for child in children for s, e in child["record"]["reference"]]


@dataclass
class Layer:
    """One span name summed over a pass."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0
    distinct: int = 0


def _layer_totals(children: list[dict]) -> dict[str, Layer]:
    totals: dict[str, Layer] = {}
    for child in children:
        rec = child["record"]
        entries = [(s["name"], 1, s["end"] - s["start"], s["child_s"], s["work"])
                   for s in rec["spans"]]
        entries += [(c["name"], c["calls"], c["total_s"], c["child_s"], c["work"])
                    for c in rec["counters"]]
        for name, calls, total, child_s, work in entries:
            layer = totals.setdefault(name, Layer())
            layer.calls += calls
            layer.total_s += total
            layer.self_s += total - child_s
            layer.work += work
        for name, n in rec["distinct"].items():
            totals.setdefault(name, Layer()).distinct += n
    return totals


def pass_counts(children: list[dict]) -> dict[str, tuple[int, float, int]]:
    """The work counts of a traced pass, which must repeat exactly."""
    return {name: (layer.calls, layer.work, layer.distinct)
            for name, layer in _layer_totals(children).items()}


def pass_per_layer(children: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass (``trace.overhead_s`` excluded)."""
    totals = _layer_totals(children)

    def get(name: str) -> Layer:
        return totals.get(name, Layer())

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    phi, outer = get("manifold.eval_phi_many"), get("manifold.apply_phi_operator")
    solve, iri = get("manifold.solve_manifold"), get("admissibility.improper_rate_integral")
    simpson, flow = get("quadrature.adaptive_simpson"), get("verify.nonlinear_flow")
    rk4, node_path = get("linalg.rk4_propagate"), get("manifold.inner.node_path")
    stage_other = sum((s["end"] - s["start"]) - s["child_s"]
                      for child in children for s in child["record"]["spans"]
                      if s["name"].startswith("cli."))
    return {
        "manifold.eval_phi_many.calls": phi.calls,
        "manifold.eval_phi_many.points": phi.work,
        "manifold.eval_phi_many.self_s": phi.self_s,
        "manifold.eval_phi_many.points_per_s": rate(phi.work, phi.self_s),
        "manifold.apply_phi_operator.calls": outer.calls,
        "manifold.apply_phi_operator.self_s": outer.self_s,
        "manifold.inner.sweeps": get("manifold.inner.sweep").calls,
        "manifold.inner.node_paths": node_path.calls,
        "manifold.inner.points": node_path.work,
        "manifold.solve_manifold.calls": solve.calls,
        "manifold.solve_manifold.distinct": solve.distinct,
        "manifold.solve_manifold.useful_ratio": rate(solve.distinct, solve.calls),
        "admissibility.improper_rate_integral.calls": iri.calls,
        "admissibility.improper_rate_integral.distinct": iri.distinct,
        "admissibility.improper_rate_integral.useful_ratio": rate(iri.distinct, iri.calls),
        "admissibility.improper_rate_integral.s": iri.total_s,
        "quadrature.adaptive_simpson.calls": simpson.calls,
        "quadrature.adaptive_simpson.self_s": simpson.self_s,
        "verify.nonlinear_flow.calls": flow.calls,
        "verify.nonlinear_flow.steps": flow.work,
        "verify.nonlinear_flow.self_s": flow.self_s,
        "verify.nonlinear_flow.steps_per_s": rate(flow.work, flow.self_s),
        "verify.check_invariance.s": get("verify.check_invariance").total_s,
        "verify.check_decay.s": get("verify.check_decay").total_s,
        "verify.check_perturbation_bound.s": get("verify.check_perturbation_bound").total_s,
        "dichotomy.verify_dichotomy.s": get("dichotomy.verify_dichotomy").total_s,
        "linalg.rk4_propagate.calls": rk4.calls,
        "linalg.rk4_propagate.self_s": rk4.self_s,
        "config.resolve_s": get("config.resolve_config").total_s,
        "cli.artifact_bytes": sum(child["artifact_bytes"] for child in children),
        "cli.stage_other_s": stage_other,
    }
