"""In-memory spans around calls into the package's layers.

The package is not edited: a span is recorded by replacing a function in the
namespace of the module that calls it (``manifold`` imports the quadrature
routines by name, so they are wrapped inside ``manifold``).  Spans share the
run id of one ``stablemanifold all`` invocation.  Hot boundaries (tens of
thousands of calls) are aggregated into counters under their parent span
instead of being kept one by one.
"""
from __future__ import annotations

import math
import time
from typing import Any, Callable


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[tuple[int | None, str], list[float]] = {}
        self.keys: dict[str, set] = {}
        self._stack: list[list] = []   # open spans: [id, accumulated child time]
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, hot: bool = False,
             work: Callable[..., float] | None = None,
             key: Callable[..., Any] | None = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``work`` maps the call's arguments to a work count summed per span
        name; ``key`` maps them to a hashable key whose distinct values are
        counted, so repeated work shows as a useful ratio below one.
        """
        stack, counters = self._stack, self.counters
        keys = self.keys.setdefault(name, set()) if key is not None else None

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                amount = work(*args, **kwargs) if work is not None else 0.0
                if keys is not None:
                    keys.add(key(*args, **kwargs))
                if hot:
                    slot = counters.setdefault((parent_id, name), [0, 0.0, 0.0, 0.0])
                    slot[0] += 1
                    slot[1] += end - start
                    slot[2] += frame[1]
                    slot[3] += amount
                else:
                    self.spans.append({"id": span_id, "name": name,
                                       "parent": parent_id, "run": self.run_id,
                                       "start": start, "end": end, "child_s": frame[1],
                                       "work": amount})

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, name: str, **kw) -> None:
        setattr(module, attr, self.wrap(name, getattr(module, attr), **kw))

    def dump(self) -> dict:
        return {
            "run": self.run_id,
            "spans": self.spans,
            "counters": [{"parent": parent, "name": name, "calls": c[0], "total_s": c[1],
                          "child_s": c[2], "work": c[3]}
                         for (parent, name), c in self.counters.items()],
            "distinct": {name: len(v) for name, v in self.keys.items()},
        }


def install_stage_spans(tracer: Tracer, cli, before: Callable[[], None]) -> None:
    """Span every pipeline stage that ``all`` dispatches (``cli.<stage>``).

    ``before`` is called ahead of each stage, outside its span.
    """
    for stage, fn in list(cli._DISPATCH.items()):
        def run_stage(runner, spanned=tracer.wrap(f"cli.{stage}", fn)):
            before()
            return spanned(runner)
        cli._DISPATCH[stage] = run_stage


def _flow_steps(system, pert, s, v0, tau, h=1e-3, *rest, **kw) -> int:
    # mirrors the step count of manifold.nonlinear_flow
    return 0 if tau == 0.0 else max(1, int(math.ceil(tau / h)))


def install_layer_spans(tracer: Tracer) -> None:
    """Span the layer boundaries whose per-layer metrics the benchmark reports."""
    from stablemanifold import admissibility, cli, dichotomy, manifold, verify

    def solve_key(system, mu, nu, params, pert, cfg):
        cap = cfg.C if cfg.C is not None else 2.0 * params.D
        delta = cfg.delta if cfg.delta is not None else admissibility.delta_max(
            pert.c, pert.q, cap, params.D, cfg.delta_cap)
        return (pert.label, delta, cap)

    tracer.patch(cli, "resolve_config", "config.resolve_config")
    for module in (cli, verify):
        tracer.patch(module, "solve_manifold", "manifold.solve_manifold", key=solve_key)
    tracer.patch(manifold, "apply_phi_operator", "manifold.apply_phi_operator")
    tracer.patch(manifold, "eval_phi_many", "manifold.eval_phi_many", hot=True,
                 work=lambda graph, t, xi: len(t))
    tracer.patch(manifold, "cumulative_simpson", "manifold.inner.sweep", hot=True)
    tracer.patch(manifold, "composite_simpson", "manifold.inner.node_path", hot=True,
                 work=lambda y, h: len(y))
    for module in (manifold, admissibility):
        tracer.patch(module, "adaptive_simpson", "quadrature.adaptive_simpson", hot=True)
    tracer.patch(admissibility, "improper_rate_integral",
                 "admissibility.improper_rate_integral",
                 key=lambda mu, nu, p, eps, s, *rest, **kw: (s, p, eps))
    tracer.patch(verify, "nonlinear_flow", "verify.nonlinear_flow", hot=True,
                 work=_flow_steps)
    for attr in ("check_invariance", "check_decay", "check_perturbation_bound"):
        tracer.patch(cli, attr, f"verify.{attr}")
    tracer.patch(cli, "verify_dichotomy", "dichotomy.verify_dichotomy")
    tracer.patch(dichotomy, "rk4_propagate", "linalg.rk4_propagate", hot=True)
