"""Benchmark of the ``stablemanifold all`` pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {oracle,matrix-d2,families} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

One client runs the workload's configs back to back (a closed loop), one
``stablemanifold all`` child process at a time, each child single-threaded.
A pass is one run of every config of the workload; passes repeat until the
next one would end after S seconds (at least one pass).

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
``metrics.END_TO_END``, each the median over passes, with times scaled to
the reference speed of ``reference.py``.  With ``--trace 1``
untraced and traced passes alternate; it reports the per-layer metrics of
``metrics.PER_LAYER`` from the traced passes, including the tracing overhead
(median traced minus median untraced wall time).

Every child is checked: exit code 0, every ``report-*.json`` passed, the
closed-form cubic graph within the C4 bound where the config has one, and
artifacts bit-identical across the passes of the run (``manifest.json``
without its ``cli.out`` field).  A failed check makes the run fail: it still
prints its result line, with ``"correct": false``, and exits with code 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import metrics
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench_work"
STAGES = ("check-rates", "check-dichotomy", "admissibility", "solve-manifold", "verify",
          "perturb-compare")
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg_1m": os.getloadavg()[0]}


def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over the artifacts of one run, and their total size in bytes."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        if path.name == "manifest.json":
            manifest = json.loads(data)
            del manifest["cli"]["out"]  # records the --out path, which differs per run
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def run_child(config: Path, out: Path, seed: int, trace: bool, run_id: str) -> dict:
    """Run one ``stablemanifold all`` child to completion and measure it."""
    record, log = out.with_suffix(".record.json"), out.with_suffix(".log")
    args = [sys.executable, str(CHILD), str(record), "1" if trace else "0", run_id,
            "all", "--config", str(config), "--out", str(out), "--seed", str(seed)]
    env = {**os.environ, **THREAD_PINS}
    with open(log, "wb") as fh:
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, args, env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                                           (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)])
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        end = time.monotonic()
    child = {"rc": os.waitstatus_to_exitcode(status), "launch": start, "exit": end,
             "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if child["rc"] != 0 or not record.exists():
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        child["errors"].append(f"exit code {child['rc']}: {' | '.join(tail)}")
        return child
    child["record"] = json.loads(record.read_text())
    return child


def check_artifacts(child: dict, out: Path, cubic: bool) -> None:
    """Correctness checks on the artifacts of one successful child."""
    for stage in STAGES:
        report = out / f"report-{stage}.json"
        if not report.exists() or json.loads(report.read_text()).get("passed") is not True:
            child["errors"].append(f"report-{stage}.json missing or not passed")
    if cubic:
        err = workloads.cubic_graph_error(out / "graph.csv")
        if not err <= workloads.CUBIC_GRAPH_TOL:
            child["errors"].append(f"cubic graph error {err:.3e} above "
                                   f"{workloads.CUBIC_GRAPH_TOL:g}")
    child["digest"], child["artifact_bytes"] = artifact_digest(out)


def run_pass(work: Path, cases, seed: int, trace: bool, index: int,
             digests: dict[str, str]) -> list[dict]:
    children = []
    for name, config, cubic in cases:
        out = work / f"{name}-{index}"
        child = run_child(config, out, seed, trace, f"{name}-{index}")
        if child["rc"] == 0 and "record" in child:
            check_artifacts(child, out, cubic)
            first = digests.setdefault(name, child["digest"])
            if child["digest"] != first:
                child["errors"].append("artifacts differ from the first pass of this run")
        shutil.rmtree(out, ignore_errors=True)
        child["name"] = name
        children.append(child)
    return children


def measure(work: Path, cases, seed: int, seconds: float, trace: bool):
    """Run passes until the next would end after ``seconds``; alternate if tracing."""
    passes: list[tuple[bool, list[dict]]] = []
    digests: dict[str, str] = {}
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, run_pass(work, cases, seed, traced, len(passes), digests)))
        elapsed = time.monotonic() - start
        done = not trace or len(passes) >= 2
        if done and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: coarse configs for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "stablemanifold" / "cli.py").is_file():
        print(f"perfbench: no stablemanifold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops its child (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print("machine " + json.dumps(machine(), sort_keys=True))
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        cases = []
        for name, cfg, cubic in workloads.cases(args.workload, args.size == "tiny"):
            path = work / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=2))
            cases.append((name, path, cubic))
        passes = measure(work, cases, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = [c for _, pass_children in passes for c in pass_children]
    failed = [c for c in children if c["errors"]]
    for c in failed:
        print(f"FAIL {c['name']}: {'; '.join(c['errors'])}", file=sys.stderr)
    print(f"workload {args.workload}: {len(passes)} passes, {len(children)} runs, "
          f"fail_frac {len(failed) / len(children):.4g} (ratio)")
    correct, result = not failed, {}
    if correct and args.trace:
        correct, result = per_layer_result(passes)
    elif correct:
        result = end_to_end_result(passes)
    print(json.dumps({"correct": correct, "attempted": len(children),
                      "failed": len(failed), "metrics": result}))
    return 0 if correct else 1


def end_to_end_result(passes) -> dict:
    children = [c for traced, c in passes if not traced]
    plain = [metrics.pass_end_to_end(c) for c in children]
    raw = [metrics.pass_end_to_end(c, scale=False) for c in children]
    result = {}
    for name, (unit, _) in metrics.END_TO_END.items():
        samples = [p[name] for p in plain]
        result[name] = {"value": metrics.median(samples), "unit": unit}
        print(f"{name} {result[name]['value']:.6g} {unit}  (median of {len(samples)}, "
              f"range {min(samples):.6g}..{max(samples):.6g}; as measured "
              f"{metrics.median([p[name] for p in raw]):.6g})")
    loops = [t for c in children for t in metrics.reference_s(c)]
    print(f"reference loop {metrics.median(loops) * 1e3:.4g} ms (median of {len(loops)}, "
          f"range {min(loops) * 1e3:.4g}..{max(loops) * 1e3:.4g}); times above are "
          f"scaled to {reference.REFERENCE_S * 1e3:g} ms")
    return result


def per_layer_result(passes) -> tuple[bool, dict]:
    plain = [c for traced, c in passes if not traced]
    traced = [c for t, c in passes if t]
    counts = [metrics.pass_counts(c) for c in traced]
    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print("FAIL work counts differ between traced passes", file=sys.stderr)
    layer = [metrics.pass_per_layer(c) for c in traced]
    values = {name: metrics.median([p[name] for p in layer]) for name in layer[0]}
    wall = [metrics.pass_end_to_end(c)["wall_s"] for c in traced]
    values["trace.overhead_s"] = (metrics.median(wall) - metrics.median(
        [metrics.pass_end_to_end(c)["wall_s"] for c in plain]))
    result = {}
    for name, (unit, _, moves, where) in metrics.PER_LAYER.items():
        result[name] = {"value": values[name], "unit": unit}
        print(f"{name} {values[name]:.6g} {unit}  (moves {moves} on {where})")
    print(f"traced passes {len(traced)}, untraced {len(plain)}, "
          f"tracing overhead {values['trace.overhead_s']:.4g} s "
          f"({values['trace.overhead_s'] / metrics.median(wall) * 100:.3g}% of traced wall_s)")
    return repeat, result


if __name__ == "__main__":
    sys.exit(main())
