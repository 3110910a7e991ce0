"""Reduced-size self-test of the benchmark.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` names exactly the workloads and metrics the
benchmark defines; runs every workload once at tiny size, untraced and twice
traced, and checks that each run is correct and reports every named metric
with its unit, and that the work counts repeat exactly between the traced
runs; and checks that the benchmark fails without printing a result in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess, expected: dict) -> dict:
    """The metrics of a run, after checking its result line against ``expected``."""
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"run not correct: {result}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"metrics {got} differ from {expected}")
    return result["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {w["name"]: w["why"] for w in spec["workloads"]} != workloads.WHY:
        raise AssertionError("BENCHMARK.json workloads differ from workloads.WHY")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if end_to_end != {k: v[0] for k, v in metrics.END_TO_END.items()}:
        raise AssertionError("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if per_layer != {k: v[0] for k, v in metrics.PER_LAYER.items()}:
        raise AssertionError("BENCHMARK.json per_layer differs from metrics.PER_LAYER")

    for workload in workloads.WHY:
        result_of(run(ROOT, workload, 0), end_to_end)
        first, second = (result_of(run(ROOT, workload, 1), per_layer) for _ in range(2))
        counts = [name for name, unit in per_layer.items()
                  if unit in ("count", "bytes", "ratio")]
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        if differ:
            raise AssertionError(f"{workload}: counts differ between traced runs: {differ}")
        print(f"{workload}: ok")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "oracle", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        raise AssertionError("the benchmark ran without the package's sources")
    print("without sources: fails as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
