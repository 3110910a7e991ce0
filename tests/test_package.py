import os
import subprocess
import sys
from pathlib import Path

import stablemanifold


def test_version_present():
    assert stablemanifold.__version__


def test_public_names_resolve():
    for name in stablemanifold.__all__:
        assert getattr(stablemanifold, name) is not None


def test_key_entry_points_exported():
    for name in ("solve_manifold", "verify_dichotomy", "beta_value", "delta_max",
                 "builtin_rate", "check_invariance", "check_decay",
                 "check_perturbation_bound", "resolve_config"):
        assert name in stablemanifold.__all__


def test_benchmark_tracer_finds_every_name_it_patches():
    # perfbench/tracer.py replaces module attributes of the package by name, in place,
    # hence the subprocess; a renamed or dropped attribute fails here first
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    code = "import tracer; tracer.install_layer_spans(tracer.Tracer('names'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
