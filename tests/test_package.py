import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import stablemanifold

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_section(heading: str) -> str:
    """The README text from ``heading`` to the next heading of the same or a higher level."""
    text = README.read_text(encoding="utf-8")
    level = heading.split(" ")[0]
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    end = re.search(rf"^#{{1,{len(level)}}} ", text[start:], flags=re.M)
    return text[start:start + end.start()] if end else text[start:]


def test_version_present():
    assert stablemanifold.__version__


def test_public_names_resolve():
    for name in stablemanifold.__all__:
        assert getattr(stablemanifold, name) is not None


def test_key_entry_points_exported():
    for name in ("solve_manifold", "verify_dichotomy", "BetaFunction", "delta_max",
                 "builtin_rate", "check_invariance", "check_decay",
                 "check_perturbation_bound", "resolve_config"):
        assert name in stablemanifold.__all__


def test_readme_library_example_runs():
    example = re.search(r"```python\n(.*?)```", readme_section("## Library"), flags=re.S)
    exec(compile(example.group(1), "README.md", "exec"), {})


def test_readme_key_entry_points_resolve():
    section = readme_section("## Library")
    entry_points = section[section.index("Key entry points:"):].split("\n#")[0]
    names = re.findall(r"`([A-Za-z_][\w.]*)", entry_points)
    assert "BetaFunction.table" in names and "solver_radius" in names
    for name in names:
        obj = stablemanifold
        for part in name.split("."):
            assert hasattr(obj, part), name
            obj = getattr(obj, part)


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


def test_traced_run_passes(tmp_path):
    # the tracer's solve key takes solve_manifold's six positional arguments and reads
    # delta and C from the config; exponential.json resolves delta "auto" at run start
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       str(root / "perfbench")]))
    code = ("import sys, tracer; tracer.install_layer_spans(tracer.Tracer('run')); "
            "from stablemanifold import cli; sys.exit(cli.main(sys.argv[1:]))")
    config = root / "src" / "stablemanifold" / "configs" / "exponential.json"
    assert json.loads(config.read_text())["solver"]["delta"] == "auto"
    proc = subprocess.run([sys.executable, "-c", code, "all", "--config", str(config),
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    reports = sorted(tmp_path.glob("report-*.json"))
    assert len(reports) == 6
    for path in reports:
        assert json.loads(path.read_text())["passed"] is True, path.name


def test_failing_property_test_is_reported(tmp_path):
    # under the project's warning filters a failing @given test must end as one
    # failure with its falsifying example, and the session must run on
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n\n\n"
        "def test_after():\n"
        "    pass\n")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path),
                           "test_property.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert proc.returncode == 1 and "1 failed, 1 passed" in proc.stdout, proc.stdout[-2000:]
    assert "Falsifying example: test_small(" in proc.stdout


def _unused_imports(source: str) -> list[str]:
    """Imported names that the module never references, lists in ``__all__`` or marks
    ``# noqa: F401`` on the name's own line."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if (name not in used and name not in exported
                    and "# noqa: F401" not in lines[alias.lineno - 1]):
                unused.append(f"{name} (line {alias.lineno})")
    return unused


def test_unused_import_check_flags_a_leftover():
    source = ("import math\nimport os  # noqa: F401\nfrom x import (a,\n    b)\n"
              "__all__ = ['b']\nprint(math.pi)\n")
    assert _unused_imports(source) == ["a (line 3)"]


def test_every_import_is_used_exported_or_marked():
    package = Path(stablemanifold.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name
