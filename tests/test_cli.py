import csv
import json
import math
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from stablemanifold.cli import main

CONFIG_DIR = resources.files("stablemanifold") / "configs"
ORACLE = str(CONFIG_DIR / "oracle_cubic.json")
EXPONENTIAL = str(CONFIG_DIR / "exponential.json")
ALL_CONFIGS = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".json"))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def tree_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_all_command_on_oracle(tmp_path):
    out = str(tmp_path / "run")
    assert main(["all", "--config", ORACLE, "--out", out]) == 0
    names = set(os.listdir(out))
    assert "manifest.json" in names
    for cmd in ("check-rates", "check-dichotomy", "admissibility", "solve-manifold",
                "verify", "perturb-compare"):
        assert f"report-{cmd}.json" in names
    for table in ("rates.csv", "dichotomy-pairs.csv", "beta.csv", "graph.csv",
                  "convergence.csv", "verify-invariance.csv", "verify-decay.csv",
                  "compare.csv"):
        assert table in names
    report = read_json(os.path.join(out, "report-perturb-compare.json"))
    assert report["passed"] is True
    assert report["quotient"] == pytest.approx(2e-4, rel=1e-3)
    assert report["stability_constant"] == pytest.approx(0.3456, rel=1e-9)


def test_manifest_records_run(tmp_path):
    out = str(tmp_path / "run")
    assert main(["admissibility", "--config", ORACLE, "--out", out, "--seed", "3"]) == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["package"]["name"] == "stablemanifold"
    assert manifest["command"] == "admissibility"
    assert manifest["cli"] == {"seed": 3, "tol_scale": 1.0, "out": out}
    # the embedded config is fully materialized, defaults included
    assert manifest["config"]["solver"]["max_outer"] == 30
    assert manifest["config"]["checks"]["beta_points"] == 10
    assert manifest["config"]["label"] == "oracle_cubic"


def test_rerun_from_manifest_is_identical(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["admissibility", "--config", ORACLE, "--out", out1]) == 0
    assert main(["admissibility", "--config", os.path.join(out1, "manifest.json"),
                 "--out", out2]) == 0
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    assert set(t1) == set(t2)
    for name in t1:
        if name == "manifest.json":
            continue  # differs only in cli.out
        assert t1[name] == t2[name], name


def test_admissibility_runs_one_tail_quadrature_per_s(tmp_path, monkeypatch):
    from stablemanifold import admissibility
    keys = []
    quadrature = admissibility.improper_rate_integral

    def counting(mu, nu, p, eps, s, *rest):
        keys.append((p, eps, s))
        return quadrature(mu, nu, p, eps, s, *rest)

    monkeypatch.setattr(admissibility, "improper_rate_integral", counting)
    assert main(["admissibility", "--config", EXPONENTIAL, "--out", str(tmp_path)]) == 0
    assert keys and len(keys) == len(set(keys))


def test_manifest_recording_threads_still_replays(tmp_path):
    # manifests written while --threads existed record it; replay ignores it
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["admissibility", "--config", ORACLE, "--out", out1, "--seed", "3"]) == 0
    manifest = os.path.join(out1, "manifest.json")
    old = read_json(manifest)
    old["cli"]["threads"] = 2
    with open(manifest, "w", encoding="utf-8") as fh:
        json.dump(old, fh)
    assert main(["admissibility", "--config", manifest, "--out", out2]) == 0
    assert read_json(os.path.join(out2, "manifest.json"))["cli"] == {
        "seed": 3, "tol_scale": 1.0, "out": out2}
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    for name in t1:
        if name != "manifest.json":
            assert t1[name] == t2[name], name


def test_manifest_replays_recorded_flags(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    out3 = str(tmp_path / "c")
    assert main(["verify", "--config", ORACLE, "--out", out1,
                 "--seed", "9", "--tol-scale", "2.0"]) == 0
    manifest = os.path.join(out1, "manifest.json")
    # flag-free rerun adopts the recorded seed and tol_scale
    assert main(["verify", "--config", manifest, "--out", out2]) == 0
    m2 = read_json(os.path.join(out2, "manifest.json"))
    assert m2["cli"]["seed"] == 9
    assert m2["cli"]["tol_scale"] == 2.0
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    for name in t1:
        if name != "manifest.json":
            assert t1[name] == t2[name], name
    # an explicit flag still wins over the recorded one
    assert main(["verify", "--config", manifest, "--out", out3, "--seed", "0"]) == 0
    m3 = read_json(os.path.join(out3, "manifest.json"))
    assert m3["cli"]["seed"] == 0
    assert m3["cli"]["tol_scale"] == 2.0
    t3 = tree_bytes(out3)
    assert t3["verify-invariance.csv"] != t1["verify-invariance.csv"]


def test_verify_is_bit_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["verify", "--config", ORACLE, "--out", out1, "--seed", "7"]) == 0
    assert main(["verify", "--config", ORACLE, "--out", out2, "--seed", "7"]) == 0
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    for name in t1:
        if name != "manifest.json":
            assert t1[name] == t2[name], name


def test_schema_violation_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cfg = read_json(ORACLE)
    cfg["solver"]["nodes_per_axis"] = 10
    bad.write_text(json.dumps(cfg))
    assert main(["check-rates", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "solver.nodes_per_axis" in err


def test_unknown_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    cfg = read_json(ORACLE)
    cfg["extra_section"] = {}
    bad.write_text(json.dumps(cfg))
    assert main(["all", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "extra_section" in capsys.readouterr().err


def test_nonmonotone_rate_exits_one(tmp_path, capsys):
    bad = tmp_path / "hump.json"
    cfg = read_json(ORACLE)
    cfg["rates"]["mu"] = {"expr": "1 + t*exp(-t)"}
    bad.write_text(json.dumps(cfg))
    out = str(tmp_path / "o")
    assert main(["check-rates", "--config", bad.as_posix(), "--out", out]) == 1
    assert "check-rates: FAIL" in capsys.readouterr().err
    report = read_json(os.path.join(out, "report-check-rates.json"))
    assert report["passed"] is False
    assert report["rates"]["mu"]["monotone_on_grid"] is False


def test_bad_cli_values_exit_two(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["verify", "--config", ORACLE, "--out", out, "--tol-scale", "0"]) == 2
    assert main(["verify", "--config", ORACLE, "--out", out, "--seed", "-2"]) == 2
    err = capsys.readouterr().err
    assert "--tol-scale" in err and "--seed" in err


def test_missing_config_exits_two(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_graph_csv_carries_the_cubic(tmp_path):
    out = str(tmp_path / "run")
    assert main(["solve-manifold", "--config", ORACLE, "--out", out]) == 0
    with open(os.path.join(out, "graph.csv"), newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["slice"] == "0"]
    assert len(rows) == 41
    edge = max(rows, key=lambda r: float(r["xi_1"]))
    xi = float(edge["xi_1"])
    assert xi == pytest.approx(0.02 * math.sqrt(2.0), rel=1e-6)
    assert float(edge["phi_1"]) == pytest.approx(-xi ** 3 / 4.0, rel=1e-3)
    # the tabulated graph, interpolated at xi = 0.02, gives about -2.0e-6
    pts = sorted((float(r["xi_1"]), float(r["phi_1"])) for r in rows)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    assert float(np.interp(0.02, xs, ys)) == pytest.approx(-2.0e-6, rel=1e-2)
    report = read_json(os.path.join(out, "report-solve-manifold.json"))
    assert report["iterations"][0]["distance"] == pytest.approx(2e-4, rel=1e-6)
    assert report["iterations"][-1]["distance"] <= 1e-8


def test_convergence_csv(tmp_path):
    out = str(tmp_path / "run")
    assert main(["solve-manifold", "--config", ORACLE, "--out", out]) == 0
    with open(os.path.join(out, "convergence.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["iter", "distance", "ratio"]
    assert len(rows) == 2
    assert float(rows[0]["distance"]) == pytest.approx(2e-4, rel=1e-6)
    assert math.isnan(float(rows[0]["ratio"]))
    assert float(rows[1]["ratio"]) == 0.0


def test_beta_at_zero_on_exponential_config(tmp_path):
    out = str(tmp_path / "run")
    assert main(["admissibility", "--config", EXPONENTIAL, "--out", out]) == 0
    report = read_json(os.path.join(out, "report-admissibility.json"))
    assert report["beta"]["beta_at_zero"] == pytest.approx(1.378405, abs=5e-7)
    assert report["beta"]["closed_form"] == "exponential"
    with open(os.path.join(out, "beta.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["s", "beta_quadrature", "beta_closed_form", "beta_tilde",
                             "mu_pow_a_over_beta", "tail_integral", "identity_residual"]
    first = rows[0]
    assert float(first["s"]) == 0.0
    # mu(0)^a = 1, so the decay-envelope column at s = 0 is just 1/beta(0)
    assert float(first["mu_pow_a_over_beta"]) == pytest.approx(1.0 / 1.378405, rel=1e-6)


def test_booleans_serialize_as_json_booleans(tmp_path):
    out = str(tmp_path / "run")
    assert main(["check-rates", "--config", ORACLE, "--out", out]) == 0
    text = open(os.path.join(out, "report-check-rates.json")).read()
    assert '"passed": true' in text
    assert '"passed": 1' not in text and '"passed": 0' not in text
    assert '"diverges": true' in text


def test_tol_scale_loosens_gates(tmp_path):
    out = str(tmp_path / "run")
    assert main(["verify", "--config", ORACLE, "--out", out, "--tol-scale", "100"]) == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    # the manifest keeps the unscaled config; the factor lives in cli metadata
    assert manifest["config"]["verification"]["tol"] == 0.01
    assert manifest["cli"]["tol_scale"] == 100.0


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_bundled_configs_run_clean(tmp_path, name):
    out = str(tmp_path / name.replace(".json", ""))
    assert main(["all", "--config", str(CONFIG_DIR / name), "--out", out]) == 0
    for cmd in ("check-rates", "check-dichotomy", "admissibility", "solve-manifold",
                "verify", "perturb-compare"):
        assert read_json(os.path.join(out, f"report-{cmd}.json"))["passed"] is True


def test_console_script_entry(tmp_path):
    out = str(tmp_path / "run")
    proc = subprocess.run([sys.executable, "-m", "stablemanifold.cli", "check-rates",
                           "--config", ORACLE, "--out", out],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check-rates: PASS" in proc.stdout
