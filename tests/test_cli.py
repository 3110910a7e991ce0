import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from stablemanifold import cli, manifold
from stablemanifold.cli import main

CONFIG_DIR = resources.files("stablemanifold") / "configs"
ORACLE = str(CONFIG_DIR / "oracle_cubic.json")
EXPONENTIAL = str(CONFIG_DIR / "exponential.json")
LOGLOG = str(CONFIG_DIR / "loglog_example.json")
ALL_CONFIGS = sorted(p.name for p in CONFIG_DIR.iterdir() if p.name.endswith(".json"))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def track_stages(monkeypatch):
    """Wrap every stage of ``cli._DISPATCH``; the returned list's one item names the
    stage that runs (None before the first)."""
    stage = [None]

    def staged(command, run):
        def wrapper(runner):
            stage[0] = command
            return run(runner)
        return wrapper

    for command, run in list(cli._DISPATCH.items()):
        monkeypatch.setitem(cli._DISPATCH, command, staged(command, run))
    return stage


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
    solve = read_json(os.path.join(out, "report-solve-manifold.json"))
    slices = solve["slices"]
    assert len(slices["t_cut"]) == len(slices["grid_points"]) == 21
    # the cubic's forcing has no stable part: no node path runs a Simpson pass
    assert solve["inner"] == {"node_paths": 21 * 41, "points": 41 * sum(slices["grid_points"]),
                              "simpson_sweeps": 0}
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
    assert manifest["config"]["solver"]["tail_abs_tol"] == 1e-12
    assert manifest["config"]["checks"]["beta_points"] == 10
    assert manifest["config"]["label"] == "oracle_cubic"


def test_rerun_from_manifest_is_identical(tmp_path):
    # the sampled stages replay their recorded --seed from the manifest
    for command, flags in (("admissibility", []), ("verify", ["--seed", "7"]),
                           ("perturb-compare", ["--seed", "7"])):
        out1 = str(tmp_path / command / "a")
        out2 = str(tmp_path / command / "b")
        assert main([command, "--config", ORACLE, "--out", out1, *flags]) == 0
        assert main([command, "--config", os.path.join(out1, "manifest.json"),
                     "--out", out2]) == 0
        t1, t2 = tree_bytes(out1), tree_bytes(out2)
        assert set(t1) == set(t2)
        for name in t1:
            if name == "manifest.json":
                continue  # differs only in cli.out
            assert t1[name] == t2[name], (command, name)


def test_sample_streams_differ_by_stream_and_seed(tmp_path):
    from stablemanifold.config import load_run_input, resolve_config
    runner = cli.Runner(resolve_config(load_run_input(ORACLE)[0]), str(tmp_path), 7)
    assert runner.rng(1).random() != runner.rng(2).random()
    tables = []
    for seed in ("7", "8"):
        out = str(tmp_path / seed)
        assert main(["verify", "--config", ORACLE, "--out", out, "--seed", seed]) == 0
        tables.append(tree_bytes(out)["verify-invariance.csv"])
    assert tables[0] != tables[1]


def test_admissibility_runs_one_tail_quadrature_per_s(tmp_path, monkeypatch):
    from stablemanifold import admissibility
    keys = []
    quadrature = admissibility.improper_rate_integrals

    def counting(mu, nu, p, eps, s_values, *rest):
        keys.extend((p, eps, float(s)) for s in s_values)
        return quadrature(mu, nu, p, eps, s_values, *rest)

    monkeypatch.setattr(admissibility, "improper_rate_integrals", counting)
    assert main(["admissibility", "--config", EXPONENTIAL, "--out", str(tmp_path)]) == 0
    assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_all_computes_each_tail_integral_once(tmp_path, monkeypatch, name):
    # one BetaFunction serves admissibility, the base solve and both comparison solves;
    # s values are compared by value, so a point one ulp off a cached one counts twice
    from stablemanifold import admissibility, manifold
    calls = []
    stage = track_stages(monkeypatch)
    quadrature = admissibility.improper_rate_integrals

    def counting(mu, nu, p, eps, s_values, *rest):
        calls.extend((stage[0], p, eps, float(s)) for s in s_values)
        return quadrature(mu, nu, p, eps, s_values, *rest)

    monkeypatch.setattr(admissibility, "improper_rate_integrals", counting)
    monkeypatch.setattr(manifold, "improper_rate_integrals", counting)
    assert main(["all", "--config", str(CONFIG_DIR / name), "--out", str(tmp_path)]) == 0
    assert calls
    for i, (_, p, eps, s) in enumerate(calls):
        for _, p2, eps2, s2 in calls[i + 1:]:
            assert not (p == p2 and eps == eps2 and math.isclose(s, s2, rel_tol=1e-15)), \
                (p, eps, s, s2)
    if name != "oracle_cubic.json":  # oracle's odd tenths lie on no admissibility grid
        assert not [c for c in calls if c[0] == "solve-manifold"]


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_one_solve_per_perturbation(tmp_path, monkeypatch, name):
    # f is solved once, at the radius of its comparison with f_bar, and perturb-compare
    # solves only f_bar; run alone, perturb-compare solves f through Runner.solve first
    from stablemanifold import verify
    calls = []
    stage = track_stages(monkeypatch)
    solve = manifold.solve_manifold

    def counting(system, mu, nu, params, pert, cfg):
        # a resolved radius: the benchmark's tracer keys each solve by (delta, C)
        assert type(cfg.delta) is float and type(cfg.C) is float
        calls.append((stage[0], pert.label, cfg.delta))
        return solve(system, mu, nu, params, pert, cfg)

    monkeypatch.setattr(cli, "solve_manifold", counting)
    monkeypatch.setattr(verify, "solve_manifold", counting)
    built = []
    build = manifold._build_tables
    monkeypatch.setattr(manifold, "_build_tables",
                        lambda *args: built.append((stage[0], len(args[6]))) or build(*args))
    config = str(CONFIG_DIR / name)
    assert main(["all", "--config", config, "--out", str(tmp_path / "all")]) == 0
    assert [c[0] for c in calls] == ["solve-manifold", "perturb-compare"]
    # f_bar reuses the slice tables of f and builds only those whose cut c_bar moves
    n_slices = len(read_json(tmp_path / "all" / "manifest.json")["config"]["solver"]["s_grid"])
    assert built == [("solve-manifold", n_slices),
                     ("perturb-compare", 1 if name == "loglog_example.json" else 0)]
    report = read_json(tmp_path / "all" / "report-perturb-compare.json")
    assert calls[0][1] != calls[1][1] == report["comparison_label"]
    assert calls[0][2] == calls[1][2] == report["delta"]
    # every bundled config compares the cubic of coef 1 with its scale 1.05
    auto = read_json(config)["solver"]["delta"] == "auto"
    solve_report = read_json(tmp_path / "all" / "report-solve-manifold.json")
    assert solve_report["delta_resolved_at_c"] == (1.05 if auto else None)
    calls.clear()
    assert main(["perturb-compare", "--config", config, "--out", str(tmp_path / "alone")]) == 0
    assert [c[0] for c in calls] == ["perturb-compare"] * 2


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_slice_points_on_admissibility_grids_are_the_grid_doubles(tmp_path, monkeypatch,
                                                                   name):
    # a slice that equals a beta or monotonicity point as a rational is the same double,
    # so the solve finds its tail integral in the cache admissibility filled
    from fractions import Fraction
    from stablemanifold.config import load_run_input, resolve_config
    raw = load_run_input(str(CONFIG_DIR / name))[0]
    resolved = resolve_config(raw)
    runner = cli.Runner(resolved, str(tmp_path), 0)
    grids = []
    check = cli.check_monotonicity

    def capture(beta, grid, *rest):
        grids.append(np.asarray(grid).tolist())
        return check(beta, grid, *rest)

    monkeypatch.setattr(cli, "check_monotonicity", capture)
    _, report = runner.admissibility()
    grids.append(report["beta"]["s_values"])
    slices, checks = resolved["solver"]["s_grid"], resolved["checks"]
    matched = 0
    for grid, n in zip(grids, (checks["monotonicity_points"], checks["beta_points"])):
        assert len(grid) == n
        on_grid = {Fraction(slices[-1]) * i / (n - 1): g for i, g in enumerate(grid)}
        for k, s in enumerate(slices):
            exact = Fraction(raw["solver"]["s_max"]) * k / (len(slices) - 1)
            if exact in on_grid:
                assert s == on_grid[exact], (k, s, on_grid[exact])
                matched += 1
    assert matched > 4


@pytest.mark.parametrize("config", [LOGLOG, ORACLE], ids=["loglog", "oracle"])
def test_shared_beta_changes_no_artifact(tmp_path, config):
    # on the oracle the solve's batch holds the ten odd tenths, which no admissibility
    # grid has: I(s) must not depend on the batch it is computed in
    assert main(["all", "--config", config, "--out", str(tmp_path / "all")]) == 0
    together = tree_bytes(tmp_path / "all")
    for command, tables in (("admissibility", ["beta.csv"]),
                            ("solve-manifold", ["graph.csv", "convergence.csv"]),
                            ("perturb-compare", ["compare.csv"])):
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out)]) == 0
        alone = tree_bytes(out)
        for name in tables + [f"report-{command}.json"]:
            assert alone[name] == together[name], name


def test_solve_rejects_a_beta_function_of_another_order(tmp_path):
    from stablemanifold.admissibility import BetaFunction
    from stablemanifold.config import load_run_input, resolve_config
    from stablemanifold.manifold import solve_manifold
    r = cli.Runner(resolve_config(load_run_input(LOGLOG)[0]), str(tmp_path), 0)
    other = BetaFunction(r.mu, r.nu, r.params.a, r.params.eps, r.pert.q + 1.0)
    with pytest.raises(ValueError, match="beta_fn was built for another"):
        solve_manifold(r.system, r.mu, r.nu, r.params, r.pert, replace(r.cfg, beta_fn=other))


def test_manifest_with_fractional_seed_exits_two(tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["check-rates", "--config", ORACLE, "--out", str(first)]) == 0
    manifest = read_json(first / "manifest.json")
    manifest["cli"]["seed"] = 2.7
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "b"
    assert main(["check-rates", "--config", str(path), "--out", str(out)]) == 2
    assert "cli.seed: expected an integer, got 2.7" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_of_0_2_0_exits_two_on_a_dropped_checks_key(tmp_path, capsys):
    # 0.2.0 materialized five report-only checks keys that are constants since 0.3.0
    first = tmp_path / "a"
    assert main(["check-rates", "--config", ORACLE, "--out", str(first)]) == 0
    manifest = read_json(first / "manifest.json")
    manifest["package"]["version"] = "0.2.0"
    manifest["config"]["checks"].update(axiom_t_max=50.0, axiom_points=201,
                                        dichotomy_t_max=10.0, sharpness_k_max=5,
                                        beta_s_max=2.0)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "b"
    assert main(["check-rates", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: checks.axiom_points: unknown key\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["tables", "beta_fn"])
def test_run_scoped_solver_fields_are_no_config_keys(tmp_path, capsys, key):
    raw = read_json(ORACLE)
    raw["solver"][key] = []
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["check-rates", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: solver.{key}: unknown key\n"
    assert not out.exists()


def test_propagator_failure_report_names_the_slice(tmp_path, monkeypatch):
    # cuts 2000 past s = 1 and later: U = e^-(t-s) underflows on those slices' inner grids
    monkeypatch.setattr(manifold, "_truncation_points",
                        lambda mu, nu, p, eps, s_values, *rest:
                        s_values + np.where(s_values >= 1.0, 2000.0, 1.0))
    assert main(["solve-manifold", "--config", EXPONENTIAL, "--out", str(tmp_path)]) == 1
    error = read_json(tmp_path / "report-solve-manifold.json")["error"]
    assert error["type"] == "NumericalError" and error["s"] == 1.0
    assert "inner grid of slice s=1;" in error["message"]


@pytest.mark.parametrize("version, key", [("0.3.0", "delta_cap"), ("0.4.0", "t_cut_max")])
def test_manifest_of_0_3_0_exits_two_on_delta_cap(tmp_path, capsys, version, key):
    # 0.3.0 materialized solver.delta_cap, a constant since 0.4.0; 0.4.0 materialized
    # solver.t_cut_max, which the inner-grid limit replaces since 0.5.0
    first = tmp_path / "a"
    assert main(["check-rates", "--config", ORACLE, "--out", str(first)]) == 0
    manifest = read_json(first / "manifest.json")
    manifest["package"]["version"] = version
    manifest["config"]["solver"][key] = 1.0
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "b"
    assert main(["check-rates", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: solver.{key}: unknown key\n"
    assert not out.exists()


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


def test_verify_flows_once_and_counts_its_work(tmp_path, monkeypatch):
    from stablemanifold import verify
    from stablemanifold.manifold import flow_steps
    calls = []
    flow = verify.nonlinear_flow_many

    def counting(system, pert, s, v0, tau, h, *rest):
        calls.append(len(s))
        return flow(system, pert, s, v0, tau, h, *rest)

    monkeypatch.setattr(verify, "nonlinear_flow_many", counting)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", ORACLE, "--out", out]) == 0
    v = read_json(os.path.join(out, "manifest.json"))["config"]["verification"]
    # one batch: every invariance sample and both seeds of every decay pair
    assert calls == [v["n_invariance"] + 2 * v["n_decay"]]
    with open(os.path.join(out, "verify-invariance.csv"), encoding="utf-8") as fh:
        taus = [float(r["tau"]) for r in csv.DictReader(fh)]
    with open(os.path.join(out, "verify-decay.csv"), encoding="utf-8") as fh:
        taus += [float(r["t"]) - float(r["s"]) for r in csv.DictReader(fh) for _ in (0, 1)]
    steps = flow_steps(np.array(taus), v["flow_h"])
    assert read_json(os.path.join(out, "report-verify.json"))["flow"] == {
        "rows": calls[0], "rk4_steps": int(steps.sum()), "step_rounds": int(steps.max())}


def test_verify_decay_blowup_writes_no_verify_csv(tmp_path, monkeypatch):
    # both checks share one flow, so a decay seed that blows up fails verify before
    # either CSV is written, although the invariance samples flowed
    draw = cli.random_decay_pairs

    def blowing(*args):
        pairs = draw(*args)
        s, xi, _, _ = pairs[-1]
        return pairs[:-1] + [(s, xi, np.full_like(xi, 100.0), s + 30.0)]

    monkeypatch.setattr(cli, "random_decay_pairs", blowing)
    out = str(tmp_path / "run")
    assert main(["verify", "--config", ORACLE, "--out", out]) == 1
    assert read_json(os.path.join(out, "report-verify.json"))["error"]["type"] == "BlowupError"
    assert not os.path.exists(os.path.join(out, "verify-invariance.csv"))
    assert not os.path.exists(os.path.join(out, "verify-decay.csv"))


def test_verify_is_bit_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    assert main(["verify", "--config", ORACLE, "--out", out1, "--seed", "7"]) == 0
    assert main(["verify", "--config", ORACLE, "--out", out2, "--seed", "7"]) == 0
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    for name in t1:
        if name != "manifest.json":
            assert t1[name] == t2[name], name


def test_admissibility_reports_the_binding_delta_max_terms(tmp_path):
    # on the oracle two strict bounds share one formula, so both bind at 0.99 x 0.029463
    assert main(["admissibility", "--config", ORACLE, "--out", str(tmp_path / "a")]) == 0
    dm = read_json(str(tmp_path / "a" / "report-admissibility.json"))["delta_max"]
    assert dm["binding"] == ["graph_lipschitz_b", "outer_contraction"]
    assert dm["value"] == 0.99 * dm["bounds"]["outer_contraction"]
    # a small enough c lifts every bound above the cap of 1
    cfg = read_json(ORACLE)
    cfg["perturbation"]["coef"] = 1e-4
    small = tmp_path / "small.json"
    small.write_text(json.dumps(cfg))
    assert main(["admissibility", "--config", str(small), "--out", str(tmp_path / "b")]) == 0
    dm = read_json(str(tmp_path / "b" / "report-admissibility.json"))["delta_max"]
    assert dm["binding"] == ["delta_cap"] and dm["value"] == 1.0


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


NOT_AT_ORIGIN = {"kind": "expr", "components": ["0", "u1^3 + 1e-3"], "c": 1.0, "q": 2.0}


@pytest.mark.parametrize("section, value, key", [
    ("solver", {"C": 0.5}, "solver.C"),                    # C must exceed D = 1
    ("solver", {"delta": 0.5}, "solver.delta"),            # above the certified 0.029
    # certified for f alone (0.029168 at c = 1), but above the 0.028465 at
    # max(c, c_bar) = 1.05 where f and f_bar are compared
    ("solver", {"delta": 0.0288}, "solver.delta"),
    (None, {"perturbation": NOT_AT_ORIGIN}, "perturbation.components"),
    (None, {"comparison": NOT_AT_ORIGIN}, "comparison.components"),
], ids=["capacity", "delta", "delta-common", "perturbation", "comparison"])
def test_solver_input_mistakes_exit_two_before_any_stage(tmp_path, capsys, section, value,
                                                         key):
    bad = tmp_path / "bad.json"
    cfg = read_json(ORACLE)
    (cfg[section] if section else cfg).update(value)
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["all", "--config", str(bad), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {key}: ") and captured.err.count("\n") == 1
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("key", ["beta_points", "monotonicity_points"])
def test_one_point_check_grid_exits_two(tmp_path, capsys, key):
    # admissibility would pass monotonicity on the one-point grid [0] without testing it
    bad = tmp_path / "bad.json"
    cfg = read_json(ORACLE)
    cfg["checks"] = {key: 1}
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["all", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: checks.{key}: ")
    assert not out.exists() or not os.listdir(out)


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


def test_numerical_failure_report_carries_error_context(tmp_path, monkeypatch, capsys):
    # the decay slack is 1.05; a slack below the ratio 0.5 at t = s forces the error
    monkeypatch.setattr(manifold, "_DECAY_SLACK", 0.4)
    out = str(tmp_path / "run")
    assert main(["solve-manifold", "--config", ORACLE, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solve-manifold: FAIL: DecayBoundError: inner trajectory")
    error = read_json(os.path.join(out, "report-solve-manifold.json"))["error"]
    assert error["type"] == "DecayBoundError" and "node" in error["message"]
    assert error["s"] == 0.0
    assert error["ratio"] == pytest.approx(0.5, rel=1e-12)
    assert 0 <= error["node"] < 41


def test_underflowed_tail_integral_exits_one_with_report(tmp_path, capsys):
    # I(400) = e^(-760)/1.9 underflows to 0.0, so beta(400) has no float value
    cfg_path = tmp_path / "far.json"
    cfg = read_json(EXPONENTIAL)
    cfg["solver"]["s_max"] = 400.0
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "o")
    assert main(["admissibility", "--config", cfg_path.as_posix(), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("admissibility: FAIL: TailBoundError: tail integral I(s) underflows")
    assert err.count("\n") == 1
    error = read_json(os.path.join(out, "report-admissibility.json"))["error"]
    assert error["type"] == "TailBoundError" and error["s"] == 400.0


def test_bad_cli_values_exit_two(tmp_path, capsys):
    out = str(tmp_path / "o")
    # an infinite scale would pass every check vacuously, nan would fail every stage
    for scale in ("0", "inf", "nan"):
        assert main(["verify", "--config", ORACLE, "--out", out, "--tol-scale", scale]) == 2
        assert f"--tol-scale: must be positive and finite, got {float(scale)!r}" in (
            capsys.readouterr().err)
    assert main(["verify", "--config", ORACLE, "--out", out, "--seed", "-2"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_manifest_with_infinite_tol_scale_exits_two(tmp_path, capsys):
    first = tmp_path / "a"
    assert main(["check-rates", "--config", ORACLE, "--out", str(first)]) == 0
    manifest = read_json(first / "manifest.json")
    manifest["cli"]["tol_scale"] = math.inf
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert '"tol_scale": Infinity' in path.read_text()
    out = tmp_path / "b"
    assert main(["check-rates", "--config", str(path), "--out", str(out)]) == 2
    assert "--tol-scale" in capsys.readouterr().err
    assert not out.exists()


def test_check_dichotomy_fails_an_overclaimed_coupled_block(tmp_path):
    # the stable block [[-1, -0.5], [-0.5, -1]] decays like e^(-0.5 t), so a = -1.5
    # is false; its top singular direction (1, -1, 0) is orthogonal to (1, 1, 1)
    cfg = {"rates": {"mu": {"family": "exponential"}, "nu": {"family": "exponential"}},
           "dichotomy": {"a": -1.5, "b": 1.0, "eps": 0.0, "D": 1.0},
           "system": {"kind": "matrix", "n_stable": 2,
                      "coeff": [["-1", "-0.5", "0"], ["-0.5", "-1", "0"], ["0", "0", "1"]]},
           "perturbation": {"kind": "cubic", "coef": 1.0},
           "solver": {"s_max": 1.0, "n_slices": 2, "delta": 0.02, "C": 2.0,
                      "nodes_per_axis": 5, "h": 0.2},
           "checks": {"dichotomy_pairs": 5}}
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["check-dichotomy", "--config", str(path), "--out", str(out)]) == 1
    report = read_json(out / "report-check-dichotomy.json")
    assert report["max_stable_ratio"] == pytest.approx(math.exp(3.0), rel=1e-6)


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
    with open(os.path.join(out, "report-check-rates.json")) as fh:
        text = fh.read()
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


@pytest.mark.parametrize("name, s_max, t_cut", [("polynomial", 1e3, 33768.0),
                                                ("log_example", 1e4, 141072.0)])
def test_long_horizons_run_clean_on_short_grids(tmp_path, name, s_max, t_cut):
    # the cuts grow with s, but the inner grids are uniform in the clock log mu(t)
    raw = read_json(CONFIG_DIR / f"{name}.json")
    raw["solver"]["s_max"] = s_max
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    slices = read_json(tmp_path / "out" / "report-solve-manifold.json")["slices"]
    assert max(slices["t_cut"]) == t_cut and max(slices["grid_points"]) <= 196


@pytest.mark.parametrize("name,rounds", [
    ("exponential", 2), ("polynomial", 5), ("log_example", 10), ("loglog_example", 10),
    ("sharp_oscillating", 2)])
def test_tail_batch_quadrature_rounds(tmp_path, monkeypatch, name, rounds):
    # the admissibility stage computes its tails in one batch; walks integrate their
    # windows in blocks of 1, 2, 4, 4, ...: the 35 windows of the log walks from 1
    # take 10 adaptive Simpson calls instead of 35, the 14 of the polynomial 5
    from stablemanifold import admissibility
    batches, calls = [], []
    quadrature, tails = admissibility.adaptive_simpson_many, admissibility.improper_rate_integrals

    def counting(*args, **kw):
        calls.append(np.size(args[1]))
        return quadrature(*args, **kw)

    def batch(*args, **kw):
        batches.append(len(args[4]))
        return tails(*args, **kw)

    monkeypatch.setattr(admissibility, "adaptive_simpson_many", counting)
    monkeypatch.setattr(admissibility, "improper_rate_integrals", batch)
    assert main(["admissibility", "--config", str(CONFIG_DIR / f"{name}.json"),
                 "--out", str(tmp_path)]) == 0
    assert len(batches) == 1 and 0 < len(calls) <= rounds


def test_console_script_entry(tmp_path):
    # the child imports the package under test, installed or not
    out = str(tmp_path / "run")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "stablemanifold.cli", "check-rates",
                           "--config", ORACLE, "--out", out],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0
    assert "check-rates: PASS" in proc.stdout


@pytest.mark.parametrize("command", ["all", "verify", "perturb-compare"])
def test_sampled_stages_never_import_numpy_random(tmp_path, command):
    # pytest's own process has numpy.random loaded by other tests; ask a fresh one
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    child = ("import sys\n"
             "from stablemanifold.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('numpy.random' in sys.modules)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", child, command, "--config",
                           str(CONFIG_DIR / "polynomial.json"), "--out", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_package_runs_as_module(tmp_path):
    # python -m stablemanifold, with the package found through PYTHONPATH alone
    out = str(tmp_path / "run")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "stablemanifold", "check-rates",
                           "--config", EXPONENTIAL, "--out", out],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "check-rates: PASS" in proc.stdout
    assert read_json(os.path.join(out, "report-check-rates.json"))["passed"] is True
