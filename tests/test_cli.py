import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from vbpg import diagnostics as dx
from vbpg.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestSolve:
    def test_lasso_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        assert run(["solve", "--config", CONFIGS / "lasso.json",
                    "--seed", 3, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminated_reason"] == "step_tol"
        assert summary["final_F"] == pytest.approx(-0.17, abs=1e-9)
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,F,step_norm,gap,residual,eps,kernel,inner_iters,tied"
        assert len(lines) == summary["iterations"] + 1
        assert (out / "manifest.json").exists()

    def test_lasso_g_defaults_to_l1_at_lam(self, tmp_path):
        # the same runs written as lasso with lam, as lasso with g, and as
        # the quadratic A'A, -A'b: byte-identical artifacts, but for the
        # problem's name in the summary
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        params = cfg["problem"]["params"]
        lam = params.pop("lam")
        A, b = np.array(params["A"]), np.array(params["b"])
        mcp = {"kind": "mcp", "lam": 0.6, "gamma": 4.0}
        forms = {
            "l1_lam": {**params, "lam": lam},
            "l1_g": {**params, "g": {"kind": "l1", "lam": lam}},
            "mcp_g": {**params, "g": mcp},
        }
        configs = {name: {**cfg, "problem": {"kind": "lasso", "params": p}}
                   for name, p in forms.items()}
        configs["mcp_quadratic"] = {**cfg, "problem": {
            "kind": "quadratic", "params": {
                "Q": (A.T @ A).tolist(), "b": (-(A.T @ b)).tolist(),
                "g": mcp}}}
        runs = {}
        for name, c in configs.items():
            out = tmp_path / name
            path = write_config(tmp_path, f"{name}.json", c)
            assert run(["solve", "--config", path, "--seed", 3,
                        "--out", out]) == 0
            summary = (out / "summary.json").read_bytes()
            runs[name] = [summary.replace(b'"quadratic"', b'"lasso"'),
                          (out / "trace.csv").read_bytes()]
        assert runs["l1_lam"] == runs["l1_g"]
        assert runs["mcp_g"] == runs["mcp_quadratic"] != runs["l1_lam"]

    def test_zero_iterations(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[1.0]], "b": [0.0]}},
            "solver": {"epsilon": 0.5, "max_iters": 0},
            "x0": [1.0]})
        out = tmp_path / "o"
        assert run(["solve", "--config", cfg, "--out", out]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminated_reason"] == "max_iters"
        assert summary["iterations"] == 0
        assert (out / "trace.csv").read_text() == (
            "iter,F,step_norm,gap,residual,eps,kernel,inner_iters,tied\n")

    def test_malformed_json_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["solve", "--config", bad, "--out", tmp_path]) == 1

    def test_non_object_config_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", [1, 2])
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err == "config parse error: top level must be a JSON object\n"

    def test_strict_validation_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[2.0]], "b": [0.0]}},
            "solver": {"epsilon": 0.6},
            "x0": [1.0]})
        assert run(["solve", "--config", cfg, "--out", tmp_path / "s",
                    "--strict"]) == 2
        # advisory by default: same config proceeds without --strict
        assert run(["solve", "--config", cfg, "--out", tmp_path / "ns"]) == 0


class TestProbe:
    def test_jump_report(self, tmp_path):
        out = tmp_path / "p"
        assert run(["probe", "--config", CONFIGS / "jump_probe.json",
                    "--seed", 5, "--out", out]) == 0
        rep = json.loads((out / "eb_report.json").read_text())
        fit = rep["fits"]["level_subdiff"]
        assert abs(fit["exponent"] - 1.0) <= 1e-6
        assert abs(fit["constant"] - 1.0) <= 1e-6
        assert fit["violated_fraction"] == 0.0
        assert min(r["violated_fraction"]
                   for r in rep["checks"]["kl_sweep"]) >= 0.99
        header = (out / "probe.csv").read_text().splitlines()[0]
        assert header == ("x0,dist_level,dist_subdiff,value_gap,dist_prox,"
                          "dist_crit,property_A")

    def test_report_is_the_pipeline_report(self, tmp_path):
        # vbpg probe writes exactly run_campaign + eb_report
        from vbpg import cli, diagnostics as dx
        assert run(["probe", "--config", CONFIGS / "quad_mcp.json",
                    "--seed", 3, "--out", tmp_path]) == 0
        cfg = json.loads((CONFIGS / "quad_mcp.json").read_text())
        problem = cli.problem_from_spec(cli.problem_spec_from_config(cfg))
        config = cli.solver_config_from_config(cfg, problem)
        campaign = dx.run_campaign(problem, config, cfg["x0"], cfg["probe"], 3)
        report = json.dumps(dx.eb_report(campaign, 3), indent=2,
                            sort_keys=True) + "\n"
        assert (tmp_path / "eb_report.json").read_text() == report

    def test_empty_slice_exit_3(self, tmp_path):
        cfg = json.loads((CONFIGS / "jump_probe.json").read_text())
        cfg["probe"]["nu"] = 0.5  # below the jump: band is empty
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["probe", "--config", path, "--out", tmp_path / "o"]) == 3

    def test_center_near_minimizer_is_in_its_sublevel_set(self, tmp_path):
        # 20 iterations stop within 3e-6 of the minimizer; F_bar = F(center)
        # and the grid's seeded center must agree bit for bit, or the
        # sublevel set reads as empty (exit 3)
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["solver"]["max_iters"] = 20
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["probe", "--config", path, "--out", tmp_path / "o"]) == 0

    def test_dimension_cap_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": np.eye(4).tolist(),
                                   "b": [0.0, 0.0, 0.0, 0.0]}},
            "solver": {"epsilon": 0.5},
            "x0": [1.0, 1.0, 1.0, 1.0]})
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_quadratic_probe_clean_exponents(self, tmp_path):
        # smooth quadratic minimum: alpha ~ 1/2, gamma ~ 1, map consistent
        out = tmp_path / "q"
        assert run(["probe", "--config", CONFIGS / "quadratic_probe.json",
                    "--seed", 4, "--out", out]) == 0
        rep = json.loads((out / "eb_report.json").read_text())
        assert rep["fits"]["kl"]["exponent"] == pytest.approx(0.5, abs=0.05)
        assert rep["fits"]["level_subdiff"]["exponent"] == pytest.approx(
            1.0, abs=0.1)
        assert rep["checks"]["kl_exponent_map"]["ok"]
        assert rep["checks"]["rate_chain"]["chain_ok"]

    def test_sharp_minimum_reports_unidentifiable_fits(self, tmp_path):
        # the shipped quadratic+mcp solution sits at the penalty kink (a
        # weak sharp minimum): the subdifferential distance does not vanish
        # along the slice, so the free KL fit flags unidentifiability
        # through a near-zero r^2, and the sweep certifies the moderate
        # exponents cleanly (small ones are direction-sensitive there)
        out = tmp_path / "p"
        assert run(["probe", "--config", CONFIGS / "quad_mcp.json",
                    "--seed", 2, "--out", out]) == 0
        rep = json.loads((out / "eb_report.json").read_text())
        assert rep["fits"]["kl"]["r_squared"] <= 0.2
        sweep = rep["checks"]["kl_sweep"]
        assert max(r["violated_fraction"] for r in sweep
                   if r["alpha"] >= 0.5) <= 0.05

    def test_quad_mcp_report_complete(self, tmp_path):
        out = tmp_path / "p"
        assert run(["probe", "--config", CONFIGS / "quad_mcp.json",
                    "--seed", 2, "--out", out]) == 0
        rep = json.loads((out / "eb_report.json").read_text())
        for key in ("step_containment", "subdiff_implies_prox_eb",
                    "value_proximity", "kl_exponent_map",
                    "gap_condition_links", "kl_sweep", "rate_chain",
                    "level_set_rate", "growth_conditions", "luo_tseng",
                    "critical_value_consistency"):
            assert key in rep["checks"], key
        assert rep["checks"]["value_proximity"]["min_slack_c0_bound"] >= -1e-8
        assert not rep["checks"]["gap_condition_links"]["gated"]
        assert rep["checks"]["gap_condition_links"]["n_violations"] == 0


    def test_tiny_gamma_theta_gated(self, tmp_path):
        # off the minimizer the subdifferential distance stays away from 0,
        # the fitted gamma is about 6e-4 and theta leaves the float range
        path = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[1.0, 0.0], [0.0, 1.0]],
                                   "b": [0.3, 0.0],
                                   "g": {"kind": "scad", "lam": 0.5,
                                         "a": 3.7}}},
            "solver": {"epsilon": 0.99, "step_tol": 1e-9},
            "x0": [3.0, -2.0],
            "probe": {"center": [5.0, 5.0], "eta": 0.5, "nu": 0.1,
                      "n_samples": 240, "resolution": 0.005,
                      "box_halfwidth": 2.0}})
        out = tmp_path / "o"
        assert run(["probe", "--config", path, "--out", out]) == 0
        report = json.loads((out / "eb_report.json").read_text())
        assert report["checks"]["subdiff_implies_prox_eb"] == {
            "check": "subdiff_implies_prox_eb", "gated": True,
            "reason": "theta not finite"}

    def test_few_samples_kl_sweep_recorded(self, tmp_path):
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["probe"]["n_samples"] = 5
        path = write_config(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert run(["probe", "--config", path, "--out", out]) == 0
        report = json.loads((out / "eb_report.json").read_text())
        assert "error" in report["checks"]["kl_sweep"]
        assert "error" in report["fits"]["level_subdiff"]


class TestCheck:
    def test_full_suite_passes(self, tmp_path):
        out = tmp_path / "c"
        assert run(["check", "--seed", 1, "--out", out]) == 0
        rep = json.loads((out / "check_report.json").read_text())
        assert rep["records"] and all(r["passed"] for r in rep["records"])

    def test_fault_injection_halved_L_fails(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[2.0, 0.3], [0.3, 1.0]],
                                   "b": [0.5, -0.4],
                                   "L_override": 1.04,
                                   "g": {"kind": "mcp", "lam": 0.6,
                                         "gamma": 4.0}}},
            "solver": {"epsilon": 0.4, "max_iters": 400},
            "x0": [1.5, 1.0]})
        out = tmp_path / "o"
        assert run(["check", "--config", cfg, "--out", out]) == 4
        rep = json.loads((out / "check_report.json").read_text())
        failed = {r["name"] for r in rep["records"] if not r["passed"]}
        assert "gradient_lipschitz_ratio" in failed or "descent_inequality" in failed

    def test_strict_refuses_bad_config(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[2.0]], "b": [0.0]}},
            "solver": {"epsilon": 0.9}})
        assert run(["check", "--config", cfg, "--out", tmp_path / "o",
                    "--strict"]) == 2

    def test_lax_check_reports_validation(self, tmp_path, capsys):
        # the same config without --strict runs the suite and, as solve,
        # probe and compare do, names the violated clause on stderr
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[2.0]], "b": [0.0]}},
            "solver": {"epsilon": 0.9}})
        assert run(["check", "--config", cfg, "--out", tmp_path / "o"]) == 4
        assert capsys.readouterr().err == (
            "validation: eps_max < m/L violated (0.9 >= 0.5)\n")

    def test_grid_min_F_memory_does_not_grow_with_halfwidth(self, tmp_path):
        # check.halfwidth 20 scans a 2,001 x 2,001 grid (4M nodes, 32 MB per
        # float array); in slabs its peak stays at the default halfwidth's
        code = ("import resource, sys; from vbpg.cli import main; "
                "rc = main(sys.argv[1:]); "
                "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        peak_kb = {}
        for halfwidth in (2.0, 20.0):
            cfg = json.loads((CONFIGS / "quadratic_probe.json").read_text())
            cfg["check"] = {"halfwidth": halfwidth}
            path = write_config(tmp_path, f"hw{halfwidth:g}.json", cfg)
            proc = subprocess.run(
                [sys.executable, "-c", code, "check", "--config", str(path),
                 "--out", str(tmp_path / f"o{halfwidth:g}")],
                capture_output=True, text=True, env=env)
            rc, peak = proc.stdout.splitlines()[-1].split()
            assert rc == "0"
            peak_kb[halfwidth] = int(peak)
        assert peak_kb[20.0] < peak_kb[2.0] + 16 * 1024

    def test_check_at_zero_decrease_constant_is_not_certified(self, tmp_path,
                                                               capsys):
        # eps = m/L makes a = (m/eps - L)/2 = 0: no summability bound is
        # certified, so the solver record fails, without a numpy warning
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[2.0]], "b": [0.0]}},
            "solver": {"epsilon": 0.5}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = run(["check", "--config", cfg, "--out", tmp_path / "o"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "validation: eps_max < m/L violated (0.5 >= 0.5)\n")
        records = json.loads((tmp_path / "o" / "check_report.json")
                             .read_text())["records"]
        failed = [r for r in records if not r["passed"]]
        assert [r["name"] for r in failed] == ["solver_monotone_summable"]
        assert "bound not certified" in failed[0]["detail"]


class TestCompare:
    def test_preconditioned_kernels_win(self, tmp_path):
        out = tmp_path / "cmp"
        assert run(["compare", "--config", CONFIGS / "compare_kernels.json",
                    "--seed", 0, "--out", out]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "schedule,iterations,beta_hat,final_F"
        rows = {r.split(",")[0]: r.split(",") for r in lines[1:]}
        iso = int(rows["certified_isotropic"][1])
        diag = int(rows["hessian_diagonal"][1])
        jac = int(rows["jacobi"][1])
        assert diag < iso
        assert abs(jac - diag) <= 2  # jacobi ~ hessian diagonal here
        assert float(rows["hessian_diagonal"][3]) == pytest.approx(
            float(rows["certified_isotropic"][3]), abs=1e-5)

    def test_duplicate_schedules_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "lasso",
                        "params": {"A": [[1.0, 0.0], [0.0, 1.0]],
                                   "b": [1.0, 0.8], "lam": 0.5}},
            "solver": {"epsilon": 0.5, "max_iters": 200, "step_tol": 1e-9},
            "x0": [2.0, -1.0],
            "compare": {"kernels": [{"kind": "euclidean", "label": "a"},
                                    {"kind": "euclidean", "label": "b"}]}})
        out = tmp_path / "o"
        assert run(["compare", "--config", cfg, "--out", out]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_empty_schedule_list_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[1.0]], "b": [0.0]}},
            "compare": {"kernels": []}})
        assert run(["compare", "--config", cfg, "--out", tmp_path / "o"]) == 2


def _quadratic_config(g=None, Q=((1.0, 0.0), (0.0, 1.0)), **extra):
    params = {"Q": [list(row) for row in Q], "b": [0.0, 0.0]}
    if g is not None:
        params["g"] = g
    return {"problem": {"kind": "quadratic", "params": params},
            "x0": [1.0, -1.0], **extra}


class TestFailureContract:
    """Each failure ends in its documented exit code with one stderr line,
    in a fresh interpreter so numpy warnings would show too."""

    @pytest.mark.parametrize("command", ["solve", "probe"])
    @pytest.mark.parametrize("cfg,code,message", [
        (_quadratic_config({"kind": "l1", "lam": 0.1},
                           Q=((1.0, 0.0), (0.0, -1.0)), x0=[1.0, 1.0],
                           solver={"epsilon": 0.5, "max_iters": 5000}),
         # F = -x_2^2/2 + ... is finite at iteration 876 although x_2^2
         # overflows; (Q_22/2 x_2) x_2 holds it, so F first overflows at 877
         5, "numerical failure: F became non-finite at iteration 877"),
        (_quadratic_config(x0=[1.0, 2.0, 3.0]), 1,
         "config parse error: dimension mismatch: expected 2, got 3"),
        (_quadratic_config(solver={"kernel": {
            "kind": "quadratic", "A": [[1.0, 2.0], [2.0, 1.0]]}}), 1,
         "config parse error: quadratic kernel matrix must be positive "
         "definite"),
        (_quadratic_config({"kind": "mcp", "lam": -1, "gamma": 3.0}), 1,
         "config parse error: mcp requires lam > 0 and gamma > 1"),
        (_quadratic_config(solver={"epsilon": -0.5}), 1,
         "config parse error: solver.epsilon must be a positive number, "
         "got -0.5"),
        ({"problem": {"kind": "lasso", "params": {
            "A": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 0.8], "lam": 0.5,
            "g": {"kind": "l1", "lam": 0.5}}}}, 1,
         "config parse error: lasso takes lam or g, not both"),
    ], ids=["indefinite_l1", "x0_length", "kernel_not_pd", "mcp_lam",
            "negative_eps", "lasso_lam_and_g"])
    def test_one_line_exit(self, tmp_path, command, cfg, code, message):
        path = write_config(tmp_path, "c.json", cfg)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "vbpg.cli", command, "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == code
        assert proc.stderr == message + "\n"
        assert (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("center", [1, 1, 1], 'probe.center must be "solve" or a point: '
         "dimension mismatch: expected 2, got 3"),
        ("eta", -1, "probe.eta must be a positive number, got -1"),
        ("resolution", 0, "probe.resolution must be a positive number, got 0"),
    ])
    def test_probe_parameter_exit_1(self, tmp_path, key, value, message):
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["probe"][key] = value
        path = write_config(tmp_path, "c.json", cfg)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "vbpg.cli", "probe", "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"config parse error: {message}\n"

    @pytest.mark.parametrize("probe,message", [
        ({"nu": 0.0}, "probe.nu must be a positive number, got 0.0"),
        ({"nu": "wide"}, "probe.nu must be a positive number, got 'wide'"),
        ({"n_samples": 2.5}, "probe.n_samples must be a positive integer, "
         "got 2.5"),
        ({"n_samples": True}, "probe.n_samples must be a positive integer, "
         "got True"),
        ({"n_samples": 0}, "probe.n_samples must be a positive integer, got 0"),
        ({"box_halfwidth": -2}, "probe.box_halfwidth must be a positive "
         "number, got -2"),
        ({"sigma": [0.5]}, "probe.sigma must be a positive number, got [0.5]"),
        ({"center": "origin"}, 'probe.center must be "solve" or a point: '
         "could not convert string to float: 'origin'"),
        ({"center": {"x": 1}}, 'probe.center must be "solve" or a point: '),
        ([1, 2], "probe must be a JSON object"),
    ], ids=["nu_zero", "nu_string", "n_fraction", "n_bool", "n_zero",
            "halfwidth", "sigma_list", "center_string", "center_object",
            "probe_list"])
    def test_probe_parameters_validated(self, tmp_path, capsys, probe, message):
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        if isinstance(probe, dict):
            cfg["probe"].update(probe)
        else:
            cfg["probe"] = probe
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["probe", "--config", path, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config parse error: {message}")
        assert err.count("\n") == 1

    def test_probe_integral_float_n_samples_accepted(self, tmp_path):
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["probe"]["n_samples"] = 240.0
        path = write_config(tmp_path, "c.json", cfg)
        outs = [tmp_path / "a", tmp_path / "b"]
        assert run(["probe", "--config", path, "--out", outs[0]]) == 0
        assert run(["probe", "--config", CONFIGS / "lasso.json",
                    "--out", outs[1]]) == 0
        assert ((outs[0] / "probe.csv").read_bytes()
                == (outs[1] / "probe.csv").read_bytes())

    def test_prox_error_exit_5(self, tmp_path, capsys):
        # an ill-conditioned non-diagonal kernel: the inner solve stalls
        cfg = write_config(tmp_path, "c.json", _quadratic_config(
            {"kind": "l1", "lam": 0.1},
            solver={"epsilon": 0.5, "max_iters": 5, "kernel": {
                "kind": "quadratic",
                "A": [[500000.5, 499999.5], [499999.5, 500000.5]]}}))
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 5
        assert capsys.readouterr().err == (
            "numerical failure: inner prox solve did not converge in 10000 "
            "iterations\n")

    def test_check_bad_x0_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           _quadratic_config(x0=[1.0, 2.0, 3.0]))
        assert run(["check", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            "config parse error: dimension mismatch: expected 2, got 3\n")

    @pytest.mark.parametrize("key,value,message", [
        ("max_iters", 2.5, "max_iters must be a nonnegative integer, got 2.5"),
        ("max_iters", "5", "max_iters must be a nonnegative integer, got '5'"),
        ("trace_every", 1.5,
         "trace_every must be a positive integer, got 1.5"),
        ("step_tol", True, "step_tol must be a positive number, got True"),
        ("epsilon", True, "epsilon must be a positive number, got True"),
        ("epsilon", [0.5, False],
         "epsilon must be a positive number, got False"),
    ], ids=["max_iters_fraction", "max_iters_string", "trace_every_fraction",
            "step_tol_bool", "epsilon_bool", "epsilon_list_bool"])
    def test_solver_value_exit_1(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "quadratic",
                        "params": {"Q": [[1.0]], "b": [0.0]}},
            "x0": [1.0], "solver": {key: value}})
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            f"config parse error: solver.{message}\n")
        assert not (tmp_path / "o" / "trace.csv").exists()

    def test_integral_float_iteration_counts_accepted(self, tmp_path):
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["solver"].update(max_iters=400.0, trace_every=1.0)
        path = write_config(tmp_path, "c.json", cfg)
        outs = [tmp_path / "a", tmp_path / "b"]
        assert run(["solve", "--config", path, "--out", outs[0]]) == 0
        assert run(["solve", "--config", CONFIGS / "lasso.json",
                    "--out", outs[1]]) == 0
        assert ((outs[0] / "trace.csv").read_bytes()
                == (outs[1] / "trace.csv").read_bytes())

    @pytest.mark.parametrize("halfwidth", ["x", -1, True])
    def test_check_halfwidth_exit_1(self, tmp_path, capsys, halfwidth):
        cfg = write_config(tmp_path, "c.json", _quadratic_config(
            check={"halfwidth": halfwidth}))
        assert run(["check", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            f"config parse error: check.halfwidth must be a positive number, "
            f"got {halfwidth!r}\n")

    def test_empty_critical_set_exit_3(self, tmp_path, capsys):
        # Q[0][0] = 0 leaves f unbounded below along x0: no seed settles
        cfg = write_config(tmp_path, "c.json", _with(
            "compare_kernels.json", ("problem", "params", "Q"),
            [[0.0, 0.0], [0.0, 1.0]]))
        assert run(["probe", "--config", cfg, "--out", tmp_path / "o"]) == 3
        assert capsys.readouterr().err == (
            "probe failed: critical set approximation came up empty\n")
        assert not (tmp_path / "o" / "probe.csv").exists()

    @pytest.mark.parametrize("probe,nodes", [
        ({"resolution": 1e-4}, 40001 ** 2),
        ({"eta": 20.0, "box_halfwidth": None}, 32001 ** 2),
        ({"box_halfwidth": 50.0}, 20001 ** 2),
        ({"resolution": 1e-320}, "inf"),
        ({"box_halfwidth": 1e308}, "inf"),
    ], ids=["resolution", "eta", "box_halfwidth", "resolution_overflow",
            "box_halfwidth_overflow"])
    def test_probe_grid_over_budget_exit_1(self, tmp_path, capsys,
                                           monkeypatch, probe, nodes):
        # refused while parsing: no solve runs and no grid is built
        monkeypatch.setattr(dx, "run_campaign",
                            lambda *a: pytest.fail("probe ran"))
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["probe"].update(probe)
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["probe", "--config", path, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            f"config parse error: probe grid of {nodes} nodes exceeds the "
            f"budget of {dx.PROBE_GRID_BUDGET}\n")

    def test_jacobi_kernel_needs_quadratic_f_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "problem": {"kind": "logistic",
                        "params": {"dim": 2, "n_rows": 12, "data_seed": 7}},
            "solver": {"kernel": {"kind": "jacobi", "block_sizes": [1, 1],
                                  "c": [0.1, 0.1]}},
            "x0": [0.1, 0.2]})
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            "config parse error: jacobi kernel requires a quadratic objective "
            "(gradient is not affine)\n")

    def test_compare_bad_kernel_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", _quadratic_config(
            compare={"kernels": [{"kind": "diagonal", "d": [1.0, -1.0]}]}))
        assert run(["compare", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            "config parse error: diagonal kernel weights must be positive\n")


def _with(path, key_path, value):
    """A shipped config with the value at ``key_path`` replaced."""
    cfg = json.loads((CONFIGS / path).read_text())
    node = cfg
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = value
    return cfg


class TestSectionTypes:
    """Problem and solver sections of the wrong JSON type end in exit 1
    with one ``config parse error`` line, not a traceback."""

    @pytest.mark.parametrize("cfg,message", [
        (_with("lasso.json", ("problem", "params", "A"), "x"),
         "could not convert string to float: 'x'"),
        (_with("lasso.json", ("problem", "params", "g"), "l1"),
         "problem.params.g must be a JSON object"),
        (_with("quad_mcp.json", ("problem", "params", "b"), 5),
         "object of type 'int' has no len()"),
        ({"problem": {"kind": "profile", "params": {"id": ["a"]}}},
         "unknown profile id ['a']"),
        (_with("lasso.json", ("solver",), "x"), "solver must be a JSON object"),
    ], ids=["lasso_A_string", "g_string", "quadratic_b_int", "profile_id_list",
            "solver_string"])
    def test_solve_exit_1(self, tmp_path, capsys, cfg, message):
        path = write_config(tmp_path, "c.json", cfg)
        assert run(["solve", "--config", path, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == f"config parse error: {message}\n"

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("kernel,message", [
        ({"kind": "diagonal", "d": [1, 2, 3]},
         "diagonal kernel has dimension 3, problem has 2"),
        ({"kind": "diagonal", "d": [2]},
         "diagonal kernel has dimension 1, problem has 2"),
        ({"kind": "quadratic", "A": np.eye(3).tolist()},
         "quadratic kernel has dimension 3, problem has 2"),
    ], ids=["diagonal_3", "diagonal_1", "quadratic_3x3"])
    def test_kernel_dimension_exit_1(self, tmp_path, capsys, command, kernel,
                                     message):
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        if command == "solve":
            cfg["solver"]["kernel"] = kernel
        else:
            cfg["compare"] = {"kernels": [kernel]}
        path = write_config(tmp_path, "c.json", cfg)
        assert run([command, "--config", path, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == f"config parse error: {message}\n"


class TestDeterminism:
    def test_solve_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["solve", "--config", CONFIGS / "lasso.json",
                        "--seed", 11, "--out", out]) == 0
            outs.append(out)
        for name in ("trace.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_probe_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert run(["probe", "--config", CONFIGS / "jump_probe.json",
                        "--seed", 11, "--out", out]) == 0
            outs.append(out)
        for name in ("probe.csv", "eb_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_probe_independent_of_thread_cap(self, tmp_path, monkeypatch):
        # the projection oracle splits its nearest-candidate search into
        # blocks under a fixed element budget; one query per block must
        # give the same bytes as the default budget
        import vbpg.diagnostics as dx
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        cfg["probe"]["center"] = [1.0, 1.0]
        path = write_config(tmp_path, "offmin.json", cfg)
        outs = []
        for tag, budget in (("a", dx._PROJECT_CHUNK_ELEMS), ("b", 1)):
            monkeypatch.setattr(dx, "_PROJECT_CHUNK_ELEMS", budget)
            out = tmp_path / tag
            assert run(["probe", "--config", path, "--seed", 4,
                        "--out", out]) == 0
            outs.append(out)
        for name in ("probe.csv", "eb_report.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
