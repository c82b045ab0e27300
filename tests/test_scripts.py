"""The study scripts at their default arguments: they print the shipped
figures from the probe pipeline and write nothing to the working
directory.  The artifact diff's comparison runs on two small run
directories."""

import json
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, monkeypatch, tmp_path, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().out


def test_rate_study_figures(monkeypatch, tmp_path, capsys):
    out = run_script("rate_study.py", monkeypatch, tmp_path, capsys)
    for line in (
            "  level_subdiff  exponent   1.065",
            "  level_bregman  exponent   1.000",
            "  kl             exponent   0.544",
            "  sharpness      exponent   0.497",
            "  gap_condition  exponent   1.008",
            "value-gap contraction: observed 0.2501 over tail window "
            "(15, 24), certified bound 0.9867",
            "level-set contraction: 0.5000; refit strong-EB constant 1.0000 "
            "against the implied cap 1.0000"):
        assert line in out


def test_counterexample_probe_figures(monkeypatch, tmp_path, capsys):
    out = run_script("counterexample_probe.py", monkeypatch, tmp_path, capsys)
    assert ("level-set subdifferential EB: exponent 1.000000, "
            "constant 1.000000") in out
    sweep = [line for line in out.splitlines() if "alpha =" in line]
    assert len(sweep) == 19
    assert all(line.endswith("violated 100.0%") for line in sweep)


def test_artifact_diff_compare_dirs(tmp_path):
    compare_dirs = runpy.run_path(
        str(SCRIPTS / "artifact_diff.py"))["compare_dirs"]
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "trace.csv").write_text("k,F\n0,1.5\n1,0.25\n")
        (d / "manifest.json").write_text(json.dumps({"dir": str(d)}))
    (old / "probe.csv").write_text(
        "x0,dist_level,property_A\n0.5,0.1,1\n0.6,0.2,1\n0.7,0.3,0\n")
    (new / "probe.csv").write_text(
        "x0,dist_level,property_A\n0.5,0.101,1\n0.6,0.198,0\n0.7,0.3,0\n")
    report = {"ok": True, "records": [{"name": "a", "worst": 1.0},
                                      {"name": "b", "worst": 2.0}],
              "beta": float("nan")}
    (old / "eb_report.json").write_text(json.dumps(report))
    report["records"][1]["worst"] = 2.5
    report["ok"] = False
    (new / "eb_report.json").write_text(json.dumps(report))
    (new / "summary.json").write_text("{}")
    assert compare_dirs(old, new) == [
        "eb_report.json: field ok moved, largest change 1",
        "eb_report.json: field records[].worst moved, largest change 0.5",
        "probe.csv: column dist_level moved, largest change 0.002",
        "probe.csv: column property_A moved, largest change 1",
        "summary.json: only in change",
        "trace.csv: identical",
    ]
    # a field that is NaN on both sides has not moved
    (new / "eb_report.json").write_text(
        (old / "eb_report.json").read_text().replace("2.0", "2.25"))
    assert compare_dirs(old, new)[0] == (
        "eb_report.json: field records[].worst moved, largest change 0.25")
    report["beta"] = 0.5
    (new / "eb_report.json").write_text(json.dumps(report))
    assert compare_dirs(old, new)[0] == (
        "eb_report.json: field beta moved, largest change inf")


def test_artifact_diff_matches_records_by_name(tmp_path):
    compare_dirs = runpy.run_path(
        str(SCRIPTS / "artifact_diff.py"))["compare_dirs"]
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    records = [{"name": n, "instance": i, "passed": True, "worst": w,
                "detail": d}
               for n, i, w, d in (("gap_identity", "lasso2", 1e-10, "a"),
                                  ("descent", "lasso2", 0.5, "case 4"),
                                  ("bounds", "mcp", 4.2e-4, ""))]
    (old / "check_report.json").write_text(json.dumps({"records": records}))
    # a record that only moved position: its values read unchanged
    moved = [records[0], records[2], records[1]]
    (new / "check_report.json").write_text(json.dumps({"records": moved}))
    assert compare_dirs(old, new) == [
        "check_report.json: records[] reordered"]
    # one changed worst, reported on its own record
    moved[1] = {**records[2], "worst": 4.0e-5}
    (new / "check_report.json").write_text(json.dumps({"records": moved}))
    assert compare_dirs(old, new) == [
        "check_report.json: records[] reordered",
        "check_report.json: field records[bounds/mcp].worst moved, largest "
        "change 0.00038"]
    # in place, a changed detail shows on its record alone
    records[1] = {**records[1], "detail": "case 3"}
    (new / "check_report.json").write_text(json.dumps({"records": records}))
    assert compare_dirs(old, new) == [
        "check_report.json: field records[descent/lasso2].detail moved, "
        "largest change inf"]


def test_artifact_diff_compare_runs(tmp_path):
    compare_runs = runpy.run_path(
        str(SCRIPTS / "artifact_diff.py"))["compare_runs"]
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "stdout.txt").write_text("")
        (d / "stderr.txt").write_text("Traceback\nImportError: vbpg\n")
    # the same failure on both sides, with nothing but the streams
    assert compare_runs(old, new, (1, 1)) == [
        "stderr.txt: identical", "stdout.txt: identical",
        "failed on both sides: exit 1, expected 0"]
    assert compare_runs(old, new, (0, 0))[-1] == "no artifacts on either side"
    # a documented failure writes no artifact
    assert compare_runs(old, new, (5, 5), expected=5) == [
        "stderr.txt: identical", "stdout.txt: identical"]
    for d in (old, new):
        (d / "trace.csv").write_text("k,F\n0,1.5\n")
    (new / "stdout.txt").write_text("solve: 3 iterations\n")
    assert compare_runs(old, new, (0, 2)) == [
        "stderr.txt: identical", "stdout.txt: differs from line 1",
        "trace.csv: identical", "exit codes differ: 0 / 2"]
    (new / "stdout.txt").write_text("")
    assert all(line.endswith(": identical")
               for line in compare_runs(old, new, (0, 0)))


def test_artifact_diff_runs_a_non_separable_kernel(tmp_path):
    from vbpg.core import KernelSpec

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    configs = sorted(script["CONFIGS"].iterdir())
    cmds = script["commands"](tmp_path)
    # generated into the work directory, next to the off-minimizer slices
    assert sorted(script["CONFIGS"].iterdir()) == configs
    path = tmp_path / "quad_mcp_nonseparable.json"
    for command in ("solve", "probe"):
        assert cmds[f"{command}-quad_mcp_nonseparable"] == [
            command, "--config", str(path)]
    cfg = json.loads(path.read_text())
    shipped = json.loads((script["CONFIGS"] / "quad_mcp.json").read_text())
    assert cfg["problem"] == shipped["problem"]
    kernel = cfg["solver"].pop("kernel")
    shipped["solver"].pop("kernel")
    assert cfg["solver"] == shipped["solver"]
    assert kernel["kind"] == "quadratic"
    assert KernelSpec.quadratic(kernel["A"]).diag_weights(2) is None


def test_artifact_diff_runs_a_lasso_under_a_quadratic_kernel(tmp_path):
    import numpy as np
    from vbpg.cli import main
    from vbpg.core import KernelSpec

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    path = tmp_path / "quad_kernel_lasso_d50.json"
    assert cmds["solve-quad_kernel_lasso_d50"] == ["solve", "--config",
                                                  str(path)]
    cfg = json.loads(path.read_text())
    assert cfg == script["quad_kernel_lasso_config"]()  # seeded
    A = np.array(cfg["problem"]["params"]["A"])
    assert A.shape == (200, 50)
    # the kernel A'A + 0.1 I, non-separable, at eps = 0.9 m/L
    kernel = cfg["solver"]["kernel"]
    K = KernelSpec.quadratic(kernel["A"])
    assert K.diag_weights(50) is None
    assert np.array_equal(K.A, A.T @ A + 0.1 * np.eye(50))
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    assert cfg["solver"]["epsilon"] == 0.9 * K.m / L
    out = tmp_path / "out"
    assert main(cmds["solve-quad_kernel_lasso_d50"]
                + ["--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminated_reason"] == "step_tol"
    # every prox took the iterative path, which the start shortens after
    # the first two iterations
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    inner = [int(row.split(",")[7]) for row in rows]
    assert len(inner) > 100 and min(inner) > 0
    assert max(inner[2:]) < inner[0]


def test_artifact_diff_solves_the_quad_kernel_data_under_mcp_and_scad(
        tmp_path):
    import numpy as np
    from vbpg.cli import main

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    lasso = script["quad_kernel_lasso_config"]()
    A = np.array(lasso["problem"]["params"]["A"])
    lam = lasso["problem"]["params"]["lam"]
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    m = float(np.linalg.eigvalsh(np.array(lasso["solver"]["kernel"]["A"]))[0])
    for name, rho in (("mcp", 1.0 / 3.0), ("scad", 1.0 / 2.7)):
        path = tmp_path / f"quad_kernel_{name}_d50.json"
        assert cmds[f"solve-quad_kernel_{name}_d50"] == ["solve", "--config",
                                                         str(path)]
        cfg = json.loads(path.read_text())
        # the lasso's data and kernel, the penalty at its weight, and a
        # step within both clauses
        params = cfg["problem"]["params"]
        assert params.pop("g") == {**script["SPARSE_PENALTIES"][name][0],
                                   "lam": lam}
        assert params == {k: v for k, v in lasso["problem"]["params"].items()
                          if k != "lam"}
        assert cfg["solver"]["kernel"] == lasso["solver"]["kernel"]
        assert cfg["solver"]["epsilon"] == 0.9 * min(m / L, m / rho)
        out = tmp_path / name
        assert main(cmds[f"solve-quad_kernel_{name}_d50"]
                    + ["--seed", "7", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminated_reason"] == "step_tol"
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert min(int(row.split(",")[7]) for row in rows) > 0


def test_artifact_diff_probes_thinned_iterates(tmp_path):
    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    path = tmp_path / "lasso_trace_every3.json"
    assert cmds["probe-lasso_trace_every3"] == ["probe", "--config", str(path)]
    cfg = json.loads(path.read_text())
    shipped = json.loads((script["CONFIGS"] / "lasso.json").read_text())
    assert cfg["solver"].pop("trace_every") == 3
    assert cfg == shipped  # the lasso probe, every third iterate kept


def test_artifact_diff_probes_quad_mcp_beyond_m_over_L(tmp_path):
    from vbpg.cli import problem_from_spec, problem_spec_from_config
    from vbpg.cli import solver_config_from_config
    from vbpg.core import Constants

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    path = tmp_path / "quad_mcp_eps0.6.json"
    assert cmds["probe-quad_mcp_eps0.6"] == ["probe", "--config", str(path)]
    cfg = json.loads(path.read_text())
    shipped = json.loads((script["CONFIGS"] / "quad_mcp.json").read_text())
    assert cfg["solver"].pop("epsilon") == 0.6
    shipped["solver"].pop("epsilon")
    assert cfg == shipped
    # the step fails the m/L clause (m/L = 0.480) and meets the m/rho one
    cfg["solver"]["epsilon"] = 0.6
    problem = problem_from_spec(problem_spec_from_config(cfg))
    C = Constants.of(problem, solver_config_from_config(cfg, problem))
    assert not C.l_clause and C.rho_clause


def test_artifact_diff_runs_a_sparse_solve_above_dimension_3(tmp_path):
    from vbpg.cli import main
    from vbpg.problems import _SUPPORT_MAX_NNZ, _SUPPORT_MIN_DIM

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    path = tmp_path / "sparse_lasso_d500.json"
    assert cmds["solve-sparse_lasso_d500"] == ["solve", "--config", str(path)]
    cfg = json.loads(path.read_text())
    assert cfg == script["sparse_lasso_config"]()  # seeded
    assert len(cfg["x0"]) >= _SUPPORT_MIN_DIM
    out = tmp_path / "out"
    assert main(cmds["solve-sparse_lasso_d500"]
                + ["--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # the run ends on step_tol with its iterates' support below the
    # threshold, so f takes the support product
    assert summary["terminated_reason"] == "step_tol"
    assert 0 < sum(v != 0.0 for v in summary["final_x"]) <= _SUPPORT_MAX_NNZ


def test_artifact_diff_checks_the_sparse_lasso_above_dimension_3(tmp_path):
    from vbpg.cli import main

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    path = tmp_path / "sparse_lasso_d500.json"
    assert cmds["check-sparse_lasso_d500"] == ["check", "--config", str(path)]
    out = tmp_path / "out"
    assert main(cmds["check-sparse_lasso_d500"]
                + ["--seed", "7", "--out", str(out)]) == 0
    records = json.loads((out / "check_report.json").read_text())["records"]
    solver = [r for r in records if r["name"] == "solver_monotone_summable"]
    # the bound is priced with the run's own final F, so it carries no
    # caveat above dimension 3
    assert solver and solver[0]["detail"].startswith("sum sq steps ")
    assert "conditional" not in solver[0]["detail"]
    assert all(r["passed"] for r in records)


def test_artifact_diff_solves_the_sparse_data_under_mcp_and_scad(tmp_path):
    from vbpg.cli import main
    from vbpg.problems import _SUPPORT_MAX_NNZ

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    lasso = script["sparse_lasso_config"]()
    _, _, lam, L = script["_sparse_data"]()
    for name, rho in (("mcp", 1.0 / 3.0), ("scad", 1.0 / 2.7)):
        path = tmp_path / f"sparse_{name}_d500.json"
        assert cmds[f"solve-sparse_{name}_d500"] == ["solve", "--config",
                                                     str(path)]
        cfg = json.loads(path.read_text())
        assert cfg["problem"]["params"]["g"]["kind"] == name
        assert cfg["problem"]["params"]["g"]["lam"] == lam
        assert lasso["problem"]["params"]["lam"] == lam
        assert cfg["solver"]["epsilon"] == 0.9 * min(1.0 / L, 1.0 / rho)
        out = tmp_path / name
        assert main(cmds[f"solve-sparse_{name}_d500"]
                    + ["--seed", "7", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["terminated_reason"] == "step_tol"
        # a sparse end point, as under l1
        assert 0 < sum(v != 0.0 for v in summary["final_x"]) <= _SUPPORT_MAX_NNZ


def test_artifact_diff_runs_the_nonconvex_scalar_profile(tmp_path):
    from vbpg.cli import main

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    path = tmp_path / "pl_profile.json"
    cfg = json.loads(path.read_text())
    assert cfg["problem"] == {"kind": "profile",
                              "params": {"id": "pl_nonconvex"}}
    assert cfg["solver"]["epsilon"] == 0.1 and cfg["x0"] == [2.5]
    assert cfg["probe"]["center"] == [0.7]  # off the minimizer at 0
    for command in ("solve", "probe"):
        assert cmds[f"{command}-pl_profile"] == [command, "--config", str(path)]
        assert main(cmds[f"{command}-pl_profile"]
                    + ["--seed", "7", "--out", str(tmp_path / command)]) == 0
    summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
    assert summary["terminated_reason"] == "step_tol"
    assert (tmp_path / "probe" / "probe.csv").exists()


def test_artifact_diff_solves_the_power_profiles(tmp_path):
    from vbpg.cli import main
    from vbpg.problems import shipped_instances
    from vbpg.solver import vbpg_run

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    shipped = shipped_instances()
    # the d = 1 runs whose prox works on the point's coordinate
    for pid, name in (("pow4", "pow4"), ("abs_pow_3_2", "pow15")):
        path = tmp_path / f"profile_{pid}.json"
        assert cmds[f"solve-profile_{pid}"] == ["solve", "--config", str(path)]
        out = tmp_path / pid
        assert main(cmds[f"solve-profile_{pid}"]
                    + ["--seed", "7", "--out", str(out)]) == 0
        # the invariant suite's instance of the same profile and schedule
        inst = shipped[name]
        assert json.loads(path.read_text())["x0"] == list(inst.x0)
        trace = vbpg_run(inst.problem(), inst.config, inst.start())
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines == trace.csv_lines()


def test_artifact_diff_solves_pow4_under_the_one_entry_kernels(tmp_path):
    from vbpg.cli import main

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    euclidean = json.loads((tmp_path / "profile_pow4.json").read_text())
    assert main(cmds["solve-profile_pow4"]
                + ["--seed", "7", "--out", str(tmp_path / "euclidean")]) == 0
    want = (tmp_path / "euclidean" / "trace.csv").read_bytes()
    for name, kernel in (("diagonal", {"kind": "diagonal", "d": [1.0]}),
                         ("quadratic", {"kind": "quadratic", "A": [[1.0]]})):
        path = tmp_path / f"profile_pow4_{name}.json"
        assert cmds[f"solve-profile_pow4_{name}"] == ["solve", "--config",
                                                      str(path)]
        cfg = json.loads(path.read_text())
        assert cfg["solver"].pop("kernel") == kernel
        euclidean["solver"].pop("kernel", None)
        assert cfg == euclidean  # pow4's run, only the kernel differs
        out = tmp_path / name
        assert main(cmds[f"solve-profile_pow4_{name}"]
                    + ["--seed", "7", "--out", str(out)]) == 0
        # a kernel of weight 1 gives the euclidean run's trace
        assert (out / "trace.csv").read_bytes() == want


def test_artifact_diff_probes_the_cell_bound_paths(tmp_path):
    from vbpg.cli import main, problem_from_spec, problem_spec_from_config

    script = runpy.run_path(str(SCRIPTS / "artifact_diff.py"))
    cmds = script["commands"](tmp_path)
    problems = {}
    for stem in ("lasso3_offmin", "logistic_l1", "box_quadratic_L_override"):
        path = tmp_path / f"{stem}.json"
        assert cmds[f"probe-{stem}"] == ["probe", "--config", str(path)]
        cfg = json.loads(path.read_text())
        assert cfg == script["CELL_BOUND_PROBES"][stem]
        problems[stem] = problem_from_spec(problem_spec_from_config(cfg))
        out = tmp_path / stem
        assert main(cmds[f"probe-{stem}"]
                    + ["--seed", "7", "--out", str(out)]) == 0
        assert (out / "probe.csv").exists()
    # d = 3; an f without a column formula; an L_override (0.01) far
    # below the curvature (2) that the cell bounds read
    assert problems["lasso3_offmin"].dim == 3
    assert problems["logistic_l1"].f.value_columns is None
    f = problems["box_quadratic_L_override"].f
    assert (f.lipschitz_L, f.certified_L) == (0.01, 2.0)
