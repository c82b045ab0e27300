"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs each workload for one round (seed 0), confirms every check passes on
the real outputs, then feeds each check a deliberately corrupted copy and
expects that check, by name, to reject it.  It also confirms that
BENCHMARK.json lists exactly the metrics run.py prints, and that run.py
fails without printing a result when the vbpg sources are missing.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 0
OUT = run.OUT_ROOT / "selftest"


def expect(check_name: str, fn) -> str:
    try:
        fn()
    except checks.CheckFailure as exc:
        if exc.check == check_name:
            return f"rejected by {check_name}"
        raise AssertionError(f"expected {check_name}, got {exc}")
    raise AssertionError(f"{check_name} accepted a corrupted output")


def solve_cases(out: Path) -> list:
    instances = {i.name: i for i in workloads.solve_large_inputs(SEED)}
    traces = checks.load_traces(out)
    l1 = instances["l1_d500_euclidean"]
    ref = checks.l1_reference(l1)

    def tr(name="l1_d500_euclidean"):
        return copy.deepcopy(traces[name])

    def off_criticality():
        t = tr("scad_d500_euclidean")
        inst = instances["scad_d500_euclidean"]
        x = t["iterates"][-1]
        g = inst.comp.grad(x)
        i = int(np.argmax(np.where(x == 0.0, np.abs(g), -1.0)))
        x[i] += 1e-6 * np.sign(g[i])  # a zero coordinate leaves zero
        t["final_x"] = x
        return lambda: checks.check_final_residual(inst, t)

    def no_decrease():
        t = tr()
        F = l1.comp.F(t["iterates"])
        F[-1] += 1e-9 * (1 + abs(F[-1]))
        return lambda: checks.check_decrease(l1, t, F)

    def wrong_value():
        t = tr()
        t["f_values"][3] += 1e-9 * (1 + abs(t["f_values"][3]))
        return lambda: checks.check_trace_values(l1, t)

    def wrong_reason():
        t = tr()
        t["reason"] = np.array("max_iters")
        return lambda: checks.check_step_tol(l1, t)

    def wrong_final_F():
        t = tr()
        t["f_values"][-1] += 1e-8
        return lambda: checks.check_l1_reference(l1, t, ref)

    return [("solve.final_residual", "final point pushed off criticality", off_criticality),
            ("solve.sufficient_decrease", "F raised at the last iterate", no_decrease),
            ("solve.trace_values", "recorded F changed by 1e-9", wrong_value),
            ("solve.terminated_on_step_tol", "run ended on max_iters", wrong_reason),
            ("solve.l1_reference", "final F raised by 1e-8", wrong_final_F)]


def probe_cases(out: Path) -> list:
    ops = {op.name: op for op in workloads.probe_inputs(SEED, run.ROOT)}
    loaded = {name: checks.load_probe(out / "ops" / name) for name in ops}

    def case(name, mutate):
        def make():
            cols, report = copy.deepcopy(loaded[name])
            mutate(cols, report)
            return lambda: checks.check_probe(ops[name], cols, report)
        return make

    def drop_row(cols, report):
        for key in cols:
            cols[key] = cols[key][1:]

    def out_of_slice(cols, report):
        cols["x"][0] += float(ops["lasso"].cfg["probe"]["eta"]) * 2.0

    def add(col, delta):
        def mutate(cols, report):
            cols[col][0] += delta
        return mutate

    def set_report(path, value):
        def mutate(cols, report):
            node = report
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value(node[path[-1]])
        return mutate

    return [
        ("probe.sample_count", "a row dropped", case("lasso", drop_row)),
        ("probe.F_bar", "F_bar raised by 1e-6",
         case("quad_mcp", set_report(["slice", "F_bar"], lambda v: v + 1e-6))),
        ("probe.F_bar", "off-minimizer F_bar raised by 1e-6",
         case("lasso_offmin", set_report(["slice", "F_bar"], lambda v: v + 1e-6))),
        ("probe.rows_in_slice", "a row moved out of the ball", case("lasso", out_of_slice)),
        ("probe.value_gap", "value_gap moved by 1e-9", case("quadratic_probe", add("value_gap", 1e-9))),
        ("probe.dist_subdiff", "dist_subdiff moved by 1e-6", case("quad_mcp", add("dist_subdiff", 1e-6))),
        ("probe.dist_prox", "dist_prox moved by 1e-7", case("jump_probe", add("dist_prox", 1e-7))),
        ("probe.dist_level", "dist_level moved by 1e-3", case("lasso", add("dist_level", 1e-3))),
        ("probe.dist_level", "off-minimizer dist_level below the true distance",
         case("quadratic_offmin", add("dist_level", -1e-3))),
        ("probe.dist_level", "off-minimizer dist_level 0.02 too far",
         case("lasso_offmin", add("dist_level", 0.02))),
        ("probe.step_containment", "a containment violation",
         case("lasso", set_report(["checks", "step_containment", "n_violations"],
                                  lambda v: 1))),
        ("probe.jump_level_subdiff", "level_subdiff constant 1.01",
         case("jump_probe", set_report(["fits", "level_subdiff", "constant"],
                                       lambda v: 1.01))),
        ("probe.jump_kl_sweep", "a KL-sweep row flagging half the samples",
         case("jump_probe", set_report(["checks", "kl_sweep"],
                                       lambda rows: rows[:-1] + [dict(rows[-1], violated_fraction=0.5)]))),
    ]


def check_suite_cases(out: Path) -> list:
    inputs = workloads.check_suite_inputs(SEED, run.ROOT)
    records = checks.load_records(out)
    rows = checks.load_compare(out)
    cfg = json.loads(Path(inputs.compare_config).read_text())

    def flipped():
        recs = copy.deepcopy(records)
        recs[len(recs) // 2]["passed"] = False
        return lambda: checks.check_records(recs)

    def off_minimum():
        r = copy.deepcopy(rows)
        r[0]["final_F"] = repr(float(r[0]["final_F"]) + 1e-6)
        return lambda: checks.check_compare(cfg, r)

    def missing_row():
        return lambda: checks.check_compare(cfg, rows[:-1])

    return [("check.records_pass", "an invariant record flipped to failed", flipped),
            ("check.compare_minimum", "a compare row 1e-6 above the minimum", off_minimum),
            ("check.compare_minimum", "a compare row missing", missing_row)]


CASES = {"solve_large": solve_cases, "probe_campaign": probe_cases,
         "check_suite": check_suite_cases}


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}, e2e
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layer == tracing.PER_LAYER, "per_layer differs from tracing.PER_LAYER"
    print("BENCHMARK.json lists the metrics run.py prints")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: run.py must fail, printing no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "check_suite", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print(f"without src/: exit code {proc.returncode}, no result printed")


def main() -> int:
    check_benchmark_json()
    check_bare_directory()
    caught = 0
    for workload, cases in CASES.items():
        out = OUT / workload
        shutil.rmtree(out, ignore_errors=True)
        result = run.run_worker(workload, SEED, 0, out, time.monotonic() + 600)
        failures = checks.run_all(run.output_checks(workload, SEED, out, result))
        assert not failures and result["failed"] == 0, (failures, result["errors"])
        print(f"{workload}: real outputs pass every check")
        for name, what, make in cases(out):
            print(f"  {what}: {expect(name, make())}")
            caught += 1
    digests = ["a", "a", "b"]
    print(f"  rounds with different outputs: "
          f"{expect('rounds.identical', lambda: checks.check_rounds_identical(digests))}")
    print(f"selftest passed: {caught + 1} corruptions rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
