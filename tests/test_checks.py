"""The invariant checks' array passes against their per-sample loops.

``_ref_*`` below are the loops the checks ran before they became array
passes: one prox solve, one gradient or one kernel call per sample.  The
array checks must give the same records: the same name, instance and
``passed`` flag, and the same ``worst`` up to summation roundoff (F and E
now sum over rows with ``F_batch``).
"""

import math

import numpy as np
import pytest

from vbpg import bregman, checks
from vbpg.bregman import descent_case, descent_constants, residual_bound
from vbpg.core import KernelSpec, SolverConfig, sample_box, vector_norm
from vbpg.problems import (GridProxOracle, ProblemSpec, ShippedInstance,
                           shipped_instances)
from vbpg.solver import vbpg_run

from reference import certificate, descent_slack, envelope_and_gap


def _ref_gradient_lipschitz(inst, rng, n=1000):
    problem = inst.problem()
    L = problem.f.lipschitz_L
    X = sample_box(rng, n, inst.box_center(), inst.sample_halfwidth)
    Y = sample_box(rng, n, inst.box_center(), inst.sample_halfwidth)
    worst = 0.0
    for x, y in zip(X, Y):
        dxy = vector_norm(x - y)
        if dxy < 1e-12:
            continue
        ratio = vector_norm(problem.f.gradient(x)
                            - problem.f.gradient(y)) / dxy
        worst = max(worst, ratio)
    ok = worst <= L * (1.0 + 1e-9) + 1e-12
    return checks._record("gradient_lipschitz_ratio", inst.spec.name, ok,
                          L - worst, f"max ratio {worst:.6g} vs L={L:g}")


def _ref_kernel_bounds(inst, rng, n=500):
    worst = math.inf
    for K in inst.config.kernels:
        X = sample_box(rng, n, inst.box_center(), inst.sample_halfwidth)
        Y = sample_box(rng, n, inst.box_center(), inst.sample_halfwidth)
        for x, y in zip(X, Y):
            r2 = float((x - y) @ (x - y))
            D = K.distance(x, y)
            worst = min(worst, D - 0.5 * K.m * r2, 0.5 * K.M * r2 - D)
            gy = vector_norm(K.grad_y(x, y))
            worst = min(worst, K.M * math.sqrt(r2) * (1 + 1e-9) - gy)
    return checks._record("kernel_distance_bounds", inst.spec.name,
                          worst >= -1e-10, worst)


def _ref_prox_invariants(inst, rng, n=300):
    problem = inst.problem()
    K = inst.config.kernel_at(0)
    eps = inst.config.eps_at(0)
    L = problem.f.lipschitz_L
    consts = descent_constants(descent_case(problem), K.m, K.M, L, eps, eps)
    a = 0.5 * (K.m / eps - L)
    bound = residual_bound(L, K.M, eps)
    X = checks._finite_samples(problem, rng, n, inst.box_center(),
                               inst.sample_halfwidth)
    U = checks._finite_samples(problem, rng, n, inst.box_center(),
                               inst.sample_halfwidth)
    gap_err, descent, decrease, resid = 0.0, math.inf, math.inf, math.inf
    for i, x in enumerate(X):
        E, G, prox = envelope_and_gap(problem, K, eps, x)
        t = prox.minimizer
        Fx, Ft = problem.F(x), problem.F(t)
        gap_err = max(gap_err, abs(Fx - E - eps * G) / (1.0 + abs(Fx)))
        if G < -1e-12 or E > Fx + 1e-10 * (1 + abs(Fx)):
            gap_err = max(gap_err, 1.0)
        if i < len(U):
            slack = descent_slack(problem, K, eps, x, U[i], consts)
            if math.isfinite(slack):
                descent = min(descent, slack)
        r2 = float((x - t) @ (x - t))
        decrease = min(decrease, E - a * r2 - Ft, Fx - a * r2 - Ft)
        xi = certificate(problem, K, eps, x, t)
        resid = min(resid, bound * vector_norm(x - t) * (1 + 1e-9)
                    - vector_norm(xi))
    name = inst.spec.name
    return [checks._record("gap_identity", name, gap_err <= 1e-10,
                           1e-10 - gap_err,
                           f"max relative identity error {gap_err:.3g}"),
            checks._record("descent_inequality", name, descent >= -1e-8,
                           descent, f"case {consts.case_id}"),
            checks._record("envelope_value_decrease", name, decrease >= -1e-8,
                           decrease),
            checks._record("prox_subgradient_bound", name, resid >= -1e-12,
                           resid)]


def _ref_prox_vs_grid(inst, rng, n=60):
    g = inst.problem().g
    oracle = GridProxOracle(g, -10.0, 10.0, 1e-4)
    V, W, EPS = rng.uniform([-6.0, 0.5, 0.2], [6.0, 2.0, 1.0], size=(n, 3)).T
    T, _ = g.prox(V, W, EPS)
    H = g.values(T) + 0.5 * (W / EPS) * (T - V) ** 2
    worst_arg = worst_val = 0.0
    for v, w, eps, t, hval in zip(V.tolist(), W.tolist(), EPS.tolist(),
                                  T.tolist(), H.tolist()):
        h = oracle.gvals + (w / (2.0 * eps)) * (oracle.grid - v) ** 2
        j = int(np.argmin(h))
        worst_arg = max(worst_arg, abs(t - float(oracle.grid[j])))
        worst_val = max(worst_val, hval - float(h[j]))
    ok = worst_arg <= 2e-4 and worst_val <= 1e-8
    return checks._record("prox_matches_grid_oracle", inst.spec.name, ok,
                          2e-4 - worst_arg, f"value slack {worst_val:.3g}")


def _ref_monotone(trace) -> bool:
    fv = np.array(trace.f_values)
    mono_ok = True
    for k in range(len(fv) - 1):
        if fv[k + 1] > fv[k] + 1e-12 * (1.0 + abs(fv[k])):
            mono_ok = False
        if (trace.step_norms[k] >= 1e-7 * (1.0 + np.linalg.norm(trace.final_x))
                and not fv[k + 1] < fv[k]):
            mono_ok = False
    return mono_ok


def _instances():
    """The shipped instances plus one under a non-diagonal quadratic
    kernel (the row-by-row prox path)."""
    insts = dict(shipped_instances())
    spec = ProblemSpec("quad_kernel_mcp", "quadratic",
                       {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]},
                       "mcp", {"lam": 0.6, "gamma": 4.0}, 2)
    K = KernelSpec.quadratic([[1.3, 0.2], [0.2, 1.0]])
    insts["quad_kernel_mcp"] = ShippedInstance(
        spec=spec, config=SolverConfig.constant(0.3, K, max_iters=600),
        x0=(1.5, 1.0), sample_halfwidth=2.0)
    return insts


INSTANCES = _instances()


def _assert_same_records(got, want, exact):
    got = got if isinstance(got, list) else [got]
    want = want if isinstance(want, list) else [want]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["name"], g["instance"], g["passed"]) == (
            w["name"], w["instance"], w["passed"])
        if exact:
            assert g == w
        else:
            assert abs(g["worst"] - w["worst"]) <= 1e-12 * (1.0 + abs(w["worst"]))


# the quadratic-kernel instance solves its proxes row by row: one seed
CASES = [(name, seed) for name in sorted(INSTANCES) for seed in (0, 12345)
         if name != "quad_kernel_mcp" or seed == 0]


@pytest.mark.parametrize("name,seed", CASES)
@pytest.mark.parametrize("check,ref,exact", [
    (checks.check_gradient_lipschitz, _ref_gradient_lipschitz, True),
    (checks.check_kernel_bounds, _ref_kernel_bounds, True),
    (checks.check_prox_vs_grid, _ref_prox_vs_grid, True),
    (checks.check_prox_invariants, _ref_prox_invariants, False),
], ids=["gradient_lipschitz", "kernel_bounds", "prox_vs_grid",
        "prox_invariants"])
def test_array_check_matches_per_sample_loop(check, ref, exact, name, seed):
    inst = INSTANCES[name]
    _assert_same_records(check(inst, np.random.default_rng(seed)),
                         ref(inst, np.random.default_rng(seed)), exact)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_solver_run_passes_with_monotone_trace(name):
    inst = INSTANCES[name]
    rec = checks.check_solver_run(inst, np.random.default_rng(0))
    if rec is None:
        return
    trace = vbpg_run(inst.problem(), inst.config, inst.start())
    assert _ref_monotone(trace) and rec["passed"]


def test_monotone_scan_flags_rise_and_stall(monkeypatch):
    inst = INSTANCES["lasso2"]
    trace = vbpg_run(inst.problem(), inst.config, inst.start())
    for edit in ("rise", "stall"):
        bad = vbpg_run(inst.problem(), inst.config, inst.start())
        if edit == "rise":
            bad.f_values[2] = bad.f_values[1] + 1e-3
        else:
            bad.f_values[2] = bad.f_values[1]  # equal F after a real step
        assert not _ref_monotone(bad)
        monkeypatch.setattr(checks, "vbpg_run", lambda *a, _t=bad: _t)
        rec = checks.check_solver_run(inst, np.random.default_rng(0))
        assert not rec["passed"] and rec["worst"] == -1.0
    monkeypatch.setattr(checks, "vbpg_run", lambda *a: trace)
    assert checks.check_solver_run(inst, np.random.default_rng(0))["passed"]


def test_suite_call_counts(monkeypatch):
    """On separable kernels the prox invariants make no per-point prox
    call, and the grid check makes one oracle call per instance."""
    calls = {"prox": 0, "argmin_many": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bregman, "prox_map",
                        counting("prox", bregman.prox_map))
    monkeypatch.setattr(GridProxOracle, "argmin_many",
                        counting("argmin_many", GridProxOracle.argmin_many))
    insts = shipped_instances()
    assert all(K.diag_weights(inst.spec.dimension) is not None
               for inst in insts.values() for K in inst.config.kernels)
    for inst in insts.values():
        checks.check_prox_invariants(inst, np.random.default_rng(0))
    assert calls["prox"] == 0
    for inst in insts.values():
        checks.check_prox_vs_grid(inst, np.random.default_rng(0))
    assert calls["argmin_many"] == len(insts)


def test_suite_records_unchanged_in_name_and_flag():
    records = checks.run_invariant_suite(seed=7)
    assert len(records) == 91
    assert all(r["passed"] for r in records)
