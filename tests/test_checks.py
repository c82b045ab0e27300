"""The invariant checks' array passes against their per-sample loops.

``_ref_*`` below are the loops the checks ran before they became array
passes: one prox solve, one gradient or one kernel call per sample.  The
array checks must give the same records, ``worst`` and ``detail``
included: a row's F, E and F(T x) have the bits of the per-point ones.
"""

import math

import numpy as np
import pytest

from vbpg import bregman, checks, diagnostics, solver
from vbpg.core import (Constants, KernelSpec, Problem, SolverConfig,
                       sample_box, vector_norm)
from vbpg.problems import (GridProxOracle, ProblemSpec, ShippedInstance,
                           shipped_instances)
from vbpg.solver import summability_bound, vbpg_run

from reference import (certificate, descent_slack, envelope_and_gap,
                       reference_semiconvex_slacks)


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
    config = SolverConfig.constant(eps, K)
    consts = Constants.of(problem, config)
    a = 0.5 * (K.m / eps - L)
    bound = L + K.M / eps
    X, _ = checks._finite_samples(problem, rng, n, inst.box_center(),
                                  inst.sample_halfwidth)
    U, _ = checks._finite_samples(problem, rng, n, inst.box_center(),
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
    records = [
        checks._record("gap_identity", name, gap_err <= 1e-10,
                       1e-10 - gap_err,
                       f"max relative identity error {gap_err:.3g}"),
        checks._record("descent_inequality", name, descent >= -1e-8,
                       descent, f"case {consts.case_id}"),
        checks._record("envelope_value_decrease", name, decrease >= -1e-8,
                       decrease),
        checks._record("prox_subgradient_bound", name, resid >= -1e-12,
                       resid)]
    rho = problem.g.semiconvex_rho
    if 0 < rho < math.inf and not consts.violations:
        worst = min(reference_semiconvex_slacks(problem, K, eps, X,
                                                eps).values())
        records.append(checks._record("semiconvex_gap_bounds", name,
                                      worst >= -1e-8, worst))
    return records


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


def _assert_same_records(got, want):
    got = got if isinstance(got, list) else [got]
    want = want if isinstance(want, list) else [want]
    assert got == want


# the quadratic-kernel instance solves its proxes row by row: one seed
CASES = [(name, seed) for name in sorted(INSTANCES) for seed in (0, 12345)
         if name != "quad_kernel_mcp" or seed == 0]


@pytest.mark.parametrize("name,seed", CASES)
@pytest.mark.parametrize("check,ref", [
    (checks.check_gradient_lipschitz, _ref_gradient_lipschitz),
    (checks.check_kernel_bounds, _ref_kernel_bounds),
    (checks.check_prox_vs_grid, _ref_prox_vs_grid),
    (checks.check_prox_invariants, _ref_prox_invariants),
], ids=["gradient_lipschitz", "kernel_bounds", "prox_vs_grid",
        "prox_invariants"])
def test_array_check_matches_per_sample_loop(check, ref, name, seed):
    inst = INSTANCES[name]
    _assert_same_records(
        check(inst, inst.problem(), np.random.default_rng(seed)),
        ref(inst, np.random.default_rng(seed)))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_solver_run_passes_with_monotone_trace(name):
    inst = INSTANCES[name]
    rec = checks.check_solver_run(inst, inst.problem(),
                                  np.random.default_rng(0))
    if rec is None:
        return
    trace = vbpg_run(inst.problem(), inst.config, inst.start())
    assert _ref_monotone(trace) and rec["passed"]


@pytest.mark.parametrize("dim,g_kind,g_params", [
    (1, "l1", {"lam": 0.3}), (2, "mcp", {"lam": 0.6, "gamma": 4.0}),
    (5, "mcp", {"lam": 0.6, "gamma": 4.0}), (12, "l1", {"lam": 0.3}),
    (500, "l1", {"lam": 0.3})],
    ids=["l1_1", "mcp2", "mcp5", "l1_12", "l1_500"])
def test_solver_run_prices_its_bound_with_the_final_F(
        monkeypatch, dim, g_kind, g_params):
    # the decrease telescopes to (F(x0) - F(x^N))/a at every dimension:
    # one run, no multi-start and no estimate of F*
    rng = np.random.default_rng(dim)
    A = rng.standard_normal((dim, dim))
    spec = ProblemSpec("big", "quadratic",
                       {"Q": A @ A.T / dim + 0.1 * np.eye(dim),
                        "b": rng.standard_normal(dim)}, g_kind, g_params, dim)
    problem = spec.build()
    eps = 0.9 / problem.f.lipschitz_L
    config = SolverConfig.constant(eps, KernelSpec.euclidean())
    inst = ShippedInstance(spec, config, (0.5,) * dim, 2.0)
    assert not Constants.of(problem, inst.config).violations
    runs, F_stars = [], []
    monkeypatch.setattr(checks, "vbpg_run",
                        lambda *a: runs.append(vbpg_run(*a)) or runs[-1])

    def multi_start(*a):
        raise AssertionError("the solver record ran a multi-start")

    for module in (solver, diagnostics, checks):
        monkeypatch.setattr(module, "vbpg_final_points", multi_start,
                            raising=False)
    monkeypatch.setattr(checks, "summability_bound",
                        lambda *a: F_stars.append(a[3])
                        or summability_bound(*a))
    rec = checks.check_solver_run(inst, problem, np.random.default_rng(3))
    assert rec["passed"] and "conditional" not in rec["detail"]
    assert len(runs) == 1 and F_stars == [runs[0].final_F]


@pytest.mark.parametrize("g_kind,g_params", [
    ("mcp", {"lam": 0.6, "gamma": 4.0}), ("scad", {"lam": 0.5, "a": 3.7})],
    ids=["mcp", "scad"])
@pytest.mark.parametrize("Q", [[[2.0, 0.3], [0.3, 1.0]],
                               [[0.1, 0.0], [0.0, 0.1]], None],
                         ids=["m_over_L_first", "m_over_rho_first", "L0"])
def test_semiconvex_suite_runs_exactly_when_config_validates(Q, g_kind,
                                                             g_params):
    # the prox invariants add the semiconvex gap bounds record exactly
    # when the pairing validates
    if Q is None:
        spec = ProblemSpec("t", "zero", {}, g_kind, g_params, 2)
    else:
        spec = ProblemSpec("t", "quadratic", {"Q": Q, "b": [0.5, -0.4]},
                           g_kind, g_params, 2)
    problem = spec.build()
    L, rho = problem.f.lipschitz_L, problem.g.semiconvex_rho
    caps = [1.0 / rho] + ([1.0 / L] if L > 0 else [])
    ran = []
    for cap in caps:
        for eps in (cap * (1 - 1e-9), cap * (1 + 1e-9)):
            config = SolverConfig.constant(eps, KernelSpec.euclidean())
            inst = ShippedInstance(spec, config, (0.5, 0.5), 2.0)
            records = checks.check_prox_invariants(inst, problem,
                                                   np.random.default_rng(0))
            names = [rec["name"] for rec in records]
            ok = not Constants.of(problem, config).violations
            assert ("semiconvex_gap_bounds" in names) == ok, eps
            assert len(names) == 4 + ok, eps
            ran.append(ok)
    # below the smaller cap it runs, above either cap it does not
    assert ran.count(True) == 1 and len(ran) == 2 * len(caps)


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
        rec = checks.check_solver_run(inst, inst.problem(),
                                      np.random.default_rng(0))
        assert not rec["passed"] and rec["worst"] == -1.0
    monkeypatch.setattr(checks, "vbpg_run", lambda *a: trace)
    assert checks.check_solver_run(inst, inst.problem(),
                                   np.random.default_rng(0))["passed"]


def test_suite_call_counts(monkeypatch):
    """The prox invariants solve each instance's samples in one
    ``prox_map`` call on the whole 2-D stack, and the grid check makes one
    oracle call per instance."""
    stacks, calls = [], {"argmin_many": 0}
    prox_map = bregman.prox_map

    def stacked(problem, K, eps, X, *rest):
        stacks.append(X.shape)
        return prox_map(problem, K, eps, X, *rest)

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bregman, "prox_map", stacked)
    monkeypatch.setattr(GridProxOracle, "argmin_many",
                        counting("argmin_many", GridProxOracle.argmin_many))
    insts = shipped_instances()
    want = []
    for inst in insts.values():
        X, _ = checks._finite_samples(inst.problem(),
                                      np.random.default_rng(0), 300,
                                      inst.box_center(), inst.sample_halfwidth)
        want.append(X.shape)
        checks.check_prox_invariants(inst, inst.problem(),
                                     np.random.default_rng(0))
    assert stacks == want and all(len(shape) == 2 for shape in want)
    for inst in insts.values():
        checks.check_prox_vs_grid(inst, inst.problem(),
                                  np.random.default_rng(0))
    assert calls["argmin_many"] == len(insts)


def test_one_prox_pass_per_semiconvex_instance(monkeypatch):
    """The semiconvex gap bounds read the prox invariants' annotation and
    F values: one ``annotate_points`` call per instance in the suite, and
    one F evaluation per sample set."""
    insts = {name: INSTANCES[name]
             for name in ("quad_conv_mcp", "quad_conv_scad")}
    annotated, evaluated = [], []
    annotate = bregman.annotate_points
    for module in (bregman, checks, diagnostics):
        monkeypatch.setattr(module, "annotate_points",
                            lambda p, *a: annotated.append(p.name)
                            or annotate(p, *a))
    records = checks.run_invariant_suite(insts, seed=7)
    assert [r["instance"] for r in records
            if r["name"] == "semiconvex_gap_bounds"] == list(insts)
    assert annotated == list(insts)
    F_batch = Problem.F_batch
    monkeypatch.setattr(Problem, "F_batch",
                        lambda self, X: evaluated.append(len(X))
                        or F_batch(self, X))
    for inst in insts.values():
        evaluated.clear()
        records = checks.check_prox_invariants(inst, inst.problem(),
                                               np.random.default_rng(7))
        assert records[-1]["name"] == "semiconvex_gap_bounds"
        # the two draws of 2 x 300 box rows, each filtered on its F
        assert evaluated == [600, 600]


def test_suite_records_unchanged_in_name_and_flag():
    records = checks.run_invariant_suite(seed=7)
    assert len(records) == 91
    assert all(r["passed"] for r in records)
