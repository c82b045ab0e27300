"""Machine-checkable invariant suite over the shipped instances.

Each check takes an instance, its built problem and a generator, and
returns a record {name, instance, passed, worst, detail}; the suite is
what the ``check`` CLI subcommand runs.  ``worst`` is oriented so
negative means a violation (slack-style) or is the worst observed error
for approximation checks; tolerances mirror the contracts asserted in the
test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .bregman import annotate_points, descent_slack_rows, subgradient_rows
from .core import (Constants, Problem, SolverConfig, grid_rows, min_or_inf,
                   row_dots, row_norms, sample_box, validate_config,
                   vector_norm)
from .diagnostics import check_semiconvex_gap_bounds, grid_min_F
from .problems import GridProxOracle, ShippedInstance, shipped_instances
from .solver import summability_bound, vbpg_final_points, vbpg_run


def _record(name, instance, passed, worst, detail=""):
    return {"name": name, "instance": instance, "passed": bool(passed),
            "worst": float(worst), "detail": detail}


def _finite_samples(problem, rng, n, center, halfwidth):
    X = sample_box(rng, 2 * n, center, halfwidth)
    keep = np.isfinite(problem.F_batch(X))
    return X[keep][:n]


def check_gradient_lipschitz(inst: ShippedInstance, problem: Problem, rng):
    L = problem.f.lipschitz_L
    X = sample_box(rng, 1000, inst.box_center(), inst.sample_halfwidth)
    Y = sample_box(rng, 1000, inst.box_center(), inst.sample_halfwidth)
    dxy = row_norms(X - Y)
    keep = dxy >= 1e-12
    ratio = row_norms(problem.f.gradient(X[keep])
                      - problem.f.gradient(Y[keep])) / dxy[keep]
    worst = float(np.max(ratio, initial=0.0))
    ok = worst <= L * (1.0 + 1e-9) + 1e-12
    return _record("gradient_lipschitz_ratio", inst.spec.name, ok, L - worst,
                   f"max ratio {worst:.6g} vs L={L:g}")


def check_kernel_bounds(inst: ShippedInstance, problem: Problem, rng):
    worst = math.inf
    for K in inst.config.kernels:
        X = sample_box(rng, 500, inst.box_center(), inst.sample_halfwidth)
        Y = sample_box(rng, 500, inst.box_center(), inst.sample_halfwidth)
        r2 = row_dots(X - Y, X - Y)
        D = K.distance(X, Y)
        gy = row_norms(K.grad_y(X, Y))
        worst = min(worst, min_or_inf(D - 0.5 * K.m * r2),
                    min_or_inf(0.5 * K.M * r2 - D),
                    min_or_inf(K.M * np.sqrt(r2) * (1 + 1e-9) - gy))
    return _record("kernel_distance_bounds", inst.spec.name,
                   worst >= -1e-10, worst)


def check_prox_invariants(inst: ShippedInstance, problem: Problem, rng):
    """Four records from one array pass of prox solves: the gap identity,
    the descent inequality (against a second sample set), the
    envelope/value decrease and the prox-subgradient bound."""
    K = inst.config.kernel_at(0)
    eps = inst.config.eps_at(0)
    C = Constants.of(problem, SolverConfig.constant(eps, K))
    X = _finite_samples(problem, rng, 300, inst.box_center(), inst.sample_halfwidth)
    U = _finite_samples(problem, rng, 300, inst.box_center(), inst.sample_halfwidth)
    ann = annotate_points(problem, K, eps, X)
    T, E, G, Ft = ann.prox_point, ann.envelope, ann.gap, ann.prox_F
    Fx = problem.F_batch(X)
    scale = 1.0 + np.abs(Fx)
    gap_err = np.abs(Fx - E - eps * G) / scale
    broken = (G < -1e-12) | (E > Fx + 1e-10 * scale)
    gap_err = float(np.max(np.where(broken, np.maximum(gap_err, 1.0), gap_err),
                           initial=0.0))
    k = min(len(X), len(U))
    descent = min_or_inf(descent_slack_rows(C, X[:k], U[:k], T[:k], Ft[:k],
                                            problem.F_batch(U[:k])))
    r2 = row_dots(X - T, X - T)
    decrease = min_or_inf(np.minimum(E - C.a * r2 - Ft, Fx - C.a * r2 - Ft))
    xi = subgradient_rows(eps, ann.grad, problem.f.gradient(T),
                          K.grad_y(X, T))
    resid = min_or_inf(C.residual * ann.dist_prox * (1 + 1e-9)
                       - row_norms(xi))
    name = inst.spec.name
    return [_record("gap_identity", name, gap_err <= 1e-10, 1e-10 - gap_err,
                    f"max relative identity error {gap_err:.3g}"),
            _record("descent_inequality", name, descent >= -1e-8, descent,
                    f"case {C.case_id}"),
            _record("envelope_value_decrease", name, decrease >= -1e-8,
                    decrease),
            _record("prox_subgradient_bound", name, resid >= -1e-12, resid)]


def check_prox_vs_grid(inst: ShippedInstance, problem: Problem, rng):
    g = problem.g
    oracle = GridProxOracle(g, -10.0, 10.0, 1e-4)
    # one (v, w, eps) row per draw, the same stream as three scalar draws
    V, W, EPS = rng.uniform([-6.0, 0.5, 0.2], [6.0, 2.0, 1.0], size=(60, 3)).T
    T, _ = g.prox(V, W, EPS)
    H = g.values(T) + 0.5 * (W / EPS) * (T - V) ** 2
    TG, HG = oracle.argmin_many(V, W, EPS)
    worst_arg = float(np.max(np.abs(T - TG), initial=0.0))
    worst_val = float(np.max(H - HG, initial=0.0))
    ok = worst_arg <= 2e-4 and worst_val <= 1e-8
    return _record("prox_matches_grid_oracle", inst.spec.name, ok,
                   2e-4 - worst_arg, f"value slack {worst_val:.3g}")


def check_semiconvex_midpoint(inst: ShippedInstance, problem: Problem, rng):
    rho = problem.g.semiconvex_rho
    if not math.isfinite(rho):
        return None
    S, T = rng.uniform(-8, 8, size=(400, 2)).T
    phi = lambda u: problem.g.values(u) + 0.5 * rho * u * u
    rhs = 0.5 * (phi(S) + phi(T))
    # extended-value convexity is vacuous where rhs is infinite
    fin = np.isfinite(rhs)
    lhs = phi(0.5 * (S[fin] + T[fin]))
    worst = min_or_inf(rhs[fin] - lhs)
    return _record("semiconvex_midpoint", inst.spec.name, worst >= -1e-10, worst,
                   f"rho={rho:g}")


def check_solver_run(inst: ShippedInstance, problem: Problem, rng):
    if not problem.level_bounded:
        return None
    config = inst.config
    trace = vbpg_run(problem, config, inst.start())
    fv = np.array(trace.f_values)
    rise = fv[1:] > fv[:-1] + 1e-12 * (1.0 + np.abs(fv[:-1]))
    # a step that is not negligible must strictly decrease F
    moved = (np.array(trace.step_norms)
             >= 1e-7 * (1.0 + vector_norm(trace.final_x)))
    mono_ok = not np.any(rise | (moved & ~(fv[1:] < fv[:-1])))
    ss = float(np.sum(np.square(trace.step_norms)))
    if problem.dim <= 3:
        F_star = grid_min_F(problem, inst.box_center(),
                            max(inst.sample_halfwidth, 2.0))
        caveat = ""
    else:
        # no grid oracle above dimension 3: F* is the best final F of 50
        # random restarts (one multi-start); the bound is as good as that
        c, hw = inst.box_center(), inst.sample_halfwidth
        starts = rng.uniform(c - hw, c + hw, size=(50, problem.dim))
        starts = starts[np.isfinite(problem.F_batch(starts))]
        F_star = min_or_inf(problem.F_batch(
            vbpg_final_points(problem, config, starts)))
        caveat = " (conditional: restart-based F*)"
    bound = summability_bound(problem, config, inst.start(), F_star)
    if bound == math.inf:
        summ_ok = False
        detail = f"sum sq steps {ss:.3g}; bound not certified (m/eps_hi <= L)"
    else:
        summ_ok = ss <= bound + 1e-6
        detail = f"sum sq steps {ss:.3g} <= {bound:.3g}{caveat}"
    res_ok = True
    if trace.terminated_reason in ("step_tol", "critical_point") and trace.residuals:
        lim = Constants.of(problem, config).residual
        res_ok = trace.final_residual <= lim * trace.step_norms[-1] * (1 + 1e-9) + 1e-15
    ok = mono_ok and summ_ok and res_ok
    return _record("solver_monotone_summable", inst.spec.name, ok,
                   0.0 if ok else -1.0,
                   detail + f"; reason={trace.terminated_reason}")


def check_level_boundedness(inst: ShippedInstance, problem: Problem, rng):
    """Desk-scale scan: the sublevel set {F <= F(x0)} inside a doubled
    sampling box must stay clear of the box boundary."""
    if not problem.level_bounded or problem.dim > 3:
        return None
    hw = 2.0 * inst.sample_halfwidth + 1.0
    c = inst.box_center()
    pts = grid_rows([np.linspace(ci - hw, ci + hw, 41) for ci in c])
    vals = problem.F_batch(pts)
    level = problem.F(inst.start())
    inside = vals <= level
    on_boundary = np.any(np.abs(pts - c[None, :]) >= hw - 1e-9, axis=1)
    leak = int(np.sum(inside & on_boundary))
    return _record("level_boundedness_scan", inst.spec.name, leak == 0,
                   -float(leak), f"level={level:.4g}, halfwidth={hw:g}")


def check_semiconvex_suite(inst: ShippedInstance, problem: Problem, rng):
    rho = problem.g.semiconvex_rho
    if not (math.isfinite(rho) and rho > 0):
        return None
    K = inst.config.kernel_at(0)
    eps = inst.config.eps_at(0)
    if not validate_config(problem, SolverConfig.constant(eps, K)).ok:
        return None
    X = _finite_samples(problem, rng, 200, inst.box_center(), inst.sample_halfwidth)
    rep = check_semiconvex_gap_bounds(problem, K, eps, X)
    worst = min(rep["min_slack"].values())
    return _record("semiconvex_gap_bounds", inst.spec.name, worst >= -1e-8,
                   worst)


_CHECKS = [check_gradient_lipschitz, check_kernel_bounds, check_prox_invariants,
           check_prox_vs_grid, check_semiconvex_midpoint,
           check_level_boundedness, check_solver_run, check_semiconvex_suite]


def run_invariant_suite(instances=None, seed: int = 0) -> list:
    """All invariant checks over the given (default: shipped) instances;
    each instance's problem is built once and shared by its checks."""
    if instances is None:
        instances = shipped_instances()
    records = []
    for name, inst in instances.items():
        problem = inst.problem()
        for check in _CHECKS:
            rec = check(inst, problem, np.random.default_rng(seed))
            if isinstance(rec, list):
                records.extend(rec)
            elif rec is not None:
                records.append(rec)
    return records
