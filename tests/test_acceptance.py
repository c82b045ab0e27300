"""Acceptance suite: one test per shipped contract, each printing a
pass line with the measured margin.  Tolerances are fixed here, not
calibrated: slack-style checks use -1e-8, identity checks 1e-10 relative,
rate certificates a 1.05 multiplicative allowance."""

import math
import time
from pathlib import Path

import numpy as np

from vbpg.bregman import annotate_points, prox_map
from vbpg.checks import semiconvex_gap_slacks
from vbpg.core import Constants, KernelSpec, SolverConfig, sample_box
from vbpg.diagnostics import (estimate_level_set_rate, estimate_q_linear_rate,
                              fit_error_bound, kl_exponent_sweep,
                              run_campaign)
from vbpg.problems import GridProxOracle, build_regularizer
from vbpg.solver import summability_bound, vbpg_run
from vbpg.cli import main as cli_main

from reference import (certificate, descent_case_specs, descent_slack,
                       envelope_and_gap, inner_solve_from, subdiff_distance)

EUC = KernelSpec.euclidean()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def admissible_eps(problem, m=1.0, margin=0.8):
    caps = [m / problem.f.lipschitz_L if problem.f.lipschitz_L > 0 else math.inf]
    rho = problem.g.semiconvex_rho
    if math.isfinite(rho) and rho > 0:
        caps.append(m / rho)
    cap = min(caps)
    return margin * cap if math.isfinite(cap) else 0.5


def finite_samples(problem, rng, n, center, halfwidth):
    X = sample_box(rng, 2 * n, center, halfwidth)
    keep = np.isfinite(problem.F_batch(X))
    X = X[keep]
    assert X.shape[0] >= n
    return X[:n]


def test_criterion_01_descent_inequality_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_by_case = {}
    for cid, spec in descent_case_specs().items():
        p = spec.build()
        eps = admissible_eps(p)
        consts = Constants(p.f.lipschitz_L, p.g.semiconvex_rho, 1.0, 1.0,
                           eps, eps, cid)
        worst = math.inf
        for _ in range(1000):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-2, 2, 2)
            worst = min(worst, descent_slack(p, EUC, eps, x, u, consts))
        worst_by_case[cid] = worst
        assert worst >= -1e-8, (cid, worst)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"descent suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: descent slack >= -1e-8 on 4x1000 pairs "
          f"(worst {min(worst_by_case.values()):.2e}, {elapsed:.1f}s)")


def test_criterion_02_gap_identity(registry):
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, inst in registry.items():
        p = inst.problem()
        K = inst.config.kernel_at(0)
        eps = inst.config.eps_at(0)
        for x in finite_samples(p, rng, 1000, inst.box_center(),
                                inst.sample_halfwidth):
            E, G, _ = envelope_and_gap(p, K, eps, x)
            Fx = p.F(x)
            err = abs(Fx - E - eps * G) / (1.0 + abs(Fx))
            worst = max(worst, err)
            assert err <= 1e-10, (name, err)
    print(f"\nPASS criterion 2: gap identity to 1e-10 relative "
          f"(worst {worst:.2e})")


def test_criterion_03_residual_bound(registry):
    rng = np.random.default_rng(103)
    for name, inst in registry.items():
        p = inst.problem()
        K = inst.config.kernel_at(0)
        eps = inst.config.eps_at(0)
        lim = Constants.of(p, SolverConfig.constant(eps, K)).residual
        for x in finite_samples(p, rng, 1000, inst.box_center(),
                                inst.sample_halfwidth):
            r = prox_map(p, K, eps, x)
            xi = certificate(p, K, eps, x, r.minimizer)
            lhs = float(np.linalg.norm(xi))
            rhs = lim * float(np.linalg.norm(x - r.minimizer)) * (1 + 1e-9)
            assert lhs <= rhs + 1e-15, (name, lhs, rhs)
    print("\nPASS criterion 3: residual bound (L + M/eps) over 1000 "
          "samples per problem")


def _variable_schedule(problem, dim):
    kernels = (EUC, KernelSpec.diagonal(np.linspace(0.8, 1.25, dim)))
    m = min(K.m for K in kernels)
    eps = admissible_eps(problem, m=m, margin=0.75)
    return SolverConfig(epsilons=(eps, 0.8 * eps), kernels=kernels,
                        max_iters=1500, step_tol=1e-10)


def test_criterion_04_monotone_and_summable(registry):
    for name, inst in registry.items():
        p = inst.problem()
        if not p.level_bounded:
            continue
        configs = {"default": inst.config}
        if name != "jump":  # the jump solve ends in two exact steps
            configs["variable"] = _variable_schedule(p, p.dim)
        for tag, config in configs.items():
            trace = vbpg_run(p, config, inst.start())
            fv = trace.f_values
            scale = 1.0 + float(np.linalg.norm(trace.final_x))
            for k in range(len(fv) - 1):
                assert fv[k + 1] <= fv[k] + 1e-12 * (1 + abs(fv[k])), (name, tag)
                if trace.step_norms[k] >= 1e-7 * scale:
                    assert fv[k + 1] < fv[k], (name, tag, k)
            # the decrease telescopes to (F(x0) - F(x^N))/a <= (F(x0) - F*)/a
            bound = summability_bound(p, config, inst.start(), trace.final_F)
            total = float(np.sum(np.square(trace.step_norms)))
            assert total <= bound + 1e-6, (name, tag, total, bound)
    print("\nPASS criterion 4: monotone decrease and summable squared steps "
          "on every shipped problem and schedule")


def test_criterion_05_fixed_point_criticality(registry):
    for name, inst in registry.items():
        p = inst.problem()
        if not p.level_bounded:
            continue
        trace = vbpg_run(p, inst.config, inst.start())
        assert trace.terminated_reason in ("step_tol", "critical_point"), name
        step_tol = inst.config.resolved_step_tol(inst.start())
        lim = Constants.of(p, inst.config).residual
        xf = trace.final_x
        dist = subdiff_distance(p.g, xf, p.f.gradient(xf))
        assert dist <= lim * step_tol * 10.0, (name, dist, lim * step_tol)
    print("\nPASS criterion 5: final iterates critical via analytic "
          "subdifferentials")


def test_criterion_06_jump_counterexample():
    from vbpg.core import SolverConfig
    from vbpg.problems import jump_spec
    t0 = time.monotonic()
    campaign = run_campaign(jump_spec(0.0).build(),
                            SolverConfig.constant(0.5, EUC, max_iters=50),
                            [0.8], {"center": [0.0], "eta": 0.5, "nu": 1.2,
                                    "n_samples": 200, "box_halfwidth": 2.0},
                            seed=7)
    samples = campaign.samples
    fit = fit_error_bound(samples, "level_subdiff")
    assert abs(fit.exponent - 1.0) <= 1e-6
    assert abs(fit.constant - 1.0) <= 1e-6
    assert fit.violated_fraction == 0.0
    alphas = [round(0.05 * k, 2) for k in range(1, 20)]
    sweep = kl_exponent_sweep(samples, alphas)
    assert len(sweep) == 19
    for row in sweep:
        assert row["violated_fraction"] >= 0.99, row
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"\nPASS criterion 6: jump function certifies gamma=1, c3=1 and "
          f"defeats every KL exponent ({elapsed:.2f}s)")


def test_criterion_07_exponent_map(profile_campaigns):
    targets = {"square": 0.5, 1.5: 1.0 / 3.0, 4.0: 0.75}
    for key, alpha_t in targets.items():
        samples = profile_campaigns[key].samples
        kl = fit_error_bound(samples, "kl")
        eb = fit_error_bound(samples, "level_subdiff")
        assert abs(kl.exponent - alpha_t) <= 0.05, (key, kl.exponent)
        gamma_t = kl.exponent / (1.0 - kl.exponent)
        assert abs(eb.exponent - gamma_t) <= 0.1, (key, eb.exponent, gamma_t)
    print("\nPASS criterion 7: fitted KL exponents within 0.05 and "
          "gamma = alpha/(1-alpha) within 0.1 on x^2, |x|^1.5, x^4")


def test_criterion_08_rate_chain():
    from vbpg.core import SolverConfig
    from vbpg.problems import lasso_spec
    t0 = time.monotonic()
    problem = lasso_spec("lasso2", np.eye(2), [1.0, 0.8], 0.5).build()
    config = SolverConfig.constant(0.5, EUC, max_iters=400, step_tol=1e-9)
    lasso_campaign = run_campaign(problem, config, [3.0, -2.0],
                                  {"eta": 0.5, "nu": 0.1, "n_samples": 240,
                                   "box_halfwidth": 2.0, "resolution": 0.005},
                                  seed=5)
    p = lasso_campaign.problem
    trace = lasso_campaign.trace
    sl = lasso_campaign.slice
    eps = lasso_campaign.config.eps_at(0)
    L, m, M = p.f.lipschitz_L, 1.0, 1.0

    fit = fit_error_bound(lasso_campaign.samples, "level_subdiff")
    # certified gamma in (0,1]: the fitted exponent agrees with 1 within the
    # same +-0.1 fit tolerance used for the exponent-map criterion
    assert 0.0 < fit.exponent <= 1.1, fit.exponent
    gamma = min(fit.exponent, 1.0)
    core = (fit.constant * (L + M / eps)) ** (1.0 / gamma)
    theta1 = 1.0 + core * (sl.radius_eta / 2.0) ** (1.0 / gamma - 1.0)
    c0 = 1.5 * L + M / (2.0 * eps)
    kappa = c0 * theta1 ** 2
    a = 0.5 * (m / eps - L)
    beta_certified = 1.0 / (1.0 + a / kappa)

    beta_hat, _ = estimate_q_linear_rate(trace, sl.F_bar)
    assert beta_hat <= beta_certified * 1.05, (beta_hat, beta_certified)

    # iterate tail decays R-linearly at sqrt(beta_hat)
    root = math.sqrt(beta_hat)
    dists = [float(np.linalg.norm(x - trace.final_x))
             for x in trace.iterates]
    ratios = [d1 / d0 for d0, d1 in zip(dists, dists[1:])
              if d0 > 1e-8 and d1 > 1e-8]
    assert ratios and max(ratios[-5:]) <= root * 1.05
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 8: observed beta {beta_hat:.3f} within the "
          f"certified bound {beta_certified:.3f} (chain, {elapsed:.1f}s)")


def test_criterion_09_level_set_rate(lasso_campaign):
    p = lasso_campaign.problem
    rep = estimate_level_set_rate(lasso_campaign.trace, p,
                                  lasso_campaign.slice.F_bar,
                                  lasso_campaign.grid)
    beta_ls = rep["beta_levelset"]
    assert beta_ls < 1.0
    s = lasso_campaign.samples
    pos = s.dist_subdiff > 0
    refit = np.max(s.dist_level[pos] / s.dist_subdiff[pos])
    eps = lasso_campaign.config.eps_at(0)
    rho = p.g.semiconvex_rho  # 0 for the convex l1 penalty
    bound = eps / ((1.0 - beta_ls) * (1.0 - eps * rho))
    assert refit <= bound * 1.05, (refit, bound)
    print(f"\nPASS criterion 9: level-set contraction {beta_ls:.3f} < 1 and "
          f"refit constant {refit:.3f} <= {bound:.3f} * 1.05")


def test_criterion_10_prox_oracle_equivalence():
    penalties = {
        "l1": {"lam": 0.8},
        "box": {"lo": -1.0, "hi": 1.0},
        "scad": {"lam": 1.0, "a": 3.7},
        "mcp": {"lam": 1.0, "gamma": 2.5},
    }
    rng = np.random.default_rng(110)
    worst_arg = worst_val = 0.0
    for kind, params in penalties.items():
        g = build_regularizer(kind, params)
        oracle = GridProxOracle(g, -10.0, 10.0, 1e-4)
        # rows (v, w, eps): the stream of three scalar draws per triple
        V, W, EPS = rng.uniform([-6.0, 0.5, 0.1], [6.0, 2.0, 1.0],
                                size=(10_000, 3)).T
        T, _ = g.prox(V, W, EPS)
        H = g.values(T) + 0.5 * (W / EPS) * (T - V) ** 2
        TG, HG = oracle.argmin_many(V, W, EPS)
        for v, w, eps, t, h, tg, hg in zip(V.tolist(), W.tolist(),
                                           EPS.tolist(), T.tolist(), H.tolist(),
                                           TG.tolist(), HG.tolist()):
            worst_arg = max(worst_arg, abs(t - tg))
            worst_val = max(worst_val, h - hg)
            assert abs(t - tg) <= 2e-4, (kind, v, w, eps)
            assert h - hg <= 1e-8, (kind, v, w, eps)
    print(f"\nPASS criterion 10: prox matches the 1e-4 grid oracle over "
          f"4x10^4 triples (worst arg {worst_arg:.1e}, value {worst_val:.1e})")


def test_criterion_11_semiconvex_suite():
    rng = np.random.default_rng(111)
    instances = [
        ("mcp", {"lam": 0.6, "gamma": 4.0}),
        ("scad", {"lam": 0.5, "a": 3.7}),
    ]
    from vbpg.problems import ProblemSpec
    for g_kind, g_params in instances:
        spec = ProblemSpec("t", "quadratic",
                           {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]},
                           g_kind, g_params, 2)
        p = spec.build()
        eps = admissible_eps(p)
        X = sample_box(rng, 1000, np.zeros(2), 2.0)
        C = Constants.of(p, SolverConfig.constant(eps, EUC))
        slacks = semiconvex_gap_slacks(C, p.F_batch(X),
                                       annotate_points(p, EUC, eps, X))
        for key, slack in slacks.items():
            assert slack >= -1e-8, (g_kind, key, slack)
        # single-valuedness: an inner solve from another start agrees
        Kq = KernelSpec.quadratic([[1.3, 0.2], [0.2, 1.0]])
        eps_q = admissible_eps(p, m=Kq.m, margin=0.7)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            r1 = prox_map(p, Kq, eps_q, x)
            y, _ = inner_solve_from(p, Kq, eps_q, x, rng.uniform(-3, 3, 2))
            assert np.linalg.norm(r1.minimizer - y) <= 1e-8
    print("\nPASS criterion 11: semiconvex envelope/gap/residual bounds and "
          "start-independent prox")


def test_criterion_12_determinism(tmp_path):
    for command, config, files in (
            ("solve", "lasso.json", ("trace.csv", "summary.json")),
            ("probe", "jump_probe.json", ("probe.csv", "eb_report.json"))):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            rc = cli_main([command, "--config", str(CONFIGS / config),
                           "--seed", "17", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), \
                (command, name)
    print("\nPASS criterion 12: solve and probe artifacts byte-identical "
          "across reruns")
