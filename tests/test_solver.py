import math

import numpy as np
import pytest

from vbpg.bregman import prox_map, residual_bound
from vbpg.core import KernelSpec, SolverConfig
from vbpg.diagnostics import grid_min_F
from vbpg.problems import ProblemSpec, lasso_spec
from vbpg.solver import (block_preconditioner, kernel_schedule_jacobi,
                         summability_bound, vbpg_run)

EUC = KernelSpec.euclidean()


def quad(Q, b, g_kind="zero", g_params=None):
    return ProblemSpec("t", "quadratic", {"Q": Q, "b": b}, g_kind,
                       g_params or {}, len(b)).build()


def prox_step(problem, K, eps, x):
    """One solver update: the prox minimizer at x."""
    return prox_map(problem, K, eps, x).minimizer


def ista_step(A, b, lam, eps, x):
    """Independent soft-threshold gradient step for ||Ax-b||^2/2 + lam|x|_1."""
    v = x - eps * (A.T @ (A @ x - b))
    return np.sign(v) * np.maximum(np.abs(v) - eps * lam, 0.0)


class TestStep:
    def test_gradient_step_when_g_zero(self, rng):
        p = quad([[3.0, 0.7], [0.7, 2.0]], [0.5, -1.0])
        for _ in range(50):
            x = rng.uniform(-3, 3, 2)
            out = prox_step(p, EUC, 0.2, x)
            assert np.allclose(out, x - 0.2 * p.f.gradient(x), atol=1e-14)

    def test_fixed_point_at_critical(self):
        p = quad([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                 "mcp", {"lam": 0.6, "gamma": 4.0})
        cfg = SolverConfig.constant(0.4, EUC, max_iters=3000, step_tol=1e-14)
        xhat = vbpg_run(p, cfg, np.array([1.5, 1.0])).final_x
        again = prox_step(p, EUC, 0.4, xhat)
        assert np.linalg.norm(again - xhat) <= 1e-12

    def test_matches_independent_ista(self, rng):
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        lam = 0.4
        p = lasso_spec("l", A, b, lam).build()
        eps = 0.9 / p.f.lipschitz_L
        for _ in range(50):
            x = rng.uniform(-2, 2, 3)
            assert np.allclose(prox_step(p, EUC, eps, x),
                               ista_step(A, b, lam, eps, x), atol=1e-10)


class TestRun:
    def test_reaches_minimizer_within_analytic_bound(self):
        Q = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1, 3
        x_star = np.array([1.0, -1.0])
        p = quad(Q, list(-(Q @ x_star)))
        eps = 0.5 / p.f.lipschitz_L
        beta_gd = max(abs(1 - eps * w) for w in np.linalg.eigvalsh(Q))
        x0 = np.array([4.0, 3.0])
        K_bound = math.ceil(math.log(np.linalg.norm(x0 - x_star) / 1e-6)
                            / math.log(1.0 / beta_gd))
        cfg = SolverConfig.constant(eps, EUC, max_iters=K_bound, step_tol=0.0)
        trace = vbpg_run(p, cfg, x0)
        assert np.linalg.norm(trace.final_x - x_star) <= 1e-6

    def test_critical_start_stops_immediately(self):
        p = quad(np.eye(2).tolist(), [-1.0, -2.0])
        cfg = SolverConfig.constant(0.4, EUC, max_iters=100)
        trace = vbpg_run(p, cfg, np.array([1.0, 2.0]))
        assert trace.terminated_reason == "critical_point"
        assert trace.n_iters == 1

    def test_zero_max_iters(self):
        p = quad(np.eye(2).tolist(), [0.0, 0.0])
        cfg = SolverConfig.constant(0.4, EUC, max_iters=0)
        trace = vbpg_run(p, cfg, np.array([1.0, 1.0]))
        assert trace.terminated_reason == "max_iters"
        assert trace.n_iters == 0
        assert trace.f_values == [p.F(np.array([1.0, 1.0]))]

    def test_nonfinite_F_raises(self):
        p = quad([[1.0]], [0.0], "box", {"lo": -1.0, "hi": 1.0})
        cfg = SolverConfig.constant(0.5, EUC, max_iters=10)
        with pytest.raises(FloatingPointError):
            vbpg_run(p, cfg, np.array([5.0]))  # F(x0) = inf

    def test_monotone_and_summable_all_shipped(self, registry):
        for name, inst in registry.items():
            p = inst.problem()
            if not p.level_bounded:
                continue
            trace = vbpg_run(p, inst.config, inst.start())
            fv = trace.f_values
            scale = 1.0 + np.linalg.norm(trace.final_x)
            for k in range(len(fv) - 1):
                assert fv[k + 1] <= fv[k] + 1e-12 * (1 + abs(fv[k])), name
                if trace.step_norms[k] >= 1e-7 * scale:
                    assert fv[k + 1] < fv[k], name
            if p.dim <= 3:
                F_star = grid_min_F(p, inst.box_center(),
                                    max(inst.sample_halfwidth, 2.0))
                bound = summability_bound(p, inst.config, inst.start(), F_star)
                assert float(np.sum(np.square(trace.step_norms))) <= bound + 1e-6, name

    def test_per_iteration_descent_slack(self, registry):
        # quantitative decrease with a = (m/eps_hi - L)/2 at every step
        for name, inst in registry.items():
            p = inst.problem()
            if not p.level_bounded:
                continue
            cfg = inst.config
            a = 0.5 * (cfg.m / cfg.eps_hi - p.f.lipschitz_L)
            trace = vbpg_run(p, cfg, inst.start())
            fv = trace.f_values
            for k, step in enumerate(trace.step_norms):
                slack = fv[k] - fv[k + 1] - a * step * step
                assert slack >= -1e-9 * (1 + abs(fv[k])), (name, k, slack)

    def test_final_residual_certificate(self, registry):
        for name, inst in registry.items():
            p = inst.problem()
            if not p.level_bounded:
                continue
            trace = vbpg_run(p, inst.config, inst.start())
            if trace.terminated_reason == "max_iters" or not trace.residuals:
                continue
            lim = residual_bound(p.f.lipschitz_L, inst.config.M,
                                 inst.config.eps_lo)
            assert trace.final_residual <= lim * trace.step_norms[-1] * (1 + 1e-9) + 1e-15, name
            step_tol = inst.config.resolved_step_tol(inst.start())
            assert trace.final_residual <= lim * step_tol * (1 + 1e-9) + 1e-15, name

    def test_variable_schedule_keeps_invariants(self, rng):
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        kernels = (EUC, KernelSpec.diagonal([1.25, 0.8]))
        cfg = SolverConfig(epsilons=(0.5, 0.4), kernels=kernels,
                           max_iters=300, step_tol=1e-11)
        # worst-case certification: m = 0.8, L = 1, eps_hi = 0.5 < 0.8
        trace = vbpg_run(p, cfg, np.array([3.0, -2.0]))
        fv = trace.f_values
        assert all(fv[k + 1] <= fv[k] + 1e-12 for k in range(len(fv) - 1))
        assert trace.terminated_reason == "step_tol"

    def test_restart_value_consistency(self, rng):
        # runs from different starts that land on the same point report the
        # same limiting value
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        cfg = SolverConfig.constant(0.5, EUC, max_iters=2000, step_tol=1e-12)
        finals = []
        for _ in range(4):
            trace = vbpg_run(p, cfg, rng.uniform(-4, 4, 2))
            finals.append((trace.final_x, trace.final_F))
        for (xa, Fa) in finals:
            for (xb, Fb) in finals:
                if np.linalg.norm(xa - xb) <= 1e-4:
                    assert abs(Fa - Fb) <= 1e-6


class TestTraceCsv:
    def test_format(self, tmp_path):
        p = quad(np.eye(2).tolist(), [-1.0, 0.0], "l1", {"lam": 0.3})
        cfg = SolverConfig.constant(0.5, EUC, max_iters=20, step_tol=1e-12)
        trace = vbpg_run(p, cfg, np.array([2.0, -1.0]))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,F,step_norm,gap,residual,eps,kernel,inner_iters,tied"
        assert len(lines) == trace.n_iters + 1
        row = lines[1].split(",")
        assert int(row[0]) == 0
        # 17 significant digits round-trip exactly
        assert float(row[1]) == trace.f_values[0]
        assert float(row[2]) == trace.step_norms[0]


class TestJacobi:
    def setup_method(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((4, 4))
        self.Q = B @ B.T + 4.0 * np.eye(4)
        self.b = rng.standard_normal(4)
        self.p = quad(self.Q.tolist(), list(self.b))

    def test_matches_hand_rolled_block_jacobi(self):
        c = (0.5, 0.8)
        blocks = (2, 2)
        K = kernel_schedule_jacobi(self.Q, blocks, c)
        eps = 0.8 * K.m / self.p.f.lipschitz_L
        x = np.array([1.0, -1.0, 0.5, 2.0])
        y = x.copy()
        for _ in range(10):
            x = prox_step(self.p, K, eps, x)
            # block-decoupled oracle: damped Newton on each diagonal block
            g = self.p.f.gradient(y)
            nxt = y.copy()
            off = 0
            for s, ci in zip(blocks, c):
                Bi = self.Q[off:off + s, off:off + s] + ci * np.eye(s)
                nxt[off:off + s] = y[off:off + s] - eps * np.linalg.solve(
                    Bi, g[off:off + s])
                off += s
            y = nxt
            assert np.linalg.norm(x - y) <= 1e-7

    def test_single_block_is_full_quadratic_kernel(self):
        K = kernel_schedule_jacobi(self.Q, (4,), (0.3,))
        assert K.kind == "quadratic"
        assert np.allclose(K.A, self.Q + 0.3 * np.eye(4))

    def test_damping_shrinks_steps(self):
        x = np.array([1.0, -1.0, 0.5, 2.0])
        steps = []
        for ci in (0.1, 1.0, 10.0, 100.0):
            K = kernel_schedule_jacobi(self.Q, (2, 2), (ci, ci))
            out = prox_step(self.p, K, 0.1, x)
            steps.append(np.linalg.norm(out - x))
        assert all(s0 > s1 for s0, s1 in zip(steps, steps[1:]))

    def test_separable_problem_matches_diagonal_kernel(self):
        Qd = np.diag([2.0, 0.5])
        p = quad(Qd.tolist(), [1.0, -0.5], "l1", {"lam": 0.2})
        Kj = kernel_schedule_jacobi(Qd, (1, 1), (0.3, 0.3))
        assert Kj.kind == "diagonal"
        Kd = KernelSpec.diagonal([2.3, 0.8])
        cfg_j = SolverConfig.constant(0.5, Kj, max_iters=50, step_tol=1e-12)
        cfg_d = SolverConfig.constant(0.5, Kd, max_iters=50, step_tol=1e-12)
        x0 = np.array([2.0, 2.0])
        tj = vbpg_run(p, cfg_j, x0)
        td = vbpg_run(p, cfg_d, x0)
        assert tj.n_iters == td.n_iters
        assert np.array_equal(tj.final_x, td.final_x)
        assert tj.f_values == td.f_values

    def test_block_preconditioner_shape_checks(self):
        with pytest.raises(ValueError):
            block_preconditioner(self.Q, (2, 1), (0.5, 0.5))
