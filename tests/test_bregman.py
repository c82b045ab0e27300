import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbpg.bregman import ProxError, ProxResult, prox_map
from vbpg.core import (Constants, KernelSpec, SolverConfig, sample_box,
                       validate_config, vector_norm)
from vbpg.problems import ProblemSpec, lasso_spec

from reference import (certificate, descent_case_specs, descent_slack,
                       envelope_and_gap, inner_solve_from, subdiff_at,
                       subdiff_distance)

EUC = KernelSpec.euclidean()


def build(Q, b, g_kind="zero", g_params=None):
    return ProblemSpec("t", "quadratic", {"Q": Q, "b": b}, g_kind,
                       g_params or {}, len(np.atleast_1d(b))).build()


def zero_with(g_kind, g_params, dim=2):
    return ProblemSpec("t", "zero", {}, g_kind, g_params, dim).build()


def admissible_eps(problem, K, margin=0.8):
    caps = [K.m / problem.f.lipschitz_L if problem.f.lipschitz_L > 0 else math.inf]
    rho = problem.g.semiconvex_rho
    if math.isfinite(rho) and rho > 0:
        caps.append(K.m / rho)
    cap = min(caps)
    return margin * cap if math.isfinite(cap) else 0.5


def table_row(problem, case_id, eps_lo, eps_hi, K=EUC):
    """The constants of descent-table row ``case_id`` for ``problem``
    under K over the steps [eps_lo, eps_hi]."""
    return Constants(problem.f.lipschitz_L, problem.g.semiconvex_rho, K.m,
                     K.M, eps_lo, eps_hi, case_id)


class TestDistance:
    def test_euclidean_example(self):
        assert EUC.distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_zero_at_equal_points(self):
        x = np.array([0.3, -0.7])
        for K in (EUC, KernelSpec.diagonal([2.0, 4.0]),
                  KernelSpec.quadratic([[2.0, 0.5], [0.5, 1.0]])):
            assert K.distance(x, x) == 0.0

    def test_diagonal_example(self):
        K = KernelSpec.diagonal([2.0, 4.0])
        assert K.distance(np.zeros(2), np.ones(2)) == pytest.approx(3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            EUC.distance(np.zeros(2), np.zeros(3))


class TestProxMap:
    def test_soft_threshold_example(self):
        p = zero_with("l1", {"lam": 1.0})
        r = prox_map(p, EUC, 0.5, np.array([2.0, -0.3]))
        assert np.allclose(r.minimizer, [1.5, 0.0], atol=1e-12)
        assert not r.multivalued_flag

    def test_fixed_point_when_gradient_zero(self):
        p = build(np.eye(2), [-1.0, -2.0])  # grad zero at (1, 2)
        x = np.array([1.0, 2.0])
        r = prox_map(p, KernelSpec.diagonal([1.5, 0.5]), 0.4, x)
        assert np.array_equal(r.minimizer, x)

    def test_mcp_example_matches_grid(self):
        from vbpg.problems import GridProxOracle
        p = build([[1.0]], [0.0], "mcp", {"lam": 1.0, "gamma": 3.0})
        r = prox_map(p, EUC, 0.2, np.array([0.5]))
        oracle = GridProxOracle(p.g, -5.0, 5.0, 1e-4)
        # fast path solves g(t) + (t - v)^2/(2 eps) at v = x - eps grad f(x)
        tg, _ = oracle.argmin(0.5 - 0.2 * 0.5, 1.0, 0.2)
        assert abs(r.minimizer[0] - tg) <= 1e-4
        assert r.minimizer[0] == pytest.approx(3.0 / 14.0, abs=1e-12)

    def test_subproblem_value_consistent(self, rng):
        # the step, its kernel product and the value carry the bits of the
        # formulas the solver used to evaluate apart
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        kernels = [EUC, KernelSpec.diagonal([1.4, 0.8]),
                   KernelSpec.quadratic([[1.4, 0.3], [0.3, 0.8]])]
        for K in kernels * 40:
            x = rng.uniform(-3, 3, 2)
            r = prox_map(p, K, 0.3, x)
            t = r.minimizer
            direct = (float(p.f.gradient(x) @ (t - x)) + p.g.value(t)
                      + float(K.distance(x, t)) / 0.3)
            assert r.subproblem_value == direct
            assert vector_norm(r.step) == vector_norm(x - t)
            assert np.array_equal(r.kernel_step, K.grad_y(x, t))

    def test_quadratic_kernel_matches_direct_solve(self):
        p = build([[3.0, 0.7], [0.7, 2.0]], [0.5, -1.0])
        A = np.array([[2.0, 0.4], [0.4, 1.5]])
        K = KernelSpec.quadratic(A)
        x = np.array([1.0, -2.0])
        r = prox_map(p, K, 0.3, x)
        expected = x - 0.3 * np.linalg.solve(A, p.f.gradient(x))
        assert np.allclose(r.minimizer, expected, atol=1e-8)
        assert r.inner_iterations > 0

    def test_warm_start_independence(self, rng):
        # single-valued prox under semiconvex g and admissible eps: an
        # inner solve from another start agrees with prox_map to 1e-8
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        K = KernelSpec.quadratic([[1.3, 0.2], [0.2, 1.0]])
        eps = admissible_eps(p, K, margin=0.7)
        for _ in range(25):
            x = rng.uniform(-2, 2, 2)
            r1 = prox_map(p, K, eps, x)
            y, _ = inner_solve_from(p, K, eps, x, rng.uniform(-3, 3, 2))
            assert np.linalg.norm(r1.minimizer - y) <= 1e-8


def spd_kernel(dim, seed):
    """A non-diagonal SPD kernel matrix: the 2-D one of the shipped
    examples, or R R'/dim + I/2 (condition number about 10)."""
    if dim == 2:
        return np.array([[1.3, 0.2], [0.2, 1.0]])
    R = np.random.default_rng(seed).standard_normal((dim, dim))
    return R @ R.T / dim + 0.5 * np.eye(dim)


class TestInnerCertificate:
    @pytest.mark.parametrize("dim", [2, 50, 200])
    def test_minimizer_within_the_certified_distance(self, dim):
        # g = 0: the prox is x - eps A^{-1} grad f(x); the certificate
        # bounds the distance to it by 1e-10 (1 + ||x||), and the closed
        # form itself is only good to its solve's roundoff
        rng = np.random.default_rng(dim)
        A = spd_kernel(dim, dim + 1)
        K = KernelSpec.quadratic(A)
        S = rng.standard_normal((dim, dim))
        p = build(S @ S.T / dim + 0.1 * np.eye(dim), rng.standard_normal(dim))
        eps = admissible_eps(p, K)
        roundoff = np.finfo(float).eps * np.linalg.cond(A)
        for _ in range(20):
            x = rng.uniform(-3, 3, dim)
            r = prox_map(p, K, eps, x)
            step = eps * np.linalg.solve(A, p.f.gradient(x))
            err = vector_norm(r.minimizer - (x - step))
            assert r.certified and r.inner_iterations > 0
            assert err <= 1e-10 * (1 + vector_norm(x)) + roundoff * vector_norm(step)

    @pytest.mark.parametrize("share", [1.25, 2.0, 4.0])
    def test_uncertified_at_eps_beyond_m_over_rho(self, rng, share):
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        K = KernelSpec.quadratic(spd_kernel(2, 0))
        eps = share * K.m / p.g.semiconvex_rho
        for _ in range(25):
            r = prox_map(p, K, eps, rng.uniform(-2, 2, 2))
            assert not r.certified and r.inner_iterations > 0
        report = validate_config(p, SolverConfig.constant(eps, K))
        assert any(v.startswith("eps_max < m/rho violated")
                   for v in report.violations)

    @pytest.mark.parametrize("K", [EUC, KernelSpec.diagonal([1.5, 0.5]),
                                   KernelSpec.quadratic([[1.5, 0.0],
                                                         [0.0, 0.5]])],
                             ids=["euclidean", "diagonal", "diagonal_quadratic"])
    def test_separable_prox_is_certified(self, rng, K):
        # exact candidate enumeration, at any eps, even beyond m/rho
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        for eps in (0.1, 2.0 * K.m / p.g.semiconvex_rho):
            r = prox_map(p, K, eps, rng.uniform(-2, 2, 2))
            assert r.certified and r.inner_iterations == 0


class TestProxPoints:
    """``prox_map`` on a stack of rows against one ``prox_map`` per row:
    every field, each row bit for bit."""

    @staticmethod
    def prox_rows(p, K, eps, X):
        stacked = prox_map(p, K, eps, X)
        results = [prox_map(p, K, eps, x) for x in X]
        per_row = set(ProxResult.__dataclass_fields__) - {"inner_iterations",
                                                          "certified"}
        for name in sorted(per_row):
            rows = np.array([getattr(r, name) for r in results])
            got = getattr(stacked, name)
            assert got.dtype == rows.dtype and got.shape == rows.shape, name
            assert got.tobytes() == rows.tobytes(), name
        assert stacked.inner_iterations == max(r.inner_iterations
                                               for r in results)
        assert all(r.certified == stacked.certified for r in results)
        return results

    @pytest.mark.parametrize("dim", [2, 12])
    @pytest.mark.parametrize("kind", ["euclidean", "diagonal"])
    def test_separable_rows_match_prox_map(self, kind, dim):
        rng = np.random.default_rng(dim)
        K = (EUC if kind == "euclidean"
             else KernelSpec.diagonal(rng.uniform(0.5, 2.0, dim)))
        S = rng.standard_normal((dim, dim))
        p = build(S @ S.T / dim + 0.1 * np.eye(dim), rng.standard_normal(dim),
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        results = self.prox_rows(p, K, admissible_eps(p, K),
                                 rng.uniform(-3, 3, (40, dim)))
        assert all(r.inner_iterations == 0 for r in results)
        # f = 0 and MCP(1, 2) at eps = 4: the subproblem at x ties between
        # 0 and the flat tail where x = sqrt(2 eps / weight)
        tie = np.sqrt(8.0 / np.broadcast_to(K.diag_weights(dim), dim))
        X = rng.uniform(-3, 3, (40, dim))
        X[::3, 0] = tie[0]
        results = self.prox_rows(zero_with("mcp", {"lam": 1.0, "gamma": 2.0},
                                           dim), K, 4.0, X)
        flags = [r.multivalued_flag for r in results]
        assert flags[::3] == [True] * 14 and not all(flags)

    @pytest.mark.parametrize("dim", [2, 50])
    def test_certified_rows_match_prox_map(self, dim):
        rng = np.random.default_rng(dim)
        K = KernelSpec.quadratic(spd_kernel(dim, dim + 1))
        S = rng.standard_normal((dim, dim))
        p = build(S @ S.T / dim + 0.1 * np.eye(dim), rng.standard_normal(dim),
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        eps = admissible_eps(p, K)
        # rows of norms 1e-3 to 1e2 stop at different inner iterations
        X = rng.uniform(-1, 1, (40, dim)) * 10.0 ** rng.uniform(-3, 2, (40, 1))
        results = self.prox_rows(p, K, eps, X)
        assert all(r.certified for r in results)
        assert len({r.inner_iterations for r in results}) > 1

    def test_uncertified_rows_match_prox_map(self, rng):
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        K = KernelSpec.quadratic(spd_kernel(2, 0))
        eps = 2.0 * K.m / p.g.semiconvex_rho  # mu = m/eps - rho < 0
        results = self.prox_rows(p, K, eps, rng.uniform(-2, 2, (40, 2)))
        assert not any(r.certified for r in results)
        assert len({r.inner_iterations for r in results}) > 1

    def test_row_that_cannot_converge_raises_like_prox_map(self):
        # g = 0 under a kernel of condition 1e6: the row at the minimizer
        # stops at its first step, the other one runs out of steps
        R, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
        A = R @ np.diag(np.logspace(0, 6, 5)) @ R.T
        K = KernelSpec.quadratic((A + A.T) / 2)
        p = build(np.eye(5), np.zeros(5))
        eps = K.m / 2
        X = np.array([np.zeros(5), np.ones(5)])
        assert prox_map(p, K, eps, X[0]).inner_iterations == 1
        with pytest.raises(ProxError) as single:
            prox_map(p, K, eps, X[1])
        with pytest.raises(ProxError) as stacked:
            prox_map(p, K, eps, X)
        assert str(stacked.value) == str(single.value)


class TestEnvelopeGap:
    def test_envelope_at_critical_point(self):
        p = build(np.eye(2), [-1.0, -2.0])
        x = np.array([1.0, 2.0])
        E, G, _ = envelope_and_gap(p, EUC, 0.4, x)
        assert E == pytest.approx(p.F(x))
        assert G == pytest.approx(0.0, abs=1e-14)

    def test_envelope_soft_threshold_example(self):
        p = zero_with("l1", {"lam": 1.0})
        x = np.array([2.0, -0.3])
        # E = g(t) + D(x,t)/eps at t = (1.5, 0)
        expected = 1.5 + 0.5 * (0.5 ** 2 + 0.3 ** 2) / 0.5
        assert envelope_and_gap(p, EUC, 0.5, x)[0] == pytest.approx(expected,
                                                            abs=1e-12)

    def test_envelope_below_F(self, registry, rng):
        for name, inst in registry.items():
            p = inst.problem()
            K = inst.config.kernel_at(0)
            eps = inst.config.eps_at(0)
            X = sample_box(rng, 50, inst.box_center(), inst.sample_halfwidth)
            for x in X:
                Fx = p.F(x)
                if not math.isfinite(Fx):
                    continue
                E, G, _ = envelope_and_gap(p, K, eps, x)
                assert E <= Fx + 1e-10 * (1 + abs(Fx)), name
                assert G >= -1e-12, name

    def test_gap_identity_lasso(self, rng):
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        for _ in range(300):
            x = rng.uniform(-4, 4, 2)
            E, G, _ = envelope_and_gap(p, EUC, 0.5, x)
            Fx = p.F(x)
            assert abs(Fx - E - 0.5 * G) <= 1e-10 * (1 + abs(Fx))

    def test_gap_zero_iff_critical_semiconvex(self):
        # at the solver's fixed point the gap vanishes; slightly away it is
        # strictly positive
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        eps = admissible_eps(p, EUC)
        from vbpg.core import SolverConfig
        from vbpg.solver import vbpg_run
        trace = vbpg_run(p, SolverConfig.constant(eps, EUC, max_iters=2000,
                                                  step_tol=1e-13),
                         np.array([1.5, 1.0]))
        xhat = trace.final_x
        assert envelope_and_gap(p, EUC, eps, xhat)[1] <= 1e-12
        assert envelope_and_gap(p, EUC, eps, xhat + 0.05)[1] > 1e-6

    def test_zero_problem_gap_identically_zero(self, rng):
        p = zero_with("zero", {})
        for _ in range(20):
            x = rng.uniform(-5, 5, 2)
            assert envelope_and_gap(p, EUC, 0.5, x)[1] == 0.0


class TestProxSubgradient:
    def test_zero_at_fixed_point(self):
        p = build(np.eye(2), [-1.0, -2.0])
        x = np.array([1.0, 2.0])
        t = prox_map(p, EUC, 0.4, x).minimizer
        xi = certificate(p, EUC, 0.4, x, t)
        assert np.linalg.norm(xi) == 0.0

    def test_euclidean_formula_and_bound(self, rng):
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        eps = 0.5
        lim = Constants.of(p, SolverConfig.constant(eps, EUC)).residual
        for _ in range(200):
            x = rng.uniform(-3, 3, 2)
            t = prox_map(p, EUC, eps, x).minimizer
            xi = certificate(p, EUC, eps, x, t)
            direct = p.f.gradient(t) - p.f.gradient(x) - (t - x) / eps
            assert np.allclose(xi, direct, atol=1e-14)
            assert np.linalg.norm(xi) <= lim * np.linalg.norm(x - t) * (1 + 1e-9) + 1e-15

    def test_bound_over_kernels(self, rng):
        p = build([[3.0, 0.7], [0.7, 2.0]], [0.5, -1.0])
        for K in (KernelSpec.diagonal([1.5, 0.8]),
                  KernelSpec.quadratic([[2.0, 0.4], [0.4, 1.5]])):
            eps = admissible_eps(p, K)
            lim = Constants.of(p, SolverConfig.constant(eps, K)).residual
            for _ in range(100):
                x = rng.uniform(-3, 3, 2)
                t = prox_map(p, K, eps, x).minimizer
                xi = certificate(p, K, eps, x, t)
                assert (np.linalg.norm(xi)
                        <= lim * np.linalg.norm(x - t) * (1 + 1e-9) + 1e-9)

    def test_subgradient_membership_1d(self, rng):
        # xi must land inside grad f(t) + dg(t): its distance to that set,
        # computed analytically, is zero
        p = build([[1.0]], [0.2], "l1", {"lam": 0.7})
        for _ in range(200):
            x = rng.uniform(-3, 3, 1)
            t = prox_map(p, EUC, 0.6, x).minimizer
            xi = certificate(p, EUC, 0.6, x, t)
            # optimality gives dg(t) + grad f(t) - xi owning zero
            pseudo_grad = float(p.f.gradient(t)[0] - xi[0])
            assert subdiff_at(p.g, float(t[0]), pseudo_grad) <= 1e-10

    def test_residual_upper_estimate_near_fixed_points(self):
        # fallback for g without analytic subdifferentials: at near-fixed
        # points the certificate norm dominates the analytic distance
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4],
                  "mcp", {"lam": 0.6, "gamma": 4.0})
        from vbpg.core import SolverConfig
        from vbpg.solver import vbpg_run
        trace = vbpg_run(p, SolverConfig.constant(0.4, EUC, max_iters=2000,
                                                  step_tol=1e-12),
                         np.array([1.5, 1.0]))
        x = trace.final_x
        t = prox_map(p, EUC, 0.4, x).minimizer
        est = np.linalg.norm(certificate(p, EUC, 0.4, x, t))
        move = np.linalg.norm(x - t)
        assert move <= 1e-10
        analytic = subdiff_distance(p.g, trace.final_x,
                                    p.f.gradient(trace.final_x))
        assert analytic <= est + 1e-9


class TestDescentConstants:
    # Constants(L, rho, m, M, eps_lo, eps_hi, case_id); rho is not in the table
    def test_case4_example(self):
        c = Constants(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 4)
        assert c.descent == (1.0, 1.0, 0.5)

    def test_case1_example(self):
        c = Constants(0.0, 0.0, 1.0, 1.0, 0.25, 0.25, 1)
        assert c.descent == (2.0, 6.0, 2.0)

    def test_case3_example(self):
        c = Constants(1.0, 0.0, 1.0, 2.0, 0.5, 0.5, 3)
        assert c.descent == (1.0, 3.5, 0.5)

    def test_case2_formula(self):
        a, b, c = Constants(0.7, 0.0, 1.5, 2.5, 0.2, 0.4, 2).descent
        assert a == 2.0
        assert b == pytest.approx(2.5 / 0.2 + 2.0)
        assert c == pytest.approx(1.5 / 0.4 - 2.7)


class TestDescentInequality:
    @pytest.mark.parametrize("cid", [1, 2, 3, 4])
    def test_sampled_slack_nonnegative(self, cid, rng):
        p = descent_case_specs()[cid].build()
        eps = admissible_eps(p, EUC)
        consts = table_row(p, cid, eps, eps)
        worst = math.inf
        for _ in range(400):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-2, 2, 2)
            worst = min(worst, descent_slack(p, EUC, eps, x, u, consts))
        assert worst >= -1e-8

    def test_critical_point_trivial_case(self):
        p = build(np.eye(2), [-1.0, -2.0])
        x = np.array([1.0, 2.0])
        c = table_row(p, 4, 0.4, 0.4)
        assert descent_slack(p, EUC, 0.4, x, x, c) >= -1e-12

    @pytest.mark.parametrize("cid", [1, 2])
    def test_band_constants_cover_interior_steps(self, cid, rng):
        # rows with eps-free leading coefficient stay valid for any step
        # inside [eps_lo, eps_hi], not just at the endpoints
        p = descent_case_specs()[cid].build()
        hi = admissible_eps(p, EUC)
        lo = 0.5 * hi
        consts = table_row(p, cid, lo, hi)
        for _ in range(300):
            eps = float(rng.uniform(lo, hi))
            x, u = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            assert descent_slack(p, EUC, eps, x, u, consts) >= -1e-8

    def test_scad_under_case1_constants(self, rng):
        # a nonconvex f + scad pairing checked with the fully nonconvex row
        p = build([[2.0, 1.5], [1.5, 1.0]], [0.2, -0.1],
                  "scad", {"lam": 0.8, "a": 3.7})
        eps = admissible_eps(p, EUC)
        consts = table_row(p, 1, eps, eps)
        worst = math.inf
        for _ in range(400):
            x, u = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            worst = min(worst, descent_slack(p, EUC, eps, x, u, consts))
        assert worst >= -1e-8

    def test_diagonal_kernel_case(self, rng):
        p = descent_case_specs()[4].build()
        K = KernelSpec.diagonal([1.2, 0.9])
        eps = admissible_eps(p, K)
        consts = table_row(p, 4, eps, eps, K)
        for _ in range(300):
            x, u = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
            assert descent_slack(p, K, eps, x, u, consts) >= -1e-8


class TestValueDecrease:
    def test_prox_point_improves_envelope_and_value(self, registry, rng):
        # F(t) <= E(x) - a ||x-t||^2 and F(t) <= F(x) - a ||x-t||^2 with
        # a = (m/eps - L)/2
        for name, inst in registry.items():
            p = inst.problem()
            K = inst.config.kernel_at(0)
            eps = inst.config.eps_at(0)
            a = 0.5 * (K.m / eps - p.f.lipschitz_L)
            X = sample_box(rng, 100, inst.box_center(), inst.sample_halfwidth)
            for x in X:
                Fx = p.F(x)
                if not math.isfinite(Fx):
                    continue
                E, _, r = envelope_and_gap(p, K, eps, x)
                t = r.minimizer
                d2 = float((x - t) @ (x - t))
                Ft = p.F(t)
                assert Ft <= E - a * d2 + 1e-8, name
                assert Ft <= Fx - a * d2 + 1e-8, name


class TestSemiconvexBounds:
    @pytest.mark.parametrize("g_kind,g_params", [
        ("mcp", {"lam": 0.6, "gamma": 4.0}),
        ("scad", {"lam": 0.5, "a": 3.7}),
    ])
    def test_gap_bound_suite(self, g_kind, g_params, rng):
        from vbpg.diagnostics import check_semiconvex_gap_bounds
        p = build([[2.0, 0.3], [0.3, 1.0]], [0.5, -0.4], g_kind, g_params)
        eps = admissible_eps(p, EUC, margin=0.8)
        X = sample_box(rng, 400, np.zeros(2), 2.0)
        rep = check_semiconvex_gap_bounds(p, EUC, eps, X)
        for key, slack in rep["min_slack"].items():
            assert slack >= -1e-8, (g_kind, key, slack)


@given(x0=st.floats(-5, 5), x1=st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_gap_identity_property(x0, x1):
    p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
    x = np.array([x0, x1])
    E, G, _ = envelope_and_gap(p, EUC, 0.5, x)
    Fx = p.F(x)
    assert G >= -1e-12
    assert abs(Fx - E - 0.5 * G) <= 1e-10 * (1 + abs(Fx))
