import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbpg.bregman import subgradient_rows
from vbpg.core import (KernelSpec, SolverConfig, as_vector, fmt_float,
                       grid_rows, sample_box, validate_config)
from vbpg.problems import ProblemSpec, quadratic_objective

from reference import central_difference_error

vec2 = st.lists(st.floats(-10, 10, allow_nan=False, allow_infinity=False),
                min_size=2, max_size=2).map(np.array)


def make_problem(Q, b, g_kind="zero", g_params=None):
    return ProblemSpec("t", "quadratic", {"Q": Q, "b": b}, g_kind,
                       g_params or {}, len(b)).build()


class TestValidateConfig:
    def test_pass_euclidean(self):
        p = make_problem([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
        cfg = SolverConfig.constant(0.4, KernelSpec.euclidean())
        assert validate_config(p, cfg).ok  # 0.4 < 1/2

    def test_fail_eps_over_m_over_L(self):
        p = make_problem([[2.0, 0.0], [0.0, 2.0]], [0.0, 0.0])
        cfg = SolverConfig.constant(0.6, KernelSpec.euclidean())
        rep = validate_config(p, cfg)
        assert not rep.ok
        assert any("m/L" in v for v in rep.violations)

    def test_both_clauses_evaluated_independently(self):
        # rho = 0.5 (mcp gamma=2), L = 0.1: caps are m/L = 10 and m/rho = 2,
        # so eps = 1.5 passes both clauses
        p = make_problem([[0.1]], [0.0], "mcp", {"lam": 1.0, "gamma": 2.0})
        cfg = SolverConfig.constant(1.5, KernelSpec.euclidean())
        rep = validate_config(p, cfg)
        assert rep.ok
        assert any("m/L" in c for c in rep.checked)
        assert any("m/rho" in c for c in rep.checked)
        # and eps = 2.5 trips only the rho clause
        rep2 = validate_config(p, SolverConfig.constant(2.5, KernelSpec.euclidean()))
        assert [v for v in rep2.violations] and all("m/rho" in v for v in rep2.violations)

    def test_schedule_bounds_use_worst_case(self):
        p = make_problem([[2.0]], [0.0])
        cfg = SolverConfig(epsilons=(0.1, 0.45), kernels=(KernelSpec.euclidean(),))
        assert validate_config(p, cfg).ok
        cfg2 = SolverConfig(epsilons=(0.1, 0.55), kernels=(KernelSpec.euclidean(),))
        assert not validate_config(p, cfg2).ok


class TestFiniteDiff:
    def test_quadratic(self):
        f = quadratic_objective(np.eye(2), np.zeros(2))
        assert central_difference_error(f.value, f.gradient,
                                        np.array([1.0, 2.0]), 1e-5) <= 1e-7

    def test_softplus_at_zero(self):
        value = lambda x: float(np.logaddexp(0.0, x[0]))
        gradient = lambda x: np.array([1 / (1 + math.exp(-x[0]))])
        assert abs(gradient(np.zeros(1))[0] - 0.5) < 1e-15
        assert central_difference_error(value, gradient, np.zeros(1),
                                        1e-5) <= 1e-8

    def test_linear(self):
        f = quadratic_objective(np.zeros((2, 2)), np.array([3.0, -1.0]))
        assert central_difference_error(f.value, f.gradient,
                                        np.array([0.3, 0.4]), 1e-5) <= 1e-12

    def test_nonfinite_reported(self):
        value = lambda x: math.log(x[0]) if x[0] > 0 else math.nan
        assert central_difference_error(value, lambda x: 1.0 / x,
                                        np.array([1e-6]), 1e-5) == math.inf


class TestKernelSpec:
    def test_moduli(self):
        assert KernelSpec.euclidean().m == KernelSpec.euclidean().M == 1.0
        K = KernelSpec.diagonal([2.0, 4.0])
        assert (K.m, K.M) == (2.0, 4.0)
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        Kq = KernelSpec.quadratic(A)
        eigs = np.linalg.eigvalsh(A)
        assert Kq.m == pytest.approx(eigs[0]) and Kq.M == pytest.approx(eigs[-1])

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            KernelSpec.diagonal([1.0, -1.0])
        with pytest.raises(ValueError):
            KernelSpec.quadratic([[1.0, 2.0], [2.0, 1.0]])  # indefinite

    @given(x=vec2, y=vec2)
    @settings(max_examples=200, deadline=None)
    def test_distance_bounds(self, x, y):
        for K in (KernelSpec.euclidean(), KernelSpec.diagonal([2.0, 4.0]),
                  KernelSpec.quadratic([[2.0, 0.5], [0.5, 1.0]])):
            r2 = float((x - y) @ (x - y))
            D = K.distance(x, y)
            assert 0.5 * K.m * r2 - 1e-9 <= D <= 0.5 * K.M * r2 + 1e-9
            assert D >= -1e-12
            if r2 == 0.0:
                assert D == 0.0
            # gradient bound is linear in ||x - y||
            gy = np.linalg.norm(K.grad_y(x, y))
            assert gy <= K.M * math.sqrt(r2) * (1 + 1e-9) + 1e-12

    def test_diag_weights_detects_diagonal_quadratic(self):
        Kq = KernelSpec.quadratic([[3.0, 0.0], [0.0, 2.0]])
        assert np.allclose(Kq.diag_weights(2), [3.0, 2.0])
        Kq2 = KernelSpec.quadratic([[3.0, 0.1], [0.1, 2.0]])
        assert Kq2.diag_weights(2) is None

    def test_diag_weights_fixed_at_construction(self):
        assert KernelSpec.euclidean().diag_weights(5) == 1.0
        d = np.array([1.5, 2.0])
        K = KernelSpec.diagonal(d)
        w = K.diag_weights(2)
        assert w is K.diag_weights(2) and not w.flags.writeable
        d[0] = 9.0  # the caller's array stays the caller's
        assert w.tolist() == [1.5, 2.0]


class TestShippedObjectives:
    def test_gradient_lipschitz_ratio(self, registry, rng):
        for name, inst in registry.items():
            p = inst.problem()
            L = p.f.lipschitz_L
            X = sample_box(rng, 1000, inst.box_center(), inst.sample_halfwidth)
            Y = sample_box(rng, 1000, inst.box_center(), inst.sample_halfwidth)
            for x, y in zip(X, Y):
                d = np.linalg.norm(x - y)
                if d < 1e-12:
                    continue
                ratio = np.linalg.norm(p.f.gradient(x) - p.f.gradient(y)) / d
                assert ratio <= L * (1 + 1e-9) + 1e-12, name

    def test_descent_property_of_f(self, registry, rng):
        # f(y) - f(x) <= <grad f(x), y-x> + (L/2)||y-x||^2
        for name, inst in registry.items():
            p = inst.problem()
            L = p.f.lipschitz_L
            X = sample_box(rng, 300, inst.box_center(), inst.sample_halfwidth)
            Y = sample_box(rng, 300, inst.box_center(), inst.sample_halfwidth)
            for x, y in zip(X, Y):
                lhs = p.f.value(y) - p.f.value(x)
                rhs = float(p.f.gradient(x) @ (y - x)) + 0.5 * L * float((y - x) @ (y - x))
                assert lhs <= rhs + 1e-8 * (1 + abs(lhs)), name

    def test_batch_matches_scalar(self, registry, rng):
        for name, inst in registry.items():
            p = inst.problem()
            X = sample_box(rng, 50, inst.box_center(), inst.sample_halfwidth)
            batch = p.F_batch(X)
            for x, v in zip(X, batch):
                assert p.F(x) == pytest.approx(v, rel=1e-12, abs=1e-12), name

    def test_finite_diff_on_shipped(self, registry):
        for name, inst in registry.items():
            p = inst.problem()
            err = central_difference_error(p.f.value, p.f.gradient,
                                           inst.box_center() + 0.17, 1e-5)
            assert err <= 1e-5, name


def _kernels(dim, rng):
    B = rng.standard_normal((dim, dim))
    return {"euclidean": KernelSpec.euclidean(),
            "diagonal": KernelSpec.diagonal(rng.uniform(0.5, 2.0, dim)),
            "quadratic": KernelSpec.quadratic(B @ B.T + np.eye(dim)),
            "quadratic_diag": KernelSpec.quadratic(
                np.diag(rng.uniform(0.5, 2.0, dim)))}


@pytest.mark.parametrize("dim", [1, 2, 3, 50, 500])
@pytest.mark.parametrize("kind", ["euclidean", "diagonal", "quadratic",
                                  "quadratic_diag"])
def test_kernel_formulas_one_pair_is_a_row_of_the_stack(kind, dim):
    # the formulas run over the last axis: one pair gets the bits of its
    # row in a stack, for D, grad_y D and the subgradient certificate
    rng = np.random.default_rng(dim)
    K = _kernels(dim, rng)[kind]
    X, Y, GX, GY = rng.standard_normal((4, 9, dim))
    D, GyD = K.distance(X, Y), K.grad_y(X, Y)
    Xi = subgradient_rows(K, 0.3, X, Y, GX, GY)
    assert D.shape == (9,) and GyD.shape == Xi.shape == (9, dim)
    for i in range(9):
        x, y, gx, gy = X[i].copy(), Y[i].copy(), GX[i].copy(), GY[i].copy()
        assert K.distance(x, y) == D[i]
        assert np.array_equal(K.grad_y(x, y), GyD[i])
        assert np.array_equal(subgradient_rows(K, 0.3, x, y, gx, gy), Xi[i])


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, math.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


def test_grid_rows_last_axis_fastest():
    axes = [np.array([0.0, 1.0]), np.array([-1.0, 0.5, 2.0])]
    assert grid_rows(axes).tolist() == [[a, b] for a in axes[0]
                                        for b in axes[1]]


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=100, derandomize=True)
def test_fmt_float_round_trips(v):
    assert float(fmt_float(v)) == v
    assert fmt_float(np.float64(v)) == fmt_float(v) == f"{v:.17g}"
