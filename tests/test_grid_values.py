"""F on a tensor grid from its axes against F_batch on the grid's rows.

``Problem.F_grid(axes)`` must return the bits of
``F_batch(grid_rows(axes))``, and a quadratic's ``value_batch`` the bits of
the 3-operand einsum it replaces on long batches: the sublevel grid's
in-set masks, and through them every ``dist_level`` a probe writes, are
thresholds of these values."""

import numpy as np
import pytest

from vbpg.core import Problem, grid_rows
from vbpg.diagnostics import SublevelGrid, grid_min_F
from vbpg.problems import (_QUAD_LOOP_BLOCK, _QUAD_LOOP_ROWS,
                           build_regularizer, generate_logistic_data,
                           logistic_objective, quadratic_objective,
                           scalar_profile_objective)

# unequal lengths, off-center spans, spacings that are not powers of two
AXES = [np.linspace(-1.3, 2.1, 37), np.linspace(0.4, 5.9, 23),
        np.linspace(-7.2, -3.3, 11)]

# every kind of ``build_regularizer``; the box cuts the axes, so F takes
# +inf, and the jump sits on a node of the first axis, so g takes -1
G_KINDS = {
    "zero": {}, "l1": {"lam": 0.7}, "sq_l2": {"lam": 0.3},
    "box": {"lo": -5.0, "hi": 1.6}, "scad": {"lam": 0.8, "a": 3.7},
    "mcp": {"lam": 0.6, "gamma": 2.5}, "power": {"p": 1.5},
    "jump_quadratic": {"xbar": float(AXES[0][9])},
}


def random_Q(dim, definite, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((dim, dim))
    if definite:
        return M @ M.T + 0.1 * np.eye(dim)
    eigs = np.linspace(-2.0, 3.0, dim) if dim > 1 else np.array([-1.5])
    U, _ = np.linalg.qr(M)
    return (U * eigs) @ U.T


def quad_problem(dim, g_kind, definite=True, seed=0):
    Q = random_Q(dim, definite, seed)
    Q = 0.5 * (Q + Q.T)
    b = np.random.default_rng(seed + 1).standard_normal(dim)
    return Problem(f=quadratic_objective(Q, b),
                   g=build_regularizer(g_kind, G_KINDS[g_kind]), dim=dim)


def assert_grid_bits(problem, axes):
    got = problem.F_grid(axes)
    want = problem.F_batch(grid_rows(axes))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("g_kind", sorted(G_KINDS))
def test_every_regularizer_kind(dim, g_kind):
    problem = quad_problem(dim, g_kind, seed=dim)
    values = problem.g.value_grid(AXES[:dim])
    assert np.array_equal(values, problem.g.value_batch(grid_rows(AXES[:dim])))
    assert_grid_bits(problem, AXES[:dim])
    if g_kind == "box":
        assert np.isinf(values).any() and np.isfinite(values).any()
    if g_kind == "jump_quadratic":
        assert (problem.g.values(AXES[0]) == -1.0).any()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("definite", [True, False],
                         ids=["definite", "indefinite"])
@pytest.mark.parametrize("seed", range(6))
def test_quadratic_random_Q(dim, definite, seed):
    problem = quad_problem(dim, "l1", definite, seed=10 * seed + dim)
    assert problem.f.convex == definite
    assert_grid_bits(problem, AXES[:dim])
    # scaled axes move the magnitudes the roundings act on
    assert_grid_bits(problem, [1e3 * ax + 0.1 for ax in AXES[:dim]])


def einsum_value(Q, b, X):
    return 0.5 * np.einsum("ij,jk,ik->i", X, Q, X) + X @ b


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("definite", [True, False],
                         ids=["definite", "indefinite"])
def test_quadratic_value_batch_keeps_the_einsum_bits(dim, definite):
    Q = random_Q(dim, definite, seed=dim)
    Q = 0.5 * (Q + Q.T)
    b = np.random.default_rng(dim).standard_normal(dim)
    f = quadratic_objective(Q, b)
    rng = np.random.default_rng(100 + dim)
    for n in (1, 2, 3, _QUAD_LOOP_ROWS - 1, _QUAD_LOOP_ROWS, 5000,
              2 * _QUAD_LOOP_BLOCK + 7):
        for scale in (1e-3, 1.0, 1e3):
            X = scale * rng.standard_normal((n, dim))
            assert np.array_equal(f.value_batch(X), einsum_value(Q, b, X))


def test_quadratic_value_batch_on_a_full_default_grid():
    # the default 2-D probe grid: 801 x 801 nodes, halfwidth 2, h = 5e-3
    Q = np.array([[1.7, -0.6], [-0.6, -0.9]])
    b = np.array([0.3, -1.1])
    X = grid_rows([np.linspace(c - 2.0, c + 2.0, 801) for c in (0.9, -0.2)])
    assert len(X) == 641_601
    assert np.array_equal(quadratic_objective(Q, b).value_batch(X),
                          einsum_value(Q, b, X))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tiny_grids(dim):
    problem = quad_problem(dim, "mcp", definite=False, seed=3)
    for sizes in ([1] * dim, [2] + [1] * (dim - 1), [1] * (dim - 1) + [3]):
        assert_grid_bits(problem, [ax[:k] for ax, k in zip(AXES, sizes)])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_logistic_objective(dim):
    A, y = generate_logistic_data(15, dim, 4)
    f = logistic_objective(A, y)
    problem = Problem(f=f, g=build_regularizer("scad", G_KINDS["scad"]),
                      dim=dim)
    assert_grid_bits(problem, AXES[:dim])


@pytest.mark.parametrize("profile", ["square", "pl_nonconvex"])
def test_scalar_profile_objective(profile):
    f = scalar_profile_objective(profile)
    problem = Problem(f=f, g=build_regularizer("power", {"p": 1.5}), dim=1)
    assert_grid_bits(problem, AXES[:1])


@pytest.mark.parametrize("dim,extra", [(1, 0), (2, 0), (2, 1), (2, 2), (3, 0),
                                       (3, 2)])
def test_sublevel_grid_values_are_F_batch(dim, extra):
    # f runs over nodes and seeds in one batch: one or two seeds alone
    # would round differently in F_batch on about a quarter of centers
    rng = np.random.default_rng(dim + extra)
    for seed in range(20):
        problem = quad_problem(dim, "scad", definite=False, seed=seed)
        center = rng.standard_normal(dim)
        seeds = list(rng.standard_normal((extra, dim)))
        grid = SublevelGrid(problem, center, 0.8,
                            {1: 0.01, 2: 0.05, 3: 0.2}[dim], extra_points=seeds)
        assert len(grid.points) == len(grid.values)
        assert np.array_equal(grid.values, problem.F_batch(grid.points))


def test_grid_min_F_matches_the_row_scan():
    problem = quad_problem(2, "mcp", definite=True, seed=5)
    c, hw, res = np.array([0.3, -0.2]), 2.0, 0.02
    want = None
    for _ in range(3):
        n = int(round(2 * hw / res)) + 1
        pts = grid_rows([np.linspace(ci - hw, ci + hw, n) for ci in c])
        vals = problem.F_batch(pts)
        j = int(np.argmin(vals))
        if want is None or vals[j] < want:
            want, c = float(vals[j]), pts[j]
        hw, res = 2.0 * res, res / 50.0
    assert grid_min_F(problem, [0.3, -0.2], 2.0) == want
