"""F on a tensor grid from its axes against F on the grid's rows.

``Problem.F_grid(axes)`` must return the bits of ``F(grid_rows(axes))``,
and every smooth kind and every regularizer gives a point the same bits
alone, in a batch of any size and on a grid: the sublevel grid's in-set
masks, and through them every ``dist_level`` a probe writes, are
thresholds of these values, compared with F_bar from ``F`` at one
point."""

import builtins
import math
import tracemalloc

import numpy as np
import pytest

from vbpg import core
from vbpg import diagnostics as dx
from vbpg.core import Problem, grid_rows
from vbpg.diagnostics import SublevelGrid
from vbpg.problems import (build_regularizer, generate_logistic_data,
                           logistic_objective, quadratic_objective,
                           scalar_profile_objective, zero_objective)

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


def assert_rows_are_points(f, X, g=None):
    """f's value, gradient and value_grad over the rows of X give each row
    the bits of its one-point call, and a (0, d) array empty results; so
    do g's value and F = f + g when a regularizer g is given."""
    values, grads = f.value(X), f.gradient(X)
    assert values.shape == X.shape[:1] and grads.shape == X.shape
    fused_values, fused_grads = f.value_grad(X)
    assert np.array_equal(fused_values, values)
    assert np.array_equal(fused_grads, grads)
    for x, value, grad in zip(X, values, grads):
        assert type(f.value(x)) is float and f.value(x) == value
        assert np.array_equal(f.gradient(x), grad)
        fused_value, fused_grad = f.value_grad(x)
        assert type(fused_value) is float and fused_value == value
        assert np.array_equal(fused_grad, grad)
    empty = X[:0]
    assert f.value(empty).shape == (0,)
    assert f.gradient(empty).shape == empty.shape
    assert [a.shape for a in f.value_grad(empty)] == [(0,), empty.shape]
    if g is None:
        return
    F = Problem(f=f, g=g, dim=X.shape[1]).F
    for value in (g.value, F):
        points = [value(x) for x in X]
        assert all(type(v) is float for v in points)
        assert value(X).tobytes() == np.array(points).tobytes()
        assert value(empty).shape == (0,)


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
    assert np.array_equal(values, problem.g.value(grid_rows(AXES[:dim])))
    assert_grid_bits(problem, AXES[:dim])
    if g_kind == "box":
        assert np.isinf(values).any() and np.isfinite(values).any()
    if g_kind == "jump_quadratic":
        assert (problem.g.values(AXES[0]) == -1.0).any()


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 12, 500])
@pytest.mark.parametrize("g_kind", sorted(G_KINDS))
def test_g_and_F_rows_have_the_bits_of_their_points(dim, g_kind):
    # a row adds its g entries left to right as a point does; numpy's
    # pairwise row sum rounds otherwise from 8 entries on
    problem = quad_problem(dim, g_kind, seed=dim)
    rng = np.random.default_rng(dim)
    X = rng.uniform(-5.5, 2.0, (40, dim)) * 10.0 ** rng.uniform(-2, 0, (40, 1))
    X[:2, 0] = [0.0, -0.0]
    assert_rows_are_points(problem.f, X, problem.g)


def compensated_sum(items, start=0):
    """Python 3.12's ``sum``: compensated over floats (here correctly
    rounded), the plain left fold over anything else."""
    items = list(items)
    if all(type(v) is float for v in items):
        return math.fsum([start, *items])
    return builtins.sum(items, start)


@pytest.mark.parametrize("dim", [1, 2, 3, 12, 500])
@pytest.mark.parametrize("g_kind", ["l1", "scad", "sq_l2"])
def test_g_adds_left_to_right_under_a_compensated_sum(monkeypatch, dim,
                                                       g_kind):
    # from Python 3.12 ``sum`` of floats is compensated; a point must still
    # add its g entries left to right, as the rows of an array do
    assert compensated_sum([0.1] * 10 + [1e16, 1.0, -1e16]) == 2.0
    monkeypatch.setattr(core, "sum", compensated_sum, raising=False)
    problem = quad_problem(dim, g_kind, seed=dim)
    rng = np.random.default_rng(dim)
    X = rng.uniform(-5.5, 2.0, (40, dim)) * 10.0 ** rng.uniform(-2, 0, (40, 1))
    assert_rows_are_points(problem.f, X, problem.g)


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


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("definite", [True, False],
                         ids=["definite", "indefinite"])
def test_quadratic_row_bits_do_not_depend_on_the_batch(dim, definite):
    problem = quad_problem(dim, "scad", definite, seed=dim)
    rng = np.random.default_rng(100 + dim)
    for scale in (1e-3, 1.0, 1e3):
        X = scale * rng.standard_normal((5000, dim))
        alone = np.array([problem.f.value(x) for x in X])
        for n in (1, 2, 3, 1023, 1024, 5000):
            # the first rows and the last rows of X as batches of n
            assert np.array_equal(problem.f.value(X[:n]), alone[:n])
            assert np.array_equal(problem.f.value(X[-n:]), alone[-n:])
        assert np.array_equal(problem.F_batch(X),
                              [problem.F(x) for x in X])


@pytest.mark.parametrize("dim,sparse", [(5, False), (12, False),
                                        (500, False), (500, True)])
def test_quadratic_rows_above_dimension_3_have_the_bits_of_value(dim, sparse):
    # f makes its two dots per row, with Q x from the product the gradient
    # uses (over the support of a sparse row)
    Q = random_Q(dim, definite=False, seed=dim)
    f = quadratic_objective(0.5 * (Q + Q.T),
                            np.random.default_rng(dim).standard_normal(dim))
    rng = np.random.default_rng(dim + 1)
    X = rng.standard_normal((50, dim))
    if sparse:
        X[:, 20:] = 0.0
    for n in (1, 2, 7, 50):
        assert np.array_equal(f.value(X[:n]), [f.value(x) for x in X[:n]])
    assert_rows_are_points(f, X)


def smooth_objective(kind, dim):
    """f of each smooth kind at dimension dim <= 3."""
    if kind in ("definite", "indefinite"):
        Q = random_Q(dim, kind == "definite", 7 * dim)
        b = np.random.default_rng(7 * dim + 1).standard_normal(dim)
        return quadratic_objective(0.5 * (Q + Q.T), b)
    if kind == "logistic":
        return logistic_objective(*generate_logistic_data(15, dim, 4))
    if kind == "zero":
        return zero_objective(dim)
    return scalar_profile_objective(kind)


SMOOTH_KINDS = ([(kind, dim) for kind in ("definite", "indefinite",
                                          "logistic", "zero")
                 for dim in (1, 2, 3)]
                + [("square", 1), ("pl_nonconvex", 1)])


@pytest.mark.parametrize("kind,dim", SMOOTH_KINDS,
                         ids=[f"{kind}-{dim}" for kind, dim in SMOOTH_KINDS])
def test_F_is_the_one_row_F_batch(kind, dim):
    # about 0.1% of points took other bits alone on the scalar profiles
    # when their one-point formulas were written apart from the rows'
    problem = Problem(f=smooth_objective(kind, dim),
                      g=build_regularizer("mcp", G_KINDS["mcp"]), dim=dim)
    X = np.random.default_rng(dim).uniform(-3.0, 3.0, size=(5000, dim))
    for x, row in zip(X, problem.F_batch(X)):
        value = problem.F(x)
        assert type(value) is float
        assert value == row == problem.F_batch(x[None])[0]
    assert_rows_are_points(problem.f, X)


def test_F_grid_on_a_full_default_grid():
    # the default 2-D probe grid: 801 x 801 nodes, halfwidth 2, h = 5e-3
    Q = np.array([[1.7, -0.6], [-0.6, -0.9]])
    b = np.array([0.3, -1.1])
    problem = Problem(f=quadratic_objective(Q, b),
                      g=build_regularizer("l1", {"lam": 0.4}), dim=2)
    axes = [np.linspace(c - 2.0, c + 2.0, 801) for c in (0.9, -0.2)]
    X = grid_rows(axes)
    assert len(X) == 641_601
    assert np.array_equal(problem.F_grid(axes), problem.F_batch(X))


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


@pytest.mark.parametrize("n_rows", [1, 2, 3, 300])
def test_logistic_row_bits_do_not_depend_on_the_batch(n_rows):
    # f makes its gemv once per row, so a row's f is the one-row value in
    # a batch of any size
    A, y = generate_logistic_data(15, 2, 4)
    f = logistic_objective(A, y)
    X = np.random.default_rng(n_rows).uniform(-3.0, 3.0, size=(n_rows, 2))
    assert np.array_equal(f.value(X), [f.value(x) for x in X])


def test_logistic_rows_at_dimension_50_have_the_bits_of_one_point():
    f = logistic_objective(*generate_logistic_data(80, 50, 5))
    assert_rows_are_points(f, np.random.default_rng(50).standard_normal((60, 50)))


@pytest.mark.parametrize("profile", ["square", "pl_nonconvex"])
def test_scalar_profile_objective(profile):
    f = scalar_profile_objective(profile)
    problem = Problem(f=f, g=build_regularizer("power", {"p": 1.5}), dim=1)
    assert_grid_bits(problem, AXES[:1])


def assert_mask_is_F_batch(grid, levels):
    """The in-set mask at each F_bar thresholds the bits F_batch gives the
    grid's points (the nodes, then the center) as rows."""
    values = grid.problem.F_batch(grid.points)
    for F_bar in levels:
        inside, _ = grid._level_set(F_bar)
        assert len(grid.points) == len(inside)
        assert np.array_equal(inside, values <= F_bar)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sublevel_grid_values_are_F_batch(dim):
    # the nodes' values come from the axes and the center's from F(center);
    # both keep the bits F_batch gives the same points as rows, so the
    # in-set mask is the oracle's definition at every level
    rng = np.random.default_rng(dim)
    for seed in range(20):
        problem = quad_problem(dim, "scad", definite=False, seed=seed)
        center = rng.standard_normal(dim)
        grid = SublevelGrid(problem, center, 0.8,
                            {1: 0.01, 2: 0.05, 3: 0.2}[dim])
        values = problem.F_batch(grid.points)
        assert grid.center_F == values[-1]
        assert_mask_is_F_batch(grid, [problem.F(center),
                                      *rng.choice(values, 3)])


@pytest.mark.parametrize("slab_nodes", [1, 1000, 1 << 16])
def test_sublevel_grid_independent_of_the_slab(monkeypatch, slab_nodes):
    # slabs of one row of the first axis, of several rows and one slab;
    # the box indicator puts F = +inf off the box
    monkeypatch.setattr(dx, "_SLAB_NODES", slab_nodes)
    flat = Problem(f=zero_objective(2),
                   g=build_regularizer("box", {"lo": -0.5, "hi": 0.7}), dim=2)
    for problem, center, levels in (
            (quad_problem(2, "mcp", definite=False, seed=5), [0.3, -0.2],
             [-1.0, 0.2, 1.5, 4.0]),
            (flat, [0.0, 0.0], [-1.0, 0.0, math.inf])):
        grid = SublevelGrid(problem, center, 1.0, 0.05)
        assert_mask_is_F_batch(grid, levels)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_column_sq_dists_keep_the_axis_sum_bits(dim):
    rng = np.random.default_rng(dim)
    P = rng.uniform(-2.0, 2.0, size=(300, dim))
    X = rng.uniform(-2.0, 2.0, size=(40, dim))
    # all pairs, as the nearest-candidate search lays them out
    pairs = dx._sq_dists([p[None, :] for p in P.T], [x[:, None] for x in X.T])
    assert np.array_equal(
        pairs, np.sum((P[None, :, :] - X[:, None, :]) ** 2, axis=2))
    # one pair per row
    assert np.array_equal(dx._sq_dists(P[:40].T, X.T),
                          np.sum((P[:40] - X) ** 2, axis=1))


def test_sublevel_grid_builds_no_node_array():
    # the default 2-D probe grid: 801^2 nodes; the rows alone would take
    # N d 8 bytes and the values N 8 bytes, but the grid keeps no F value:
    # one projection, mask and candidates included, peaks below N 8 bytes
    problem = quad_problem(2, "scad", definite=False, seed=4)
    center = np.array([0.2, -0.1])
    X = center + np.random.default_rng(4).uniform(-1.0, 1.0, (50, 2))
    tracemalloc.start()
    try:
        grid = SublevelGrid(problem, center, 2.0)
        d, _ = grid.project_many(problem.F(center), X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_nodes = 801 ** 2
    assert grid.shape == (801, 801)
    assert np.any(d > 0)
    assert peak < n_nodes * 8
    assert "points" not in vars(grid)  # built on first use only
    assert np.array_equal(grid.points[-1], grid.center)
    assert len(grid.points) == n_nodes + 1
