"""The batched probe paths against their per-point references.

The references below are the per-point loops the batched code replaced,
kept here as plain reference implementations."""

import math
from dataclasses import replace

import numpy as np
import pytest

import vbpg.bregman as bregman
import vbpg.diagnostics as diagnostics
import vbpg.solver as solver_mod
from vbpg.bregman import annotate_points, prox_map
from vbpg.core import KernelSpec, SmoothObjective, SolverConfig, sample_ball
from vbpg.diagnostics import (SublevelGrid, certify_growth_conditions,
                              check_luo_tseng_bound,
                              check_semiconvex_gap_bounds, critical_points,
                              make_slice, probe_slice)
from vbpg.problems import (_SUPPORT_MAX_NNZ, _SUPPORT_MIN_DIM, ProblemSpec,
                           logistic_objective, quadratic_objective,
                           scalar_profile_objective, zero_objective)
from vbpg.solver import vbpg_final_points, vbpg_run

from reference import envelope_and_gap, subdiff_distance

EUC = KernelSpec.euclidean()
DIAG = KernelSpec.diagonal([1.6, 0.7])
KQ = KernelSpec.quadratic([[1.3, 0.2], [0.2, 1.0]])
Q2 = [[2.0, 0.3], [0.3, 1.0]]


def quad_problem(g_kind, g_params, Q=Q2, b=(0.5, -0.4)):
    return ProblemSpec("t", "quadratic", {"Q": Q, "b": list(b)}, g_kind,
                       g_params, len(b)).build()


# ---------------------------------------------------------------------------
# per-point references
# ---------------------------------------------------------------------------

def reference_samples(problem, K, eps, slice_, X, crit):
    """The per-sample annotation of ``probe_slice``, one prox per point."""
    rows = []
    for x in X:
        E, G, prox = envelope_and_gap(problem, K, eps, x)
        t = prox.minimizer
        Ft = problem.F(t)
        rows.append(dict(
            dist_subdiff=subdiff_distance(problem.g, x, problem.f.gradient(x)),
            dist_prox=float(np.linalg.norm(x - t)),
            dist_crit=float(np.min(np.linalg.norm(crit - x[None, :], axis=1))),
            property_A=bool(Ft >= slice_.F_bar
                            - 1e-12 * (1.0 + abs(slice_.F_bar))),
            gap_value=G, envelope_value=E, prox_F=Ft))
    return rows


def reference_growth_mus(problem, slice_, crit_points, seed, n=400):
    """The scalar pair loop of ``certify_growth_conditions``."""
    rng = np.random.default_rng(seed)
    X = sample_ball(rng, n, slice_.center, slice_.radius_eta)
    Y = sample_ball(rng, n, slice_.center, slice_.radius_eta)
    f = problem.f

    def proj_crit(x):
        j = int(np.argmin(np.linalg.norm(crit_points - x[None, :], axis=1)))
        return crit_points[j]

    r = {k: [] for k in ("lsc", "lesc", "lwsc", "lqgg", "lrsi", "lpl")}
    f_center = f.value(slice_.center)
    for x, y in zip(X, Y):
        dxy = float(np.linalg.norm(y - x))
        gx = f.gradient(x)
        quad = None
        if dxy > 1e-10:
            quad = 2.0 * (f.value(y) - f.value(x) - float(gx @ (y - x))) / dxy ** 2
            r["lsc"].append(quad)
        xp, yp = proj_crit(x), proj_crit(y)
        if quad is not None and np.linalg.norm(xp - yp) <= 1e-8:
            r["lesc"].append(quad)
        dxp = float(np.linalg.norm(xp - x))
        if dxp > 1e-8:
            r["lwsc"].append(2.0 * (f.value(xp) - f.value(x)
                                    - float(gx @ (xp - x))) / dxp ** 2)
            r["lqgg"].append(float((gx - f.gradient(xp)) @ (x - xp)) / dxp ** 2)
            if problem.g.kind == "zero":
                r["lrsi"].append(float(gx @ (x - xp)) / dxp ** 2)
        if problem.g.kind == "zero":
            fgap = f.value(x) - f_center
            if fgap > 1e-12:
                r["lpl"].append(0.5 * float(gx @ gx) / fgap)
    return {k: max(min(v), 0.0) if v else None for k, v in r.items()}


def reference_semiconvex_slacks(problem, K, eps, X, eps_hi):
    """The per-sample loop of ``check_semiconvex_gap_bounds``."""
    rho, m = problem.g.semiconvex_rho, K.m
    slacks = dict.fromkeys(("i", "ii", "iii", "iv"), math.inf)
    for x in X:
        Fx = problem.F(x)
        if not math.isfinite(Fx):
            continue
        E, G, prox = envelope_and_gap(problem, K, eps, x)
        r = float(np.linalg.norm(x - prox.minimizer))
        dsub = subdiff_distance(problem.g, x, problem.f.gradient(x))
        slacks["i"] = min(slacks["i"], Fx - 0.5 * (m / eps_hi - rho) * r * r - E)
        slacks["ii"] = min(slacks["ii"],
                           G - (m - eps_hi * rho) / (2 * eps_hi ** 2) * r * r)
        if math.isfinite(dsub):
            slacks["iii"] = min(slacks["iii"],
                                dsub * dsub / (2 * (m - eps_hi * rho)) - G)
            slacks["iv"] = min(slacks["iv"],
                               eps_hi / (m - eps_hi * rho) * dsub - r)
    return slacks


# ---------------------------------------------------------------------------
# SmoothObjective.value and gradient over the last axis
# ---------------------------------------------------------------------------

def _objectives():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((50, 50))
    A_log = rng.standard_normal((12, 3))
    y = np.where(rng.standard_normal(12) >= 0, 1.0, -1.0)
    # above the support product's dimension threshold
    A_big = rng.standard_normal((500, 500))
    assert 500 >= _SUPPORT_MIN_DIM
    return {
        "quadratic_d2": (quadratic_objective(Q2, [0.5, -0.4]), 2),
        "quadratic_d50": (quadratic_objective(A + A.T, rng.standard_normal(50)), 50),
        "quadratic_d500": (quadratic_objective(A_big + A_big.T,
                                               rng.standard_normal(500)), 500),
        "logistic": (logistic_objective(A_log, y), 3),
        "square": (scalar_profile_objective("square"), 1),
        "pl_nonconvex": (scalar_profile_objective("pl_nonconvex"), 1),
        "zero": (zero_objective(2), 2),
    }


def _test_points(seed, n, dim):
    """n points in [-4, 4]^dim.  The first four keep 0, 1, 32 and 33
    entries: an empty support, and sparse supports at and just past the
    support product's threshold (at d = 500); the others are dense."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-4.0, 4.0, size=(n, dim))
    for i, k in enumerate((0, 1, _SUPPORT_MAX_NNZ, _SUPPORT_MAX_NNZ + 1)):
        X[i, rng.permutation(dim)[k:]] = 0.0
    return X


@pytest.mark.parametrize("name", list(_objectives()))
def test_grad_batch_bits_match_gradient(name):
    f, dim = _objectives()[name]
    X = _test_points(8, 97, dim)
    G = f.gradient(X)
    assert G.shape == X.shape
    for x, g in zip(X, G):
        assert np.array_equal(g, f.gradient(x))
    assert f.gradient(X[:0]).shape == (0, dim)


@pytest.mark.parametrize("name", list(_objectives()))
def test_value_grad_bits_match_value_and_gradient(name):
    f, dim = _objectives()[name]
    if name.startswith("quadratic"):
        assert f.value_and_gradient is not None  # one Q x for both
    for x in _test_points(9, 50, dim):
        value, grad = f.value_grad(x)
        assert value == f.value(x) and type(value) is float
        assert np.array_equal(grad, f.gradient(x))


def test_support_product_multiplies_by_columns():
    # Q - Q' is 8e-13 off the diagonal, within the symmetry check's 1e-12
    # and far above the products' roundoff: gathering rows of Q at the
    # support would give Q'x
    rng = np.random.default_rng(12)
    A, U = rng.standard_normal((500, 500)), rng.choice([-1.0, 1.0], (500, 500))
    Q = A + A.T + 2e-13 * (U - U.T)
    b = rng.standard_normal(500)
    f = quadratic_objective(Q, b)
    X = np.zeros((3, 500))
    for row, k in zip(X, (5, 20, _SUPPORT_MAX_NNZ)):
        row[rng.permutation(500)[:k]] = rng.standard_normal(k)
    for x, g_row in zip(X, f.gradient(X)):
        _, grad = f.value_grad(x)
        for Qx in (grad - b, g_row - b, f.gradient(x) - b):
            assert np.abs(Qx - Q @ x).max() <= 1e-13
            assert np.abs(Qx - Q.T @ x).max() > 1e-12


def test_support_product_bits_do_not_depend_on_earlier_calls():
    # the gathered columns are reused while the support repeats: a point
    # gets the bits of a fresh objective whatever was evaluated before it
    f, _ = _objectives()["quadratic_d500"]
    rng = np.random.default_rng(13)
    S1, S2, S3 = (rng.permutation(500)[:k] for k in (20, _SUPPORT_MAX_NNZ, 20))
    points = []
    for S in (S1, S1, S2, S1, S3, S2, S2, [], S1):
        x = np.zeros(500)
        x[S] = rng.standard_normal(len(S))
        points.append(x)
    grads = [f.gradient(x) for x in points]
    for x, g in zip(points, grads):
        fresh, _ = _objectives()["quadratic_d500"]
        assert np.array_equal(fresh.gradient(x), g)
        assert fresh.value(x) == f.value(x)


def _counted_objective(f):
    """f with a counter on each of its three entry points."""
    calls = {"fused": 0, "value": 0, "gradient": 0}

    def counted(key, fn):
        def wrapped(x):
            calls[key] += 1
            return fn(x)
        return wrapped

    return SmoothObjective(
        value=counted("value", f.value), gradient=counted("gradient", f.gradient),
        lipschitz_L=f.lipschitz_L, convex=f.convex,
        value_and_gradient=counted("fused", f.value_and_gradient)), calls


def test_solver_uses_one_value_grad_call_per_iteration():
    traced, calls = _counted_objective(quadratic_objective(Q2, [0.5, -0.4]))
    problem = quad_problem("l1", {"lam": 0.5})
    plain = vbpg_run(problem, SolverConfig.constant(0.4, KernelSpec.euclidean()),
                     np.array([1.5, -1.0]))
    object.__setattr__(problem, "f", traced)
    trace = vbpg_run(problem, SolverConfig.constant(0.4, KernelSpec.euclidean()),
                     np.array([1.5, -1.0]))
    assert calls == {"fused": trace.n_iters + 1, "value": 0, "gradient": 0}
    assert trace.csv_lines() == plain.csv_lines()
    assert np.array_equal(trace.final_x, plain.final_x)


@pytest.mark.parametrize("kernel", [EUC, KQ], ids=["euclidean", "quadratic"])
def test_final_points_use_one_value_grad_call_per_iteration(kernel):
    # f and grad f at the prox points come from one fused call over the
    # running rows: its values guard F, its gradients feed the next prox
    problem = quad_problem("mcp", {"lam": 0.6, "gamma": 4.0})
    config = SolverConfig.constant(0.3, kernel, max_iters=400)
    X0 = np.random.default_rng(6).uniform(-0.95, 0.95, size=(20, 2))
    plain = vbpg_final_points(problem, config, X0)
    iters = max(vbpg_run(problem, config, x0).n_iters for x0 in X0)
    traced, calls = _counted_objective(problem.f)
    object.__setattr__(problem, "f", traced)
    assert np.array_equal(vbpg_final_points(problem, config, X0), plain)
    assert calls == {"fused": iters + 1, "value": 0, "gradient": 0}


def test_l_override_keeps_gradient_batch():
    p = ProblemSpec("l", "logistic", {"n_rows": 12, "L_override": 5.0},
                    "l1", {"lam": 0.1}, 2).build()
    assert p.f.lipschitz_L == 5.0
    X = np.random.default_rng(5).standard_normal((6, 2))
    assert np.array_equal(p.f.gradient(X),
                          np.array([p.f.gradient(x) for x in X]))


# ---------------------------------------------------------------------------
# vbpg_final_points
# ---------------------------------------------------------------------------

REGULARIZERS = [("l1", {"lam": 0.5}), ("mcp", {"lam": 0.6, "gamma": 4.0}),
                ("scad", {"lam": 0.5, "a": 3.7}),
                ("box", {"lo": -1.0, "hi": 1.0})]
EVERY_REGULARIZER = REGULARIZERS + [
    ("zero", {}), ("sq_l2", {"lam": 0.3}), ("power", {"p": 1.5}),
    ("jump_quadratic", {"xbar": 0.1})]


def _no_run(*args):
    raise AssertionError("vbpg_final_points called vbpg_run")


def _assert_rows_match_runs(problem, config, X0):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_mod, "vbpg_run", _no_run)
        final = vbpg_final_points(problem, config, X0)
    iters = set()
    for x0, xf in zip(X0, final):
        trace = vbpg_run(problem, config, x0)
        assert np.array_equal(xf, trace.final_x)
        iters.add(trace.n_iters)
    return iters


@pytest.mark.parametrize("kernels", [(EUC,), (DIAG,), (KQ,), (KQ, EUC)],
                         ids=["euclidean", "diagonal", "quadratic",
                              "quadratic_euclidean"])
@pytest.mark.parametrize("g_kind,g_params", REGULARIZERS,
                         ids=[g for g, _ in REGULARIZERS])
def test_final_points_match_runs(kernels, g_kind, g_params):
    problem = quad_problem(g_kind, g_params)
    X0 = np.random.default_rng(4).uniform(-0.95, 0.95, size=(40, 2))
    config = SolverConfig(epsilons=(0.3,), kernels=kernels, max_iters=400)
    iters = _assert_rows_match_runs(problem, config, X0)
    assert len(iters) > 1  # rows stop at different iterations


def test_final_points_match_runs_jump():
    problem = ProblemSpec("jump", "zero", {}, "jump_quadratic",
                          {"xbar": 0.0}, 1).build()
    X0 = np.linspace(-2.0, 2.0, 9)[:, None]
    config = SolverConfig.constant(0.5, EUC, max_iters=50)
    _assert_rows_match_runs(problem, config, X0)


def test_final_points_cycle_schedules_and_hit_max_iters():
    problem = quad_problem("scad", {"lam": 0.5, "a": 3.7})
    config = SolverConfig(epsilons=(0.3, 0.2), kernels=(EUC, DIAG),
                          max_iters=7, step_tol=1e-14)
    X0 = np.random.default_rng(5).uniform(-3.0, 3.0, size=(12, 2))
    iters = _assert_rows_match_runs(problem, config, X0)
    assert 7 in iters and len(iters) > 1  # max_iters and early stops
    zero_iters = SolverConfig.constant(0.3, EUC, max_iters=0)
    assert np.array_equal(vbpg_final_points(problem, zero_iters, X0), X0)


def test_final_points_raise_like_runs():
    box = quad_problem("box", {"lo": -1.0, "hi": 1.0})
    config = SolverConfig.constant(0.3, EUC, max_iters=50)
    outside = np.array([[0.5, 0.5], [2.0, 0.0]])
    with pytest.raises(FloatingPointError, match="F\\(x0\\)"):
        vbpg_final_points(box, config, outside)
    with pytest.raises(FloatingPointError):
        vbpg_run(box, config, outside[1])
    indefinite = ProblemSpec("indef", "quadratic",
                             {"Q": [[1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]},
                             "l1", {"lam": 0.1}, 2).build()
    config = SolverConfig.constant(0.5, EUC, max_iters=5000)
    X0 = np.array([[1.0, 0.0], [1.0, 1.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError) as batched:
            vbpg_final_points(indefinite, config, X0)
        with pytest.raises(FloatingPointError) as single:
            vbpg_run(indefinite, config, X0[1])
    assert str(batched.value) == str(single.value)
    with pytest.raises(ValueError, match="dimension"):
        vbpg_final_points(indefinite, config, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# critical_points
# ---------------------------------------------------------------------------

def test_critical_points_makes_no_runs_and_one_prox_per_iteration(monkeypatch):
    # the multi-start makes one prox_map call on the stack of running rows
    # per outer iteration, and critical_points one more on the final
    # points; under the euclidean kernel each makes one g.prox call, under
    # the quadratic one a g.prox call per inner step over the running rows
    problem = quad_problem("mcp", {"lam": 0.6, "gamma": 4.0})
    runs, stacks = [], []
    monkeypatch.setattr(solver_mod, "vbpg_run", lambda *a: runs.append(1))
    for module in (solver_mod, diagnostics):  # the names the callers use
        monkeypatch.setattr(module, "prox_map", lambda p, K, eps, X, *rest:
                            stacks.append(X.shape)
                            or prox_map(p, K, eps, X, *rest))
    prox = problem.g.prox
    sizes = []
    monkeypatch.setattr(problem.g, "prox",
                        lambda v, *a: sizes.append(v.size) or prox(v, *a))
    crit = critical_points(problem, EUC, 0.4, np.zeros(2), 2.0)
    assert runs == [] and 2 < len(stacks) <= 3000 + 1
    assert stacks[0] == stacks[-1] == (25, 2)
    assert all(len(shape) == 2 for shape in stacks)
    assert len(sizes) == len(stacks) and crit.shape[1] == 2
    sizes.clear()
    stacks.clear()
    crit_q = critical_points(problem, KQ, 0.4, np.zeros(2), 2.0)
    assert runs == [] and crit_q.shape[1] == 2
    assert stacks[0] == stacks[-1] == (25, 2)
    assert all(len(shape) == 2 for shape in stacks)
    # the first inner step takes all 25 seeds at once, later ones the rows
    # still running
    assert sizes[0] == 25 * 2 and all(n % 2 == 0 for n in sizes)
    assert len(sizes) < sum(sizes) // 2


def test_critical_points_match_sequential_runs():
    problem = quad_problem("scad", {"lam": 0.5, "a": 3.7}, b=(-0.3, 0.2))
    center, hw, eps = np.array([0.1, -0.2]), 2.0, 0.5
    crit = critical_points(problem, EUC, eps, center, hw)
    axes = [np.linspace(c - hw, c + hw, 5) for c in center]
    seeds = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                     axis=1)
    config = SolverConfig.constant(eps, EUC, max_iters=3000, step_tol=1e-12)
    found = []
    for s in seeds:
        xf = vbpg_run(problem, config, s).final_x
        res = np.linalg.norm(xf - prox_map(problem, EUC, eps, xf).minimizer)
        if res <= 1e-8 and not any(np.linalg.norm(xf - p) <= 1e-6
                                   for p in found):
            found.append(xf)
    assert np.array_equal(crit, np.array(found))


# ---------------------------------------------------------------------------
# probe annotation and the checks built on it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [EUC, DIAG, KernelSpec.quadratic(
    [[1.3, 0.2], [0.2, 1.0]])], ids=["euclidean", "diagonal", "quadratic"])
@pytest.mark.parametrize("g_kind,g_params", REGULARIZERS[:3],
                         ids=[g for g, _ in REGULARIZERS[:3]])
def test_probe_samples_match_per_sample_reference(K, g_kind, g_params):
    problem = quad_problem(g_kind, g_params)
    eps = 0.3
    slice_ = make_slice(problem, [0.2, 0.1], 0.6, 0.4)
    grid = SublevelGrid(problem, slice_.center, 2.4)
    crit = critical_points(problem, K, eps, slice_.center, 1.2)
    samples = probe_slice(problem, K, eps, slice_, 60, 3, grid, crit)
    ref = reference_samples(problem, K, eps, slice_, samples.x, crit)
    for key in ("dist_subdiff", "dist_prox", "dist_crit", "property_A",
                "gap_value", "envelope_value", "prox_F"):
        assert getattr(samples, key).tolist() == [r[key] for r in ref], key


@pytest.mark.parametrize("kind", ["euclidean", "diagonal", "quadratic"])
@pytest.mark.parametrize("dim", [2, 5, 12])
@pytest.mark.parametrize("g_kind,g_params", EVERY_REGULARIZER,
                         ids=[g for g, _ in EVERY_REGULARIZER])
def test_annotation_has_the_bits_of_envelope_and_gap(kind, dim, g_kind,
                                                     g_params):
    # E, G and F(T x) of a row from its stacked prox result, each with the
    # bits of the one-point formulas
    rng = np.random.default_rng(dim)
    S = rng.standard_normal((dim, dim))
    Q = S @ S.T / dim + 0.1 * np.eye(dim)
    problem = quad_problem(g_kind, g_params, Q, rng.standard_normal(dim))
    if kind == "euclidean":
        K = EUC
    elif kind == "diagonal":
        K = KernelSpec.diagonal(rng.uniform(0.5, 2.0, dim))
    else:
        R = rng.standard_normal((dim, dim))
        K = KernelSpec.quadratic(R @ R.T / dim + np.eye(dim))
    rho = problem.g.semiconvex_rho
    eps = 0.5 * K.m / max(problem.f.lipschitz_L,
                          rho if math.isfinite(rho) else 0.0)
    X = rng.uniform(-2.0, 2.0, (30, dim))
    a = annotate_points(problem, K, eps, X)
    ref = [envelope_and_gap(problem, K, eps, x) for x in X]
    for got, want in ((a.envelope, [E for E, _, _ in ref]),
                      (a.gap, [G for _, G, _ in ref]),
                      (a.prox_F, [problem.F(p.minimizer) for _, _, p in ref])):
        assert got.tobytes() == np.array(want).tobytes()


def test_annotate_points_empty():
    problem = quad_problem("l1", {"lam": 0.5})
    a = annotate_points(problem, EUC, 0.5, np.empty((0, 2)))
    assert a.envelope.shape == a.dist_prox.shape == (0,)


def test_annotate_points_empty_quadratic_kernel():
    # an empty stack stops at once, where a loop waiting for its rows to
    # stop would raise ProxError after the inner budget
    problem = quad_problem("l1", {"lam": 0.5})
    a = annotate_points(problem, KQ, 0.5, np.empty((0, 2)))
    assert a.prox_point.shape == (0, 2)
    assert a.envelope.shape == a.dist_prox.shape == (0,)
    box = quad_problem("box", {"lo": 5.0, "hi": 6.0})
    with pytest.raises(diagnostics.SliceEmptyError):
        # every seed lies outside the box, so the multi-start is empty
        critical_points(box, KQ, 0.3, np.zeros(2), 1.0)


@pytest.mark.parametrize("problem,center,crit", [
    (quad_problem("l1", {"lam": 0.5}, Q=[[1.0, 0.0], [0.0, 1.0]],
                  b=(-1.0, -0.8)), [0.5, 0.3], [[0.5, 0.3]]),
    (quad_problem("zero", {}), [0.1, -0.2], [[0.0, 0.0], [0.1, -0.2]]),
    (ProblemSpec("pl", "scalar_profile", {"id": "pl_nonconvex"}, "zero", {},
                 1).build(), [0.0], [[0.0]]),
], ids=["lasso", "quadratic_two_crit", "pl_profile"])
def test_growth_moduli_match_scalar_loop(problem, center, crit):
    crit = np.array(crit, dtype=float)
    slice_ = make_slice(problem, center, 0.7, 1.0)
    rep = certify_growth_conditions(problem, slice_, crit, seed=13)
    ref = reference_growth_mus(problem, slice_, crit, seed=13)
    assert rep["mu"].keys() == ref.keys()
    for key, mu in rep["mu"].items():
        if ref[key] is None:
            assert mu is None, key
        else:
            assert mu == pytest.approx(ref[key], rel=1e-12, abs=1e-12), key


@pytest.mark.parametrize("g_kind,g_params", REGULARIZERS[1:3],
                         ids=["mcp", "scad"])
def test_semiconvex_slacks_match_per_sample_loop(g_kind, g_params):
    problem = quad_problem(g_kind, g_params)
    X = np.random.default_rng(21).uniform(-2.0, 2.0, size=(150, 2))
    rep = check_semiconvex_gap_bounds(problem, EUC, 0.3, X)
    ref = reference_semiconvex_slacks(problem, EUC, 0.3, X, 0.3)
    for key, slack in rep["min_slack"].items():
        assert slack == pytest.approx(ref[key], rel=1e-12, abs=1e-12), key


def test_semiconvex_slacks_skip_points_outside_dom_g():
    problem = quad_problem("box", {"lo": -1.0, "hi": 1.0})
    X = np.random.default_rng(22).uniform(-1.5, 1.5, size=(100, 2))
    rep = check_semiconvex_gap_bounds(problem, EUC, 0.3, X)
    ref = reference_semiconvex_slacks(problem, EUC, 0.3, X, 0.3)
    assert rep["min_slack"] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_luo_tseng_matches_per_sample_residuals(lasso_campaign):
    camp = lasso_campaign
    p, X = camp.problem, camp.samples.x
    rep = check_luo_tseng_bound(p, camp.samples, EUC, 0.5, 0.12, camp.crit)
    r = [float(np.linalg.norm(x - p.g.scaled_prox(
        x, p.f.gradient(x), 1.0, 0.5)[0])) for x in X]
    assert annotate_points(p, EUC, 0.5, X).dist_prox.tolist() == r
    kept = [0 < ri <= 0.12 for ri in r]
    assert rep["n_kept"] == sum(kept)
    assert rep["n_excluded"] == len(X) - sum(kept)


@pytest.mark.parametrize("K", [EUC, DIAG], ids=["euclidean", "diagonal"])
def test_luo_tseng_uses_euclidean_residuals(K, monkeypatch):
    # the report equals the one read off a fresh euclidean annotation; a
    # euclidean probe already holds it in dist_prox and annotates nothing
    problem = quad_problem("l1", {"lam": 0.5})
    eps, sigma = 0.3, 0.5
    slice_ = make_slice(problem, [0.2, 0.1], 0.6, 0.4)
    grid = SublevelGrid(problem, slice_.center, 2.4)
    crit = critical_points(problem, K, eps, slice_.center, 1.2)
    samples = probe_slice(problem, K, eps, slice_, 60, 3, grid, crit)
    r = annotate_points(problem, KernelSpec.euclidean(), eps,
                        samples.x).dist_prox
    assert np.array_equal(samples.dist_prox, r) == (K is EUC)
    ref = check_luo_tseng_bound(problem, replace(samples, dist_prox=r), EUC,
                                eps, sigma, crit)
    calls = []
    monkeypatch.setattr(diagnostics, "annotate_points",
                        lambda *a: calls.append(a) or annotate_points(*a))
    rep = check_luo_tseng_bound(problem, samples, K, eps, sigma, crit)
    assert rep == ref and not rep["gated"]
    assert len(calls) == (0 if K is EUC else 1)
