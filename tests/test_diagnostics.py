import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vbpg.cli import (problem_from_spec, problem_spec_from_config,
                      solver_config_from_config)
from vbpg.core import Constants, KernelSpec, Problem, SolverConfig, sample_ball
from vbpg.diagnostics import (_DRAW_CHUNK, DegenerateSampleError, EBFit,
                              ProbeSamples, SliceEmptyError,
                              SublevelGrid, certify_rate_chain,
                              check_critical_value_consistency,
                              check_gap_condition_links, check_kl_exponent_map,
                              check_level_set_rate_certificates,
                              check_step_containment,
                              check_subdiff_implies_prox_eb,
                              check_value_proximity, certify_growth_conditions,
                              check_luo_tseng_bound, critical_points,
                              eb_report, estimate_level_set_rate,
                              estimate_q_linear_rate, fit_error_bound,
                              kl_exponent_sweep, make_slice, probe_slice,
                              run_campaign)
from vbpg.problems import (ProblemSpec, build_regularizer,
                           generate_logistic_data, lasso_spec,
                           logistic_objective, quadratic_objective)
from vbpg.solver import vbpg_run

EUC = KernelSpec.euclidean()
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def rows(samples, index):
    """The table of the rows ``index`` selects from ``samples``."""
    return ProbeSamples(**{f.name: getattr(samples, f.name)[index]
                           for f in dataclasses.fields(samples)})


def square_problem():
    return ProblemSpec("sq", "scalar_profile", {"id": "square"},
                       "zero", {}, 1).build()


class TestSublevelProjection:
    def test_parabola_right(self):
        grid = SublevelGrid(square_problem(), [2.0], 6.0)
        d, proj = grid.project(1.0, [2.0])
        assert d == pytest.approx(1.0, abs=1e-6)
        assert proj[0] == pytest.approx(1.0, abs=1e-6)

    def test_parabola_left(self):
        grid = SublevelGrid(square_problem(), [-3.0], 6.0)
        d, proj = grid.project(1.0, [-3.0])
        assert d == pytest.approx(2.0, abs=1e-6)
        assert proj[0] == pytest.approx(-1.0, abs=1e-6)

    def test_boundary_value_check(self):
        p = square_problem()
        _, proj = SublevelGrid(p, [2.5], 6.0).project(1.0, [2.5])
        assert abs(p.F(proj) - 1.0) <= 1e-6

    def test_inside_sublevel_returns_zero(self):
        grid = SublevelGrid(square_problem(), np.zeros(1), 3.0)
        d, proj = grid.project(1.0, np.array([0.5]))
        assert d == 0.0 and proj[0] == 0.5

    def test_two_resolution_consistency(self):
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        F_bar = p.F(np.array([0.6, 0.35]))
        x = np.array([1.1, 0.9])
        d1, _ = SublevelGrid(p, x, 2.0, resolution=0.01).project(F_bar, x)
        d2, _ = SublevelGrid(p, x, 2.0, resolution=0.002).project(F_bar, x)
        assert abs(d1 - d2) <= 2 * 0.01

    def test_empty_sublevel_raises(self):
        with pytest.raises(SliceEmptyError):
            SublevelGrid(square_problem(), [2.0], 3.0).project(-1.0, [2.0])


def brute_project(grid, F_bar, x):
    """The oracle's definition, one point at a time: argmin over every
    in-set grid point and seed, then 60 scalar-F bisection steps."""
    F = grid.problem.F
    if F(x) <= F_bar:
        return 0.0, x.copy()
    cand = grid.points[grid.problem.F_batch(grid.points) <= F_bar]
    if cand.shape[0] == 0:
        raise SliceEmptyError("empty")
    target = cand[np.argmin(np.sum((cand - x[None, :]) ** 2, axis=1))]
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if F(x + mid * (target - x)) <= F_bar:
            hi = mid
        else:
            lo = mid
    proj = x + hi * (target - x)
    return float(np.linalg.norm(x - proj)), proj


def assert_matches_brute(grid, F_bar, X, atol):
    d, P = grid.project_many(F_bar, X)
    for x, di, pi in zip(X, d, P):
        d_ref, p_ref = brute_project(grid, F_bar, x)
        assert abs(di - d_ref) <= atol
        assert np.max(np.abs(pi - p_ref)) <= atol
    return d


def lasso_nd(dim):
    b = [1.0, 0.8, -0.9][:dim]
    return lasso_spec("l", np.eye(dim), b, 0.5).build()


class TestBatchedProjection:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_singleton_at_minimizer(self, dim):
        p = lasso_nd(dim)
        x_star = np.array([0.5, 0.3, -0.4][:dim])
        grid = SublevelGrid(p, x_star, 1.0)
        X = x_star + np.random.default_rng(dim).uniform(-0.4, 0.4, (25, dim))
        d = assert_matches_brute(grid, p.F(x_star), X, atol=1e-7)
        assert np.allclose(d, np.linalg.norm(X - x_star, axis=1), atol=1e-7)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_off_minimizer_region(self, dim):
        p = lasso_nd(dim)
        c = np.ones(dim)
        grid = SublevelGrid(p, c, 1.5)
        X = c + np.random.default_rng(10 + dim).uniform(-0.5, 0.5, (30, dim))
        d = assert_matches_brute(grid, p.F(c), X, atol=1e-10)
        assert np.sum(d > 0) > 5 and np.sum(d == 0) > 5

    def test_nonconvex_mcp_region(self):
        p = ProblemSpec("qm", "quadratic",
                        {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]},
                        "mcp", {"lam": 0.6, "gamma": 4.0}, 2).build()
        c = np.array([0.6, 1.2])
        grid = SublevelGrid(p, c, 2.0, resolution=0.01)
        X = c + np.random.default_rng(3).uniform(-0.6, 0.6, (40, 2))
        assert_matches_brute(grid, p.F(c), X, atol=1e-10)

    def test_own_node_inside_a_hole(self):
        # F = -||x||^2/2 below -2e-6 leaves a hole of radius 2e-3 around 0
        # that holds no grid node: every node near a query in the hole is
        # interior, so only the query's own node finds the nearest one
        p = ProblemSpec("cap", "quadratic",
                        {"Q": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]},
                        "zero", {}, 2).build()
        h = 0.01
        grid = SublevelGrid(p, [h / 2, h / 2], 0.5, resolution=h)
        F_bar = -2e-6
        X = np.random.default_rng(0).uniform(-1e-3, 1e-3, (20, 2))
        d = assert_matches_brute(grid, F_bar, X, atol=1e-10)
        assert np.all(d > 0) and np.all(d < h)

    def test_jump_singleton(self):
        p = ProblemSpec("jump", "zero", {}, "jump_quadratic", {"xbar": 0.0},
                        1).build()
        grid = SublevelGrid(p, np.zeros(1), 2.0)
        X = np.array([[0.3], [-1.1], [0.0], [1e-5]])
        d, P = grid.project_many(-1.0, X)
        assert np.array_equal(d, np.abs(X[:, 0])) and np.all(P == 0.0)

    def test_rows_inside_return_copies(self):
        p = lasso_nd(2)
        grid = SublevelGrid(p, np.ones(2), 1.5)
        X = np.array([[1.0, 1.0], [0.9, 0.95], [2.0, 2.0]])
        d, P = grid.project_many(p.F(np.ones(2)), X)
        assert d[0] == 0.0 and d[1] == 0.0 and d[2] > 0
        assert np.array_equal(P[:2], X[:2])
        P[0, 0] = 7.0
        assert X[0, 0] == 1.0

    def test_empty_set_raises(self):
        grid = SublevelGrid(square_problem(), np.zeros(1), 3.0)
        with pytest.raises(SliceEmptyError):
            grid.project_many(-1.0, np.array([[2.0], [0.5]]))

    def test_project_is_one_row_of_project_many(self):
        p = lasso_nd(2)
        grid = SublevelGrid(p, np.ones(2), 1.5)
        X = np.array([[1.3, 0.7], [1.1, 1.4]])
        d, P = grid.project_many(p.F(np.ones(2)), X)
        for i, x in enumerate(X):
            di, pi = grid.project(p.F(np.ones(2)), x)
            assert di == d[i] and np.array_equal(pi, P[i])

    def test_probe_call_counts(self, monkeypatch):
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        c = np.ones(2)
        sl = make_slice(p, c, 0.5, 0.4)
        grid = SublevelGrid(p, c, 1.5)
        calls = {"F": 0, "F_batch": 0}

        def counted(name):
            fn = getattr(Problem, name)

            def wrapper(self, *a):
                calls[name] += 1
                return fn(self, *a)
            return wrapper

        monkeypatch.setattr(Problem, "F", counted("F"))
        monkeypatch.setattr(Problem, "F_batch", counted("F_batch"))
        batch_calls = []
        for n in (20, 120):
            calls["F_batch"] = 0
            probe_slice(p, EUC, 0.5, sl, n, 1, grid=grid,
                        crit_points=np.array([[0.5, 0.3]]))
            batch_calls.append(calls["F_batch"])
        assert batch_calls[0] == batch_calls[1]
        calls["F"] = 0
        X = c + np.random.default_rng(2).uniform(-0.5, 0.5, (50, 2))
        grid.project_many(sl.F_bar, X)
        assert calls["F"] == 0


def dense_level_set(grid, F_bar):
    """The oracle's definition of the in-set mask and the candidates: F at
    every point, and the in-set nodes with an axis neighbour out of the
    set or off the grid, then the in-set center."""
    inside = grid.problem.F_batch(grid.points) <= F_bar
    on_grid = inside[:-1].reshape(grid.shape)
    edge = np.zeros_like(on_grid)
    for axis in range(on_grid.ndim):
        for shift in (1, -1):
            neighbour = np.roll(on_grid, shift, axis=axis)
            wrapped = [slice(None)] * on_grid.ndim
            wrapped[axis] = 0 if shift == 1 else -1
            neighbour[tuple(wrapped)] = False
            edge |= on_grid & ~neighbour
    cand = np.flatnonzero(edge)
    if inside[-1]:
        cand = np.append(cand, len(inside) - 1)
    return inside, cand


def assert_level_set_is_dense(grid, F_bar):
    """The grid's cached mask and candidates at F_bar are the dense
    definition's; returns the mask."""
    inside, cand = grid._level_set(F_bar)
    want_inside, want_cand = dense_level_set(grid, F_bar)
    assert np.array_equal(inside, want_inside)
    assert np.array_equal(cand, want_cand)
    return inside


# every regularizer kind; the box cuts the boxes below, and the jump is
# put on a node of the first axis
CELL_G = {"zero": {}, "l1": {"lam": 0.7}, "sq_l2": {"lam": 0.3},
          "box": {"lo": -0.5, "hi": 0.6}, "scad": {"lam": 0.8, "a": 3.7},
          "mcp": {"lam": 0.6, "gamma": 2.5}, "power": {"p": 1.5},
          "jump_quadratic": None}


def random_cell_case(rng, case):
    """A seeded grid of 2 to 149 nodes per axis at d = 1, 2 or 3 over an
    indefinite quadratic or a logistic f plus every kind of g in turn, and
    an F_bar below min F, above max F, at a node's F or at a quantile
    (mostly a low one, where the set is small)."""
    d = int(rng.integers(1, 4))
    n = int(rng.integers(2, {1: 150, 2: 60, 3: 28}[d]))
    halfwidth = float(rng.uniform(0.3, 3.0))
    resolution = 2 * halfwidth / (n - 1)
    center = rng.uniform(-1.5, 1.5, d)
    kind = list(CELL_G)[case % len(CELL_G)]
    params = CELL_G[kind]
    if params is None:
        axis = np.linspace(center[0] - halfwidth, center[0] + halfwidth, n)
        params = {"xbar": float(axis[rng.integers(n)])}
    if rng.random() < 0.5:
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        Q = (U * rng.uniform(-3.0, 3.0, d)) @ U.T
        f = quadratic_objective(0.5 * (Q + Q.T), rng.standard_normal(d))
    else:
        f = logistic_objective(*generate_logistic_data(
            int(rng.integers(5, 40)), d, int(rng.integers(100))))
    problem = Problem(f=f, g=build_regularizer(kind, params), dim=d)
    grid = SublevelGrid(problem, center, halfwidth, resolution)
    assert grid.shape == (n,) * d
    values = problem.F_batch(grid.points)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return grid, 0.0
    u = rng.random()
    if u < 0.1:
        return grid, float(finite.min()) - 1.0
    if u < 0.2:
        return grid, float(finite.max()) + 1.0
    if u < 0.6:
        return grid, float(rng.choice(finite))
    return grid, float(np.quantile(finite, rng.random() ** 3))


def counted_F_grid_rows(monkeypatch) -> list:
    """Wraps ``Problem.F_grid``; the one-entry list counts the rows (grid
    nodes) it evaluates."""
    rows = [0]
    F_grid = Problem.F_grid

    def counted(self, axes):
        values = F_grid(self, axes)
        rows[0] += values.size
        return values

    monkeypatch.setattr(Problem, "F_grid", counted)
    return rows


class TestCellBounds:
    """F is evaluated only on the box of cells whose lower bound reaches
    F_bar; the in-set mask and the candidates stay the dense grid's."""

    def test_mask_and_candidates_match_the_dense_grid(self, monkeypatch):
        rows = counted_F_grid_rows(monkeypatch)
        rng = np.random.default_rng(2028)
        pruned = 0
        for case in range(1200):
            grid, F_bar = random_cell_case(rng, case)
            before = rows[0]
            assert_level_set_is_dense(grid, F_bar)
            pruned += rows[0] - before < math.prod(grid.shape)
        assert pruned > 400  # the bounds skip nodes in a third of them

    def test_a_one_node_cell_keeps_its_node(self):
        # f = -x on 17 nodes: the last cell is the node x = 1 alone, where
        # the bound is F itself, and a linear f makes each cell's bound F
        # at its right end; the pad keeps those nodes at their own F_bar
        p = ProblemSpec("lin", "quadratic", {"Q": [[0.0]], "b": [-1.0]},
                        "zero", {}, 1).build()
        grid = SublevelGrid(p, [0.0], 1.0, 0.125)
        assert grid.shape == (17,)
        for F_bar in p.F_batch(grid.points):
            assert_level_set_is_dense(grid, F_bar)

    def test_an_overridden_L_does_not_lower_the_curvature(self):
        # F = (x2^2 - x1^2/2) on the box [-1, 1]^2 has its least value
        # -1/2 at (+-1, 0); L_override = 0.01 is far below |lambda_min| = 1,
        # and a bound on it would drop the node (-1, 0), the first of a
        # 16-node cell, so x would project onto (1, 0)
        p = ProblemSpec("q", "quadratic",
                        {"Q": [[-1.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0],
                         "L_override": 0.01},
                        "box", {"lo": -1.0, "hi": 1.0}, 2).build()
        assert (p.f.lipschitz_L, p.f.certified_L) == (0.01, 2.0)
        grid = SublevelGrid(p, [0.0, 0.0], 1.0)
        F_bar = -0.5
        inside = assert_level_set_is_dense(grid, F_bar)
        assert np.array_equal(grid.points[inside], [[-1.0, 0.0], [1.0, 0.0]])
        x = np.array([-0.9, 0.1])
        d, proj = grid.project(F_bar, x)
        assert np.allclose(proj, [-1.0, 0.0], rtol=0.0, atol=1e-12)
        assert d == pytest.approx(math.hypot(0.1, 0.1), abs=1e-12)

    @pytest.mark.parametrize("center,share", [(None, 0.05), ([1.0, 1.0], 0.2)],
                             ids=["lasso", "lasso_offmin"])
    def test_F_runs_on_few_nodes_of_the_lasso_probes(self, monkeypatch,
                                                     center, share):
        # at the minimizer the set is one node; off it, at F(1, 1), the set
        # covers about 13% of the box
        cfg = json.loads((CONFIGS / "lasso.json").read_text())
        if center is not None:
            cfg["probe"]["center"] = center
        problem = problem_from_spec(problem_spec_from_config(cfg))
        config = solver_config_from_config(cfg, problem)
        rows = counted_F_grid_rows(monkeypatch)
        campaign = run_campaign(problem, config, cfg["x0"], cfg["probe"], 5)
        eb_report(campaign, 5)
        assert 0 < rows[0] <= share * math.prod(campaign.grid.shape)


class TestProbeSlice:
    def test_jump_distances_exact(self, jump_campaign):
        s = jump_campaign.samples
        assert np.array_equal(s.dist_level, np.abs(s.x[:, 0]))
        assert np.array_equal(s.dist_subdiff, np.abs(s.x[:, 0]))
        assert s.property_A.all()

    def test_quadratic_at_minimum_property_A(self, profile_campaigns):
        camp = profile_campaigns["square"]
        s = camp.samples
        assert s.property_A.dtype == bool and s.property_A.all()
        assert np.all((0 < s.value_gap)
                      & (s.value_gap < camp.slice.value_band_nu))
        assert np.all(s.dist_level > 0) and np.all(s.dist_prox >= 0)

    def test_columns_have_one_entry_per_sample(self, lasso_campaign):
        s = lasso_campaign.samples
        assert len(s) == 240 and s.x.shape == (240, 2)
        for f in dataclasses.fields(s):
            assert len(getattr(s, f.name)) == 240, f.name

    def test_first_in_band_draws_in_order(self):
        # n = 2,500 takes at least three draw chunks, so acceptance
        # crosses chunk boundaries; the table keeps the first n in-band
        # rows of the same seeded stream, in order
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        c = np.array([0.5, 0.3])
        sl = make_slice(p, c, 0.5, 0.1)
        grid = SublevelGrid(p, c, 2.0, resolution=0.02)
        n, seed = 2500, 17
        samples = probe_slice(p, EUC, 0.5, sl, n, seed, grid=grid,
                              crit_points=c[None, :])
        rng = np.random.default_rng(seed)
        xs, fs = [], []
        while sum(len(X) for X in xs) < n:
            X = sample_ball(rng, _DRAW_CHUNK, sl.center, sl.radius_eta)
            FX = p.F_batch(X)
            ok = (FX > sl.F_bar) & (FX < sl.F_bar + sl.value_band_nu)
            xs.append(X[ok])
            fs.append(FX[ok])
        assert len(xs) >= 3
        assert np.array_equal(samples.x, np.concatenate(xs)[:n])
        assert np.array_equal(samples.value_gap,
                              np.concatenate(fs)[:n] - sl.F_bar)

    def test_empty_band_raises(self):
        p = ProblemSpec("jump", "zero", {}, "jump_quadratic", {"xbar": 0.0},
                        1).build()
        sl = make_slice(p, [0.0], 0.5, 0.5)  # band narrower than the jump
        grid = SublevelGrid(p, np.zeros(1), 2.0)
        with pytest.raises(SliceEmptyError):
            probe_slice(p, EUC, 0.5, sl, 50, 0, grid=grid,
                        crit_points=np.zeros((1, 1)))

    def test_membership_predicate(self, lasso_campaign):
        sl = lasso_campaign.slice
        p = lasso_campaign.problem

        def in_slice(x):
            return (np.linalg.norm(x - sl.center) < sl.radius_eta
                    and sl.F_bar < p.F(x) < sl.F_bar + sl.value_band_nu)

        for x in lasso_campaign.samples.x[:50]:
            assert in_slice(x)
        assert not in_slice(sl.center + 10.0)


class TestCriticalPoints:
    def test_finds_unique_minimizer(self):
        p = lasso_spec("l", np.eye(2), [1.0, 0.8], 0.5).build()
        crit = critical_points(p, EUC, 0.5, np.zeros(2), 2.0)
        assert crit.shape[0] == 1
        assert np.allclose(crit[0], [0.5, 0.3], atol=1e-7)

    def test_value_consistency_check(self, lasso_campaign):
        rep = check_critical_value_consistency(
            lasso_campaign.problem, lasso_campaign.slice.center,
            lasso_campaign.crit, delta=1.0)
        assert rep["ok"]


class TestFits:
    def test_square_kl_and_sharpness(self, profile_campaigns):
        samples = profile_campaigns["square"].samples
        kl = fit_error_bound(samples, "kl")
        sharp = fit_error_bound(samples, "sharpness")
        assert kl.exponent == pytest.approx(0.5, abs=0.02)
        assert sharp.exponent == pytest.approx(0.5, abs=0.02)
        assert kl.violated_fraction <= 0.02
        assert kl.n_samples >= 30

    def test_flat_residual_reports_unit_exponent(self):
        # F = |x|: the subdifferential distance is identically 1 off the
        # kink, so the exponent is unidentifiable and defaults to 1
        p = ProblemSpec("abs", "zero", {}, "l1", {"lam": 1.0}, 1).build()
        cfg = SolverConfig.constant(0.5, EUC, max_iters=60)
        camp = run_campaign(p, cfg, [0.7],
                            {"center": [0.0], "eta": 0.5, "nu": 0.6,
                             "n_samples": 120, "box_halfwidth": 2.0}, seed=3)
        fit = fit_error_bound(camp.samples, "level_subdiff")
        assert fit.exponent == 1.0
        assert fit.r_squared == 0.0
        assert fit.violated_fraction == 0.0
        assert fit.constant <= 0.5 + 1e-9  # envelope max |x| inside the slice

    def test_jump_certifies_subdiff_eb_but_fails_kl(self, jump_campaign):
        fit = fit_error_bound(jump_campaign.samples, "level_subdiff")
        assert fit.exponent == pytest.approx(1.0, abs=1e-6)
        assert fit.constant == pytest.approx(1.0, abs=1e-6)
        assert fit.violated_fraction == 0.0
        sweep = kl_exponent_sweep(jump_campaign.samples,
                                  [0.1, 0.3, 0.5, 0.7, 0.9])
        assert all(row["violated_fraction"] >= 0.99 for row in sweep)

    def test_kl_sweep_detects_exponent_threshold(self, profile_campaigns):
        # x^2 has KL exponent 1/2: alpha below fails, at/above holds
        samples = profile_campaigns["square"].samples
        rows = {row["alpha"]: row["violated_fraction"]
                for row in kl_exponent_sweep(samples, [0.3, 0.5, 0.7])}
        assert rows[0.3] >= 0.99
        assert rows[0.5] <= 0.02
        assert rows[0.7] <= 0.02

    def test_requires_thirty_samples(self, lasso_campaign):
        with pytest.raises(ValueError):
            fit_error_bound(rows(lasso_campaign.samples, slice(10)), "kl")

    def test_degenerate_sample_error(self, lasso_campaign):
        s = lasso_campaign.samples
        dead = dataclasses.replace(s, dist_level=np.zeros(len(s)))
        with pytest.raises(DegenerateSampleError):
            fit_error_bound(dead, "level_subdiff")

    def test_unknown_kind(self, lasso_campaign):
        with pytest.raises(ValueError):
            fit_error_bound(lasso_campaign.samples, "nope")

    def test_holdout_stability_gate(self, lasso_campaign, profile_campaigns,
                                    jump_campaign):
        # fits that train clean stay clean on the held-out half
        for camp in (lasso_campaign, profile_campaigns["square"],
                     jump_campaign):
            for kind in ("level_subdiff", "kl", "sharpness"):
                fit = fit_error_bound(camp.samples, kind)
                if fit.r_squared > 0.95:
                    assert fit.violated_fraction <= 0.02, (kind, fit)


class TestExponentMaps:
    def test_formula_cases(self):
        from vbpg.diagnostics import EBFit

        def fit_with(kind, exponent):
            return EBFit(bound_kind=kind, exponent=exponent, constant=1.0,
                         r_squared=1.0, n_samples=100, violated_fraction=0.0)

        rep = check_kl_exponent_map(fit_with("kl", 0.5),
                                    fit_with("level_subdiff", 1.0))
        assert rep["ok"] and rep["gamma_from_alpha"] == pytest.approx(1.0)
        rep2 = check_kl_exponent_map(fit_with("kl", 2.0 / 3.0),
                                     fit_with("level_subdiff", 2.0))
        assert rep2["ok"] and rep2["gamma_from_alpha"] == pytest.approx(2.0)

    def test_power_profile_exponents(self, profile_campaigns):
        # analytic kl exponents: x^2 -> 1/2, |x|^1.5 -> 1/3, x^4 -> 3/4
        targets = {"square": (0.5, 1.0), 1.5: (1.0 / 3.0, 0.5),
                   4.0: (0.75, 3.0)}
        for key, (alpha_t, gamma_t) in targets.items():
            samples = profile_campaigns[key].samples
            kl = fit_error_bound(samples, "kl")
            eb = fit_error_bound(samples, "level_subdiff")
            sharp = fit_error_bound(samples, "sharpness")
            assert kl.exponent == pytest.approx(alpha_t, abs=0.05), key
            assert eb.exponent == pytest.approx(gamma_t, abs=0.1), key
            rep = check_kl_exponent_map(kl, eb, sharp)
            assert rep["ok"], (key, rep)

    @pytest.mark.parametrize("key,gamma_t,p_t", [
        (1.5, 0.5, 1.0), ("square", 1.0, 1.0), (3.0, 2.0, 2.0)])
    def test_subdiff_implies_prox_eb_map(self, profile_campaigns, key,
                                         gamma_t, p_t):
        camp = profile_campaigns.get(key) or profile_campaigns[key]
        samples, sl = camp.samples, camp.slice
        p = camp.problem
        fit = fit_error_bound(samples, "level_subdiff")
        assert fit.exponent == pytest.approx(gamma_t, abs=0.1)
        rep = check_subdiff_implies_prox_eb(
            samples, sl, fit, Constants.of(p, camp.config))
        assert not rep["gated"]
        assert rep["p"] == pytest.approx(p_t, abs=0.1)
        assert rep["n_checked"] > 0
        assert rep["n_violations"] == 0

    def test_lasso_prox_eb_zero_violations(self, lasso_campaign):
        fit = fit_error_bound(lasso_campaign.samples, "level_subdiff")
        p = lasso_campaign.problem
        rep = check_subdiff_implies_prox_eb(
            lasso_campaign.samples, lasso_campaign.slice, fit,
            Constants.of(p, SolverConfig.constant(0.5, EUC)))
        assert rep["n_violations"] == 0

    def test_tiny_gamma_gated_not_overflow(self, lasso_campaign):
        # (c3 (L + M/eps_lo))^(1/gamma) = 30^1000 leaves the float range
        fit = EBFit("level_subdiff", exponent=1e-3, constant=10.0,
                    r_squared=0.0, n_samples=240, violated_fraction=0.0)
        C = Constants(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 4)
        rep = check_subdiff_implies_prox_eb(
            lasso_campaign.samples, lasso_campaign.slice, fit, C)
        assert rep == {"check": "subdiff_implies_prox_eb", "gated": True,
                       "reason": "theta not finite"}
        assert certify_rate_chain(0.5, fit, C, 0.5) \
            == {"gated": True, "reason": "theta not finite"}


class TestValueProximity:
    def test_lasso_zero_violations(self, lasso_campaign):
        p = lasso_campaign.problem
        rep = check_value_proximity(
            lasso_campaign.samples, lasso_campaign.slice.F_bar,
            Constants.of(p, SolverConfig.constant(0.5, EUC)))
        assert rep["min_slack_envelope_vs_proxF"] >= -1e-8
        assert rep["min_slack_c0_bound"] >= -1e-8

    def test_mcp_instance(self, rng):
        spec = ProblemSpec("qmcp", "quadratic",
                           {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]},
                           "mcp", {"lam": 0.6, "gamma": 4.0}, 2)
        p = spec.build()
        cfg = SolverConfig.constant(0.4, EUC, max_iters=800, step_tol=1e-11)
        camp = run_campaign(p, cfg, [1.5, 1.0],
                            {"eta": 0.5, "nu": 0.1, "n_samples": 120,
                             "box_halfwidth": 2.0, "resolution": 0.005},
                            seed=11)
        rep = check_value_proximity(camp.samples, camp.slice.F_bar,
                                    Constants.of(p, cfg))
        assert rep["min_slack_envelope_vs_proxF"] >= -1e-8
        assert rep["min_slack_c0_bound"] >= -1e-8

    def test_boundary_point_bounds_trivially(self):
        # at dist 0 with F(x) = Fbar both sides of the chain are <= 0
        zero = np.zeros(1)
        s = ProbeSamples(x=np.zeros((1, 1)), dist_level=zero,
                         dist_subdiff=zero, value_gap=zero, dist_prox=zero,
                         dist_crit=zero, property_A=np.ones(1, dtype=bool),
                         gap_value=zero, envelope_value=zero, prox_F=zero)
        rep = check_value_proximity(
            s, 0.0, Constants(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 4))
        assert rep["min_slack_envelope_vs_proxF"] >= 0.0
        assert rep["min_slack_c0_bound"] >= 0.0

    def test_step_containment(self, lasso_campaign):
        p = lasso_campaign.problem
        rep = check_step_containment(
            lasso_campaign.samples, lasso_campaign.slice,
            Constants.of(p, SolverConfig.constant(0.5, EUC)))
        assert rep["n_checked"] > 0
        assert rep["n_violations"] == 0


class TestGapConditionLinks:
    def test_lasso_both_directions(self, lasso_campaign):
        fit = fit_error_bound(lasso_campaign.samples, "level_bregman")
        rep = check_gap_condition_links(
            lasso_campaign.samples, fit,
            Constants.of(lasso_campaign.problem, lasso_campaign.config))
        assert not rep["gated"]
        assert rep["q"] == 1.0  # p ~ 1 maps to q = 1
        assert rep["mu_envelope"] > 0
        assert rep["n_violations"] == 0
        # gap-condition exponent q maps to KL exponent q/2, consistent with
        # the independent KL fit up to fit tolerance
        kl = fit_error_bound(lasso_campaign.samples, "kl")
        assert abs(rep["kl_exponent"] - kl.exponent) <= 0.1

    def test_gated_without_semiconvexity(self, jump_campaign):
        fit = fit_error_bound(jump_campaign.samples, "level_bregman")
        rep = check_gap_condition_links(
            jump_campaign.samples, fit,
            Constants.of(jump_campaign.problem, jump_campaign.config))
        assert rep["gated"] and rep["reason"] == "g is not semiconvex"


class TestRates:
    def test_gradient_descent_exact_ratio(self):
        p = ProblemSpec("gd", "quadratic", {"Q": [[1.0]], "b": [0.0]},
                        "zero", {}, 1).build()
        cfg = SolverConfig.constant(0.3, EUC, max_iters=60, step_tol=0.0)
        trace = vbpg_run(p, cfg, np.array([2.0]))
        beta, window = estimate_q_linear_rate(trace, 0.0)
        assert beta == pytest.approx((1 - 0.3) ** 2, abs=1e-12)
        assert window[1] > window[0]

    def test_empty_window_raises(self):
        p = ProblemSpec("gd", "quadratic", {"Q": [[1.0]], "b": [0.0]},
                        "zero", {}, 1).build()
        cfg = SolverConfig.constant(0.3, EUC, max_iters=5)
        trace = vbpg_run(p, cfg, np.zeros(1))
        with pytest.raises(ValueError):
            estimate_q_linear_rate(trace, 0.0)

    def test_float_exhaustion_truncates(self):
        p = ProblemSpec("gd", "quadratic", {"Q": [[1.0]], "b": [0.0]},
                        "zero", {}, 1).build()
        cfg = SolverConfig.constant(0.9, EUC, max_iters=500, step_tol=0.0)
        trace = vbpg_run(p, cfg, np.array([2.0]))
        beta, window = estimate_q_linear_rate(trace, 0.0)
        assert beta == pytest.approx(0.01, abs=1e-6)

    def test_r_linear_envelope_on_gradient_descent(self):
        from vbpg.diagnostics import r_linear_envelope
        p = ProblemSpec("gd", "quadratic", {"Q": [[1.0]], "b": [0.0]},
                        "zero", {}, 1).build()
        cfg = SolverConfig.constant(0.3, EUC, max_iters=40, step_tol=0.0)
        trace = vbpg_run(p, cfg, np.array([2.0]))
        beta, _ = estimate_q_linear_rate(trace, 0.0)
        C = r_linear_envelope(trace, beta)
        # iterates contract at exactly sqrt(beta), so the envelope equals
        # the initial distance to the final iterate and dominates the tail
        assert C == pytest.approx(2.0, rel=1e-5)
        root = np.sqrt(beta)
        for x, k in zip(trace.iterates, trace.iterate_indices):
            d = abs(x[0] - trace.final_x[0])
            assert d <= C * root ** k * (1 + 1e-12)

    def test_level_set_rate_matches_iterate_contraction(self):
        # convex quadratic, g = 0: sublevel sets are balls around the
        # minimizer, so the distance ratio equals the iterate ratio
        p = ProblemSpec("q", "quadratic", {"Q": [[1.0, 0.0], [0.0, 1.0]],
                                           "b": [-1.0, -1.0]},
                        "zero", {}, 2).build()
        cfg = SolverConfig.constant(0.4, EUC, max_iters=40, step_tol=0.0)
        trace = vbpg_run(p, cfg, np.array([3.0, 2.0]))
        grid = SublevelGrid(p, np.ones(2), 3.0, resolution=0.005)
        rep = estimate_level_set_rate(trace, p, p.F(np.ones(2)), grid)
        assert rep["beta_levelset"] == pytest.approx(0.6, abs=0.01)

    def test_level_set_rate_converged_report(self, jump_campaign):
        rep = estimate_level_set_rate(jump_campaign.trace,
                                      jump_campaign.problem, -1.0,
                                      jump_campaign.grid)
        assert rep["converged"]
        assert math.isnan(rep["beta_levelset"])


class TestRateChain:
    def test_linear_exponent_closed_form(self):
        # gamma = 1: theta1 = 1 + c3 (L + M/eps_lo), c0 = 3L/2 + M/(2 eps_lo)
        fit = EBFit("level_subdiff", exponent=1.0, constant=1.0,
                    r_squared=1.0, n_samples=100, violated_fraction=0.0)
        rep = certify_rate_chain(
            0.9, fit, Constants(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 4), 0.5)
        assert rep["theta"] == 4.0
        assert rep["beta_certified"] == pytest.approx(1 / (1 + 0.5 / 40.0))
        assert rep["chain_ok"]

    def test_nonpositive_exponent_empty(self):
        fit = EBFit("level_subdiff", exponent=-0.2, constant=1.0,
                    r_squared=0.1, n_samples=100, violated_fraction=0.0)
        C = Constants(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 4)
        assert certify_rate_chain(0.9, fit, C, 0.5) == {}


class TestRateCertificates:
    def test_forward_window_and_reverse_bound(self):
        # strong curvature + near-isotropic kernel puts theta' inside the
        # admissible window, so both certificate directions are exercised
        p = ProblemSpec("q10", "quadratic",
                        {"Q": [[10.0, 0.0], [0.0, 10.0]], "b": [-10.0, -10.0]},
                        "zero", {}, 2).build()
        K = KernelSpec.diagonal([1.0, 1.001])
        cfg = SolverConfig.constant(0.05, K, max_iters=60, step_tol=0.0)
        camp = run_campaign(p, cfg, [3.0, 2.5],
                            {"center": [1.0, 1.0], "eta": 0.4, "nu": 0.5,
                             "n_samples": 100, "box_halfwidth": 3.5,
                             "resolution": 0.005}, seed=13)
        rep_rate = estimate_level_set_rate(camp.trace, p,
                                           camp.slice.F_bar, camp.grid)
        beta = rep_rate["beta_levelset"]
        assert beta < 1.0
        refit = np.max(camp.samples.dist_level / camp.samples.dist_subdiff)
        rep = check_level_set_rate_certificates(beta, refit,
                                                Constants.of(p, cfg))
        assert "forward_beta_bound" in rep
        assert rep["forward_ok"]
        assert rep["reverse_ok"]

    def test_forward_gated_when_b_at_most_one(self):
        # case 4 at m = M: b = M/m = 1 and c = 1 - L eps_hi/m = 0.5
        C = Constants(1.0, 0.0, 1.0, 1.0, 0.5, 0.5, 4)
        assert C.descent[1:] == (1.0, 0.5)
        rep = check_level_set_rate_certificates(0.5, 1.0, C)
        assert "forward_gated" in rep
        assert rep["reverse_ok"]  # reverse direction still evaluated


class TestStepSizeClauseGates:
    """Beyond a step-size clause of ``Constants``, each bound that needs it
    reads gated, with a reason naming the clause, where it used to write a
    vacuous certificate or divide by a nonpositive constant."""

    @pytest.mark.parametrize("name,eps", [("quad_mcp", 0.6), ("lasso", 1.2)])
    def test_probe_beyond_m_over_L(self, name, eps):
        # m/L is 0.480 for quad_mcp and 1 for lasso
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["solver"]["epsilon"] = eps
        problem = problem_from_spec(problem_spec_from_config(cfg))
        config = solver_config_from_config(cfg, problem)
        assert not Constants.of(problem, config).l_clause
        campaign = run_campaign(problem, config, cfg["x0"], cfg["probe"], 0)
        checks = eb_report(campaign, 0)["checks"]
        needs = "needs eps_max < m/L"
        assert checks["step_containment"] == {
            "check": "prox_step_containment", "gated": True, "reason": needs}
        assert checks["subdiff_implies_prox_eb"] == {
            "check": "subdiff_implies_prox_eb", "gated": True,
            "reason": needs}
        rate = checks["rate_chain"]
        assert rate["gated"] and rate["reason"] == needs
        assert "beta_certified" not in rate and "chain_ok" not in rate

    def test_rate_chain_gated_where_a_is_not_positive(self):
        # eps = 1.2 > m/L = 1 gives a < 0, so the certified ratio would
        # exceed 1 and hold for any observed one
        fit = EBFit("level_subdiff", exponent=1.0, constant=1.0,
                    r_squared=1.0, n_samples=100, violated_fraction=0.0)
        for eps in (1.0, 1.2):
            C = Constants(1.0, 0.0, 1.0, 1.0, eps, eps, 4)
            assert C.a <= 0
            assert certify_rate_chain(0.9, fit, C, 0.5) == {
                "gated": True, "reason": "needs eps_max < m/L"}

    def test_margin_bounds_gated_beyond_m_over_rho(self, lasso_campaign):
        # L = 0.1, rho = 1/1.1: m/L = 10 and m/rho = 1.1, so eps = 2 leaves
        # the m/L clause met and makes the margin negative
        C = Constants(0.1, 1.0 / 1.1, 1.0, 1.0, 2.0, 2.0, 2)
        assert C.l_clause and not C.rho_clause and C.margin < 0
        fit = fit_error_bound(lasso_campaign.samples, "level_bregman")
        rep = check_gap_condition_links(lasso_campaign.samples, fit, C)
        assert rep == {"check": "gap_condition_links", "gated": True,
                       "reason": "needs eps_max < m/rho"}
        rep = check_level_set_rate_certificates(0.5, 1.0, C)
        assert rep["reverse_gated"] == "needs eps_max < m/rho"
        assert "reverse_c3_bound" not in rep
        # a contraction beta >= 1 keeps its own reason
        rep = check_level_set_rate_certificates(1.0, 1.0, C)
        assert rep["reverse_gated"] == "needs semiconvex g and beta < 1"


class TestGrowthConditions:
    def test_strongly_convex_all_certify(self):
        p = ProblemSpec("iso", "quadratic", {"Q": [[1.0, 0.0], [0.0, 1.0]],
                                             "b": [0.0, 0.0]},
                        "zero", {}, 2).build()
        sl = make_slice(p, [0.0, 0.0], 1.5, 10.0)
        crit = np.zeros((1, 2))
        rep = certify_growth_conditions(p, sl, crit, seed=1)
        mus = rep["mu"]
        assert mus["lsc"] == pytest.approx(1.0, abs=1e-6)
        for name in ("lesc", "lwsc", "lqgg", "lrsi"):
            assert mus[name] >= 1.0 - 1e-6, name
        assert mus["lpl"] >= 1.0 - 1e-6

    def test_pl_profile_nonconvex(self):
        p = ProblemSpec("pl", "scalar_profile", {"id": "pl_nonconvex"},
                        "zero", {}, 1).build()
        sl = make_slice(p, [0.0], 2.5, 100.0)
        crit = np.zeros((1, 1))
        rep = certify_growth_conditions(p, sl, crit, seed=2)
        assert rep["mu"]["lpl"] > 0.0
        assert rep["mu"]["lsc"] == 0.0  # concave stretch defeats convexity

    def test_weak_subreg_conclusion_on_probe(self, lasso_campaign):
        rep = certify_growth_conditions(
            lasso_campaign.problem, lasso_campaign.slice,
            lasso_campaign.crit, seed=3,
            samples=lasso_campaign.samples)
        assert not rep["weak_subreg"]["gated"]
        assert rep["weak_subreg"]["n_violations"] == 0

    def test_gated_when_mu_below_rho(self):
        spec = ProblemSpec("weak", "quadratic", {"Q": [[0.3]], "b": [0.0]},
                           "mcp", {"lam": 0.3, "gamma": 2.0}, 1)
        p = spec.build()
        sl = make_slice(p, [0.0], 0.5, 1.0)
        crit = critical_points(p, EUC, 0.5, np.zeros(1), 1.0)
        rep = certify_growth_conditions(p, sl, crit, seed=4)
        assert rep["weak_subreg"]["gated"]
        assert "rho" in rep["weak_subreg"]["reason"]


class TestLuoTseng:
    def test_lasso_fit_and_bound(self, lasso_campaign):
        rep = check_luo_tseng_bound(lasso_campaign.problem,
                                    lasso_campaign.samples, EUC, 0.5, 0.5)
        assert not rep["gated"]
        assert math.isfinite(rep["c6"]) and rep["c6"] > 0
        assert rep["n_violations"] == 0

    def test_residual_filter_semantics(self, lasso_campaign):
        rep = check_luo_tseng_bound(lasso_campaign.problem,
                                    lasso_campaign.samples, EUC, 0.5, 0.12)
        assert rep["n_excluded"] > 0

    def test_critical_point_both_sides_zero(self, lasso_campaign):
        p = lasso_campaign.problem
        xhat = lasso_campaign.trace.final_x
        ones = np.ones(p.dim)
        prox_pt, _ = p.g.scaled_prox(xhat, p.f.gradient(xhat), ones, 0.5)
        assert np.linalg.norm(xhat - prox_pt) <= 1e-8
        assert min(np.linalg.norm(lasso_campaign.crit - xhat, axis=1)) <= 1e-7

    def test_diagonal_kernel_probe_still_certifies(self):
        # the residual bound is stated through the euclidean prox-gradient
        # map; probing under a different kernel must not poison the check
        p = ProblemSpec("box", "quadratic",
                        {"Q": [[1.2, 0.4], [0.4, 0.9]], "b": [1.0, -1.5],
                         }, "box", {"lo": -1.0, "hi": 1.0}, 2).build()
        K = KernelSpec.diagonal([1.5, 1.0])
        cfg = SolverConfig.constant(0.6, K, max_iters=600, step_tol=1e-10)
        camp = run_campaign(p, cfg, [0.2, 0.9],
                            {"eta": 0.4, "nu": 0.2, "n_samples": 120,
                             "box_halfwidth": 1.8, "resolution": 0.005},
                            seed=3)
        rep = check_luo_tseng_bound(p, camp.samples, K, 0.6, 0.5)
        assert not rep["gated"]
        assert rep["n_violations"] == 0

    def test_gated_for_nonconvex_g(self, rng):
        spec = ProblemSpec("qmcp", "quadratic",
                           {"Q": [[1.0]], "b": [0.0]},
                           "mcp", {"lam": 0.5, "gamma": 3.0}, 1)
        p = spec.build()
        rep = check_luo_tseng_bound(p, [], EUC, 0.3, 0.5)
        assert rep["gated"]
