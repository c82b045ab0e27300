import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbpg.problems import (GridProxOracle, JumpQuadraticRegularizer,
                           McpRegularizer, ProblemSpec, build_regularizer,
                           lasso_spec)

from reference import descent_case_specs, prox_at, subdiff_at, value_at

PENALTIES = {
    "l1": {"lam": 0.8},
    "box": {"lo": -1.0, "hi": 1.0},
    "scad": {"lam": 1.0, "a": 3.7},
    "mcp": {"lam": 1.0, "gamma": 2.5},
    "sq_l2": {"lam": 0.7},
    "power": {"p": 1.5},
    "jump_quadratic": {"xbar": 0.0},
}


@pytest.mark.parametrize("kind", sorted(PENALTIES))
def test_prox_matches_grid_oracle(kind):
    g = build_regularizer(kind, PENALTIES[kind])
    oracle = GridProxOracle(g, -10.0, 10.0, 1e-4)
    rng = np.random.default_rng(7)
    for _ in range(300):
        v = float(rng.uniform(-6, 6))
        w = float(rng.uniform(0.5, 2.0))
        eps = float(rng.uniform(0.1, 1.0))
        t = prox_at(g, v, w, eps)[0]
        tg, hg = oracle.argmin(v, w, eps)
        h = value_at(g, t) + 0.5 * (w / eps) * (t - v) ** 2
        assert h <= hg + 1e-8
        assert abs(t - tg) <= 2e-4


def test_soft_threshold_example():
    g = build_regularizer("l1", {"lam": 1.0})
    assert prox_at(g, 2.0, 1.0, 0.5)[0] == pytest.approx(1.5)
    assert prox_at(g, -0.3, 1.0, 0.5)[0] == 0.0


def test_box_clamp_example():
    g = build_regularizer("box", {"lo": -1.0, "hi": 1.0})
    assert prox_at(g, 3.0, 1.0, 0.5)[0] == 1.0
    assert prox_at(g, 0.2, 1.0, 0.5)[0] == pytest.approx(0.2)


def test_scad_sweep_against_grid():
    g = build_regularizer("scad", {"lam": 1.0, "a": 3.7})
    oracle = GridProxOracle(g, -10.0, 10.0, 1e-4)
    for v in np.linspace(-6, 6, 241):
        t = prox_at(g, float(v), 1.0, 0.8)[0]
        tg, hg = oracle.argmin(float(v), 1.0, 0.8)
        assert abs(t - tg) <= 2e-4, v


def _full_grid_argmin(oracle, v, w, eps):
    """The oracle's plain reference: one pass over every grid node."""
    h = oracle.gvals + (w / (2.0 * eps)) * (oracle.grid - v) ** 2
    j = int(np.argmin(h))
    return float(oracle.grid[j]), float(h[j])


SHIPPED_PENALTIES = dict(PENALTIES, zero={}, power4={"p": 4.0},
                         mcp_shipped={"lam": 0.6, "gamma": 4.0},
                         scad_shipped={"lam": 0.5, "a": 3.7})


@pytest.mark.parametrize("name", sorted(SHIPPED_PENALTIES))
def test_argmin_many_matches_full_grid(name):
    kind = {"power4": "power", "mcp_shipped": "mcp",
            "scad_shipped": "scad"}.get(name, name)
    g = build_regularizer(kind, SHIPPED_PENALTIES[name])
    oracle = GridProxOracle(g, -10.0, 10.0, 1e-4)
    rng = np.random.default_rng(17)
    # v in [-12, 12] reaches past both grid ends (and the box's +inf)
    V, W, EPS = rng.uniform([-12.0, 0.5, 0.1], [12.0, 2.0, 1.0],
                            size=(300, 3)).T
    T, H = oracle.argmin_many(V, W, EPS)
    for v, w, eps, t, h in zip(V.tolist(), W.tolist(), EPS.tolist(),
                               T.tolist(), H.tolist()):
        assert (t, h) == _full_grid_argmin(oracle, v, w, eps), (v, w, eps)
    for v, w, eps in zip(V[:20].tolist(), W[:20].tolist(), EPS[:20].tolist()):
        assert oracle.argmin(v, w, eps) == _full_grid_argmin(oracle, v, w, eps)


@pytest.mark.parametrize("kind,params,queries", [
    # exact halfway points between integer nodes: two nodes tie
    ("zero", {}, [(255.5, 1.0, 1.0), (256.5, 2.0, 0.5), (0.5, 1.0, 1.0)]),
    # a flat tail: every node past gamma lam has the same g
    ("mcp", {"lam": 1.0, "gamma": 2.0}, [(700.5, 1.0, 1.0), (-3.5, 1.0, 1.0)]),
    # no quadratic term: all nodes tie (first node), or all in-box nodes
    ("zero", {}, [(500.0, 0.0, 1.0)]),
    ("box", {"lo": 100.0, "hi": 900.0}, [(0.0, 0.0, 1.0), (950.5, 1.0, 1.0)]),
    # every node is +inf: the first node with h = +inf
    ("box", {"lo": 2000.0, "hi": 3000.0}, [(10.0, 1.0, 1.0)]),
])
def test_argmin_many_first_node_wins_ties(kind, params, queries):
    g = build_regularizer(kind, params)
    oracle = GridProxOracle(g, -1024.0, 1024.0, 1.0)  # integer nodes
    V, W, EPS = (np.array(col) for col in zip(*queries))
    T, H = oracle.argmin_many(V, W, EPS)
    for (v, w, eps), t, h in zip(queries, T.tolist(), H.tolist()):
        ref = _full_grid_argmin(oracle, v, w, eps)
        assert (t, h) == ref
        # the reference's tie is real and it keeps the first node
        hh = oracle.gvals + (w / (2.0 * eps)) * (oracle.grid - v) ** 2
        assert t == float(oracle.grid[np.flatnonzero(hh == h)[0]])
    if queries[0][0] == 255.5:
        assert T.tolist()[:2] == [255.0, 256.0]


def test_argmin_many_refuses_unbounded_queries():
    oracle = GridProxOracle(build_regularizer("l1", {"lam": 1.0}),
                            -1.0, 1.0, 1e-3)
    for V, W, EPS in [([np.nan], [1.0], [1.0]), ([0.0], [-1.0], [1.0]),
                      ([0.0], [1.0], [0.0])]:
        with pytest.raises(ValueError):
            oracle.argmin_many(V, W, EPS)


@pytest.mark.parametrize("kind", ["l1", "box", "sq_l2", "power"])
def test_convex_prox_nonexpansive_in_v(kind):
    g = build_regularizer(kind, PENALTIES[kind])
    rng = np.random.default_rng(3)
    for _ in range(300):
        v1, v2 = rng.uniform(-5, 5, size=2)
        t1 = prox_at(g, float(v1), 1.0, 0.7)[0]
        t2 = prox_at(g, float(v2), 1.0, 0.7)[0]
        assert abs(t1 - t2) <= abs(v1 - v2) + 1e-12


@given(v=st.floats(-8, 8), u=st.floats(-9, 9))
@settings(max_examples=300, deadline=None)
def test_l1_prox_is_global_min(v, u):
    g = build_regularizer("l1", {"lam": 0.8})
    t = prox_at(g, v, 1.0, 0.5)[0]
    h = lambda s: value_at(g, s) + (s - v) ** 2 / 1.0
    assert h(t) <= h(u) + 1e-12


def test_mcp_multivalued_tie_flag():
    # kappa = 0.25 < rho = 0.5: nonconvex subproblem with a value tie
    # between 0 and the flat tail at v = sqrt(2/kappa)
    g = McpRegularizer(lam=1.0, gamma=2.0)
    v = math.sqrt(8.0)
    t, tied = prox_at(g, v, 1.0, 4.0)
    assert tied
    assert t == 0.0  # tie broken toward smaller |t|


def test_subdiff_dist_examples():
    l1 = build_regularizer("l1", {"lam": 1.0})
    assert subdiff_at(l1, 0.0, 0.3) == 0.0
    assert subdiff_at(l1, 0.0, 2.0) == pytest.approx(1.0)
    zero = build_regularizer("zero", {})
    assert subdiff_at(zero, 1.2, -0.7) == pytest.approx(0.7)
    box = build_regularizer("box", {"lo": -1.0, "hi": 1.0})
    # at the upper bound the normal cone is [0, inf): critical iff grad <= 0
    assert subdiff_at(box, 1.0, -0.4) == 0.0
    assert subdiff_at(box, 1.0, 0.4) == pytest.approx(0.4)
    assert subdiff_at(box, -1.0, 0.4) == 0.0
    assert subdiff_at(box, 2.0, 0.0) == math.inf


def test_subdiff_dist_matches_prox_fixed_points():
    # dist(0, grad + dg(t)) == 0 exactly when t is the prox of t + shift
    for kind in ("l1", "scad", "mcp"):
        g = build_regularizer(kind, PENALTIES[kind])
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = float(rng.uniform(-4, 4))
            eps = float(rng.uniform(0.2, 0.9))
            t = prox_at(g, v, 1.0, eps)[0]
            grad_model = (t - v) / eps  # gradient of the quadratic at t
            assert subdiff_at(g, t, grad_model) <= 1e-9


def test_semiconvex_midpoint_convexity():
    rng = np.random.default_rng(5)
    for kind in ("scad", "mcp"):
        g = build_regularizer(kind, PENALTIES[kind])
        rho = g.semiconvex_rho
        phi = lambda t: value_at(g, t) + 0.5 * rho * t * t
        for _ in range(500):
            s, t = rng.uniform(-8, 8, size=2)
            mid = 0.5 * (s + t)
            assert phi(mid) <= 0.5 * (phi(s) + phi(t)) + 1e-10


def test_mcp_modulus_example():
    g = McpRegularizer(lam=1.0, gamma=2.0)
    assert g.semiconvex_rho == pytest.approx(0.5)
    spec = ProblemSpec("m", "quadratic", {"Q": [[1.0]], "b": [0.0]},
                       "mcp", {"lam": 1.0, "gamma": 2.0}, 1)
    p = spec.build()
    assert p.g.semiconvex_rho == pytest.approx(0.5)
    assert not p.g.convex


def test_jump_regularizer_values():
    g = JumpQuadraticRegularizer(0.0)
    assert value_at(g, 0.0) == -1.0
    assert value_at(g, 0.5) == pytest.approx(0.125)
    assert subdiff_at(g, 0.0, 123.0) == 0.0  # every slope is a minorant
    assert subdiff_at(g, 0.5, 0.0) == pytest.approx(0.5)


def test_lasso_spec_gradient_matches_residual_form():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    p = lasso_spec("l", A, b, 0.3).build()
    x = rng.standard_normal(3)
    assert np.allclose(p.f.gradient(x), A.T @ (A @ x - b), atol=1e-12)
    assert p.f.value(x) == pytest.approx(0.5 * np.sum((A @ x - b) ** 2)
                                         - 0.5 * float(b @ b))


def test_quadratic_L_is_spectral_norm():
    spec = ProblemSpec("q", "quadratic",
                       {"Q": [[2.0, 1.5], [1.5, 1.0]], "b": [0.0, 0.0]},
                       "zero", {}, 2)
    p = spec.build()
    eigs = np.linalg.eigvalsh(np.array([[2.0, 1.5], [1.5, 1.0]]))
    assert p.f.lipschitz_L == pytest.approx(np.max(np.abs(eigs)))
    assert not p.f.convex


def test_parameter_domain_errors():
    with pytest.raises(ValueError):
        build_regularizer("scad", {"lam": 1.0, "a": 2.0})
    with pytest.raises(ValueError):
        build_regularizer("mcp", {"lam": 1.0, "gamma": 1.0})
    with pytest.raises(ValueError):
        build_regularizer("power", {"p": 2.5})


def test_descent_fixture_cases():
    from vbpg.bregman import descent_case
    fixtures = descent_case_specs()
    for cid, spec in fixtures.items():
        assert descent_case(spec.build()) == cid


def test_certified_L_power_iteration_verified():
    from vbpg.problems import generate_logistic_data
    Q = np.array([[2.0, 1.5], [1.5, 1.0]])
    spec = ProblemSpec("q", "quadratic", {"Q": Q.tolist(), "b": [0.0, 0.0]},
                       "zero", {}, 2)
    assert spec.build().f.lipschitz_L == pytest.approx(
        np.linalg.norm(Q, 2), rel=1e-6)
    A, y = generate_logistic_data(12, 2, 7)
    lg = ProblemSpec("lg", "logistic", {"A": A.tolist(), "labels": y.tolist()},
                     "zero", {}, 2).build()
    assert lg.f.lipschitz_L == pytest.approx(
        np.linalg.norm(A.T @ A, 2) / 4.0, rel=1e-6)


def test_logistic_data_reproducible():
    s1 = ProblemSpec("lg", "logistic", {"n_rows": 12, "data_seed": 7},
                     "l1", {"lam": 0.1}, 2).build()
    s2 = ProblemSpec("lg", "logistic", {"n_rows": 12, "data_seed": 7},
                     "l1", {"lam": 0.1}, 2).build()
    x = np.array([0.3, -0.4])
    assert s1.f.value(x) == s2.f.value(x)
    assert np.array_equal(s1.f.gradient(x), s2.f.gradient(x))
