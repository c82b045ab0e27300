"""Per-point references the tests compare the package against.

The package computes these quantities in array passes over rows; here
they are written once per point, from ``prox_map``, ``f.value`` and
``g.value``, so a fault in a row formula cannot hide in its reference.
"""

import math

import numpy as np

from vbpg.bregman import descent_slack_rows, prox_map, subgradient_rows
from vbpg.core import vector_norm
from vbpg.problems import ProblemSpec


def envelope_and_gap(problem, K, eps, x):
    """(E(x), G(x), prox result) from one subproblem solve:
    E = f(x) + subproblem value and G = (g(x) - subproblem value) / eps."""
    prox = prox_map(problem, K, eps, x)
    E = problem.f.value(x) + prox.subproblem_value
    G = (problem.g.value(x) - prox.subproblem_value) / eps
    return E, G, prox


def certificate(problem, K, eps, x, t):
    """xi = grad f(t) - grad f(x) - grad_y D(x, t) / eps at one point."""
    return subgradient_rows(eps, problem.f.gradient(x), problem.f.gradient(t),
                            K.grad_y(x, t))


def descent_slack(problem, K, eps, x, u, constants):
    """Slack of the generalized descent inequality at one pair (x, u)."""
    t = prox_map(problem, K, eps, x).minimizer
    return float(descent_slack_rows(constants, x[None], u[None], t[None],
                                    np.array([problem.F(t)]),
                                    np.array([problem.F(u)]))[0])


def subdiff_distance(g, x, grad_f):
    """dist(0, grad f(x) + subdiff g(x)) for separable g."""
    return vector_norm(g.subdiff_parts(x, grad_f))


def reference_semiconvex_slacks(problem, K, eps, X, eps_hi):
    """The per-sample loop of ``checks.semiconvex_gap_slacks``: the most
    negative slack of bounds (i)-(iv) over the rows of X where F is
    finite, one prox per point."""
    rho, m = problem.g.semiconvex_rho, K.m
    slacks = dict.fromkeys(("i", "ii", "iii", "iv"), math.inf)
    for x in X:
        Fx = problem.F(x)
        if not math.isfinite(Fx):
            continue
        E, G, prox = envelope_and_gap(problem, K, eps, x)
        r = vector_norm(x - prox.minimizer)
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


def value_at(g, t):
    """g at one scalar t."""
    return float(g.values(np.array([t], dtype=float))[0])


def prox_at(g, v, weight, eps):
    """(minimizer, tie flag) of g's scaled prox at one scalar v; a g that
    cannot tie flags no entry (``tied`` is None)."""
    t, tied = g.prox(np.array([v], dtype=float),
                     np.array([weight], dtype=float), eps)
    return float(t[0]), tied is not None and bool(tied[0])


def subdiff_at(g, t, grad_f_t):
    """dist(0, grad_f_t + subdiff g(t)) at one scalar t."""
    return float(g.subdiff_parts(np.array([t], dtype=float),
                                 np.array([grad_f_t], dtype=float))[0])


def inner_solve_from(problem, K, eps, x, y):
    """The quadratic-kernel prox subproblem at x solved from y by plain
    proximal gradient: step 1/(M/eps + L), no momentum, stopping once a
    step is at most 1e-10 (1 + ||x||).  Returns the last iterate and the
    number of steps taken."""
    grad_x = problem.f.gradient(x)
    step = 1.0 / (K.M / eps + problem.f.lipschitz_L)
    tol = 1e-10 * (1.0 + np.linalg.norm(x))
    for it in range(1, 10001):
        y_next, _ = problem.g.scaled_prox(
            y - step * (grad_x + K.grad_y(x, y) / eps), 0.0, 1.0, step)
        if np.linalg.norm(y_next - y) <= tol:
            return y_next, it
        y = y_next
    raise AssertionError("inner solve did not converge")


def central_difference_error(value, gradient, x, h=1e-5):
    """Max relative error max_i |cd_i - grad_i| / (1 + |grad_i|) of
    central differences against ``gradient`` at x; +inf when ``value`` is
    non-finite at a probe point."""
    x = np.asarray(x, dtype=float)
    g = gradient(x)
    worst = 0.0
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp, fm = value(x + e), value(x - e)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            return math.inf
        cd = (fp - fm) / (2 * h)
        worst = max(worst, abs(cd - g[i]) / (1.0 + abs(g[i])))
    return worst


def descent_case_specs():
    """One instance per convexity pattern of the descent-constant table.

    The indefinite instances are not level bounded (an indefinite
    quadratic dominates any bounded or 1-homogeneous penalty at infinity),
    so they are used only for per-point inequality checks, never for
    solver runs.
    """
    q_indef = {"Q": [[2.0, 1.5], [1.5, 1.0]], "b": [0.2, -0.1]}
    q_conv = {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]}
    return {
        1: ProblemSpec("case1_indef_mcp", "quadratic", q_indef,
                       "mcp", {"lam": 0.8, "gamma": 2.5}, 2),
        2: ProblemSpec("case2_conv_mcp", "quadratic", q_conv,
                       "mcp", {"lam": 0.6, "gamma": 4.0}, 2),
        3: ProblemSpec("case3_indef_l1", "quadratic", q_indef,
                       "l1", {"lam": 0.7}, 2),
        4: ProblemSpec("case4_lasso", "quadratic",
                       {"Q": np.eye(2), "b": [-1.0, -0.8]},
                       "l1", {"lam": 0.5}, 2),
    }
