"""Kernel-induced proximal machinery for composite objectives.

For a problem F = f + g, a kernel distance D and a step size eps, the
central objects are

    prox subproblem    min_y  <grad f(x), y - x> + g(y) + D(x, y) / eps
    prox map  T(x)     its minimizer set (a representative is returned)
    envelope  E(x)     f(x) + optimal subproblem value
    gap       G(x)     (F(x) - E(x)) / eps  >=  0

G vanishes exactly at proximal critical points when g is semiconvex and
the step size is admissible, which makes it the merit function used by
the diagnostics layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Array, KernelSpec, Problem, as_vector, row_dots,
                   row_norms, vector_norm)


class ProxError(RuntimeError):
    """Inner subproblem solve failed to converge."""


@dataclass(frozen=True, eq=False)
class ProxResult:
    """One representative minimizer of the prox subproblem.

    ``subproblem_value`` is <grad f(x), t - x> + g(t) + D(x, t)/eps at the
    returned t (it excludes f(x)), and ``g_value`` is its g(t) term.
    ``multivalued_flag`` is set when the coordinatewise candidate
    enumeration found two global minimizers tying within 1e-10; ties are
    resolved toward smaller |t|.
    """

    minimizer: Array
    subproblem_value: float
    inner_iterations: int
    multivalued_flag: bool
    g_value: float


def distance(K: KernelSpec, x: Array, y: Array) -> float:
    """Kernel distance D(x, y) = K(y) - K(x) - <grad K(x), y - x>."""
    x = as_vector(x)
    return K.distance(x, as_vector(y, dim=x.size))


def _prox_result(problem: Problem, K: KernelSpec, eps: float, x: Array,
                 grad_x: Array, t: Array, inner_iterations: int = 0,
                 tied: bool = False) -> ProxResult:
    g_t = problem.g.value(t)
    val = float(grad_x @ (t - x)) + g_t + K.distance(x, t) / eps
    return ProxResult(t, val, inner_iterations, tied, g_t)


def prox_map(problem: Problem, K: KernelSpec, eps: float, x: Array,
             warm_start: Array | None = None, inner_tol: float | None = None,
             inner_max: int = 10000, strict: bool = False,
             grad_x: Array | None = None) -> ProxResult:
    """Solve the prox subproblem at x.

    Separable fast path (euclidean/diagonal kernels, coordinatewise g):
    exact per-coordinate minimization through the regularizer's candidate
    enumeration.  General quadratic kernels: proximal-gradient iterations
    on the subproblem with step 1/(M/eps + L), run from ``warm_start``
    (default x) until the inner step norm falls below
    ``inner_tol`` (default 1e-10 (1 + ||x||)).  ``grad_x`` is grad f(x)
    when the caller already has it.
    """
    x = as_vector(x, dim=problem.dim)
    return _prox_map(problem, K, eps, x, warm_start, inner_tol, inner_max,
                     strict, grad_x)


def _prox_map(problem: Problem, K: KernelSpec, eps: float, x: Array,
              warm_start: Array | None = None, inner_tol: float | None = None,
              inner_max: int = 10000, strict: bool = False,
              grad_x: Array | None = None) -> ProxResult:
    """``prox_map`` on an already validated x."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    if strict:
        L = problem.f.lipschitz_L
        if L > 0 and not eps < K.m / L:
            raise ValueError(f"eps={eps:g} outside (0, m/L)=(0, {K.m / L:g})")
    if grad_x is None:
        grad_x = problem.f.gradient(x)

    weights = K.diag_weights(problem.dim)
    if weights is not None:
        t, tied = problem.g.scaled_prox(x, grad_x, weights, eps)
        return _prox_result(problem, K, eps, x, grad_x, t, 0, tied)

    # strongly convex inner problem: smooth part <grad_x, y> + D(x, y)/eps
    tol = inner_tol if inner_tol is not None else 1e-10 * (1.0 + vector_norm(x))
    step = 1.0 / (K.M / eps + problem.f.lipschitz_L)
    y = x.copy() if warm_start is None else as_vector(warm_start, dim=problem.dim)
    for it in range(1, inner_max + 1):
        grad_smooth = grad_x + K.grad_y(x, y) / eps
        y_next, _ = problem.g.scaled_prox(y - step * grad_smooth, 0.0, 1.0,
                                          step)
        move = vector_norm(y_next - y)
        y = y_next
        if move <= tol:
            return _prox_result(problem, K, eps, x, grad_x, y, it)
    raise ProxError(f"inner prox solve did not converge in {inner_max} iterations")


def prox_points(problem: Problem, K: KernelSpec, eps: float, X: Array,
                grad_X: Array | None = None) -> Array:
    """Prox minimizers of the rows of X, each with the bits of
    ``prox_map(problem, K, eps, x).minimizer``.  ``grad_X`` is grad f at
    the rows when the caller already has it.  Separable kernels make one
    regularizer call over all entries; other kernels solve row by row."""
    if grad_X is None:
        grad_X = problem.f.grad_batch(X)
    weights = K.diag_weights(problem.dim)
    if weights is None:
        return np.array([_prox_map(problem, K, eps, x, grad_x=gx).minimizer
                         for x, gx in zip(X, grad_X)]).reshape(X.shape)
    # the scaled prox of ``_prox_map``, on the flattened rows
    V = X - eps * grad_X / weights
    T, _ = problem.g.prox(V.ravel(), np.broadcast_to(weights, V.shape).ravel(),
                          eps)
    return T.reshape(X.shape)


@dataclass(frozen=True, eq=False)
class PointAnnotation:
    """Per-row prox quantities of an (n, dim) array X: E(x), G(x),
    F(T(x)), dist(0, subdiff F(x)), ||x - T(x)||, the prox point T(x) and
    grad f(x)."""

    envelope: Array
    gap: Array
    prox_F: Array
    dist_subdiff: Array
    dist_prox: Array
    prox_point: Array
    grad: Array


def annotate_points(problem: Problem, K: KernelSpec, eps: float,
                    X: Array) -> PointAnnotation:
    """``envelope_gap``, F at the prox point, the subdifferential distance
    and the prox residual for every row of an (n, dim) array X in one
    array pass.

    dist_subdiff and dist_prox carry the bits of the per-point functions;
    E, G and F(T x) sum f and g over the rows with ``batch`` and
    ``value_batch``, so they agree with ``envelope_gap`` and ``F`` up to
    summation roundoff."""
    f, g = problem.f, problem.g
    grad = f.grad_batch(X)
    T = prox_points(problem, K, eps, X, grad)
    g_T = g.value_batch(T)
    sub = row_dots(grad, T - X) + g_T + K.distance_rows(X, T) / eps
    return PointAnnotation(
        envelope=f.batch(X) + sub,
        gap=(g.value_batch(X) - sub) / eps, prox_F=f.batch(T) + g_T,
        dist_subdiff=row_norms(g.subdiff_parts(X, grad)),
        dist_prox=row_norms(X - T), prox_point=T, grad=grad)


def envelope(problem: Problem, K: KernelSpec, eps: float, x: Array,
             prox: ProxResult | None = None) -> float:
    """E(x) = f(x) + optimal subproblem value; satisfies E(x) <= F(x)."""
    return envelope_gap(problem, K, eps, x, prox)[0]


def gap(problem: Problem, K: KernelSpec, eps: float, x: Array,
        prox: ProxResult | None = None) -> float:
    """G(x) = (F(x) - E(x)) / eps = (g(x) - subproblem value) / eps >= 0."""
    return envelope_gap(problem, K, eps, x, prox)[1]


def envelope_gap(problem: Problem, K: KernelSpec, eps: float, x: Array,
                 prox: ProxResult | None = None) -> tuple[float, float, ProxResult]:
    """(E(x), G(x), prox result) from a single subproblem solve."""
    x = as_vector(x, dim=problem.dim)
    if prox is None:
        prox = _prox_map(problem, K, eps, x)
    E = problem.f.value(x) + prox.subproblem_value
    G = (problem.g.value(x) - prox.subproblem_value) / eps
    return E, G, prox


def subgradient_from_gradients(K: KernelSpec, eps: float, x: Array, t: Array,
                               grad_x: Array, grad_t: Array) -> Array:
    """xi = grad f(t) - grad f(x) - grad_y D(x, t) / eps from gradients the
    caller already holds."""
    return grad_t - grad_x - K.grad_y(x, t) / eps


def subgradient_rows(K: KernelSpec, eps: float, X: Array, T: Array,
                     grad_X: Array, grad_T: Array) -> Array:
    """``subgradient_from_gradients`` for each row of (n, dim) arrays."""
    return grad_T - grad_X - K.grad_y_rows(X, T) / eps


def prox_subgradient(problem: Problem, K: KernelSpec, eps: float, x: Array,
                     t: Array, check: bool = True) -> Array:
    """Subgradient certificate at a prox output t of x:

        xi = grad f(t) - grad f(x) - grad_y D(x, t) / eps

    xi lies in the proximal subdifferential of F at t, with
    ||xi|| <= (L + M/eps_lo) ||x - t||.
    """
    x = as_vector(x, dim=problem.dim)
    t = as_vector(t, dim=problem.dim)
    grad_x = problem.f.gradient(x)
    if check:
        # t must do at least as well as the feasible candidate y = x
        val_t = _prox_result(problem, K, eps, x, grad_x, t).subproblem_value
        val_x = problem.g.value(x)
        if val_t > val_x + 1e-8 * (1.0 + abs(val_x)):
            raise ValueError("t is not a prox output for x "
                             "(subproblem optimality violated)")
    return subgradient_from_gradients(K, eps, x, t, grad_x,
                                      problem.f.gradient(t))


def residual_bound(L: float, M: float, eps_lo: float) -> float:
    """Certified ratio bound ||xi|| / ||x - t|| = L + M / eps_lo."""
    return L + M / eps_lo


@dataclass(frozen=True)
class DescentConstants:
    """Coefficients (a, b, c) of the generalized descent inequality

        a [F(t) - F(u)] <= b ||u - x||^2 - ||u - t||^2 - c ||x - t||^2

    valid for every prox output t of x and every u.  The row depends on
    which of f, g are convex (case 1: neither, 2: f only, 3: g only,
    4: both).
    """

    a_frak: float
    b_frak: float
    c_frak: float
    case_id: int


def descent_case(problem: Problem) -> int:
    if problem.f.convex and problem.g.convex:
        return 4
    if problem.g.convex:
        return 3
    if problem.f.convex:
        return 2
    return 1


def descent_constants(case_id: int, m: float, M: float, L: float,
                      eps_lo: float, eps_hi: float) -> DescentConstants:
    if case_id == 1:
        a, b, c = 2.0, M / eps_lo + 2.0 + 3.0 * L, m / eps_hi - (L + 2.0)
    elif case_id == 2:
        a, b, c = 2.0, M / eps_lo + 2.0, m / eps_hi - (L + 2.0)
    elif case_id == 3:
        a = 2.0 * eps_hi / m
        b = M / m + 3.0 * L * eps_hi / m
        c = 1.0 - L * eps_hi / m
    elif case_id == 4:
        a, b, c = 2.0 * eps_hi / m, M / m, 1.0 - L * eps_hi / m
    else:
        raise ValueError("case_id must be 1..4")
    return DescentConstants(a_frak=a, b_frak=b, c_frak=c, case_id=case_id)


def check_descent_inequality(problem: Problem, K: KernelSpec, eps: float,
                             x: Array, u: Array, constants: DescentConstants,
                             prox: ProxResult | None = None) -> float:
    """Slack of the generalized descent inequality at (x, u).

    Returns b||u-x||^2 - ||u-t||^2 - c||x-t||^2 - a[F(t) - F(u)], which is
    nonnegative (up to roundoff) whenever the constants match the
    problem's convexity pattern and eps lies within the schedule bounds.
    """
    x = as_vector(x, dim=problem.dim)
    u = as_vector(u, dim=problem.dim)
    if prox is None:
        prox = _prox_map(problem, K, eps, x)
    slack = descent_slack_rows(constants, x[None], u[None],
                               prox.minimizer[None],
                               np.array([problem.F(prox.minimizer)]),
                               np.array([problem.F(u)]))
    return float(slack[0])


def descent_slack_rows(constants: DescentConstants, X: Array, U: Array,
                       T: Array, F_T: Array, F_U: Array) -> Array:
    """``check_descent_inequality`` for each row (x, u) with its prox point
    t and the values F(t), F(u): +inf where F(u) = +inf (u outside dom F
    makes the inequality vacuous)."""
    outside = np.isinf(F_U)
    F_U = np.where(outside, 0.0, F_U)
    slack = (constants.b_frak * row_dots(U - X, U - X) - row_dots(U - T, U - T)
             - constants.c_frak * row_dots(X - T, X - T)
             - constants.a_frak * (F_T - F_U))
    return np.where(outside, math.inf, slack)
