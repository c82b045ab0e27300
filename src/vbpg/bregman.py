"""Kernel-induced proximal machinery for composite objectives.

For a problem F = f + g, a kernel distance D and a step size eps, the
central objects are

    prox subproblem    min_y  <grad f(x), y - x> + g(y) + D(x, y) / eps
    prox map  T(x)     its minimizer set (a representative is returned)
    envelope  E(x)     f(x) + optimal subproblem value
    gap       G(x)     (F(x) - E(x)) / eps  >=  0

G vanishes exactly at proximal critical points when g is semiconvex and
the step size is admissible, which makes it the merit function used by
the diagnostics layer.  ``prox_map`` solves the subproblem at one point
(the solver's path) or at each row of an (n, dim) stack, with the bits
of the row's own solve; ``annotate_points`` reads T, E and G from it.

Under a separable kernel the subproblem splits into exact 1-D problems.
Under a general quadratic kernel one certified accelerated loop
(``_accelerated_prox``) solves it, for a point or a stack of rows.
``subgradient_rows`` and ``descent_slack_rows`` give the residual
certificate and the descent inequality; the constants they are bounded
by come from ``core.Constants``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (Array, Constants, KernelSpec, Problem, matvec_rows,
                   row_dots, row_norms)


class ProxError(RuntimeError):
    """Inner subproblem solve failed to converge."""


_INNER_MAX = 10000  # inner iterations of a non-separable prox solve


@dataclass(slots=True, eq=False)
class ProxResult:
    """One representative minimizer of the prox subproblem; at a stack,
    one per row in every field but ``inner_iterations``, ``certified`` and
    ``eps``.  Slotted and not frozen: a frozen dataclass's ``__init__``
    makes one ``object.__setattr__`` call per field, and the solver builds
    one record per iteration.

    ``g_value`` is g(t), ``step`` is t - x and ``kernel_step`` the
    kernel's Hessian applied to it, grad_y D(x, t).  With grad f(x)
    (``grad_x``) and ``eps`` they give ``subproblem_value`` on each read,
    so only a caller that reads it (not the solver's multi-start) pays.
    At a one-entry point under a separable kernel ``step``,
    ``kernel_step`` and ``grad_x`` are numpy scalars, the coordinates of
    their one-entry vectors with the same bits, and ``minimizer`` is the
    (1,) array.
    ``multivalued_flag`` is set when the coordinatewise candidate
    enumeration found two global minimizers tying within 1e-10; ties are
    resolved toward smaller |t|.  ``inner_iterations`` counts the steps of
    an iterative (non-separable) solve until its last row stopped, 0 on
    the exact coordinatewise path.  ``certified`` is False only for an
    iterative solve whose inner problem is not known to be strongly
    convex (eps >= m/rho): its minimizer is then a fixed point of the
    inner steps, not a certified global minimizer.
    """

    minimizer: Array
    inner_iterations: int
    multivalued_flag: bool | Array
    g_value: float | Array
    certified: bool
    step: Array
    kernel_step: Array
    grad_x: Array
    eps: float

    @property
    def subproblem_value(self) -> float | Array:
        """<grad f(x), t - x> + g(t) + D(x, t)/eps at the returned t (it
        excludes f(x)), with D(x, t) = <kernel_step, step>/2: a Python
        float at one point, one value per row."""
        r = self.step
        val = (row_dots(self.grad_x, r) + self.g_value
               + 0.5 * row_dots(self.kernel_step, r) / self.eps)
        return float(val) if r.ndim < 2 else val


def prox_map(problem: Problem, K: KernelSpec, eps: float, x: Array,
             grad_x: Array | None = None,
             start: Array | None = None) -> ProxResult:
    """Solve the prox subproblem at x, one point or each row of an
    (n, dim) stack with the bits of the row's one-point solve.

    Separable kernels: exact per-coordinate minimization by the
    regularizer's candidate enumeration (``Regularizer.scaled_prox``).
    A one-entry point is solved on its coordinate, a numpy scalar, under
    every separable kernel, whose one weight ``KernelSpec.diag_weights``
    holds as a float: a ufunc on a scalar costs about half of one on a
    (1,) array, and rounds the same.  General quadratic kernels:
    ``_accelerated_prox``, from ``start`` (shaped as x) in place of x
    where the inner problem is strongly convex, mu = m/eps - rho > 0:
    the solver passes the prox point it predicts from its last steps.
    Separable kernels ignore it.  ``grad_x`` is grad f(x) when the caller already has it.  x is
    not validated again here (``vbpg_run`` validates its x0 once).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grad_x is None:
        grad_x = problem.f.gradient(x)

    weights = K.diag_weights(problem.dim)
    point = x
    if weights is None:
        t, steps, certified = _accelerated_prox(problem, K, eps, x, grad_x,
                                                start)
        tied = False if x.ndim == 1 else None
    else:
        if x.shape == (1,) and not isinstance(weights, np.ndarray):
            x, grad_x = x[0], grad_x[0]  # the coordinate; t stays a scalar
        t, tied = problem.g.scaled_prox(x, grad_x, weights, eps)
        steps, certified = 0, True
    if tied is None:  # no row can tie
        tied = np.zeros(x.shape[:-1], dtype=bool)
    r = t - x
    return ProxResult(t if x is point else t.reshape(1), steps, tied,
                      problem.g.value(t), certified, r, K.hessian_times(r),
                      grad_x, eps)


def _accelerated_prox(problem: Problem, K: KernelSpec, eps: float, X: Array,
                      grad_X: Array, start: Array | None = None
                      ) -> tuple[Array, int, bool]:
    """Prox minimizers under a non-separable kernel over the last axis
    (one point, or each row of an (n, dim) stack), the steps taken until
    the last row stopped, and whether they are certified.

    The subproblem at x is phi(y) = <c, y> + y'Ay/(2 eps) + g(y) with
    c = grad f(x) - A x/eps, solved from x (or from ``start``, below) by
    accelerated proximal gradient (Beck & Teboulle, SIAM J. Imaging Sci.
    2009) with step s = eps/M and momentum (sqrt(kappa) - 1)/(sqrt(kappa)
    + 1), kappa = (M/eps)/mu, mu = m/eps - rho.  The residual r = (M/eps)(v - u+)
    of a step lies in the subdifferential of phi at its output y+, so
    ||y+ - y*|| <= ||r||/mu, and a row stops once that bound is at most
    1e-10 (1 + ||x||).  That stop holds from any start, so where mu > 0
    the loop starts from ``start`` when given (one gemv more), and a start
    nearer y* takes fewer steps to the same certified bound.  When
    mu <= 0 the loop runs without momentum and ignores ``start``, since
    the fixed point it reaches depends on where it starts; a row stops
    once its step is at most that tolerance, and nothing certifies the
    result.  At most 10,000 steps; ``ProxError`` beyond.
    The rows share eps and K, hence the step and the momentum: each step
    makes one ``g.prox`` call on the running rows and one gemv per row,
    and a row leaves the stack when it stops, so it keeps the bits of its
    one-point solve."""
    # v = B z - s c is the gradient step from the extrapolated point z and
    # u = B y - s c the one from the iterate y; v - u+ = s r
    B, prox, s = K.step_matrix, problem.g.prox, eps / K.M
    mu = K.m / eps - problem.g.semiconvex_rho
    certified = mu > 0
    beta = 0.0
    if certified:
        root = math.sqrt(K.M / eps / mu)
        beta = (root - 1.0) / (root + 1.0)
    tol = 1e-10 * (1.0 + row_norms(X))
    # squared stop on ||v - u+|| = s ||r|| <= s mu tol, or on the step
    stop = (s * mu * tol if certified else tol) ** 2
    S_c = s * grad_X - matvec_rows(K.A, X) / K.M
    Y = X
    if certified and start is not None:
        U = V = matvec_rows(B, start) - S_c
    else:
        U = V = X - s * grad_X  # B x - s c
    point = X.ndim == 1
    if not point:
        T, rows = np.empty_like(X), np.arange(len(X))
        if not len(X):  # no row would ever stop
            return T, 0, certified
    for it in range(1, _INNER_MAX + 1):
        Y_next = prox(V, 1.0, s)[0]
        U_next = (B @ Y_next if point else matvec_rows(B, Y_next)) - S_c
        R = V - U_next if certified else Y_next - Y
        if point:
            if R.dot(R) <= stop:
                return Y_next, it, certified
        elif (done := row_dots(R, R) <= stop).any():
            T[rows[done]] = Y_next[done]
            running = ~done
            rows = rows[running]
            if not rows.size:
                return T, it, certified
            Y_next, U_next, U, S_c, stop = (
                a[running] for a in (Y_next, U_next, U, S_c, stop))
        V = U_next + beta * (U_next - U)
        Y, U = Y_next, U_next
    raise ProxError(f"inner prox solve did not converge in {_INNER_MAX} iterations")


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
    """E(x), G(x), F at the prox point, the subdifferential distance and
    the prox residual for every row of an (n, dim) array X in one array
    pass, from one stacked ``prox_map``: E = f(x) + ``subproblem_value``,
    G = (g(x) - ``subproblem_value``)/eps and F(T x) = f(T x) +
    ``g_value``, each row with the bits of its one-point formula."""
    f, g = problem.f, problem.g
    f_X, grad = f.value_grad(X)
    prox = prox_map(problem, K, eps, X, grad)
    T, sub = prox.minimizer, prox.subproblem_value
    return PointAnnotation(
        envelope=f_X + sub, gap=(g.value(X) - sub) / eps,
        prox_F=f.value(T) + prox.g_value,
        dist_subdiff=row_norms(g.subdiff_parts(X, grad)),
        dist_prox=row_norms(prox.step), prox_point=T, grad=grad)


def subgradient_rows(eps: float, grad_X: Array, grad_T: Array,
                     grad_y_D: Array) -> Array:
    """Subgradient certificate at prox outputs T of X:

        xi = grad f(t) - grad f(x) - grad_y D(x, t) / eps

    over the last axis (one point, or each row of (n, dim) arrays), from
    gradients the caller already holds (``K.grad_y(X, T)``, or a prox's
    ``kernel_step``).  xi lies in the proximal subdifferential of F at t,
    with ||xi|| <= ``Constants.residual`` ||x - t||."""
    return grad_T - grad_X - grad_y_D / eps


def descent_slack_rows(C: Constants, X: Array, U: Array, T: Array,
                       F_T: Array, F_U: Array) -> Array:
    """Slack b||u-x||^2 - ||u-t||^2 - c||x-t||^2 - a[F(t) - F(u)] of the
    generalized descent inequality, (a, b, c) = ``C.descent``, for each
    row (x, u), with its prox point t and the values F(t), F(u):
    nonnegative up to roundoff when ``C.case_id`` matches the problem's
    convexity pattern and eps lies within [C.eps_lo, C.eps_hi], +inf where
    F(u) = +inf (u outside dom F makes the inequality vacuous)."""
    a, b, c = C.descent
    outside = np.isinf(F_U)
    F_U = np.where(outside, 0.0, F_U)
    slack = (b * row_dots(U - X, U - X) - row_dots(U - T, U - T)
             - c * row_dots(X - T, X - T) - a * (F_T - F_U))
    return np.where(outside, math.inf, slack)
