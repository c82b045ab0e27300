"""Outer proximal-gradient loop with per-iteration kernel and step-size
schedules, plus trace recording.

Each iteration solves the prox subproblem at the current point and steps
to its minimizer.  The loop is written once, over the last axis
(``_iterate``): ``vbpg_run`` steps one point and records a ``Trace``,
and ``vbpg_final_points`` steps a multi-start as one stack with no
trace, each row with the bits of its own run.  The per-iteration decrease

    F(x^k) - F(x^{k+1}) >= a ||x^k - x^{k+1}||^2,   a = ``Constants.a``

is the workhorse invariant: it forces monotone values, square-summable
steps, and converts the final step norm into a subgradient residual
certificate via ||xi|| <= ``Constants.residual`` ||x^k - x^{k+1}||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .core import (Array, Constants, KernelSpec, Problem, SolverConfig,
                   as_vector, fmt_float, row_dots, row_norms)
from .bregman import prox_map, subgradient_rows


@dataclass
class Trace:
    """Per-iteration record of a solver run.

    Row k holds F(x^k), the step norm ||x^k - x^{k+1}||, the gap G(x^k),
    the residual ||xi^k|| certified at x^{k+1}, and what the iteration
    used: the step size eps^k, the index of its kernel in the schedule,
    the prox's inner iterations (0 on the coordinatewise path), its tie
    flag and whether its minimizer is certified (``ProxResult.certified``;
    not written to ``trace.csv``).  ``f_values`` has one extra trailing
    entry, F at the final accepted iterate.  ``iterates`` is thinned by
    ``trace_every`` but always includes x^0 and the final point, ``final_x``;
    ``iterate_indices`` maps entries back to iteration numbers.
    """

    f_values: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    gaps: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    iterates: list = field(default_factory=list)
    iterate_indices: list = field(default_factory=list)
    eps_used: list = field(default_factory=list)
    kernel_indices: list = field(default_factory=list)
    inner_iterations: list = field(default_factory=list)
    tied: list = field(default_factory=list)
    inner_certified: list = field(default_factory=list)
    terminated_reason: str = "max_iters"

    @property
    def n_iters(self) -> int:
        return len(self.step_norms)

    @property
    def final_x(self) -> Array:
        return self.iterates[-1]

    @property
    def final_F(self) -> float:
        return self.f_values[-1]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else math.nan

    def csv_lines(self) -> list:
        rows = zip(self.f_values, self.step_norms, self.gaps, self.residuals,
                   self.eps_used, self.kernel_indices, self.inner_iterations,
                   self.tied)  # f_values' trailing entry has no row
        return ["iter,F,step_norm,gap,residual,eps,kernel,inner_iters,tied"] + [
            ",".join([str(k)] + [fmt_float(v) for v in row[:5]]
                     + [str(row[5]), str(row[6]), str(int(row[7]))])
            for k, row in enumerate(rows)]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(self.csv_lines()) + "\n")


def vbpg_run(problem: Problem, config: SolverConfig, x0: Array) -> Trace:
    """Iterate from x0 until the step norm falls below step_tol or
    max_iters, recording every iteration in a ``Trace``: ``_iterate`` on
    x0 as one 1-D point, validated once.  Raises ``FloatingPointError``
    when F turns non-finite (a sign of an inadmissible pairing)."""
    x = as_vector(x0, dim=problem.dim)
    trace = Trace(iterates=[x.copy()], iterate_indices=[0])
    _iterate(problem, config, x, trace)
    return trace


def vbpg_final_points(problem: Problem, config: SolverConfig, X0) -> Array:
    """``vbpg_run(problem, config, x0).final_x`` for each row x0 of X0:
    ``_iterate`` on the rows as one multi-start, with no trace, so no
    subproblem value is computed.  Raises as ``vbpg_run`` does."""
    X = np.array(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != problem.dim:
        raise ValueError(f"expected rows of dimension {problem.dim}, "
                         f"got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("vector has non-finite entries")
    return _iterate(problem, config, X)


def _iterate(problem: Problem, config: SolverConfig, X: Array,
             trace: Trace | None = None) -> Array:
    """The VBPG loop over the last axis, from one point X into ``trace``
    or from each row of an (n, dim) stack X; returns the final point, or
    X holding each row's final point.

    Iteration k steps x to its prox point t under the k-th entries of the
    cyclic schedules.  A run stops once ||x - t|| is 0 or at most its own
    step_tol, or after max_iters; a row leaves the stack when it stops,
    so it keeps the bits of its own run.  grad f(t) and g(t) are carried
    to the next iteration, so each costs one prox and one ``value_grad``
    call.  F must be finite at x0 and at each t, else
    ``FloatingPointError``.  Only the trace reads the subproblem value.

    When the schedule has a non-separable kernel (decided once per run),
    iteration k >= 1 hands ``prox_map`` a start predicted from the prox
    steps d_j = t^j - x^j already at hand (``_predicted_start``): x^k at
    k = 1, then x^k plus a capped least-squares fit of the next step from
    the last two.  Its inner loop uses the start only where mu = m/eps -
    rho > 0, and its certified bound on the distance to the minimizer
    holds from any start, so only the inner step count depends on it.  A
    stack filters each row's step history with the rows."""
    warm = any(K.diag_weights(problem.dim) is None for K in config.kernels)
    start = None  # the next prox's start
    if warm:  # d_{k-1} and d_{k-2}: no step before the first
        D1 = D2 = np.zeros_like(X)
    f_X, grad_X = problem.f.value_grad(X)
    g_X = problem.g.value(X)
    F_X = f_X + g_X
    if trace is None:
        finite = lambda F: np.isfinite(F).all()
        tol = np.array([config.resolved_step_tol(x) for x in X])
        final, rows = X, np.arange(len(X))
    else:
        finite, tol = math.isfinite, config.resolved_step_tol(X)
        trace.f_values.append(F_X)
    if not finite(F_X):
        raise FloatingPointError("F(x0) is not finite")
    for k, eps, (j, K) in zip(range(config.max_iters), cycle(config.epsilons),
                              cycle(enumerate(config.kernels))):
        if not X.size:  # every row of the stack has stopped
            break
        prox = prox_map(problem, K, eps, X, grad_X, start)
        T, step = prox.minimizer, row_norms(prox.step)
        f_T, grad_T = problem.f.value_grad(T)
        F_T = f_T + prox.g_value
        if not finite(F_T):
            raise FloatingPointError(f"F became non-finite at iteration {k + 1}")
        stop = (step == 0.0) | (step <= tol)
        if trace is None:
            final[rows] = T
            going = ~stop
            rows, tol, X, grad_X = (a[going] for a in (rows, tol, T, grad_T))
            if warm:
                D0, D1, D2, step = (a[going]
                                    for a in (prox.step, D1, D2, step))
                start, D1, D2 = _predicted_start(X, D0, D1, D2, step), D0, D1
            continue
        # a one-entry point's prox ran on its coordinate: so does xi
        grad_t = grad_T if prox.step.ndim else grad_T[0]
        xi = subgradient_rows(eps, prox.grad_x, grad_t, prox.kernel_step)
        trace.f_values.append(F_T)
        trace.step_norms.append(step)
        trace.gaps.append((g_X - prox.subproblem_value) / eps)
        trace.residuals.append(row_norms(xi))
        trace.eps_used.append(eps)
        trace.kernel_indices.append(j)
        trace.inner_iterations.append(prox.inner_iterations)
        trace.tied.append(prox.multivalued_flag)
        trace.inner_certified.append(prox.certified)
        X, grad_X, g_X = T, grad_T, prox.g_value
        last = stop or k + 1 == config.max_iters
        if last or (k + 1) % config.trace_every == 0:
            trace.iterates.append(X.copy())
            trace.iterate_indices.append(k + 1)
        if stop:
            trace.terminated_reason = ("critical_point" if step == 0.0
                                       else "step_tol")
            break
        if warm:
            D0 = prox.step
            start, D1, D2 = _predicted_start(X, D0, D1, D2, step), D0, D1
    return final if trace is None else X


def _predicted_start(T: Array, D0: Array, D1: Array, D2: Array,
                     s0) -> Array:
    """T + p, p the next prox step predicted from the last three, d_k =
    D0 (its norm s0 > 0), d_{k-1} = D1 and d_{k-2} = D2, over the last
    axis: one point, or each row of (n, dim) arrays with the bits of its
    own point.

    a and b minimize ||a d_{k-1} + b d_{k-2} - d_k|| (five ``row_dots``
    and a 2 x 2 Cramer solve), and p = a d_k + b d_{k-1}.  Where the Gram
    determinant is at most 1e-10 ||d_{k-1}||^2 ||d_{k-2}||^2 (parallel
    or zero past steps) the one-term fit p = c d_k, c = <d_k, d_{k-1}> /
    ||d_{k-1}||^2, stands in, and c = 0 where d_{k-1} = 0 (no past step,
    so the start is T).  p is capped at ||d_k||: the start is never
    farther from T than T is from the last iterate.  Near a solution the
    steps follow a fixed linear map, which the fit recovers (vector
    extrapolation; Sidi, SIAM 2017)."""
    g11, g22, g12 = row_dots(D1, D1), row_dots(D2, D2), row_dots(D1, D2)
    r1, r2 = row_dots(D0, D1), row_dots(D0, D2)
    det = g11 * g22 - g12 * g12
    two = det > 1e-10 * g11 * g22
    den = _where(two, det, g11)
    den = _where(den > 0.0, den, 1.0)  # d_{k-1} = 0 gives r1 = 0
    a = _where(two, r1 * g22 - r2 * g12, r1) / den
    b = _where(two, g11 * r2 - g12 * r1, 0.0) / den
    P = a[..., None] * D0 + b[..., None] * D1
    norm = row_norms(P)
    return T + (s0 / _where(norm > s0, norm, s0))[..., None] * P


def _where(mask, x, y):
    """``np.where(mask, x, y)`` on the rows of a stack; at a point, where
    ``mask`` is one bool, the chosen value as a numpy scalar, without
    np.where's dispatch on 0-d operands (about ten times the cost)."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, x, y)
    return np.float64(x if mask else y)


def block_preconditioner(Q: Array, block_sizes, c) -> Array:
    """blockdiag(Q) + diag(c): Hessian of the block-decoupled model."""
    Q = np.asarray(Q, dtype=float)
    dim = Q.shape[0]
    if sum(block_sizes) != dim:
        raise ValueError("block sizes must partition the dimension")
    c = np.asarray(c, dtype=float)
    if c.size == len(block_sizes):
        # one damping weight per block
        c = np.concatenate([np.full(s, ci) for s, ci in zip(block_sizes, c)])
    A = np.zeros_like(Q)
    off = 0
    for s in block_sizes:
        A[off:off + s, off:off + s] = Q[off:off + s, off:off + s]
        off += s
    return A + np.diag(c)


def kernel_schedule_jacobi(Q: Array, block_sizes, c) -> KernelSpec:
    """Kernel realizing a regularized block-Jacobi update of a quadratic f
    with Hessian Q.

    The decoupled model sum_i f(x_1^k, ..., x_i, ..., x_N^k)
    + (c_i/2)||x_i - x_i^k||^2 is quadratic in x when f is quadratic, and
    a quadratic kernel's induced distance depends only on its Hessian:
    blockdiag(Q) + diag(c), a constant matrix.  The resulting schedule is
    therefore a single certified kernel; with blocks of size 1 its matrix
    is diagonal, which ``KernelSpec`` finds separable.  For non-quadratic
    f the moduli (m, M) cannot be certified this way.
    """
    return KernelSpec.quadratic(block_preconditioner(Q, block_sizes, c))


def summability_bound(problem: Problem, config: SolverConfig, x0: Array,
                      F_star: float) -> float:
    """(F(x0) - F*) / a with a = ``Constants.a``: certified upper bound
    on the sum of squared step norms of a run from x0 that ends at or
    above F*, such as its own final value F(x^N), where the decrease
    telescopes, so no estimate of inf F is needed; +inf without
    ``Constants.l_clause``, where the decrease certifies no bound."""
    C = Constants.of(problem, config)
    if not C.l_clause:
        return math.inf
    return (problem.F(as_vector(x0)) - F_star) / C.a
