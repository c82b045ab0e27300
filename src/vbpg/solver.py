"""Outer proximal-gradient loop with per-iteration kernel and step-size
schedules, plus trace recording.

Each iteration solves the prox subproblem at the current point and steps
to its minimizer.  One run is strictly sequential; separate runs share no
mutable state.  The per-iteration decrease

    F(x^k) - F(x^{k+1}) >= a ||x^k - x^{k+1}||^2,   a = ``Constants.a``

is the workhorse invariant: it forces monotone values, square-summable
steps, and converts the final step norm into a subgradient residual
certificate via ||xi|| <= ``Constants.residual`` ||x^k - x^{k+1}||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (Array, Constants, KernelSpec, Problem, SolverConfig,
                   as_vector, fmt_float, row_norms, vector_norm)
from .bregman import prox_map, prox_points, subgradient_rows


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
    ``trace_every`` but always includes x^0 and the final point;
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
    final_x: Array | None = None

    @property
    def n_iters(self) -> int:
        return len(self.step_norms)

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
    """Iterate until the step norm falls below step_tol or max_iters.

    grad f, g and F at the current point are carried from one iteration
    to the next: g(x^{k+1}) comes from the prox's subproblem value, so an
    iteration costs one gradient, one f value and one g value (f and its
    gradient in one ``value_grad`` call).  x0 is validated once; the step
    t - x and its kernel product come from the prox result, which used
    them for the subproblem value.

    Raises ``FloatingPointError`` when F turns non-finite along the run
    (a sign of an inadmissible problem/config pairing)."""
    x = as_vector(x0, dim=problem.dim)
    step_tol = config.resolved_step_tol(x)
    trace = Trace()
    trace.iterates.append(x.copy())
    trace.iterate_indices.append(0)
    trace.final_x = x.copy()

    g_x = problem.g.value(x)
    f_x, grad_x = problem.f.value_grad(x)
    F_x = f_x + g_x
    if not math.isfinite(F_x):
        raise FloatingPointError("F(x0) is not finite")

    for k in range(config.max_iters):
        K = config.kernel_at(k)
        eps = config.eps_at(k)
        prox = prox_map(problem, K, eps, x, grad_x=grad_x)
        t = prox.minimizer
        step = vector_norm(prox.step)
        f_t, grad_t = problem.f.value_grad(t)
        xi = subgradient_rows(eps, grad_x, grad_t, prox.kernel_step)

        trace.f_values.append(F_x)
        trace.step_norms.append(step)
        trace.gaps.append((g_x - prox.subproblem_value) / eps)
        trace.residuals.append(vector_norm(xi))
        trace.eps_used.append(eps)
        trace.kernel_indices.append(k % len(config.kernels))
        trace.inner_iterations.append(prox.inner_iterations)
        trace.tied.append(prox.multivalued_flag)
        trace.inner_certified.append(prox.certified)

        x, grad_x, g_x = t, grad_t, prox.g_value
        F_x = f_t + g_x
        if not math.isfinite(F_x):
            raise FloatingPointError(f"F became non-finite at iteration {k + 1}")
        if (k + 1) % config.trace_every == 0:
            trace.iterates.append(x.copy())
            trace.iterate_indices.append(k + 1)

        if step == 0.0:
            trace.terminated_reason = "critical_point"
            break
        if step <= step_tol:
            trace.terminated_reason = "step_tol"
            break
    else:
        trace.terminated_reason = "max_iters"

    trace.f_values.append(F_x)
    trace.final_x = x.copy()
    if trace.iterate_indices[-1] != trace.n_iters:
        trace.iterates.append(x.copy())
        trace.iterate_indices.append(trace.n_iters)
    return trace


def vbpg_final_points(problem: Problem, config: SolverConfig, X0) -> Array:
    """``vbpg_run(problem, config, x0).final_x`` for each row x0 of X0.

    The runs form one multi-start under every kernel: each iteration makes
    one ``prox_points`` call over the rows still running and one
    ``f.value_grad`` call at their prox points, whose gradients feed the
    next prox and whose values, plus g, guard against a non-finite F.
    Each row stops on its own rule (step 0, step_tol from its own x0, or
    max_iters), so every row gets the bits of its own run.  Raises
    ``FloatingPointError`` when F turns non-finite on any row, and
    ``ProxError`` as ``vbpg_run`` does."""
    X = np.array(X0, dtype=float)
    if X.ndim != 2 or X.shape[1] != problem.dim:
        raise ValueError(f"expected rows of dimension {problem.dim}, "
                         f"got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("vector has non-finite entries")
    f_X, grad_X = problem.f.value_grad(X)
    if not np.isfinite(f_X + problem.g.value_batch(X)).all():
        raise FloatingPointError("F(x0) is not finite")
    step_tols = np.array([config.resolved_step_tol(x) for x in X])
    running = np.arange(len(X))
    for k in range(config.max_iters):
        if running.size == 0:
            break
        Xr = X[running]
        T = prox_points(problem, config.kernel_at(k), config.eps_at(k), Xr,
                        grad_X)
        step = row_norms(Xr - T)
        f_T, grad_T = problem.f.value_grad(T)
        if not np.isfinite(f_T + problem.g.value_batch(T)).all():
            raise FloatingPointError(f"F became non-finite at iteration {k + 1}")
        X[running] = T
        going = ~((step == 0.0) | (step <= step_tols[running]))
        running, grad_X = running[going], grad_T[going]
    return X


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
    therefore a single certified kernel.  For non-quadratic f the moduli
    (m, M) cannot be certified this way.
    """
    A = block_preconditioner(Q, block_sizes, c)
    if np.count_nonzero(A - np.diag(np.diagonal(A))) == 0:
        return KernelSpec.diagonal(np.diagonal(A))
    return KernelSpec.quadratic(A)


def summability_bound(problem: Problem, config: SolverConfig, x0: Array,
                      F_star: float) -> float:
    """(F(x0) - F*) / a with a = ``Constants.a``: certified upper bound
    on the sum of squared step norms; +inf when a <= 0, where the
    decrease inequality certifies no bound."""
    a = Constants.of(problem, config).a
    if a <= 0:
        return math.inf
    return (problem.F(as_vector(x0)) - F_star) / a
