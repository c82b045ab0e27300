"""Core domain types and validation for composite-objective solvers.

A problem is a pair F = f + g: a smooth term f (value, gradient,
gradient-Lipschitz constant L) plus a regularizer g (possibly nonsmooth,
nonconvex, extended-real valued).  Proximity between points is measured by
a kernel-induced distance

    D(x, y) = K(y) - K(x) - <grad K(x), y - x>

for a strongly convex kernel K.  A kernel is certified by a pair (m, M):
m is its strong-convexity modulus, M the Lipschitz modulus of its
gradient, so that (m/2)||x-y||^2 <= D(x, y) <= (M/2)||x-y||^2.

All types here are immutable after construction and their evaluations are
pure, so problems and kernels can be shared freely across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


def as_vector(x, dim: Optional[int] = None) -> Array:
    """Coerce to a finite 1-D float array, validating dimension if given."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        if v.ndim:
            raise ValueError(f"expected a vector, got shape {v.shape}")
        v = v.reshape(1)
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def vector_norm(v: Array) -> float:
    """Euclidean norm of a 1-D array: np.linalg.norm's value without its
    per-call overhead."""
    return math.sqrt(v.dot(v))


def row_dots(U: Array, V: Array) -> Array:
    """<u, v> over the last axis (one pair of vectors, or each row pair of
    two (n, dim) arrays) with the bits of ``u.dot(v)``: a stacked matmul
    makes the same BLAS dot call per row."""
    if U.ndim == 1:
        return U.dot(V)
    return np.matmul(U[..., None, :], V[..., :, None])[..., 0, 0]


def matvec_rows(M: Array, X: Array) -> Array:
    """M @ x over the last axis (one vector, or each row of an (n, dim)
    array) with the bits of ``M @ x``: a stacked matmul makes the same
    BLAS gemv per row, where X @ M.T rounds differently."""
    if X.ndim == 1:
        return M @ X
    return np.matmul(M, X[..., None])[..., 0]


def row_norms(R: Array) -> Array:
    """``vector_norm`` over the last axis, bit for bit."""
    return np.sqrt(row_dots(R, R))


def min_or_inf(a) -> float:
    """The minimum of an array, +inf when it is empty."""
    return float(np.min(a, initial=math.inf))


def grid_rows(axes) -> Array:
    """The tensor grid over ``axes``, one node per row, last axis fastest."""
    rows = np.empty([len(ax) for ax in axes] + [len(axes)],
                    dtype=np.result_type(*axes))
    for j, view in enumerate(np.ix_(*axes)):
        rows[..., j] = view
    return rows.reshape(-1, len(axes))


def fmt_float(v) -> str:
    """``v`` as the CSV artifacts write it: 17 digits round-trip a float64."""
    return f"{float(v):.17g}"


@dataclass(frozen=True, eq=False)
class SmoothObjective:
    """Smooth part f of a composite objective.

    ``lipschitz_L`` certifies ||grad f(x) - grad f(y)|| <= L ||x - y||;
    it is supplied analytically by the problem builders (largest singular
    value of the Hessian for quadratics, spectral bound for logistic
    losses).  ``value``, ``gradient`` and ``value_and_gradient`` work over
    the last axis: one point gives a Python float and a vector, and the
    rows of an (n, dim) array give n values and n gradients, each row with
    the bits of its one-point call, so grid oracles and multi-start runs
    stay vectorized.  ``value_and_gradient``, when set, returns both with
    the bits of ``value`` and ``gradient``, for objectives that share work
    between them.  ``value_columns``, when set, is f as one formula of the
    coordinate columns (Python floats, batch columns or broadcast grid
    axes) that ``value`` is a view of, so f takes a grid's values from its
    axes (``value_grid``).
    """

    value: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    lipschitz_L: float
    convex: bool
    value_and_gradient: Optional[Callable[[Array], tuple]] = None
    value_columns: Optional[Callable] = None

    def __post_init__(self):
        if self.lipschitz_L < 0:
            raise ValueError("lipschitz_L must be nonnegative")

    def value_grad(self, x: Array) -> tuple:
        if self.value_and_gradient is not None:
            return self.value_and_gradient(x)
        return self.value(x), self.gradient(x)

    def value_grid(self, axes) -> Array:
        """``value(grid_rows(axes))`` bit for bit; from the broadcast axes,
        without the rows, when f has ``value_columns``."""
        if self.value_columns is None:
            return self.value(grid_rows(axes))
        return self.value_columns(np.ix_(*axes)).ravel()


class Regularizer:
    """Base class for regularizers g.

    Concrete regularizers are coordinate-separable and implement three
    elementwise array methods, :meth:`values`, :meth:`prox` and
    :meth:`subdiff_parts`; every other method is a view of those.  Values
    may be +inf (indicator-type penalties); arithmetic with the +inf
    sentinel never produces NaN because the quadratic model added to g is
    always finite.

    Attributes
    ----------
    kind : str
        Short identifier ("l1", "mcp", ...).
    convex : bool
    semiconvex_rho : float
        Smallest rho >= 0 such that g + (rho/2)||.||^2 is convex; +inf if
        no such modulus is known.
    continuous : bool
        True if g is real valued and continuous on all of R^n.
    """

    kind: str = "abstract"
    convex: bool = False
    semiconvex_rho: float = math.inf
    continuous: bool = True

    def values(self, T: Array) -> Array:
        """g applied to every entry of T."""
        raise NotImplementedError

    def prox(self, v: Array, weights: Array, eps: float) -> tuple[Array, Array]:
        """Entrywise global minimizer of g(t) + (weights/(2 eps)) (t - v)^2
        for a 1-D ``v``; ``weights`` and ``eps`` broadcast against it.

        Returns ``(t, tied)``; ``tied`` flags the entries with a near-tie
        between distinct global minimizers (resolved toward smaller |t|).
        """
        raise NotImplementedError

    def subdiff_parts(self, t: Array, grad_f: Array) -> Array:
        """Entrywise dist(0, grad_f + subdiff g(t)); +inf outside dom g."""
        raise NotImplementedError

    def value(self, x: Array):
        """g over the last axis, each point's entries added left to right:
        at one point by ``sum`` (cheaper than np.sum on short x), on the
        rows of an (n, dim) array by ``cumsum`` (numpy's row sum is
        pairwise), so each row has the bits of its point."""
        v = self.values(x)
        if v.ndim == 1:
            return float(sum(v.tolist()))
        return v.cumsum(axis=-1)[..., -1]

    def value_grid(self, axes) -> Array:
        """``value(grid_rows(axes))`` bit for bit from one ``values`` call
        per axis: the broadcast axes add left to right from 0."""
        return sum(np.ix_(*[self.values(ax) for ax in axes])).ravel()

    def scaled_prox(self, anchor: Array, linear: Array, weights: Array,
                    eps: float):
        """Coordinatewise minimizer of <linear, y-anchor> + g(y) + sum_i
        weights_i (y_i - anchor_i)^2 / (2 eps) over the last axis, and its
        tie flag: one bool, or one per row of a stack (one ``prox`` call)."""
        v = anchor - eps * linear / weights
        if v.ndim == 1:
            t, tied = self.prox(v, weights, eps)
            return t, bool(np.count_nonzero(tied))
        if isinstance(weights, np.ndarray):  # one per coordinate
            weights = np.broadcast_to(weights, v.shape).ravel()
        t, tied = self.prox(v.ravel(), weights, eps)
        return t.reshape(v.shape), tied.reshape(v.shape).any(axis=-1)


@dataclass(frozen=True, eq=False)
class Problem:
    """A composite instance F = f + g in fixed dimension."""

    f: SmoothObjective
    g: Regularizer
    dim: int
    name: str = "problem"
    level_bounded: bool = True

    def F(self, x: Array):
        """F over the last axis: a Python float at one point, and one value
        per row of an (n, dim) array with the bits of its point.
        ``F_batch`` is a second name for it."""
        return self.f.value(x) + self.g.value(x)

    F_batch = F

    def F_grid(self, axes) -> Array:
        """``F(grid_rows(axes))`` bit for bit, with g evaluated once
        per axis (``Regularizer.value_grid``) instead of once per node, and
        f from the axes where it has a column formula
        (``SmoothObjective.value_grid``)."""
        return self.f.value_grid(axes) + self.g.value_grid(axes)


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Certified strongly convex kernel inducing the proximity D(x, y).

    kind is one of "euclidean" (D = ||x-y||^2 / 2), "diagonal" with
    positive weights d (D = sum d_i (x_i-y_i)^2 / 2), or "quadratic" with
    a symmetric positive-definite matrix A (D = (x-y)' A (x-y) / 2).
    The certified moduli satisfy m <= M and
    (m/2)||x-y||^2 <= D(x, y) <= (M/2)||x-y||^2.

    ``step_matrix`` is B = I - A/M for a quadratic kernel whose matrix is
    not diagonal, else None: a gradient step of length eps/M on the
    non-separable prox subproblem maps y to B y - (eps/M) c, so the inner
    solve makes one matvec per step.
    """

    kind: str
    d: Optional[Array] = None
    A: Optional[Array] = None
    m: float = field(init=False, default=1.0)
    M: float = field(init=False, default=1.0)
    step_matrix: Optional[Array] = field(init=False, default=None, repr=False)
    _weights: object = field(init=False, default=None, repr=False)

    def __post_init__(self):
        weights = step_matrix = None
        if self.kind == "euclidean":
            m = M = weights = 1.0
        elif self.kind == "diagonal":
            d = as_vector(self.d)
            if np.any(d <= 0):
                raise ValueError("diagonal kernel weights must be positive")
            object.__setattr__(self, "d", d)
            m, M = float(d.min()), float(d.max())
            weights = d.copy()
            weights.flags.writeable = False
        elif self.kind == "quadratic":
            A = np.asarray(self.A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("quadratic kernel needs a square matrix")
            if not np.allclose(A, A.T, atol=1e-12):
                raise ValueError("quadratic kernel matrix must be symmetric")
            eigs = np.linalg.eigvalsh(A)
            if eigs[0] <= 0:
                raise ValueError("quadratic kernel matrix must be positive definite")
            object.__setattr__(self, "A", A)
            m, M = float(eigs[0]), float(eigs[-1])
            if np.count_nonzero(A - np.diag(np.diagonal(A))) == 0:
                weights = np.diagonal(A)  # a read-only view
            else:
                step_matrix = np.eye(len(A)) - A / M
                step_matrix.flags.writeable = False
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "step_matrix", step_matrix)
        object.__setattr__(self, "_weights", weights)

    @staticmethod
    def euclidean() -> "KernelSpec":
        return KernelSpec(kind="euclidean")

    @staticmethod
    def diagonal(d) -> "KernelSpec":
        return KernelSpec(kind="diagonal", d=np.asarray(d, dtype=float))

    @staticmethod
    def quadratic(A) -> "KernelSpec":
        return KernelSpec(kind="quadratic", A=np.asarray(A, dtype=float))

    def hessian_times(self, r: Array) -> Array:
        """The kernel's (constant) Hessian applied to r over the last axis."""
        if self.kind == "euclidean":
            return r
        if self.kind == "diagonal":
            return self.d * r
        return matvec_rows(self.A, r)

    def grad_y(self, x: Array, y: Array) -> Array:
        """Gradient of D(x, .) at y, i.e. grad K(y) - grad K(x), over the
        last axis: for one pair of vectors, or for each row pair of
        (n, dim) arrays with the bits of the one-pair call."""
        return self.hessian_times(y - x)

    def distance(self, x: Array, y: Array) -> Array:
        """D(x, y) over the last axis, as ``grad_y``."""
        r = y - x
        return 0.5 * row_dots(self.hessian_times(r), r)

    def diag_weights(self, dim: int) -> Optional[Array]:
        """Per-coordinate weights if D is separable, else None.

        A quadratic kernel whose matrix is exactly diagonal is separable
        and qualifies for the coordinatewise prox fast path.  The answer is
        fixed at construction and read-only; for the euclidean kernel it is
        the scalar 1.0, which broadcasts over any dimension ``dim``.
        """
        return self._weights


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Step-size and kernel schedules plus stopping parameters.

    Schedules are given as tuples and repeat cyclically over iterations,
    so a single entry means a constant schedule.  The bounds
    0 < eps_lo <= eps^k <= eps_hi and the moduli m, M are taken over the
    whole cycle (``Constants.of``).
    """

    epsilons: tuple
    kernels: tuple
    max_iters: int = 500
    step_tol: Optional[float] = None
    trace_every: int = 1

    def __post_init__(self):
        if len(self.epsilons) == 0 or len(self.kernels) == 0:
            raise ValueError("schedules must be nonempty")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("step sizes must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")

    @staticmethod
    def constant(eps: float, kernel: KernelSpec, **kw) -> "SolverConfig":
        return SolverConfig(epsilons=(float(eps),), kernels=(kernel,), **kw)

    def eps_at(self, k: int) -> float:
        return self.epsilons[k % len(self.epsilons)]

    def kernel_at(self, k: int) -> KernelSpec:
        return self.kernels[k % len(self.kernels)]

    def resolved_step_tol(self, x0: Array) -> float:
        if self.step_tol is not None:
            return self.step_tol
        return 1e-10 * (1.0 + vector_norm(x0))


@dataclass(frozen=True)
class Constants:
    """The constants a (problem, config) pairing certifies its bounds in.

    L is f's gradient-Lipschitz constant, rho g's semiconvexity modulus,
    m <= M the kernel moduli and eps_lo <= eps_hi the step bounds, all
    over the whole schedule; ``case_id`` is the row of the descent table
    (1: neither f nor g convex, 2: f only, 3: g only, 4: both).  Every
    formula in these constants lives here:

        a         (m/eps_hi - L)/2     F(x) - F(T x) >= a ||x - T x||^2
        residual  L + M/eps_lo         ||xi|| <= residual ||x - T x||
        c0        3L/2 + M/(2 eps_lo)  E(x) - Fbar <= c0 dist^2(x, [F <= Fbar])
        margin    m - eps_hi rho       the semiconvex gap bounds' divisor
        descent   (a, b, c) of  a [F(t) - F(u)] <= b ||u-x||^2 - ||u-t||^2
                  - c ||x-t||^2  for every prox output t of x and every u
    """

    L: float
    rho: float
    m: float
    M: float
    eps_lo: float
    eps_hi: float
    case_id: int

    @staticmethod
    def of(problem: Problem, config: SolverConfig) -> "Constants":
        f, g = problem.f, problem.g
        case_id = (4 if f.convex and g.convex else 3 if g.convex
                   else 2 if f.convex else 1)
        return Constants(
            L=f.lipschitz_L, rho=g.semiconvex_rho,
            m=min(K.m for K in config.kernels),
            M=max(K.M for K in config.kernels),
            eps_lo=min(config.epsilons), eps_hi=max(config.epsilons),
            case_id=case_id)

    @property
    def a(self) -> float:
        return 0.5 * (self.m / self.eps_hi - self.L)

    @property
    def residual(self) -> float:
        return self.L + self.M / self.eps_lo

    @property
    def c0(self) -> float:
        return 1.5 * self.L + self.M / (2.0 * self.eps_lo)

    @property
    def margin(self) -> float:
        return self.m - self.eps_hi * self.rho

    @property
    def descent(self) -> tuple[float, float, float]:
        m, M, L = self.m, self.M, self.L
        eps_lo, eps_hi = self.eps_lo, self.eps_hi
        if self.case_id == 1:
            return 2.0, M / eps_lo + 2.0 + 3.0 * L, m / eps_hi - (L + 2.0)
        if self.case_id == 2:
            return 2.0, M / eps_lo + 2.0, m / eps_hi - (L + 2.0)
        if self.case_id == 3:
            return (2.0 * eps_hi / m, M / m + 3.0 * L * eps_hi / m,
                    1.0 - L * eps_hi / m)
        return 2.0 * eps_hi / m, M / m, 1.0 - L * eps_hi / m


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    checked: tuple


def validate_config(problem: Problem, config: SolverConfig) -> ValidationReport:
    """Report-only admissibility check of a (problem, config) pairing.

    Each clause is evaluated independently: the step-size cap against
    m/L (prox nonemptiness) and, when g carries a finite semiconvexity
    modulus rho > 0, the cap against m/rho (single-valued prox).
    """
    violations = []
    checked = []
    C = Constants.of(problem, config)
    m, L, rho, eps_hi = C.m, C.L, C.rho, C.eps_hi

    lim = m / L if L > 0 else math.inf
    checked.append("eps_max < m/L (prox nonemptiness)")
    if not eps_hi < lim:
        violations.append(f"eps_max < m/L violated ({eps_hi:g} >= {lim:g})")

    if math.isfinite(rho) and rho > 0:
        lim_rho = m / rho
        checked.append("eps_max < m/rho (single-valued prox for semiconvex g)")
        if not eps_hi < lim_rho:
            violations.append(
                f"eps_max < m/rho violated ({eps_hi:g} >= {lim_rho:g})")

    return ValidationReport(ok=not violations, violations=tuple(violations),
                            checked=tuple(checked))


def sample_ball(rng: np.random.Generator, n: int, center: Array,
                radius: float) -> Array:
    """n points uniform in the open ball B(center, radius)."""
    dim = center.size
    u = rng.standard_normal((n, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / dim)
    return center[None, :] + u * r[:, None]


def sample_box(rng: np.random.Generator, n: int, center: Array,
               halfwidth: float) -> Array:
    return center[None, :] + rng.uniform(-halfwidth, halfwidth,
                                         size=(n, center.size))
