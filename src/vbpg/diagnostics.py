"""Empirical verification of level-set error bounds, exponent fitting,
rate certification, and the implication relationships connecting them.

The test domain of every bound is a level slice

    B(xbar; eta, nu) = { x : ||x - xbar|| < eta, Fbar < F(x) < Fbar + nu }

around a reference point xbar with Fbar = F(xbar).  Probes sample the
slice and annotate each point with the distances entering the bounds:

    dist_level    dist(x, [F <= Fbar])       (batched grid + bisection oracle)
    dist_subdiff  dist(0, subdiff F(x))      (analytic, coordinatewise)
    dist_prox     dist(x, T(x))              (prox residual)
    dist_crit     dist(x, critical set)      (desk-scale approximation)

Exponent fits are two stage: ordinary least squares on the log-log cloud
for the exponent, then a max-ratio envelope for the constant, because the
bounds are one-sided inequalities with an existential constant, not
regressions.  Violations are counted on a held-out half ordered by the
bound's target quantity (the sublevel distance, the value gap, or the
critical-set distance): constants are calibrated on the far half and
checked on the near half, because the defining inequalities are
statements about behavior as x approaches the target set — a genuine
failure shows up as envelope ratios collapsing there, while a bound that
merely has direction-dependent constants does not.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (Array, Constants, KernelSpec, Problem, SolverConfig,
                   as_vector, fmt_float, grid_rows, min_or_inf, row_dots,
                   row_norms, sample_ball)
from .bregman import annotate_points, prox_map
from .solver import Trace, vbpg_final_points, vbpg_run

# violation margin for one-sided inequality checks: wide enough to absorb
# solver/projection-oracle noise on exactly-tight ratios, far below any
# genuine failure (those are off by orders of magnitude)
_REL_TOL = 1e-6

# the reasons of the records gated on a step-size clause of ``Constants``
_NEEDS_L, _NEEDS_RHO = "needs eps_max < m/L", "needs eps_max < m/rho"


class SliceEmptyError(RuntimeError):
    """The probe could not be built: its slice, its sublevel set in the
    search box or its critical set came up empty."""


class DegenerateSampleError(ValueError):
    """All left-hand quantities vanished; no exponent is identifiable."""


# ---------------------------------------------------------------------------
# level slices and probe samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSlice:
    center: Array
    radius_eta: float
    value_band_nu: float
    F_bar: float


def make_slice(problem: Problem, center, eta: float, nu: float) -> LevelSlice:
    c = as_vector(center, dim=problem.dim)
    return LevelSlice(center=c, radius_eta=float(eta), value_band_nu=float(nu),
                      F_bar=problem.F(c))


@dataclass(frozen=True, eq=False)
class ProbeSamples:
    """Slice points as a column table: row i of ``x`` (n, dim) and entry i
    of every other column describe one sample, with every distance a
    level-set bound consumes.

    ``gap_value``, ``envelope_value`` and ``prox_F`` (G(x), E(x), F(T(x)))
    are carried along because the value-proximity and gap-condition
    checks need them; the CSV serialization keeps only the documented
    columns.  ``property_A`` is boolean."""

    x: Array
    dist_level: Array
    dist_subdiff: Array
    value_gap: Array
    dist_prox: Array
    dist_crit: Array
    property_A: Array
    gap_value: Array
    envelope_value: Array
    prox_F: Array

    def __len__(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# sublevel projection oracle
# ---------------------------------------------------------------------------

_DEFAULT_RESOLUTION = {1: 1e-4, 2: 5e-3, 3: 0.05}
_DIM_ERROR = "projection oracle requires dimension <= 3"

# nodes a probe's sublevel grid may hold, about 6.5x the default 2-D grid:
# it bounds the in-set mask, one bool per node; F itself runs only on the
# cells whose lower bounds reach F_bar
PROBE_GRID_BUDGET = 1 << 22

# queries x candidates in one block of the nearest-candidate search; bounds
# its temporaries at 2 MB each
_PROJECT_CHUNK_ELEMS = 1 << 18

# nodes per slab of the first axis when F is evaluated over a grid: keeps
# the temporaries in cache and memory bounded by the slab, not the grid
_SLAB_NODES = 1 << 16

# nodes per axis of a cell of the sublevel grid's lower bounds on F
_CELL_NODES = 16


def _sq_dists(P, X) -> Array:
    """sum_j (P_j - X_j)^2 from coordinate columns that broadcast together,
    added left to right: the bits of ``np.sum((P - X) ** 2, axis=-1)``
    over a last axis of length <= 3."""
    total = None
    for p, x in zip(P, X):
        sq = p - x
        sq *= sq
        if total is None:
            total = sq
        else:
            total += sq
    return total


class SublevelGrid:
    """Dense-grid projection oracle onto sublevel sets, dimension <= 3.

    Projection of x onto [F <= Fbar]: the nearest point of the set among
    the grid nodes and the seeded center (so a singleton sublevel set at
    a minimizer center is handled exactly), refined by a 60-step
    bisection along the segment from x, which pins the point where F
    crosses Fbar.  The result lies in the set, so the distance never
    undershoots the true one; it bisects toward the nearest in-set node,
    not the nearest boundary point, so it can exceed the true distance by
    up to one cell diagonal sqrt(d) h.

    The nearest in-set point is searched among few candidates: the in-set
    nodes with an axis neighbour outside the set or off the box, and the
    center and each query's own nearest node, each when it is in the set.
    That is exact: if the nearest in-set node p has every axis neighbour
    in the set, x lies within h/2 of p on every axis (a neighbour would be
    nearer otherwise), so p is x's own nearest node.  The in-set mask (one
    bool per node, then the center) and the candidates are computed once
    per Fbar and cached.  Squared distances add their coordinate columns
    left to right.

    No F value is stored: per Fbar, F_grid (F_batch's bits on the nodes'
    rows) runs in slabs on the smallest box of cells of _CELL_NODES nodes
    per axis that holds every cell whose ``Problem.F_cell_bounds`` reaches
    Fbar; every other node has F > Fbar, so the mask is the dense one.
    The center's test reads ``center_F = F(center)``, the F_bar of a slice
    centered there, so the seed is in the set at that level.  Node
    coordinates come from the axes when needed; ``points``, all of them as
    rows, is built on first use only.
    """

    def __init__(self, problem: Problem, center, halfwidth: float,
                 resolution: Optional[float] = None):
        if problem.dim > 3:
            raise ValueError(_DIM_ERROR)
        self.problem = problem
        self.resolution = resolution or _DEFAULT_RESOLUTION[problem.dim]
        self.center = as_vector(center, dim=problem.dim)
        n = grid_axis_nodes(halfwidth, self.resolution)
        self.axes = [np.linspace(ci - halfwidth, ci + halfwidth, n)
                     for ci in self.center]
        self.shape = (n,) * problem.dim
        self.center_F = problem.F(self.center)
        self._level = None  # (F_bar, in-set mask, candidate indices)

    @functools.cached_property
    def points(self) -> Array:
        """Every point as a row: the nodes, then the center."""
        return np.vstack([grid_rows(self.axes), self.center])

    def _columns(self, idx: Array) -> list:
        """Coordinate columns of the points at flat indices ``idx``."""
        n_grid = math.prod(self.shape)
        node = np.unravel_index(np.minimum(idx, n_grid - 1), self.shape)
        at_center = idx == n_grid
        return [np.where(at_center, c, ax[i])
                for ax, i, c in zip(self.axes, node, self.center)]

    def _level_set(self, F_bar: float) -> tuple[Array, Array]:
        """In-set mask over the points and the shared search candidates
        (boundary nodes and the in-set center, in point order) at F_bar."""
        if self._level is None or self._level[0] != F_bar:
            n, n_grid = self.shape[0], math.prod(self.shape)
            inside = np.zeros(n_grid + 1, dtype=bool)
            inside[n_grid] = self.center_F <= F_bar
            starts = np.arange(0, n, _CELL_NODES)
            ends = np.append(starts[1:], n) - 1
            reach = (self.problem.F_cell_bounds(self.axes, starts) <= F_bar
                     ).reshape((len(starts),) * len(self.axes))
            # the reaching cells' box, a view: F <= F_bar on it lands in
            # ``inside``; every node off it is out of the set, as off the grid
            box = tuple(slice(starts[i].min(initial=n),
                              ends[i].max(initial=-1) + 1)
                        for i in np.nonzero(reach))
            on_box = inside[:n_grid].reshape(self.shape)[box]
            sub = [ax[s] for ax, s in zip(self.axes, box)]
            step = max(1, _SLAB_NODES // (math.prod(on_box.shape[1:]) or 1))
            for lo in range(0, len(on_box), step):
                on_box[lo:lo + step] = (self.problem.F_grid(
                    [sub[0][lo:lo + step], *sub[1:]]) <= F_bar).reshape(
                        (-1,) + on_box.shape[1:])
            padded = np.pad(on_box, 1, constant_values=False)
            interior = on_box.copy()
            for axis in range(on_box.ndim):
                for side in (slice(None, -2), slice(2, None)):
                    window = [slice(1, -1)] * on_box.ndim
                    window[axis] = side
                    interior &= padded[tuple(window)]
            edge = np.unravel_index(np.flatnonzero(on_box & ~interior),
                                    on_box.shape)
            cand = np.concatenate([
                np.ravel_multi_index([i + s.start for i, s in zip(edge, box)],
                                     self.shape),
                n_grid + np.flatnonzero(inside[n_grid:])])
            self._level = (F_bar, inside, cand)
        return self._level[1], self._level[2]

    def _own_nodes(self, X: Array) -> Array:
        """Flat index of the grid node nearest to each row of X."""
        idx = []
        for ax, col in zip(self.axes, X.T):
            right = np.clip(np.searchsorted(ax, col), 0, len(ax) - 1)
            left = np.maximum(right - 1, 0)
            idx.append(np.where(col - ax[left] <= ax[right] - col, left, right))
        return np.ravel_multi_index(tuple(idx), self.shape)

    def _nearest_in_set(self, X: Array, inside: Array, cand: Array) -> Array:
        """Index of the nearest in-set point to each row of X; ties go to
        the lower index, as one argmin over all points."""
        C = [col[None, :] for col in self._columns(cand)]
        rows = max(1, _PROJECT_CHUNK_ELEMS // cand.size)
        best = np.empty(len(X), dtype=np.intp)
        for s in range(0, len(X), rows):
            sq = _sq_dists(C, [col[:, None] for col in X[s:s + rows].T])
            best[s:s + rows] = cand[np.argmin(sq, axis=1)]
        own = self._own_nodes(X)
        own_sq = _sq_dists(self._columns(own), X.T)
        best_sq = _sq_dists(self._columns(best), X.T)
        take = inside[own] & ((own_sq < best_sq)
                              | ((own_sq == best_sq) & (own < best)))
        return np.where(take, own, best)

    def project_many(self, F_bar: float, X,
                     boundary_check: bool = True) -> tuple[Array, Array]:
        """Distances to [F <= F_bar] and projections of the rows of X.

        Rows already in the set get distance 0 and themselves.  Raises
        SliceEmptyError when some row lies outside and the search box holds
        no point of the set; with ``boundary_check`` on continuous F,
        RuntimeError when a projection misses F = F_bar by more than 1e-6."""
        dim = self.problem.dim
        X = np.array(X, dtype=float).reshape(-1, dim)
        dists, P = np.zeros(len(X)), X.copy()
        out = np.flatnonzero(~(self.problem.F_batch(X) <= F_bar))
        if out.size == 0:
            return dists, P
        inside, cand = self._level_set(F_bar)
        if cand.size == 0:
            raise SliceEmptyError("sublevel set empty in the search box")
        Xo = X[out]
        nearest = self._nearest_in_set(Xo, inside, cand)
        direction = np.column_stack(self._columns(nearest)) - Xo
        # bisection on the predicate F <= Fbar along [x, target], all rows
        lo_t, hi_t = np.zeros(len(Xo)), np.ones(len(Xo))
        for _ in range(60):
            mid = 0.5 * (lo_t + hi_t)
            ok = self.problem.F_batch(Xo + mid[:, None] * direction) <= F_bar
            hi_t = np.where(ok, mid, hi_t)
            lo_t = np.where(ok, lo_t, mid)
        proj = Xo + hi_t[:, None] * direction
        if boundary_check and self.problem.g.continuous:
            miss = np.abs(self.problem.F_batch(proj) - F_bar)
            if np.any(miss > 1e-6 * (1.0 + abs(F_bar))):
                raise RuntimeError("projection boundary check failed: "
                                   "F(projection) != F_bar within 1e-6")
        dists[out] = np.linalg.norm(Xo - proj, axis=1)
        P[out] = proj
        return dists, P

    def project(self, F_bar: float, x: Array,
                boundary_check: bool = True) -> tuple[float, Array]:
        """One-row view of ``project_many``."""
        d, P = self.project_many(F_bar, as_vector(x, dim=self.problem.dim),
                                 boundary_check)
        return float(d[0]), P[0]


def grid_axis_nodes(halfwidth: float, resolution: float) -> int:
    """Nodes per axis of a grid over [c - halfwidth, c + halfwidth]."""
    return int(round(2 * halfwidth / resolution)) + 1


# ---------------------------------------------------------------------------
# critical-set approximation
# ---------------------------------------------------------------------------

def critical_points(problem: Problem, K: KernelSpec, eps: float, center,
                    halfwidth: float) -> Array:
    """Prox fixed points found by grid-seeded runs, dimension <= 3.

    The seeds, 5 per axis, with finite F run as one multi-start
    (``vbpg_final_points``, at most 3,000 iterations); each final point
    is validated by ||x - T(x)|| <= 1e-8 and the list, in seed order, is
    deduplicated at 1e-6.  Raises SliceEmptyError when no point passes."""
    c = as_vector(center, dim=problem.dim)
    seeds = grid_rows([np.linspace(ci - halfwidth, ci + halfwidth, 5)
                       for ci in c])
    seeds = seeds[np.isfinite(problem.F_batch(seeds))]
    config = SolverConfig.constant(eps, K, max_iters=3000, step_tol=1e-12)
    final = vbpg_final_points(problem, config, seeds)
    res = row_norms(prox_map(problem, K, eps, final).step)
    found = []
    for xf in final[res <= 1e-8]:
        if not any(np.linalg.norm(xf - p) <= 1e-6 for p in found):
            found.append(xf)
    if not found:
        raise SliceEmptyError("critical set approximation came up empty")
    return np.array(found)


def nearest_in_set(X: Array, points: Array) -> tuple[Array, Array]:
    """Index of the nearest of ``points`` to each row of X (the first on
    ties) and its distance."""
    D = np.linalg.norm(points[None, :, :] - X[:, None, :], axis=2)
    j = np.argmin(D, axis=1)
    return j, D[np.arange(len(X)), j]


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------

_DRAW_CHUNK = 1024  # fixed so the random stream is batch-layout independent
_MAX_DRAWS = 10 ** 6


def probe_slice(problem: Problem, K: KernelSpec, eps: float,
                slice_: LevelSlice, n: int, seed: int, grid: SublevelGrid,
                crit_points: Array) -> ProbeSamples:
    """n points uniform in the slice, fully annotated: the first n draws
    that land in the slice, in draw order.

    Samples failing Property (A) (F at the prox point dropping below
    Fbar) are flagged, not discarded.  Raises SliceEmptyError when the
    budget of 10^6 draws is exhausted before n acceptances.  The accepted
    points are projected onto [F <= Fbar] in one batched oracle call and
    annotated in one array pass (``annotate_points``)."""
    rng = np.random.default_rng(seed)
    X_parts, F_parts = [np.empty((0, problem.dim))], [np.empty(0)]
    got = drawn = 0
    while got < n:
        if drawn >= _MAX_DRAWS:
            raise SliceEmptyError(
                f"slice produced {got}/{n} samples after {drawn} draws")
        m = min(_DRAW_CHUNK, _MAX_DRAWS - drawn)
        X = sample_ball(rng, m, slice_.center, slice_.radius_eta)
        drawn += m
        FX = problem.F_batch(X)
        ok = (FX > slice_.F_bar) & (FX < slice_.F_bar + slice_.value_band_nu)
        X_parts.append(X[ok][:n - got])
        F_parts.append(FX[ok][:n - got])
        got += len(X_parts[-1])

    X = np.concatenate(X_parts)
    d_level, _ = grid.project_many(slice_.F_bar, X)
    a = annotate_points(problem, K, eps, X)
    _, d_crit = nearest_in_set(X, crit_points)
    return ProbeSamples(
        x=X, dist_level=d_level, dist_subdiff=a.dist_subdiff,
        value_gap=np.concatenate(F_parts) - slice_.F_bar,
        dist_prox=a.dist_prox, dist_crit=d_crit,
        property_A=a.prox_F >= slice_.F_bar - 1e-12 * (1.0 + abs(slice_.F_bar)),
        gap_value=a.gap, envelope_value=a.envelope, prox_F=a.prox_F)


def samples_to_csv_lines(samples: ProbeSamples) -> list:
    cols = ["dist_level", "dist_subdiff", "value_gap", "dist_prox", "dist_crit"]
    header = [f"x{i}" for i in range(samples.x.shape[1])] + cols
    table = np.column_stack([samples.x] + [getattr(samples, c) for c in cols])
    flags = np.where(samples.property_A, "1", "0").tolist()
    return [",".join(header + ["property_A"])] + [
        ",".join([fmt_float(v) for v in row] + [flag])
        for row, flag in zip(table.tolist(), flags)]


# ---------------------------------------------------------------------------
# exponent fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EBFit:
    bound_kind: str
    exponent: float
    constant: float
    r_squared: float
    n_samples: int
    violated_fraction: float

    def to_dict(self) -> dict:
        return {"bound_kind": self.bound_kind, "exponent": self.exponent,
                "constant": self.constant, "r_squared": self.r_squared,
                "n_samples": self.n_samples,
                "violated_fraction": self.violated_fraction}


# each bound reads "residual >= C * target^e": the (target, residual) columns
_BOUND_PAIRS = {
    "level_subdiff": ("dist_level", "dist_subdiff"),
    "level_bregman": ("dist_level", "dist_prox"),
    "kl": ("value_gap", "dist_subdiff"),
    "sharpness": ("dist_level", "value_gap"),
    "gap_condition": ("value_gap", "gap_value"),
    "weak_subreg": ("dist_crit", "dist_subdiff"),
    "luo_tseng": ("dist_crit", "dist_prox"),
}


def _ols_loglog(a: Array, b: Array) -> tuple[float, float]:
    """Slope and r^2 of log b against log a.

    A flat response (log-spread of b below 1e-6) makes the exponent
    unidentifiable: any exponent admits an envelope constant.  The
    canonical linear exponent 1 is reported with r^2 = 0."""
    la, lb = np.log(a), np.log(b)
    if lb.max() - lb.min() < 1e-6:
        return 1.0, 0.0
    var_a = float(np.var(la))
    if var_a == 0.0:
        return 1.0, 0.0
    slope = float(np.cov(la, lb, bias=True)[0, 1] / var_a)
    resid = lb - (lb.mean() + slope * (la - la.mean()))
    ss_tot = float(np.sum((lb - lb.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def _split_by_target(a: Array):
    """Calibration indices (the far half from the target set) and
    validation indices (the near half), ordered by the target quantity a."""
    order = np.argsort(-a, kind="stable")
    n_val = max(1, len(order) // 2)
    return order[:len(order) - n_val], order[len(order) - n_val:]


def fit_error_bound(samples: ProbeSamples, bound_kind: str) -> EBFit:
    """Two-stage fit of one level-set bound.

    Exponent by log-log least squares over samples with both quantities
    strictly positive; constant as the envelope over the calibration half
    far from the target set (so it yields zero violations there by
    construction); violated_fraction counted on the held-out near half.
    The reported (exponent, constant) are in the bound's native
    orientation:

        level_subdiff   d^gamma <= c3 r         gamma = slope, c3 = 1/C
        level_bregman   d^p     <= theta r      p = slope, theta = 1/C
        kl              r >= c1 gap^alpha       alpha = slope, c1 = C
        sharpness       d <= c2 gap^beta        beta = 1/slope, c2 = C^-beta
        gap_condition   G >= mu gap^q           q = slope, mu = C
        weak_subreg     r >= c5 d_crit          c5 = C
        luo_tseng       d_crit <= c6 r          c6 = 1/C

    where C is the fitted lower-envelope constant of residual >= C target^e.
    """
    if bound_kind not in _BOUND_PAIRS:
        raise ValueError(f"unknown bound kind {bound_kind!r}")
    a, b = (getattr(samples, col) for col in _BOUND_PAIRS[bound_kind])
    pos = (a > 0) & (b > 0) & np.isfinite(a) & np.isfinite(b)
    a, b = a[pos], b[pos]
    if a.size == 0:
        raise DegenerateSampleError(f"{bound_kind}: no strictly positive samples")
    if a.size < 30:
        raise ValueError(f"{bound_kind}: need >= 30 positive samples, got {a.size}")

    slope, r2 = _ols_loglog(a, b)
    cal, val = _split_by_target(a)
    C = float(np.min(b[cal] / a[cal] ** slope))
    violated = b[val] < C * a[val] ** slope * (1.0 - _REL_TOL)
    vfrac = float(np.mean(violated))

    if bound_kind in ("level_subdiff", "level_bregman", "luo_tseng"):
        exponent, constant = slope, 1.0 / C
    elif bound_kind == "sharpness":
        exponent = 1.0 / slope if slope != 0 else math.inf
        constant = C ** (-exponent) if math.isfinite(exponent) else math.nan
    else:  # kl, gap_condition, weak_subreg
        exponent, constant = slope, C
    return EBFit(bound_kind=bound_kind, exponent=float(exponent),
                 constant=float(constant), r_squared=float(r2),
                 n_samples=int(a.size), violated_fraction=vfrac)


def kl_exponent_sweep(samples: ProbeSamples,
                      alphas: Sequence[float]) -> list:
    """Falsification sweep of dist(0, subdiff F) >= c (F - Fbar)^alpha.

    For each alpha the constant is calibrated as the envelope over the
    half of the slice with the largest value gaps and the inequality is
    checked on the quarter nearest the reference value — the regime an
    existential constant must survive.  A healthy exponent yields ~0
    violations; a genuine failure (residual vanishing while the value
    gap stays put) flags essentially every near-reference sample.  The
    certificate is direction-uniform: at weak sharp minima, where the
    local constant varies strongly by direction, small exponents may be
    flagged conservatively even though some constant exists."""
    pos = (samples.value_gap > 0) & (samples.dist_subdiff > 0)
    a, b = samples.value_gap[pos], samples.dist_subdiff[pos]
    if a.size < 8:
        raise DegenerateSampleError("kl sweep needs >= 8 positive samples")
    order = np.argsort(-a, kind="stable")
    cal = order[:len(order) // 2]
    val = order[-max(1, len(order) // 4):]
    out = []
    for alpha in alphas:
        c1 = float(np.min(b[cal] / a[cal] ** alpha))
        viol = b[val] < c1 * a[val] ** alpha * (1.0 - _REL_TOL)
        out.append({"alpha": float(alpha), "constant": c1,
                    "violated_fraction": float(np.mean(viol))})
    return out


# ---------------------------------------------------------------------------
# implication and certificate checks
# ---------------------------------------------------------------------------

def _half_slice(samples: ProbeSamples, slice_: LevelSlice,
                C: Constants) -> tuple:
    """The band divisor N = max((2 eps_hi nu / (m - eps_hi L)) / (eta/2)^2, 1)
    that keeps prox steps inside the half-radius slice, each sample's
    distance to the center, and the mask of samples in the shrunken
    slice: within eta/2 of the center with value gap below nu/N.  Needs
    ``C.l_clause``: m - eps_hi L > 0."""
    eta, nu = slice_.radius_eta, slice_.value_band_nu
    N = max((2.0 * C.eps_hi * nu / (C.m - C.eps_hi * C.L)) / (eta / 2.0) ** 2,
            1.0)
    d_center = row_norms(samples.x - slice_.center)
    return N, d_center, (d_center < eta / 2) & (samples.value_gap < nu / N)


def check_step_containment(samples: ProbeSamples, slice_: LevelSlice,
                           C: Constants) -> dict:
    """Property-(A) samples in the shrunken slice keep their prox point
    within eta/2 of themselves and inside the eta-ball around the center
    (checked through ||x - T(x)|| + ||x - center|| <= eta); gated without
    ``C.l_clause``."""
    if not C.l_clause:
        return {"check": "prox_step_containment", "gated": True,
                "reason": _NEEDS_L}
    N, d_center, inner = _half_slice(samples, slice_, C)
    keep = inner & samples.property_A
    r, eta = samples.dist_prox[keep], slice_.radius_eta
    violated = ((r > eta / 2 * (1.0 + _REL_TOL))
                | (r + d_center[keep] > eta * (1.0 + _REL_TOL)))
    return {"check": "prox_step_containment",
            "n_checked": int(np.count_nonzero(keep)),
            "n_violations": int(np.count_nonzero(violated)), "band_divisor": N}


def _pow(base: float, exp: float) -> float:
    try:
        return base ** exp
    except OverflowError:
        return math.inf


def prox_eb_thetas(gamma: float, c3: float, C: Constants,
                   eta: float) -> tuple[float, float]:
    """theta1 and theta2 of the implication from a level-set
    subdifferential EB (exponent gamma > 0, constant c3) to the
    prox-residual EB on the half-radius slice (see
    ``check_subdiff_implies_prox_eb``).  A tiny gamma drives both past the
    float range; they come back infinite (or nan), never as an
    OverflowError."""
    eta2 = eta / 2.0
    core = _pow(c3 * C.residual, 1.0 / gamma)
    theta1 = 1.0 + core * _pow(eta2, 1.0 / gamma - 1.0)
    theta2 = _pow(eta2, 1.0 - 1.0 / gamma) + core
    return theta1, theta2


def check_subdiff_implies_prox_eb(samples: ProbeSamples,
                                  slice_: LevelSlice, fit: EBFit,
                                  C: Constants) -> dict:
    """Level-set subdifferential EB (exponent gamma, constant c3) implies
    the prox-residual EB dist^p(x, [F<=Fbar]) <= theta dist(x, T(x)) on
    the half-radius slice, with

        p = 1 / min(1/gamma, 1)
        theta1 = 1 + (c3 (L + M/eps_lo))^(1/gamma) (eta/2)^(1/gamma - 1)
        theta2 = (eta/2)^(1 - 1/gamma) + (c3 (L + M/eps_lo))^(1/gamma)

    using theta1 for gamma <= 1 and theta2 beyond; gated without
    ``C.l_clause``, which the half-radius slice needs."""
    gamma, c3 = fit.exponent, fit.constant
    if not C.l_clause:
        return {"check": "subdiff_implies_prox_eb", "gated": True,
                "reason": _NEEDS_L}
    if not (gamma > 0 and math.isfinite(gamma)):
        return {"check": "subdiff_implies_prox_eb", "gated": True,
                "reason": "gamma fit not in (0, inf)"}
    theta1, theta2 = prox_eb_thetas(gamma, c3, C, slice_.radius_eta)
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        return {"check": "subdiff_implies_prox_eb", "gated": True,
                "reason": "theta not finite"}
    p = gamma if gamma > 1 else 1.0
    theta = theta1 if gamma <= 1 else theta2
    _, _, inner = _half_slice(samples, slice_, C)
    d, r = samples.dist_level[inner], samples.dist_prox[inner]
    violated = d > theta * r ** (1.0 / p) * (1.0 + 1e-6) + 1e-12
    return {"check": "subdiff_implies_prox_eb", "gated": False, "p": p,
            "theta": theta, "theta1": theta1, "theta2": theta2,
            "n_checked": int(np.count_nonzero(inner)),
            "n_violations": int(np.count_nonzero(violated))}


def check_value_proximity(samples: ProbeSamples, F_bar: float,
                          C: Constants) -> dict:
    """Value-proximity chain on a slice:

        F(T(x)) - Fbar  <=  E(x) - Fbar  <=  c0 dist^2(x, [F <= Fbar])

    with c0 = ``C.c0``.  Reports the worst violation of each link
    (negative slack means a violation)."""
    c0 = C.c0
    E = samples.envelope_value
    return {"check": "value_proximity", "c0": c0,
            "min_slack_envelope_vs_proxF": min_or_inf(E - samples.prox_F),
            "min_slack_c0_bound": min_or_inf(
                c0 * samples.dist_level ** 2 - (E - F_bar)),
            "n_checked": len(samples)}


def check_kl_exponent_map(kl_fit: EBFit, eb_fit: EBFit,
                          sharp_fit: Optional[EBFit] = None) -> dict:
    """gamma ~= alpha/(1 - alpha) and (optionally) sharpness ~= 1 - alpha,
    within a tolerance of 0.1.

    The gamma comparison scales the tolerance by the map's local
    derivative 1/(1-alpha)^2, since fit noise in alpha is amplified by
    exactly that factor."""
    tol = 0.1
    alpha = kl_fit.exponent
    gamma_target = alpha / (1.0 - alpha) if alpha < 1 else math.inf
    gamma_tol = tol * max(1.0, (1.0 - alpha) ** -2 if alpha < 1 else math.inf)
    ok = abs(eb_fit.exponent - gamma_target) <= gamma_tol
    out = {"check": "kl_exponent_map", "alpha": alpha,
           "gamma": eb_fit.exponent, "gamma_from_alpha": gamma_target,
           "gamma_tol": gamma_tol, "ok": bool(ok)}
    if sharp_fit is not None:
        beta_target = 1.0 - alpha
        out["sharpness_beta"] = sharp_fit.exponent
        out["beta_from_alpha"] = beta_target
        out["sharpness_ok"] = bool(abs(sharp_fit.exponent - beta_target) <= tol)
        out["ok"] = bool(out["ok"] and out["sharpness_ok"])
    return out


def check_gap_condition_links(samples: ProbeSamples, bregman_fit: EBFit,
                              C: Constants) -> dict:
    """Both directions of the gap-condition bridge for semiconvex g.

    (i) a prox-residual EB with exponent p yields G >= mu (F - Fbar)^q
    with q = 1/min(1/p, 1) and mu the sampled envelope; (ii) a gap
    condition with (q, mu) forces the subdifferential lower bound
    dist(0, subdiff F) >= sqrt(2 (m - eps_hi rho) mu) (F - Fbar)^(q/2).
    Gated without ``C.rho_clause``."""
    if not C.rho_clause:
        return {"check": "gap_condition_links", "gated": True,
                "reason": _NEEDS_RHO if C.semiconvex
                else "g is not semiconvex"}
    p = bregman_fit.exponent
    q = p if p > 1 else 1.0
    pos = (samples.value_gap > 0) & (samples.gap_value > 0)
    gaps, Gs = samples.value_gap[pos], samples.gap_value[pos]
    subs = samples.dist_subdiff[pos]
    mu = float(np.min(Gs / gaps ** q))
    coeff = math.sqrt(2.0 * C.margin * mu) if mu > 0 else 0.0
    viol = int(np.sum(subs < coeff * gaps ** (q / 2.0) * (1.0 - _REL_TOL)))
    return {"check": "gap_condition_links", "gated": False, "p": p, "q": q,
            "mu_envelope": mu, "kl_coeff": coeff,
            "kl_exponent": q / 2.0, "n_checked": int(len(gaps)),
            "n_violations": viol}


# ---------------------------------------------------------------------------
# rate estimation
# ---------------------------------------------------------------------------

def estimate_q_linear_rate(trace: Trace, F_bar: float) -> tuple[float, tuple]:
    """Largest successive value-gap ratio over the last (at most) 10 of
    the stable tail.

    Gaps below 1e-14 (1+|Fbar|) are float-exhausted and truncate the
    window.  Raises ValueError when no ratio survives."""
    gaps = np.array(trace.f_values, dtype=float) - F_bar
    scale = 1e-14 * (1.0 + abs(F_bar))
    if np.any(gaps < -1e-9 * (1.0 + abs(F_bar))):
        raise ValueError("F_bar exceeds recorded F values")
    # keep the maximal leading run of valid indices
    k_end = next((k for k, g in enumerate(gaps) if not g > scale), len(gaps))
    if k_end < 2:
        raise ValueError("empty rate window: no positive value gaps")
    ratios = gaps[1:k_end] / gaps[:k_end - 1]
    w = min(10, len(ratios))
    return float(np.max(ratios[-w:])), (int(k_end - w), int(k_end - 1))


def certify_rate_chain(beta_hat: float, sub_fit: EBFit, C: Constants,
                       eta: float) -> dict:
    """Certified Q-linear ratio 1/(1 + a/(c0 theta1^2)) from a level-set
    subdifferential fit, with a = ``C.a``, c0 = ``C.c0``, gamma capped at
    1 and theta1 from ``prox_eb_thetas``; chain_ok when the observed ratio
    stays within 5% of it.  Gated without ``C.l_clause`` (a > 0) or when
    theta1 is not finite, empty when the fitted gamma is not positive."""
    if not C.l_clause:
        return {"gated": True, "reason": _NEEDS_L}
    gamma = min(sub_fit.exponent, 1.0)
    if not gamma > 0:
        return {}
    theta1, _ = prox_eb_thetas(gamma, sub_fit.constant, C, eta)
    if not math.isfinite(theta1):
        return {"gated": True, "reason": "theta not finite"}
    beta = 1.0 / (1.0 + C.a / (C.c0 * theta1 ** 2))
    return {"theta": theta1, "beta_certified": beta,
            "chain_ok": bool(beta_hat <= beta * 1.05)}


def r_linear_envelope(trace: Trace, beta: float) -> float:
    """Smallest C with ||x^k - x_final|| <= C (sqrt(beta))^k along the
    stored iterates (geometric envelope of the iterate tail)."""
    d = row_norms(np.reshape(trace.iterates[:-1], (-1, trace.final_x.size))
                  - trace.final_x)
    k = np.array(trace.iterate_indices[:-1], dtype=float)
    return float(np.max(d / math.sqrt(beta) ** k, initial=0.0))


def estimate_level_set_rate(trace: Trace, problem: Problem, F_bar: float,
                            grid: SublevelGrid) -> dict:
    """Max successive ratio of sublevel-set distances along the iterates.

    Distances below 10x the grid resolution are dominated by oracle error
    and are excluded; an iterate already inside [F <= Fbar] ends the
    usable window (reported as converged)."""
    min_dist = 10.0 * grid.resolution
    inside = np.flatnonzero(problem.F_batch(np.array(trace.iterates)) <= F_bar)
    k_end = int(inside[0]) if inside.size else len(trace.iterates)
    dists = grid.project_many(F_bar, trace.iterates[:k_end],
                              boundary_check=False)[0].tolist()
    if k_end < len(trace.iterates):
        dists.append(0.0)
    d = np.array(dists)
    usable = (d[:-1] >= min_dist) & (d[1:] >= min_dist)
    ratios = d[1:][usable] / d[:-1][usable]
    return {"check": "level_set_rate", "distances": dists,
            "n_ratios": int(ratios.size),
            "converged": bool(dists and dists[-1] < min_dist),
            "beta_levelset": float(np.max(ratios)) if ratios.size else math.nan}


def check_level_set_rate_certificates(beta_levelset: float, refit_c3: float,
                                      C: Constants) -> dict:
    """Both directions of the linear-convergence certificate relative to a
    sublevel set, with (b, c) of the descent row ``C.descent``.

    Forward: a strong subdifferential EB with constant c3' gives the
    kernel-EB constant theta' = 1 + c3' ``C.residual`` and, when theta'
    falls in (sqrt(c/b), sqrt(c/(b-1))) (undefined unless b > 1), the
    contraction bound beta <= sqrt(b - c/theta'^2).  Reverse: observed
    contraction beta < 1 with semiconvex g and eps_hi < m/rho bounds the
    refit constant by c3' <= eps_hi / ((1 - beta) ``C.margin``)."""
    out = {"check": "level_set_rate_certificates",
           "beta_levelset": beta_levelset, "refit_c3prime": refit_c3}
    _, b_frak, c_frak = C.descent
    theta_p = 1.0 + refit_c3 * C.residual
    out["theta_prime"] = theta_p
    if b_frak > 1.0 and c_frak > 0.0:
        lo, hi = math.sqrt(c_frak / b_frak), math.sqrt(c_frak / (b_frak - 1.0))
        out["theta_window"] = [lo, hi]
        if lo < theta_p < hi:
            bound = math.sqrt(b_frak - c_frak / theta_p ** 2)
            out["forward_beta_bound"] = bound
            out["forward_ok"] = bool(beta_levelset <= bound * 1.05)
        else:
            out["forward_gated"] = "theta_prime outside admissible window"
    else:
        out["forward_gated"] = "requires b > 1 and c > 0"
    if C.rho_clause and beta_levelset < 1.0:
        c3_bound = C.eps_hi / ((1.0 - beta_levelset) * C.margin)
        out["reverse_c3_bound"] = c3_bound
        out["reverse_ok"] = bool(refit_c3 <= c3_bound * 1.05)
    elif C.semiconvex and beta_levelset < 1.0:
        out["reverse_gated"] = _NEEDS_RHO
    else:
        out["reverse_gated"] = "needs semiconvex g and beta < 1"
    return out


# ---------------------------------------------------------------------------
# growth-condition certification
# ---------------------------------------------------------------------------

def certify_growth_conditions(problem: Problem, slice_: LevelSlice,
                              crit_points: Array, seed: int = 0,
                              samples: Optional[ProbeSamples] = None
                              ) -> dict:
    """Largest zero-violation modulus for each local growth condition,
    over 400 sampled pairs.

    Conditions on the eta-ball around the slice center (f only):
      lsc   f(y) >= f(x) + <grad f(x), y-x> + (mu/2)||y-x||^2, all pairs
      lesc  same, restricted to pairs sharing a projection onto the
            critical set
      lwsc  same, with y the projection of x
      lqgg  <grad f(x) - grad f(xp), x - xp> >= mu ||x - xp||^2
    and with g identically zero additionally
      lrsi  <grad f(x), x - xp> >= mu ||x - xp||^2
      lpl   ||grad f(x)||^2 / 2 >= mu (f(x) - f(center))

    The certified modulus is the sampled infimum clipped at zero.  When
    lwsc or lqgg certifies with mu above g's semiconvexity modulus rho,
    the weak-subregularity conclusion dist(0, subdiff F) >=
    ((mu - rho)/2) dist(x, crit set) is checked on the probe samples."""
    rng = np.random.default_rng(seed)
    eta = slice_.radius_eta
    X = sample_ball(rng, 400, slice_.center, eta)
    Y = sample_ball(rng, 400, slice_.center, eta)
    f = problem.f
    FX, GX = f.value_grad(X)
    # projections onto the critical set, and f and grad f there
    jx, _ = nearest_in_set(X, crit_points)
    jy, _ = nearest_in_set(Y, crit_points)
    XP, YP = crit_points[jx], crit_points[jy]
    FXP, GXP = (a[jx] for a in f.value_grad(crit_points))

    dxy, dxp = row_norms(Y - X), row_norms(XP - X)
    moved, off = dxy > 1e-10, dxp > 1e-8
    fgap = FX - f.value(slice_.center)
    with np.errstate(divide="ignore", invalid="ignore"):  # masked rows
        quad = 2.0 * (f.value(Y) - FX - row_dots(GX, Y - X)) / dxy ** 2
        ratios = {
            "lsc": quad[moved],
            "lesc": quad[moved & (row_norms(XP - YP) <= 1e-8)],
            "lwsc": (2.0 * (FXP - FX - row_dots(GX, XP - X)) / dxp ** 2)[off],
            "lqgg": (row_dots(GX - GXP, X - XP) / dxp ** 2)[off],
            "lrsi": (row_dots(GX, X - XP) / dxp ** 2)[off],
            "lpl": (0.5 * row_dots(GX, GX) / fgap)[fgap > 1e-12]}
    if problem.g.kind != "zero":
        ratios["lrsi"] = ratios["lpl"] = np.empty(0)

    # the certified modulus: the sampled infimum clipped at zero
    mus = {k: max(float(r.min()), 0.0) if r.size else None
           for k, r in ratios.items()}
    out = {"check": "growth_conditions", "mu": mus}

    rho = problem.g.semiconvex_rho
    mu_best = max([v for k, v in mus.items() if k in ("lwsc", "lqgg")
                   and v is not None], default=None)
    if mu_best is None or not math.isfinite(rho):
        out["weak_subreg"] = {"gated": True,
                              "reason": "needs lwsc/lqgg and semiconvex g"}
        return out
    if mu_best <= rho:
        out["weak_subreg"] = {"gated": True,
                              "reason": f"mu={mu_best:g} <= rho={rho:g}"}
        return out
    if samples is None:
        out["weak_subreg"] = {"gated": True, "reason": "no probe samples"}
        return out
    coeff = 0.5 * (mu_best - rho)
    viol = int(np.count_nonzero(
        samples.dist_subdiff < coeff * samples.dist_crit * (1.0 - _REL_TOL)))
    out["weak_subreg"] = {"gated": False, "mu": mu_best, "rho": rho,
                          "coefficient": coeff, "n_checked": len(samples),
                          "n_violations": viol}
    return out


def check_luo_tseng_bound(problem: Problem, samples: ProbeSamples,
                          K: KernelSpec, eps: float, sigma: float) -> dict:
    """Residual error bound dist(x, crit set) <= c6 ||x - p(x)|| with p(x)
    the euclidean prox-gradient update, over samples whose residual stays
    below sigma (the definition's domain).  Under a euclidean probe kernel
    K (at the samples' eps) that residual is the ``dist_prox`` column.

    The implication being certified is that the residual bound transfers
    to a prox-map error bound with the same constant for the euclidean
    kernel (the map the bound's residual is built from), so c6 is fitted
    as the envelope over the half of the filtered samples farthest from
    the critical set and verified on the near half."""
    if not problem.g.convex:
        return {"check": "luo_tseng", "gated": True, "reason": "g not convex"}
    r = samples.dist_prox if K.kind == "euclidean" else annotate_points(
        problem, KernelSpec.euclidean(), eps, samples.x).dist_prox
    kept = (r <= sigma) & (r > 0)
    n_kept = int(np.count_nonzero(kept))
    n_excluded = len(samples) - n_kept
    if n_kept < 5:
        return {"check": "luo_tseng", "gated": True,
                "reason": "too few samples below the residual threshold",
                "n_excluded": n_excluded}
    d, r = samples.dist_crit[kept], r[kept]
    cal, val = _split_by_target(d)
    c6 = float(np.max(d[cal] / r[cal]))
    viol = int(np.sum(d[val] > c6 * r[val] * (1.0 + _REL_TOL) + 1e-12))
    return {"check": "luo_tseng", "gated": False, "c6": c6,
            "sigma": sigma, "n_kept": n_kept, "n_excluded": n_excluded,
            "n_checked": int(len(val)), "n_violations": viol}


def check_critical_value_consistency(problem: Problem, x_bar: Array,
                                     crit_points: Array, delta: float) -> dict:
    """F(y) <= F(x_bar) (within 1e-8 relative) for approximate critical
    points y within delta of x_bar; a precondition of the implication
    checks that use the critical set as the target."""
    F_bar = problem.F(x_bar)
    near = crit_points[row_norms(crit_points - x_bar) <= delta]
    fails = near[problem.F_batch(near)
                 > F_bar + 1e-8 * (1.0 + abs(F_bar))].tolist()
    return {"check": "critical_value_consistency", "ok": not fails,
            "n_failures": len(fails), "failures": fails}


# ---------------------------------------------------------------------------
# the probe pipeline
# ---------------------------------------------------------------------------

PROBE_DEFAULTS = {
    "center": "solve",      # or a point of the problem's dimension
    "eta": 0.5,
    "nu": None,             # default: 0.1 x local F range
    "n_samples": 200,
    "resolution": None,     # default: the sublevel grid's
    "box_halfwidth": None,  # default: max(4 eta, 1)
    "sigma": 0.5,
}


def probe_grid(dim: int, params: dict) -> tuple[float, float]:
    """(halfwidth, resolution) of a probe's sublevel grid: ``box_halfwidth``
    defaults to max(4 eta, 1).  Raises ValueError above dimension 3 or
    PROBE_GRID_BUDGET nodes (also when 2 halfwidth / resolution overflows),
    before any grid is built."""
    if dim > 3:
        raise ValueError(_DIM_ERROR)
    halfwidth = params["box_halfwidth"] or max(4.0 * params["eta"], 1.0)
    resolution = params["resolution"] or _DEFAULT_RESOLUTION[dim]
    finite = math.isfinite(2 * halfwidth / resolution)
    nodes = grid_axis_nodes(halfwidth, resolution) ** dim if finite else math.inf
    if nodes > PROBE_GRID_BUDGET:
        raise ValueError(f"probe grid of {nodes} nodes exceeds the budget "
                         f"of {PROBE_GRID_BUDGET}")
    return halfwidth, resolution


@dataclass(frozen=True, eq=False)
class Campaign:
    """One probe: the solver run, the level slice, the sublevel grid and
    critical set the probe used, and its annotated samples."""

    problem: Problem
    config: SolverConfig
    trace: Trace
    slice: LevelSlice
    grid: SublevelGrid
    crit: Array
    samples: ProbeSamples


def run_campaign(problem: Problem, config: SolverConfig, x0, params: dict,
                 seed: int) -> Campaign:
    """Solve from x0, slice around the solution (or ``params["center"]``)
    and probe the slice with the first kernel and step size of ``config``.

    ``params`` holds probe-section keys; missing ones take PROBE_DEFAULTS.
    The band nu defaults to 0.1 x |F(center + eta 1) - F(center)| (at
    least 1e-4); the sublevel grid (``probe_grid``) is seeded with the
    center; the critical set comes from 5 seeds per axis over halfwidth
    max(2 eta, 1).  Raises ValueError for a grid over budget before the
    solve, and SliceEmptyError when the probe cannot be built."""
    p = {**PROBE_DEFAULTS, **params}
    grid_args = probe_grid(problem.dim, p)
    trace = vbpg_run(problem, config, x0)
    center = trace.final_x if isinstance(p["center"], str) else p["center"]
    center = as_vector(center, dim=problem.dim)
    eta, nu = p["eta"], p["nu"]
    if nu is None:
        local = abs(problem.F(center + eta * np.ones(problem.dim))
                    - problem.F(center))
        nu = 0.1 * max(local, 1e-3)
    slice_ = make_slice(problem, center, eta, nu)
    K, eps = config.kernel_at(0), config.eps_at(0)
    grid = SublevelGrid(problem, center, *grid_args)
    crit = critical_points(problem, K, eps, center, max(2.0 * eta, 1.0))
    samples = probe_slice(problem, K, eps, slice_, p["n_samples"], seed, grid,
                          crit)
    return Campaign(problem, config, trace, slice_, grid, crit, samples)


def eb_report(campaign: Campaign, seed: int,
              sigma: float = PROBE_DEFAULTS["sigma"]) -> dict:
    """The probe report: a fit of each of the seven bounds, then the
    implication, rate, growth and consistency checks on the samples;
    ``seed`` seeds the growth conditions' sampling and ``sigma`` is the
    Luo-Tseng residual threshold."""
    problem, config, trace = campaign.problem, campaign.config, campaign.trace
    slice_, samples, crit = campaign.slice, campaign.samples, campaign.crit
    K, eps = config.kernel_at(0), config.eps_at(0)
    C = Constants.of(problem, config)
    fits, fit_objs = {}, {}
    for kind in _BOUND_PAIRS:
        try:
            fit_objs[kind] = fit_error_bound(samples, kind)
            fits[kind] = fit_objs[kind].to_dict()
        except (ValueError, DegenerateSampleError) as exc:
            fits[kind] = {"bound_kind": kind, "error": str(exc)}
    sub_fit = fit_objs.get("level_subdiff")

    checks = {"step_containment": check_step_containment(samples, slice_, C)}
    if sub_fit is not None:
        checks["subdiff_implies_prox_eb"] = check_subdiff_implies_prox_eb(
            samples, slice_, sub_fit, C)
    checks["value_proximity"] = check_value_proximity(samples, slice_.F_bar, C)
    if "kl" in fit_objs and sub_fit is not None:
        checks["kl_exponent_map"] = check_kl_exponent_map(
            fit_objs["kl"], sub_fit, fit_objs.get("sharpness"))
    if "level_bregman" in fit_objs:
        checks["gap_condition_links"] = check_gap_condition_links(
            samples, fit_objs["level_bregman"], C)
    try:
        checks["kl_sweep"] = kl_exponent_sweep(
            samples, [round(0.05 * k, 2) for k in range(1, 20)])
    except DegenerateSampleError as exc:
        checks["kl_sweep"] = {"error": str(exc)}

    # rate chain: observed tail ratio against the certified bound
    rate = {}
    try:
        beta_hat, window = estimate_q_linear_rate(trace, slice_.F_bar)
        rate["beta_hat"] = beta_hat
        rate["window"] = list(window)
        rate["r_linear_envelope_C"] = r_linear_envelope(trace, beta_hat)
        if sub_fit is not None:
            rate.update(certify_rate_chain(beta_hat, sub_fit, C,
                                           slice_.radius_eta))
    except ValueError as exc:
        rate["error"] = str(exc)
    checks["rate_chain"] = rate

    level = estimate_level_set_rate(trace, problem, slice_.F_bar, campaign.grid)
    checks["level_set_rate"] = level
    ds = samples.dist_subdiff
    refit = (ds > 0) & np.isfinite(ds)
    if math.isfinite(level.get("beta_levelset", math.nan)) and refit.any():
        c3_refit = float(np.max(samples.dist_level[refit] / ds[refit]))
        checks["level_set_rate_certificates"] = \
            check_level_set_rate_certificates(level["beta_levelset"],
                                              c3_refit, C)
    checks["growth_conditions"] = certify_growth_conditions(
        problem, slice_, crit, seed=seed, samples=samples)
    checks["luo_tseng"] = check_luo_tseng_bound(problem, samples, K, eps,
                                                sigma)
    checks["critical_value_consistency"] = check_critical_value_consistency(
        problem, slice_.center, crit, delta=2.0 * slice_.radius_eta)

    return {"fits": fits, "checks": checks,
            "slice": {"center": [float(v) for v in slice_.center],
                      "eta": slice_.radius_eta, "nu": slice_.value_band_nu,
                      "F_bar": slice_.F_bar},
            "n_samples": len(samples), "seed": seed,
            "kernel": K.kind, "epsilon": eps}
