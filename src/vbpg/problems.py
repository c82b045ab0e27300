"""Test-problem zoo: smooth objectives, separable regularizers with
closed-form scaled proxes and certified semiconvexity moduli, and the
jump counterexample used by the level-set diagnostics.

Scaled proxes for the folded-concave penalties (SCAD, MCP) are defined
by an enumeration: the stationary point of every quadratic piece clipped
to its piece, plus the piece boundaries, evaluated directly for the
global minimum; ties within 1e-10 (1 + |min|) are broken toward the
candidate of smaller |t| and flagged.  This avoids the sign errors that
plague published closed forms and is verified against a dense grid
oracle in the test suite.

Where the subproblem is strongly convex (mu = kappa - rho > 0, as under
every admissible step eps < m/rho) the prox takes the minimizer of the
one piece that holds it, and enumerates only the entries in the band
where another candidate could come within the tie tolerance (see
``_direct_prox``).  Outside the band the enumeration would return that
same candidate, so the tie rule and every bit it picks are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .core import (Array, KernelSpec, Problem, Regularizer, SmoothObjective,
                   SolverConfig, as_vector, matvec_rows, row_dots)

_TIE_TOL = 1e-10
_TIE_SEP = 1e-9


def _clip(x: Array, lo: float, hi: float) -> Array:
    """min(max(x, lo), hi) entrywise, in place on x when it is an array
    temporary rather than a scalar."""
    out = x if x.ndim else None
    return np.minimum(np.maximum(x, lo, out=out), hi, out=out)


def _where(cond, a, b):
    """``np.where`` with a scalar's 0-d result unwrapped to a numpy scalar,
    whose arithmetic costs a tenth of a 0-d array's; an array is kept."""
    return np.where(cond, a, b)[()]


def _pick_candidate(C: Array, H: Array) -> tuple[Array, Array]:
    """Global minimum over candidates C with values H, both stacked along
    the first axis, per column C[:, i, ...] (C of shape (k,) + v.shape).
    Candidates within 1e-10 (1 + |min|) of the minimum tie;
    the smallest |t| wins, then the smallest t.  ``tied`` flags columns
    whose tied candidates lie more than 1e-9 apart.  A column whose tied
    candidates are all equal, or that has none (a NaN value), returns its
    first minimizer."""
    best = H.min(axis=0)
    tied = H <= best + _TIE_TOL * (1.0 + np.abs(best))
    lo = np.where(tied, C, np.inf).min(axis=0)
    hi = np.where(tied, C, -np.inf).max(axis=0)
    if (lo == hi).all():
        # every tie is a copy of one candidate: the usual case.  Equal
        # candidates have equal values, so where C[0] equals lo it is the
        # first minimizer, and its sign of zero is the one to return
        return np.where(lo == C[0], C[0], lo), np.zeros(lo.shape, dtype=bool)
    t = np.take_along_axis(C, H.argmin(axis=0)[None], axis=0)[0]
    a = np.where(tied, np.abs(C), np.inf).min(axis=0)
    rule = np.where((tied & (C == -a)).any(axis=0) & (a > 0.0), -a, a)
    spread = hi - lo
    return np.where(spread > 0.0, rule, t), spread > _TIE_SEP


def _quadratic_pick(g: "Regularizer", C: Array, v: Array, kappa: Array,
                    g_const: Array) -> tuple[Array, Array]:
    """Pick among candidates C of min_t g(t) + (kappa/2)(t - v)^2, stacked
    along the first axis over the shape of v (an array of any shape or a
    scalar).  The first len(g_const) rows of C are constants whose g
    values, one per row, are g_const; g is evaluated on the other rows
    only."""
    H = 0.5 * kappa * (C - v) ** 2
    k = len(g_const)
    H[:k] += g_const.reshape((k,) + (1,) * np.ndim(v))
    H[k:] += g.values(C[k:])
    return _pick_candidate(C, H)


def _direct_prox(enumerate_, v: Array, kappa, mu, r: Array, d: Array,
                 kv2: Array) -> tuple[Array, Optional[Array]]:
    """Scaled prox entries from the direct minimizer r >= 0 of
    h(t) = g(t) + (kappa/2)(t - |v|)^2, where d is the distance from r to
    the nearest other candidate of the enumeration ``enumerate_(v, kappa)``
    and kv2 = kappa v^2.

    Where mu = kappa - rho > 0, h is mu-strongly convex, so every candidate
    c has h(c) - min h >= (mu/2)(c - r)^2 up to roundoff, and min h is at
    most h(0) = kv2/2.  So where mu d^2 > 4e-10 (1 + kv2) no other
    candidate comes within the 1e-10 tie tolerance, and the enumeration
    would pick r's own candidate: copysign(r, v), whose bits negation
    keeps.  The other entries (the tie band, mu <= 0, a non-finite v) are
    enumerated, and only then is there a tie array: it is None when no
    entry is.  v may have any shape or be a scalar: the mask of the slow
    entries indexes its 0-d array too."""
    fast = mu * (d * d) > 4.0 * _TIE_TOL * (1.0 + kv2)
    t = np.copysign(r, v)
    t += 0.0  # the enumeration's zero candidate is +0.0
    if fast.all():
        return t, None
    slow, t, v = ~fast, np.asarray(t), np.asarray(v)
    tied = np.zeros(t.shape, dtype=bool)
    if np.ndim(kappa):
        kappa = np.broadcast_to(kappa, v.shape)[slow]
    t[slow], tied[slow] = enumerate_(v[slow], kappa)
    return t, tied


def _kink_parts(t: Array, grad_f: Array, lam: float, slope: Array) -> Array:
    """Distance for penalties with an l1 kink of weight lam at 0 and
    derivative ``slope`` elsewhere."""
    return np.where(t == 0.0, np.maximum(np.abs(grad_f) - lam, 0.0),
                    np.abs(grad_f + slope))


# ---------------------------------------------------------------------------
# regularizers
# ---------------------------------------------------------------------------

class ZeroRegularizer(Regularizer):
    kind = "zero"
    convex = True
    semiconvex_rho = 0.0

    def values(self, T):
        return np.zeros(np.shape(T))

    def prox(self, v, weights, eps):
        return v, None

    def subdiff_parts(self, t, grad_f):
        return np.abs(grad_f)


class L1Regularizer(Regularizer):
    """g(t) = lam |t| with the soft-threshold prox."""

    kind = "l1"
    convex = True
    semiconvex_rho = 0.0

    def __init__(self, lam: float):
        if lam < 0:
            raise ValueError("l1 weight must be nonnegative")
        self.lam = float(lam)

    def values(self, T):
        return self.lam * np.abs(T)

    def prox(self, v, weights, eps):
        thr = self.lam * eps / weights
        return np.copysign(np.maximum(np.abs(v) - thr, 0.0), v), None

    def subdiff_parts(self, t, grad_f):
        return _kink_parts(t, grad_f, self.lam, np.copysign(self.lam, t))


class SquaredL2Regularizer(Regularizer):
    """g(t) = (lam/2) t^2 per coordinate (ridge)."""

    kind = "sq_l2"
    convex = True
    semiconvex_rho = 0.0

    def __init__(self, lam: float):
        if lam < 0:
            raise ValueError("ridge weight must be nonnegative")
        self.lam = float(lam)

    def values(self, T):
        return 0.5 * self.lam * T * T

    def prox(self, v, weights, eps):
        kappa = weights / eps
        return kappa * v / (self.lam + kappa), None

    def subdiff_parts(self, t, grad_f):
        return np.abs(grad_f + self.lam * t)


class BoxRegularizer(Regularizer):
    """Indicator of the box [lo, hi] per coordinate."""

    kind = "box"
    convex = True
    semiconvex_rho = 0.0
    continuous = False  # extended real valued off the box

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError("box requires lo < hi")
        self.lo, self.hi = float(lo), float(hi)

    def values(self, T):
        return np.where((T >= self.lo) & (T <= self.hi), 0.0, math.inf)

    def prox(self, v, weights, eps):
        return np.minimum(np.maximum(v, self.lo), self.hi), None

    def subdiff_parts(self, t, grad_f):
        # normal cone at lo is (-inf, 0]: criticality needs grad_f >= 0
        d = np.where(t == self.lo, np.maximum(-grad_f, 0.0),
                     np.where(t == self.hi, np.maximum(grad_f, 0.0),
                              np.abs(grad_f)))
        return np.where((t < self.lo) | (t > self.hi), math.inf, d)


class ScadRegularizer(Regularizer):
    """Smoothly clipped absolute deviation penalty.

    g(t) = lam |t| on |t| <= lam, a quadratic blend on lam < |t| <= a lam,
    and the constant lam^2 (a+1)/2 beyond.  The middle piece has second
    derivative -1/(a-1), so g + (rho/2) t^2 is convex with
    rho = 1/(a-1).
    """

    kind = "scad"
    convex = False

    def __init__(self, lam: float, a: float):
        if lam <= 0 or a <= 2:
            raise ValueError("scad requires lam > 0 and a > 2")
        self.lam, self.a = float(lam), float(a)
        self.semiconvex_rho = 1.0 / (a - 1.0)
        lam, a = self.lam, self.a
        self._const = np.array([[0.0], [lam], [-lam], [a * lam], [-a * lam]])
        self._g_const = self.values(self._const)

    def values(self, T):
        lam, a = self.lam, self.a
        U = np.abs(T)
        mid = (2 * a * lam * U - U * U - lam * lam) / (2 * (a - 1))
        return np.where(U <= lam, lam * U,
                        np.where(U <= a * lam, mid, 0.5 * lam * lam * (a + 1)))

    def prox(self, v, weights, eps):
        lam, a = self.lam, self.a
        al, s = a * lam, a * lam / (a - 1.0)
        kappa = weights / eps
        mu = kappa - 1.0 / (a - 1.0)
        u = np.abs(v)
        ku = kappa * u
        # the flat tail, else the l1 piece, else the blended middle piece;
        # entries with mu = 0 are enumerated, so their division by 1 only
        # keeps numpy from warning
        l1 = u - lam / kappa
        in_l1 = l1 <= lam
        mid = _clip((ku - s) / (mu + (mu == 0.0)), lam, al)
        r = _where(u >= al, u, np.where(in_l1, _clip(l1, 0.0, lam), mid))
        # the other candidates nearest r: lam, a lam and, unless r is 0, 0
        d = np.minimum(np.minimum(np.abs(r - lam), np.abs(r - al)),
                       r + lam * (r == 0.0))
        return _direct_prox(self._enumerate, v, kappa, mu, r, d, ku * u)

    def _enumerate(self, v, kappa):
        lam, a = self.lam, self.a
        C = np.empty((10, v.size))
        C[:5] = self._const
        # piece |t| <= lam: kink at 0 handled by the 0 candidate
        C[5] = _clip(v - lam / kappa, 0.0, lam)
        C[6] = _clip(v + lam / kappa, -lam, 0.0)
        # middle pieces: stationary point of the blended quadratic; where
        # den = 0 (divided by 1) they fall back to lam and -lam
        den = kappa - 1.0 / (a - 1.0)
        dead = den == 0.0
        kv, s = kappa * v, a * lam / (a - 1.0)
        C[7] = _clip((kv - s) / (den + dead), lam, a * lam)
        C[8] = _clip((kv + s) / (den + dead), -a * lam, -lam)
        C[7, dead], C[8, dead] = lam, -lam
        # flat tails (0 duplicates the first candidate when v is inside)
        C[9] = np.where(np.abs(v) >= a * lam, v, 0.0)
        return _quadratic_pick(self, C, v, kappa, self._g_const)

    def subdiff_parts(self, t, grad_f):
        lam, a = self.lam, self.a
        u = np.abs(t)
        slope = np.where(u <= lam, lam,
                         np.where(u <= a * lam, (a * lam - u) / (a - 1), 0.0))
        return _kink_parts(t, grad_f, lam, np.copysign(slope, t))


class McpRegularizer(Regularizer):
    """Minimax concave penalty: g(t) = lam|t| - t^2/(2 gamma) clipped to the
    constant gamma lam^2 / 2 for |t| > gamma lam.  Semiconvex with
    rho = 1/gamma."""

    kind = "mcp"
    convex = False

    def __init__(self, lam: float, gamma: float):
        if lam <= 0 or gamma <= 1:
            raise ValueError("mcp requires lam > 0 and gamma > 1")
        self.lam, self.gamma = float(lam), float(gamma)
        self.semiconvex_rho = 1.0 / gamma
        gl = self.gamma * self.lam
        self._const = np.array([[0.0], [gl], [-gl]])
        self._g_const = self.values(self._const)

    def values(self, T):
        lam, gamma = self.lam, self.gamma
        U = np.abs(T)
        return np.where(U <= gamma * lam, lam * U - U * U / (2 * gamma),
                        0.5 * gamma * lam * lam)

    def prox(self, v, weights, eps):
        lam, gl = self.lam, self.gamma * self.lam
        kappa = weights / eps
        mu = kappa - 1.0 / self.gamma
        u = np.abs(v)
        ku = kappa * u
        # the flat tail, else the firm-threshold point (divided by 1 where
        # mu = 0: those entries are enumerated)
        firm = _clip((ku - lam) / (mu + (mu == 0.0)), 0.0, gl)
        r = _where(u >= gl, u, firm)
        # the other candidates nearest r: gl, even where r equals it (at
        # v = gl the firm-threshold point can round one ulp below gl and
        # tie with v), and 0 unless r is 0
        d = np.minimum(np.abs(r - gl), r + gl * (r == 0.0))
        return _direct_prox(self._enumerate, v, kappa, mu, r, d, ku * u)

    def _enumerate(self, v, kappa):
        lam, gl = self.lam, self.gamma * self.lam
        C = np.empty((6, v.size))
        C[:3] = self._const
        # firm-threshold points, 0 where den = 0 (divided by 1 there)
        den = kappa - 1.0 / self.gamma
        dead = den == 0.0
        kv = kappa * v
        C[3] = _clip((kv - lam) / (den + dead), 0.0, gl)
        C[4] = _clip((kv + lam) / (den + dead), -gl, 0.0)
        C[3:5, dead] = 0.0
        C[5] = np.where(np.abs(v) >= gl, v, 0.0)
        return _quadratic_pick(self, C, v, kappa, self._g_const)

    def subdiff_parts(self, t, grad_f):
        slope = np.maximum(self.lam - np.abs(t) / self.gamma, 0.0)
        return _kink_parts(t, grad_f, self.lam, np.copysign(slope, t))


class PowerRegularizer(Regularizer):
    """Convex power penalty g(t) = |t|^p for p in {1.5, 2, 3, 4}.

    Scaled proxes are closed form (quadratic in sqrt(t) for p = 1.5,
    quadratic formula for p = 3, Cardano for p = 4).  These penalties are
    C^1 with derivative p sign(t) |t|^(p-1), so the subdifferential is a
    singleton everywhere.  They back the scalar exponent-fit profiles
    |x|^1.5, |x|^3 and x^4.  Powers go through ``np.float_power``, which
    rounds like the C library's ``pow``.
    """

    kind = "power"
    convex = True
    semiconvex_rho = 0.0
    _SUPPORTED = (1.5, 2.0, 3.0, 4.0)

    def __init__(self, p: float):
        if float(p) not in self._SUPPORTED:
            raise ValueError(f"power penalty supports p in {self._SUPPORTED}")
        self.p = float(p)

    def values(self, T):
        return np.float_power(np.abs(T), self.p)

    def prox(self, v, weights, eps):
        kappa = weights / eps
        p = self.p
        u = np.abs(v)
        if p == 2.0:
            t = kappa * u / (2.0 + kappa)
        elif p == 1.5:
            # kappa r^2 + 1.5 r - kappa u = 0 in r = sqrt(t)
            r = (-1.5 + np.sqrt(2.25 + 4 * kappa * kappa * u)) / (2 * kappa)
            t = r * r
        elif p == 3.0:
            # 3 t^2 + kappa t - kappa u = 0
            t = (-kappa + np.sqrt(kappa * kappa + 12 * kappa * u)) / 6.0
        else:  # p == 4: 4 t^3 + kappa t - kappa u = 0, unique real root
            # Cardano with p = kappa/4 and q = -w, w = kappa u/4: negation
            # is exact, so w stands for -q in every term.  np.cbrt keeps
            # numpy's bits on a scalar too; math.cbrt differs on about half
            # of all inputs
            w = kappa * u / 4.0
            disc = np.sqrt(w * w / 4.0 + np.float_power(kappa / 4.0, 3) / 27.0)
            h = w / 2.0
            t = np.cbrt(h + disc)
            t += np.cbrt(h - disc)
        t = np.copysign(1.0, v) * np.maximum(t, 0.0)
        return _where(u == 0.0, 0.0, t), None

    def subdiff_parts(self, t, grad_f):
        d = self.p * np.copysign(np.float_power(np.abs(t), self.p - 1.0), t)
        return np.abs(grad_f + np.where(t != 0.0, d, 0.0))


class JumpQuadraticRegularizer(Regularizer):
    """Half-quadratic with a downward jump at xbar:

        g(t) = (t - xbar)^2 / 2   for t != xbar,      g(xbar) = -1.

    The sublevel set [g <= g(xbar)] is the singleton {xbar}, the
    subdifferential at any t != xbar is {t - xbar}, and the
    subdifferential at xbar is all of R (the jump makes every slope a
    proximal minorant).  A level-set subdifferential error bound holds at
    xbar with exponent 1 and constant 1, while no Kurdyka-Lojasiewicz
    inequality can hold there: the value gap stays >= 1 as the residual
    vanishes.
    """

    kind = "jump_quadratic"
    convex = False
    semiconvex_rho = math.inf  # the jump defeats any quadratic correction
    continuous = False

    def __init__(self, xbar: float = 0.0):
        self.xbar = float(xbar)
        self._g_const = self.values(np.array([[self.xbar]]))

    def values(self, T):
        R = T - self.xbar  # float_power(R, 2) rounds like (t - xbar) ** 2
        return np.where(R == 0.0, -1.0, 0.5 * np.float_power(R, 2.0))

    def prox(self, v, weights, eps):
        kappa = weights / eps
        C = np.empty((2,) + np.shape(v))
        C[0] = self.xbar
        C[1] = (self.xbar + kappa * v) / (1.0 + kappa)
        return _quadratic_pick(self, C, v, kappa, self._g_const)

    def subdiff_parts(self, t, grad_f):
        return np.where(t == self.xbar, 0.0, np.abs(grad_f + (t - self.xbar)))


# ---------------------------------------------------------------------------
# smooth objectives
# ---------------------------------------------------------------------------

def _quadratic_columns(Q: Array, b: Array):
    """x'Qx/2 + b'x at dimension <= 3 from the columns of x, in one fixed
    order: the per-coordinate terms ((Q_jj/2) x_j + b_j) x_j, then the
    cross terms (Q_jk x_j) x_k for j < k, added left to right.

    The columns may be Python floats (one point), the columns of a batch
    or broadcast grid axes (``np.ix_``): each form rounds every entry
    through the same operations, so a point's bits depend neither on the
    batch nor on the grid it sits in.
    """
    half = [0.5 * q for q in np.diagonal(Q).tolist()]
    lin = b.tolist()
    cross = [(j, k, 0.5 * float(Q[j, k] + Q[k, j]))
             for j in range(len(lin)) for k in range(j + 1, len(lin))]

    def value_columns(cols):
        total = None
        for x, h, c in zip(cols, half, lin):
            term = (h * x + c) * x
            total = term if total is None else total + term
        # the per-coordinate sum has broadcast to the full shape, and it is
        # a fresh array, so the cross terms add in place
        for j, k, q in cross:
            total += (q * cols[j]) * cols[k]
        return total

    return value_columns


# Q x over the support S of x gathers d |S| entries of Q, after a fixed
# overhead of a few microseconds; the dense Q @ x streams all d^2.
# Measured with one BLAS thread, the gather halves the time at d = 500,
# |S| <= 33, breaks even near |S| = 32-40 at d = 300-400 and loses below
# d = 200: it is taken from d = 400 up while |S| <= 32
_SUPPORT_MIN_DIM = 400
_SUPPORT_MAX_NNZ = 32


def _point_or_rows(x: Array, values):
    """f's values over the last axis of x: a Python float for one point."""
    return float(values) if x.ndim == 1 else values


def _hessian_product(Q: Array):
    """x -> Q x over the last axis, each row with the bits of its one-point
    product: ``Q[:, S] @ x[S]`` over the support S of x when d >= 400 and
    |S| <= 32, else the dense ``matvec_rows``.  Columns of Q, not rows: Q
    is symmetric only within ``np.allclose``, and ``x[S] @ Q[S]`` would be
    Q'x.

    The last gathered columns are kept and reused while the support stays
    the same, as a solver's iterates keep theirs for many iterations; they
    hold the same values as a fresh gather, so the bits do not depend on
    the calls before.  The pair (S, Q[:, S]) is replaced as one tuple, so
    threads sharing the function read a matching pair."""
    if len(Q) < _SUPPORT_MIN_DIM:
        return partial(matvec_rows, Q)
    last = [(np.empty(0, dtype=np.intp), Q[:, :0])]

    def support_product(x: Array) -> Array:
        S = x.nonzero()[0]
        if S.size > _SUPPORT_MAX_NNZ:
            return Q @ x
        S_last, Q_S = last[0]
        if S.size != S_last.size or not (S == S_last).all():
            Q_S = Q[:, S]
            last[0] = (S, Q_S)
        return Q_S @ x[S]

    def product(X: Array) -> Array:
        if X.ndim == 1:
            return support_product(X)
        sparse = np.count_nonzero(X, axis=1) <= _SUPPORT_MAX_NNZ
        QX = np.empty(X.shape)
        QX[~sparse] = matvec_rows(Q, X[~sparse])
        for i in np.flatnonzero(sparse):
            QX[i] = support_product(X[i])
        return QX

    return product


def quadratic_objective(Q, b) -> SmoothObjective:
    """f(x) = x'Qx/2 + b'x with L equal to the spectral norm of Q.

    For indefinite Q the gradient-Lipschitz constant is the largest
    eigenvalue magnitude, not the largest signed eigenvalue.  Every Q x
    comes from one ``_hessian_product``, so from dimension 400 up a sparse
    x is multiplied over its support.  At dimension <= 3, f is the column
    formula ``_quadratic_columns``, of Python floats for one point; above
    it, f is x'(Q x)/2 + b'x in two dots per row.
    """
    Q = np.asarray(Q, dtype=float)
    b = as_vector(b)
    if Q.shape != (b.size, b.size) or not np.isfinite(Q).all():
        raise ValueError(f"Q must be a finite {b.size} x {b.size} matrix")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    L = float(np.max(np.abs(eigs)))
    convex = bool(eigs[0] >= -1e-12)
    product = _hessian_product(Q)

    def gradient(x):
        return product(x) + b

    if b.size > 3:
        # BLAS above dimension 3, where no grid oracle compares values
        def value_of(x, Qx):
            return _point_or_rows(x, 0.5 * row_dots(x, Qx) + row_dots(x, b))

        def value(x):
            return value_of(x, product(x))

        def value_and_gradient(x):
            # one Q x for both, with the bits of ``value`` and ``gradient``
            Qx = product(x)
            return value_of(x, Qx), Qx + b

        value_columns = None
    else:
        value_columns = _quadratic_columns(Q, b)

        def value(x):
            return value_columns(x.tolist() if x.ndim == 1 else x.T)

        def value_and_gradient(x):
            return value(x), product(x) + b

    return SmoothObjective(value=value, gradient=gradient, lipschitz_L=L,
                           convex=convex, value_and_gradient=value_and_gradient,
                           value_columns=value_columns)


def zero_objective(dim: int) -> SmoothObjective:
    return SmoothObjective(
        value=lambda x: 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1]),
        gradient=lambda x: np.zeros(x.shape), lipschitz_L=0.0, convex=True)


def logistic_objective(A, labels) -> SmoothObjective:
    """f(x) = sum_i log(1 + exp(-y_i a_i'x)), with L = lam_max(A'A)/4."""
    A = np.asarray(A, dtype=float)
    y = as_vector(labels)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be +-1")
    Ay = A * y[:, None]
    neg_Ay = -Ay
    L = float(np.linalg.eigvalsh(A.T @ A)[-1]) / 4.0

    def value(x):
        # -z = -(Ay x) from one gemv on -Ay: negating every term negates
        # the rounded sum exactly
        negZ = matvec_rows(neg_Ay, x)
        return _point_or_rows(x, np.sum(np.logaddexp(0.0, negZ), axis=-1))

    def gradient(x):
        sig = 1.0 / (1.0 + np.exp(matvec_rows(Ay, x)))  # = exp(-z)/(1 + exp(-z))
        return -matvec_rows(Ay.T, sig)

    return SmoothObjective(value=value, gradient=gradient, lipschitz_L=L,
                           convex=True)


def scalar_profile_objective(profile_id: str) -> SmoothObjective:
    """1-D smooth profiles with certified global L, each one array formula
    over the last axis (x of shape (1,) or (n, 1)).

    "square":        f(x) = x^2                 (convex, L = 2)
    "pl_nonconvex":  f(x) = x^2 + 3 sin(x)^2    (gradient-dominated but
                     nonconvex; f'' = 2 + 6 cos(2x) in [-4, 8], so L = 8)
    """
    if profile_id == "square":
        return SmoothObjective(
            value=lambda x: _point_or_rows(x, (x * x)[..., 0]),
            gradient=lambda x: 2.0 * x, lipschitz_L=2.0, convex=True)
    if profile_id == "pl_nonconvex":
        return SmoothObjective(
            value=lambda x: _point_or_rows(
                x, (x * x + 3.0 * np.sin(x) ** 2)[..., 0]),
            gradient=lambda x: 2.0 * x + 3.0 * np.sin(2.0 * x),
            lipschitz_L=8.0, convex=False)
    raise ValueError(f"unknown scalar profile {profile_id!r}")


def generate_logistic_data(n_rows: int, dim: int, data_seed: int):
    """Deterministic synthetic classification data keyed by data_seed."""
    rng = np.random.default_rng(data_seed)
    A = rng.standard_normal((n_rows, dim))
    w = rng.standard_normal(dim)
    y = np.sign(A @ w + 0.3 * rng.standard_normal(n_rows))
    y[y == 0] = 1.0
    return A, y


# ---------------------------------------------------------------------------
# specs and builders
# ---------------------------------------------------------------------------

_G_BUILDERS = {
    "zero": lambda p: ZeroRegularizer(),
    "l1": lambda p: L1Regularizer(p["lam"]),
    "sq_l2": lambda p: SquaredL2Regularizer(p["lam"]),
    "box": lambda p: BoxRegularizer(p["lo"], p["hi"]),
    "scad": lambda p: ScadRegularizer(p["lam"], p["a"]),
    "mcp": lambda p: McpRegularizer(p["lam"], p["gamma"]),
    "power": lambda p: PowerRegularizer(p["p"]),
    "jump_quadratic": lambda p: JumpQuadraticRegularizer(p.get("xbar", 0.0)),
}


def build_regularizer(g_kind: str, params: Optional[dict] = None) -> Regularizer:
    params = params or {}
    if g_kind not in _G_BUILDERS:
        raise ValueError(f"unknown regularizer kind {g_kind!r}")
    return _G_BUILDERS[g_kind](params)


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a composite instance."""

    name: str
    f_kind: str           # quadratic | logistic | scalar_profile | zero
    f_params: dict
    g_kind: str
    g_params: dict
    dimension: int

    def build(self) -> Problem:
        return build_problem(self)


def build_problem(spec: ProblemSpec) -> Problem:
    if spec.f_kind == "quadratic":
        f = quadratic_objective(spec.f_params["Q"], spec.f_params["b"])
        dim = len(spec.f_params["b"])
    elif spec.f_kind == "logistic":
        p = spec.f_params
        if "A" in p:
            A, y = np.asarray(p["A"], dtype=float), as_vector(p["labels"])
        else:
            A, y = generate_logistic_data(p["n_rows"], spec.dimension,
                                          p.get("data_seed", 7))
        f = logistic_objective(A, y)
        dim = A.shape[1]
    elif spec.f_kind == "scalar_profile":
        f = scalar_profile_objective(spec.f_params["id"])
        dim = 1
    elif spec.f_kind == "zero":
        dim = spec.dimension
        f = zero_objective(dim)
    else:
        raise ValueError(f"unknown smooth kind {spec.f_kind!r}")
    if dim != spec.dimension:
        raise ValueError("declared dimension disagrees with f parameters")
    if "L_override" in spec.f_params:
        f = replace(f, lipschitz_L=float(spec.f_params["L_override"]))
    g = build_regularizer(spec.g_kind, spec.g_params)
    level_bounded = spec.g_kind != "jump_quadratic" or spec.f_kind == "zero"
    return Problem(f=f, g=g, dim=dim, name=spec.name,
                   level_bounded=level_bounded)


def least_squares_spec(name: str, A, b, g_kind: str,
                       g_params: dict) -> ProblemSpec:
    """Least squares ||Ax - b||^2 / 2 plus g as a quadratic spec."""
    A = np.asarray(A, dtype=float)
    b = as_vector(b)
    if A.ndim != 2:
        raise ValueError("lasso A must be a matrix")
    Q = A.T @ A
    c = -(A.T @ b)
    return ProblemSpec(name=name, f_kind="quadratic",
                       f_params={"Q": Q, "b": c}, g_kind=g_kind,
                       g_params=g_params, dimension=A.shape[1])


def lasso_spec(name: str, A, b, lam: float) -> ProblemSpec:
    """Least squares plus lam ||x||_1 (``least_squares_spec``)."""
    return least_squares_spec(name, A, b, "l1", {"lam": lam})


def jump_spec(xbar: float = 0.0) -> ProblemSpec:
    return ProblemSpec(name="jump_counterexample", f_kind="zero", f_params={},
                       g_kind="jump_quadratic", g_params={"xbar": xbar},
                       dimension=1)


def power_profile_spec(p: float) -> ProblemSpec:
    return ProblemSpec(name=f"profile_pow{p:g}", f_kind="zero", f_params={},
                       g_kind="power", g_params={"p": p}, dimension=1)


# ---------------------------------------------------------------------------
# grid oracle for scalar proxes
# ---------------------------------------------------------------------------

class GridProxOracle:
    """Brute-force argmin of h(t) = g(t) + (w/(2 eps))(t - v)^2 over a
    dense grid.

    Penalty values over the grid are precomputed once, so repeated queries
    with fresh (v, weight, eps) triples stay cheap.  Used as the
    independent reference for every closed-form scalar prox: it evaluates
    g only on the grid and uses no closed form.

    The search is exact but pruned.  The grid is cut into blocks of
    ``_BLOCK`` consecutive nodes (the last block ends at the last node and
    may overlap the one before it), and the lower bound of h over a block
    is the block's smallest g plus c (t - v)^2 at the point of the block
    interval nearest v (c = w/(2 eps)).  With ub the smallest h over the
    block of least bound, only the blocks whose bound is at most ub can
    hold a minimizer; every other node is strictly worse than ub.  The
    bound is built from the same rounded operations as h on arguments no
    larger than a node's, so it never exceeds the rounded h of any node
    in its block and needs no padding.  The searched h values are the
    full grid's values elementwise, so a query returns the same (t, h)
    bits and, on ties, the same first node as an argmin over the whole
    grid.
    """

    _BLOCK = 256
    _CHUNK_ELEMS = 2 ** 18  # float64 elements per block-bound array

    def __init__(self, g: Regularizer, lo: float = -10.0, hi: float = 10.0,
                 resolution: float = 1e-4):
        n = int(round((hi - lo) / resolution)) + 1
        self.grid = np.linspace(lo, hi, n)
        self.gvals = g.values(self.grid)
        self.resolution = resolution
        # the blocks are windows of B nodes into grid and gvals, not copies
        B = self._width = min(self._BLOCK, n)
        self._starts = np.minimum(np.arange(0, n, B), n - B)
        self._t = np.lib.stride_tricks.sliding_window_view(self.grid, B)
        self._g = np.lib.stride_tricks.sliding_window_view(self.gvals, B)
        self._lo = self.grid[self._starts]
        self._hi = self.grid[self._starts + B - 1]
        self._gmin = np.minimum.reduceat(self.gvals, np.arange(0, n, B))
        self._gmin[-1] = self.gvals[self._starts[-1]:].min()

    def argmin_many(self, V, W, EPS) -> tuple[Array, Array]:
        """Grid minimizer t and value h for each (v, w, eps) of the
        broadcast 1-D arrays V, W and EPS: the first node of least
        g(t) + (w/(2 eps))(t - v)^2."""
        V, W, EPS = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                          for a in (V, W, EPS)))
        ok = np.isfinite(V).all() and (W >= 0).all() and (EPS > 0).all()
        C = W / (2.0 * EPS) if ok else None
        if C is None or not np.isfinite(C).all():
            # the block bounds hold for finite v and finite w/eps >= 0 only
            raise ValueError("grid oracle queries need finite v, w >= 0 and "
                             "eps > 0")
        T, H = np.empty(V.size), np.empty(V.size)
        rows = max(1, self._CHUNK_ELEMS // self._gmin.size)
        for s in range(0, V.size, rows):
            v, c = V[s:s + rows, None], C[s:s + rows, None]
            bound = self._gmin + c * (np.clip(v, self._lo, self._hi) - v) ** 2
            first = self._starts[bound.argmin(axis=1)]
            ub = (self._g[first] + c * (self._t[first] - v) ** 2).min(axis=1)
            # candidate (query, block) pairs, blocks ascending per query
            q, b = np.nonzero(bound <= ub[:, None])
            h_pair, j_pair = self._block_minima(v[:, 0], c[:, 0], q, b)
            h_min = np.minimum.reduceat(
                h_pair, np.flatnonzero(np.r_[True, q[1:] != q[:-1]]))
            # the first block reaching the minimum holds the first node
            hit = np.flatnonzero(h_pair == h_min[q])
            hit = hit[np.r_[True, q[hit][1:] != q[hit][:-1]]]
            T[s:s + rows] = self.grid[j_pair[hit]]
            H[s:s + rows] = h_min
        return T, H

    def _block_minima(self, v: Array, c: Array, q: Array,
                      b: Array) -> tuple[Array, Array]:
        """Least h over block b[k] for query q[k], and its first node."""
        h_min, j_min = np.empty(q.size), np.empty(q.size, dtype=np.intp)
        step = self._CHUNK_ELEMS // self._width
        for k in range(0, q.size, step):
            qq, ss = q[k:k + step], self._starts[b[k:k + step]]
            h = self._g[ss] + c[qq, None] * (self._t[ss] - v[qq, None]) ** 2
            j = h.argmin(axis=1)
            h_min[k:k + step] = h[np.arange(j.size), j]
            j_min[k:k + step] = ss + j
        return h_min, j_min


# ---------------------------------------------------------------------------
# shipped desk-scale instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShippedInstance:
    """A level-bounded instance with an admissible default configuration."""

    spec: ProblemSpec
    config: SolverConfig
    x0: tuple
    sample_halfwidth: float

    def problem(self) -> Problem:
        return self.spec.build()

    def start(self) -> Array:
        return np.array(self.x0, dtype=float)

    def box_center(self) -> Array:
        return np.zeros(self.spec.dimension)


def shipped_instances() -> dict[str, ShippedInstance]:
    """Registry used by the invariant suite and the acceptance tests."""
    euclid = KernelSpec.euclidean()
    reg: dict[str, ShippedInstance] = {}

    # LASSO, both coordinates active at the solution x* = (0.5, 0.3)
    reg["lasso2"] = ShippedInstance(
        spec=lasso_spec("lasso2", np.eye(2), [1.0, 0.8], 0.5),
        config=SolverConfig.constant(0.5, euclid, max_iters=400),
        x0=(3.0, -2.0), sample_halfwidth=2.0)

    # convex quadratic + MCP (L ~= 2.08, rho = 0.25)
    reg["quad_conv_mcp"] = ShippedInstance(
        spec=ProblemSpec("quad_conv_mcp", "quadratic",
                         {"Q": [[2.0, 0.3], [0.3, 1.0]], "b": [0.5, -0.4]},
                         "mcp", {"lam": 0.6, "gamma": 4.0}, 2),
        config=SolverConfig.constant(0.4, euclid, max_iters=600),
        x0=(1.5, 1.0), sample_halfwidth=2.0)

    # convex quadratic + SCAD (L ~= 1.57, rho = 1/2.7)
    reg["quad_conv_scad"] = ShippedInstance(
        spec=ProblemSpec("quad_conv_scad", "quadratic",
                         {"Q": [[1.0, 0.2], [0.2, 1.5]], "b": [-0.3, 0.2]},
                         "scad", {"lam": 0.5, "a": 3.7}, 2),
        config=SolverConfig.constant(0.5, euclid, max_iters=600),
        x0=(-1.0, 1.2), sample_halfwidth=2.0)

    # box-constrained convex quadratic under a diagonal kernel
    reg["box_quad"] = ShippedInstance(
        spec=ProblemSpec("box_quad", "quadratic",
                         {"Q": [[1.2, 0.4], [0.4, 0.9]], "b": [1.0, -1.5]},
                         "box", {"lo": -1.0, "hi": 1.0}, 2),
        config=SolverConfig(epsilons=(0.6,),
                            kernels=(KernelSpec.diagonal([1.5, 1.0]),),
                            max_iters=600),
        x0=(0.2, 0.9), sample_halfwidth=0.98)

    # logistic regression + l1, seeded synthetic data; the step size is
    # derived from the certified L of the generated instance
    logit_spec = ProblemSpec("logistic_l1", "logistic",
                             {"n_rows": 12, "data_seed": 7},
                             "l1", {"lam": 0.15}, 2)
    logit_L = logit_spec.build().f.lipschitz_L
    reg["logistic_l1"] = ShippedInstance(
        spec=logit_spec,
        config=SolverConfig.constant(0.8 / logit_L, euclid, max_iters=800),
        x0=(0.5, -0.5), sample_halfwidth=2.0)

    # gradient-dominated but nonconvex scalar profile, g = 0
    reg["pl_profile"] = ShippedInstance(
        spec=ProblemSpec("pl_profile", "scalar_profile",
                         {"id": "pl_nonconvex"}, "zero", {}, 1),
        config=SolverConfig.constant(0.1, euclid, max_iters=800),
        x0=(2.5,), sample_halfwidth=3.0)

    # jump counterexample: solve is trivial, shipped for the probe layer
    reg["jump"] = ShippedInstance(
        spec=jump_spec(0.0),
        config=SolverConfig.constant(0.5, euclid, max_iters=50),
        x0=(0.8,), sample_halfwidth=0.9)

    # convex power profiles for exponent fits; the quartic's prox sequence
    # decays only polynomially near its flat minimizer, so its stopping
    # tolerance is looser
    reg["pow15"] = ShippedInstance(
        spec=power_profile_spec(1.5),
        config=SolverConfig.constant(0.5, euclid, max_iters=400),
        x0=(1.0,), sample_halfwidth=1.5)
    reg["pow4"] = ShippedInstance(
        spec=power_profile_spec(4.0),
        config=SolverConfig.constant(0.5, euclid, max_iters=6000,
                                     step_tol=1e-6),
        x0=(1.0,), sample_halfwidth=1.5)

    return reg
