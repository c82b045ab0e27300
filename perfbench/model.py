"""Reference formulas for the benchmark, written in numpy apart from vbpg.

Every problem the benchmark runs is a composite F = f + g with a quadratic
f(x) = x'Qx/2 + c'x (or f = 0) and a coordinate-separable penalty g.  The
output checks recompute values, subdifferential distances, proxes and
minimizers from these formulas, so a fault in vbpg's own formulas cannot
make its outputs look right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def g_values(kind: str, p: dict, X: np.ndarray) -> np.ndarray:
    """Elementwise penalty values g(t) on an array of coordinates."""
    U = np.abs(X)
    if kind == "zero":
        return np.zeros_like(U)
    if kind == "l1":
        return p["lam"] * U
    if kind == "mcp":
        lam, gam = p["lam"], p["gamma"]
        return np.where(U <= gam * lam, lam * U - U * U / (2 * gam),
                        0.5 * gam * lam * lam)
    if kind == "scad":
        lam, a = p["lam"], p["a"]
        mid = (2 * a * lam * U - U * U - lam * lam) / (2 * (a - 1))
        return np.where(U <= lam, lam * U,
                        np.where(U <= a * lam, mid, 0.5 * lam * lam * (a + 1)))
    if kind == "jump_quadratic":
        R = X - p.get("xbar", 0.0)
        return np.where(R == 0.0, -1.0, 0.5 * R * R)
    raise ValueError(f"no reference formula for penalty {kind!r}")


def g_derivative(kind: str, p: dict, T: np.ndarray) -> np.ndarray:
    """g'(t) at coordinates t != 0 (t != xbar for the jump penalty)."""
    S, U = np.sign(T), np.abs(T)
    if kind == "zero":
        return np.zeros_like(T)
    if kind == "l1":
        return p["lam"] * S
    if kind == "mcp":
        return S * np.maximum(p["lam"] - U / p["gamma"], 0.0)
    if kind == "scad":
        lam, a = p["lam"], p["a"]
        return S * np.where(U <= lam, lam,
                            np.where(U <= a * lam, (a * lam - U) / (a - 1), 0.0))
    if kind == "jump_quadratic":
        return T - p.get("xbar", 0.0)
    raise ValueError(f"no reference formula for penalty {kind!r}")


def subdiff_dist(kind: str, p: dict, x: np.ndarray, grad: np.ndarray) -> float:
    """dist(0, grad f(x) + subdiff g(x)) for separable g.

    At t = 0 the l1, MCP and SCAD subdifferentials are [-lam, lam]; at the
    jump point every slope is a subgradient."""
    if kind == "jump_quadratic":
        at_jump = x == p.get("xbar", 0.0)
        r = np.where(at_jump, 0.0, np.abs(grad + g_derivative(kind, p, x)))
    elif kind == "zero":
        r = np.abs(grad)
    else:
        r = np.where(x == 0.0, np.maximum(np.abs(grad) - p["lam"], 0.0),
                     np.abs(grad + g_derivative(kind, p, x)))
    return float(np.linalg.norm(r))


# vbpg's documented tie rule for penalties whose prox enumerates candidates:
# values within 1e-10 (1 + |min|) of the minimum tie, and the candidate of
# smallest |t| (then smallest t) wins
TIE_TOL = 1e-10


def _tie_break(cands: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Pick along the last axis by the tie rule; h holds the values."""
    best = h.min(axis=-1, keepdims=True)
    tied = h <= best + TIE_TOL * (1.0 + np.abs(best))
    size = np.where(tied, np.abs(cands), np.inf)
    first = tied & (size == size.min(axis=-1, keepdims=True))
    return np.where(first, cands, np.inf).min(axis=-1)


def prox_euclid(kind: str, p: dict, v: np.ndarray, eps: float) -> np.ndarray:
    """argmin_t g(t) + (t - v)^2 / (2 eps), coordinatewise.

    MCP uses firm thresholding, the unique minimizer when gamma > eps; the
    jump penalty has two candidates.  For both, the tie rule then lets a
    candidate of smaller |t| whose value is within TIE_TOL take over."""
    if kind == "zero":
        return v.copy()
    if kind == "l1":
        return np.sign(v) * np.maximum(np.abs(v) - eps * p["lam"], 0.0)
    if kind == "mcp":
        lam, gam = p["lam"], p["gamma"]
        if not gam > eps:
            raise ValueError("firm thresholding needs gamma > eps")
        U = np.abs(v)
        mid = np.sign(v) * (U - eps * lam) / (1.0 - eps / gam)
        firm = np.where(U <= eps * lam, 0.0, np.where(U <= gam * lam, mid, v))
        kinks = [np.zeros_like(v), np.full_like(v, gam * lam), np.full_like(v, -gam * lam)]
        cands = np.stack([firm] + kinks, axis=-1)
    elif kind == "jump_quadratic":
        xbar = p.get("xbar", 0.0)
        smooth = (xbar + v / eps) / (1.0 + 1.0 / eps)
        cands = np.stack([np.full_like(v, xbar), smooth], axis=-1)
    else:
        raise ValueError(f"no reference prox for penalty {kind!r}")
    h = g_values(kind, p, cands) + (cands - v[..., None]) ** 2 / (2.0 * eps)
    return _tie_break(cands, h)


@dataclass
class Composite:
    """F(x) = x'Qx/2 + c'x + sum_i g(x_i)."""

    Q: np.ndarray
    c: np.ndarray
    g: str
    gp: dict

    @property
    def dim(self) -> int:
        return self.c.size

    def F(self, X: np.ndarray) -> np.ndarray:
        """F on a point (returns a 0-d array) or on the rows of a matrix."""
        X = np.asarray(X, dtype=float)
        f = 0.5 * np.sum((X @ self.Q) * X, axis=-1) + X @ self.c
        return f + np.sum(g_values(self.g, self.gp, X), axis=-1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.Q @ x + self.c

    def subdiff_dist(self, x: np.ndarray) -> float:
        return subdiff_dist(self.g, self.gp, x, self.grad(x))

    def is_convex(self) -> bool:
        lmin = float(np.linalg.eigvalsh(self.Q)[0]) if self.dim else 0.0
        if self.g in ("zero", "l1"):
            return lmin >= 0.0
        if self.g == "mcp":
            return lmin >= 1.0 / self.gp["gamma"]
        return False


def from_config(cfg: dict) -> Composite:
    """The composite a vbpg config document describes (lasso, quadratic
    and jump problems; the ones the benchmark runs)."""
    pc = cfg["problem"]
    params = dict(pc.get("params", {}))
    g_cfg = params.pop("g", {"kind": "zero"})
    gp = {k: float(v) for k, v in g_cfg.items() if k != "kind"}
    if pc["kind"] == "lasso":
        A = np.asarray(params["A"], dtype=float)
        b = np.asarray(params["b"], dtype=float)
        return Composite(A.T @ A, -(A.T @ b), "l1", {"lam": float(params["lam"])})
    if pc["kind"] == "quadratic":
        return Composite(np.asarray(params["Q"], dtype=float),
                         np.asarray(params["b"], dtype=float),
                         g_cfg.get("kind", "zero"), gp)
    if pc["kind"] == "jump":
        return Composite(np.zeros((1, 1)), np.zeros(1), "jump_quadratic",
                         {"xbar": float(params.get("xbar", 0.0))})
    raise ValueError(f"no reference model for problem kind {pc['kind']!r}")


def closed_form_minimizer(cfg: dict) -> np.ndarray:
    """Global minimizer of a config's problem, from its optimality
    conditions.  Refuses problems whose minimizer has no closed form here.
    """
    comp = from_config(cfg)
    pc = cfg["problem"]
    if comp.g == "jump_quadratic":
        return np.array([comp.gp["xbar"]])
    if pc["kind"] == "lasso":
        if not np.allclose(comp.Q, np.eye(comp.dim), rtol=0, atol=1e-15):
            raise ValueError("closed-form lasso minimizer needs A'A = I")
        v = -comp.c  # A'b
        return np.sign(v) * np.maximum(np.abs(v) - comp.gp["lam"], 0.0)
    if comp.g == "zero":
        return np.linalg.solve(comp.Q, -comp.c)
    if comp.g == "mcp" and comp.is_convex():
        # F is convex; 0 is a minimizer iff |c_i| <= lam for every i
        if np.all(np.abs(comp.c) <= comp.gp["lam"]):
            return np.zeros(comp.dim)
    raise ValueError("no closed-form minimizer for this problem")


def fista_l1(Q: np.ndarray, c: np.ndarray, lam: float, L: float,
             iters: int = 3000) -> np.ndarray:
    """Minimizer of x'Qx/2 + c'x + lam ||x||_1: FISTA with gradient
    restarts, then an exact solve of the optimality system on the support
    it found (kept only if it is at least as good)."""
    x = np.zeros(c.size)
    y, t = x.copy(), 1.0
    F = lambda z: 0.5 * z @ (Q @ z) + c @ z + lam * np.abs(z).sum()
    for _ in range(iters):
        v = y - (Q @ y + c) / L
        x_new = np.sign(v) * np.maximum(np.abs(v) - lam / L, 0.0)
        if (y - x_new) @ (x_new - x) > 0:  # restart on a non-descent step
            t = 1.0
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    S = np.flatnonzero(x)
    if S.size:
        polished = np.zeros_like(x)
        polished[S] = np.linalg.solve(Q[np.ix_(S, S)],
                                      -c[S] - lam * np.sign(x[S]))
        if np.all(np.sign(polished[S]) == np.sign(x[S])) and F(polished) <= F(x):
            x = polished
    return x


def sublevel_boundary(comp: Composite, x_star: np.ndarray, F_bar: float,
                      n_dirs: int = 1 << 16, r_max: float = 10.0) -> np.ndarray:
    """Dense sample of the boundary of [F <= F_bar] for a convex 2-D F
    with minimizer x_star, one point per direction, by bisection along
    rays (a convex sublevel set is star-shaped about its minimizer)."""
    if comp.dim != 2 or not comp.is_convex():
        raise ValueError("boundary sampling needs a convex 2-D problem")
    th = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
    if np.any(comp.F(x_star + r_max * U) <= F_bar):
        raise ValueError("sublevel set reaches the search radius")
    lo, hi = np.zeros(n_dirs), np.full(n_dirs, r_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        inside = comp.F(x_star + mid[:, None] * U) <= F_bar
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return x_star + lo[:, None] * U


def nearest_distance(X: np.ndarray, P: np.ndarray, chunk: int = 64) -> np.ndarray:
    """min_j ||x_i - P_j|| for every row x_i of X (brute force)."""
    out = np.empty(X.shape[0])
    for i in range(0, X.shape[0], chunk):
        D = X[i:i + chunk, None, :] - P[None, :, :]
        out[i:i + chunk] = np.sqrt(np.min(np.sum(D * D, axis=2), axis=1))
    return out
