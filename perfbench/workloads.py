"""Seeded inputs of the three workloads, in plain numpy.

The worker turns these into vbpg objects and command lines; the checker
regenerates the same inputs from the same seed to judge the outputs.
vbpg never sees the seed, only what is generated from it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from model import Composite, closed_form_minimizer, from_config

WORKLOADS = ("solve_large", "probe_campaign", "check_suite")

STEP_TOL = 1e-8
EPS_SHARE = 0.9           # eps = 0.9 min(m/L, m/rho)
QUAD_KERNEL_SHIFT = 0.1   # quadratic kernel A'A + c I


@dataclass
class SolveInstance:
    name: str
    comp: Composite
    kernel: str               # euclidean | diagonal | quadratic
    kernel_data: np.ndarray | None
    L: float
    m: float
    M: float
    eps: float


def sparse_least_squares(rng, d: int, n: int, k: int, noise: float = 0.05):
    """||Ax - b||^2/2 with Gaussian A (columns of norm ~1) and a k-sparse
    planted signal, as x'Qx/2 + c'x (the constant ||b||^2/2 dropped)."""
    A = rng.standard_normal((n, d)) / np.sqrt(n)
    x = np.zeros(d)
    support = rng.choice(d, k, replace=False)
    x[support] = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 2.0, k)
    b = A @ x + noise * rng.standard_normal(n)
    return A.T @ A, -(A.T @ b)


def _eps(m: float, L: float, rho: float) -> float:
    return EPS_SHARE * min(m / L, m / rho if rho > 0 else np.inf)


def solve_large_inputs(seed: int) -> list:
    """Six d = 500 runs (l1, MCP, SCAD under euclidean and diagonal
    kernels) and two l1 runs under the quadratic kernel A'A + cI at
    d = 50 and d = 200."""
    rng = np.random.default_rng([seed, 0])
    Q, c = sparse_least_squares(rng, 500, 2000, 25)
    L = float(np.linalg.eigvalsh(Q)[-1])
    lam = 0.1 * float(np.max(np.abs(c)))
    penalties = [("l1", {"lam": lam}, 0.0),
                 ("mcp", {"lam": lam, "gamma": 3.0}, 1.0 / 3.0),
                 ("scad", {"lam": lam, "a": 3.7}, 1.0 / 2.7)]
    diag = np.diagonal(Q).copy()
    out = []
    for g, gp, rho in penalties:
        comp = Composite(Q, c, g, gp)
        out.append(SolveInstance(f"{g}_d500_euclidean", comp, "euclidean",
                                 None, L, 1.0, 1.0, _eps(1.0, L, rho)))
        m, M = float(diag.min()), float(diag.max())
        out.append(SolveInstance(f"{g}_d500_diagonal", comp, "diagonal",
                                 diag, L, m, M, _eps(m, L, rho)))
    for d in (50, 200):
        Qd, cd = sparse_least_squares(rng, d, 4 * d, d // 20)
        eig = np.linalg.eigvalsh(Qd)
        Ld = float(eig[-1])
        A_K = Qd + QUAD_KERNEL_SHIFT * np.eye(d)
        m, M = float(eig[0]) + QUAD_KERNEL_SHIFT, Ld + QUAD_KERNEL_SHIFT
        comp = Composite(Qd, cd, "l1", {"lam": 0.1 * float(np.max(np.abs(cd)))})
        out.append(SolveInstance(f"l1_d{d}_quadratic", comp, "quadratic", A_K,
                                 Ld, m, M, _eps(m, Ld, 0.0)))
    return out


SHIPPED_PROBES = ("lasso", "quad_mcp", "quadratic_probe", "jump_probe")
# Off-minimizer slices.  lasso keeps the fixed center (1, 1), at F* + 0.37:
# with a seeded direction, lasso and quad_mcp slices end some probes in an
# OverflowError (a fitted gamma near 0 in check_subdiff_implies_prox_eb),
# so there only the sampling seed varies.  quadratic_probe takes a seeded
# direction at F* + 0.3.
LASSO_OFF_CENTER = (1.0, 1.0)
QUADRATIC_OFF_DELTA = 0.3


@dataclass
class ProbeOp:
    name: str
    cfg: dict
    config_path: Path | None   # None: generated, written by the worker
    cli_seed: int
    off_minimizer: bool


def off_minimizer_center(cfg: dict, delta: float, rng) -> np.ndarray:
    """A point at value F* + delta in a seeded direction from the
    minimizer, so the sublevel set [F <= F(center)] is the same region for
    every seed and only the slice's place on its boundary moves."""
    comp = from_config(cfg)
    x_star = closed_form_minimizer(cfg)
    F_star = float(comp.F(x_star))
    u = rng.standard_normal(comp.dim)
    u /= np.linalg.norm(u)
    hi = 1.0
    while comp.F(x_star + hi * u) < F_star + delta:
        hi *= 2.0
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if comp.F(x_star + mid * u) < F_star + delta:
            lo = mid
        else:
            hi = mid
    return x_star + hi * u


def probe_inputs(seed: int, root: Path) -> list:
    """The four shipped probe configs, then two generated slices around a
    center that is not a minimizer."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for name in SHIPPED_PROBES:
        path = root / "configs" / f"{name}.json"
        cfg = json.loads(path.read_text())
        ops.append(ProbeOp(name, cfg, path, int(rng.integers(2 ** 31 - 1)),
                           False))
    by_name = {op.name: op.cfg for op in ops}
    lasso = copy.deepcopy(by_name["lasso"])
    lasso["probe"]["center"] = list(LASSO_OFF_CENTER)
    quad = copy.deepcopy(by_name["quadratic_probe"])
    quad["probe"]["center"] = off_minimizer_center(
        quad, QUADRATIC_OFF_DELTA, rng).tolist()
    for name, cfg in (("lasso_offmin", lasso), ("quadratic_offmin", quad)):
        ops.append(ProbeOp(name, cfg, None, int(rng.integers(2 ** 31 - 1)), True))
    return ops


@dataclass
class CheckSuiteInputs:
    check_seed: int
    compare_seed: int
    compare_config: Path


def check_suite_inputs(seed: int, root: Path) -> CheckSuiteInputs:
    rng = np.random.default_rng([seed, 2])
    return CheckSuiteInputs(int(rng.integers(2 ** 31 - 1)),
                            int(rng.integers(2 ** 31 - 1)),
                            root / "configs" / "compare_kernels.json")
