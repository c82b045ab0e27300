#!/usr/bin/env python3
"""Run the CLI artifacts of two source trees and diff them.

    python scripts/artifact_diff.py PARENT_SRC CHANGE_SRC --seeds 7 4242

PARENT_SRC and CHANGE_SRC are checkouts (or their ``src`` directories).
For each seed, both trees run the same commands in fresh processes:
``solve`` on every config in ``configs/``, ``probe`` on the four shipped
probe configs plus two off-minimizer slices (``lasso`` at center [1, 1]
and ``quadratic_probe`` at [0.9, -0.2]), ``probe`` on ``lasso`` with
``solver.trace_every = 3`` (the level-set rate then reads thinned
iterates), ``probe`` on ``quad_mcp`` at ``solver.epsilon = 0.6``,
beyond its m/L = 0.480 (the records gated on a step-size clause),
``solve`` and ``probe`` on
``quad_mcp`` under the non-diagonal kernel [[1.3, 0.2], [0.2, 1.0]] (the
iterative prox path, which no shipped config takes), ``solve`` and
``check`` on a generated sparse lasso at d = 500 (above dimension 3,
where f multiplies by Q over the iterate's support and the solver
check prices its bound with the run's own final F), ``solve`` on the same data under MCP
(gamma = 3) and SCAD (a = 3.7), ``solve`` on a generated sparse lasso
at d = 50 under the kernel A'A + 0.1 I, and on the same data under MCP
and SCAD (the iterative prox path over many outer iterations, convex
and nonconvex, where each inner solve starts from the prox point
predicted from the last steps), ``solve`` and ``probe`` on the
nonconvex scalar profile ``pl_nonconvex`` (probed off its minimizer, at
0.7), ``solve`` on the power profiles ``pow4`` and ``abs_pow_3_2`` (d = 1
runs whose prox works on the point's coordinate, a numpy scalar), and
on ``pow4`` under the one-entry kernels ``{"kind": "diagonal", "d":
[1.0]}`` and ``{"kind": "quadratic", "A": [[1.0]]}`` (the same scalar
path under a separable kernel other than the euclidean one), ``probe``
on a 3-D lasso off its minimizer, on a logistic loss with l1 and on an
indefinite quadratic on a box whose ``L_override`` is far below its
curvature (the sublevel grid's cell bounds at d = 3, on an f without a
column formula and under an overridden L), ``check`` and ``compare``.

Each artifact prints "identical", or each moved CSV column or JSON field
with its largest absolute change (inf when a value is not a finite
number on both sides, unless it is NaN on both), or the first line where
another file differs.  In JSON paths, a list of records that carry
``name`` and ``instance`` is keyed by that pair, as in
"records[gap_identity/lasso2].worst", and a change in the order of its
records prints a line of its own; the indices of any other list are
folded into "[]".  A run's stdout and stderr
are compared as two more artifacts, ``stdout.txt`` and ``stderr.txt``.
``manifest.json`` holds a timestamp and is skipped.  A run that writes
no artifact, exits nonzero on either side or exits differently on the two
sides is reported too.  The script exits 0 only when every run exited as
expected (0, or 5 for ``solve`` on the kernel-comparison config, whose
step size diverges under the default kernel) on both sides with identical
artifacts, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PROBE_CONFIGS = ("lasso", "quad_mcp", "quadratic_probe", "jump_probe")
OFF_MINIMIZER = {"lasso_offmin": ("lasso", [1.0, 1.0]),
                 "quadratic_offmin": ("quadratic_probe", [0.9, -0.2])}
# the lasso probe keeping every third iterate: these runs show what moves
# with the trace's thinning, which every other run leaves at 1
THINNED = ("lasso", 3)
# the quad_mcp probe at a step beyond its m/L = 0.480: these runs show
# what moves with the records gated on the m/L clause, which every other
# probe meets
BEYOND_M_OVER_L = ("quad_mcp", 0.6)
# a shipped problem under a non-separable kernel: its prox is solved
# iteratively, so these runs show what moves with the inner solver
NON_SEPARABLE = ("quad_mcp", {"kind": "quadratic",
                              "A": [[1.3, 0.2], [0.2, 1.0]]})
# a seeded 5-sparse lasso with 100 rows at d = 500, solved from x0 = 0:
# 363 of its 427 iterates have at most 32 nonzeros, so its run shows what
# moves with the product by Q over the support above dimension 3
SPARSE_LASSO = {"rows": 100, "dim": 500, "support": 5, "data_seed": 2024}
# the same data under the folded-concave penalties, with their moduli rho:
# these runs show what moves with the MCP and SCAD proxes at d = 500
SPARSE_PENALTIES = {"mcp": ({"kind": "mcp", "gamma": 3.0}, 1.0 / 3.0),
                    "scad": ({"kind": "scad", "a": 3.7}, 1.0 / 2.7)}
# a seeded 2-sparse lasso with 200 rows at d = 50 under the kernel
# A'A + 0.1 I at eps = 0.9 m/L, from x0 = 0, as the benchmark's
# quadratic-kernel runs, and the same data under the ``SPARSE_PENALTIES``
# at eps = 0.9 min(m/L, m/rho): each of their inner solves starts from
# the prox point predicted from the last steps, so these runs show what
# moves with that start
QUAD_KERNEL_LASSO = {"rows": 200, "dim": 50, "support": 2, "data_seed": 2025,
                     "shift": 0.1}
# f(x) = x^2 + 3 sin(x)^2 from x0 = 2.5, as the invariant suite's
# pl_profile, probed at 0.7 rather than at its minimizer: these runs show
# what moves with the scalar profiles' formula, which no shipped config uses
PL_PROFILE = {"problem": {"kind": "profile", "params": {"id": "pl_nonconvex"}},
              "solver": {"epsilon": 0.1, "kernel": {"kind": "euclidean"}},
              "x0": [2.5], "probe": {"center": [0.7]}}
# the power profiles |x|^p from x0 = 1, as the invariant suite's pow4 and
# pow15: their trace.csv shows what moves with the one-entry prox, which
# solves on the point's coordinate as a numpy scalar
POWER_PROFILES = {
    "pow4": {"epsilon": 0.5, "step_tol": 1e-6, "max_iters": 6000},
    "abs_pow_3_2": {"epsilon": 0.5, "max_iters": 400}}
# pow4 again under the one-entry kernels of weight 1, whose trace.csv is
# the euclidean run's: these runs show what moves with the scalar path
# under a separable kernel other than the euclidean one
ONE_ENTRY_KERNELS = {"diagonal": {"kind": "diagonal", "d": [1.0]},
                     "quadratic": {"kind": "quadratic", "A": [[1.0]]}}
# probes whose sublevel grids take the other paths of the cell bounds on
# F: d = 3 (A = I, centered off the minimizer), a logistic f, which has no
# column formula (40 rows, L = 13.35, eps = 0.06 < 1/L), and f = x2^2 -
# x1^2/2 on the box [-1, 1]^2 with L_override 0.01, far below the
# curvature 2 that the bounds read; the solve ends at the corner (-1, 0)
_PROBE = {"eta": 0.5, "n_samples": 200}
CELL_BOUND_PROBES = {
    "lasso3_offmin": {
        "problem": {"kind": "lasso", "params": {
            "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            "b": [1.0, 0.8, -0.9], "lam": 0.5}},
        "solver": {"epsilon": 0.5, "kernel": {"kind": "euclidean"},
                   "max_iters": 400, "step_tol": 1e-9},
        "x0": [0.0, 0.0, 0.0],
        "probe": {**_PROBE, "center": [1.0, 1.0, 0.0]}},
    "logistic_l1": {
        "problem": {"kind": "logistic", "params": {
            "n_rows": 40, "data_seed": 3, "g": {"kind": "l1", "lam": 0.5}}},
        "solver": {"epsilon": 0.06, "kernel": {"kind": "euclidean"},
                   "max_iters": 2000, "step_tol": 1e-10},
        "x0": [1.0, -1.0], "probe": {**_PROBE, "center": "solve"}},
    "box_quadratic_L_override": {
        "problem": {"kind": "quadratic", "params": {
            "Q": [[-1.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0],
            "g": {"kind": "box", "lo": -1.0, "hi": 1.0},
            "L_override": 0.01}},
        "solver": {"epsilon": 0.5, "kernel": {"kind": "euclidean"},
                   "max_iters": 400, "step_tol": 1e-12},
        "x0": [-0.5, 0.5], "probe": {**_PROBE, "center": "solve"}},
}
SKIPPED = {"manifest.json"}
STREAMS = ("stdout.txt", "stderr.txt")
# exit codes other than 0 that a run is documented to end in: solve on the
# kernel-comparison config runs eps = 0.9 > m/L under the default kernel,
# and F diverges (exit 5, numerical failure)
EXPECTED_EXIT = {"solve-compare_kernels": 5}


def _sparse_data(spec: dict = SPARSE_LASSO):
    """The data of ``spec`` (``SPARSE_LASSO`` by default): A with entries
    +-1/sqrt(rows), b = A x + noise for a planted sparse x, lam = 0.1
    max|A'b| and L = ||A'A||."""
    n, d, k = (spec[key] for key in ("rows", "dim", "support"))
    rng = np.random.default_rng(spec["data_seed"])
    A = rng.choice([-1.0, 1.0], (n, d)) / math.sqrt(n)
    x = np.zeros(d)
    x[rng.choice(d, k, replace=False)] = (rng.choice([-1.0, 1.0], k)
                                          * rng.uniform(1.0, 2.0, k))
    b = A @ x + 0.05 * rng.standard_normal(n)
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    return A, b, 0.1 * float(np.max(np.abs(A.T @ b))), L


def _sparse_solver(eps: float) -> dict:
    return {"epsilon": eps, "kernel": {"kind": "euclidean"},
            "max_iters": 2000, "step_tol": 1e-9}


def sparse_lasso_config() -> dict:
    """The ``SPARSE_LASSO`` run: l1 at eps = 0.9/L."""
    A, b, lam, L = _sparse_data()
    return {"problem": {"kind": "lasso", "params": {
                "A": A.tolist(), "b": b.tolist(), "lam": lam}},
            "solver": _sparse_solver(0.9 / L), "x0": [0.0] * A.shape[1]}


def sparse_penalty_config(g: dict, rho: float) -> dict:
    """The ``SPARSE_LASSO`` least squares with the penalty ``g`` (weight
    lam) of semiconvexity modulus rho in place of l1, at eps = 0.9
    min(1/L, 1/rho)."""
    A, b, lam, L = _sparse_data()
    return {"problem": {"kind": "lasso", "params": {
                "A": A.tolist(), "b": b.tolist(), "g": {**g, "lam": lam}}},
            "solver": _sparse_solver(0.9 * min(1.0 / L, 1.0 / rho)),
            "x0": [0.0] * A.shape[1]}


def quad_kernel_lasso_config(g: dict | None = None,
                             rho: float = 0.0) -> dict:
    """The ``QUAD_KERNEL_LASSO`` run under the kernel A'A + shift I: l1,
    or the penalty ``g`` (weight lam) of semiconvexity modulus rho, at
    eps = 0.9 min(m/L, m/rho), m the kernel's smallest eigenvalue."""
    A, b, lam, L = _sparse_data(QUAD_KERNEL_LASSO)
    K = A.T @ A + QUAD_KERNEL_LASSO["shift"] * np.eye(A.shape[1])
    m = float(np.linalg.eigvalsh(K)[0])
    eps = 0.9 * m / L if g is None else 0.9 * min(m / L, m / rho)
    solver = {**_sparse_solver(eps),
              "kernel": {"kind": "quadratic", "A": K.tolist()}}
    params = {"lam": lam} if g is None else {"g": {**g, "lam": lam}}
    return {"problem": {"kind": "lasso", "params": {
                "A": A.tolist(), "b": b.tolist(), **params}},
            "solver": solver, "x0": [0.0] * A.shape[1]}


def commands(config_dir: Path) -> dict[str, list[str]]:
    """Run label -> CLI arguments (without --seed and --out)."""
    cmds = {f"solve-{p.stem}": ["solve", "--config", str(p)]
            for p in sorted(CONFIGS.glob("*.json"))}
    for name in PROBE_CONFIGS:
        cmds[f"probe-{name}"] = ["probe", "--config",
                                 str(CONFIGS / f"{name}.json")]
    for label, (name, center) in OFF_MINIMIZER.items():
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        cfg["probe"]["center"] = center
        path = config_dir / f"{label}.json"
        path.write_text(json.dumps(cfg))
        cmds[f"probe-{label}"] = ["probe", "--config", str(path)]
    name, every = THINNED
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["solver"]["trace_every"] = every
    path = config_dir / f"{name}_trace_every{every}.json"
    path.write_text(json.dumps(cfg))
    cmds[f"probe-{path.stem}"] = ["probe", "--config", str(path)]
    name, eps = BEYOND_M_OVER_L
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["solver"]["epsilon"] = eps
    path = config_dir / f"{name}_eps{eps:g}.json"
    path.write_text(json.dumps(cfg))
    cmds[f"probe-{path.stem}"] = ["probe", "--config", str(path)]
    name, kernel = NON_SEPARABLE
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["solver"]["kernel"] = kernel
    path = config_dir / f"{name}_nonseparable.json"
    path.write_text(json.dumps(cfg))
    for command in ("solve", "probe"):
        cmds[f"{command}-{path.stem}"] = [command, "--config", str(path)]
    path = config_dir / f"sparse_lasso_d{SPARSE_LASSO['dim']}.json"
    path.write_text(json.dumps(sparse_lasso_config()))
    for command in ("solve", "check"):
        cmds[f"{command}-{path.stem}"] = [command, "--config", str(path)]
    for name, (g, rho) in SPARSE_PENALTIES.items():
        path = config_dir / f"sparse_{name}_d{SPARSE_LASSO['dim']}.json"
        path.write_text(json.dumps(sparse_penalty_config(g, rho)))
        cmds[f"solve-{path.stem}"] = ["solve", "--config", str(path)]
    dim = QUAD_KERNEL_LASSO["dim"]
    for name, (g, rho) in {"lasso": (None, 0.0), **SPARSE_PENALTIES}.items():
        path = config_dir / f"quad_kernel_{name}_d{dim}.json"
        path.write_text(json.dumps(quad_kernel_lasso_config(g, rho)))
        cmds[f"solve-{path.stem}"] = ["solve", "--config", str(path)]
    path = config_dir / "pl_profile.json"
    path.write_text(json.dumps(PL_PROFILE))
    for command in ("solve", "probe"):
        cmds[f"{command}-{path.stem}"] = [command, "--config", str(path)]
    profiles = {f"profile_{pid}": (pid, {"kind": "euclidean"})
                for pid in POWER_PROFILES}
    profiles.update({f"profile_pow4_{name}": ("pow4", kernel)
                     for name, kernel in ONE_ENTRY_KERNELS.items()})
    for stem, (pid, kernel) in profiles.items():
        path = config_dir / f"{stem}.json"
        path.write_text(json.dumps({
            "problem": {"kind": "profile", "params": {"id": pid}},
            "solver": {**POWER_PROFILES[pid], "kernel": kernel},
            "x0": [1.0]}))
        cmds[f"solve-{stem}"] = ["solve", "--config", str(path)]
    for stem, cfg in CELL_BOUND_PROBES.items():
        path = config_dir / f"{stem}.json"
        path.write_text(json.dumps(cfg))
        cmds[f"probe-{stem}"] = ["probe", "--config", str(path)]
    cmds["check"] = ["check"]
    cmds["compare"] = ["compare", "--config",
                       str(CONFIGS / "compare_kernels.json")]
    return cmds


def source_dir(tree: str) -> str:
    """The directory holding the ``vbpg`` package of a checkout."""
    root = Path(tree).resolve()
    src = root / "src" if (root / "src" / "vbpg").is_dir() else root
    if not (src / "vbpg").is_dir():
        sys.exit(f"artifact_diff: no vbpg package under {tree}")
    return str(src)


def run(src: str, args: list[str], seed: int, out: Path) -> int:
    """Run one CLI command into ``out`` and keep its stdout and stderr
    there as ``stdout.txt`` and ``stderr.txt``; returns the exit code."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "vbpg.cli", *args, "--seed", str(seed),
         "--out", str(out)], env=env, capture_output=True)
    out.mkdir(parents=True, exist_ok=True)
    for name, data in zip(STREAMS, (proc.stdout, proc.stderr)):
        (out / name).write_bytes(data)
    return proc.returncode


def _same(a, b) -> bool:
    """Equal values of one type; NaN equals NaN, as JSON writes it twice."""
    if type(a) is not type(b):
        return False
    return a == b or (isinstance(a, float) and math.isnan(a)
                      and math.isnan(b))


def _change(a, b) -> float:
    """|a - b| for two finite numbers, else inf (0 when they are equal or
    both NaN)."""
    if a == b or _same(a, b):
        return 0.0
    try:
        a, b = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    d = abs(a - b)
    return d if math.isfinite(d) else math.inf


def _record_keys(node: list):
    """The key "name/instance" of each entry of a list of records that all
    carry both, else None."""
    if node and all(isinstance(r, dict) and "name" in r and "instance" in r
                    for r in node):
        return [f"{r['name']}/{r['instance']}" for r in node]
    return None


def _flatten(node, path: str, out: dict, orders: dict) -> dict:
    """JSON leaves by path, one list of values per path.  A list of
    records that carry ``name`` and ``instance`` is keyed by that pair
    ("records[gap_identity/lasso2].worst"), its key order kept in
    ``orders``; the indices of any other list are folded into "[]"."""
    if isinstance(node, dict):
        for key, value in node.items():
            _flatten(value, f"{path}.{key}" if path else str(key), out, orders)
    elif isinstance(node, list):
        keys = _record_keys(node)
        if keys is not None:
            orders[path] = keys
        for i, value in enumerate(node):
            _flatten(value, f"{path}[{keys[i] if keys else ''}]", out, orders)
    else:
        out.setdefault(path, []).append(node)
    return out


def _reordered(old: dict, new: dict) -> list[str]:
    """Paths of the record lists whose shared records changed order."""
    paths = []
    for path in sorted(old.keys() & new.keys()):
        shared = set(old[path]) & set(new[path])
        if ([k for k in old[path] if k in shared]
                != [k for k in new[path] if k in shared]):
            paths.append(path)
    return paths


def _moved(old: dict, new: dict) -> dict[str, float]:
    """Largest change per key of two {key: list of values} tables."""
    moved = {}
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, []), new.get(key, [])
        if len(a) != len(b):
            moved[key] = math.inf
            continue
        worst = max((_change(x, y) for x, y in zip(a, b)), default=0.0)
        if worst or not all(_same(x, y) for x, y in zip(a, b)):
            moved[key] = worst
    return moved


def _csv_columns(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    return {name: [row[i] if i < len(row) else None for row in rows[1:]]
            for i, name in enumerate(rows[0])}


def compare_dirs(old: Path, new: Path) -> list[str]:
    """One line per artifact of two run directories: "identical", or its
    moved columns or fields with their largest absolute change."""
    lines = []
    names = {p.name for d in (old, new) if d.is_dir() for p in d.iterdir()}
    for name in sorted(names - SKIPPED):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            side = "parent" if a.exists() else "change"
            lines.append(f"{name}: only in {side}")
            continue
        if a.read_bytes() == b.read_bytes():
            lines.append(f"{name}: identical")
            continue
        reordered = []
        if name.endswith(".csv"):
            moved = _moved(_csv_columns(a), _csv_columns(b))
            kind = "column"
        elif name.endswith(".json"):
            orders = ({}, {})
            moved = _moved(*(_flatten(json.loads(p.read_text()), "", {}, o)
                             for p, o in zip((a, b), orders)))
            reordered = [f"{name}: {path}[] reordered"
                         for path in _reordered(*orders)]
            kind = "field"
        else:
            old_lines = a.read_text().splitlines()
            new_lines = b.read_text().splitlines()
            first = next((i for i, (x, y) in enumerate(zip(old_lines,
                                                           new_lines))
                          if x != y), min(len(old_lines), len(new_lines)))
            lines.append(f"{name}: differs from line {first + 1}")
            continue
        if not (moved or reordered):
            lines.append(f"{name}: bytes differ")
        lines.extend(reordered)
        for key, worst in moved.items():
            lines.append(f"{name}: {kind} {key} moved, largest change "
                         f"{worst:.3g}")
    return lines


def compare_runs(old: Path, new: Path, codes: tuple[int, int],
                 expected: int = 0) -> list[str]:
    """``compare_dirs`` of one command's two runs, plus a line when the
    exit codes differ, when both exit other than ``expected``, or when
    neither wrote an artifact though both should have exited 0; the runs
    match only if every line ends in ": identical"."""
    lines = compare_dirs(old, new)
    if codes[0] != codes[1]:
        lines.append(f"exit codes differ: {codes[0]} / {codes[1]}")
    elif codes[0] != expected:
        lines.append(f"failed on both sides: exit {codes[0]}, "
                     f"expected {expected}")
    elif expected == 0 and all(line.split(":")[0] in STREAMS
                               for line in lines):
        lines.append("no artifacts on either side")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7, 4242])
    ap.add_argument("--work", default=None,
                    help="keep the run directories here (default: a "
                         "temporary directory, removed afterwards)")
    args = ap.parse_args(argv)
    trees = {"parent": source_dir(args.parent),
             "change": source_dir(args.change)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(args.work or tmp)
        work.mkdir(parents=True, exist_ok=True)
        cmds = commands(work)
        clean = True
        for seed in args.seeds:
            for label, cmd in cmds.items():
                outs = {side: work / side / str(seed) / label
                        for side in trees}
                codes = {side: run(src, cmd, seed, outs[side])
                         for side, src in trees.items()}
                print(f"seed {seed} {label}: exit {codes['parent']} / "
                      f"{codes['change']}")
                lines = compare_runs(outs["parent"], outs["change"],
                                     (codes["parent"], codes["change"]),
                                     EXPECTED_EXIT.get(label, 0))
                for line in lines:
                    print(f"  {line}")
                clean &= all(line.endswith(": identical") for line in lines)
    print("all runs exit as expected with identical artifacts" if clean
          else "artifacts moved or runs failed")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
