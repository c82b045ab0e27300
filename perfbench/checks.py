"""Output checks that do not use vbpg's code paths.

Each check tests a property the method must have, or compares against a
closed form or a reference computed here in numpy (see ``model.py``).  A
failing check raises ``CheckFailure`` naming itself.  The allowances on
one-sided inequalities are roundoff allowances; README.md gives the reason
for each.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from model import (closed_form_minimizer, fista_l1, from_config,
                   nearest_distance, prox_euclid, sublevel_boundary)

# roundoff allowances, relative to 1 + |value| unless stated
DECREASE_ALLOWANCE = 1e-12
F_MATCH = 1e-12
RESIDUAL_REL = 1e-9
RESIDUAL_ABS = 1e-12
L1_REFERENCE = 1e-12
DIST_MATCH = 1e-12
DIST_LEVEL_SINGLETON = 1e-6
F_BAR_OPTIMUM = 1e-10
JUMP_FIT = 1e-9
JUMP_KL_FLAGGED = 0.9
COMPARE_OPTIMUM = 1e-9


class CheckFailure(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _require(ok, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailure(check, detail)


def run_all(checks) -> list:
    """Run zero-argument check callables; return the failures' messages."""
    failures = []
    for chk in checks:
        try:
            chk()
        except CheckFailure as exc:
            failures.append(str(exc))
        except Exception as exc:  # unreadable or malformed output
            failures.append(f"outputs.readable: {exc!r}")
    return failures


# ---------------------------------------------------------------------------
# solve_large
# ---------------------------------------------------------------------------

def load_traces(out: Path) -> dict:
    data = np.load(out / "traces.npz")
    traces = {}
    for key in data.files:
        name, field = key.split("/")
        traces.setdefault(name, {})[field] = data[key]
    return traces


def check_step_tol(inst, tr) -> None:
    reason = str(tr["reason"])
    _require(reason == "step_tol", "solve.terminated_on_step_tol",
             f"{inst.name} ended on {reason!r}")


def check_trace_values(inst, tr) -> np.ndarray:
    """The recorded values and step norms are F and ||x^k - x^(k+1)|| of
    the recorded iterates; returns F at every iterate."""
    X, n = tr["iterates"], tr["step_norms"].size
    _require(np.array_equal(tr["iterate_indices"], np.arange(n + 1))
             and X.shape == (n + 1, inst.comp.dim),
             "solve.trace_values", f"{inst.name}: iterates are not x^0..x^{n}")
    F = inst.comp.F(X)
    err = np.abs(F - tr["f_values"]) / (1.0 + np.abs(F))
    _require(err.max() <= F_MATCH, "solve.trace_values",
             f"{inst.name}: F differs from the recorded value by {err.max():.3g}")
    steps = np.linalg.norm(np.diff(X, axis=0), axis=1)
    serr = np.abs(steps - tr["step_norms"]) / (1.0 + steps)
    _require(serr.max(initial=0.0) <= F_MATCH, "solve.trace_values",
             f"{inst.name}: step norm differs by {serr.max(initial=0.0):.3g}")
    _require(np.array_equal(X[-1], tr["final_x"]), "solve.trace_values",
             f"{inst.name}: final_x is not the last iterate")
    return F


def check_decrease(inst, tr, F) -> None:
    """F(x^k) - F(x^(k+1)) >= a ||x^k - x^(k+1)||^2, a = (m/eps - L)/2."""
    a = 0.5 * (inst.m / inst.eps - inst.L)
    steps2 = np.sum(np.diff(tr["iterates"], axis=0) ** 2, axis=1)
    slack = (F[:-1] - F[1:] - a * steps2) / (1.0 + np.abs(F[:-1]))
    worst = float(slack.min(initial=0.0))
    _require(worst >= -DECREASE_ALLOWANCE, "solve.sufficient_decrease",
             f"{inst.name}: worst relative slack {worst:.3g}")


def check_final_residual(inst, tr) -> None:
    """dist(0, subdiff F(x^N)) <= (L + M/eps) ||x^(N-1) - x^N||."""
    X = tr["iterates"]
    _require(X.shape[0] >= 2, "solve.final_residual",
             f"{inst.name}: no step recorded")
    step = float(np.linalg.norm(X[-2] - X[-1]))
    dist = inst.comp.subdiff_dist(X[-1])
    bound = (inst.L + inst.M / inst.eps) * step
    _require(dist <= bound * (1.0 + RESIDUAL_REL) + RESIDUAL_ABS,
             "solve.final_residual",
             f"{inst.name}: dist(0, dF) = {dist:.3g} > {bound:.3g}")


def l1_reference(inst) -> np.ndarray:
    comp = inst.comp
    x = fista_l1(comp.Q, comp.c, comp.gp["lam"], inst.L)
    res = comp.subdiff_dist(x)
    if res > 1e-9:
        raise CheckFailure("solve.l1_reference",
                           f"{inst.name}: FISTA reference not converged ({res:.3g})")
    return x


def check_l1_reference(inst, tr, x_ref) -> None:
    """The recorded final F is within the certified gap of the reference
    minimum: 0 <= F(x^N) - F* <= ||xi|| ||x^N - x*|| by convexity, with
    ||xi|| <= (L + M/eps) ||x^(N-1) - x^N|| the residual certificate."""
    comp, X = inst.comp, tr["iterates"]
    F_ref, F_N = float(comp.F(x_ref)), float(tr["f_values"][-1])
    step = float(np.linalg.norm(X[-2] - X[-1]))
    gap_bound = ((inst.L + inst.M / inst.eps) * step
                 * float(np.linalg.norm(X[-1] - x_ref)))
    allow = L1_REFERENCE * (1.0 + abs(F_ref))
    _require(-allow <= F_N - F_ref <= gap_bound + allow, "solve.l1_reference",
             f"{inst.name}: F = {F_N!r}, reference {F_ref!r}, "
             f"certified gap {gap_bound:.3g}")


def solve_checks(instances, traces, skip=()) -> list:
    refs = {}
    checks = []
    for inst in instances:
        if inst.name in skip:
            continue
        tr = traces.get(inst.name)
        if tr is None:
            checks.append(lambda n=inst.name: _require(
                False, "solve.outputs_present", f"{n}: no trace"))
            continue

        def one(inst=inst, tr=tr):
            check_step_tol(inst, tr)
            F = check_trace_values(inst, tr)
            check_decrease(inst, tr, F)
            check_final_residual(inst, tr)
            if inst.comp.g == "l1":
                key = id(inst.comp)
                if key not in refs:
                    refs[key] = l1_reference(inst)
                check_l1_reference(inst, tr, refs[key])
        checks.append(one)
    return checks


# ---------------------------------------------------------------------------
# probe_campaign
# ---------------------------------------------------------------------------

def load_probe(opdir: Path) -> tuple:
    with open(opdir / "probe.csv") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    cols = {name: body[:, i] for i, name in enumerate(header)}
    dim = sum(1 for h in header if h.startswith("x"))
    cols["x"] = body[:, :dim]
    return cols, json.loads((opdir / "eb_report.json").read_text())


def check_probe(op, cols, report) -> None:
    """Every check of one probe: its rows, then its report."""
    cfg, name = op.cfg, op.name
    comp = from_config(cfg)
    pc = cfg["probe"]
    eta, nu, n = float(pc["eta"]), float(pc["nu"]), int(pc["n_samples"])
    eps = float(cfg["solver"]["epsilon"])
    kernel = cfg["solver"].get("kernel", {"kind": "euclidean"})["kind"]
    x_star = closed_form_minimizer(cfg)
    F_star = float(comp.F(x_star))
    X = cols["x"]
    F_bar = float(report["slice"]["F_bar"])
    center = np.array(report["slice"]["center"])

    _require(X.shape[0] == n == report["n_samples"], "probe.sample_count",
             f"{name}: {X.shape[0]} rows, {report['n_samples']} reported, {n} asked")

    # F_bar: the closed-form optimum, or the value at the chosen center
    if op.off_minimizer:
        ok = (np.array_equal(center, np.array(pc["center"]))
              and abs(F_bar - float(comp.F(center))) <= F_MATCH * (1 + abs(F_bar)))
        _require(ok, "probe.F_bar", f"{name}: F_bar {F_bar!r} is not F(center)")
    else:
        _require(abs(F_bar - F_star) <= F_BAR_OPTIMUM * (1 + abs(F_star)),
                 "probe.F_bar", f"{name}: F_bar {F_bar!r}, optimum {F_star!r}")

    FX = comp.F(X)
    tol = F_MATCH * (1.0 + abs(F_bar))
    inside = ((np.linalg.norm(X - center, axis=1) < eta * (1 + 1e-12))
              & (FX > F_bar - tol) & (FX < F_bar + nu + tol))
    _require(inside.all(), "probe.rows_in_slice",
             f"{name}: {int((~inside).sum())} rows outside the slice")

    gap_err = np.abs(cols["value_gap"] - (FX - F_bar)) / (1.0 + np.abs(FX))
    _require(gap_err.max() <= F_MATCH, "probe.value_gap",
             f"{name}: value_gap off by {gap_err.max():.3g}")

    dsub = np.array([comp.subdiff_dist(x) for x in X])
    sub_err = np.abs(cols["dist_subdiff"] - dsub) / (1.0 + dsub)
    _require(sub_err.max() <= DIST_MATCH, "probe.dist_subdiff",
             f"{name}: dist_subdiff off by {sub_err.max():.3g}")

    _require(kernel == "euclidean", "probe.dist_prox",
             f"{name}: reference prox needs the euclidean kernel")
    V = X - eps * (X @ comp.Q.T + comp.c)
    T = prox_euclid(comp.g, comp.gp, V, eps)
    dprox = np.linalg.norm(X - T, axis=1)
    prox_err = np.abs(cols["dist_prox"] - dprox) / (1.0 + dprox)
    _require(prox_err.max() <= DIST_MATCH, "probe.dist_prox",
             f"{name}: dist_prox off by {prox_err.max():.3g}")

    dl = cols["dist_level"]
    if op.off_minimizer:
        # the oracle returns a point of the sublevel set, so it is never
        # nearer than the true distance; it bisects toward the nearest grid
        # point in the set, which lies within one grid step (the cell
        # diagonal sqrt(2) h) of the nearest boundary point
        h = np.sqrt(2.0) * float(pc["resolution"])
        P = sublevel_boundary(comp, x_star, F_bar)
        # the sampled boundary overestimates the distance by at most half
        # the widest gap between neighbouring boundary points
        half_gap = 0.5 * float(np.max(np.linalg.norm(P - np.roll(P, 1, axis=0), axis=1)))
        excess = dl - nearest_distance(X, P)
        _require(excess.min() >= -half_gap and excess.max() <= h,
                 "probe.dist_level",
                 f"{name}: dist_level - brute force in "
                 f"[{excess.min():.3g}, {excess.max():.3g}], grid step {h:.3g}")
    else:
        err = np.abs(dl - np.linalg.norm(X - x_star, axis=1))
        _require(err.max() <= DIST_LEVEL_SINGLETON, "probe.dist_level",
                 f"{name}: dist_level differs from ||x - x*|| by {err.max():.3g}")

    sc = report["checks"]["step_containment"]
    _require(sc["n_violations"] == 0, "probe.step_containment",
             f"{name}: {sc['n_violations']} violations")

    if comp.g == "jump_quadratic":
        fit = report["fits"]["level_subdiff"]
        ok = (abs(fit.get("exponent", np.nan) - 1.0) <= JUMP_FIT
              and abs(fit.get("constant", np.nan) - 1.0) <= JUMP_FIT)
        _require(ok, "probe.jump_level_subdiff",
                 f"{name}: level_subdiff fit {fit}")
        flagged = [row["violated_fraction"] for row in report["checks"]["kl_sweep"]]
        _require(flagged and min(flagged) >= JUMP_KL_FLAGGED, "probe.jump_kl_sweep",
                 f"{name}: least flagged share {min(flagged, default=0):.3g}")


def probe_checks(ops, out: Path, skip=()) -> list:
    checks = []
    for op in ops:
        if op.name in skip:
            continue

        def one(op=op):
            opdir = out / "ops" / op.name
            _require((opdir / "probe.csv").is_file(), "probe.outputs_present",
                     f"{op.name}: no probe.csv")
            cols, report = load_probe(opdir)
            check_probe(op, cols, report)
        checks.append(one)
    return checks


# ---------------------------------------------------------------------------
# check_suite
# ---------------------------------------------------------------------------

def load_records(out: Path) -> list:
    path = out / "ops" / "check" / "check_report.json"
    return json.loads(path.read_text())["records"]


def load_compare(out: Path) -> list:
    with open(out / "ops" / "compare" / "compare.csv") as fh:
        return list(csv.DictReader(fh))


def check_records(records) -> None:
    failed = [f"{r['name']}[{r['instance']}]" for r in records if not r["passed"]]
    _require(records and not failed, "check.records_pass",
             f"{len(failed)} of {len(records)} invariant records failed: {failed[:3]}")


def check_compare(cfg: dict, rows) -> None:
    """Every schedule reaches min x'Qx/2 + b'x = -b'Q^-1 b / 2."""
    comp = from_config(cfg)
    F_star = float(comp.F(np.linalg.solve(comp.Q, -comp.c)))
    finals = [float(r["final_F"]) for r in rows]
    n = len(cfg["compare"]["kernels"])
    worst = max((abs(f - F_star) for f in finals), default=np.inf)
    _require(len(rows) == n and worst <= COMPARE_OPTIMUM * (1 + abs(F_star)),
             "check.compare_minimum",
             f"{len(rows)}/{n} rows, worst |F - ({F_star:g})| = {worst:.3g}")


def check_suite_checks(inputs, out: Path, skip=()) -> list:
    cfg = json.loads(Path(inputs.compare_config).read_text())
    checks = []
    if "check" not in skip:
        checks.append(lambda: check_records(load_records(out)))
    if "compare" not in skip:
        checks.append(lambda: check_compare(cfg, load_compare(out)))
    return checks


def check_rounds_identical(digests) -> None:
    _require(len(set(digests)) == 1, "rounds.identical",
             f"{len(set(digests))} different outputs over {len(digests)} rounds")
