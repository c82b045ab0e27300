"""Command-line orchestration: solve runs, probe campaigns, invariant
suites, and kernel-schedule comparisons, producing CSV/JSON artifacts.

Exit codes: 0 success, 1 config parse error (including out-of-domain
problem, kernel, solver or x0 parameters), 2 validation failure (or
refused precondition), 3 empty probe slice, 4 invariant failure, 5
numerical failure (F turned non-finite, or an inner prox solve did not
converge).  Each failure prints one line on stderr.

All randomness flows from the single seeded generator recorded in the
run manifest, so identical (config, seed, command) invocations reproduce
byte-identical CSV/JSON artifacts; ``manifest.json`` carries the wall
clock and is the one file excluded from that contract.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import diagnostics as dx
from .bregman import ProxError, descent_case, descent_constants
from .checks import run_invariant_suite
from .core import KernelSpec, Problem, SolverConfig, as_vector, validate_config
from .problems import (ProblemSpec, ShippedInstance, build_problem,
                       jump_spec, lasso_spec)
from .solver import Trace, kernel_schedule_jacobi, vbpg_run


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


@dataclass
class RunManifest:
    config_path: str
    command: str
    seed: int
    output_dir: str
    timestamp: str


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    pass


def _as_config_error(build):
    """``build`` raising the ValueError of an out-of-domain parameter as a
    ConfigError."""
    @functools.wraps(build)
    def wrapped(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:  # ConfigError included: same message
            raise ConfigError(str(exc)) from exc
    return wrapped


def problem_spec_from_config(cfg: dict) -> ProblemSpec:
    pc = cfg.get("problem")
    if not isinstance(pc, dict) or "kind" not in pc:
        raise ConfigError("config needs problem.kind")
    kind = pc["kind"]
    params = dict(pc.get("params", {}))
    g_cfg = params.pop("g", {"kind": "zero"})
    g_kind = g_cfg.get("kind", "zero")
    g_params = {k: v for k, v in g_cfg.items() if k != "kind"}
    if kind == "lasso":
        spec = lasso_spec("lasso", params["A"], params["b"], params["lam"])
        if "L_override" in params:
            fp = dict(spec.f_params)
            fp["L_override"] = params["L_override"]
            spec = ProblemSpec(spec.name, spec.f_kind, fp, spec.g_kind,
                               spec.g_params, spec.dimension)
        return spec
    if kind == "quadratic":
        dim = len(params["b"])
        f_params = {"Q": params["Q"], "b": params["b"]}
        if "L_override" in params:
            f_params["L_override"] = params["L_override"]
        return ProblemSpec("quadratic", "quadratic", f_params,
                           g_kind, g_params, dim)
    if kind == "logistic":
        dim = params.get("dim", 2)
        f_params = {k: params[k] for k in ("A", "labels", "n_rows", "data_seed")
                    if k in params}
        if "A" in f_params:
            dim = len(f_params["A"][0])
        return ProblemSpec("logistic", "logistic", f_params, g_kind,
                           g_params, dim)
    if kind == "profile":
        pid = params["id"]
        if pid in ("square", "pl_nonconvex"):
            return ProblemSpec(f"profile_{pid}", "scalar_profile",
                               {"id": pid}, g_kind, g_params, 1)
        powers = {"abs_pow_3_2": 1.5, "pow3": 3.0, "pow4": 4.0}
        if pid in powers:
            return ProblemSpec(f"profile_{pid}", "zero", {}, "power",
                               {"p": powers[pid]}, 1)
        raise ConfigError(f"unknown profile id {pid!r}")
    if kind == "jump":
        return jump_spec(params.get("xbar", 0.0))
    raise ConfigError(f"unknown problem kind {kind!r}")


@_as_config_error
def problem_from_spec(spec: ProblemSpec) -> Problem:
    return build_problem(spec)


@_as_config_error
def kernel_from_config(kc, problem: Problem) -> KernelSpec:
    if not isinstance(kc, dict) or "kind" not in kc:
        raise ConfigError("kernel entries need a 'kind'")
    kind = kc["kind"]
    if kind == "euclidean":
        return KernelSpec.euclidean()
    if kind == "diagonal":
        return KernelSpec.diagonal(kc["d"])
    if kind == "quadratic":
        return KernelSpec.quadratic(kc["A"])
    if kind == "jacobi":
        Q = np.asarray(kc.get("Q") if "Q" in kc else _hessian_of(problem),
                       dtype=float)
        return kernel_schedule_jacobi(problem, kc["block_sizes"], kc["c"], Q=Q)
    raise ConfigError(f"unknown kernel kind {kind!r}")


def _hessian_of(problem: Problem):
    # recover the Hessian of a quadratic objective from gradient
    # differences, then verify the gradient really is affine: jacobi
    # kernels are only certifiable for quadratic f
    dim = problem.dim
    z = np.zeros(dim)
    g0 = problem.f.gradient(z)
    H = np.empty((dim, dim))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        H[:, i] = problem.f.gradient(e) - g0
    x_chk = np.linspace(0.3, 1.1, dim)
    if not np.allclose(problem.f.gradient(x_chk), H @ x_chk + g0,
                       rtol=1e-9, atol=1e-9):
        raise ConfigError("jacobi kernel requires a quadratic objective "
                          "(gradient is not affine)")
    return H


@_as_config_error
def solver_config_from_config(cfg: dict, problem: Problem) -> SolverConfig:
    sc = cfg.get("solver", {})
    eps = sc.get("epsilon", 0.5)
    epsilons = tuple(float(e) for e in (eps if isinstance(eps, list) else [eps]))
    kc = sc.get("kernel", {"kind": "euclidean"})
    kcs = kc if isinstance(kc, list) else [kc]
    kernels = tuple(kernel_from_config(k, problem) for k in kcs)
    return SolverConfig(epsilons=epsilons, kernels=kernels,
                        max_iters=int(sc.get("max_iters", 500)),
                        step_tol=sc.get("step_tol"),
                        trace_every=int(sc.get("trace_every", 1)))


@_as_config_error
def resolve_x0(cfg: dict, problem: Problem, rng) -> np.ndarray:
    if "x0" in cfg:
        return as_vector(cfg["x0"], dim=problem.dim)
    return rng.uniform(-1.0, 1.0, size=problem.dim)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _validate_or_exit(problem, config, strict: bool) -> int:
    report = validate_config(problem, config)
    if not report.ok:
        for v in report.violations:
            print(f"validation: {v}", file=sys.stderr)
        if strict:
            print("refused: validation failed in strict mode", file=sys.stderr)
            return 2
    return 0


def _beta_hat_or_none(trace: Trace):
    try:
        beta, _ = dx.estimate_q_linear_rate(trace, trace.final_F)
        return beta
    except ValueError:
        return None


def cmd_solve(cfg, args, out: Path) -> int:
    problem = problem_from_spec(problem_spec_from_config(cfg))
    config = solver_config_from_config(cfg, problem)
    rc = _validate_or_exit(problem, config, args.strict)
    if rc:
        return rc
    rng = np.random.default_rng(args.seed)
    x0 = resolve_x0(cfg, problem, rng)
    trace = vbpg_run(problem, config, x0)
    trace.write_csv(out / "trace.csv")
    summary = {
        "final_F": trace.final_F,
        "final_residual": (trace.final_residual
                           if trace.residuals else None),
        "iterations": trace.n_iters,
        "terminated_reason": trace.terminated_reason,
        "beta_hat": _beta_hat_or_none(trace),
        "final_x": [float(v) for v in trace.final_x],
        "seed": args.seed,
        "problem": problem.name,
    }
    _write_json(out / "summary.json", summary)
    print(f"solve: {trace.n_iters} iterations, F={trace.final_F:.12g}, "
          f"reason={trace.terminated_reason}")
    return 0


_PROBE_DEFAULTS = {
    "center": "solve",      # or a point of the problem's dimension
    "eta": 0.5,
    "nu": None,             # default: 0.1 x local F range
    "n_samples": 200,
    "resolution": None,     # default: the sublevel grid's
    "box_halfwidth": None,  # default: max(4 eta, 1)
    "sigma": 0.5,
}


def _positive(pc: dict, key: str, optional: bool = False):
    v = pc[key]
    if v is None and optional:
        return None
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or not math.isfinite(v) or v <= 0):
        raise ConfigError(f"probe.{key} must be a positive number, got {v!r}")
    return float(v)


@_as_config_error
def _probe_params(cfg: dict, problem: Problem) -> dict:
    """The probe section with its defaults filled in, every parameter
    checked: ``center`` is "solve" or a point of the problem's dimension,
    ``n_samples`` a positive integer, and ``eta``, ``sigma`` and (when
    given) ``nu``, ``resolution`` and ``box_halfwidth`` positive finite
    numbers."""
    pc = cfg.get("probe", {})
    if not isinstance(pc, dict):
        raise ConfigError("probe must be a JSON object")
    pc = {**_PROBE_DEFAULTS, **pc}
    center = pc["center"]
    if not (isinstance(center, str) and center == "solve"):
        try:
            center = as_vector(center, dim=problem.dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"probe.center must be \"solve\" or a point: "
                              f"{exc}") from exc
    n = pc["n_samples"]
    if (isinstance(n, bool) or not isinstance(n, (int, float))
            or not math.isfinite(n) or n != int(n) or n < 1):
        raise ConfigError(f"probe.n_samples must be a positive integer, "
                          f"got {n!r}")
    return {"center": center, "eta": _positive(pc, "eta"),
            "nu": _positive(pc, "nu", optional=True), "n_samples": int(n),
            "resolution": _positive(pc, "resolution", optional=True),
            "box_halfwidth": _positive(pc, "box_halfwidth", optional=True),
            "sigma": _positive(pc, "sigma")}


def cmd_probe(cfg, args, out: Path) -> int:
    problem = problem_from_spec(problem_spec_from_config(cfg))
    if problem.dim > 3:
        print("probe refused: projection oracle unavailable above dimension 3",
              file=sys.stderr)
        return 2
    config = solver_config_from_config(cfg, problem)
    rc = _validate_or_exit(problem, config, args.strict)
    if rc:
        return rc
    pc = _probe_params(cfg, problem)
    rng = np.random.default_rng(args.seed)
    x0 = resolve_x0(cfg, problem, rng)

    trace = vbpg_run(problem, config, x0)
    center = trace.final_x if isinstance(pc["center"], str) else pc["center"]
    eta, nu = pc["eta"], pc["nu"]
    if nu is None:
        local = abs(problem.F(center + eta * np.ones(problem.dim))
                    - problem.F(center))
        nu = 0.1 * max(local, 1e-3)
    slice_ = dx.make_slice(problem, center, eta, nu)

    K = config.kernel_at(0)
    eps = config.eps_at(0)
    grid, crit = dx.probe_rig(problem, K, eps, slice_,
                              halfwidth=pc["box_halfwidth"],
                              resolution=pc["resolution"])
    try:
        samples = dx.probe_slice(problem, K, eps, slice_, pc["n_samples"],
                                 args.seed, grid=grid, crit_points=crit)
    except dx.SliceEmptyError as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return 3

    _write_text(out / "probe.csv",
                "\n".join(dx.samples_to_csv_lines(samples)) + "\n")

    L, M, m = problem.f.lipschitz_L, config.M, config.m
    rho = problem.g.semiconvex_rho
    fits, fit_objs = {}, {}
    for kind in ("level_subdiff", "level_bregman", "kl", "sharpness",
                 "gap_condition", "weak_subreg", "luo_tseng"):
        try:
            fit_objs[kind] = dx.fit_error_bound(samples, kind)
            fits[kind] = fit_objs[kind].to_dict()
        except (ValueError, dx.DegenerateSampleError) as exc:
            fits[kind] = {"bound_kind": kind, "error": str(exc)}
    sub_fit = fit_objs.get("level_subdiff")

    checks = {}
    checks["step_containment"] = dx.check_step_containment(
        samples, slice_, m, L, config.eps_hi)
    if sub_fit is not None:
        checks["subdiff_implies_prox_eb"] = dx.check_subdiff_implies_prox_eb(
            samples, slice_, sub_fit, L, M, m, config.eps_lo, config.eps_hi)
    checks["value_proximity"] = dx.check_value_proximity(
        samples, slice_.F_bar, L, M, config.eps_lo)
    if "kl" in fit_objs and sub_fit is not None:
        checks["kl_exponent_map"] = dx.check_kl_exponent_map(
            fit_objs["kl"], sub_fit, fit_objs.get("sharpness"))
    if "level_bregman" in fit_objs:
        checks["gap_condition_links"] = dx.check_gap_condition_links(
            samples, fit_objs["level_bregman"], m, config.eps_hi, rho)
    try:
        checks["kl_sweep"] = dx.kl_exponent_sweep(
            samples, [round(0.05 * k, 2) for k in range(1, 20)])
    except dx.DegenerateSampleError as exc:
        checks["kl_sweep"] = {"error": str(exc)}

    # rate chain: observed tail ratio against the certified bound
    rate = {}
    try:
        beta_hat, window = dx.estimate_q_linear_rate(trace, slice_.F_bar)
        rate["beta_hat"] = beta_hat
        rate["window"] = list(window)
        rate["r_linear_envelope_C"] = dx.r_linear_envelope(trace, beta_hat)
        if sub_fit is not None:
            rate.update(dx.certify_rate_chain(
                beta_hat, sub_fit, L, M, m, config.eps_lo, config.eps_hi, eta))
    except ValueError as exc:
        rate["error"] = str(exc)
    checks["rate_chain"] = rate

    level = dx.estimate_level_set_rate(trace, problem, slice_.F_bar, grid)
    checks["level_set_rate"] = level
    refit_ratios = [s.dist_level / s.dist_subdiff for s in samples
                    if s.dist_subdiff > 0 and math.isfinite(s.dist_subdiff)]
    if math.isfinite(level.get("beta_levelset", math.nan)) and refit_ratios:
        cc = descent_constants(descent_case(problem), m, M, L,
                               config.eps_lo, config.eps_hi)
        checks["level_set_rate_certificates"] = \
            dx.check_level_set_rate_certificates(
                level["beta_levelset"], max(refit_ratios), cc.b_frak,
                cc.c_frak, L, M, config.eps_lo, config.eps_hi, m, rho)
    checks["growth_conditions"] = dx.certify_growth_conditions(
        problem, slice_, crit, seed=args.seed, samples=samples)
    checks["luo_tseng"] = dx.check_luo_tseng_bound(
        problem, samples, eps, pc["sigma"], crit)
    checks["critical_value_consistency"] = dx.check_critical_value_consistency(
        problem, center, crit, delta=2.0 * eta)

    report = {"fits": fits, "checks": checks,
              "slice": {"center": [float(v) for v in center], "eta": eta,
                        "nu": nu, "F_bar": slice_.F_bar},
              "n_samples": len(samples), "seed": args.seed,
              "kernel": K.label(), "epsilon": eps}
    _write_json(out / "eb_report.json", report)
    print(f"probe: {len(samples)} samples, F_bar={slice_.F_bar:.12g}")
    return 0


def cmd_check(cfg, args, out: Path) -> int:
    instances = None
    if cfg and "problem" in cfg:
        # narrow the suite to the configured instance; strict mode refuses
        # inadmissible pairings before any work happens
        spec = problem_spec_from_config(cfg)
        problem = problem_from_spec(spec)
        config = solver_config_from_config(cfg, problem)
        report = validate_config(problem, config)
        if args.strict and not report.ok:
            for v in report.violations:
                print(f"validation: {v}", file=sys.stderr)
            print("refused: validation failed in strict mode", file=sys.stderr)
            return 2
        x0 = (resolve_x0(cfg, problem, None) if "x0" in cfg
              else [0.5] * problem.dim)
        instances = {spec.name: ShippedInstance(
            spec=spec, config=config, x0=tuple(float(v) for v in x0),
            sample_halfwidth=float(cfg.get("check", {}).get("halfwidth", 2.0)))}
    records = run_invariant_suite(instances=instances, seed=args.seed)
    _write_json(out / "check_report.json", {"records": records})
    failures = [r for r in records if not r["passed"]]
    for r in records:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{status}: {r['name']} [{r['instance']}] worst={r['worst']:.3g}")
    return 4 if failures else 0


def cmd_compare(cfg, args, out: Path) -> int:
    problem = problem_from_spec(problem_spec_from_config(cfg))
    schedules = cfg.get("compare", {}).get("kernels", [])
    if not schedules:
        print("compare: schedule list is empty", file=sys.stderr)
        return 2
    sc = cfg.get("solver", {})
    rng = np.random.default_rng(args.seed)
    x0 = resolve_x0(cfg, problem, rng)
    lines = ["schedule,iterations,beta_hat,final_F"]
    for idx, kc in enumerate(schedules):
        kcs = kc if isinstance(kc, list) else [kc]
        row = dict(sc, kernel=kcs)
        if isinstance(kc, dict) and "epsilon" in kc:
            row["epsilon"] = kc["epsilon"]  # per-row step size override
        config = solver_config_from_config({"solver": row}, problem)
        rc = _validate_or_exit(problem, config, args.strict)
        if rc:
            return rc
        trace = vbpg_run(problem, config, x0)
        beta = _beta_hat_or_none(trace)
        label = kc.get("label", None) if isinstance(kc, dict) else None
        label = label or (kcs[0]["kind"] if isinstance(kcs[0], dict) else f"s{idx}")
        lines.append(",".join([label, str(trace.n_iters),
                               _fmt(beta) if beta is not None else "nan",
                               _fmt(trace.final_F)]))
    _write_text(out / "compare.csv", "\n".join(lines) + "\n")
    print(f"compare: {len(schedules)} schedules written")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vbpg",
        description="Variable-kernel proximal gradient solver and "
                    "level-set error-bound diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "probe", "check", "compare"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       required=name in ("solve", "probe", "compare"))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".")
        p.add_argument("--strict", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config parse error: {exc}", file=sys.stderr)
            return 1
        if not isinstance(cfg, dict):
            print("config parse error: top level must be a JSON object",
                  file=sys.stderr)
            return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config_path=str(args.config), command=args.command,
                           seed=args.seed, output_dir=str(out),
                           timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"))
    _write_json(out / "manifest.json", asdict(manifest))
    try:
        handler = {"solve": cmd_solve, "probe": cmd_probe,
                   "check": cmd_check, "compare": cmd_compare}[args.command]
        # a diverging run overflows before F turns non-finite; the failure
        # is reported once, as exit code 5, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return handler(cfg, args, out)
    except ConfigError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"config parse error: missing key {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, ProxError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
