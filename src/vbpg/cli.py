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
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as dx
from .bregman import ProxError
from .checks import run_invariant_suite
from .core import (KernelSpec, Problem, SolverConfig, as_vector, fmt_float,
                   validate_config)
from .problems import (ProblemSpec, ShippedInstance, build_problem,
                       jump_spec, least_squares_spec)
from .solver import Trace, kernel_schedule_jacobi, vbpg_run


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
    """``build`` raising the ValueError of an out-of-domain parameter, the
    TypeError of a parameter of the wrong JSON type, or the OverflowError
    of an integer too large for a float, as a ConfigError."""
    @functools.wraps(build)
    def wrapped(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except (ValueError, TypeError, OverflowError) as exc:  # same message
            raise ConfigError(str(exc)) from exc
    return wrapped


def _object(value, name: str) -> dict:
    """``value``, the config section ``name``, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object")
    return value


@_as_config_error
def problem_spec_from_config(cfg: dict) -> ProblemSpec:
    pc = cfg.get("problem")
    if not isinstance(pc, dict) or "kind" not in pc:
        raise ConfigError("config needs problem.kind")
    kind = pc["kind"]
    params = dict(_object(pc.get("params", {}), "problem.params"))
    has_g = "g" in params
    g_cfg = _object(params.pop("g", {"kind": "zero"}), "problem.params.g")
    g_kind = g_cfg.get("kind", "zero")
    g_params = {k: v for k, v in g_cfg.items() if k != "kind"}
    if kind == "lasso":
        if not has_g:  # l1 at lam is the default g
            g_kind, g_params = "l1", {"lam": params["lam"]}
        elif "lam" in params:
            raise ConfigError("lasso takes lam or g, not both")
        spec = least_squares_spec("lasso", params["A"], params["b"], g_kind,
                                  g_params)
        if "L_override" in params:
            spec = replace(spec, f_params={**spec.f_params,
                                           "L_override": params["L_override"]})
        return spec
    if kind == "quadratic":
        dim = len(params["b"])
        f_params = {k: params[k] for k in ("Q", "b", "L_override")
                    if k in params}
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
        if isinstance(pid, str) and pid in powers:
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
    if kind in ("diagonal", "quadratic"):
        K = (KernelSpec.diagonal(kc["d"]) if kind == "diagonal"
             else KernelSpec.quadratic(kc["A"]))
        size = len(K.d if kind == "diagonal" else K.A)
        if size != problem.dim:
            raise ConfigError(f"{kind} kernel has dimension {size}, "
                              f"problem has {problem.dim}")
        return K
    if kind == "jacobi":
        Q = np.asarray(kc.get("Q") if "Q" in kc else _hessian_of(problem),
                       dtype=float)
        return kernel_schedule_jacobi(Q, kc["block_sizes"], kc["c"])
    raise ConfigError(f"unknown kernel kind {kind!r}")


def _hessian_of(problem: Problem):
    # recover the Hessian of a quadratic objective from gradient
    # differences (column j is grad f(e_j) - grad f(0), from the rows of I
    # in one call), then verify the gradient really is affine: jacobi
    # kernels are only certifiable for quadratic f
    dim = problem.dim
    g0 = problem.f.gradient(np.zeros(dim))
    H = (problem.f.gradient(np.eye(dim)) - g0).T.copy()
    x_chk = np.linspace(0.3, 1.1, dim)
    if not np.allclose(problem.f.gradient(x_chk), H @ x_chk + g0,
                       rtol=1e-9, atol=1e-9):
        raise ConfigError("jacobi kernel requires a quadratic objective "
                          "(gradient is not affine)")
    return H


def _number(value, name: str, integer: bool = False, zero_ok: bool = False,
            optional: bool = False):
    """``value``, the config entry ``name``, as a positive finite float
    (nonnegative with ``zero_ok``; an int with ``integer``, which integral
    floats such as 400.0 pass).  Bools fail; ``optional`` passes None."""
    if value is None and optional:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0
            or (value == 0 and not zero_ok)
            or (integer and value != int(value))):
        kind = ("nonnegative " if zero_ok else "positive ") + (
            "integer" if integer else "number")
        raise ConfigError(f"{name} must be a {kind}, got {value!r}")
    return int(value) if integer else float(value)


@_as_config_error
def solver_config_from_config(cfg: dict, problem: Problem) -> SolverConfig:
    """The solver section, each number checked by ``_number``."""
    sc = _object(cfg.get("solver", {}), "solver")
    eps = sc.get("epsilon", 0.5)
    epsilons = tuple(_number(e, "solver.epsilon")
                     for e in (eps if isinstance(eps, list) else [eps]))
    kc = sc.get("kernel", {"kind": "euclidean"})
    kcs = kc if isinstance(kc, list) else [kc]
    kernels = tuple(kernel_from_config(k, problem) for k in kcs)
    return SolverConfig(
        epsilons=epsilons, kernels=kernels,
        max_iters=_number(sc.get("max_iters", 500), "solver.max_iters",
                          integer=True, zero_ok=True),
        step_tol=_number(sc.get("step_tol"), "solver.step_tol",
                         optional=True),
        trace_every=_number(sc.get("trace_every", 1), "solver.trace_every",
                            integer=True))


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


@_as_config_error
def _probe_params(cfg: dict, problem: Problem) -> dict:
    """The probe section with its defaults filled in, every parameter
    checked: ``center`` is "solve" or a point of the problem's dimension,
    ``n_samples`` a positive integer, and ``eta``, ``sigma`` and (when
    given) ``nu``, ``resolution`` and ``box_halfwidth`` positive finite
    numbers; the sublevel grid they ask for must fit ``dx.probe_grid``'s
    budget."""
    pc = {**dx.PROBE_DEFAULTS, **_object(cfg.get("probe", {}), "probe")}
    center = pc["center"]
    if not (isinstance(center, str) and center == "solve"):
        try:
            center = as_vector(center, dim=problem.dim)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"probe.center must be \"solve\" or a point: "
                              f"{exc}") from exc
    n = _number(pc["n_samples"], "probe.n_samples", integer=True)
    params = {"center": center, "n_samples": n, **{
        key: _number(pc[key], f"probe.{key}",
                     optional=key not in ("eta", "sigma"))
        for key in ("eta", "nu", "resolution", "box_halfwidth", "sigma")}}
    dx.probe_grid(problem.dim, params)
    return params


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
    x0 = resolve_x0(cfg, problem, np.random.default_rng(args.seed))
    try:
        campaign = dx.run_campaign(problem, config, x0, pc, args.seed)
    except dx.SliceEmptyError as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return 3
    _write_text(out / "probe.csv",
                "\n".join(dx.samples_to_csv_lines(campaign.samples)) + "\n")
    _write_json(out / "eb_report.json",
                dx.eb_report(campaign, args.seed, pc["sigma"]))
    print(f"probe: {len(campaign.samples)} samples, "
          f"F_bar={campaign.slice.F_bar:.12g}")
    return 0


@_as_config_error
def check_instance_from_config(cfg: dict, spec: ProblemSpec, problem: Problem,
                               config: SolverConfig) -> ShippedInstance:
    """The instance ``vbpg check`` runs: x0 defaults to 0.5 per coordinate
    and ``check.halfwidth`` to 2."""
    x0 = resolve_x0(cfg, problem, None) if "x0" in cfg else [0.5] * problem.dim
    hw = _object(cfg.get("check", {}), "check").get("halfwidth", 2.0)
    return ShippedInstance(spec, config, tuple(float(v) for v in x0),
                           _number(hw, "check.halfwidth"))


def cmd_check(cfg, args, out: Path) -> int:
    instances = None
    if cfg and "problem" in cfg:
        # narrow the suite to the configured instance; strict mode refuses
        # inadmissible pairings before any work happens
        spec = problem_spec_from_config(cfg)
        problem = problem_from_spec(spec)
        config = solver_config_from_config(cfg, problem)
        rc = _validate_or_exit(problem, config, args.strict)
        if rc:
            return rc
        instances = {spec.name: check_instance_from_config(cfg, spec, problem,
                                                           config)}
    records = run_invariant_suite(instances=instances, seed=args.seed)
    _write_json(out / "check_report.json", {"records": records})
    failures = [r for r in records if not r["passed"]]
    for r in records:
        status = "pass" if r["passed"] else "FAIL"
        print(f"{status}: {r['name']} [{r['instance']}] worst={r['worst']:.3g}")
    return 4 if failures else 0


def cmd_compare(cfg, args, out: Path) -> int:
    problem = problem_from_spec(problem_spec_from_config(cfg))
    schedules = _object(cfg.get("compare", {}), "compare").get("kernels", [])
    if not schedules:
        print("compare: schedule list is empty", file=sys.stderr)
        return 2
    if not isinstance(schedules, list):
        raise ConfigError("compare.kernels must be a list")
    sc = _object(cfg.get("solver", {}), "solver")
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
        lines.append(",".join([str(label), str(trace.n_iters),
                               fmt_float(beta) if beta is not None else "nan",
                               fmt_float(trace.final_F)]))
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
