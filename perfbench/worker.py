"""One workload in a fresh process: set-up, timed rounds, outputs.

    python3 perfbench/worker.py --workload W --seed N --seconds S --out DIR
                                [--trace] [--setup-only]

Set-up is importing vbpg from the checkout's ``src`` and generating the
workload's inputs.  A round runs every operation of the workload once, one
after another; rounds repeat while the next one still fits in ``--seconds``
(at least one runs).  The worker writes ``result.json`` and the outputs the
checker reads into DIR.  It computes no reference solution, so its peak
memory is vbpg's alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))


def import_vbpg():
    sys.path.insert(0, str(SRC))
    import vbpg
    import vbpg.cli  # noqa: F401  (the cli module is imported by every workload)
    if Path(vbpg.__file__).resolve().parent != (SRC / "vbpg").resolve():
        raise SystemExit(f"vbpg imported from {vbpg.__file__}, not from {SRC}")
    return vbpg


def _digest_files(directory: Path) -> str:
    """Hash of every output file except manifest.json (it holds a clock)."""
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(directory)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class SolveLarge:
    """One operation is one vbpg_run from x0 = 0 to step_tol."""

    MAX_ITERS = 20000

    def __init__(self, vbpg, seed: int, out: Path):
        import numpy as np
        import workloads
        from vbpg.core import KernelSpec, SolverConfig
        from vbpg.problems import ProblemSpec

        self.vbpg, self.out = vbpg, out
        self.items = []
        built = {}
        for inst in workloads.solve_large_inputs(seed):
            comp = inst.comp
            if id(comp) not in built:
                built[id(comp)] = ProblemSpec(
                    inst.name, "quadratic", {"Q": comp.Q, "b": comp.c},
                    comp.g, comp.gp, comp.dim).build()
            if inst.kernel == "euclidean":
                K = KernelSpec.euclidean()
            elif inst.kernel == "diagonal":
                K = KernelSpec.diagonal(inst.kernel_data)
            else:
                K = KernelSpec.quadratic(inst.kernel_data)
            config = SolverConfig.constant(inst.eps, K, max_iters=self.MAX_ITERS,
                                           step_tol=workloads.STEP_TOL)
            self.items.append((inst.name, built[id(comp)], config,
                               np.zeros(comp.dim)))
        self.traces = {}

    def round(self, errors: list) -> None:
        solver = self.vbpg.solver
        for name, problem, config, x0 in self.items:
            try:
                self.traces[name] = solver.vbpg_run(problem, config, x0)
            except Exception:
                self.traces.pop(name, None)
                errors.append({"op": name, "error": traceback.format_exc(limit=3)})

    def ops(self) -> int:
        return len(self.items)

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.traces):
            tr = self.traces[name]
            h.update(name.encode() + tr.terminated_reason.encode())
            h.update(repr(tr.f_values).encode() + tr.final_x.tobytes())
        return h.hexdigest()

    def save(self) -> None:
        import numpy as np
        arrays = {}
        for name, tr in self.traces.items():
            arrays[f"{name}/f_values"] = np.array(tr.f_values)
            arrays[f"{name}/step_norms"] = np.array(tr.step_norms)
            arrays[f"{name}/iterates"] = np.array(tr.iterates)
            arrays[f"{name}/iterate_indices"] = np.array(tr.iterate_indices)
            arrays[f"{name}/final_x"] = tr.final_x
            arrays[f"{name}/reason"] = np.array(tr.terminated_reason)
        np.savez(self.out / "traces.npz", **arrays)


class CliCommands:
    """One operation is one in-process ``vbpg.cli.main`` call."""

    def __init__(self, vbpg, out: Path, argvs: list):
        self.vbpg, self.out, self.argvs = vbpg, out, argvs

    def round(self, errors: list) -> None:
        cli = self.vbpg.cli
        for argv in self.argvs:
            op = Path(argv[-1]).name
            try:
                rc = cli.main(argv)
            except Exception:
                errors.append({"op": op, "error": traceback.format_exc(limit=3)})
                continue
            if rc != 0:
                errors.append({"op": op, "error": f"exit code {rc}"})

    def ops(self) -> int:
        return len(self.argvs)

    def digest(self) -> str:
        return _digest_files(self.out / "ops")

    def save(self) -> None:
        pass


def probe_campaign(vbpg, seed: int, out: Path) -> CliCommands:
    import workloads
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    argvs = []
    for op in workloads.probe_inputs(seed, ROOT):
        path = op.config_path
        if path is None:
            path = inputs / f"{op.name}.json"
            path.write_text(json.dumps(op.cfg, indent=2))
        argvs.append(["probe", "--config", str(path), "--seed",
                      str(op.cli_seed), "--out", str(out / "ops" / op.name)])
    return CliCommands(vbpg, out, argvs)


def check_suite(vbpg, seed: int, out: Path) -> CliCommands:
    import workloads
    inp = workloads.check_suite_inputs(seed, ROOT)
    return CliCommands(vbpg, out, [
        ["check", "--seed", str(inp.check_seed), "--out", str(out / "ops" / "check")],
        ["compare", "--config", str(inp.compare_config), "--seed",
         str(inp.compare_seed), "--out", str(out / "ops" / "compare")],
    ])


WORKLOADS = {"solve_large": SolveLarge, "probe_campaign": probe_campaign,
             "check_suite": check_suite}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # set-up starts here: numpy, vbpg and the input generator are imported
    # below (the runners import them), so their import time counts
    t0 = time.perf_counter()
    vbpg = import_vbpg()
    rec = None
    if args.trace:
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec, vbpg)
    runner = WORKLOADS[args.workload](vbpg, args.seed, out)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        (out / "setup.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0

    round_times, digests, errors = [], [], []
    if rec:
        root_id = rec.name_id(tracing.ROOT_SPAN)
        rec.counters.clear()  # count only what the rounds do
    t_start = time.perf_counter()
    while True:
        t = time.perf_counter()
        span = rec.begin(root_id) if rec else None
        runner.round(errors)
        if rec:
            rec.finish(span)
        round_times.append(time.perf_counter() - t)
        digests.append(runner.digest())
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(round_times) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.save()
    result = {"setup_s": setup_s, "round_times": round_times,
              "ops_per_round": runner.ops(), "failed": len(errors),
              "errors": errors, "digests": digests, "peak_rss_mb": peak_rss_mb}
    if rec:
        rec.save(out / "spans.npz")
        result["counters"] = dict(rec.counters)
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
