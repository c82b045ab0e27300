"""vbpg benchmark: one workload, its metrics and its output checks.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: solve_large, probe_campaign,
check_suite (see README.md).  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics wall_s, setup_s and peak_rss_mb;
with --trace 1 it holds the per-layer metrics of a traced run instead.
Outputs are checked with numpy formulas apart from vbpg; a wrong output
makes ``correct`` false, names the failing check on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 4     # extra set-up-only processes; setup_s is a median
TIME_LIMIT_S = 170.0    # the whole command, checks included
# The worker uses one BLAS thread: the load is one single-threaded process,
# and timings do not depend on how BLAS splits small products.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                  MKL_NUM_THREADS="1")


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, out: Path,
               deadline: float, *flags: str) -> dict:
    """Run worker.py in a fresh process and wait for it to end."""
    out.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out),
           *flags]
    log = out / "worker.log"
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=WORKER_ENV)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError(f"worker exceeded the time limit; see {log}")
    name = "setup.json" if "--setup-only" in flags else "result.json"
    if rc != 0 or not (out / name).is_file():
        tail = log.read_text()[-2000:]
        raise WorkerError(f"worker exited with code {rc}:\n{tail}")
    return json.loads((out / name).read_text())


def output_checks(workload: str, seed: int, run_dir: Path, result: dict) -> list:
    skip = {e["op"] for e in result["errors"]}
    if workload == "solve_large":
        found = checks.solve_checks(workloads.solve_large_inputs(seed),
                                    checks.load_traces(run_dir), skip)
    elif workload == "probe_campaign":
        found = checks.probe_checks(workloads.probe_inputs(seed, ROOT),
                                    run_dir, skip)
    else:
        found = checks.check_suite_checks(workloads.check_suite_inputs(seed, ROOT),
                                          run_dir, skip)
    return found + [lambda: checks.check_rounds_identical(result["digests"])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "vbpg" / "__init__.py").is_file():
        print(f"run.py: no vbpg sources under {ROOT / 'src'}; run from the "
              "root of a vbpg checkout", file=sys.stderr)
        return 2
    run_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    try:
        setup_times = []
        if not args.trace:
            for i in range(SETUP_PROCESSES):
                got = run_worker(args.workload, args.seed, 0, run_dir / f"setup{i}",
                                 deadline, "--setup-only")
                setup_times.append(got["setup_s"])
        flags = ("--trace",) if args.trace else ()
        result = run_worker(args.workload, args.seed, args.seconds, run_dir,
                            deadline, *flags)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3

    failures = checks.run_all(output_checks(args.workload, args.seed, run_dir,
                                            result))
    rounds = result["round_times"]
    if args.trace:
        spans = dict(np.load(run_dir / "spans.npz"))
        values = tracing.layer_metrics(spans, result["counters"], rounds)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        # keep the latest span file per workload, not one per seed
        (run_dir / "spans.npz").replace(OUT_ROOT / f"spans-{args.workload}.npz")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times + [result["setup_s"]]),
                        "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    for err in result["errors"]:
        print(f"operation failed: {err['op']}: {err['error']}", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not failures,
                      "attempted": result["ops_per_round"] * len(rounds),
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
