#!/usr/bin/env python3
"""End-to-end linear-rate study on the two-coordinate lasso instance.

Solves the instance, probes a level slice around the solution, fits the
level-set error bounds, and compares the observed value-gap contraction
against the certified bound 1/(1 + a/kappa) built from the fitted
constants.  Prints a small report; pass --out DIR to also dump the solver
trace and the probe CSV.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from vbpg.core import KernelSpec, SolverConfig
from vbpg.diagnostics import (SublevelGrid, certify_rate_chain,
                              critical_points, estimate_level_set_rate,
                              estimate_q_linear_rate, fit_error_bound,
                              make_slice, probe_slice, samples_to_csv_lines)
from vbpg.problems import lasso_spec
from vbpg.solver import vbpg_run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--samples", type=int, default=240)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    problem = lasso_spec("lasso2", np.eye(2), [1.0, 0.8], 0.5).build()
    eps = 0.5
    config = SolverConfig.constant(eps, KernelSpec.euclidean(),
                                   max_iters=400, step_tol=1e-9)
    trace = vbpg_run(problem, config, np.array([3.0, -2.0]))
    xhat = trace.final_x
    print(f"solution x = {xhat}, F = {trace.final_F:.12g}, "
          f"{trace.n_iters} iterations")

    slice_ = make_slice(problem, xhat, 0.5, 0.1)
    grid = SublevelGrid(problem, xhat, 2.0, resolution=0.005,
                        extra_points=[xhat])
    crit = critical_points(problem, KernelSpec.euclidean(), eps, xhat, 1.0,
                           seeds_per_axis=5)
    samples = probe_slice(problem, KernelSpec.euclidean(), eps, slice_,
                          args.samples, args.seed, grid=grid,
                          crit_points=crit)

    print("\nfitted level-set bounds:")
    for kind in ("level_subdiff", "level_bregman", "kl", "sharpness",
                 "gap_condition"):
        fit = fit_error_bound(samples, kind)
        print(f"  {kind:14s} exponent {fit.exponent:7.3f}  "
              f"constant {fit.constant:9.4g}  "
              f"held-out violations {fit.violated_fraction:.1%}")

    sub = fit_error_bound(samples, "level_subdiff")
    beta_hat, window = estimate_q_linear_rate(trace, slice_.F_bar)
    chain = certify_rate_chain(beta_hat, sub, problem.f.lipschitz_L, 1.0, 1.0,
                               eps, eps, slice_.radius_eta)
    beta_cert = chain.get("beta_certified", math.nan)
    print(f"\nvalue-gap contraction: observed {beta_hat:.4f} over tail "
          f"window {window}, certified bound {beta_cert:.4f}")

    level = estimate_level_set_rate(trace, problem, slice_.F_bar, grid)
    beta_ls = level["beta_levelset"]
    refit = max(s.dist_level / s.dist_subdiff for s in samples
                if s.dist_subdiff > 0)
    bound = eps / ((1.0 - beta_ls) * 1.0)
    print(f"level-set contraction: {beta_ls:.4f}; refit strong-EB constant "
          f"{refit:.4f} against the implied cap {bound:.4f}")
    print(f"R-linear iterate rate: sqrt(beta) = {math.sqrt(beta_hat):.4f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        trace.write_csv(out / "trace.csv")
        (out / "probe.csv").write_text(
            "\n".join(samples_to_csv_lines(samples)) + "\n")
        print(f"\nwrote {out}/trace.csv and {out}/probe.csv")


if __name__ == "__main__":
    main()
