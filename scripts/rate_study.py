#!/usr/bin/env python3
"""End-to-end linear-rate study on the two-coordinate lasso instance.

Runs the probe pipeline on ``configs/lasso.json``: solves the instance,
probes a level slice around the solution, fits the level-set error
bounds, and compares the observed value-gap contraction against the
certified bound 1/(1 + a/kappa) built from the fitted constants.  Prints
a small report; pass --out DIR to also dump the solver trace and the
probe CSV.
"""

import argparse
import json
import math
from pathlib import Path

from vbpg.cli import (problem_from_spec, problem_spec_from_config,
                      solver_config_from_config)
from vbpg.diagnostics import eb_report, run_campaign, samples_to_csv_lines

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "lasso.json"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--samples", type=int, default=240)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    cfg = json.loads(CONFIG.read_text())
    problem = problem_from_spec(problem_spec_from_config(cfg))
    config = solver_config_from_config(cfg, problem)
    campaign = run_campaign(problem, config, cfg["x0"],
                            {**cfg["probe"], "n_samples": args.samples},
                            args.seed)
    report = eb_report(campaign, args.seed)
    trace = campaign.trace
    print(f"solution x = {trace.final_x}, F = {trace.final_F:.12g}, "
          f"{trace.n_iters} iterations")

    print("\nfitted level-set bounds:")
    for kind in ("level_subdiff", "level_bregman", "kl", "sharpness",
                 "gap_condition"):
        fit = report["fits"][kind]
        print(f"  {kind:14s} exponent {fit['exponent']:7.3f}  "
              f"constant {fit['constant']:9.4g}  "
              f"held-out violations {fit['violated_fraction']:.1%}")

    rate = report["checks"]["rate_chain"]
    print(f"\nvalue-gap contraction: observed {rate['beta_hat']:.4f} over "
          f"tail window {tuple(rate['window'])}, certified bound "
          f"{rate.get('beta_certified', math.nan):.4f}")
    level = report["checks"]["level_set_rate_certificates"]
    print(f"level-set contraction: {level['beta_levelset']:.4f}; refit "
          f"strong-EB constant {level['refit_c3prime']:.4f} against the "
          f"implied cap {level['reverse_c3_bound']:.4f}")
    print(f"R-linear iterate rate: sqrt(beta) = "
          f"{math.sqrt(rate['beta_hat']):.4f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        trace.write_csv(out / "trace.csv")
        (out / "probe.csv").write_text(
            "\n".join(samples_to_csv_lines(campaign.samples)) + "\n")
        print(f"\nwrote {out}/trace.csv and {out}/probe.csv")


if __name__ == "__main__":
    main()
