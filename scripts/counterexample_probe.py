#!/usr/bin/env python3
"""Probe study of the jump counterexample.

The shipped half-quadratic with a unit downward jump at its minimizer
satisfies the level-set subdifferential error bound with exponent 1 and
constant 1, yet no Kurdyka-Lojasiewicz inequality holds there: the value
gap across the jump never shrinks below 1 while the subdifferential
residual vanishes.  This script reproduces both facts from samples, by
running the probe pipeline on ``configs/jump_probe.json``.
"""

import argparse
import json
from pathlib import Path

from vbpg.cli import (problem_from_spec, problem_spec_from_config,
                      solver_config_from_config)
from vbpg.diagnostics import eb_report, run_campaign

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "jump_probe.json"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--samples", type=int, default=200)
    args = ap.parse_args(argv)

    cfg = json.loads(CONFIG.read_text())
    problem = problem_from_spec(problem_spec_from_config(cfg))
    config = solver_config_from_config(cfg, problem)
    campaign = run_campaign(problem, config, cfg["x0"],
                            {**cfg["probe"], "n_samples": args.samples},
                            args.seed)
    report = eb_report(campaign, args.seed)

    fit = report["fits"]["level_subdiff"]
    print(f"level-set subdifferential EB: exponent {fit['exponent']:.6f}, "
          f"constant {fit['constant']:.6f}, "
          f"held-out violations {fit['violated_fraction']:.1%}")
    gaps = [s.value_gap for s in campaign.samples]
    res = [s.dist_subdiff for s in campaign.samples]
    print(f"value gaps stay in [{min(gaps):.4f}, {max(gaps):.4f}] while "
          f"residuals span [{min(res):.2e}, {max(res):.2e}]")

    print("\nKL sweep (fraction of near-critical samples violating "
          "dist >= c * gap^alpha):")
    for row in report["checks"]["kl_sweep"]:
        print(f"  alpha = {row['alpha']:.2f}: violated "
              f"{row['violated_fraction']:.1%}")


if __name__ == "__main__":
    main()
