"""Variable-kernel proximal gradient solver with a level-set error-bound
diagnostics layer."""

from .core import (KernelSpec, Problem, Regularizer, SmoothObjective,
                   SolverConfig, ValidationReport, as_vector,
                   finite_diff_grad_check, power_iteration_norm,
                   validate_config)
from .bregman import (DescentConstants, PointAnnotation, ProxResult,
                      annotate_points, check_descent_inequality,
                      descent_case, descent_constants, distance, envelope,
                      envelope_gap, gap, prox_map, prox_points,
                      prox_subgradient, residual_bound)
from .solver import (Trace, kernel_schedule_jacobi, summability_bound,
                     vbpg_final_points, vbpg_run, vbpg_step)
from .problems import (ProblemSpec, build_problem, build_regularizer,
                       descent_case_fixtures, lasso_spec, shipped_instances)
from .diagnostics import (Campaign, EBFit, LevelSlice, ProbeSamples,
                          SublevelGrid, critical_points, eb_report,
                          estimate_level_set_rate, estimate_q_linear_rate,
                          fit_error_bound, kl_exponent_sweep, make_slice,
                          probe_slice, run_campaign)

__version__ = "0.1.0"
