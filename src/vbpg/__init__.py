"""Variable-kernel proximal gradient solver with a level-set error-bound
diagnostics layer."""

from .core import (Constants, KernelSpec, Problem, Regularizer,
                   SmoothObjective, SolverConfig, ValidationReport, as_vector,
                   validate_config)
from .bregman import PointAnnotation, ProxResult, annotate_points, prox_map
from .solver import (Trace, kernel_schedule_jacobi, summability_bound,
                     vbpg_final_points, vbpg_run)
from .problems import (ProblemSpec, build_problem, build_regularizer,
                       lasso_spec, shipped_instances)
from .diagnostics import (Campaign, EBFit, LevelSlice, ProbeSamples,
                          SublevelGrid, critical_points, eb_report,
                          estimate_level_set_rate, estimate_q_linear_rate,
                          fit_error_bound, kl_exponent_sweep, make_slice,
                          probe_slice, run_campaign)

__version__ = "0.1.0"
