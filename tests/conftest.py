import numpy as np
import pytest

from vbpg.core import KernelSpec, SolverConfig
from vbpg.diagnostics import make_slice, probe_rig, probe_slice
from vbpg.problems import ProblemSpec, lasso_spec, shipped_instances
from vbpg.solver import vbpg_run

EUC = KernelSpec.euclidean()


@pytest.fixture(scope="session")
def registry():
    return shipped_instances()


@pytest.fixture(scope="session")
def euclid():
    return EUC


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def build_campaign(problem, config, x0, eta, nu, n, seed, halfwidth=None,
                   resolution=None, center=None):
    """Solve, slice around the solution, probe: the shared diagnostic rig."""
    trace = vbpg_run(problem, config, np.asarray(x0, dtype=float))
    c = trace.final_x if center is None else np.asarray(center, dtype=float)
    slice_ = make_slice(problem, c, eta, nu)
    K = config.kernel_at(0)
    eps = config.eps_at(0)
    grid, crit = probe_rig(problem, K, eps, slice_, halfwidth=halfwidth,
                           resolution=resolution)
    samples = probe_slice(problem, K, eps, slice_, n, seed, grid=grid,
                          crit_points=crit)
    return {"problem": problem, "config": config, "trace": trace,
            "slice": slice_, "grid": grid, "crit": crit, "samples": samples,
            "K": K, "eps": eps}


@pytest.fixture(scope="session")
def lasso_campaign():
    problem = lasso_spec("lasso2", np.eye(2), [1.0, 0.8], 0.5).build()
    config = SolverConfig.constant(0.5, EUC, max_iters=400, step_tol=1e-9)
    return build_campaign(problem, config, [3.0, -2.0], eta=0.5, nu=0.1,
                          n=240, seed=5, halfwidth=2.0, resolution=0.005)


@pytest.fixture(scope="session")
def jump_campaign():
    problem = ProblemSpec("jump", "zero", {}, "jump_quadratic",
                          {"xbar": 0.0}, 1).build()
    config = SolverConfig.constant(0.5, EUC, max_iters=50)
    return build_campaign(problem, config, [0.8], eta=0.5, nu=1.2, n=200,
                          seed=7, halfwidth=2.0, center=[0.0])


def profile_campaign(profile, n=200, seed=9, eta=0.5, nu=0.6):
    """Probe campaign for a 1-D value profile around its minimizer at 0."""
    if profile == "square":
        spec = ProblemSpec("sq", "scalar_profile", {"id": "square"},
                           "zero", {}, 1)
        eps = 0.4
    else:
        spec = ProblemSpec(f"pow{profile}", "zero", {}, "power",
                           {"p": float(profile)}, 1)
        eps = 0.5
    problem = spec.build()
    config = SolverConfig.constant(eps, EUC, max_iters=400, step_tol=1e-12)
    return build_campaign(problem, config, [1.0], eta=eta, nu=nu, n=n,
                          seed=seed, halfwidth=2.0, center=[0.0])


@pytest.fixture(scope="session")
def profile_campaigns():
    return {name: profile_campaign(name)
            for name in ("square", 1.5, 3.0, 4.0)}
