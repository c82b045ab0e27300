import numpy as np
import pytest

from vbpg.core import KernelSpec, SolverConfig
from vbpg.diagnostics import run_campaign
from vbpg.problems import ProblemSpec, lasso_spec, shipped_instances

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


@pytest.fixture(scope="session")
def lasso_campaign():
    problem = lasso_spec("lasso2", np.eye(2), [1.0, 0.8], 0.5).build()
    config = SolverConfig.constant(0.5, EUC, max_iters=400, step_tol=1e-9)
    return run_campaign(problem, config, [3.0, -2.0],
                        {"eta": 0.5, "nu": 0.1, "n_samples": 240,
                         "box_halfwidth": 2.0, "resolution": 0.005}, seed=5)


@pytest.fixture(scope="session")
def jump_campaign():
    problem = ProblemSpec("jump", "zero", {}, "jump_quadratic",
                          {"xbar": 0.0}, 1).build()
    config = SolverConfig.constant(0.5, EUC, max_iters=50)
    return run_campaign(problem, config, [0.8],
                        {"center": [0.0], "eta": 0.5, "nu": 1.2,
                         "n_samples": 200, "box_halfwidth": 2.0}, seed=7)


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
    return run_campaign(problem, config, [1.0],
                        {"center": [0.0], "eta": eta, "nu": nu, "n_samples": n,
                         "box_halfwidth": 2.0}, seed)


@pytest.fixture(scope="session")
def profile_campaigns():
    return {name: profile_campaign(name)
            for name in ("square", 1.5, 3.0, 4.0)}
