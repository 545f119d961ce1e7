import numpy as np
import pytest

from evolveq.convergence import refine, solve_ladder
from evolveq.forms import Subdivision, estimate_constants
from evolveq.presets import get_preset, resolved_constants
from evolveq.propagator import solve


@pytest.fixture(scope="session")
def heat_preset():
    return get_preset("heat-1d-lipschitz")


@pytest.fixture(scope="session")
def heat_constants(heat_preset):
    return resolved_constants(heat_preset.constants,
                              estimate_constants(heat_preset.problem.family))


@pytest.fixture(scope="session")
def heat_homogeneous():
    return get_preset("heat-1d-lipschitz", load="none")


@pytest.fixture(scope="session")
def heat_traj_64(heat_preset):
    sub = Subdivision.uniform(heat_preset.problem.horizon, 64)
    return solve(heat_preset.problem, sub)


@pytest.fixture(scope="session")
def heat_study(heat_preset):
    """Dyadic ladder 8 -> 512 with the forcing load; shared by several audits."""
    return refine(solve_ladder(heat_preset.problem, [8, 16, 32, 64, 128, 256, 512]))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
