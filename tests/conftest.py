import numpy as np
import pytest

from evolveq.convergence import (oracle_reference, oracle_suph_gap, refine,
                                 solve_ladder)
from evolveq.fem import consistent_mass, stiffness, uniform_nodes
from evolveq.forms import FormFamily, Subdivision, estimate_constants
from evolveq.presets import get_preset, resolved_constants
from evolveq.propagator import solve
from evolveq.spaces import GalerkinSpace


def dirichlet_space(n_cells):
    """Interior-node space with consistent mass and stiffness-plus-mass V-Gram.

    Its gram_H is not diagonal, so families on it take the dense paths.
    """
    mass = consistent_mass(n_cells)[1:-1, 1:-1]
    stiff = stiffness(n_cells)[1:-1, 1:-1]
    return GalerkinSpace(mass, stiff + mass, labels=uniform_nodes(n_cells)[1:-1])


def callable_family(family):
    """The same A(t) as a callable family: the reference for the routes that
    affine terms and band storage take."""
    return FormFamily(family.space, family.matrix, family.horizon,
                      symmetric=family.symmetric)


def oracle_gap(problem, subdivision, n_steps, relative=False):
    """sup-H gap between the exponential scheme and the implicit-Euler oracle.

    With `relative`, divided by the oracle's largest H-norm.
    """
    oracle = oracle_reference(problem, n_steps)
    gap = oracle_suph_gap(solve(problem, subdivision), oracle)
    if relative:
        scale = float(np.max(problem.family.space.h_norms(oracle.states)))
        return gap / scale if scale > 0 else gap
    return gap


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
def heat_ladder(heat_preset):
    """Dyadic ladder 8 -> 512 with the forcing load; shared by several audits."""
    return solve_ladder(heat_preset.problem, [8, 16, 32, 64, 128, 256, 512])


@pytest.fixture(scope="session")
def heat_study(heat_ladder):
    return refine(heat_ladder)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
