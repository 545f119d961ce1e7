import numpy as np
import pytest

from evolveq.convergence import (oracle_reference, oracle_suph_gap, refine,
                                 solve_ladder)
from evolveq.fem import consistent_mass, heat_terms, stiffness, uniform_nodes
from evolveq.forms import (AffineTerms, FormFamily, Harmonic, Subdivision,
                           estimate_constants)
from evolveq.mr import _eint, _slab_coefficients
from evolveq.presets import get_preset, resolved_constants
from evolveq.propagator import ProblemData, solve
from evolveq.spaces import GalerkinSpace


def dirichlet_space(n_cells):
    """Interior-node space with consistent mass and stiffness-plus-mass V-Gram.

    Its gram_H is not diagonal, so families on it take the dense paths.
    """
    mass = consistent_mass(n_cells)[1:-1, 1:-1]
    stiff = stiffness(n_cells)[1:-1, 1:-1]
    return GalerkinSpace(mass, stiff + mass, labels=uniform_nodes(n_cells)[1:-1])


def consistent_mass_problem(n_cells, horizon=1.0):
    """Tridiagonal affine terms over a consistent (non-diagonal) gram_H."""
    space = dirichlet_space(n_cells)
    a0, a1 = (a[1:-1, 1:-1] for a in heat_terms(n_cells))
    family = FormFamily(space, None, horizon, symmetric=True,
                        terms=AffineTerms(a0, a1, Harmonic(b=1.0)))
    return ProblemData(family, np.sin(np.pi * space.labels))


def callable_family(family):
    """The same A(t) as a callable family: the reference for the routes that
    affine terms and band storage take."""
    return FormFamily(family.space, family.matrix, family.horizon,
                      symmetric=family.symmetric)


def _bilinear_exp_integral(mu, c, p, d, q, gram, length):
    """Integral over [0, length] of (e^{-mu t}c + p)^T G (e^{-mu t}d + q)."""
    cross = _eint(mu[:, None] + mu[None, :], length)
    total = float(np.sum(gram * np.outer(c, d) * cross))
    total += float((c * _eint(mu, length)) @ gram @ q)
    total += float(p @ gram @ (d * _eint(mu, length)))
    total += float(p @ gram @ q) * length
    return total


def reference_mr_terms(traj):
    """The integrals of `mr_norms` by one general bilinear form each, every
    one with its own kernel and a dense modal Gram: the reference for the
    one-kernel pass."""
    space = traj.space
    gram_dual = space.gram_H @ space.dual_gram @ space.gram_H
    terms = {"l2V_slabs": [], "chain_slabs": [], "product_slabs": [],
             "h1H": 0.0, "h1Vp": 0.0}
    for slab in traj.slabs:
        mu, c, p, dc = _slab_coefficients(slab)
        w, length = slab.propagator.modes, slab.length
        zero, eye = np.zeros_like(mu), np.eye(mu.size)
        terms["l2V_slabs"].append(_bilinear_exp_integral(
            mu, c, p, c, p, w.T @ space.gram_V @ w, length))
        terms["h1H"] += _bilinear_exp_integral(mu, dc, zero, dc, zero, eye, length)
        terms["h1Vp"] += _bilinear_exp_integral(mu, dc, zero, dc, zero,
                                                w.T @ gram_dual @ w, length)
        terms["chain_slabs"].append(2.0 * _bilinear_exp_integral(
            mu, dc, zero, c, p, eye, length))
        terms["product_slabs"].append(2.0 * _bilinear_exp_integral(
            mu, c, p, dc, zero, np.diag(mu), length))
    terms["h1H"], terms["h1Vp"] = np.sqrt(terms["h1H"]), np.sqrt(terms["h1Vp"])
    return terms


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
