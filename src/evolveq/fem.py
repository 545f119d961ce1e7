"""P1 finite-element assembly on [0, 1]: mass, stiffness, Robin boundary terms.

Element integrals of the diffusion coefficient are exact for the affine-
in-x coefficients used by the presets.
"""
from __future__ import annotations

import numpy as np

from .spaces import GalerkinSpace

__all__ = [
    "uniform_nodes",
    "consistent_mass",
    "lumped_mass",
    "stiffness",
    "robin_boundary",
    "robin_space",
    "heat_matrix",
    "heat_terms",
]

_WOBBLE = 0.5   # kappa(t, x) = 1 + _WOBBLE x sin(t)
_ROBIN = 1.0    # Robin coefficient at both ends


def uniform_nodes(n_cells: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n_cells + 1)


def consistent_mass(n_cells: int) -> np.ndarray:
    h = 1.0 / n_cells
    n = n_cells + 1
    m = np.zeros((n, n))
    idx = np.arange(n_cells)
    np.add.at(m, (idx, idx), h / 3.0)
    np.add.at(m, (idx + 1, idx + 1), h / 3.0)
    np.add.at(m, (idx, idx + 1), h / 6.0)
    np.add.at(m, (idx + 1, idx), h / 6.0)
    return m


def lumped_mass(n_cells: int) -> np.ndarray:
    """The diagonal of the lumped mass: the row sums of the consistent one."""
    return consistent_mass(n_cells).sum(axis=1)


def stiffness(n_cells: int, cell_integrals: np.ndarray | None = None) -> np.ndarray:
    """Assemble sum_e c_e * (local stiffness), c_e the per-cell integral of kappa."""
    h = 1.0 / n_cells
    if cell_integrals is None:
        cell_integrals = np.full(n_cells, h)
    n = n_cells + 1
    k = np.zeros((n, n))
    coef = np.asarray(cell_integrals, dtype=float) / h**2
    idx = np.arange(n_cells)
    np.add.at(k, (idx, idx), coef)
    np.add.at(k, (idx + 1, idx + 1), coef)
    np.add.at(k, (idx, idx + 1), -coef)
    np.add.at(k, (idx + 1, idx), -coef)
    return k


def robin_boundary(n_cells: int) -> np.ndarray:
    n = n_cells + 1
    b = np.zeros((n, n))
    b[0, 0] = _ROBIN
    b[-1, -1] = _ROBIN
    return b


def robin_space(n_cells: int) -> GalerkinSpace:
    """All-nodes space with lumped mass H-Gram and H^1-type V-Gram.

    Lumping the H-metric makes nodewise clamping the exact H-projection
    onto box sets, and keeps the heat semigroup positivity-preserving.
    """
    h = lumped_mass(n_cells)
    gram_v = stiffness(n_cells) + np.diag(h)
    return GalerkinSpace(h, gram_v, labels=uniform_nodes(n_cells))


def heat_matrix(n_cells: int, t: float) -> np.ndarray:
    """Form matrix of int kappa(t,x) u' v' + Robin terms, kappa = 1 + x sin(t)/2.

    The per-cell integral of kappa is computed in closed form, so the
    assembly is exact in x; at t = 0 it is the kappa = 1 matrix bit for bit.
    """
    x = uniform_nodes(n_cells)
    h = 1.0 / n_cells
    cell = h + 0.5 * _WOBBLE * np.sin(t) * (x[1:] ** 2 - x[:-1] ** 2)
    return stiffness(n_cells, cell) + robin_boundary(n_cells)


def heat_terms(n_cells: int) -> tuple[np.ndarray, np.ndarray]:
    """Affine terms (A0, A1) of heat_matrix(n_cells, t) = A0 + sin(t) A1.

    A0 is the matrix at t = 0; A1 assembles the per-cell integral of x/2,
    the factor of sin(t) in kappa.
    """
    x = uniform_nodes(n_cells)
    a1 = stiffness(n_cells, 0.5 * _WOBBLE * (x[1:] ** 2 - x[:-1] ** 2))
    return heat_matrix(n_cells, 0.0), a1
