"""Tridiagonal band storage, its two O(n) solvers, products and row-wise pairing.

Bands are held in LAPACK's (1, 1) banded layout, a (3, n) array: row 0 is
the superdiagonal shifted right by one, row 1 the diagonal, row 2 the
subdiagonal; the two unused corners hold zeros.  Linear combinations of
band arrays are the bands of the same combinations of the matrices.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgtsv

from .spaces import StructureError

__all__ = ["bands", "matvec", "pair_rows", "march", "pencil_eigh"]


def bands(a: np.ndarray) -> np.ndarray | None:
    """The bands of a square matrix, or None when it has entries off them."""
    out = np.zeros((3, a.shape[0]))
    out[0, 1:] = np.diagonal(a, 1)
    out[1] = np.diagonal(a)
    out[2, :-1] = np.diagonal(a, -1)
    return out if np.count_nonzero(a) == np.count_nonzero(out) else None


def matvec(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x row by row, in O(n), for the (3, n) bands b of A and a vector x,
    or for (3, n, m) bands, one A per column, and an (n, m) block x."""
    y = b[1] * x
    y[:-1] += b[0, 1:] * x[1:]
    y[1:] += b[2, :-1] * x[:-1]
    return y


def pair_rows(b: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left_i^T A right_i for each row pair of two (m, n) arrays, in O(m n).

    b are the bands of A: row 0 pairs left_{j-1} with right_j, row 1
    left_j with right_j and row 2 left_{j+1} with right_j.
    """
    return (np.einsum("ij,ij,j->i", left, right, b[1])
            + np.einsum("ij,ij,j->i", left[:, :-1], right[:, 1:], b[0, 1:])
            + np.einsum("ij,ij,j->i", left[:, 1:], right[:, :-1], b[2, :-1]))


def march(h: np.ndarray, bands: np.ndarray, loads: np.ndarray,
          u: np.ndarray) -> np.ndarray:
    """The (m, n) chain x_i with B_i x_i = h x_{i-1} + loads_i, x_{-1} = u,
    for the (m, 3, n) bands of B_i: one LAPACK gtsv call per step.

    The bands are scratch that gtsv overwrites, and each right-hand side is
    formed in its row of the result, where gtsv solves in place.  At dim 1
    the wrapper refuses the empty off-diagonals, so the pivot divides
    instead.  A singular step raises StructureError.
    """
    states = np.empty_like(loads)
    if u.size == 1:
        for pivot, load, x in zip(bands[:, 1, 0], loads, states):
            if pivot == 0.0:
                raise StructureError("tridiagonal solve failed (gtsv info 1)")
            x[:] = u = (h * u + load) / pivot
        return states
    for sub, diag, sup, load, x in zip(bands[:, 2, :-1], bands[:, 1], bands[:, 0, 1:],
                                       loads, states):
        np.add(np.multiply(h, u, out=x), load, out=x)
        _, _, _, u, info = dgtsv(sub, diag, sup, x, True, True, True, True)
        if info != 0:
            raise StructureError(f"tridiagonal solve failed (gtsv info {info})")
    return states


def pencil_eigh(b: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the pencil (sym(A), diag(h)) for the bands b of A.

    The symmetric tridiagonal h^{-1/2} sym(A) h^{-1/2} = Q diag(rates) Q^T
    is solved by MRRR (`scipy.linalg.eigh_tridiagonal`); the modes
    h^{-1/2} Q are diag(h)-orthonormal.  A failed solve raises LinAlgError.
    """
    s = 1.0 / np.sqrt(h)
    off = 0.5 * (b[0, 1:] + b[2, :-1]) * s[:-1] * s[1:]
    rates, q = sla.eigh_tridiagonal(b[1] / h, off)
    return rates, s[:, None] * q
