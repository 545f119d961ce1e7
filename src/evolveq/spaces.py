"""Finite-dimensional model of a Gelfand triple: a lumped H-metric and a banded V-Gram.

The pivot space H carries a lumped (diagonal) mass, held as its diagonal
h, and the form domain V a symmetric positive definite tridiagonal Gram
on the same coefficient basis, held as its bands together with their
factor gram_V = L D L^T (LAPACK pttrf), L unit lower bidiagonal.  A
V-norm is ||D^{1/2} L^T u||, and a V-solve is one LAPACK pttrs call: both
cost O(n) per column, and no n x n matrix is kept or formed.  Dual-space
quantities are carried as vectors of pairings against the basis; the
V'-inner product of two of them is g^T gram_V^{-1} f, one banded solve.

Bands use the (3, n) layout of `bands`, which `tridiagonal` shares: row 0
is the superdiagonal shifted right by one, row 1 the diagonal, row 2 the
subdiagonal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

__all__ = [
    "StructureError",
    "GalerkinSpace",
    "bands",
]


class StructureError(ValueError):
    """A Gram matrix violates the symmetry/SPD/band contract, or a solve failed."""


def bands(a: np.ndarray) -> np.ndarray | None:
    """The (3, n) bands of a square matrix, or None when it has entries off them."""
    out = np.zeros((3, a.shape[0]))
    out[0, 1:] = np.diagonal(a, 1)
    out[1] = np.diagonal(a)
    out[2, :-1] = np.diagonal(a, -1)
    return out if np.count_nonzero(a) == np.count_nonzero(out) else None


def _off_diagonal(b: np.ndarray) -> np.ndarray:
    """The off-diagonal of symmetric bands as LAPACK pt* routines take it; at
    dim 1 a one-entry stand-in, since the wrappers refuse an empty array and
    LAPACK reads none of it."""
    return b[0, 1:] if b.shape[1] > 1 else np.zeros(1)


def _checked_gram_V(mat) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Validate a tridiagonal SPD gram_V; return (its symmetric bands, the
    diagonal of D and the subdiagonal of L in gram_V = L D L^T)."""
    mat = np.array(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructureError(f"gram_V must be a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise StructureError("gram_V has non-finite entries")
    b = bands(mat)
    if b is None:
        raise StructureError("gram_V must be tridiagonal")
    scale = max(np.linalg.norm(b), np.finfo(float).tiny)
    defect = np.sqrt(2.0) * np.linalg.norm(b[0, 1:] - b[2, :-1])
    if defect > 1e-12 * scale:
        raise StructureError(f"gram_V is not symmetric (relative defect {defect / scale:.3e})")
    b[0, 1:] = b[2, :-1] = 0.5 * (b[0, 1:] + b[2, :-1])
    d, e, info = dpttrf(b[1], _off_diagonal(b))
    if info != 0:
        raise StructureError("gram_V is not positive definite")
    return b, (d, e)


@dataclass
class GalerkinSpace:
    """The H-metric diag(h), a lumped mass, and the tridiagonal SPD V-Gram on one basis.

    h is the diagonal of the H-Gram; a matrix in its place, such as a
    consistent mass, raises StructureError.  gram_V is given as a matrix
    and kept as its (3, n) bands; a V-Gram with entries off the three
    bands raises StructureError.
    """

    h: np.ndarray
    gram_V: np.ndarray
    labels: np.ndarray | None = None

    _root_h: np.ndarray = field(init=False, repr=False)
    _factor_V: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.h = np.array(self.h, dtype=float)
        if self.h.ndim != 1:
            raise StructureError("the H-Gram must be a lumped mass, given as its "
                                 f"diagonal h; got shape {self.h.shape}")
        if not np.all((self.h > 0) & (self.h < np.inf)):
            raise StructureError("h is not positive and finite")
        if np.shape(self.gram_V) != (self.h.size, self.h.size):
            raise StructureError("h and gram_V must have matching shapes")
        self.gram_V, self._factor_V = _checked_gram_V(self.gram_V)
        # sqrt(h) is the Cholesky factor of diag(h), entry for entry
        self._root_h = np.sqrt(self.h)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=float)

    @property
    def dim(self) -> int:
        return self.h.size

    def v_norm(self, u) -> float:
        return float(self.v_norms(np.asarray(u, dtype=float)[:, None])[0])

    def v_norms(self, states: np.ndarray) -> np.ndarray:
        """Column-wise V-norms ||D^{1/2} L^T x|| of a (dim, m) array of
        coefficient vectors, or of a (k, dim, m) stack of them, in O(dim)
        per column."""
        x = np.asarray(states, dtype=float)
        d, e = self._factor_V
        y = x.copy()
        y[..., :-1, :] += e[:x.shape[-2] - 1, None] * x[..., 1:, :]
        y *= np.sqrt(d)[:, None]
        return np.linalg.norm(y, axis=-2)

    def h_norms(self, states: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self._root_h[:, None] * states, axis=0)

    def solve_V(self, rhs):
        """gram_V^{-1} rhs for a vector or a (dim, m) block: one LDL^T solve
        (LAPACK pttrs), O(dim) per column."""
        x, info = dpttrs(*self._factor_V, np.asarray(rhs, dtype=float))
        if info != 0:
            raise StructureError(f"V-Gram solve failed (pttrs info {info})")
        return x

    def solve_H(self, rhs):
        """diag(h)^{-1} rhs for a vector or a (dim, m) block.

        Each entry is multiplied twice by 1/sqrt(h), as a Cholesky solve
        multiplies by its pivots' reciprocals: rhs / h would move the last
        bit of the loads and of every result computed from them.
        """
        r = 1.0 / self._root_h
        return (np.asarray(rhs, dtype=float).T * r * r).T
