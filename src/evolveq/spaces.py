"""Finite-dimensional model of a Gelfand triple: a lumped H-metric and a V-Gram.

The pivot space H carries a lumped (diagonal) mass, held as its diagonal
h, and the form domain V an SPD Gram matrix on the same coefficient
basis.  Dual-space quantities are carried as vectors of pairings against
that basis.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

__all__ = [
    "StructureError",
    "GalerkinSpace",
]


class StructureError(ValueError):
    """A Gram matrix violates the symmetry/SPD contract, or a solve failed."""


def _checked_spd(name: str, mat) -> tuple[np.ndarray, np.ndarray]:
    """Validate symmetry and positive definiteness; return (matrix, Cholesky L)."""
    mat = np.array(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise StructureError(f"{name} must be a square matrix, got shape {mat.shape}")
    scale = max(np.linalg.norm(mat), np.finfo(float).tiny)
    defect = np.linalg.norm(mat - mat.T)
    if defect > 1e-12 * scale:
        raise StructureError(f"{name} is not symmetric (relative defect {defect / scale:.3e})")
    mat = 0.5 * (mat + mat.T)
    try:
        chol = sla.cholesky(mat, lower=True)
    except sla.LinAlgError as exc:
        raise StructureError(f"{name} is not positive definite") from exc
    return mat, chol


@dataclass
class GalerkinSpace:
    """The H-metric diag(h), a lumped mass, and the SPD V-Gram on one basis.

    h is the diagonal of the H-Gram; a matrix in its place, such as a
    consistent mass, raises StructureError.
    """

    h: np.ndarray
    gram_V: np.ndarray
    labels: np.ndarray | None = None

    _root_h: np.ndarray = field(init=False, repr=False)
    _chol_V: np.ndarray = field(init=False, repr=False)
    _c_H: float | None = field(default=None, init=False, repr=False)
    _dual_gram: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.h = np.array(self.h, dtype=float)
        if self.h.ndim != 1:
            raise StructureError("the H-Gram must be a lumped mass, given as its "
                                 f"diagonal h; got shape {self.h.shape}")
        if not np.all((self.h > 0) & (self.h < np.inf)):
            raise StructureError("h is not positive and finite")
        self.gram_V, self._chol_V = _checked_spd("gram_V", self.gram_V)
        if self.gram_V.shape != (self.h.size, self.h.size):
            raise StructureError("h and gram_V must have matching shapes")
        # sqrt(h) is the Cholesky factor of diag(h), entry for entry
        self._root_h = np.sqrt(self.h)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=float)

    @property
    def dim(self) -> int:
        return self.h.size

    def h_norm(self, u) -> float:
        return float(np.linalg.norm(self._root_h * np.asarray(u, dtype=float)))

    def v_norm(self, u) -> float:
        w = self._chol_V.T @ np.asarray(u, dtype=float)
        return float(np.linalg.norm(w))

    def v_norms(self, states: np.ndarray) -> np.ndarray:
        """Column-wise V-norms of a (dim, m) array of coefficient vectors, or
        of a (k, dim, m) stack of them, one matrix product per (dim, m) block."""
        return np.linalg.norm(self._chol_V.T @ states, axis=-2)

    def h_norms(self, states: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self._root_h[:, None] * states, axis=0)

    def solve_V(self, rhs):
        try:
            return sla.cho_solve((self._chol_V, True), np.asarray(rhs, dtype=float))
        except (sla.LinAlgError, ValueError) as exc:
            raise StructureError("V-Gram solve failed") from exc

    def solve_H(self, rhs):
        """diag(h)^{-1} rhs for a vector or a (dim, m) block.

        Each entry is multiplied twice by 1/sqrt(h), as a Cholesky solve
        multiplies by its pivots' reciprocals: rhs / h would move the last
        bit of the loads and of every result computed from them.
        """
        r = 1.0 / self._root_h
        return (np.asarray(rhs, dtype=float).T * r * r).T

    @property
    def dual_gram(self) -> np.ndarray:
        """Matrix of the V'-inner product on pairing vectors: gram_V^{-1}."""
        if self._dual_gram is None:
            self._dual_gram = self.solve_V(np.eye(self.dim))
        return self._dual_gram

    @property
    def embedding_constant(self) -> float:
        """Smallest c with ||u||_H <= c ||u||_V for every coefficient vector u."""
        if self._c_H is None:
            try:
                lam = sla.eigh(
                    np.diag(self.h), self.gram_V, eigvals_only=True,
                    subset_by_index=[self.dim - 1, self.dim - 1],
                )
            except sla.LinAlgError as exc:
                raise StructureError("generalized eigensolve for c_H failed") from exc
            self._c_H = float(np.sqrt(lam[-1]))
        return self._c_H
