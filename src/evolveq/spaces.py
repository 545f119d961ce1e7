"""Finite-dimensional model of a Gelfand triple: a lumped H-metric and a banded V-Gram.

The pivot space H carries a lumped (diagonal) mass, held as its diagonal
h, and the form domain V a symmetric positive definite tridiagonal Gram
on the same coefficient basis, given and held as its bands together with
their factor gram_V = L D L^T (LAPACK pttrf), L unit lower bidiagonal.  A
V-norm is ||D^{1/2} L^T u||, and a V-solve is one LAPACK pttrs call: both
cost O(n) per column, and no n x n matrix is kept or formed.  Dual-space
quantities are carried as vectors of pairings against the basis; the
V'-inner product of two of them is g^T gram_V^{-1} f, one banded solve.

Every symmetric tridiagonal matrix of the package, the V-Gram and the
form terms alike, is a (3, n) array in LAPACK's (1, 1) banded layout:
row 0 is the superdiagonal shifted right by one, row 1 the diagonal,
row 2 the subdiagonal, and the two unused corners hold zeros.
`symmetric_bands` checks such an array once, where it enters.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lapack import dpttrf, dpttrs

__all__ = [
    "StructureError",
    "GalerkinSpace",
    "symmetric_bands",
]


class StructureError(ValueError):
    """Bands of a Gram matrix or form term violate the symmetry/SPD/band
    contract, or a solve failed."""


def symmetric_bands(b, dim: int, what: str) -> np.ndarray:
    """A checked float copy of the (3, dim) bands b of a symmetric
    tridiagonal matrix, its two off-diagonals averaged.

    Bands of another shape, with a nonzero corner, with a non-finite entry
    or not symmetric to 1e-12 relative raise StructureError.
    """
    b = np.array(b, dtype=float)
    if b.shape != (3, dim):
        raise StructureError(f"{what} must be (3, {dim}) bands, got shape {b.shape}")
    if b[0, 0] != 0.0 or b[2, -1] != 0.0:
        raise StructureError(f"{what} has a nonzero corner in its bands")
    if not np.all(np.isfinite(b)):
        raise StructureError(f"{what} has non-finite entries")
    # the norms are taken of b / max|b|, so that they cannot overflow
    unit = b / max(np.max(np.abs(b)), np.finfo(float).tiny)
    scale = np.linalg.norm(unit)
    defect = np.sqrt(2.0) * np.linalg.norm(unit[0, 1:] - unit[2, :-1])
    if defect > 1e-12 * scale:
        raise StructureError(f"{what} is not symmetric (relative defect {defect / scale:.3e})")
    b[0, 1:] = b[2, :-1] = b[0, 1:] + 0.5 * (b[2, :-1] - b[0, 1:])
    return b


def _off_diagonal(b: np.ndarray) -> np.ndarray:
    """The off-diagonal of symmetric bands as LAPACK pt* routines take it; at
    dim 1 a one-entry stand-in, since the wrappers refuse an empty array and
    LAPACK reads none of it."""
    return b[0, 1:] if b.shape[1] > 1 else np.zeros(1)


@dataclass
class GalerkinSpace:
    """The H-metric diag(h), a lumped mass, and the tridiagonal SPD V-Gram on one basis.

    h is the diagonal of the H-Gram; a matrix in its place, such as a
    consistent mass, raises StructureError.  gram_V is given as its (3, n)
    bands and checked by `symmetric_bands`.
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
        self.gram_V = b = symmetric_bands(self.gram_V, self.h.size, "gram_V")
        # the diagonal of D and the subdiagonal of L in gram_V = L D L^T
        d, e, info = dpttrf(b[1], _off_diagonal(b))
        if info != 0:
            raise StructureError("gram_V is not positive definite")
        self._factor_V = d, e
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
