"""O(n) solvers and products, the pencil eigensolve and the inertia
bisection of tridiagonal matrices held as their bands.

Bands are LAPACK's (1, 1) banded layout, a (3, n) array: row 0 is the
superdiagonal shifted right by one, row 1 the diagonal, row 2 the
subdiagonal; the two unused corners hold zeros.  The V-Gram and the form
terms are held so (`spaces.symmetric_bands`), and linear combinations of
band arrays are the bands of the same combinations of the matrices.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgtsv, dpttrf

from .spaces import StructureError

__all__ = ["matvec", "march", "pencil_eigh", "definite", "pencil_bracket"]

_EXPANSIONS = 2100     # doublings that take any finite start past the overflow threshold


def matvec(b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x row by row, in O(n), for the (3, n) bands b of A and a vector x,
    or for (3, n, m) bands, one A per column, and an (n, m) block x."""
    y = b[1] * x
    y[:-1] += b[0, 1:] * x[1:]
    y[1:] += b[2, :-1] * x[:-1]
    return y


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
    """Eigenpairs of the pencil (A, diag(h)) for the bands b of a symmetric A.

    The symmetric tridiagonal h^{-1/2} A h^{-1/2} = Q diag(rates) Q^T is
    solved by divide and conquer (`scipy.linalg.eigh_tridiagonal` with the
    LAPACK routine stevd named, so SciPy's default cannot move the bits);
    the modes h^{-1/2} Q are diag(h)-orthonormal.  A failed solve raises LinAlgError.
    """
    s = 1.0 / np.sqrt(h)
    off = b[0, 1:] * s[:-1] * s[1:]
    rates, q = sla.eigh_tridiagonal(b[1] / h, off, lapack_driver="stevd")
    return rates, s[:, None] * q


def definite(b: np.ndarray) -> bool:
    """Whether the symmetric tridiagonal matrix with bands b is positive
    definite: its LDL^T factorization (LAPACK pttrf) succeeds.

    By Sylvester's law of inertia this holds exactly when every pivot is
    positive; b holds a non-finite entry only for a matrix that is not.
    """
    if not np.isfinite(b[:2]).all():
        return False
    if b.shape[1] == 1:
        return bool(b[1, 0] > 0.0)
    return dpttrf(b[1], b[0, 1:])[2] == 0


def pencil_bracket(a: np.ndarray, g: np.ndarray, largest: bool = False
                   ) -> tuple[float, float]:
    """A bracket lo <= lam <= hi of the least (or, with `largest`, the
    greatest) eigenvalue lam of the pencil (A, G), for the bands a of a
    symmetric tridiagonal A and g of a symmetric positive definite
    tridiagonal G, by inertia bisection: one LDL^T factorization per step.

    For the least eigenvalue A - lo G is positive definite and A - hi G is
    not, so lo is certified from below; for the greatest, hi G - A is
    positive definite and lo G - A is not, so hi is certified from above.
    The bisection stops when hi - lo is at most 4 ulps of the eigenvalue,
    or, for an eigenvalue at 0, 2^-104 of the starting bracket.  At dim 1
    the one eigenvalue is a / g, and both ends are that quotient.
    Non-finite bands raise StructureError.
    """
    if not (np.isfinite(a[:2]).all() and np.isfinite(g[:2]).all()):
        raise StructureError("pencil bands are not finite")
    if a.shape[1] == 1:
        lam = float(a[1, 0] / g[1, 0])
        return lam, lam
    sign = -1.0 if largest else 1.0
    ad, ae, gd, ge = sign * a[1], sign * a[0, 1:], g[1], g[0, 1:]

    def definite_at(lam: float) -> bool:
        return dpttrf(ad - lam * gd, ae - lam * ge)[2] == 0

    # a coordinate vector's Rayleigh quotient: A - hi G has a diagonal entry <= 0
    hi = float(np.min(ad / gd))
    width = abs(hi) if hi != 0.0 else 1.0
    for _ in range(_EXPANSIONS):
        if not definite_at(hi):
            break
        hi += width          # rounding left that diagonal entry positive
    for _ in range(_EXPANSIONS):
        lo = hi - width
        if definite_at(lo):
            break
        width *= 2.0
    else:
        raise StructureError("no certified bound found for the pencil's eigenvalue")
    floor = 2.0 ** -104 * (hi - lo)
    while hi - lo > max(4.0 * np.spacing(max(abs(lo), abs(hi))), floor):
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        if definite_at(mid):
            lo = mid
        else:
            hi = mid
    return (-hi, -lo) if largest else (lo, hi)
