"""Time-dependent bilinear form families, slab averaging and certified constants.

A family evaluates to a square coefficient matrix A(t) with
a(t; u, v) = u^T A(t) v.  Slab averaging replaces the family on each
interval of a subdivision by its integral mean, computed with composite
Gauss-Legendre quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .spaces import GalerkinSpace, StructureError

__all__ = [
    "EvaluationError",
    "FormConstants",
    "FormFamily",
    "Subdivision",
    "average_form",
    "build_step_form",
    "estimate_constants",
    "rescale",
    "certify_shift",
    "dual_operator_norm",
    "coercivity_lower_bound",
    "gauss_panels",
]

GAUSS_PANELS = 4
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


class EvaluationError(ValueError):
    """A form evaluation produced non-finite entries or broke a declared flag."""


def gauss_panels(a: float, b: float,
                 panels: int = GAUSS_PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Composite 4-point Gauss-Legendre nodes and weights on [a, b]."""
    x, w = _GAUSS_X, _GAUSS_W
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class FormConstants:
    """Continuity/coercivity/Lipschitz data, either declared or sampled."""

    bound: float | None = None        # V -> V' operator-norm bound M
    coercivity: float | None = None   # alpha at the given shift
    shift: float = 0.0                # omega used when certifying coercivity
    lipschitz: float | None = None    # L in the time-Lipschitz bound
    certified_on_samples: bool = True


@dataclass(frozen=True)
class Subdivision:
    """Strictly increasing breakpoints 0 = lambda_0 < ... < lambda_{n+1} = T."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("subdivision needs at least two points")
        if pts[0] != 0.0:
            raise ValueError("subdivision must start at 0")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("subdivision points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, horizon: float, n_slabs: int) -> "Subdivision":
        if n_slabs < 1:
            raise ValueError("need at least one slab")
        return cls(np.linspace(0.0, horizon, n_slabs + 1))

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def n_slabs(self) -> int:
        return self.points.size - 1

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.points)))

    @property
    def is_uniform(self) -> bool:
        gaps = np.diff(self.points)
        return bool(np.allclose(gaps, gaps[0], rtol=1e-12, atol=0.0))

    def slab_index(self, t):
        """Right-continuous slab lookup of a time or an array of times.

        t = T maps to the last slab; a time outside [0, T] raises ValueError.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < self.points[0]) or np.any(t > self.points[-1]):
            raise ValueError(f"time outside [0, {self.horizon}]")
        k = np.searchsorted(self.points, t, side="right") - 1
        return np.minimum(k, self.n_slabs - 1)


@dataclass
class FormFamily:
    """t -> A(t) on a Galerkin space, with horizon and declared structure."""

    space: GalerkinSpace
    eval: Callable[[float], np.ndarray]
    horizon: float
    symmetric: bool = False

    def matrix(self, t: float) -> np.ndarray:
        a = np.asarray(self.eval(t), dtype=float)
        if a.shape != (self.space.dim, self.space.dim):
            raise EvaluationError(f"form matrix at t={t} has shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise EvaluationError(f"form matrix at t={t} has non-finite entries")
        if self.symmetric:
            scale = max(np.linalg.norm(a), np.finfo(float).tiny)
            if np.linalg.norm(a - a.T) > 1e-12 * scale:
                raise EvaluationError(f"family declared symmetric but A({t}) is not")
        return a


def average_form(family: FormFamily, t0: float, t1: float) -> np.ndarray:
    """Integral mean of A over [t0, t1] by composite Gauss-Legendre quadrature."""
    if not t0 < t1:
        raise ValueError("slab must have positive length")
    nodes, weights = gauss_panels(t0, t1)
    acc = np.zeros((family.space.dim, family.space.dim))
    for t, w in zip(nodes, weights):
        acc += w * family.matrix(t)
    return acc / (t1 - t0)


def build_step_form(family: FormFamily, subdivision: Subdivision) -> list[np.ndarray]:
    """The piecewise-constant family: one averaged matrix per slab."""
    pts = subdivision.points
    return [average_form(family, pts[k], pts[k + 1]) for k in range(subdivision.n_slabs)]


def dual_operator_norm(space: GalerkinSpace, a: np.ndarray) -> float:
    """Operator norm of A as a map V -> V', via the V-Cholesky factor."""
    low = space._chol_V
    x = sla.solve_triangular(low, a, lower=True)
    x = sla.solve_triangular(low, x.T, lower=True).T
    return float(np.linalg.norm(x, 2))


def coercivity_lower_bound(space: GalerkinSpace, a: np.ndarray, shift: float = 0.0) -> float:
    """Smallest generalized eigenvalue of (sym(A) + shift*gram_H, gram_V)."""
    sym = 0.5 * (a + a.T) + shift * space.gram_H
    try:
        lam = sla.eigh(sym, space.gram_V, eigvals_only=True, subset_by_index=[0, 0])
    except sla.LinAlgError as exc:
        raise StructureError("coercivity eigensolve failed") from exc
    return float(lam[0])


def estimate_constants(family: FormFamily, t_grid: np.ndarray | None = None,
                       shift: float = 0.0) -> FormConstants:
    """Sample-certified continuity, coercivity and Lipschitz constants.

    Certification is on the sample grid only; presets ship analytic values
    for cross-checking where they are known.
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, family.horizon, 129)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 33:
        raise ValueError("constant certification needs at least 33 sample times")
    space = family.space
    mats = [family.matrix(t) for t in t_grid]
    bound = max(dual_operator_norm(space, a) for a in mats)
    coercivity = min(coercivity_lower_bound(space, a, shift) for a in mats)
    lipschitz = 0.0
    for (ta, aa), (tb, ab) in zip(zip(t_grid[:-1], mats[:-1]), zip(t_grid[1:], mats[1:])):
        lipschitz = max(lipschitz, dual_operator_norm(space, ab - aa) / (tb - ta))
    return FormConstants(bound=bound, coercivity=coercivity, shift=shift,
                         lipschitz=lipschitz, certified_on_samples=True)


def rescale(family: FormFamily, shift: float) -> FormFamily:
    """Shifted family A(t) + shift * gram_H; symmetry is preserved."""
    if shift == 0.0:
        return family
    base_eval = family.eval
    gram_H = family.space.gram_H

    def shifted(t: float) -> np.ndarray:
        return np.asarray(base_eval(t), dtype=float) + shift * gram_H

    return FormFamily(family.space, shifted, family.horizon,
                      symmetric=family.symmetric)


def certify_shift(family: FormFamily, t_grid: np.ndarray | None = None,
                  declared_shift: float = 0.0, tol: float = 1e-10) -> float:
    """Smallest sample-certified shift making the family coercive.

    Returns declared_shift when it already certifies; otherwise bisects
    upward within [0, 10*M/c_H^2].
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, family.horizon, 129)

    def alpha_at(shift: float) -> float:
        return min(coercivity_lower_bound(family.space, family.matrix(t), shift)
                   for t in t_grid)

    if alpha_at(declared_shift) > tol:
        return declared_shift
    bound = max(dual_operator_norm(family.space, family.matrix(t)) for t in t_grid)
    hi = 10.0 * bound / family.space.embedding_constant ** 2
    if alpha_at(hi) <= tol:
        raise StructureError("no certifying shift found in [0, 10*M/c_H^2]")
    lo = max(declared_shift, 0.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if alpha_at(mid) > tol:
            hi = mid
        else:
            lo = mid
    return hi
