"""Time-dependent bilinear form families, slab averaging and certified constants.

A family is given by affine terms A(t) = A0 + theta(t) A1 with a scalar
coefficient theta, and a(t; u, v) = u^T A(t) v.  Slab averaging replaces
the family on each interval of a subdivision by its integral mean,
A0 + mean(theta) A1, one scalar per slab, and the constants M, alpha and L
are exact: they are read at the ends of theta's range and from the largest
|theta'|.  The terms are symmetric tridiagonal, given and held as their
(3, n) bands (`spaces.symmetric_bands`), and the H-metric is the space's
lumped mass, so the family's products and oracle steps cost O(n), its
pencils one tridiagonal eigensolve, and no n x n matrix is formed.

The constants, and the embedding constant c_H of the space, are extreme
eigenvalues of tridiagonal pencils against the V-Gram's bands.  Each is an
inertia bisection (`tridiagonal.pencil_bracket`): A - lam gram_V factors
exactly when lam lies below every eigenvalue, so each factorization
decides one side.  Each constant is reported on its certified side, up
to the factorization's roundoff: M, L and c_H from above, alpha from
below, within 4 ulps of the eigenvalue.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np
import scipy.linalg as sla

from . import tridiagonal
from .spaces import GalerkinSpace, StructureError, symmetric_bands

__all__ = [
    "AffineTerms",
    "Coefficient",
    "EXACT",
    "EvaluationError",
    "FormConstants",
    "Harmonic",
    "Linear",
    "FormFamily",
    "Subdivision",
    "build_step_form",
    "estimate_constants",
    "overflow_named",
    "rescale",
    "certify_shift",
    "dual_operator_norm",
    "embedding_constant",
    "gauss_nodes",
]

_SHIFT_TOL = 1e-10     # coercivity a certified shift must exceed
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


class EvaluationError(ValueError):
    """A form evaluation produced non-finite entries."""


@contextlib.contextmanager
def overflow_named(what: str):
    """Run a block under np.errstate(over="raise") and re-raise its
    overflow as FloatingPointError naming `what`."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise FloatingPointError(f"overflow in {what}") from exc


def gauss_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """4-point Gauss-Legendre nodes and weights on each interval of `edges`."""
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (lo + hi) + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


def _sinc(x: float) -> float:
    return math.sin(x) / x if x != 0.0 else 1.0


@dataclass(frozen=True)
class Linear:
    """Coefficient theta(t) = c0 + c1 t; c1 = 0 is a constant."""

    c0: float
    c1: float = 0.0

    def __call__(self, t: float) -> float:
        return self.c0 + self.c1 * t

    def mean(self, a: float, b: float) -> float:
        """Mean of theta over [a, b]."""
        return self.c0 + self.c1 * (0.5 * (a + b))

    def extremes(self, horizon: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """(time, value) of theta's least and of its greatest value on [0, horizon]."""
        ends = ((0.0, self.c0), (horizon, self(horizon)))
        return min(ends, key=lambda p: p[1]), max(ends, key=lambda p: p[1])

    def max_slope(self, horizon: float) -> float:
        """Greatest |theta'| on [0, horizon]."""
        return abs(self.c1)

    def square_integral(self, horizon: float) -> float:
        """Integral of theta^2 over [0, horizon]."""
        c0, c1 = self.c0, self.c1
        return horizon * (c0 * c0 + c0 * c1 * horizon + c1 * c1 * horizon**2 / 3.0)


@dataclass(frozen=True)
class Harmonic:
    """Coefficient theta(t) = c + a cos(omega t) + b sin(omega t), omega > 0.

    With R = hypot(a, b) and phase = atan2(b, a), theta = c + R cos(omega t - phase):
    its extremes are c -+ R where omega t - phase is a multiple of pi, and
    |theta'| reaches omega R half a step further on.
    """

    c: float = 0.0
    a: float = 0.0
    b: float = 0.0
    omega: float = 1.0

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError("harmonic coefficient needs omega > 0")

    def _wave(self, t: float) -> float:
        return self.a * math.cos(self.omega * t) + self.b * math.sin(self.omega * t)

    def __call__(self, t: float) -> float:
        return self.c + self._wave(t)

    def mean(self, a: float, b: float) -> float:
        """Mean of theta over [a, b], free of cancellation for short intervals.

        E.g. for sin: (cos a - cos b)/(b - a) = sin((a+b)/2) sinc((b-a)/2).
        """
        return self.c + self._wave(0.5 * (a + b)) * _sinc(0.5 * self.omega * (b - a))

    def _turns(self, horizon: float, offset: float) -> range:
        """Integers k with omega t - phase = offset + k pi for some t in [0, horizon]."""
        phase = math.atan2(self.b, self.a)
        return range(math.ceil((-phase - offset) / math.pi),
                     math.floor((self.omega * horizon - phase - offset) / math.pi) + 1)

    def _full_period(self, horizon: float) -> bool:
        """Whether [0, horizon] holds a whole period (an infinite omega * horizon
        included), so that theta takes every value of c + R cos there."""
        return self.omega * horizon >= 2.0 * math.pi

    def extremes(self, horizon: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """(time, value) of theta's least and of its greatest value on
        [0, horizon]: among the turns of the first period, even k at c + R
        and odd k at c - R, and both ends when the horizon is shorter."""
        r, phase = math.hypot(self.a, self.b), math.atan2(self.b, self.a)
        full = self._full_period(horizon)
        pairs = [] if full else [(0.0, self(0.0)), (horizon, self(horizon))]
        pairs += [(min(max((phase + k * math.pi) / self.omega, 0.0), horizon),
                   self.c + (r if k % 2 == 0 else -r))
                  for k in self._turns(2.0 * math.pi / self.omega if full else horizon, 0.0)]
        return min(pairs, key=lambda p: p[1]), max(pairs, key=lambda p: p[1])

    def max_slope(self, horizon: float) -> float:
        """Greatest |theta'| on [0, horizon]."""
        w = self.omega
        if self._full_period(horizon) or self._turns(horizon, 0.5 * math.pi):
            return w * math.hypot(self.a, self.b)
        return max(abs(w * (self.b * math.cos(w * t) - self.a * math.sin(w * t)))
                   for t in (0.0, horizon))

    def square_integral(self, horizon: float) -> float:
        """Integral of theta^2 over [0, horizon], by the same sinc means."""
        c, a, b, wt = self.c, self.a, self.b, self.omega * horizon
        wave_mean = self._wave(0.5 * horizon) * _sinc(0.5 * wt)
        # (a cos + b sin)^2 = (a^2 + b^2)/2 + (a^2 - b^2)/2 cos 2wt + ab sin 2wt
        square_mean = 0.5 * (a * a + b * b) + (0.5 * (a * a - b * b) * math.cos(wt)
                                               + a * b * math.sin(wt)) * _sinc(wt)
        return horizon * (c * c + 2.0 * c * wave_mean + square_mean)


Coefficient = Union[Linear, Harmonic]


EXACT = "exact (affine endpoints)"


@dataclass(frozen=True)
class FormConstants:
    """Continuity/coercivity/Lipschitz data and where the computed ones came from."""

    bound: float | None = None        # V -> V' operator-norm bound M
    coercivity: float | None = None   # coercivity constant alpha
    lipschitz: float | None = None    # L in the time-Lipschitz bound
    source: str = "declared"          # EXACT when estimate_constants computed them


@dataclass(frozen=True)
class Subdivision:
    """The uniform subdivision of [0, horizon] into n_slabs slabs, with
    breakpoints 0 = lambda_0 < ... < lambda_{n_slabs} = horizon."""

    horizon: float
    n_slabs: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.horizon < np.inf:
            raise ValueError("subdivision horizon must be finite and > 0")
        if self.n_slabs < 1:
            raise ValueError("need at least one slab")
        object.__setattr__(self, "points",
                           np.linspace(0.0, self.horizon, self.n_slabs + 1))

    @property
    def mesh(self) -> float:
        return self.horizon / self.n_slabs

    def slab_index(self, t):
        """Right-continuous slab lookup of a time or an array of times.

        t = T maps to the last slab; a time outside [0, T], or NaN, raises
        ValueError.
        """
        t = np.asarray(t, dtype=float)
        if not np.all((t >= self.points[0]) & (t <= self.points[-1])):
            raise ValueError(f"time outside [0, {self.horizon}] or not finite")
        k = np.searchsorted(self.points, t, side="right") - 1
        return np.minimum(k, self.n_slabs - 1)

    def means(self, theta: Coefficient) -> np.ndarray:
        """The (n_slabs,) means of a coefficient; a non-finite one raises EvaluationError."""
        pts = self.points
        means = np.array([theta.mean(t0, t1) for t0, t1 in zip(pts[:-1], pts[1:])])
        if not np.isfinite(means).all():
            raise EvaluationError(f"slab mean of {theta} is not finite")
        return means


@dataclass(frozen=True)
class AffineTerms:
    """A(t) = a0 + theta(t) a1: the (3, n) bands of two fixed symmetric
    tridiagonal matrices and a scalar coefficient."""

    a0: np.ndarray
    a1: np.ndarray
    theta: Coefficient

    def at(self, s: float) -> np.ndarray:
        """Bands of a0 + s a1; a non-finite result raises EvaluationError."""
        b = self.a0 + s * self.a1
        if not np.all(np.isfinite(b)):
            raise EvaluationError(f"form matrix at theta={s} has non-finite entries")
        return b


@dataclass
class FormFamily:
    """t -> A(t) = A0 + theta(t) A1 on a Galerkin space, with horizon.

    The terms are bands, checked once by `spaces.symmetric_bands` when the
    family is built, so every family is symmetric.  `pencil`, `apply` and
    `implicit_steps` work on the bands.
    """

    space: GalerkinSpace
    terms: AffineTerms
    horizon: float

    def __post_init__(self) -> None:
        dim = self.space.dim
        self.terms = replace(self.terms,
                             a0=symmetric_bands(self.terms.a0, dim, "affine term a0"),
                             a1=symmetric_bands(self.terms.a1, dim, "affine term a1"))

    def matrix(self, t: float) -> np.ndarray:
        """Bands of A(t).  No route of the package reads it: it stays as the
        one per-time evaluation of the family that the benchmark harness
        traces (`perfbench/tracer.py`)."""
        return self.terms.at(self.terms.theta(t))

    def pencil(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Rates and diag(h)-orthonormal modes of the pencil (A0 + s A1,
        diag(h)), by `tridiagonal.pencil_eigh`.  A failed solve raises
        StructureError."""
        try:
            return tridiagonal.pencil_eigh(self.terms.at(s), self.space.h)
        except sla.LinAlgError as exc:
            raise StructureError("slab eigensolve failed") from exc

    def apply(self, x: np.ndarray, s) -> np.ndarray:
        """(A0 + s A1) x for a vector x, or for an (n, m) block with one s per
        column, row by row from each column's bands (`tridiagonal.matvec`)."""
        a0, a1 = self.terms.a0, self.terms.a1
        if np.ndim(x) == 2:
            a0, a1 = a0[..., None], a1[..., None]
        return tridiagonal.matvec(a0 + s * a1, x)

    def implicit_steps(self, u: np.ndarray, dt: float, times: list[float],
                       loads: np.ndarray) -> np.ndarray:
        """The (m, n) states of implicit-Euler steps from u to each of the m
        `times`, the operator taken at each step's right end: step i solves
        (diag(h) + dt A(t_i)) x = h u + loads[i].

        theta is called once per step.  The m step matrices
        h + dt (A0 + theta_i A1) are formed and checked at once as bands,
        and each step is one O(n) gtsv call (`tridiagonal.march`).  A block
        with a non-finite band, load or state, or a singular step, is
        stepped again with each step checked, so that its first failing
        step raises: a non-finite step EvaluationError, a singular one
        StructureError.
        """
        h = self.space.h
        thetas = np.array([self.terms.theta(t) for t in times])
        bands = self._step_bands(dt, thetas)
        if np.isfinite(u).all() and np.isfinite(loads).all() and np.isfinite(bands).all():
            try:
                states = tridiagonal.march(h, bands, loads, u)
                if np.isfinite(states[:-1]).all():
                    return states
            except StructureError:
                pass
        # gtsv overwrote the bands: form them again for the checked steps
        bands, states = self._step_bands(dt, thetas), np.empty_like(loads)
        for i, t in enumerate(times):
            if not np.isfinite(bands[i]).all():
                raise EvaluationError(f"oracle step matrix at t={t} has non-finite entries")
            if not np.isfinite(h * u + loads[i]).all():
                raise EvaluationError(f"oracle right-hand side at t={t} is not finite")
            states[i] = u = tridiagonal.march(h, bands[i:i + 1], loads[i:i + 1], u)[0]
        return states

    def _step_bands(self, dt: float, thetas: np.ndarray) -> np.ndarray:
        """(m, 3, n) bands of h + dt (A0 + theta_i A1), one per step."""
        base = dt * self.terms.a0
        base[1] += self.space.h
        bands = thetas[:, None, None] * (dt * self.terms.a1)
        bands += base
        return bands


def build_step_form(family: FormFamily, subdivision: Subdivision) -> np.ndarray:
    """The piecewise-constant family: the (n_slabs,) means of theta, slab k
    standing for A0 + mean_k(theta) A1."""
    return subdivision.means(family.terms.theta)


def _pencil_extremes(space: GalerkinSpace, a: np.ndarray) -> tuple[float, float]:
    """Certified (lower bound of the least, upper bound of the greatest)
    eigenvalue of the pencil (A, gram_V) for the bands a of a symmetric A."""
    g = space.gram_V
    return (tridiagonal.pencil_bracket(a, g)[0],
            tridiagonal.pencil_bracket(a, g, largest=True)[1])


def dual_operator_norm(space: GalerkinSpace, a: np.ndarray) -> float:
    """Upper bound of ||A||_{V->V'} for the bands a of a symmetric A: the
    largest |lambda| of the pencil (A, gram_V), by inertia bisection."""
    least, greatest = _pencil_extremes(space, a)
    return max(greatest, -least)


def embedding_constant(space: GalerkinSpace) -> float:
    """Upper bound of the smallest c with ||u||_H <= c ||u||_V for every
    coefficient vector u: the square root of the greatest eigenvalue of the
    pencil (diag(h), gram_V), by inertia bisection."""
    h = np.zeros((3, space.dim))
    h[1] = space.h
    return float(np.sqrt(tridiagonal.pencil_bracket(h, space.gram_V, largest=True)[1]))


def _extreme_bands(family: FormFamily) -> list[np.ndarray]:
    """The bands of A0 + s A1 at the ends s of theta's range on the horizon.

    ||A0 + s A1||_{V->V'} is convex in s and the coercivity lambda_min is
    concave in s, so both take their extremes over the family here.
    """
    (_, lo), (_, hi) = family.terms.theta.extremes(family.horizon)
    return [family.terms.at(s) for s in sorted({lo, hi})]


def estimate_constants(family: FormFamily) -> FormConstants:
    """Continuity, coercivity and Lipschitz constants of the family, exactly:
    M and alpha at the ends of theta's range and L = ||A1||_{V->V'} max|theta'|.

    Each is an inertia bisection on the bands of the family and of gram_V,
    reported on its certified side: M and L from above, alpha from below.
    """
    space = family.space
    extremes = [_pencil_extremes(space, a) for a in _extreme_bands(family)]
    bound = max(max(greatest, -least) for least, greatest in extremes)
    coercivity = min(least for least, _ in extremes)
    lipschitz = (dual_operator_norm(space, family.terms.a1)
                 * family.terms.theta.max_slope(family.horizon))
    return FormConstants(bound=bound, coercivity=coercivity,
                         lipschitz=lipschitz, source=EXACT)


def rescale(family: FormFamily, shift: float) -> FormFamily:
    """Shifted family A(t) + shift * diag(h), the shift folded into the
    diagonal of A0."""
    if shift == 0.0:
        return family
    a0 = family.terms.a0.copy()
    a0[1] += shift * family.space.h
    return FormFamily(family.space, replace(family.terms, a0=a0), family.horizon)


def certify_shift(family: FormFamily) -> float:
    """Smallest shift making the family coercive, certified on the same
    matrices as `estimate_constants`: the two ends of theta's range.

    Returns 0 when the family already certifies; otherwise bisects upward
    within [0, 10*M/c_H^2] for a shifted coercivity above 1e-10.  A shift
    s certifies when A + s diag(h) - 1e-10 gram_V factors for both
    matrices: one banded factorization each per bisection step.
    """
    space = family.space
    mats = _extreme_bands(family)
    margin = _SHIFT_TOL * space.gram_V

    def certifies(shift: float) -> bool:
        shifted = [a - margin for a in mats]
        for a in shifted:
            a[1] += shift * space.h
        return all(tridiagonal.definite(a) for a in shifted)

    if certifies(0.0):
        return 0.0
    bound = max(dual_operator_norm(space, a) for a in mats)
    hi = 10.0 * bound / embedding_constant(space) ** 2
    if not certifies(hi):
        raise StructureError("no certifying shift found in [0, 10*M/c_H^2]")
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if certifies(mid):
            hi = mid
        else:
            lo = mid
    return hi
