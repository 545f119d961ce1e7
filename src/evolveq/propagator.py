"""Slab eigendecompositions, the full solver, and the implicit-Euler oracle.

Each slab carries an autonomous problem with the averaged operator
A_k = A0 + mean_k(theta) A1, held as its scalar mean, and a slab-averaged
load; its solution is the exact variation-of-constants formula
exp(-tau B) u + tau phi1(-tau B) fbar with B = diag(h)^{-1} A_k, diag(h)
the lumped H-Gram, evaluated in the modes of the symmetric pencil
(A_k, diag(h)), which `FormFamily.pencil` solves.  The load is separable,
f(t) = theta_f(t) g, or absent, so its slab means are mean(theta_f) g / h
in closed form.

A solve returns one `Trajectory`: its uniform subdivision and the slabs
as whole arrays, row k for slab k, with the breakpoint states held once;
its grid is the subdivision's breakpoints.  Dense output is one kernel,
`_modal_coefficients`: it forms the modal coefficients of any (slab,
time) pairs at once from the rates and modal data, and each slab only
multiplies its pairs by its modes.  The march, `Trajectory.evaluate_many`
and the MR audits' sup-V samples all go through it.  The oracle takes its
steps in blocks from `FormFamily.implicit_steps`, one O(n) tridiagonal
solve per step, and returns only the `OracleSamples` it keeps: it has no
slabs, so it cannot reach an MR audit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forms import (Coefficient, EvaluationError, FormFamily, Subdivision,
                    build_step_form, overflow_named)
from .spaces import GalerkinSpace

__all__ = [
    "SlabPropagator",
    "Trajectory",
    "OracleSamples",
    "ProblemData",
    "SeparableLoad",
    "solve",
    "oracle_solve",
    "phi1",
]

_STEP_BLOCK = 256     # oracle steps formed and checked at once


def phi1(z: np.ndarray) -> np.ndarray:
    """phi1(z) = (e^z - 1)/z with the removable singularity filled in."""
    z = np.asarray(z, dtype=float)
    nz = np.abs(z) > 1e-300
    out = np.expm1(z)
    np.divide(out, z, out=out, where=nz)
    out[~nz] = 1.0
    return out


def _modal_coefficients(rates: np.ndarray, y0: np.ndarray, fhat: np.ndarray,
                        slab_idx: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """e^{-mu tau} y0 + tau phi1(-mu tau) fhat for slab slab_idx[j] a time
    taus[j] after its left end: the (n, m) modal coefficients, one column
    per pair, from the (n, K) rates mu, y0 and fhat of K slabs, one column
    per slab.  It works in place: at most three (n, m) arrays at a time.
    """
    z = rates[:, slab_idx]
    z *= taus
    np.negative(z, out=z)
    drive = phi1(z)
    coef = np.exp(z, out=z)
    coef *= y0[:, slab_idx]
    drive *= taus
    drive *= fhat[:, slab_idx]
    coef += drive
    return coef


@dataclass
class SlabPropagator:
    """Eigendecomposition of one frozen operator B = diag(h)^{-1} A_k,
    A_k = A0 + theta A1 for a slab mean theta: B = modes @ diag(rates) @
    modes^T diag(h), with diag(h)-orthonormal modes from the symmetric
    pencil (A_k, diag(h)).
    """

    rates: np.ndarray
    modes: np.ndarray

    @classmethod
    def build(cls, family: FormFamily, theta: float) -> "SlabPropagator":
        """Solve the pencil of A0 + theta A1 by `FormFamily.pencil`."""
        return cls(*family.pencil(theta))


@dataclass
class Trajectory:
    """A solve: its subdivision and one row per slab of whole arrays.

    Slab k solves the autonomous problem with A_k = A0 + thetas[k] A1 and
    the load fbar[k]; its exact solution a time tau after the slab's left
    end is modes[k] (e^{-rates[k] tau} y0[k] + tau phi1(-rates[k] tau) fhat[k]),
    with y0[k] and fhat[k] the modal data of its start state states[:, k]
    and of its load.  The states are those at the subdivision's
    breakpoints, the trajectory's grid.
    """

    subdivision: Subdivision
    family: FormFamily
    thetas: np.ndarray            # (K,) slab means of the form coefficient
    rates: np.ndarray             # (K, n) pencil eigenvalues
    modes: np.ndarray             # (K, n, n) diag(h)-orthonormal modes
    y0: np.ndarray                # (K, n) modes of the slab start states
    fhat: np.ndarray              # (K, n) modes of the slab-averaged loads
    fbar: np.ndarray              # (K, n) slab-averaged loads, H-coordinates
    states: np.ndarray            # (n, K + 1) states at the breakpoints

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.states)):
            raise EvaluationError("trajectory states are not finite")
        k, n = self.subdivision.n_slabs, self.family.space.dim
        shapes = [np.shape(a) for a in (self.thetas, self.rates, self.modes, self.y0,
                                        self.fhat, self.fbar, self.states)]
        if shapes != [(k,), (k, n), (k, n, n), (k, n), (k, n), (k, n), (n, k + 1)]:
            raise ValueError(f"slab rows are not the {k} slabs of dim {n}")

    @property
    def grid(self) -> np.ndarray:
        return self.subdivision.points

    @property
    def space(self) -> GalerkinSpace:
        return self.family.space

    def evaluate_many(self, times: np.ndarray) -> np.ndarray:
        """Exact within-slab evaluation at any times in [0, T], each in the
        slab that `Subdivision.slab_index` finds for it."""
        return self.evaluate_in_slabs(self.subdivision.slab_index(times), times)

    def evaluate_in_slabs(self, slab_idx: np.ndarray, times: np.ndarray) -> np.ndarray:
        """The (dim, m) states of slab slab_idx[j] at times[j].

        One `_modal_coefficients` call serves every time; per slab, only the
        product with its modes is left.  A time outside its slab, or not
        finite, raises ValueError.
        """
        pts = self.subdivision.points
        slab_idx, times = np.asarray(slab_idx), np.asarray(times, dtype=float)
        taus = times - pts[slab_idx]
        if not np.all((taus >= 0) & (taus <= np.diff(pts)[slab_idx] * (1 + 1e-12))):
            raise ValueError("times outside their slabs")
        coef = _modal_coefficients(self.rates.T, self.y0.T, self.fhat.T, slab_idx, taus)
        out = np.empty(coef.shape)
        for k in np.unique(slab_idx):
            sel = slab_idx == k
            out[:, sel] = self.modes[k] @ coef[:, sel]
        return out


class OracleSamples(NamedTuple):
    """The oracle's states at the step times it keeps, one column per time."""

    grid: np.ndarray              # (m,) increasing step times
    states: np.ndarray            # (dim, m)


@dataclass(frozen=True)
class SeparableLoad:
    """The load f(t) = theta(t) g: a scalar coefficient times one pairing vector.

    Its slab means and its L^2(0,T;H) norm have closed forms.
    """

    theta: Coefficient
    pairing: np.ndarray

    def __post_init__(self) -> None:
        pairing = np.asarray(self.pairing, dtype=float)
        if not np.all(np.isfinite(pairing)):
            raise ValueError("load pairing has non-finite entries")
        object.__setattr__(self, "pairing", pairing)


@dataclass
class ProblemData:
    """Form family, initial state and load defining one evolution problem."""

    family: FormFamily
    u0: np.ndarray
    load: SeparableLoad | None = None

    def __post_init__(self) -> None:
        dim = self.family.space.dim
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.u0.shape != (dim,):
            raise ValueError("initial state dimension mismatch")
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("initial state has non-finite entries")
        match self.load:
            case None:
                pass
            case SeparableLoad(pairing=g) if g.shape == (dim,):
                pass
            case _:
                raise ValueError(f"the load must be None or a SeparableLoad "
                                 f"whose pairing has shape ({dim},)")

    @property
    def horizon(self) -> float:
        return self.family.horizon


def _averaged_loads(problem: ProblemData, subdivision: Subdivision) -> np.ndarray:
    """The (n_slabs, dim) slab means of the load in H-coordinates: mean(theta_f)
    times one H-solve of its pairing.  An overflow raises FloatingPointError."""
    space, load = problem.family.space, problem.load
    if load is None:
        return np.zeros((subdivision.n_slabs, space.dim))
    with overflow_named("the slab-averaged loads"):
        return subdivision.means(load.theta)[:, None] * space.solve_H(load.pairing)


def solve(problem: ProblemData, subdivision: Subdivision) -> Trajectory:
    """March the frozen-coefficient scheme across the subdivision.

    The trajectory's grid is the subdivision's breakpoints, and its states
    there are the ones the march hands from slab to slab.  Other times
    are exact through `Trajectory.evaluate_many`, which steps from the
    slab's left breakpoint, never by interpolation.  An overflowing
    exponential raises FloatingPointError, naming the slab, instead of
    returning inf states.
    """
    family = problem.family
    if abs(subdivision.horizon - family.horizon) > 1e-12 * max(family.horizon, 1.0):
        raise ValueError("subdivision horizon does not match the family")
    thetas = build_step_form(family, subdivision)
    fbar = _averaged_loads(problem, subdivision)

    n_slabs, h = subdivision.n_slabs, family.space.h
    pts = subdivision.points
    taus = np.diff(pts)
    # eigh_tridiagonal returns F-ordered modes, and each slab keeps that
    # layout in the stack: C-ordered modes send the products with them (the
    # MR Grams w.T @ gram_V @ w, dense output) to other GEMM kernels, which
    # moves the last bits of every result read from them
    modes = np.empty((n_slabs, h.size, h.size)).transpose(0, 2, 1)
    rates, y0, fhat = (np.empty(fbar.shape) for _ in range(3))
    states = np.empty((h.size, n_slabs + 1))
    states[:, 0] = u = problem.u0
    with np.errstate(over="raise"):
        try:
            for k in range(n_slabs):
                prop = SlabPropagator.build(family, thetas[k])
                rates[k], modes[k] = prop.rates, prop.modes
                y0[k] = prop.modes.T @ (h * u)
                fhat[k] = prop.modes.T @ (h * fbar[k])
                u = (prop.modes @ _modal_coefficients(
                    rates.T, y0.T, fhat.T, np.array([k]), taus[k:k + 1]))[:, 0]
                states[:, k + 1] = u
        except FloatingPointError as exc:
            raise FloatingPointError(f"overflow in the slab state on "
                                     f"[{pts[k]:g}, {pts[k + 1]:g}]") from exc
    return Trajectory(subdivision, family, thetas, rates, modes, y0, fhat, fbar, states)


def oracle_solve(problem: ProblemData, n_steps: int,
                 output_grid: np.ndarray | None = None) -> OracleSamples:
    """Implicit-Euler reference with the operator taken at step right endpoints.

    Independent of the exponential machinery: step i solves
    (diag(h) + dt A(t_i)) u_new = h u + theta_f(t_i) dt g.  The steps go
    in blocks of _STEP_BLOCK through `FormFamily.implicit_steps`, one O(n)
    gtsv call per step; each block's load rows are formed at once, and
    memory stays O(_STEP_BLOCK n).  The output grid is rounded to step
    indices.  A non-finite state raises EvaluationError, at the step after
    it or, for the last state, at t = T.
    """
    if n_steps < 1:
        raise ValueError("oracle needs at least one step")
    family, load = problem.family, problem.load
    horizon = family.horizon
    dt = horizon / n_steps
    if output_grid is None:
        keep = np.arange(n_steps + 1)
    else:
        keep = np.unique(np.clip(np.rint(np.asarray(output_grid) / dt).astype(int),
                                 0, n_steps))
    g = None if load is None else dt * load.pairing

    u = problem.u0.copy()
    times, states = ([0.0], [u[None, :]]) if 0 in keep else ([], [])
    for first in range(1, n_steps + 1, _STEP_BLOCK):
        stop = min(first + _STEP_BLOCK, n_steps + 1)
        # i * dt may overshoot T by an ulp
        step_times = np.minimum(np.arange(first, stop) * dt, horizon).tolist()
        if g is None:
            loads = np.zeros((stop - first, u.size))
        else:
            loads = np.array([load.theta(t) for t in step_times])[:, None] * g
        block = family.implicit_steps(u, dt, step_times, loads)
        u = block[-1]
        rows = keep[(keep >= first) & (keep < stop)] - first
        times += [step_times[r] for r in rows]
        states.append(block[rows])
    # a block leaves its last state to the next block's checks; the last has none
    if not np.isfinite(u).all():
        raise EvaluationError(f"oracle state at t={step_times[-1]} is not finite")
    return OracleSamples(np.array(times), np.concatenate(states).T.copy())
