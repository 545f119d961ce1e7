"""One-slab exponential steps, the full solver, and the implicit-Euler oracle.

Each slab carries an autonomous problem with the averaged operator and a
slab-averaged load; the step is the exact variation-of-constants formula
exp(-h B) u + h phi1(-h B) fbar with B = gram_H^{-1} A.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .forms import (FormFamily, StepForm, Subdivision, build_step_form,
                    gauss_panels)
from .spaces import DualVector, GalerkinSpace, StructureError

__all__ = [
    "SlabPropagator",
    "SlabSolution",
    "Trajectory",
    "ProblemData",
    "solve",
    "oracle_solve",
    "phi1",
]


def phi1(z: np.ndarray) -> np.ndarray:
    """phi1(z) = (e^z - 1)/z with the removable singularity filled in."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = np.abs(z) > 1e-300
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


@dataclass
class SlabPropagator:
    """Exponential of one frozen generator B = gram_H^{-1} A_k.

    Symmetric operators get a spectral factorization of the SPD pencil
    (A_k, gram_H); the general case falls back to scaling-and-squaring.
    """

    space: GalerkinSpace
    matrix: np.ndarray            # A_k, form coefficients
    length: float                 # slab duration
    spectral: bool
    # spectral data: B = modes @ diag(rates) @ modes^T gram_H
    rates: np.ndarray | None = None
    modes: np.ndarray | None = None
    generator: np.ndarray | None = None   # dense B for the non-spectral path

    @classmethod
    def build(cls, space: GalerkinSpace, matrix: np.ndarray, length: float,
              symmetric: bool) -> "SlabPropagator":
        matrix = np.asarray(matrix, dtype=float)
        if symmetric:
            try:
                rates, modes = sla.eigh(0.5 * (matrix + matrix.T), space.gram_H)
            except sla.LinAlgError as exc:
                raise StructureError("slab eigensolve failed") from exc
            return cls(space, matrix, length, True, rates=rates, modes=modes)
        generator = space.solve_H(matrix)
        return cls(space, matrix, length, False, generator=generator)

    # -- coordinates ----------------------------------------------------
    def to_modes(self, u: np.ndarray) -> np.ndarray:
        return self.modes.T @ (self.space.gram_H @ u)

    def from_modes(self, y: np.ndarray) -> np.ndarray:
        return self.modes @ y

    # -- actions --------------------------------------------------------
    def step(self, h: float, u: np.ndarray, fbar: np.ndarray) -> np.ndarray:
        """Variation of constants over duration h with constant load fbar."""
        if h < 0 or h > self.length * (1 + 1e-12):
            raise ValueError(f"step duration {h} outside [0, {self.length}]")
        if self.spectral:
            y = self.to_modes(u)
            fhat = self.to_modes(fbar)
            out = np.exp(-h * self.rates) * y + h * phi1(-h * self.rates) * fhat
            return self.from_modes(out)
        n = self.space.dim
        aug = np.zeros((n + 1, n + 1))
        aug[:n, :n] = -h * self.generator
        aug[:n, n] = h * fbar
        exp_aug = sla.expm(aug)
        if not np.all(np.isfinite(exp_aug)):
            raise FloatingPointError("matrix exponential overflowed")
        return exp_aug[:n, :n] @ u + exp_aug[:n, n]

    def apply_generator(self, u: np.ndarray) -> np.ndarray:
        if self.spectral:
            return self.from_modes(self.rates * self.to_modes(u))
        return self.generator @ u


@dataclass
class SlabSolution:
    """Exact autonomous solution on one slab, for dense output and quadrature."""

    t0: float
    t1: float
    propagator: SlabPropagator
    u_start: np.ndarray
    fbar: np.ndarray              # slab-averaged load, H-coordinates

    @property
    def length(self) -> float:
        return self.t1 - self.t0

    @property
    def matrix(self) -> np.ndarray:
        return self.propagator.matrix

    def state(self, t: float) -> np.ndarray:
        return self.propagator.step(t - self.t0, self.u_start, self.fbar)

    def states(self, times: np.ndarray) -> np.ndarray:
        """(dim, m) array of states at the given absolute times."""
        times = np.asarray(times, dtype=float)
        taus = times - self.t0
        prop = self.propagator
        if prop.spectral:
            y0 = prop.to_modes(self.u_start)
            fhat = prop.to_modes(self.fbar)
            decay = np.exp(-np.outer(prop.rates, taus))
            drive = taus[None, :] * phi1(-np.outer(prop.rates, taus)) * fhat[:, None]
            return prop.from_modes(decay * y0[:, None] + drive)
        return np.column_stack([self.state(t) for t in times])

    def derivative(self, t: float) -> np.ndarray:
        u = self.state(t)
        return self.fbar - self.propagator.apply_generator(u)


@dataclass
class Trajectory:
    """Discrete solution sampled on an output grid, with per-slab metadata."""

    grid: np.ndarray
    states: np.ndarray            # (dim, n_times)
    slabs: list[SlabSolution] | None = None
    step_form: StepForm | None = None
    problem_tag: str = ""

    def __post_init__(self) -> None:
        self.grid = np.asarray(self.grid, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("output grid must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def _slab_at(self, t: float) -> SlabSolution:
        if self.slabs is None:
            raise ValueError("trajectory carries no slab metadata")
        k = self.step_form.subdivision.slab_index(t)
        return self.slabs[k]

    def evaluate(self, t: float) -> np.ndarray:
        return self._slab_at(t).state(t)

    def evaluate_many(self, times: np.ndarray) -> np.ndarray:
        """Exact within-slab evaluation, vectorized slab by slab."""
        times = np.asarray(times, dtype=float)
        out = np.empty((self.states.shape[0], times.size))
        sub = self.step_form.subdivision
        idx = np.minimum(np.searchsorted(sub.points, times, side="right") - 1,
                         sub.n_slabs - 1)
        for k in np.unique(idx):
            sel = idx == k
            out[:, sel] = self.slabs[k].states(times[sel])
        return out

    def derivative(self, t: float) -> np.ndarray:
        return self._slab_at(t).derivative(t)


@dataclass
class ProblemData:
    """Form family, initial state and load defining one evolution problem."""

    family: FormFamily
    u0: np.ndarray
    load: Callable[[float], DualVector] | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        self.u0 = np.asarray(self.u0, dtype=float)
        if self.u0.shape != (self.family.space.dim,):
            raise ValueError("initial state dimension mismatch")

    @property
    def horizon(self) -> float:
        return self.family.horizon

    def load_pairings(self, t: float) -> np.ndarray:
        if self.load is None:
            return np.zeros(self.family.space.dim)
        g = self.load(t)
        coeffs = g.coeffs if isinstance(g, DualVector) else np.asarray(g, dtype=float)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"load at t={t} has non-finite entries")
        return coeffs


def _averaged_load(problem: ProblemData, t0: float, t1: float) -> np.ndarray:
    """Slab mean of the load in H-coordinates (gram_H applied inverse)."""
    if problem.load is None:
        return np.zeros(problem.family.space.dim)
    nodes, weights = gauss_panels(t0, t1)
    acc = np.zeros(problem.family.space.dim)
    for t, w in zip(nodes, weights):
        acc += w * problem.load_pairings(t)
    return problem.family.space.solve_H(acc / (t1 - t0))


def solve(problem: ProblemData, subdivision: Subdivision,
          output_grid: np.ndarray | None = None,
          step_form: StepForm | None = None) -> Trajectory:
    """March the frozen-coefficient scheme across the subdivision.

    Within-slab output is evaluated with the exact exponential step from
    the slab's left breakpoint, never by interpolation.
    """
    family = problem.family
    if abs(subdivision.horizon - family.horizon) > 1e-12 * max(family.horizon, 1.0):
        raise ValueError("subdivision horizon does not match the family")
    if step_form is None:
        step_form = build_step_form(family, subdivision)
    if output_grid is None:
        output_grid = subdivision.points
    output_grid = np.asarray(output_grid, dtype=float)
    if output_grid[0] != 0.0 or abs(output_grid[-1] - family.horizon) > 1e-12:
        raise ValueError("output grid must span [0, T]")

    slabs: list[SlabSolution] = []
    u = problem.u0.copy()
    pts = subdivision.points
    for k in range(subdivision.n_slabs):
        t0, t1 = pts[k], pts[k + 1]
        prop = SlabPropagator.build(family.space, step_form.slabs[k], t1 - t0,
                                    family.symmetric)
        fbar = _averaged_load(problem, t0, t1)
        slabs.append(SlabSolution(t0, t1, prop, u, fbar))
        u = prop.step(t1 - t0, u, fbar)

    traj = Trajectory(output_grid, np.zeros((family.space.dim, output_grid.size)),
                      slabs=slabs, step_form=step_form, problem_tag=problem.tag)
    traj.states = traj.evaluate_many(output_grid)
    return traj


def oracle_solve(problem: ProblemData, n_steps: int,
                 output_grid: np.ndarray | None = None) -> Trajectory:
    """Implicit-Euler reference with the operator taken at step right endpoints.

    Independent of the exponential machinery: one dense solve per step.
    """
    if n_steps < 1:
        raise ValueError("oracle needs at least one step")
    family = problem.family
    space = family.space
    horizon = family.horizon
    dt = horizon / n_steps
    if output_grid is None:
        keep = np.arange(n_steps + 1)
    else:
        keep = np.unique(np.clip(np.rint(np.asarray(output_grid) / dt).astype(int),
                                 0, n_steps))
    keep_set = set(keep.tolist())

    u = problem.u0.copy()
    times, states = [], []
    if 0 in keep_set:
        times.append(0.0)
        states.append(u.copy())
    gram_H = space.gram_H
    for i in range(1, n_steps + 1):
        t = i * dt
        a = family.matrix(t)
        rhs = gram_H @ u + dt * problem.load_pairings(t)
        try:
            u = np.linalg.solve(gram_H + dt * a, rhs)
        except np.linalg.LinAlgError as exc:
            raise StructureError("oracle linear solve failed") from exc
        if i in keep_set:
            times.append(t)
            states.append(u.copy())
    return Trajectory(np.array(times), np.column_stack(states),
                      problem_tag=problem.tag + ":oracle")
