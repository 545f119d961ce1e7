"""Problem presets: scalar closed-form cases, 1D heat flows, and a broken one.

Coefficient functions live only here; experiment configs select presets
by name so no runtime expression parsing is needed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import fem
from .forms import FormConstants, FormFamily
from .invariance import ConvexSet
from .propagator import ProblemData
from .spaces import DualVector, GalerkinSpace

__all__ = ["PresetProblem", "get_preset", "preset_names", "preset_descriptions",
           "resolved_constants", "convex_set_for"]


@dataclass
class PresetProblem:
    name: str
    description: str
    problem: ProblemData
    constants: FormConstants          # declared values; None entries are estimated
    default_slab_counts: tuple[int, ...]
    expect_invariant: bool = True


def _scalar_load(kind: str | None, amplitude: float):
    if kind in (None, "none"):
        return None
    if kind == "constant":
        return lambda t: DualVector(np.array([amplitude]))
    if kind == "forcing":
        return lambda t: DualVector(np.array([amplitude * (1.0 + np.cos(2.0 * t))]))
    raise KeyError(f"unknown load preset {kind!r}")


def _nodal_load(space: GalerkinSpace, kind: str | None, amplitude: float):
    if kind in (None, "none"):
        return None
    x = space.labels
    gram_h = space.gram_H
    if kind == "constant":
        pair = gram_h @ (amplitude * np.ones(space.dim))
        return lambda t: DualVector(pair)
    if kind == "forcing":
        profile = gram_h @ (amplitude * np.sin(np.pi * x))
        return lambda t: DualVector((1.0 + np.cos(2.0 * t)) * profile)
    raise KeyError(f"unknown load preset {kind!r}")


def _scalar_decay(n_cells, horizon, load, amplitude) -> PresetProblem:
    horizon = 1.0 if horizon is None else horizon
    space = GalerkinSpace(np.array([[1.0]]), np.array([[1.0]]))
    family = FormFamily(space, lambda t: np.array([[1.0 + 0.5 * t]]), horizon,
                        symmetric=True)
    problem = ProblemData(family, np.array([1.0]),
                          load=_scalar_load(load, amplitude))
    constants = FormConstants(bound=1.0 + 0.5 * horizon, coercivity=1.0,
                              lipschitz=0.5, certified_on_samples=False)
    return PresetProblem("scalar-decay", "dim 1, p(t) = 1 + t/2, closed-form oracle",
                         problem, constants, (8, 16, 32, 64, 128, 256))


def _scalar_sin(n_cells, horizon, load, amplitude) -> PresetProblem:
    horizon = 2.0 * np.pi if horizon is None else horizon
    space = GalerkinSpace(np.array([[1.0]]), np.array([[1.0]]))
    family = FormFamily(space, lambda t: np.array([[2.0 + np.sin(t)]]), horizon,
                        symmetric=True)
    problem = ProblemData(family, np.array([1.0]),
                          load=_scalar_load(load, amplitude))
    constants = FormConstants(bound=3.0, coercivity=1.0, lipschitz=1.0,
                              certified_on_samples=False)
    return PresetProblem("scalar-sin", "dim 1, p(t) = 2 + sin t over one period",
                         problem, constants, (8, 16, 32, 64, 128, 256))


def _constant_heat(n_cells, horizon, load, amplitude) -> PresetProblem:
    n_cells = 64 if n_cells is None else n_cells
    horizon = 1.0 if horizon is None else horizon
    space = fem.robin_space(n_cells)
    matrix = fem.heat_matrix(n_cells, 0.0, wobble=0.0)
    family = FormFamily(space, lambda t: matrix, horizon, symmetric=True)
    load = "constant" if load is None else load
    problem = ProblemData(family, np.sin(np.pi * space.labels),
                          load=_nodal_load(space, load, amplitude))
    constants = FormConstants(lipschitz=0.0, certified_on_samples=False)
    return PresetProblem("constant-heat",
                         "autonomous P1 heat flow with Robin boundary, kappa = 1",
                         problem, constants, (8, 16, 32, 64, 128, 256))


def _heat_lipschitz(n_cells, horizon, load, amplitude) -> PresetProblem:
    n_cells = 64 if n_cells is None else n_cells
    horizon = 1.0 if horizon is None else horizon
    space = fem.robin_space(n_cells)
    family = FormFamily(space, lambda t: fem.heat_matrix(n_cells, t), horizon,
                        symmetric=True)
    load = "forcing" if load is None else load
    problem = ProblemData(family, np.sin(np.pi * space.labels),
                          load=_nodal_load(space, load, amplitude))
    # |d kappa / dt| = |x cos t| / 2 <= 1/2 and the V-Gram dominates the
    # stiffness part, so L = 1/2 holds analytically.
    constants = FormConstants(lipschitz=0.5, certified_on_samples=False)
    return PresetProblem("heat-1d-lipschitz",
                         "P1 heat flow, kappa(t,x) = 1 + x sin(t)/2, Robin boundary",
                         problem, constants, (8, 16, 32, 64, 128, 256))


def _broken_coupling(n_cells, horizon, load, amplitude) -> PresetProblem:
    n_cells = 16 if n_cells is None else n_cells
    horizon = 0.5 if horizon is None else horizon
    space = fem.robin_space(n_cells)
    matrix = fem.heat_matrix(n_cells, 0.0, wobble=0.0)
    # Flipping the sign of one coupling pair is a similarity by a diagonal
    # sign matrix: the spectrum (hence the form constants) is unchanged,
    # but the off-diagonal sign condition for positivity fails.
    m = n_cells // 2
    matrix = matrix.copy()
    matrix[m, m + 1] = abs(matrix[m, m + 1])
    matrix[m + 1, m] = abs(matrix[m + 1, m])
    family = FormFamily(space, lambda t: matrix, horizon, symmetric=True)
    u0 = np.zeros(space.dim)
    u0[m] = 1.0
    u0[m + 1] = 1.0
    problem = ProblemData(family, u0, load=_nodal_load(space, load, amplitude))
    constants = FormConstants(lipschitz=0.0, certified_on_samples=False)
    return PresetProblem("broken-coupling",
                         "heat stencil with one coupling sign flipped; "
                         "invariance counterexample",
                         problem, constants, (8, 16, 32, 64), expect_invariant=False)


_BUILDERS: dict[str, Callable] = {
    "scalar-decay": _scalar_decay,
    "scalar-sin": _scalar_sin,
    "constant-heat": _constant_heat,
    "heat-1d-lipschitz": _heat_lipschitz,
    "broken-coupling": _broken_coupling,
}


def preset_names() -> list[str]:
    return list(_BUILDERS)


def get_preset(name: str, n_cells: int | None = None, horizon: float | None = None,
               load: str | None = None, amplitude: float = 1.0) -> PresetProblem:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {preset_names()}") from None
    return builder(n_cells, horizon, load, amplitude)


def preset_descriptions() -> list[tuple[str, str]]:
    return [(name, _BUILDERS[name](None, None, None, 1.0).description)
            for name in _BUILDERS]


def resolved_constants(declared: FormConstants, sampled: FormConstants) -> FormConstants:
    """Declared analytic constants, with missing entries taken from a sample.

    `sampled` is `estimate_constants` of the family being solved.
    """
    if None not in (declared.bound, declared.coercivity, declared.lipschitz):
        return declared
    return replace(sampled,
                   bound=declared.bound if declared.bound is not None else sampled.bound,
                   coercivity=declared.coercivity if declared.coercivity is not None
                   else sampled.coercivity,
                   lipschitz=declared.lipschitz if declared.lipschitz is not None
                   else sampled.lipschitz,
                   certified_on_samples=declared.bound is None
                   or declared.coercivity is None)


def convex_set_for(preset: PresetProblem, kind: str = "box",
                   metric: str = "lumped", **params) -> ConvexSet:
    """Default audit set for a preset; boxes default to the nonnegativity cone."""
    space = preset.problem.family.space
    if metric == "lumped":
        gram = np.diag(np.diag(space.gram_H))
    elif metric == "consistent":
        gram = space.gram_H
    else:
        raise KeyError(f"unknown metric {metric!r}")
    if kind == "box":
        return ConvexSet.box(gram, lower=params.get("lower", 0.0),
                             upper=params.get("upper"))
    if kind == "ball":
        center = params.get("center", np.zeros(space.dim))
        return ConvexSet.ball(gram, center, params["radius"])
    raise KeyError(f"unknown convex-set kind {kind!r}")
