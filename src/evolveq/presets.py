"""Problem presets: scalar closed-form cases, 1D heat flows, and a broken one.

Coefficient functions live only here; experiment configs select presets
and loads by name so no runtime expression parsing is needed.  Every form
term and V-Gram is given as its (3, n) bands.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import fem
from .forms import (AffineTerms, Coefficient, FormConstants, FormFamily,
                    Harmonic, Linear)
from .invariance import ConvexSet
from .propagator import ProblemData, SeparableLoad
from .spaces import GalerkinSpace

__all__ = ["LOAD_NAMES", "PresetProblem", "get_preset", "preset_names",
           "preset_descriptions", "resolved_constants", "convex_set_for"]


@dataclass
class PresetProblem:
    problem: ProblemData
    default_slab_counts: tuple[int, ...]
    # analytic values that differ from the exact ones; None entries are estimated
    constants: FormConstants = FormConstants()
    expect_invariant: bool = True
    name: str = ""                    # both set by get_preset from the registry
    description: str = ""


_PRESETS: dict[str, tuple[str, Callable[..., PresetProblem]]] = {}


def _preset(name: str, description: str):
    """Register a builder under its name, with the description list-presets prints."""
    def register(build):
        _PRESETS[name] = (description, build)
        return build
    return register


# theta_f of each load preset: 1 for constant, 1 + cos 2t for forcing
_LOADS = {"none": None, "constant": Linear(1.0), "forcing": Harmonic(c=1.0, a=1.0, omega=2.0)}
LOAD_NAMES = tuple(_LOADS)


def _load_coefficient(kind: str | None) -> Coefficient | None:
    """theta_f of a load preset; None is no load."""
    if kind is not None and kind not in _LOADS:
        raise KeyError(f"unknown load preset {kind!r}; choose from {list(LOAD_NAMES)}")
    return _LOADS.get(kind)


def _scalar_load(kind: str | None, amplitude: float) -> SeparableLoad | None:
    theta = _load_coefficient(kind)
    return None if theta is None else SeparableLoad(theta, np.array([amplitude]))


def _nodal_load(space: GalerkinSpace, kind: str | None,
                amplitude: float) -> SeparableLoad | None:
    theta = _load_coefficient(kind)
    if theta is None:
        return None
    profile = np.ones(space.dim) if kind == "constant" else np.sin(np.pi * space.labels)
    return SeparableLoad(theta, space.h * (amplitude * profile))


def _scalar(x: float) -> np.ndarray:
    """The (3, 1) bands of the 1 x 1 matrix [[x]]."""
    return np.array([[0.0], [x], [0.0]])


def _family(space, a0, a1, theta, horizon) -> FormFamily:
    return FormFamily(space, AffineTerms(a0, a1, theta), horizon)


def _constant_family(space, a0, horizon) -> FormFamily:
    """An autonomous family: affine with theta = 0."""
    return _family(space, a0, np.zeros_like(a0), Linear(0.0), horizon)


@_preset("scalar-decay", "dim 1, p(t) = 1 + t/2, closed-form oracle")
def _scalar_decay(n_cells, horizon, load, amplitude) -> PresetProblem:
    horizon = 1.0 if horizon is None else horizon
    space = GalerkinSpace(np.array([1.0]), _scalar(1.0))
    family = _family(space, _scalar(1.0), _scalar(0.5), Linear(0.0, 1.0), horizon)
    problem = ProblemData(family, np.array([1.0]),
                          load=_scalar_load(load, amplitude))
    return PresetProblem(problem, (8, 16, 32, 64, 128, 256))


@_preset("scalar-sin", "dim 1, p(t) = 2 + sin t over one period")
def _scalar_sin(n_cells, horizon, load, amplitude) -> PresetProblem:
    horizon = 2.0 * np.pi if horizon is None else horizon
    space = GalerkinSpace(np.array([1.0]), _scalar(1.0))
    family = _family(space, _scalar(2.0), _scalar(1.0), Harmonic(b=1.0), horizon)
    problem = ProblemData(family, np.array([1.0]),
                          load=_scalar_load(load, amplitude))
    return PresetProblem(problem, (8, 16, 32, 64, 128, 256))


@_preset("constant-heat", "autonomous P1 heat flow with Robin boundary, kappa = 1")
def _constant_heat(n_cells, horizon, load, amplitude) -> PresetProblem:
    n_cells = 64 if n_cells is None else n_cells
    horizon = 1.0 if horizon is None else horizon
    space = fem.robin_space(n_cells)
    family = _constant_family(space, fem.heat_matrix(n_cells, 0.0), horizon)
    load = "constant" if load is None else load
    problem = ProblemData(family, np.sin(np.pi * space.labels),
                          load=_nodal_load(space, load, amplitude))
    return PresetProblem(problem, (8, 16, 32, 64, 128, 256))


@_preset("heat-1d-lipschitz", "P1 heat flow, kappa(t,x) = 1 + x sin(t)/2, Robin boundary")
def _heat_lipschitz(n_cells, horizon, load, amplitude) -> PresetProblem:
    n_cells = 64 if n_cells is None else n_cells
    horizon = 1.0 if horizon is None else horizon
    space = fem.robin_space(n_cells)
    family = _family(space, *fem.heat_terms(n_cells), Harmonic(b=1.0), horizon)
    load = "forcing" if load is None else load
    problem = ProblemData(family, np.sin(np.pi * space.labels),
                          load=_nodal_load(space, load, amplitude))
    return PresetProblem(problem, (8, 16, 32, 64, 128, 256))


@_preset("broken-coupling",
         "heat stencil with one coupling sign flipped; invariance counterexample")
def _broken_coupling(n_cells, horizon, load, amplitude) -> PresetProblem:
    n_cells = 16 if n_cells is None else n_cells
    horizon = 0.5 if horizon is None else horizon
    space = fem.robin_space(n_cells)
    b = fem.heat_matrix(n_cells, 0.0)
    # Flipping the sign of one coupling pair, A[m, m+1] and A[m+1, m], is a
    # similarity by a diagonal sign matrix: the spectrum (hence the form
    # constants) is unchanged, but the off-diagonal sign condition for
    # positivity fails.
    m = n_cells // 2
    b[0, m + 1] = abs(b[0, m + 1])
    b[2, m] = abs(b[2, m])
    family = _constant_family(space, b, horizon)
    u0 = np.zeros(space.dim)
    u0[m] = 1.0
    u0[m + 1] = 1.0
    problem = ProblemData(family, u0, load=_nodal_load(space, load, amplitude))
    return PresetProblem(problem, (8, 16, 32, 64), expect_invariant=False)


def preset_names() -> list[str]:
    return list(_PRESETS)


def get_preset(name: str, n_cells: int | None = None, horizon: float | None = None,
               load: str | None = None, amplitude: float = 1.0) -> PresetProblem:
    try:
        description, build = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {preset_names()}") from None
    return replace(build(n_cells, horizon, load, amplitude),
                   name=name, description=description)


def preset_descriptions() -> list[tuple[str, str]]:
    return [(name, description) for name, (description, _) in _PRESETS.items()]


def resolved_constants(declared: FormConstants, computed: FormConstants) -> FormConstants:
    """Declared analytic constants, with missing entries taken from `computed`.

    `computed` is `estimate_constants` of the family being solved; the
    result keeps its source.
    """
    return replace(computed,
                   bound=declared.bound if declared.bound is not None else computed.bound,
                   coercivity=declared.coercivity if declared.coercivity is not None
                   else computed.coercivity,
                   lipschitz=declared.lipschitz if declared.lipschitz is not None
                   else computed.lipschitz)


def convex_set_for(preset: PresetProblem, kind: str = "box", **params) -> ConvexSet:
    """Default audit set for a preset, in the space's lumped H-metric; boxes
    default to the nonnegativity cone."""
    space = preset.problem.family.space
    if kind == "box":
        return ConvexSet.box(space.h, lower=params.get("lower", 0.0),
                             upper=params.get("upper"))
    if kind == "ball":
        center = params.get("center", np.zeros(space.dim))
        return ConvexSet.ball(space.h, center, params["radius"])
    raise KeyError(f"unknown convex-set kind {kind!r}")
