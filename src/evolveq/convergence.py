"""Nested-refinement driver: the solved ladder, Cauchy-difference tables
and empirical rates.

A ladder is solved once, one trajectory per uniform subdivision, and
successive trajectories are compared on the finest breakpoint grid; the
L^2(0,T;V) differences are integrated with per-interval Gauss quadrature
on the exact within-slab solutions of both trajectories.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .forms import Subdivision, gauss_nodes
from .propagator import OracleSamples, ProblemData, Trajectory, oracle_solve, solve

__all__ = ["RefinementStudy", "check_ladder", "solve_ladder", "refine",
           "oracle_reference", "oracle_suph_gap",
           "trajectory_l2v_diff", "trajectory_suph_diff"]


@dataclass
class RefinementStudy:
    """Ladder of nested uniform solves with successive-difference data."""

    slab_counts: list[int]
    meshes: np.ndarray
    diffs_l2V: np.ndarray       # length len(slab_counts) - 1
    diffs_supH: np.ndarray
    rate: float

    def __post_init__(self) -> None:
        if np.any(self.diffs_l2V < 0) or np.any(self.diffs_supH < 0):
            raise ValueError("refinement differences must be nonnegative")


def check_ladder(slab_counts, min_points: int = 2) -> list[int]:
    """Validated ladder: positive counts, each strictly dividing the next."""
    counts = [int(n) for n in slab_counts]
    if len(counts) < min_points:
        raise ValueError(f"need at least {min_points} ladder points, got {counts}")
    if any(n < 1 for n in counts):
        raise ValueError(f"ladder counts must be positive, got {counts}")
    for a, b in zip(counts[:-1], counts[1:]):
        if b <= a or b % a != 0:
            raise ValueError(f"ladder counts must be nested: {a} does not divide {b}")
    return counts


def solve_ladder(problem: ProblemData, slab_counts,
                 threads: int = 1) -> list[Trajectory]:
    """Solve once per ladder point, on uniform slabs, output at its breakpoints.

    Ladder points are independent pure solves; with threads > 1 they are
    mapped onto a thread pool and collected in ladder order, so the result
    does not depend on execution order.
    """
    def one(n: int) -> Trajectory:
        return solve(problem, Subdivision(problem.horizon, n))

    if threads == 1:
        return [one(n) for n in slab_counts]
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(one, slab_counts))


def trajectory_l2v_diff(t1: Trajectory, t2: Trajectory, grid: np.ndarray) -> float:
    """L^2(0,T;V) norm of the difference, Gauss quadrature per grid interval.

    Each trajectory is evaluated once, at every node of the grid.
    """
    nodes, weights = gauss_nodes(grid)
    d = t1.evaluate_many(nodes) - t2.evaluate_many(nodes)
    total = float(weights @ t1.space.v_norms(d) ** 2)
    return float(np.sqrt(max(total, 0.0)))


def trajectory_suph_diff(t1: Trajectory, t2: Trajectory, grid: np.ndarray) -> float:
    space = t1.space
    d = t1.evaluate_many(grid) - t2.evaluate_many(grid)
    return float(np.max(space.h_norms(d)))


def _fit_rate(meshes: np.ndarray, diffs: np.ndarray) -> float:
    """Least-squares slope of log(diff) vs log(mesh) on the last three points."""
    mask = diffs > 1e-300
    h = np.log(meshes[mask][-3:])
    d = np.log(diffs[mask][-3:])
    if h.size < 2:
        return float("nan")
    slope = np.polyfit(h, d, 1)[0]
    return float(slope)


def refine(trajectories: list[Trajectory]) -> RefinementStudy:
    """Tabulate successive differences along a ladder from `solve_ladder`.

    Differences are taken on the finest trajectory's breakpoints, where
    every coarser trajectory is evaluated exactly.
    """
    counts = check_ladder(t.subdivision.n_slabs for t in trajectories)
    common = trajectories[-1].grid

    diffs_l2v, diffs_suph = [], []
    for coarse, finer in zip(trajectories[:-1], trajectories[1:]):
        diffs_l2v.append(trajectory_l2v_diff(coarse, finer, common))
        diffs_suph.append(trajectory_suph_diff(coarse, finer, common))
    meshes = np.array([t.subdivision.mesh for t in trajectories])
    rate = _fit_rate(meshes[:-1], np.array(diffs_l2v))
    return RefinementStudy(counts, meshes, np.array(diffs_l2v),
                           np.array(diffs_suph), rate)


def oracle_reference(problem: ProblemData, n_steps: int) -> OracleSamples:
    """Implicit-Euler oracle kept at its own step times, at most ~1000 of them."""
    stride = max(1, n_steps // 1000)
    grid = np.arange(0, n_steps + 1, stride) * (problem.horizon / n_steps)
    return oracle_solve(problem, n_steps, output_grid=grid)


def oracle_suph_gap(traj: Trajectory, oracle: OracleSamples) -> float:
    """sup-H gap to the oracle on its grid; the scheme is evaluated there exactly."""
    return float(np.max(traj.space.h_norms(traj.evaluate_many(oracle.grid)
                                           - oracle.states)))
