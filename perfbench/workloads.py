"""The benchmark's workloads and the experiment configs generated from them.

Every workload runs preset heat-1d-lipschitz with a forcing load and the
nonnegativity box under the lumped metric. The seed goes into
``[experiment] seed``, which drives the invariance sample pool; nothing
else in the config depends on it.

Sizes are chosen so that one pipeline takes a few seconds on a 2-core
machine, which leaves several repetitions per run for a steady median.
On such a machine the default two-thread OpenBLAS makes dense LAPACK
calls several times slower once the space dimension passes about 96.
`heat_fine_mesh` therefore stays at dimension 81: just above 96 one of its
pipelines takes over 10 s, too long for a repeated measurement.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_cells: int
    slab_counts: tuple[int, ...]
    oracle_steps: int
    why: str

    @property
    def ladder_slabs(self) -> int:
        """Slabs the user's ladder asks for, counted once per ladder point."""
        return sum(self.slab_counts)


WORKLOADS = {w.name: w for w in [
    Workload(
        "heat_fine_mesh", "all", n_cells=80, slab_counts=(8, 16, 32),
        oracle_steps=1000,
        why="mesh-size bound: dense constant estimation and slab eigensolves "
            "dominate; the only workload where invariance sampling and "
            "memory are sizeable"),
    Workload(
        "heat_deep_ladder", "all", n_cells=16, slab_counts=(16, 32, 64, 128),
        oracle_steps=1000,
        why="slab-count bound: check_lemma3 is O(grid x slabs) and per-slab "
            "Python overhead dominates; a mesh-size optimisation should not "
            "move it"),
    Workload(
        "heat_long_oracle", "converge", n_cells=64, slab_counts=(8, 16, 32),
        oracle_steps=6000,
        why="per-step implicit-Euler oracle and one constant estimation "
            "dominate; no MR audits and one solve per ladder point"),
]}


def config_text(workload: Workload, seed: int) -> str:
    ladder = " ".join(str(n) for n in workload.slab_counts)
    return (
        "[experiment]\n"
        "preset = heat-1d-lipschitz\n"
        f"n_cells = {workload.n_cells}\n"
        "horizon = 1.0\n"
        f"slab_counts = {ladder}\n"
        f"seed = {seed}\n"
        f"oracle_steps = {workload.oracle_steps}\n"
        "threads = 1\n"
        "\n"
        "[load]\n"
        "name = forcing\n"
        "amplitude = 1.0\n"
        "\n"
        "[convex_set]\n"
        "kind = box\n"
        "metric = lumped\n"
        "lower = 0.0\n"
    )


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    path.write_text(config_text(workload, seed))
    return path
