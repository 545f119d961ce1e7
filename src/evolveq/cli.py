"""Experiment CLI: configuration ingestion, pipelines, and CSV reports.

Exit codes: 0 success, 1 usage/config error, 2 numerical, tolerance or
invariant failure.
"""
from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import convergence as conv
from . import invariance as inv
from . import mr
from .forms import (EvaluationError, FormConstants, certify_shift,
                    estimate_constants, rescale)
from .presets import (LOAD_NAMES, PresetProblem, convex_set_for, get_preset,
                      preset_descriptions, preset_names, resolved_constants)
from .propagator import ProblemData, Trajectory
from .spaces import StructureError

__all__ = ["ExperimentConfig", "main", "run"]

# the identity residuals are roundoff: judged relative to the scale of their terms
CHAIN_TOL = 1e-12
PRODUCT_TOL = 1e-12
MARGIN_TOL = 1e-10
CRITERION_TOL = 1e-12
VIOLATION_TOL = 1e-10
_METRIC = "lumped"       # the only H-metric: every preset's space lumps its mass

_EXPERIMENT_KEYS = {"preset", "n_cells", "horizon", "slab_counts", "seed",
                    "omega", "oracle_steps", "threads"}
_LOAD_KEYS = {"name", "amplitude"}
_SET_KEYS = {"kind", "metric", "lower", "upper", "radius"}


class ConfigError(ValueError):
    pass


# Typed errors by exit code: numerical ones 2, usage ones 1.
_NUMERICAL_ERRORS = (StructureError, EvaluationError, mr.ContractError,
                     mr.ToleranceError, FloatingPointError)
_USAGE_ERRORS = (ConfigError, KeyError)


@dataclass
class ExperimentConfig:
    preset: str
    n_cells: int | None = None
    horizon: float | None = None
    slab_counts: tuple[int, ...] | None = None
    seed: int = 0
    omega: float | None = None
    oracle_steps: int = 10_000
    threads: int = 1
    load_name: str | None = None
    load_amplitude: float = 1.0
    set_kind: str = "box"
    set_params: dict = field(default_factory=dict)
    out_dir: Path = Path(".")

    @classmethod
    def from_file(cls, path: Path) -> "ExperimentConfig":
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"cannot read config file {path}")
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
        for section, allowed in (("experiment", _EXPERIMENT_KEYS),
                                 ("load", _LOAD_KEYS), ("convex_set", _SET_KEYS)):
            if parser.has_section(section):
                unknown = set(parser[section]) - allowed
                if unknown:
                    raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
        if not parser.has_section("experiment") or "preset" not in parser["experiment"]:
            raise ConfigError("config needs an [experiment] section with a preset")
        exp = parser["experiment"]
        cfg = cls(preset=exp["preset"])
        if "n_cells" in exp:
            cfg.n_cells = exp.getint("n_cells")
        if "horizon" in exp:
            cfg.horizon = exp.getfloat("horizon")
        if "slab_counts" in exp:
            cfg.slab_counts = tuple(
                int(tok) for tok in exp["slab_counts"].replace(",", " ").split())
        if "seed" in exp:
            cfg.seed = exp.getint("seed")
        if "omega" in exp:
            cfg.omega = exp.getfloat("omega")
        if "oracle_steps" in exp:
            cfg.oracle_steps = exp.getint("oracle_steps")
        if "threads" in exp:
            cfg.threads = exp.getint("threads")
        if parser.has_section("load"):
            cfg.load_name = parser["load"].get("name")
            cfg.load_amplitude = parser["load"].getfloat("amplitude", fallback=1.0)
        if parser.has_section("convex_set"):
            sec = parser["convex_set"]
            cfg.set_kind = sec.get("kind", "box")
            if sec.get("metric", _METRIC) != _METRIC:
                raise ConfigError(f"convex_set metric {sec['metric']!r}: every preset's "
                                  f"H-metric is the lumped mass, so only {_METRIC} "
                                  "is accepted")
            for key in ("lower", "upper", "radius"):
                if key in sec:
                    cfg.set_params[key] = sec.getfloat(key)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.preset not in preset_names():
            raise ConfigError(f"unknown preset {self.preset!r}; "
                              f"choose from {preset_names()}")
        if self.load_name is not None and self.load_name not in LOAD_NAMES:
            raise ConfigError(f"unknown [load] name {self.load_name!r}; "
                              f"choose from {list(LOAD_NAMES)}")
        if self.slab_counts is not None:
            _check_ladder(self.slab_counts, min_points=1)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.horizon is not None and not 0 < self.horizon < np.inf:
            raise ConfigError("horizon must be finite and > 0")
        if self.omega is not None and not np.isfinite(self.omega):
            raise ConfigError("omega must be finite")
        if not np.isfinite(self.load_amplitude):
            raise ConfigError("[load] amplitude must be finite")
        if self.n_cells is not None and self.n_cells < 1:
            raise ConfigError("n_cells must be >= 1")
        if self.oracle_steps < 1:
            raise ConfigError("oracle_steps must be >= 1")
        if self.set_kind not in ("box", "ball"):
            raise ConfigError(f"convex_set kind {self.set_kind!r} is not box or ball")
        params = self.set_params
        other_keys = {"box": ("radius",), "ball": ("lower", "upper")}[self.set_kind]
        if any(key in params for key in other_keys):
            raise ConfigError(f"a {self.set_kind} takes no {' or '.join(other_keys)}")
        if self.set_kind == "ball" and not params.get("radius", 0.0) > 0:
            raise ConfigError("a ball needs a radius > 0")
        # with convex_set_for's box defaults: lower = 0, no upper bound
        if self.set_kind == "box":
            lower, upper = params.get("lower", 0.0), params.get("upper", np.inf)
            if not lower <= upper:
                raise ConfigError("a box needs lower <= upper")
            if not (lower < np.inf and upper > -np.inf):
                raise ConfigError("a box needs lower < inf and upper > -inf")


def _check_ladder(slab_counts, min_points: int) -> None:
    try:
        conv.check_ladder(slab_counts, min_points)
    except ValueError as exc:
        raise ConfigError(f"slab_counts: {exc}") from None


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.16e}"


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


@dataclass
class _Prepared:
    config: ExperimentConfig
    preset: PresetProblem
    problem: ProblemData
    computed: FormConstants       # estimate_constants of the family being solved
    constants: FormConstants      # declared values over the computed ones
    slab_counts: tuple[int, ...]
    shift: float


def _prepare(config: ExperimentConfig) -> _Prepared:
    preset = get_preset(config.preset, n_cells=config.n_cells,
                        horizon=config.horizon, load=config.load_name,
                        amplitude=config.load_amplitude)
    problem = preset.problem
    shift = config.omega or 0.0
    if shift == 0.0:
        computed = estimate_constants(problem.family)
        if resolved_constants(preset.constants, computed).coercivity <= 0:
            shift = certify_shift(problem.family)
    if shift != 0.0:
        problem = ProblemData(rescale(problem.family, shift), problem.u0,
                              load=problem.load)
        computed = estimate_constants(problem.family)
    constants = resolved_constants(preset.constants, computed)
    counts = config.slab_counts or preset.default_slab_counts
    return _Prepared(config, preset, problem, computed, constants, counts, shift)


def _run_constants(prep: _Prepared, lines: list[str]) -> int:
    declared, computed = prep.preset.constants, prep.computed
    parts = [f"{k}={v:g}" for k, v in
             (("M", declared.bound), ("alpha", declared.coercivity),
              ("L", declared.lipschitz)) if v is not None]
    if parts:
        lines.append("declared: " + " ".join(parts))
    lines.append(f"{computed.source}: M={computed.bound:.6g} "
                 f"alpha={computed.coercivity:.6g} L={computed.lipschitz:.6g}")
    if prep.shift:
        lines.append(f"rescaled by omega={prep.shift:g} before solving")
    if computed.coercivity <= 0:
        lines.append("WARNING: family not coercive at the requested shift")
        return 2
    return 0


def _run_solve(prep: _Prepared, ladder: list[Trajectory], out: Path,
               lines: list[str]) -> int:
    problem, constants = prep.problem, prep.constants
    space = problem.family.space
    status = 0
    rows = []
    load_norm = mr.load_l2h(problem)
    for n, traj in zip(prep.slab_counts, ladder):
        report = mr.mr_norms(traj)
        res_chain = mr.check_chain_rule(report, traj)
        res_prod = mr.check_product_rule(report, traj)
        margin3 = mr.check_lemma3(report, traj, problem, constants.coercivity)
        margin_sup = mr.check_lemma_indepmax(report, traj, constants)
        ratio = mr.check_H_estimate(report, problem, load_norm)
        rows.append([n, traj.subdivision.mesh, report.l2V, report.h1H,
                     report.h1Vp, report.supV, report.mr_vvp, report.mr_vh,
                     res_chain.value, res_prod.value, margin3, margin_sup, ratio])
        if (res_chain.value > CHAIN_TOL * res_chain.scale
                or res_prod.value > PRODUCT_TOL * res_prod.scale):
            lines.append(f"FAIL identity residual at n={n}: chain={res_chain.value:.3e} "
                         f"(scale {res_chain.scale:.3e}) product={res_prod.value:.3e} "
                         f"(scale {res_prod.scale:.3e})")
            status = 2
        if margin3 < 0 or margin_sup < -MARGIN_TOL:
            lines.append(f"FAIL estimate margin at n={n}: lem3={margin3:.3e} "
                         f"sup={margin_sup:.3e}")
            status = 2
        traj_rows = [[t] + list(traj.states[:, i]) for i, t in enumerate(traj.grid)]
        write_csv(out / f"traj_{n}.csv",
                  ["t"] + [f"node_{j}" for j in range(space.dim)], traj_rows)
    write_csv(out / "mr.csv",
              ["n_slabs", "mesh", "l2V", "h1H", "h1Vp", "supV", "mr_vvp", "mr_vh",
               "residual_chain", "residual_product", "margin_lem3",
               "margin_indepmax", "ratio_H"], rows)
    lines.append(f"mr: {len(rows)} ladder points written")
    return status


def _run_converge(prep: _Prepared, ladder: list[Trajectory], out: Path,
                  lines: list[str]) -> int:
    study = conv.refine(ladder)
    oracle = conv.oracle_reference(prep.problem, prep.config.oracle_steps)
    rows = []
    for i, (n, mesh, traj) in enumerate(zip(study.slab_counts, study.meshes, ladder)):
        diff_l2v = study.diffs_l2V[i - 1] if i > 0 else float("nan")
        diff_suph = study.diffs_supH[i - 1] if i > 0 else float("nan")
        rows.append([n, mesh, diff_l2v, diff_suph, study.rate,
                     conv.oracle_suph_gap(traj, oracle)])
    write_csv(out / "convergence.csv",
              ["n_slabs", "mesh", "diff_l2V", "diff_supH", "rate_estimate",
               "oracle_gap"], rows)
    lines.append("convergence ladder " + "->".join(str(n) for n in study.slab_counts))
    lines.append("diff_l2V: " + " ".join(f"{d:.3e}" for d in study.diffs_l2V))
    lines.append(f"fitted rate: {study.rate:.3f}")
    return 0


def _run_invariance(prep: _Prepared, ladder: list[Trajectory], out: Path,
                    lines: list[str]) -> int:
    problem, config = prep.problem, prep.config
    family = problem.family
    cset = convex_set_for(prep.preset, kind=config.set_kind, **config.set_params)
    pool = inv.sample_pool(np.random.default_rng(config.seed), cset, 10_000)
    crit = inv.check_criterion(family, pool, load=problem.load)
    try:
        sym_margin = inv.check_criterion_symmetric(family, pool,
                                                   prep.computed.coercivity).margin
    except ValueError:      # not accretive
        sym_margin = float("nan")
    worst = witness_t = 0.0
    for traj in ladder:
        violation, t = inv.audit_trajectory(traj, cset)
        if violation > worst:     # ties keep the coarsest ladder point
            worst, witness_t = violation, t
    write_csv(out / "invariance.csv",
              ["preset", "set_kind", "metric", "criterion_margin",
               "symmetric_margin", "worst_violation", "witness_t", "witness_norm"],
              [[prep.preset.name, config.set_kind, _METRIC, crit.margin,
                sym_margin, worst, witness_t,
                float(np.linalg.norm(crit.witness))]])
    lines.append(f"criterion margin {crit.margin:.3e}, worst violation {worst:.3e}")
    if prep.preset.expect_invariant:
        if crit.margin < -CRITERION_TOL or worst > VIOLATION_TOL:
            lines.append("FAIL: invariant preset shows a violation")
            return 2
    else:
        if crit.margin >= -CRITERION_TOL or worst <= VIOLATION_TOL:
            lines.append("FAIL: counterexample preset was not detected")
            return 2
        lines.append("counterexample detected as expected")
    return 0


def run(command: str, config: ExperimentConfig) -> int:
    """Run one pipeline; summary.txt is written even when a typed error ends it."""
    prep = _prepare(config)
    if command in ("converge", "all"):
        _check_ladder(prep.slab_counts, min_points=2)
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"preset: {prep.preset.name}", f"seed: {config.seed}"]
    status = 0
    try:
        if command in ("constants", "all"):
            status = max(status, _run_constants(prep, lines))
        ladder = ([] if command == "constants" else
                  conv.solve_ladder(prep.problem, prep.slab_counts, config.threads))
        if command in ("solve", "all"):
            status = max(status, _run_solve(prep, ladder, out, lines))
        if command in ("converge", "all"):
            status = max(status, _run_converge(prep, ladder, out, lines))
        if command in ("invariance", "all"):
            status = max(status, _run_invariance(prep, ladder, out, lines))
    except _NUMERICAL_ERRORS + _USAGE_ERRORS as exc:
        lines.append(f"error: {exc}")      # the line main prints to stderr
        raise
    finally:
        summary = "\n".join(lines) + "\n"
        sys.stdout.write(summary)
        (out / "summary.txt").write_text(summary)
    return status


def list_presets() -> str:
    width = max(len(name) for name, _ in preset_descriptions())
    return "\n".join(f"{name:<{width}}  {desc}" for name, desc in preset_descriptions())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evolveq",
                                     description="frozen-coefficient evolution "
                                     "solver and verification harness")
    parser.add_argument("command",
                        choices=["constants", "solve", "converge", "invariance",
                                 "all", "list-presets"])
    parser.add_argument("--config", type=Path, help="experiment config file")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--threads", type=int, help="worker threads for ladder solves")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-presets":
        print(list_presets())
        return 0
    if args.config is None:
        print("error: this command requires --config", file=sys.stderr)
        return 1
    try:
        config = ExperimentConfig.from_file(args.config)
    except (KeyError, ValueError) as exc:    # ConfigError or a malformed number
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    if args.threads is not None:
        config.threads = args.threads
    out = args.out or os.environ.get("EVOLVEQ_OUT")
    if out is not None:
        config.out_dir = Path(out)
    try:
        config.validate()
        return run(args.command, config)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
