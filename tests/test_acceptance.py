"""End-to-end acceptance checks.

Each test verifies one headline guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""
import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import oracle_gap
from evolveq.convergence import solve_ladder, trajectory_l2v_diff
from evolveq.forms import Subdivision, estimate_constants, rescale
from evolveq.invariance import audit_trajectory, check_criterion, sample_pool
from evolveq.mr import (check_chain_rule, check_form_telescoping,
                        check_H_estimate, check_lemma3, check_lemma_indepmax,
                        check_product_rule, load_l2h, mr_norms)
from evolveq.presets import convex_set_for, get_preset, resolved_constants
from evolveq.propagator import ProblemData, solve

REPO = Path(__file__).resolve().parent.parent

COERCIVE_PRESETS = ("scalar-decay", "scalar-sin", "constant-heat",
                    "heat-1d-lipschitz", "broken-coupling")
SMALL_LADDER = (8, 32, 128)


def preset_constants(preset):
    return resolved_constants(preset.constants,
                              estimate_constants(preset.problem.family))


def report(num, label, passed, detail):
    print(f"criterion {num:2d} ({label}): {'PASS' if passed else 'FAIL'} "
          f"[{detail}]")
    assert passed, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_01_autonomous_collapse():
    preset = get_preset("constant-heat", load="constant")
    ladder = solve_ladder(preset.problem, [8, 16, 32, 64])
    grid = ladder[-1].grid
    worst = max(trajectory_l2v_diff(a, b, grid)
                for i, a in enumerate(ladder) for b in ladder[i + 1:])
    report(1, "autonomous collapse", worst <= 1e-11,
           f"max pairwise l2V diff {worst:.3e} <= 1e-11")


def test_criterion_02_scalar_exactness():
    cases = {"scalar-decay": np.exp(-1.25), "scalar-sin": np.exp(-4.0 * np.pi)}
    worst = 0.0
    for name, exact in cases.items():
        problem = get_preset(name, load="none").problem
        for n in (8, 16, 64, 256):
            traj = solve(problem, Subdivision.uniform(problem.horizon, n))
            worst = max(worst, abs(traj.states[0, -1] - exact))
    report(2, "scalar exactness", worst <= 1e-12,
           f"max endpoint error {worst:.3e} <= 1e-12")


def test_criterion_03_oracle_equivalence(heat_preset):
    problem = heat_preset.problem
    sub = Subdivision.uniform(problem.horizon, 256)
    gap = oracle_gap(problem, sub, 100_000, relative=True)
    report(3, "oracle equivalence", gap <= 1e-3,
           f"relative sup-H gap {gap:.3e} <= 1e-3")


def test_criterion_04_refinement_cauchy(heat_study):
    decreasing = bool(np.all(np.diff(heat_study.diffs_l2V) < 0))
    ok = decreasing and heat_study.rate >= 0.9
    report(4, "refinement Cauchy", ok,
           f"diffs decreasing={decreasing}, rate {heat_study.rate:.3f} >= 0.9")


def test_criterion_05_energy_bound():
    worst = np.inf
    for name in COERCIVE_PRESETS:
        preset = get_preset(name, load="none")
        constants = preset_constants(preset)
        assert constants.coercivity > 0
        for n in SMALL_LADDER:
            traj = solve(preset.problem,
                         Subdivision.uniform(preset.problem.horizon, n))
            worst = min(worst, check_lemma3(mr_norms(traj), traj,
                                            preset.problem,
                                            constants.coercivity))
    report(5, "energy bound", worst >= 0.0,
           f"min margin over presets/ladders {worst:.3e} >= 0")


def test_criterion_06_per_slab_sup_bound():
    worst = np.inf
    for name in COERCIVE_PRESETS:
        preset = get_preset(name, load="none")
        constants = preset_constants(preset)
        for n in SMALL_LADDER:
            traj = solve(preset.problem,
                         Subdivision.uniform(preset.problem.horizon, n))
            worst = min(worst, check_lemma_indepmax(mr_norms(traj), traj,
                                                    constants=constants))
    report(6, "per-slab sup bound", worst >= -1e-10,
           f"min margin {worst:.3e} >= -1e-10")


def test_criterion_07_identity_residuals():
    worst = 0.0
    for name in COERCIVE_PRESETS:
        preset = get_preset(name)
        for n in SMALL_LADDER:
            traj = solve(preset.problem,
                         Subdivision.uniform(preset.problem.horizon, n))
            rep = mr_norms(traj)
            worst = max(worst, check_chain_rule(rep, traj).value)
            worst = max(worst, check_product_rule(rep, traj).value)
    report(7, "chain/product residuals", worst <= 1e-8,
           f"max residual {worst:.3e} <= 1e-8")


def test_criterion_08_boundedness_and_telescoping(heat_preset, heat_constants,
                                                  heat_ladder):
    load_norm = load_l2h(heat_preset.problem)
    ratios = [check_H_estimate(mr_norms(traj), heat_preset.problem, load_norm)
              for traj in heat_ladder]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    excess = max(check_form_telescoping(traj,
                                        lipschitz=heat_constants.lipschitz)
                 for traj in heat_ladder)
    ok = spread <= 0.10 and excess <= 1e-9
    report(8, "boundedness + telescoping", ok,
           f"ratio spread {spread:.3%} <= 10%, telescoping excess "
           f"{excess:.3e} <= 1e-9")


def test_criterion_09_invariance_both_ways(heat_homogeneous):
    cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
    family = heat_homogeneous.problem.family
    crit = check_criterion(family,
                           sample_pool(np.random.default_rng(1234), cset, 10_000),
                           load=heat_homogeneous.problem.load)
    worst_violation = max(
        audit_trajectory(solve(heat_homogeneous.problem,
                               Subdivision.uniform(family.horizon, n)), cset)[0]
        for n in (8, 16, 32, 64, 128, 256))

    broken = get_preset("broken-coupling", load="none")
    bset = convex_set_for(broken, "box", lower=0.0)
    bcrit = check_criterion(broken.problem.family,
                            sample_pool(np.random.default_rng(1234), bset, 10_000))
    bviol = max(
        audit_trajectory(solve(broken.problem,
                               Subdivision.uniform(broken.problem.horizon, n)),
                         bset)[0]
        for n in (8, 16, 32, 64))

    ok = (crit.margin >= -1e-12 and worst_violation <= 1e-10
          and bcrit.margin < 0.0 and bviol > 0.0)
    report(9, "invariance detector soundness", ok,
           f"heat margin {crit.margin:.3e} >= -1e-12, violation "
           f"{worst_violation:.3e} <= 1e-10; broken margin {bcrit.margin:.3e} "
           f"< 0, violation {bviol:.3e} > 0")


def test_criterion_10_rescaling_equivariance(heat_homogeneous):
    problem = heat_homogeneous.problem
    space = problem.family.space
    sub = Subdivision.uniform(problem.horizon, 64)
    base = solve(problem, sub)
    scale = np.max(space.h_norms(base.states))
    worst = 0.0
    for omega in (1.0, 5.0):
        shifted = ProblemData(rescale(problem.family, omega), problem.u0)
        straj = solve(shifted, sub)
        undone = straj.states * np.exp(omega * straj.grid)[None, :]
        worst = max(worst,
                    float(np.max(space.h_norms(undone - base.states))) / scale)
    report(10, "rescaling equivariance", worst <= 1e-9,
           f"max relative sup-H mismatch {worst:.3e} <= 1e-9")


def test_criterion_11_thread_determinism(tmp_path):
    cfg = REPO / "configs" / "heat_all.cfg"
    outputs = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "evolveq", "all", "--config", str(cfg),
             "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True, cwd=REPO)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].glob("*.csv"))
    assert names, "no CSV output produced"
    identical = all(filecmp.cmp(outputs[0] / n, outputs[1] / n, shallow=False)
                    for n in names)
    report(11, "thread determinism", identical,
           f"{len(names)} CSVs byte-identical across --threads 1 vs 4")
