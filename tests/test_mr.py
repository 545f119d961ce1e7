import numpy as np
import pytest

from evolveq.fem import robin_space, stiffness
from evolveq.forms import FormConstants, FormFamily, Subdivision
from evolveq.mr import (ContractError, MRReport, _SlabCalc, check_chain_rule,
                        check_form_telescoping, check_H_estimate, check_lemma3,
                        check_lemma_indepmax, check_product_rule, load_l2h,
                        mr_norms)
from evolveq.presets import get_preset
from evolveq.propagator import ProblemData, Trajectory, oracle_solve, solve
from evolveq.spaces import GalerkinSpace

# dim 1, p = 1, u0 = 1, f = 0 on [0, 1]: closed forms
#   l2V^2 = h1H^2 = h1Vp^2 = (1 - e^-2)/2
SCALAR_ENERGY_SQ = (1.0 - np.exp(-2.0)) / 2.0


@pytest.fixture(scope="module")
def decay_traj():
    space = GalerkinSpace(np.array([[1.0]]), np.array([[1.0]]))
    family = FormFamily(space, lambda t: np.array([[1.0]]), 1.0, symmetric=True)
    problem = ProblemData(family, np.array([1.0]), tag="unit-decay")
    return problem, solve(problem, Subdivision.uniform(1.0, 4))


class TestMRNorms:
    def test_scalar_closed_forms(self, decay_traj):
        _, traj = decay_traj
        rep = mr_norms(traj)
        root = np.sqrt(SCALAR_ENERGY_SQ)
        assert rep.l2V == pytest.approx(root, abs=1e-12)
        assert rep.h1H == pytest.approx(root, abs=1e-12)
        assert rep.h1Vp == pytest.approx(root, abs=1e-12)
        assert rep.supV == pytest.approx(1.0, abs=1e-13)
        assert rep.mr_vh == pytest.approx(np.sqrt(2.0 * SCALAR_ENERGY_SQ), abs=1e-12)
        # the frozen decimal from the derivation notes (sqrt(1 - e^-2))
        assert rep.mr_vh == pytest.approx(0.9300, abs=5e-4)
        assert rep.mr_vh == pytest.approx(0.9298734950321939, abs=1e-12)

    def test_report_validates_hypot(self):
        with pytest.raises(ValueError):
            MRReport(l2V=1.0, h1H=1.0, h1Vp=1.0, supV=1.0, mr_vvp=7.0,
                     mr_vh=float(np.hypot(1, 1)))

    def test_report_rejects_negative(self):
        with pytest.raises(ValueError):
            MRReport(l2V=-1.0, h1H=0.0, h1Vp=0.0, supV=0.0, mr_vvp=1.0, mr_vh=1.0)

    def test_requires_slab_metadata(self, decay_traj):
        problem, _ = decay_traj
        bare = oracle_solve(problem, 16)
        with pytest.raises(ContractError):
            mr_norms(bare)

    def test_zero_rate_slab_refused(self, rng):
        # pure-Neumann heat (stiffness only) has a zero rate: no closed form,
        # so the audits refuse it instead of returning an inexact value
        space = robin_space(32)
        a = stiffness(32)
        family = FormFamily(space, lambda t: a, 1.0, symmetric=True)
        traj = solve(ProblemData(family, rng.standard_normal(space.dim)),
                     Subdivision.uniform(1.0, 8))
        with pytest.raises(ContractError, match="shift"):
            mr_norms(traj)
        with pytest.raises(ContractError):
            check_chain_rule(traj)


class TestIdentities:
    def test_chain_rule_scalar(self, decay_traj):
        _, traj = decay_traj
        assert check_chain_rule(traj) <= 1e-10

    def test_product_rule_scalar(self, decay_traj):
        _, traj = decay_traj
        assert check_product_rule(traj) <= 1e-10

    def test_chain_rule_heat(self, heat_traj_64):
        assert check_chain_rule(heat_traj_64) <= 1e-8

    def test_product_rule_heat(self, heat_traj_64):
        assert check_product_rule(heat_traj_64) <= 1e-8


class TestEstimates:
    def test_lemma3_scalar_margin(self, decay_traj):
        problem, traj = decay_traj
        # c2 = 1; tightest at t = T: 1 - (1 - e^-2)/2
        margin = check_lemma3(traj, problem, alpha=1.0)
        assert margin == pytest.approx(1.0 - SCALAR_ENERGY_SQ, abs=1e-12)

    def test_lemma3_off_breakpoint_times_match_brute_force(self):
        # output times inside slabs take the partial-slab branch, which the
        # CLI (output on breakpoints) never reaches
        problem = get_preset("heat-1d-lipschitz", n_cells=8).problem
        grid = np.linspace(0.0, 1.0, 23)
        traj = solve(problem, Subdivision.uniform(1.0, 8), output_grid=grid)
        space = problem.family.space

        def brute_force(t):
            lhs = load = 0.0
            for slab in traj.slabs:
                if t <= slab.t0:
                    break
                tb = min(t, slab.t1) - slab.t0
                lhs += _SlabCalc(slab).quadratic("V", space.gram_V, 0.0, tb)
                pair = space.gram_H @ slab.fbar
                load += float(pair @ space.dual_gram @ pair) * tb
            return 4.0 * (load + space.h_norm(problem.u0) ** 2) - lhs

        alpha = 0.5     # c2 = max(1/alpha^2, 1/alpha) = 4
        for t in grid:
            one_time = Trajectory(np.array([t]), traj.evaluate_many(np.array([t])),
                                  slabs=traj.slabs, step_form=traj.step_form)
            assert check_lemma3(one_time, problem, alpha) == pytest.approx(
                brute_force(t), rel=1e-13)
        assert check_lemma3(traj, problem, alpha) == pytest.approx(
            min(brute_force(t) for t in grid), rel=1e-13)

    def test_lemma3_requires_coercivity(self, decay_traj):
        problem, traj = decay_traj
        with pytest.raises(ContractError):
            check_lemma3(traj, problem, alpha=0.0)

    def test_indepmax_scalar_is_tight(self, decay_traj):
        _, traj = decay_traj
        constants = FormConstants(bound=1.0, coercivity=1.0)
        # first slab: sup ||u||_V^2 = 1 = M ||u0||_V^2 / alpha exactly
        margin = check_lemma_indepmax(traj, constants=constants)
        assert abs(margin) <= 1e-12

    def test_indepmax_needs_constants(self, decay_traj):
        _, traj = decay_traj
        with pytest.raises(ContractError):
            check_lemma_indepmax(traj)
        with pytest.raises(ContractError):
            check_lemma_indepmax(
                traj, constants=FormConstants(bound=1.0, coercivity=1.0, shift=0.5))

    def test_heat_margins_nonnegative(self, heat_traj_64, heat_preset,
                                      heat_constants):
        margin3 = check_lemma3(heat_traj_64, heat_preset.problem,
                               heat_constants.coercivity)
        margin_sup = check_lemma_indepmax(heat_traj_64, constants=heat_constants)
        assert margin3 >= 0.0
        assert margin_sup >= -1e-10

    def test_h_estimate_scalar(self, decay_traj):
        problem, traj = decay_traj
        load_norm = load_l2h(problem, traj.step_form.subdivision)
        assert check_H_estimate(mr_norms(traj), problem, load_norm) == pytest.approx(
            np.sqrt(2.0 * SCALAR_ENERGY_SQ), abs=1e-12)

    def test_h_estimate_zero_data(self, decay_traj):
        problem, traj = decay_traj
        zero = ProblemData(problem.family, np.array([0.0]))
        ztraj = solve(zero, Subdivision.uniform(1.0, 4))
        load_norm = load_l2h(zero, ztraj.step_form.subdivision)
        assert check_H_estimate(mr_norms(ztraj), zero, load_norm) == 0.0


class TestTelescoping:
    def test_heat_within_lipschitz_allowance(self, heat_traj_64, heat_constants):
        worst = check_form_telescoping(heat_traj_64,
                                       lipschitz=heat_constants.lipschitz)
        assert worst <= 1e-9

    def test_needs_lipschitz(self, heat_traj_64):
        with pytest.raises(ContractError):
            check_form_telescoping(heat_traj_64)

    def test_needs_uniform_subdivision(self, heat_preset):
        sub = Subdivision(np.array([0.0, 0.3, 1.0]))
        traj = solve(heat_preset.problem, sub)
        with pytest.raises(ContractError):
            check_form_telescoping(traj, lipschitz=0.5)
