from dataclasses import replace

import numpy as np
import pytest

from conftest import (bands, dirichlet_problem, quadrature_load_l2h,
                      quadrature_load_means, reference_mr_terms,
                      reference_product_rule, reference_telescoping)
from evolveq.fem import robin_space, stiffness
from evolveq.forms import (AffineTerms, FormConstants, FormFamily, Linear,
                           Subdivision, estimate_constants)
import evolveq.mr as mr
from evolveq.mr import _slab_coefficients
from evolveq.mr import (ContractError, ToleranceError, check_chain_rule,
                        check_form_telescoping, check_H_estimate, check_lemma3,
                        check_lemma_indepmax, check_product_rule, load_l2h,
                        mr_norms)
from evolveq.presets import get_preset
from evolveq.propagator import ProblemData, SeparableLoad, _averaged_loads, solve
from evolveq.spaces import GalerkinSpace

# dim 1, p = 1, u0 = 1, f = 0 on [0, 1]: closed forms
#   l2V^2 = h1H^2 = h1Vp^2 = (1 - e^-2)/2
SCALAR_ENERGY_SQ = (1.0 - np.exp(-2.0)) / 2.0


def dirichlet_heat(n_cells):
    """`dirichlet_problem` with a constant load."""
    problem = dirichlet_problem(n_cells)
    return ProblemData(problem.family, problem.u0,
                       load=SeparableLoad(Linear(1.0), problem.family.space.h))


MR_PROBLEMS = {
    "heat-16": lambda: get_preset("heat-1d-lipschitz", n_cells=16).problem,
    "heat-80": lambda: get_preset("heat-1d-lipschitz", n_cells=80).problem,
    "heat-512": lambda: get_preset("heat-1d-lipschitz", n_cells=512).problem,
    "dirichlet-16": lambda: dirichlet_heat(16),
}


@pytest.fixture(scope="module")
def decay_traj():
    space = GalerkinSpace(np.array([1.0]), bands([[1.0]]))
    family = FormFamily(space, AffineTerms(bands([[1.0]]), np.zeros((3, 1)), Linear(0.0)), 1.0)
    problem = ProblemData(family, np.array([1.0]))
    return problem, solve(problem, Subdivision(1.0, 4))


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

    @pytest.mark.parametrize("name", sorted(MR_PROBLEMS))
    def test_one_kernel_pass_matches_general_form(self, name):
        # the low-rank integrals against the dense ones.  At 512 cells the two
        # float64 routes differ by up to 3.1e-12 per slab, and each is within
        # 8e-13 of a long-double evaluation of the same closed form (4 slabs),
        # so the dense reference is no sharper than 1e-11 there
        rtol = 1e-11 if name == "heat-512" else 1e-12
        problem = MR_PROBLEMS[name]()
        traj = solve(problem, Subdivision(problem.horizon, 16))
        report, ref = mr_norms(traj), reference_mr_terms(traj)
        for key in ("l2V_slabs", "chain_slabs", "product_slabs"):
            np.testing.assert_allclose(getattr(report, key), ref[key],
                                       rtol=rtol, atol=0.0, err_msg=key)
        assert report.h1H == pytest.approx(ref["h1H"], rel=1e-12, abs=0.0)
        assert report.h1Vp == pytest.approx(ref["h1Vp"], rel=rtol, abs=0.0)

    @pytest.mark.parametrize("early", ["loose_stop", "half_the_rows"])
    def test_early_termination_raises(self, monkeypatch, early):
        # a factor stopped early leaves a certified remainder above 1e-13 of
        # its slab's integral, which is refused instead of reported
        problem = MR_PROBLEMS["heat-80"]()
        traj = solve(problem, Subdivision(problem.horizon, 16))
        if early == "loose_stop":
            monkeypatch.setattr(mr, "_STOP_TOL", 1e-8)
        else:
            factor = mr._kernel_factor

            def truncated(*args):
                rows, d = factor(*args)
                keep = rows.shape[1] // 2
                return rows[:, :keep], d + np.sum(rows[:, keep:] ** 2, axis=1)

            monkeypatch.setattr(mr, "_kernel_factor", truncated)
        with pytest.raises(ToleranceError, match="certified remainder"):
            mr_norms(traj)

    def test_factor_rank_stays_low(self):
        # the kernel's numerical rank, not the dimension, sets the factor's size
        problem = MR_PROBLEMS["heat-512"]()
        traj = solve(problem, Subdivision(problem.horizon, 8))
        mu = _slab_coefficients(traj)[0]
        rows, d = mr._kernel_factor(mu, np.diff(traj.subdivision.points),
                                    [np.ones_like(mu)])
        assert rows.shape[0] == 8 and rows.shape[1] <= 64 and d.shape == mu.shape

    def test_report_rejects_negative(self, decay_traj):
        with pytest.raises(ValueError):
            replace(mr_norms(decay_traj[1]), l2V=-1.0)

    def test_report_combines_its_parts(self, decay_traj):
        rep = replace(mr_norms(decay_traj[1]), l2V=3.0, h1H=12.0, h1Vp=4.0)
        assert (rep.mr_vvp, rep.mr_vh) == (5.0, float(np.hypot(3.0, 12.0)))

    def test_requires_breakpoint_grid(self, decay_traj):
        # the audits read states on the breakpoints and one row per slab, so
        # a trajectory with states on another grid, or rows for other slabs,
        # is refused when built
        _, traj = decay_traj
        for short in (dict(thetas=traj.thetas[:-1]), dict(y0=traj.y0[:-1]),
                      dict(modes=traj.modes[:, :-1]), dict(states=traj.states[:, :-1])):
            with pytest.raises(ValueError, match="rows"):
                replace(traj, **short)

    def test_report_must_match_trajectory(self, decay_traj):
        # the report holds its trajectory, so the audits read the solve from
        # it; per-slab terms of another length are refused when it is built
        problem, traj = decay_traj
        report, other = mr_norms(traj), mr_norms(solve(problem, Subdivision(1.0, 8)))
        assert report.traj is traj
        for key in ("l2V_slabs", "supV_slabs", "chain_slabs", "product_slabs"):
            with pytest.raises(ValueError, match="not the 4 slabs"):
                replace(report, **{key: getattr(other, key)})
        with pytest.raises(ValueError, match="not the 8 slabs"):
            replace(report, traj=other.traj)

    def test_overflow_raises(self, decay_traj):
        # the states are finite, their squared norms are not
        problem, _ = decay_traj
        huge = ProblemData(problem.family, np.array([1e160]),
                           load=SeparableLoad(Linear(1.0), np.array([1e160])))
        traj = solve(huge, Subdivision(1.0, 4))
        with pytest.raises(FloatingPointError, match="MR integrals of the 4-slab solve"):
            mr_norms(traj)
        with pytest.raises(FloatingPointError, match="load norm"):
            load_l2h(huge)

    def test_zero_rate_slab_refused(self, rng):
        # pure-Neumann heat (stiffness only) has a zero rate: no closed form,
        # so the audits refuse it instead of returning an inexact value
        space = robin_space(32)
        a = stiffness(32)
        family = FormFamily(space, AffineTerms(a, np.zeros_like(a), Linear(0.0)), 1.0)
        traj = solve(ProblemData(family, rng.standard_normal(space.dim)),
                     Subdivision(1.0, 8))
        with pytest.raises(ContractError, match="shift"):
            mr_norms(traj)

    def test_first_slab_below_the_rate_floor_is_named(self):
        # A(t) = 1 - 2t has slab means 0.75, 0.25, -0.25, -0.75: slabs 2 and
        # 3 are not coercive, and the error names the interval of slab 2
        space = GalerkinSpace(np.array([1.0]), bands([[1.0]]))
        family = FormFamily(space, AffineTerms(bands([[1.0]]), bands([[-1.0]]),
                                               Linear(0.0, 2.0)), 1.0)
        traj = solve(ProblemData(family, np.array([1.0])), Subdivision(1.0, 4))
        with pytest.raises(ContractError, match=r"-2\.500e-01 <= 1e-12 on \[0\.5, 0\.75\]"):
            mr_norms(traj)


class TestIdentities:
    def test_chain_rule_scalar(self, decay_traj):
        _, traj = decay_traj
        assert check_chain_rule(mr_norms(traj)).value <= 1e-10

    def test_product_rule_scalar(self, decay_traj):
        _, traj = decay_traj
        assert check_product_rule(mr_norms(traj)).value <= 1e-10

    def test_chain_rule_heat(self, heat_traj_64):
        assert check_chain_rule(mr_norms(heat_traj_64)).value <= 1e-8

    def test_product_rule_heat(self, heat_traj_64):
        assert check_product_rule(mr_norms(heat_traj_64)).value <= 1e-8

    @pytest.mark.parametrize("name", sorted(MR_PROBLEMS))
    def test_vectorised_audits_match_slab_by_slab(self, name):
        # A_k v for every breakpoint at once, from the slab means, against
        # one dense A_k per slab
        problem = MR_PROBLEMS[name]()
        traj = solve(problem, Subdivision(problem.horizon, 16))
        report = mr_norms(traj)
        scale = max(abs(x) for x in report.product_slabs)
        assert check_product_rule(report).value == pytest.approx(
            reference_product_rule(report), rel=0.0, abs=1e-13 * scale)
        lipschitz = estimate_constants(problem.family).lipschitz
        assert check_form_telescoping(traj, lipschitz) == pytest.approx(
            reference_telescoping(traj, lipschitz), rel=0.0, abs=1e-12)


class TestEstimates:
    def test_lemma3_scalar_margin(self, decay_traj):
        _, traj = decay_traj
        # c2 = 1; tightest at t = T: 1 - (1 - e^-2)/2
        margin = check_lemma3(mr_norms(traj), alpha=1.0)
        assert margin == pytest.approx(1.0 - SCALAR_ENERGY_SQ, abs=1e-12)

    def test_lemma3_requires_coercivity(self, decay_traj):
        _, traj = decay_traj
        with pytest.raises(ContractError):
            check_lemma3(mr_norms(traj), alpha=0.0)

    def test_indepmax_scalar_is_tight(self, decay_traj):
        _, traj = decay_traj
        constants = FormConstants(bound=1.0, coercivity=1.0)
        # first slab: sup ||u||_V^2 = 1 = M ||u0||_V^2 / alpha exactly
        margin = check_lemma_indepmax(mr_norms(traj), constants=constants)
        assert abs(margin) <= 1e-12

    def test_audit_overflow_is_named(self, decay_traj):
        # the audits run under np.errstate(over="raise"): an overflow is an
        # error naming its audit, never a warning and a finite margin
        _, traj = decay_traj
        report = mr_norms(traj)
        with pytest.raises(FloatingPointError, match="overflow in the sup-bound audit"):
            check_lemma_indepmax(report, FormConstants(bound=1e308, coercivity=1e-10))
        with pytest.raises(FloatingPointError, match=r"overflow in the energy-bound audit"):
            check_lemma3(report, alpha=1e-300)

    def test_indepmax_needs_constants(self, decay_traj):
        _, traj = decay_traj
        report = mr_norms(traj)
        with pytest.raises(ContractError, match="certified M and alpha"):
            check_lemma_indepmax(report, FormConstants())

    def test_heat_margins_nonnegative(self, heat_traj_64, heat_constants):
        report = mr_norms(heat_traj_64)
        margin3 = check_lemma3(report, heat_constants.coercivity)
        margin_sup = check_lemma_indepmax(report, constants=heat_constants)
        assert margin3 >= 0.0
        assert margin_sup >= -1e-10

    def test_h_estimate_scalar(self, decay_traj):
        problem, traj = decay_traj
        load_norm = load_l2h(problem)
        assert check_H_estimate(mr_norms(traj), load_norm) == pytest.approx(
            np.sqrt(2.0 * SCALAR_ENERGY_SQ), abs=1e-12)

    def test_h_estimate_zero_data(self, decay_traj):
        problem, traj = decay_traj
        zero = ProblemData(problem.family, np.array([0.0]))
        ztraj = solve(zero, Subdivision(1.0, 4))
        load_norm = load_l2h(zero)
        assert check_H_estimate(mr_norms(ztraj), load_norm) == 0.0


class TestTelescoping:
    def test_heat_within_lipschitz_allowance(self, heat_traj_64, heat_constants):
        worst = check_form_telescoping(heat_traj_64,
                                       lipschitz=heat_constants.lipschitz)
        assert worst <= 1e-9


class TestSeparableLoad:
    THETA_F = {"constant": lambda t: 1.0, "forcing": lambda t: 1.0 + np.cos(2.0 * t)}

    @pytest.mark.parametrize("name, n_cells", [("heat-1d-lipschitz", 16),
                                               ("heat-1d-lipschitz", 80),
                                               ("scalar-sin", None)])
    @pytest.mark.parametrize("load", sorted(THETA_F))
    def test_closed_forms_match_quadrature(self, name, n_cells, load):
        problem = get_preset(name, n_cells=n_cells, load=load).problem
        assert isinstance(problem.load, SeparableLoad)
        theta_f, g = self.THETA_F[load], problem.load.pairing
        space = problem.family.space
        sub = Subdivision(problem.horizon, 16)
        for exact, ref in zip(_averaged_loads(problem, sub),
                              quadrature_load_means(space, lambda t: theta_f(t) * g, sub)):
            np.testing.assert_allclose(exact, ref, rtol=1e-12, atol=0.0)
        assert load_l2h(problem) == pytest.approx(
            quadrature_load_l2h(space, lambda t: theta_f(t) * g, sub), rel=1e-12)
