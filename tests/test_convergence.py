import numpy as np
import pytest

from conftest import bands, oracle_gap
from evolveq.convergence import (check_ladder, refine, solve_ladder,
                                 trajectory_l2v_diff, trajectory_suph_diff)
from evolveq.forms import Subdivision
from evolveq.presets import get_preset
from evolveq.propagator import solve


class TestLadderValidation:
    def test_non_nested_rejected(self):
        for bad in ([8, 12], [16, 8], [8], [0, 8]):
            with pytest.raises(ValueError):
                check_ladder(bad)
        assert check_ladder([8], min_points=1) == [8]


class TestDifferences:
    def test_self_difference_is_zero(self, heat_traj_64):
        grid = heat_traj_64.grid
        assert trajectory_l2v_diff(heat_traj_64, heat_traj_64, grid) == 0.0
        assert trajectory_suph_diff(heat_traj_64, heat_traj_64, grid) == 0.0

    def test_scalar_difference_closed_form(self):
        # two scalar decays e^{-t} and e^{-2t}: the L^2(0,1) difference of
        # the states is computable in closed form
        preset1 = get_preset("scalar-decay", load="none")
        problem = preset1.problem
        from evolveq.forms import AffineTerms, FormFamily, Linear
        from evolveq.propagator import ProblemData
        space = problem.family.space
        fam1, fam2 = (FormFamily(space, AffineTerms(bands([[p]]), np.zeros((3, 1)), Linear(0.0)),
                                 1.0) for p in (1.0, 2.0))
        t1 = solve(ProblemData(fam1, np.array([1.0])), Subdivision(1.0, 1))
        t2 = solve(ProblemData(fam2, np.array([1.0])), Subdivision(1.0, 1))
        grid = np.linspace(0.0, 1.0, 65)
        got = trajectory_l2v_diff(t1, t2, grid)
        # int_0^1 (e^{-t} - e^{-2t})^2 dt
        exact = np.sqrt((1 - np.exp(-2)) / 2 - 2 * (1 - np.exp(-3)) / 3
                        + (1 - np.exp(-4)) / 4)
        assert got == pytest.approx(exact, rel=1e-10)


class TestRefine:
    def test_scalar_sin_ladder(self):
        preset = get_preset("scalar-sin", load="none")
        ladder = solve_ladder(preset.problem, [8, 16, 32, 64, 128])
        study = refine(ladder)
        assert np.all(np.diff(study.diffs_l2V) < 0)
        assert study.rate >= 0.9
        assert study.slab_counts == [8, 16, 32, 64, 128]
        # each ladder point is output on its own breakpoints
        for traj in ladder:
            np.testing.assert_array_equal(traj.grid, traj.subdivision.points)

    def test_autonomous_collapse_small(self):
        preset = get_preset("constant-heat", n_cells=16, load="none")
        study = refine(solve_ladder(preset.problem, [4, 8, 16]))
        assert np.all(study.diffs_l2V <= 1e-11)

    def test_executor_matches_serial(self, heat_preset):
        serial = refine(solve_ladder(heat_preset.problem, [8, 16, 32]))
        threaded = refine(solve_ladder(heat_preset.problem, [8, 16, 32], threads=3))
        np.testing.assert_array_equal(serial.diffs_l2V, threaded.diffs_l2V)
        np.testing.assert_array_equal(serial.diffs_supH, threaded.diffs_supH)


class TestOracleGap:
    def test_scalar_gap_shrinks_with_oracle_steps(self):
        # autonomous scalar: the scheme is exact at every time, so the gap
        # is purely the oracle's own first-order error
        from evolveq.forms import AffineTerms, FormFamily, Linear
        from evolveq.propagator import ProblemData
        from evolveq.spaces import GalerkinSpace
        space = GalerkinSpace(np.ones(1), bands([[1.0]]))
        family = FormFamily(space, AffineTerms(bands([[1.0]]), np.zeros((3, 1)), Linear(0.0)),
                            1.0)
        problem = ProblemData(family, np.array([1.0]))
        sub = Subdivision(1.0, 8)
        gaps = [oracle_gap(problem, sub, n) for n in (500, 2000)]
        assert gaps[1] == pytest.approx(gaps[0] / 4.0, rel=0.05)

    def test_relative_flag(self):
        preset = get_preset("scalar-decay", load="none")
        sub = Subdivision(1.0, 8)
        absolute = oracle_gap(preset.problem, sub, 1000)
        relative = oracle_gap(preset.problem, sub, 1000, relative=True)
        assert relative == pytest.approx(absolute / 1.0, rel=1e-12)
