import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evolveq.forms import (EvaluationError, FormFamily, Subdivision,
                           average_form, build_step_form, certify_shift,
                           coercivity_lower_bound, dual_operator_norm,
                           estimate_constants, gauss_panels, rescale)
from evolveq.presets import get_preset
from evolveq.spaces import GalerkinSpace, StructureError


def scalar_family(p, horizon, symmetric=True):
    space = GalerkinSpace(np.array([[1.0]]), np.array([[1.0]]))
    return FormFamily(space, lambda t: np.array([[p(t)]]), horizon,
                      symmetric=symmetric)


class TestSubdivision:
    def test_uniform(self):
        sub = Subdivision.uniform(2.0, 4)
        assert sub.n_slabs == 4
        assert sub.mesh == pytest.approx(0.5)
        assert sub.is_uniform

    def test_rejects_bad_points(self):
        with pytest.raises(ValueError):
            Subdivision(np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Subdivision(np.array([0.1, 0.5, 1.0]))
        with pytest.raises(ValueError):
            Subdivision.uniform(1.0, 0)

    def test_slab_index_right_continuous(self):
        sub = Subdivision(np.array([0.0, 0.25, 1.0]))
        assert sub.slab_index(0.0) == 0
        assert sub.slab_index(0.25) == 1    # right-continuous at breakpoints
        assert sub.slab_index(1.0) == 1     # horizon maps to the last slab
        with pytest.raises(ValueError):
            sub.slab_index(1.5)
        # the array form that Trajectory.evaluate_many uses
        times = np.array([0.0, 0.1, 0.25, 0.6, 1.0])
        np.testing.assert_array_equal(sub.slab_index(times), [0, 0, 1, 1, 1])
        with pytest.raises(ValueError):
            sub.slab_index(np.array([0.5, -0.1]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.0, max_value=1.0))
    def test_slab_index_brackets_time(self, n, frac):
        sub = Subdivision.uniform(3.0, n)
        t = frac * sub.horizon
        k = sub.slab_index(t)
        assert sub.points[k] <= t
        if k < sub.n_slabs - 1:
            assert t < sub.points[k + 1]
        else:
            assert t <= sub.points[k + 1]


class TestQuadrature:
    def test_weights_sum_to_length(self):
        _, w = gauss_panels(0.3, 2.7)
        assert w.sum() == pytest.approx(2.4, rel=1e-14)

    def test_polynomial_exactness(self):
        nodes, w = gauss_panels(0.0, 1.0)
        # 4-point Gauss per panel is exact through degree 7
        assert w @ nodes**7 == pytest.approx(1.0 / 8.0, rel=1e-13)

    def test_average_of_linear_coefficient(self):
        fam = scalar_family(lambda t: 1.0 + 0.5 * t, 1.0)
        assert average_form(fam, 0.0, 1.0)[0, 0] == pytest.approx(1.25, abs=1e-15)

    def test_average_rejects_empty_slab(self):
        fam = scalar_family(lambda t: 1.0, 1.0)
        with pytest.raises(ValueError):
            average_form(fam, 0.5, 0.5)


class TestStepForm:
    def test_build_and_lookup(self):
        fam = scalar_family(lambda t: 1.0 + t, 1.0)
        sub = Subdivision.uniform(1.0, 2)
        slabs = build_step_form(fam, sub)
        assert len(slabs) == sub.n_slabs
        assert slabs[0][0, 0] == pytest.approx(1.25, abs=1e-14)
        assert slabs[1][0, 0] == pytest.approx(1.75, abs=1e-14)


class TestFamilyValidation:
    def test_symmetry_enforced(self):
        space = GalerkinSpace(np.eye(2), np.eye(2))
        fam = FormFamily(space, lambda t: np.array([[1.0, 0.5], [0.0, 1.0]]),
                         1.0, symmetric=True)
        with pytest.raises(EvaluationError):
            fam.matrix(0.0)

    def test_nonfinite_rejected(self):
        fam = scalar_family(lambda t: np.inf, 1.0)
        with pytest.raises(EvaluationError):
            fam.matrix(0.5)

    def test_shape_rejected(self):
        space = GalerkinSpace(np.eye(2), np.eye(2))
        fam = FormFamily(space, lambda t: np.eye(3), 1.0)
        with pytest.raises(EvaluationError):
            fam.matrix(0.0)


class TestConstants:
    def test_scalar_sin_sampled_values(self):
        fam = scalar_family(lambda t: 2.0 + np.sin(t), 2.0 * np.pi)
        c = estimate_constants(fam)
        # the default 129-point grid contains both pi/2 and 3 pi/2
        assert c.bound == pytest.approx(3.0, abs=1e-12)
        assert c.coercivity == pytest.approx(1.0, abs=1e-12)
        assert 0.95 <= c.lipschitz <= 1.0
        assert c.certified_on_samples

    def test_dual_operator_norm_scalar(self):
        space = GalerkinSpace(np.array([[1.0]]), np.array([[4.0]]))
        assert dual_operator_norm(space, np.array([[2.0]])) == pytest.approx(0.5)

    def test_coercivity_with_shift(self):
        space = GalerkinSpace(np.array([[2.0]]), np.array([[1.0]]))
        val = coercivity_lower_bound(space, np.array([[-1.0]]), shift=1.0)
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_needs_enough_samples(self):
        fam = scalar_family(lambda t: 1.0, 1.0)
        with pytest.raises(ValueError):
            estimate_constants(fam, t_grid=np.linspace(0, 1, 8))

    def test_heat_bound_matches_independent_eig(self, heat_preset):
        fam = heat_preset.problem.family
        c = estimate_constants(fam, t_grid=np.linspace(0, 1, 33))
        # independent oracle at the worst sample: dense generalized eigensolve
        import scipy.linalg as sla
        worst = max(
            np.max(np.abs(sla.eigvals(
                np.linalg.solve(fam.space.gram_V, fam.matrix(t)))))
            for t in np.linspace(0, 1, 33))
        assert c.bound == pytest.approx(float(worst.real), rel=1e-8)


class TestRescale:
    def test_shifted_matrix(self):
        fam = scalar_family(lambda t: -1.0, 1.0)
        shifted = rescale(fam, 2.0)
        assert shifted.matrix(0.3)[0, 0] == pytest.approx(1.0)
        assert shifted.symmetric

    def test_zero_shift_is_identity(self):
        fam = scalar_family(lambda t: 1.0, 1.0)
        assert rescale(fam, 0.0) is fam


class TestCertifyShift:
    def test_already_coercive(self):
        fam = scalar_family(lambda t: 2.0 + np.sin(t), 2.0 * np.pi)
        assert certify_shift(fam) == 0.0

    def test_bisection_finds_minimal_shift(self):
        # p(t) = sin t dips to -1, so the smallest certifying shift is 1
        fam = scalar_family(lambda t: np.sin(t), 2.0 * np.pi)
        shift = certify_shift(fam)
        assert shift == pytest.approx(1.0, abs=1e-6)
        assert coercivity_lower_bound(fam.space, fam.matrix(1.5 * np.pi), shift) > 0

    def test_hopeless_family_raises(self):
        # the negative direction is nearly invisible to gram_H, so no shift
        # within the searched bracket can certify coercivity
        space = GalerkinSpace(np.diag([1.0, 1e-3]), np.eye(2))
        fam = FormFamily(space, lambda t: np.diag([1.0, -1.0]), 1.0)
        with pytest.raises(StructureError):
            certify_shift(fam)
