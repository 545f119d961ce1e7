import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense_gram_V, gauss_panels, quadrature_slab_means,
                      reference_apply, sampled_constants)
from evolveq import fem, tridiagonal
from evolveq.forms import (EXACT, AffineTerms, EvaluationError, FormFamily,
                           Harmonic, Linear, Subdivision, _extreme_bands,
                           build_step_form, certify_shift,
                           coercivity_lower_bound, dual_operator_norm,
                           embedding_constant, estimate_constants, gauss_nodes,
                           rescale)
from evolveq.presets import get_preset
from evolveq.spaces import GalerkinSpace, StructureError


def scalar_family(a0, horizon, a1=0.0, theta=Linear(0.0)):
    """dim 1, A(t) = a0 + theta(t) a1."""
    space = GalerkinSpace(np.array([1.0]), np.array([[1.0]]))
    return FormFamily(space, AffineTerms([[a0]], [[a1]], theta), horizon,
                      symmetric=True)


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
        fam = scalar_family(1.0, 1.0, a1=0.5, theta=Linear(0.0, 1.0))
        (mean,) = build_step_form(fam, Subdivision.uniform(1.0, 1))
        assert mean == 0.5
        assert fam.apply(np.ones(1), mean)[0] == pytest.approx(1.25, abs=1e-15)

    def test_average_rejects_empty_slab(self):
        # an empty slab never reaches the averaging: the subdivision refuses it
        fam = scalar_family(1.0, 1.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            build_step_form(fam, Subdivision(np.array([0.0, 0.5, 0.5, 1.0])))


class TestStepForm:
    def test_build_and_lookup(self):
        fam = scalar_family(1.0, 1.0, a1=1.0, theta=Linear(0.0, 1.0))
        sub = Subdivision.uniform(1.0, 2)
        means = build_step_form(fam, sub)
        assert means.shape == (sub.n_slabs,)
        assert fam.apply(np.ones(1), means[0])[0] == pytest.approx(1.25, abs=1e-14)
        assert fam.apply(np.ones(1), means[1])[0] == pytest.approx(1.75, abs=1e-14)
        # one A_k per column of a block
        np.testing.assert_allclose(fam.apply(np.ones((1, 2)), means), [[1.25, 1.75]],
                                   rtol=0.0, atol=1e-14)
        bad = scalar_family(1.0, 1.0, a1=1.0, theta=Linear(np.nan))
        with pytest.raises(EvaluationError, match="slab mean"):
            build_step_form(bad, sub)


class TestFamilyValidation:
    # the terms are checked once, when the family is built
    def test_symmetry_enforced(self):
        space = GalerkinSpace(np.ones(2), np.eye(2))
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(EvaluationError):
            FormFamily(space, AffineTerms(asym, np.zeros((2, 2)), Linear(0.0)), 1.0,
                       symmetric=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            scalar_family(1.0, 1.0, a1=np.inf)

    def test_shape_rejected(self):
        space = GalerkinSpace(np.ones(2), np.eye(2))
        with pytest.raises(EvaluationError):
            FormFamily(space, AffineTerms(np.eye(3), np.eye(3), Linear(0.0)), 1.0)


class TestConstants:
    def test_scalar_sin_sampled_values(self):
        # the sampled reference: its 129-point grid contains both pi/2 and 3 pi/2
        fam = scalar_family(2.0, 2.0 * np.pi, a1=1.0, theta=Harmonic(b=1.0))
        c = sampled_constants(fam.space, fam.matrix, fam.horizon)
        assert c.bound == pytest.approx(3.0, abs=1e-12)
        assert c.coercivity == pytest.approx(1.0, abs=1e-12)
        assert 0.95 <= c.lipschitz <= 1.0

    def test_dual_operator_norm_scalar(self):
        space = GalerkinSpace(np.array([1.0]), np.array([[4.0]]))
        assert dual_operator_norm(space, tridiagonal.bands(np.array([[2.0]]))) == 0.5

    def test_coercivity_with_shift(self):
        space = GalerkinSpace(np.array([2.0]), np.array([[1.0]]))
        val = coercivity_lower_bound(space, tridiagonal.bands(np.array([[-1.0]])), shift=1.0)
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_heat_bound_matches_independent_eig(self, heat_preset):
        # the exact M of the affine family against a dense generalized
        # eigensolve at 33 sample times, which include both ends of theta's range
        fam = heat_preset.problem.family
        c = estimate_constants(fam)
        import scipy.linalg as sla
        worst = max(
            np.max(np.abs(sla.eigvals(
                np.linalg.solve(dense_gram_V(fam.space), fam.matrix(t)))))
            for t in np.linspace(0, 1, 33))
        assert c.bound == pytest.approx(float(worst.real), rel=1e-8)


def mp_pencil_extreme(a, g, largest, steps=96):
    """The least (or greatest) eigenvalue of the symmetric tridiagonal pencil
    (A, G) for bands a and g, by Sturm counts in 40-digit arithmetic: the
    count of negative LDL^T pivots of A - lam G is the number of eigenvalues
    below lam.  The float64 bands are taken exactly."""
    mpmath.mp.dps = 40
    ad, ae, gd, ge = ([mpmath.mpf(float(x)) for x in row]
                      for row in (a[1], a[0, 1:], g[1], g[0, 1:]))
    n = len(ad)

    def below(lam):
        count, pivot = 0, None
        for i in range(n):
            t = ad[i] - lam * gd[i]
            if i:
                off = ae[i - 1] - lam * ge[i - 1]
                t -= off * off / pivot
            pivot = t if t != 0 else mpmath.mpf("1e-60")
            count += pivot < 0
        return count

    radius = mpmath.mpf(1)
    while below(-radius) > 0 or below(radius) < n:
        radius *= 2
    lo, hi, target = -radius, radius, n - 1 if largest else 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if below(mid) > target else (mid, hi)
    return (lo + hi) / 2


class TestBisectedConstants:
    """M, alpha, L and c_H by inertia bisection on the bands, against a
    40-digit Sturm-count reference of the same float64 matrices."""

    @pytest.mark.parametrize("n_cells", [16, 64, 80])
    def test_against_high_precision(self, n_cells):
        fam = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem.family
        g = fam.space.gram_V
        mats = [tridiagonal.symmetric_part(a) for a in _extreme_bands(fam)]
        bound = max(max(mp_pencil_extreme(a, g, True), -mp_pencil_extreme(a, g, False))
                    for a in mats)
        alpha = min(mp_pencil_extreme(a, g, False) for a in mats)
        lipschitz = (mp_pencil_extreme(fam.tridiagonal.a1, g, True)
                     * fam.terms.theta.max_slope(fam.horizon))
        h = np.zeros((3, fam.space.dim))
        h[1] = fam.space.h
        c_h = mpmath.sqrt(mp_pencil_extreme(h, g, True))
        # the factorizations' componentwise backward error moves an
        # eigenvalue by about n^2 eps relative for these stiffness pencils
        rel = 8.0 * fam.space.dim ** 2 * np.finfo(float).eps
        got = estimate_constants(fam)
        assert got.bound == pytest.approx(float(bound), rel=rel)
        assert got.coercivity == pytest.approx(float(alpha), rel=rel)
        assert got.lipschitz == pytest.approx(float(lipschitz), rel=rel)
        assert embedding_constant(fam.space) == pytest.approx(float(c_h), rel=rel)

    @pytest.mark.parametrize("n_cells", [16, 64, 80])
    def test_alpha_is_certified_to_four_ulps(self, n_cells):
        # sym(A) - alpha G factors for every extreme matrix, and for the one
        # attaining alpha, sym(A) - (alpha + 4 ulp) G does not
        fam = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem.family
        g = fam.space.gram_V
        alpha = estimate_constants(fam).coercivity
        mats = [tridiagonal.symmetric_part(a) for a in _extreme_bands(fam)]
        assert all(tridiagonal.definite(a - alpha * g) for a in mats)
        above = alpha + 4.0 * np.spacing(alpha)
        assert not all(tridiagonal.definite(a - above * g) for a in mats)
        # the greatest eigenvalues from above: M G - sym(A) factors
        bound = estimate_constants(fam).bound
        assert all(tridiagonal.definite(bound * g - a) for a in mats)


class TestRescale:
    def test_shifted_matrix(self):
        fam = scalar_family(-1.0, 1.0)
        shifted = rescale(fam, 2.0)
        assert shifted.matrix(0.3)[0, 0] == pytest.approx(1.0)
        assert shifted.symmetric

    def test_zero_shift_is_identity(self):
        fam = scalar_family(1.0, 1.0)
        assert rescale(fam, 0.0) is fam


class TestCertifyShift:
    def test_already_coercive(self):
        fam = scalar_family(2.0, 2.0 * np.pi, a1=1.0, theta=Harmonic(b=1.0))
        assert certify_shift(fam) == 0.0

    def test_bisection_finds_minimal_shift(self):
        # p(t) = sin t dips to -1, so the smallest certifying shift is 1
        fam = scalar_family(0.0, 2.0 * np.pi, a1=1.0, theta=Harmonic(b=1.0))
        shift = certify_shift(fam)
        assert shift == pytest.approx(1.0, abs=1e-6)
        assert coercivity_lower_bound(fam.space, tridiagonal.bands(fam.matrix(1.5 * np.pi)),
                                      shift) > 0

    def test_hopeless_family_raises(self):
        # the negative direction is nearly invisible to gram_H, so no shift
        # within the searched bracket can certify coercivity
        space = GalerkinSpace(np.array([1.0, 1e-3]), np.eye(2))
        fam = FormFamily(space, AffineTerms(np.diag([1.0, -1.0]), np.zeros((2, 2)),
                                            Linear(0.0)), 1.0)
        with pytest.raises(StructureError):
            certify_shift(fam)


def rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def heat_pair(n_cells):
    """The heat preset's affine family and the callable assembling fem.heat_matrix."""
    fam = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem.family
    return fam, lambda t: fem.heat_matrix(n_cells, t)


def scalar_sin_pair():
    fam = get_preset("scalar-sin").problem.family
    return fam, lambda t: np.array([[2.0 + np.sin(t)]])


AFFINE_PAIRS = {"heat-16": lambda: heat_pair(16), "heat-80": lambda: heat_pair(80),
                "scalar-sin": scalar_sin_pair}


class TestAffineTerms:
    @pytest.mark.parametrize("case", sorted(AFFINE_PAIRS))
    def test_affine_path_matches_callable(self, case):
        # the callable assembles A(t) at each time; its references are
        # Gauss-panel slab means and constants sampled on 129 times
        fam, ref = AFFINE_PAIRS[case]()
        for t in np.linspace(0.0, fam.horizon, 9):
            assert rel_err(fam.matrix(t), ref(t)) <= 1e-12
        sub = Subdivision.uniform(fam.horizon, 16)
        for mean, quad in zip(build_step_form(fam, sub),
                              quadrature_slab_means(ref, fam.space.dim, sub)):
            assert rel_err(fam.terms.at(mean), quad) <= 1e-12
        exact = estimate_constants(fam)
        sampled = sampled_constants(fam.space, ref, fam.horizon)
        assert exact.source == EXACT
        assert exact.bound == pytest.approx(sampled.bound, rel=1e-12)
        assert exact.coercivity == pytest.approx(sampled.coercivity, rel=1e-12)
        # a sampled Lipschitz constant is no upper bound; the exact one is
        assert exact.lipschitz >= sampled.lipschitz

    def test_scalar_sin_range_over_one_period(self):
        fam, _ = scalar_sin_pair()
        assert fam.horizon == 2.0 * np.pi
        assert fam.terms.theta.bounds(fam.horizon) == (-1.0, 1.0)
        c = estimate_constants(fam)
        assert (c.bound, c.coercivity, c.lipschitz) == (3.0, 1.0, 1.0)

    def test_scalar_decay_analytic_constants(self):
        # p(t) = 1 + t/2: M = 1 + T/2, alpha = 1, L = 1/2
        for horizon in (1.0, 3.0):
            c = estimate_constants(get_preset("scalar-decay", horizon=horizon).problem.family)
            assert (c.bound, c.coercivity, c.lipschitz) == (1.0 + 0.5 * horizon, 1.0, 0.5)
        assert estimate_constants(get_preset("constant-heat").problem.family).lipschitz == 0.0
        # heat: |d kappa/dt| = |x cos t|/2 <= 1/2 and the V-Gram dominates the
        # stiffness, so 1/2 bounds the exact L from above
        heat = estimate_constants(get_preset("heat-1d-lipschitz").problem.family)
        assert heat.lipschitz == pytest.approx(0.496035, abs=1e-6)
        assert heat.lipschitz <= 0.5

    def test_tridiagonal_storage_detected(self):
        # every preset: tridiagonal terms (1 x 1 for scalars) over a lumped mass
        for name in ("scalar-decay", "scalar-sin", "constant-heat",
                     "heat-1d-lipschitz", "broken-coupling"):
            fam = get_preset(name).problem.family
            tri = fam.tridiagonal
            # the bands of A0 + s A1, bit for bit
            np.testing.assert_array_equal(tri.at(0.3), tridiagonal.bands(fam.terms.at(0.3)))
            np.testing.assert_array_equal(rescale(fam, 2.0).tridiagonal.at(0.3),
                                          tridiagonal.bands(fam.terms.at(0.3)
                                                            + 2.0 * np.diag(fam.space.h)))
            # products through the bands against the dense matrices, for a
            # vector and for a block with one theta per column
            x = np.random.default_rng(1).standard_normal((fam.space.dim, 3))
            thetas = np.array([-0.4, 0.3, 1.7])
            dense = np.column_stack([reference_apply(fam, col, s)
                                     for s, col in zip(thetas, x.T)])
            np.testing.assert_allclose(fam.apply(x, thetas), dense, rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(fam.apply(x[:, 0], 0.3),
                                       reference_apply(fam, x[:, 0], 0.3),
                                       rtol=1e-14, atol=1e-14)
        a = fem.heat_matrix(8, 0.4)
        bands = tridiagonal.bands(a)
        np.testing.assert_array_equal(bands[1], np.diag(a))
        np.testing.assert_array_equal(bands[0, 1:], np.diag(a, 1))
        np.testing.assert_array_equal(bands[2, :-1], np.diag(a, -1))
        assert bands[0, 0] == bands[2, -1] == 0.0
        # matvec reads the bands row by row, as a @ x does
        rng = np.random.default_rng(2)
        for n in (1, 2, 81):
            mats = [np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
                    + np.diag(rng.standard_normal(n - 1), -1) for _ in range(3)]
            x = rng.standard_normal((n, 3))
            for m, col in zip(mats, x.T):
                np.testing.assert_allclose(tridiagonal.matvec(tridiagonal.bands(m), col),
                                           m @ col, rtol=1e-14, atol=1e-14)
            block = np.stack([tridiagonal.bands(m) for m in mats], axis=-1)
            np.testing.assert_allclose(
                tridiagonal.matvec(block, x),
                np.column_stack([m @ col for m, col in zip(mats, x.T)]),
                rtol=1e-14, atol=1e-14)
        a[0, 2] = 1e-300
        assert tridiagonal.bands(a) is None
        # a term with an entry off the bands is refused when the family is built
        heat = get_preset("heat-1d-lipschitz", n_cells=8).problem.family
        for terms in (AffineTerms(heat.terms.a0, a, Linear(0.0)),
                      AffineTerms(a, heat.terms.a1, Linear(0.0))):
            with pytest.raises(StructureError, match="tridiagonal"):
                FormFamily(heat.space, terms, 1.0)

    def test_coefficient_closed_forms(self):
        sine = Harmonic(b=1.0)
        assert sine.bounds(1.0) == (0.0, np.sin(1.0))
        assert sine.bounds(2.0) == (0.0, 1.0)          # interior maximum at pi/2
        assert sine.bounds(4.0) == (np.sin(4.0), 1.0)  # one turn only, k = 0
        # O(1) in the horizon: ~3e8 turns are not listed one by one
        assert sine.bounds(1e9) == (-1.0, 1.0)
        assert Harmonic(c=1.0, a=1.0, omega=2.0).bounds(1e9) == (0.0, 2.0)
        forcing = Harmonic(c=1.0, a=1.0, omega=2.0)
        assert forcing.max_slope(0.2) == pytest.approx(2.0 * np.sin(0.4), rel=1e-15)
        assert forcing.max_slope(1.0) == 2.0
        # more turns than a range can count with len()
        assert sine.bounds(1e308) == (-1.0, 1.0)
        assert sine.max_slope(1e308) == 1.0
        # omega * horizon overflows to inf: still one full period or more
        assert forcing.bounds(1e308) == (0.0, 2.0)
        assert forcing.max_slope(1e308) == 2.0
        assert Linear(1.0, -0.5).bounds(4.0) == (-1.0, 1.0)
        for theta in (sine, forcing, Linear(1.0, 0.5)):
            nodes, weights = gauss_nodes(np.linspace(0.3, 2.9, 129))
            values = np.array([theta(t) for t in nodes])
            assert theta.mean(0.3, 2.9) == pytest.approx(weights @ values / 2.6, rel=1e-14)
            nodes, weights = gauss_nodes(np.linspace(0.0, 2.9, 129))
            values = np.array([theta(t) for t in nodes])
            assert theta.square_integral(2.9) == pytest.approx(weights @ values**2,
                                                               rel=1e-14)
        # no cancellation on a short slab: (cos a - cos b)/(b - a) loses ~7 digits here
        assert sine.mean(1.0, 1.0 + 1e-9) == pytest.approx(np.sin(1.0 + 5e-10), rel=1e-15)

    def test_terms_checked_when_built(self):
        space = GalerkinSpace(np.ones(2), np.eye(2))
        asym = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(EvaluationError):
            FormFamily(space, AffineTerms(np.eye(2), asym, Harmonic(b=1.0)), 1.0,
                       symmetric=True)
        with pytest.raises(EvaluationError):
            FormFamily(space, AffineTerms(np.full((2, 2), np.inf), np.eye(2), Linear(0.0)),
                       1.0)
        fam = FormFamily(space, AffineTerms(np.eye(2), np.eye(2), Linear(np.nan)), 1.0,
                         symmetric=True)
        with pytest.raises(EvaluationError):
            fam.matrix(0.5)

    def test_rescale_and_certify_shift_on_terms(self):
        space = GalerkinSpace(np.array([1.0]), np.array([[1.0]]))
        fam = FormFamily(space, AffineTerms([[0.0]], [[1.0]], Harmonic(b=1.0)),
                         2.0 * np.pi, symmetric=True)
        # theta = sin t dips to -1, so the smallest certifying shift is 1
        assert certify_shift(fam) == pytest.approx(1.0, abs=1e-6)
        shifted = rescale(fam, 2.0)
        assert shifted.terms.a0[0, 0] == 2.0
        assert shifted.matrix(0.5)[0, 0] == pytest.approx(2.0 + np.sin(0.5), rel=1e-15)
