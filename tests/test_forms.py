import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (bands, consistent_mass, dense, dense_stiffness, gauss_panels,
                      quadrature_slab_means, reference_apply, sampled_constants)
from evolveq import fem, tridiagonal
from evolveq.forms import (EXACT, AffineTerms, EvaluationError, FormFamily,
                           Harmonic, Linear, Subdivision, _extreme_bands,
                           build_step_form, certify_shift, dual_operator_norm,
                           embedding_constant, estimate_constants, gauss_nodes,
                           rescale)
from evolveq.presets import get_preset
from evolveq.spaces import GalerkinSpace, StructureError


def scalar_family(a0, horizon, a1=0.0, theta=Linear(0.0), h=1.0):
    """dim 1, A(t) = a0 + theta(t) a1 over H-metric h and V-Gram 1."""
    space = GalerkinSpace(np.array([h]), bands([[1.0]]))
    return FormFamily(space, AffineTerms(bands([[a0]]), bands([[a1]]), theta), horizon)


class TestSubdivision:
    def test_uniform(self):
        sub = Subdivision(2.0, 4)
        assert sub.n_slabs == 4
        assert sub.mesh == 0.5
        np.testing.assert_array_equal(sub.points, [0.0, 0.5, 1.0, 1.5, 2.0])
        # the mesh is horizon / n_slabs, not the widest gap of the breakpoints
        odd = Subdivision(2.0 * np.pi, 16)
        assert odd.mesh == 2.0 * np.pi / 16 != np.max(np.diff(odd.points))

    def test_rejects_bad_points(self):
        for horizon, n_slabs in ((1.0, 0), (0.0, 2), (-1.0, 2), (np.inf, 2), (np.nan, 2)):
            with pytest.raises(ValueError):
                Subdivision(horizon, n_slabs)

    def test_slab_index_right_continuous(self):
        sub = Subdivision(1.0, 4)
        assert sub.slab_index(0.0) == 0
        assert sub.slab_index(0.25) == 1    # right-continuous at breakpoints
        assert sub.slab_index(1.0) == 3     # horizon maps to the last slab
        with pytest.raises(ValueError):
            sub.slab_index(1.5)
        # the array form that Trajectory.evaluate_many uses
        times = np.array([0.0, 0.1, 0.25, 0.6, 1.0])
        np.testing.assert_array_equal(sub.slab_index(times), [0, 0, 1, 2, 3])
        with pytest.raises(ValueError):
            sub.slab_index(np.array([0.5, -0.1]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.0, max_value=1.0))
    def test_slab_index_brackets_time(self, n, frac):
        sub = Subdivision(3.0, n)
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
        (mean,) = build_step_form(fam, Subdivision(1.0, 1))
        assert mean == 0.5
        assert fam.apply(np.ones(1), mean)[0] == pytest.approx(1.25, abs=1e-15)

    def test_average_rejects_empty_slab(self):
        # an empty slab never reaches the averaging: the subdivision refuses it
        fam = scalar_family(1.0, 1.0)
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            build_step_form(fam, Subdivision(0.0, 2))


class TestStepForm:
    def test_build_and_lookup(self):
        fam = scalar_family(1.0, 1.0, a1=1.0, theta=Linear(0.0, 1.0))
        sub = Subdivision(1.0, 2)
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


# the bands of the dim-4 matrix tridiag(-1, 2, -1), and their refusals
GOOD_BANDS = bands(2.0 * np.eye(4) - np.eye(4, k=1) - np.eye(4, k=-1))


def bad_bands(case):
    """GOOD_BANDS broken in one way, with the refusal it draws."""
    b = GOOD_BANDS.copy()
    if case == "shape":
        return dense(b), r"must be \(3, 4\) bands, got shape \(4, 4\)"
    if case == "corner":
        b[0, 0] = 1.0
        return b, "nonzero corner"
    if case == "nonfinite":
        b[1, 2] = np.nan
        return b, "non-finite"
    if case == "huge_asymmetric":
        # squares of these entries overflow; the check's norms must not
        b *= 1e200
        b[0, 2] = -b[0, 2]
        return b, "not symmetric"
    b[0, 2] += 0.5
    return b, "not symmetric"


def assert_refused_everywhere(case):
    """The space and both terms of a family take their bands through one
    validator, and each refuses the broken bands with StructureError."""
    b, message = bad_bands(case)
    with pytest.raises(StructureError, match=f"gram_V .*{message}"):
        GalerkinSpace(np.ones(4), b)
    space = GalerkinSpace(np.ones(4), GOOD_BANDS)
    zero = np.zeros((3, 4))
    for terms, what in ((AffineTerms(b, zero, Linear(0.0)), "a0"),
                        (AffineTerms(zero, b, Linear(0.0)), "a1")):
        with pytest.raises(StructureError, match=f"affine term {what} .*{message}"):
            FormFamily(space, terms, 1.0)


class TestFamilyValidation:
    # the terms are checked once, when the family is built, by the validator
    # of the space's V-Gram
    def test_symmetry_enforced(self):
        assert_refused_everywhere("asymmetric")
        assert_refused_everywhere("huge_asymmetric")

    def test_nonfinite_rejected(self):
        assert_refused_everywhere("nonfinite")

    def test_shape_rejected(self):
        # a dense matrix in place of the bands, too
        assert_refused_everywhere("shape")

    def test_nonzero_corner_rejected(self):
        assert_refused_everywhere("corner")

    def test_off_diagonals_averaged(self):
        # within the 1e-12 tolerance, the two off-diagonals become their mean
        b = GOOD_BANDS.copy()
        b[0, 2] += 1e-13
        got = FormFamily(GalerkinSpace(np.ones(4), b), AffineTerms(b, b, Linear(0.0)), 1.0)
        for kept in (got.space.gram_V, got.terms.a0, got.terms.a1):
            np.testing.assert_array_equal(kept[0, 1:], kept[2, :-1])
            assert kept[0, 2] == pytest.approx(-1.0 + 0.5e-13, rel=0.0, abs=1e-16)
        # symmetric bands keep their bits, also where a + b would overflow
        huge = np.where(GOOD_BANDS != 0.0, 1e308, 0.0)
        got = FormFamily(got.space, AffineTerms(huge, huge, Linear(0.0)), 1.0)
        np.testing.assert_array_equal(got.terms.a0, huge)


class TestConstants:
    def test_scalar_sin_sampled_values(self):
        # the sampled reference: its 129-point grid contains both pi/2 and 3 pi/2
        fam = scalar_family(2.0, 2.0 * np.pi, a1=1.0, theta=Harmonic(b=1.0))
        c = sampled_constants(fam.space, fam.matrix, fam.horizon)
        assert c.bound == pytest.approx(3.0, abs=1e-12)
        assert c.coercivity == pytest.approx(1.0, abs=1e-12)
        assert 0.95 <= c.lipschitz <= 1.0

    def test_dual_operator_norm_scalar(self):
        space = GalerkinSpace(np.array([1.0]), bands([[4.0]]))
        assert dual_operator_norm(space, bands([[2.0]])) == 0.5

    def test_coercivity_with_shift(self):
        # A = -1 shifted by 1 * diag(h) with h = 2, against gram_V = 1
        fam = rescale(scalar_family(-1.0, 1.0, h=2.0), 1.0)
        assert estimate_constants(fam).coercivity == pytest.approx(1.0, abs=1e-13)

    def test_heat_bound_matches_independent_eig(self, heat_preset):
        # the exact M of the affine family against a dense generalized
        # eigensolve at 33 sample times, which include both ends of theta's range
        fam = heat_preset.problem.family
        c = estimate_constants(fam)
        import scipy.linalg as sla
        worst = max(
            np.max(np.abs(sla.eigvals(
                np.linalg.solve(dense(fam.space.gram_V), dense(fam.matrix(t))))))
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
        mats = _extreme_bands(fam)
        bound = max(max(mp_pencil_extreme(a, g, True), -mp_pencil_extreme(a, g, False))
                    for a in mats)
        alpha = min(mp_pencil_extreme(a, g, False) for a in mats)
        lipschitz = (mp_pencil_extreme(fam.terms.a1, g, True)
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
        # A - alpha G factors for every extreme matrix, and for the one
        # attaining alpha, A - (alpha + 4 ulp) G does not
        fam = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem.family
        g = fam.space.gram_V
        alpha = estimate_constants(fam).coercivity
        mats = _extreme_bands(fam)
        assert all(tridiagonal.definite(a - alpha * g) for a in mats)
        above = alpha + 4.0 * np.spacing(alpha)
        assert not all(tridiagonal.definite(a - above * g) for a in mats)
        # the greatest eigenvalues from above: M G - A factors
        bound = estimate_constants(fam).bound
        assert all(tridiagonal.definite(bound * g - a) for a in mats)


class TestRescale:
    def test_shifted_matrix(self):
        fam = scalar_family(-1.0, 1.0)
        shifted = rescale(fam, 2.0)
        assert shifted.matrix(0.3)[1, 0] == pytest.approx(1.0)

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
        at_dip = rescale(fam, shift).matrix(1.5 * np.pi)
        assert tridiagonal.pencil_bracket(at_dip, fam.space.gram_V)[0] > 0

    def test_hopeless_family_raises(self):
        # the negative direction is nearly invisible to gram_H, so no shift
        # within the searched bracket can certify coercivity
        space = GalerkinSpace(np.array([1.0, 1e-3]), bands(np.eye(2)))
        fam = FormFamily(space, AffineTerms(bands(np.diag([1.0, -1.0])), np.zeros((3, 2)),
                                            Linear(0.0)), 1.0)
        with pytest.raises(StructureError):
            certify_shift(fam)


def dense_heat_matrix(n_cells, t):
    """The dense assembly of `fem.heat_matrix`: stiffness of kappa's cell
    integrals plus the Robin terms at both ends."""
    x = fem.uniform_nodes(n_cells)
    cell = 1.0 / n_cells + 0.25 * np.sin(t) * (x[1:] ** 2 - x[:-1] ** 2)
    a = dense_stiffness(n_cells, cell)
    a[0, 0] += 1.0
    a[-1, -1] += 1.0
    return a


def test_band_assembly_matches_dense_assembly():
    # bit for bit at every mesh size the band assembly replaced
    rng = np.random.default_rng(3)
    for n in range(1, 1025):
        lumped = consistent_mass(n).sum(axis=1)
        stiff = bands(dense_stiffness(n))
        cells = rng.uniform(0.1, 2.0, n) / n
        assert np.array_equal(fem.lumped_mass(n), lumped), n
        assert np.array_equal(fem.stiffness(n), stiff), n
        assert np.array_equal(fem.stiffness(n, cells), bands(dense_stiffness(n, cells))), n
        assert np.array_equal(fem.heat_matrix(n, 0.7), bands(dense_heat_matrix(n, 0.7))), n
        # the V-Gram is stiffness + diag(lumped): the lumped mass moves only the diagonal
        stiff[1] += lumped
        assert np.array_equal(fem.robin_space(n).gram_V, stiff), n


def rel_err(a, b):
    return np.linalg.norm(np.asarray(a) - b) / np.linalg.norm(b)


def heat_pair(n_cells):
    """The heat preset's affine family and the callable assembling the bands
    of fem.heat_matrix."""
    fam = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem.family
    return fam, lambda t: fem.heat_matrix(n_cells, t)


def scalar_sin_pair():
    fam = get_preset("scalar-sin").problem.family
    return fam, lambda t: bands([[2.0 + np.sin(t)]])


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
        sub = Subdivision(fam.horizon, 16)
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
        assert fam.terms.theta.extremes(fam.horizon) == ((1.5 * np.pi, -1.0), (0.5 * np.pi, 1.0))
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

    def test_band_products_match_dense(self):
        for name in ("scalar-decay", "scalar-sin", "constant-heat",
                     "heat-1d-lipschitz", "broken-coupling"):
            fam = get_preset(name).problem.family
            # the shift lands on the diagonal, bit for bit as a dense sum
            np.testing.assert_array_equal(
                rescale(fam, 2.0).terms.at(0.3),
                bands(dense(fam.terms.at(0.3)) + 2.0 * np.diag(fam.space.h)))
            # products through the bands against the dense matrices, for a
            # vector and for a block with one theta per column
            x = np.random.default_rng(1).standard_normal((fam.space.dim, 3))
            thetas = np.array([-0.4, 0.3, 1.7])
            reference = np.column_stack([reference_apply(fam, col, s)
                                         for s, col in zip(thetas, x.T)])
            np.testing.assert_allclose(fam.apply(x, thetas), reference,
                                       rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(fam.apply(x[:, 0], 0.3),
                                       reference_apply(fam, x[:, 0], 0.3),
                                       rtol=1e-14, atol=1e-14)
        # matvec reads the bands row by row, as a @ x does
        rng = np.random.default_rng(2)
        for n in (1, 2, 81):
            mats = [np.diag(rng.standard_normal(n)) + np.diag(rng.standard_normal(n - 1), 1)
                    + np.diag(rng.standard_normal(n - 1), -1) for _ in range(3)]
            x = rng.standard_normal((n, 3))
            for m, col in zip(mats, x.T):
                np.testing.assert_allclose(tridiagonal.matvec(bands(m), col),
                                           m @ col, rtol=1e-14, atol=1e-14)
            block = np.stack([bands(m) for m in mats], axis=-1)
            np.testing.assert_allclose(
                tridiagonal.matvec(block, x),
                np.column_stack([m @ col for m, col in zip(mats, x.T)]),
                rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("name, n_cells", [("scalar-sin", None),
                                               ("heat-1d-lipschitz", 80),
                                               ("broken-coupling", 16)])
    def test_pencil_eigh_is_divide_and_conquer(self, name, n_cells):
        # the LAPACK routine is named, stevd, not left to SciPy's default: bit for bit
        fam = get_preset(name, n_cells=n_cells).problem.family
        b, h = fam.terms.at(0.4), fam.space.h
        s = 1.0 / np.sqrt(h)
        rates, q = sla.eigh_tridiagonal(b[1] / h, b[0, 1:] * s[:-1] * s[1:],
                                        lapack_driver="stevd")
        got_rates, got_modes = tridiagonal.pencil_eigh(b, h)
        np.testing.assert_array_equal(got_rates, rates)
        np.testing.assert_array_equal(got_modes, s[:, None] * q)

    def test_coefficient_closed_forms(self):
        sine = Harmonic(b=1.0)
        assert sine.extremes(1.0) == ((0.0, 0.0), (1.0, np.sin(1.0)))
        # an interior maximum at pi/2
        assert sine.extremes(2.0) == ((0.0, 0.0), (np.pi / 2, 1.0))
        # one turn only, k = 0
        assert sine.extremes(4.0) == ((4.0, np.sin(4.0)), (np.pi / 2, 1.0))
        # O(1) in the horizon: ~3e8 turns are not listed one by one
        assert sine.extremes(1e9) == ((pytest.approx(1.5 * np.pi, rel=1e-15), -1.0),
                                      (np.pi / 2, 1.0))
        forcing = Harmonic(c=1.0, a=1.0, omega=2.0)
        assert forcing.extremes(1e9) == ((np.pi / 2, 0.0), (0.0, 2.0))
        assert forcing.extremes(1.0) == ((1.0, 1.0 + np.cos(2.0)), (0.0, 2.0))
        assert forcing.max_slope(0.2) == pytest.approx(2.0 * np.sin(0.4), rel=1e-15)
        assert forcing.max_slope(1.0) == 2.0
        # more turns than a range can count with len()
        assert sine.extremes(1e308) == sine.extremes(1e9)
        assert sine.max_slope(1e308) == 1.0
        # omega * horizon overflows to inf: still one full period or more
        assert forcing.extremes(1e308) == ((np.pi / 2, 0.0), (0.0, 2.0))
        assert forcing.max_slope(1e308) == 2.0
        assert Linear(1.0, -0.5).extremes(4.0) == ((4.0, -1.0), (0.0, 1.0))
        assert Linear(2.0).extremes(4.0) == ((0.0, 2.0), (0.0, 2.0))
        # each extreme is theta's value at its time
        for theta, horizon in ((sine, 4.0), (sine, 1e9), (forcing, 1.0), (forcing, 1e308)):
            for t, value in theta.extremes(horizon):
                assert theta(t) == pytest.approx(value, abs=1e-15)
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
        eye = bands(np.eye(2))
        space = GalerkinSpace(np.ones(2), eye)
        asym = bands([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(StructureError, match="not symmetric"):
            FormFamily(space, AffineTerms(eye, asym, Harmonic(b=1.0)), 1.0)
        with pytest.raises(StructureError, match="non-finite"):
            FormFamily(space, AffineTerms(bands(np.diag([np.inf, np.inf])), eye,
                                          Linear(0.0)), 1.0)
        # a non-finite coefficient is found where the form is evaluated
        fam = FormFamily(space, AffineTerms(eye, eye, Linear(np.nan)), 1.0)
        with pytest.raises(EvaluationError):
            fam.matrix(0.5)

    def test_rescale_and_certify_shift_on_terms(self):
        fam = scalar_family(0.0, 2.0 * np.pi, a1=1.0, theta=Harmonic(b=1.0))
        # theta = sin t dips to -1, so the smallest certifying shift is 1
        assert certify_shift(fam) == pytest.approx(1.0, abs=1e-6)
        shifted = rescale(fam, 2.0)
        assert shifted.terms.a0[1, 0] == 2.0
        assert shifted.matrix(0.5)[1, 0] == pytest.approx(2.0 + np.sin(0.5), rel=1e-15)
