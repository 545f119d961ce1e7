import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (POOL_TIMES, bands, criterion_values, dense,
                      reference_ball_projection, sample_pool)
from evolveq.cli import CRITERION_TOL as ROUNDOFF
from evolveq.forms import (AffineTerms, EvaluationError, FormFamily, Harmonic,
                           Linear, Subdivision, estimate_constants)
from evolveq.invariance import (ConvexSet, _sphere_min, audit_trajectory,
                                check_criterion, check_criterion_symmetric)
from evolveq.presets import convex_set_for, get_preset
from evolveq.propagator import solve
from evolveq.spaces import GalerkinSpace

SETS = {"cone": dict(kind="box", lower=0.0),
        "unit": dict(kind="box", lower=0.0, upper=1.0),
        "symmetric": dict(kind="box", lower=-1.0, upper=1.0),
        "ball": dict(kind="ball", radius=1.0)}


def spike_rows(dim, n_vectors, seed=0):
    """The middle third of a pool over a box in R^dim: its sparse spikes."""
    vs, _ = sample_pool(np.random.default_rng(seed),
                        ConvexSet.box(np.ones(dim), lower=0.0), n_vectors)
    third = n_vectors // 3
    return vs[third:2 * third]


def witness_value(family, load, cset, report):
    """The criterion's value of the report's witness at its time, by a dense
    A(t) and the set's own projection, and the norm ||v - Pv||_h."""
    v, t = report.witness, report.witness_t
    pv = cset.project(v)
    f = 0.0 if load is None else load.theta(t) * load.pairing
    value = float((dense(family.matrix(t)) @ pv - f) @ (v - pv))
    return value, cset.metric_norm(v - pv)


def pool_times(family, load):
    """The pool's 9 uniform times and the certificate's real times: 0, T and
    the times where theta or theta_f is extreme."""
    horizon = family.horizon
    times = set(np.linspace(0.0, horizon, POOL_TIMES)) | {0.0, horizon}
    for coefficient in [family.terms.theta] + ([] if load is None else [load.theta]):
        times |= {t for t, _ in coefficient.extremes(horizon)}
    return sorted(times)


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def lumped_metric(rng, n):
    """The diagonal h of a random lumped H-Gram."""
    return rng.uniform(0.5, 2.0, n)


class TestProjection:
    def test_box_clamp_diagonal_metric(self):
        cset = ConvexSet.box([1.0, 2.0, 3.0], lower=0.0, upper=1.0)
        np.testing.assert_array_equal(cset.project([-1.0, 0.5, 7.0]),
                                      [0.0, 0.5, 1.0])

    def test_box_qp_matches_bound_constrained_oracle(self, rng):
        # the box QP in the metric diag(h) is solved by the clamp
        from scipy.optimize import minimize
        n = 6
        metric = lumped_metric(rng, n)
        cset = ConvexSet.box(metric, lower=-0.5, upper=0.5)
        for _ in range(5):
            x = 2.0 * rng.standard_normal(n)
            got = cset.project(x)
            ref = minimize(lambda z: 0.5 * (z - x) @ (metric * (z - x)),
                           np.zeros(n), jac=lambda z: metric * (z - x),
                           method="L-BFGS-B", bounds=[(-0.5, 0.5)] * n,
                           options={"ftol": 1e-15, "gtol": 1e-12}).x
            np.testing.assert_allclose(got, ref, atol=1e-6)

    def test_ball_projection(self):
        cset = ConvexSet.ball(np.ones(2), np.zeros(2), 1.0)
        np.testing.assert_allclose(cset.project([3.0, 4.0]), [0.6, 0.8])
        assert cset.distance([3.0, 4.0]) == pytest.approx(4.0)

    @pytest.mark.parametrize("dim", [1, 3, 81])
    def test_ball_rows_match_row_by_row(self, rng, dim):
        # all rows scaled at once against one row at a time; rows inside the
        # ball come back unchanged, bit for bit
        metric = lumped_metric(rng, dim)
        cset = ConvexSet.ball(metric, rng.standard_normal(dim), 1.5 * np.sqrt(dim))
        xs = cset.center + rng.standard_normal((200, dim)) * rng.uniform(0.1, 3.0, (200, 1))
        got, ref = cset.project(xs), reference_ball_projection(cset, xs)
        inside = np.array([cset.metric_norm(x - cset.center) <= cset.radius for x in xs])
        assert 0 < inside.sum() < xs.shape[0]
        np.testing.assert_array_equal(got[inside], xs[inside])
        # relative to the operands center + s (x - center): an entry that
        # cancels carries the roundoff of its row's scale factor s
        scale = np.abs(cset.center) + np.abs(xs - cset.center)
        assert np.all(np.abs(got - ref) <= 1e-15 * scale)
        np.testing.assert_array_equal(cset.project(xs[0]), got[0])

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            ConvexSet.box(np.ones(2), lower=1.0, upper=0.0)
        with pytest.raises(ValueError):
            ConvexSet.ball(np.ones(2), np.zeros(2), 0.0)
        # the metric is the diagonal h of the lumped H-Gram, not a matrix
        with pytest.raises(ValueError, match="lumped"):
            ConvexSet.box(np.eye(2), lower=0.0)
        with pytest.raises(ValueError, match="lumped"):
            ConvexSet.ball(np.eye(2), np.zeros(2), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_projection_idempotent_and_variational(self, seed):
        rng = np.random.default_rng(seed)
        n = 4
        metric = lumped_metric(rng, n)
        if rng.choice(["box", "ball"]) == "box":
            cset = ConvexSet.box(metric, lower=-1.0, upper=1.0)
        else:
            cset = ConvexSet.ball(metric, rng.standard_normal(n), 1.0)
        x = 3.0 * rng.standard_normal(n)
        px = cset.project(x)
        np.testing.assert_allclose(cset.project(px), px, atol=1e-8)
        # variational inequality (x - Px, v - Px)_metric <= 0 for feasible v
        for _ in range(10):
            v = cset.project(rng.standard_normal(n))
            assert (x - px) @ (metric * (v - px)) <= 1e-7


class TestSamplePool:
    def test_pool_size_and_finiteness(self, rng):
        cset = ConvexSet.box(np.ones(5), lower=0.0)
        vs, pvs = sample_pool(rng, cset, 100)
        assert vs.shape == pvs.shape == (100, 5)
        assert np.all(np.isfinite(vs))
        np.testing.assert_array_equal(pvs, cset.project(vs))

    def test_pool_is_seed_deterministic(self):
        cset = ConvexSet.box(np.ones(5), lower=0.0)
        p1 = sample_pool(np.random.default_rng(7), cset, 60)
        p2 = sample_pool(np.random.default_rng(7), cset, 60)
        np.testing.assert_array_equal(p1[0], p2[0])

    @pytest.mark.parametrize("dim", [1, 2, 81])
    def test_spike_rows_have_one_to_three_distinct_nonzeros(self, dim):
        spikes = spike_rows(dim, 3000)
        counts = np.count_nonzero(spikes, axis=1)
        assert set(counts) == set(range(1, min(3, dim) + 1))
        magnitudes = np.abs(spikes[spikes != 0.0])
        assert magnitudes.min() >= 0.5 and magnitudes.max() < 3.0

    def test_spike_law_is_uniform(self):
        # k ~ U{1, 2, 3} at a uniform k-subset of 4 positions: each position
        # is hit with probability E[k]/4 = 1/2, each pair of a 2-spike with 1/6
        spikes = spike_rows(4, 30_000)
        hit = spikes != 0.0
        counts = hit.sum(axis=1)
        for k in (1, 2, 3):
            assert np.mean(counts == k) == pytest.approx(1 / 3, abs=0.03)
        np.testing.assert_allclose(hit.mean(axis=0), 0.5, atol=0.03)
        pairs = hit[counts == 2]
        for i in range(4):
            for j in range(i + 1, 4):
                share = np.mean(pairs[:, i] & pairs[:, j])
                assert share == pytest.approx(1 / 6, abs=0.03)
        assert np.mean(spikes[hit] > 0.0) == pytest.approx(0.5, abs=0.03)

    def test_generator_calls_do_not_grow_with_the_pool(self):
        cset = ConvexSet.box(np.ones(5), lower=0.0)
        calls = []
        for n_vectors in (100, 1000, 10_000):
            rng = CountingGenerator(0)
            sample_pool(rng, cset, n_vectors)
            calls.append(rng.calls)
        assert calls[0] == calls[1] == calls[2]


class TestCriterion:
    def test_heat_box_margin_nonnegative(self, heat_homogeneous):
        family = heat_homogeneous.problem.family
        cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
        report = check_criterion(family, cset)
        assert report.margin == 0.0 and report.bound >= 0.0

    def test_symmetric_variant_heat(self, heat_homogeneous):
        # the symmetric criterion is the criterion without a load
        family = heat_homogeneous.problem.family
        cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
        report = check_criterion_symmetric(family, cset,
                                           estimate_constants(family).coercivity)
        assert report.margin == 0.0 and report.bound >= 0.0
        forced = get_preset("heat-1d-lipschitz", load="forcing")
        cset = convex_set_for(forced, "ball", radius=1.0)
        alpha = estimate_constants(forced.problem.family).coercivity
        got = check_criterion_symmetric(forced.problem.family, cset, alpha)
        ref = check_criterion(forced.problem.family, cset)
        assert (got.margin, got.bound, got.witness_t) == (ref.margin, ref.bound, ref.witness_t)
        np.testing.assert_array_equal(got.witness, ref.witness)

    def test_affine_criteria_match_callable(self):
        # over one period theta = sin t changes sign; the values through the
        # bands (and, for the ball, the pencil's modes) against a dense A(t)
        preset = get_preset("heat-1d-lipschitz", n_cells=16, horizon=2.0 * np.pi,
                            amplitude=3.0)
        family, load = preset.problem.family, preset.problem.load
        for kind, params in (("box", dict(lower=0.0, upper=0.5)), ("ball", dict(radius=1.0))):
            cset = convex_set_for(preset, kind, **params)
            report = check_criterion(family, cset, load=load)
            assert report.margin < -ROUNDOFF * report.scale
            value, norm = witness_value(family, load, cset, report)
            assert norm == pytest.approx(1.0, rel=1e-12)
            assert value == pytest.approx(report.margin, rel=1e-12)
            assert report.bound <= report.margin

    def test_broken_coupling_detected_both_ways(self):
        preset = get_preset("broken-coupling")
        family = preset.problem.family
        cset = convex_set_for(preset, "box", lower=0.0)
        report = check_criterion(family, cset)
        # the flipped coupling A_{m,m+1} = 16 at its free neighbour B = 1,
        # over sqrt(h) = 1/4
        assert report.margin == pytest.approx(-64.0, rel=1e-12)
        assert np.isfinite(report.witness).all()
        traj = solve(preset.problem, Subdivision(preset.problem.horizon, 8))
        violation, witness_t = audit_trajectory(traj, cset)
        assert violation > 0.0
        assert witness_t in traj.grid

    def test_symmetric_variant_rejects_non_accretive(self):
        # 0.97 + sin t dips below 0 only near 3 pi / 2 = 4.71: the ends of
        # theta's range catch it
        space = GalerkinSpace(np.ones(1), bands([[1.0]]))
        family = FormFamily(space, AffineTerms(bands([[0.97]]), bands([[1.0]]),
                                               Harmonic(b=1.0)), 5.0)
        alpha = estimate_constants(family).coercivity
        assert alpha < 0.0
        with pytest.raises(ValueError):
            check_criterion_symmetric(family, ConvexSet.box(np.ones(1), 0.0), alpha)

    def test_nonfinite_coefficient_raises(self):
        space = GalerkinSpace(np.ones(1), bands([[1.0]]))
        family = FormFamily(space, AffineTerms(bands([[1.0]]), bands([[1.0]]), Linear(np.nan)),
                            1.0)
        with pytest.raises(EvaluationError):
            check_criterion(family, ConvexSet.box(np.ones(1), 0.0))

    def test_set_in_another_metric_is_refused(self, heat_homogeneous):
        family = heat_homogeneous.problem.family
        with pytest.raises(ValueError, match="H-metric"):
            check_criterion(family, ConvexSet.box(np.ones(family.space.dim), 0.0))

    def test_audit_heat_trajectory_zero(self, heat_homogeneous):
        cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
        traj = solve(heat_homogeneous.problem,
                     Subdivision(heat_homogeneous.problem.horizon, 32))
        assert audit_trajectory(traj, cset)[0] <= 1e-12


@pytest.mark.parametrize("set_name", sorted(SETS))
@pytest.mark.parametrize("load_name", ["none", "forcing"])
@pytest.mark.parametrize("preset_name", ["heat-1d-lipschitz", "constant-heat",
                                         "broken-coupling"])
def test_certificate_against_the_pool(preset_name, load_name, set_name):
    preset = get_preset(preset_name, n_cells=16, load=load_name)
    family, load = preset.problem.family, preset.problem.load
    cset = convex_set_for(preset, **SETS[set_name])
    report = check_criterion(family, cset, load=load)
    tol = ROUNDOFF * report.scale
    pool = sample_pool(np.random.default_rng(1234), cset, 10_000)
    least = min(float(np.min(criterion_values(family, load, pool, t, cset.metric)))
                for t in pool_times(family, load))
    # every case here is decided: a pass by the corners, a failure at a real time
    assert report.bound >= -tol or report.margin < -tol
    if report.bound >= -tol:
        # no pool vector beats a passing certificate
        assert report.margin >= -tol
        assert least >= -tol
    else:
        # the witness is a real (v, t) with the reported negative value
        value, norm = witness_value(family, load, cset, report)
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert value < 0.0
        assert value == pytest.approx(report.margin, rel=1e-12)
        assert report.witness_t in pool_times(family, load)
    if cset.kind == "ball":
        # the dual bound is below every value; the pool's best stays above it
        assert least >= report.bound - tol


def test_corners_failing_at_no_real_time_are_not_certified():
    # theta = sin t and theta_f = 1 + cos 2t over one period: the corner
    # (theta = -1, theta_f = 2) is attained at no time.  Its bound fails,
    # while 0, T and the extremes of both coefficients pass, and so does a
    # fine time grid: the criterion holds, but the corners cannot show it.
    preset = get_preset("heat-1d-lipschitz", n_cells=16, horizon=2.0 * np.pi)
    family, load = preset.problem.family, preset.problem.load
    cset = convex_set_for(preset, "ball", radius=0.8)
    report = check_criterion(family, cset, load=load)
    tol = ROUNDOFF * report.scale
    assert report.bound < -tol and report.margin == 0.0
    pool = sample_pool(np.random.default_rng(0), cset, 10_000)
    for t in np.linspace(0.0, family.horizon, 65):
        assert np.min(criterion_values(family, load, pool, t, cset.metric)) > 0.0


class TestSphereMin:
    def test_matches_a_dense_scan_of_the_circle(self, rng):
        angles = np.linspace(0.0, 2.0 * np.pi, 200_001)
        circle = np.stack([np.cos(angles), np.sin(angles)])
        for _ in range(20):
            mu, beta = np.sort(rng.normal(size=2)), rng.normal(size=2) * rng.uniform(0, 3)
            bound, y = _sphere_min(mu, beta)
            scan = np.min(mu @ circle**2 + beta @ circle)
            assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-15)
            assert bound <= scan + 1e-14
            # the scan's step of 3.1e-5 rad misses the minimum by at most
            # (|mu| + |beta|) (1.6e-5)^2 / 2 < 1e-8
            assert bound == pytest.approx(scan, abs=1e-8)
            assert mu @ y**2 + beta @ y == pytest.approx(bound, abs=1e-13)

    @pytest.mark.parametrize("dim", [1, 3, 65])
    def test_dual_bound_meets_the_primal_value(self, rng, dim):
        for _ in range(20):
            mu = np.sort(rng.normal(size=dim)) * rng.uniform(0.1, 100.0)
            beta = rng.normal(size=dim) * rng.uniform(0.0, 10.0)
            bound, y = _sphere_min(mu, beta)
            primal = mu @ y**2 + beta @ y
            assert bound <= primal + 1e-12 * (np.max(np.abs(mu)) + np.linalg.norm(beta))
            assert primal - bound <= 1e-11 * (np.max(np.abs(mu)) + np.linalg.norm(beta))

    def test_hard_case(self):
        # beta has no part on the least mode, and too little elsewhere to
        # pull y off it: nu = mu_0 and the rest of the norm goes to mode 0
        mu, beta = np.array([1.0, 3.0, 5.0]), np.array([0.0, 1.0, -2.0])
        bound, y = _sphere_min(mu, beta)
        np.testing.assert_allclose(y[1:], [-0.25, 0.25])
        assert y[0] == pytest.approx(np.sqrt(1.0 - 0.125))
        assert bound == pytest.approx(1.0 - 0.25 / 2.0 - 1.0 / 4.0)
        assert mu @ y**2 + beta @ y == pytest.approx(bound, rel=1e-15)
        assert _sphere_min(mu, np.zeros(3)) == (1.0, pytest.approx([1.0, 0.0, 0.0]))


class TestCertificates:
    def test_heat_stencil_sign_certificate(self, heat_preset):
        # nonpositive couplings and a nonnegative load: the cone certifies
        cset = convex_set_for(heat_preset, "box", lower=0.0)
        report = check_criterion(heat_preset.problem.family, cset,
                                 load=heat_preset.problem.load)
        assert report.bound >= 0.0 and report.margin == 0.0

    def test_broken_stencil_fails_certificate(self):
        # the witness sits at the flipped coupling: Pv_m = 0 on the face,
        # its neighbour m + 1 at B = 1, and v - Pv = -e_m / sqrt(h_m)
        preset = get_preset("broken-coupling")
        cset = convex_set_for(preset, "box", lower=0.0)
        report = check_criterion(preset.problem.family, cset)
        m = 16 // 2      # the flipped pair of the preset's 16 cells
        expected = np.zeros(preset.problem.family.space.dim)
        expected[m], expected[m + 1] = -1.0 / np.sqrt(cset.metric[m]), 1.0
        np.testing.assert_array_equal(report.witness, expected)
        assert report.bound == report.margin < 0.0
