import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (pointwise_criterion, pointwise_criterion_symmetric,
                      pointwise_worst, reference_ball_projection, reference_pair)
from evolveq.forms import (AffineTerms, EvaluationError, FormFamily, Harmonic,
                           Linear, Subdivision, estimate_constants)
from evolveq.invariance import (ConvexSet, SamplePool, audit_trajectory,
                                check_criterion, check_criterion_symmetric,
                                offdiagonal_sign_certificate, sample_pool)
from evolveq.presets import convex_set_for, get_preset
from evolveq.propagator import solve
from evolveq.spaces import GalerkinSpace


def assert_same_report(got, ref):
    # the affine route sums the same terms in another order: roundoff only
    assert got.margin == pytest.approx(ref.margin, rel=1e-12, abs=1e-12)
    assert got.witness_t == ref.witness_t
    np.testing.assert_array_equal(got.witness, ref.witness)


def spike_rows(dim, n_vectors, seed=0):
    """The middle third of a pool over a box in R^dim: its sparse spikes."""
    pool = sample_pool(np.random.default_rng(seed),
                       ConvexSet.box(np.ones(dim), lower=0.0), n_vectors)
    third = n_vectors // 3
    return pool.vectors[third:2 * third]


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
        got, ref = cset.project_many(xs), reference_ball_projection(cset, xs)
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
        np.testing.assert_array_equal(pvs, cset.project_many(vs))

    def test_pool_is_seed_deterministic(self):
        cset = ConvexSet.box(np.ones(5), lower=0.0)
        p1 = sample_pool(np.random.default_rng(7), cset, 60)
        p2 = sample_pool(np.random.default_rng(7), cset, 60)
        np.testing.assert_array_equal(p1.vectors, p2.vectors)

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
        report = check_criterion(family, sample_pool(np.random.default_rng(3),
                                                     cset, 2000))
        assert report.margin >= 0.0

    def test_symmetric_variant_heat(self, heat_homogeneous):
        family = heat_homogeneous.problem.family
        cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
        report = check_criterion_symmetric(
            family, sample_pool(np.random.default_rng(3), cset, 2000),
            estimate_constants(family).coercivity)
        assert report.margin >= -1e-12

    def test_affine_criteria_match_callable(self):
        # over one period theta = sin t changes sign, and in a pool of vectors
        # above the box's upper bound every value has a nonzero A0 and A1 part
        preset = get_preset("heat-1d-lipschitz", n_cells=16, horizon=2.0 * np.pi)
        family, load = preset.problem.family, preset.problem.load
        alpha, horizon = estimate_constants(family).coercivity, family.horizon
        cset = convex_set_for(preset, "box", lower=0.0, upper=0.5)
        vs, pvs = sample_pool(np.random.default_rng(3), cset, 2000)
        above = np.any(vs > 0.5, axis=1)
        pool = SamplePool(vs[above], pvs[above])
        got = check_criterion(family, pool)
        # the callable reference pairs the pool with A(t) at each sample time
        assert_same_report(got, pointwise_criterion(family.matrix, horizon, pool))
        assert got.witness_t not in (0.0, np.pi, 2.0 * np.pi)   # theta != 0 there
        # the pool paired through the bands against A0 and A1 paired densely
        theta, (vs, pvs) = family.terms.theta, pool

        def affine(left, right):
            q0, q1 = reference_pair(family, left, right)
            return lambda t: q0 + theta(t) * q1

        assert_same_report(got, pointwise_worst(affine(pvs, vs - pvs), vs, horizon))
        outer, inner = affine(vs, vs), affine(pvs, pvs)
        assert_same_report(check_criterion_symmetric(family, pool, alpha),
                           pointwise_worst(lambda t: outer(t) - inner(t), vs, horizon))
        # the forcing load, paired with the pool once
        expected = pointwise_criterion(family.matrix, horizon, pool,
                                       load_at=lambda t: load.theta(t) * load.pairing)
        assert_same_report(check_criterion(family, pool, load=load), expected)
        got = check_criterion_symmetric(family, pool, alpha)
        assert_same_report(got, pointwise_criterion_symmetric(family.matrix, horizon, pool))
        assert got.witness_t not in (0.0, np.pi, 2.0 * np.pi)

    def test_symmetric_variant_rejects_nonsymmetric(self, heat_homogeneous):
        from evolveq.forms import FormFamily
        base = heat_homogeneous.problem.family
        asym = FormFamily(base.space, base.terms, base.horizon, symmetric=False)
        cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
        with pytest.raises(ValueError):
            check_criterion_symmetric(
                asym, sample_pool(np.random.default_rng(0), cset, 1000), 1.0)

    def test_broken_coupling_detected_both_ways(self):
        preset = get_preset("broken-coupling")
        family = preset.problem.family
        cset = convex_set_for(preset, "box", lower=0.0)
        report = check_criterion(family, sample_pool(np.random.default_rng(0),
                                                     cset, 2000))
        assert report.margin < 0.0
        assert np.isfinite(report.witness).all()
        traj = solve(preset.problem, Subdivision.uniform(preset.problem.horizon, 8))
        violation, witness_t = audit_trajectory(traj, cset)
        assert violation > 0.0
        assert witness_t in traj.grid

    def test_symmetric_variant_rejects_non_accretive(self):
        # 0.97 + sin t dips below 0 only near 3 pi / 2 = 4.71, between the
        # sample times 4.375 and 5.0: the ends of theta's range catch it
        space = GalerkinSpace(np.ones(1), np.eye(1))
        family = FormFamily(space, AffineTerms([[0.97]], [[1.0]], Harmonic(b=1.0)), 5.0,
                            symmetric=True)
        pool = sample_pool(np.random.default_rng(0), ConvexSet.box(np.ones(1), 0.0), 30)
        alpha = estimate_constants(family).coercivity
        assert alpha < 0.0
        with pytest.raises(ValueError):
            check_criterion_symmetric(family, pool, alpha)

    def test_nonfinite_coefficient_raises(self):
        space = GalerkinSpace(np.ones(1), np.eye(1))
        family = FormFamily(space, AffineTerms([[1.0]], [[1.0]], Linear(np.nan)), 1.0,
                            symmetric=True)
        pool = sample_pool(np.random.default_rng(0), ConvexSet.box(np.ones(1), 0.0), 30)
        with pytest.raises(EvaluationError):
            check_criterion(family, pool)

    def test_audit_heat_trajectory_zero(self, heat_homogeneous):
        cset = convex_set_for(heat_homogeneous, "box", lower=0.0)
        traj = solve(heat_homogeneous.problem,
                     Subdivision.uniform(heat_homogeneous.problem.horizon, 32))
        assert audit_trajectory(traj, cset)[0] <= 1e-12


class TestCertificates:
    def test_heat_stencil_sign_certificate(self, heat_preset):
        a = heat_preset.problem.family.matrix(0.4)
        assert offdiagonal_sign_certificate(a)

    def test_broken_stencil_fails_certificate(self):
        preset = get_preset("broken-coupling")
        assert not offdiagonal_sign_certificate(preset.problem.family.matrix(0.0))
