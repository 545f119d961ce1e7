import re
from dataclasses import dataclass, field

import numpy as np
import pytest

from conftest import (bands, consistent_mass, dense, dense_stiffness, dirichlet_problem,
                      reference_evaluate_many, reference_oracle, reference_pencil,
                      reference_slab_states, reference_sup_v)
from evolveq.forms import (AffineTerms, EvaluationError, FormFamily, Harmonic,
                           Linear, Subdivision)
from evolveq.presets import get_preset
from evolveq.mr import _slab_coefficients, mr_norms
from evolveq.propagator import (_STEP_BLOCK, ProblemData, SeparableLoad,
                                Trajectory, oracle_solve, phi1, solve)
from evolveq.spaces import GalerkinSpace, StructureError


def scalar_problem(a0, horizon, a1=0.0, theta=Linear(0.0), u0=1.0, load=None):
    """dim 1, A(t) = a0 + theta(t) a1."""
    space = GalerkinSpace(np.array([1.0]), bands([[1.0]]))
    family = FormFamily(space, AffineTerms(bands([[a0]]), bands([[a1]]), theta), horizon)
    return ProblemData(family, np.array([u0]), load=load)


def rel_diff(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@dataclass(frozen=True)
class Spiked(Linear):
    """theta = c0, except at the step times listed with their values."""
    spikes: tuple = ()

    def __call__(self, t):
        return dict(self.spikes).get(t, self.c0)


@dataclass(frozen=True)
class Counted(Harmonic):
    """A harmonic coefficient that records the times it is called at."""
    calls: list = field(default_factory=list, compare=False)

    def __call__(self, t):
        self.calls.append(t)
        return super().__call__(t)


def step_time(horizon, n_steps, i):
    """The oracle's time of step i."""
    return min(i * (horizon / n_steps), horizon)


def with_theta(problem, theta):
    """The problem with its form coefficient replaced."""
    family = problem.family
    other = FormFamily(family.space, AffineTerms(family.terms.a0, family.terms.a1, theta),
                       family.horizon)
    return ProblemData(other, problem.u0, problem.load)


def oracle_routes():
    """A problem on each oracle route, each with a load: gtsv at dim 9 and
    the pivot division at dim 1."""
    heat = get_preset("heat-1d-lipschitz", n_cells=8).problem
    scalar = get_preset("scalar-decay", load="forcing").problem
    return {"bands": heat, "dim1": scalar}


class TestPhi1:
    def test_point_values(self):
        assert phi1(np.array([0.0]))[0] == 1.0
        assert phi1(np.array([1.0]))[0] == pytest.approx(np.e - 1.0, rel=1e-15)
        assert phi1(np.array([-1.0]))[0] == pytest.approx(1.0 - np.exp(-1.0),
                                                          rel=1e-15)

    def test_small_argument_stability(self):
        z = np.array([-1e-14, 1e-14])
        vals = phi1(z)
        assert np.allclose(vals, 1.0 + z / 2.0, atol=1e-15)


def heat_family(n_cells):
    """The heat preset's family: tridiagonal terms over a lumped mass."""
    return get_preset("heat-1d-lipschitz", n_cells=n_cells).problem.family


class TestSlabStep:
    def test_scalar_variation_of_constants(self):
        # one slab of length h from u0 with the constant load f
        h, u0, f = 0.5, 1.3, 0.7
        problem = scalar_problem(2.0, h, u0=u0,
                                 load=SeparableLoad(Linear(1.0), np.array([f])))
        traj = solve(problem, Subdivision.uniform(h, 1))
        expected = np.exp(-2.0 * h) * u0 + h * phi1(np.array([-2.0 * h]))[0] * f
        assert traj.evaluate_in_slabs([0], [h])[0, 0] == pytest.approx(expected, rel=1e-14)
        assert traj.states[0, -1] == pytest.approx(expected, rel=1e-14)

    def test_step_duration_validated(self):
        traj = solve(scalar_problem(1.0, 0.5), Subdivision.uniform(0.5, 1))
        for t in (0.6, -0.1, np.nan):
            with pytest.raises(ValueError):
                traj.evaluate_in_slabs([0], [t])

    def test_generator_action(self):
        # B = diag(h)^{-1} A = modes @ diag(rates) @ modes^T diag(h), at theta = 0,
        # for the tridiagonal pencil and its dense reference
        family = heat_family(8)
        space, a = family.space, dense(family.terms.at(0.0))
        for rates, modes in (reference_pencil(family, 0.0), family.pencil(0.0)):
            generator = modes @ np.diag(rates) @ modes.T @ np.diag(space.h)
            np.testing.assert_allclose(generator, space.solve_H(a),
                                       rtol=1e-10, atol=1e-12)

    def test_modes_are_gram_h_orthonormal(self):
        # the MR integrals take the modal H-Gram W^T diag(h) W to be the
        # identity; for the tridiagonal pencil and its dense reference
        s = np.sin(0.7)
        family = heat_family(80)
        h = family.space.h
        for _, modes in (family.pencil(s), reference_pencil(family, s)):
            np.testing.assert_allclose(modes.T @ (h[:, None] * modes),
                                       np.eye(h.size), rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("n_cells", [16, 80, 512])
    def test_tridiagonal_pencil_matches_dense(self, n_cells):
        # whole spectra, not rate by rate: the dense pencil solve loses
        # ~1e-11 relative accuracy on the smallest rate at 512 cells
        s = np.sin(0.7)
        family = heat_family(n_cells)
        rates, modes = family.pencil(s)
        dense_rates, _ = reference_pencil(family, s)
        top = dense_rates[-1]
        assert np.max(np.abs(rates - dense_rates)) <= 1e-12 * top
        # the modes solve the pencil: A W = diag(h) W diag(rates)
        residual = dense(family.terms.at(s)) @ modes - family.space.h[:, None] * modes * rates
        assert np.max(np.abs(residual)) <= 1e-12 * top * np.max(np.abs(modes))


class TestSolve:
    def test_scalar_decay_closed_form(self):
        problem = scalar_problem(1.0, 1.0, a1=0.5, theta=Linear(0.0, 1.0))
        # the preset's 1 x 1 affine terms as well
        preset = get_preset("scalar-decay", load="none").problem
        for n in (1, 3, 16):
            for prob in (problem, preset):
                traj = solve(prob, Subdivision.uniform(1.0, n))
                assert traj.states[0, -1] == pytest.approx(np.exp(-1.25), abs=1e-13)

    def test_within_slab_output_is_exact(self):
        problem = scalar_problem(2.0, 1.0)
        grid = np.linspace(0.0, 1.0, 17)
        traj = solve(problem, Subdivision.uniform(1.0, 4))
        np.testing.assert_allclose(traj.evaluate_many(grid)[0], np.exp(-2.0 * grid),
                                   rtol=1e-13)

    def test_constant_load_steady_state(self):
        load = SeparableLoad(Linear(1.0), np.array([3.0]))
        problem = scalar_problem(1.0, 8.0, u0=0.0, load=load)
        traj = solve(problem, Subdivision.uniform(8.0, 8))
        # u' + u = 3, u(0) = 0: u(T) = 3 (1 - e^{-T}), exact for the scheme
        assert traj.states[0, -1] == pytest.approx(3.0 * (1 - np.exp(-8.0)),
                                                   rel=1e-12)

    def test_breakpoint_states_are_the_marched_states(self, heat_traj_64):
        # each slab's modal start data is the state the march handed it, bit
        # for bit, and the last state is the last slab's right end
        rec, states = heat_traj_64.slabs, heat_traj_64.states
        h = heat_traj_64.space.h
        for k in range(rec.thetas.size):
            np.testing.assert_array_equal(rec.y0[k], rec.modes[k].T @ (h * states[:, k]))
        last = rec.thetas.size - 1
        np.testing.assert_array_equal(
            states[:, -1], heat_traj_64.evaluate_in_slabs([last], [1.0])[:, 0])

    def test_overflow_raises_instead_of_inf_states(self):
        # A = -1000 grows by e^250 per slab: e^750 overflows in the third slab
        problem = scalar_problem(-1000.0, 1.0)
        with pytest.raises(FloatingPointError, match=r"slab state on \[0\.5, 0\.75\]"):
            solve(problem, Subdivision.uniform(1.0, 4))

    def test_horizon_mismatch_rejected(self):
        problem = scalar_problem(1.0, 1.0)
        with pytest.raises(ValueError):
            solve(problem, Subdivision.uniform(2.0, 4))

    def test_derivative_satisfies_slab_ode(self, heat_traj_64, heat_preset):
        # the modal derivative u' = W (dc e^{-mu tau}) that the MR integrals use
        space = heat_preset.problem.family.space
        t, rec = 0.37, heat_traj_64.slabs
        k = heat_traj_64.subdivision.slab_index(t)
        mu, _, _, dc = (a[k] for a in _slab_coefficients(heat_traj_64))
        u = heat_traj_64.evaluate_in_slabs([k], [t])[:, 0]
        t0 = heat_traj_64.subdivision.points[k]
        du = rec.modes[k] @ (dc * np.exp(-mu * (t - t0)))
        a_u = heat_preset.problem.family.apply(u, rec.thetas[k])
        residual = space.h * du + a_u - space.h * rec.fbar[k]
        assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(u))

    def test_evaluate_many_is_the_per_slab_closed_form(self, heat_traj_64):
        # unsorted and repeated times, breakpoints and t = T, bit for bit
        pts = heat_traj_64.subdivision.points
        rng = np.random.default_rng(7)
        times = np.concatenate([[0.73, 0.11, 0.73, 1.0, 0.0, 0.11], pts[::-5],
                                rng.uniform(0.0, 1.0, 50)])
        np.testing.assert_array_equal(heat_traj_64.evaluate_many(times),
                                      reference_evaluate_many(heat_traj_64, times))
        t0, t1 = pts[5], pts[6]
        taus = t0 + np.array([0.0, 0.3, 1.0]) * (t1 - t0)
        np.testing.assert_array_equal(heat_traj_64.evaluate_in_slabs([5, 5, 5], taus),
                                      reference_slab_states(heat_traj_64, 5, taus))

    def test_evaluate_many_at_dim_1_empty_and_outside(self):
        traj = solve(scalar_problem(2.0, 1.0, a1=1.0, theta=Harmonic(b=1.0),
                                    load=SeparableLoad(Linear(1.0), np.array([0.5]))),
                     Subdivision.uniform(1.0, 8))
        times = np.array([1.0, 0.5, 0.0, 0.3, 0.5, 0.125])
        np.testing.assert_array_equal(traj.evaluate_many(times),
                                      reference_evaluate_many(traj, times))
        assert traj.evaluate_many(np.array([])).shape == (1, 0)
        for t in (-1e-12, 1.0 + 1e-12, np.nan):
            with pytest.raises(ValueError):
                traj.evaluate_many(np.array([0.5, t]))

    def test_right_ends_stay_in_their_slabs(self, heat_traj_64):
        # addressed by slab index, the right end of slab k is slab k's state
        # there, the one the march handed on; slab_index would take slab k + 1
        pts = heat_traj_64.subdivision.points
        idx = np.arange(pts.size - 1)
        np.testing.assert_array_equal(heat_traj_64.evaluate_in_slabs(idx, pts[1:]),
                                      heat_traj_64.states[:, 1:])
        with pytest.raises(ValueError):
            heat_traj_64.evaluate_in_slabs(idx[:1], pts[2:3])

    @pytest.mark.parametrize("n_cells", [16, 80])
    def test_sup_v_samples_match_per_slab_sampling(self, n_cells):
        problem = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem
        traj = solve(problem, Subdivision.uniform(problem.horizon, 32))
        assert mr_norms(traj).supV_slabs == reference_sup_v(traj)

    def test_evaluate_many_matches_pointwise(self, heat_traj_64):
        times = np.array([0.0, 0.11, 0.5, 0.73, 1.0])
        many = heat_traj_64.evaluate_many(times)
        sub = heat_traj_64.subdivision
        for i, t in enumerate(times):
            one = heat_traj_64.evaluate_in_slabs([sub.slab_index(t)], [t])[:, 0]
            np.testing.assert_allclose(many[:, i], one, rtol=1e-12, atol=1e-14)


class TestTrajectoryValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.5, 0.5]), np.zeros((1, 3)))

    def test_states_must_be_finite(self):
        # a typed numerical error, which the CLI maps to exit code 2
        with pytest.raises(EvaluationError, match="trajectory states are not finite"):
            Trajectory(np.array([0.0, 1.0]), np.array([[0.0, np.nan]]))

    def test_metadata_required_for_evaluate(self):
        traj = Trajectory(np.array([0.0, 1.0]), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            traj.evaluate_many(np.array([0.5]))


class TestOracle:
    def test_implicit_euler_closed_form(self):
        # constant p = 1: the oracle recursion is exactly u / (1 + dt)
        problem = scalar_problem(1.0, 1.0)
        n = 64
        traj = oracle_solve(problem, n)
        assert traj.states[0, -1] == pytest.approx((1.0 + 1.0 / n) ** (-n),
                                                   rel=1e-13)

    def test_first_order_consistency(self):
        problem = scalar_problem(1.0, 1.0, a1=0.5, theta=Linear(0.0, 1.0))
        errs = [abs(oracle_solve(problem, n).states[0, -1] - np.exp(-1.25))
                for n in (100, 200)]
        assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.05)
        # the preset's 1 x 1 affine terms against the dense reference steps
        preset = get_preset("scalar-decay", load="none").problem
        for n in (100, 200):
            assert rel_diff(oracle_solve(preset, n).states,
                            reference_oracle(problem, n, dense_steps=True).states) <= 1e-14

    @pytest.mark.parametrize("n_cells", [16, 64])
    def test_tridiagonal_oracle_matches_dense(self, n_cells):
        problem = get_preset("heat-1d-lipschitz", n_cells=n_cells).problem
        reference = reference_oracle(problem, 500, dense_steps=True).states
        assert rel_diff(oracle_solve(problem, 500).states, reference) <= 1e-12

    def test_consistent_mass_is_refused(self):
        # every preset's H-Gram is a lumped mass; a consistent one has no
        # route and is refused when the space is built
        mass, stiff = consistent_mass(16)[1:-1, 1:-1], dense_stiffness(16)[1:-1, 1:-1]
        with pytest.raises(StructureError, match="lumped"):
            GalerkinSpace(mass, bands(stiff + mass))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_singular_step_raises(self, dim):
        # diag(h) + dt A0 = 0 at the first step, through gtsv and at dim 1
        space = GalerkinSpace(np.ones(dim), bands(np.eye(dim)))
        terms = AffineTerms(bands(-4.0 * np.eye(dim)), np.zeros((3, dim)), Linear(0.0))
        family = FormFamily(space, terms, 1.0)
        with pytest.raises(StructureError):
            oracle_solve(ProblemData(family, np.ones(dim)), 4)

    def test_nonfinite_coefficient_or_load_raises(self):
        problem = get_preset("heat-1d-lipschitz", n_cells=8).problem
        family = problem.family
        bad_theta = FormFamily(family.space,
                               AffineTerms(family.terms.a0, family.terms.a1,
                                           Linear(np.nan)),
                               family.horizon)
        nan_load = SeparableLoad(Linear(np.nan), problem.load.pairing)
        for prob in (ProblemData(bad_theta, problem.u0),
                     ProblemData(family, problem.u0, load=nan_load)):
            with pytest.raises(EvaluationError):
                oracle_solve(prob, 10)
            # the slab means are checked as well: no untyped error from the march
            with pytest.raises(EvaluationError):
                solve(prob, Subdivision.uniform(prob.horizon, 4))

    def test_last_time_is_the_horizon(self):
        # 25 * (2 pi / 25) overshoots 2 pi by an ulp; the scheme is evaluated
        # on the oracle's grid, and only inside [0, T]
        problem = scalar_problem(2.0, 2.0 * np.pi, a1=1.0, theta=Harmonic(b=1.0))
        n = 25
        assert n * (problem.horizon / n) > problem.horizon
        oracle = oracle_solve(problem, n)
        assert oracle.grid[-1] == problem.horizon
        traj = solve(problem, Subdivision.uniform(problem.horizon, 8))
        assert np.all(np.isfinite(traj.evaluate_many(oracle.grid)))

    @pytest.mark.parametrize("route", ["heat16", "heat64", "scalar-decay", "dirichlet"])
    def test_block_steps_are_the_step_by_step_oracle(self, route):
        # bit for bit, across block boundaries, on every grid; with and
        # without a load
        if route == "dirichlet":
            problem = dirichlet_problem(16)
            load = SeparableLoad(Harmonic(c=1.0, a=1.0, omega=2.0),
                                 problem.family.space.h * problem.u0)
            problem = ProblemData(problem.family, problem.u0, load)
        else:
            name, n_cells, load = {"heat16": ("heat-1d-lipschitz", 16, "none"),
                                   "heat64": ("heat-1d-lipschitz", 64, None),
                                   "scalar-decay": ("scalar-decay", None, "forcing")}[route]
            problem = get_preset(name, n_cells=n_cells, load=load).problem
        n_steps = 2 * _STEP_BLOCK + 37
        for grid in (None, np.linspace(0.0, problem.horizon, 41), np.array([0.5])):
            got = oracle_solve(problem, n_steps, output_grid=grid)
            ref = reference_oracle(problem, n_steps, output_grid=grid)
            np.testing.assert_array_equal(got.grid, ref.grid)
            np.testing.assert_array_equal(got.states, ref.states)

    @pytest.mark.parametrize("route", ["bands", "dim1"])
    def test_coefficients_called_once_per_step(self, route):
        problem = oracle_routes()[route]
        theta, theta_f = Counted(b=1.0), Counted(c=1.0, a=1.0, omega=2.0)
        problem = ProblemData(with_theta(problem, theta).family, problem.u0,
                              SeparableLoad(theta_f, problem.load.pairing))
        n_steps = _STEP_BLOCK + 3
        oracle_solve(problem, n_steps)
        times = [step_time(problem.horizon, n_steps, i) for i in range(1, n_steps + 1)]
        for coefficient in (theta, theta_f):
            assert coefficient.calls == times
            assert all(type(t) is float for t in coefficient.calls)

    @pytest.mark.parametrize("route", ["bands", "dim1"])
    def test_nan_theta_past_the_first_block_names_its_step(self, route):
        problem = oracle_routes()[route]
        n_steps = 2 * _STEP_BLOCK
        t = step_time(problem.horizon, n_steps, _STEP_BLOCK + 5)
        bad = with_theta(problem, Spiked(0.0, spikes=((t, np.nan),)))
        with pytest.raises(EvaluationError,
                           match=re.escape(f"oracle step matrix at t={t} has")):
            oracle_solve(bad, n_steps)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_the_first_failing_step_decides(self, dim):
        # a singular step 300 and a NaN theta at step 310, in the same block:
        # (1 + dt theta) vanishes at theta = -1/dt, exactly, for dt = 2^-9
        n_steps = 512
        space = GalerkinSpace(np.ones(dim), bands(np.eye(dim)))
        singular, nan = (step_time(1.0, n_steps, i) for i in (300, 310))
        assert (300 - 1) // _STEP_BLOCK == (310 - 1) // _STEP_BLOCK
        theta = Spiked(0.0, spikes=((singular, -float(n_steps)), (nan, np.nan)))
        family = FormFamily(space, AffineTerms(np.zeros((3, dim)), bands(np.eye(dim)), theta),
                            1.0)
        problem = ProblemData(family, np.ones(dim))
        with pytest.raises(StructureError):
            oracle_solve(problem, n_steps)
        # without the singular step, the NaN step raises
        late = with_theta(problem, Spiked(0.0, spikes=((nan, np.nan),)))
        with pytest.raises(EvaluationError, match=re.escape(f"at t={nan} ")):
            oracle_solve(late, n_steps)

    @pytest.mark.parametrize("n_steps, last_finite, singular", [
        (_STEP_BLOCK + 1, _STEP_BLOCK - 1, None), (512, 99, None), (512, 99, 120)],
        ids=["alone_after_block_end", "mid_block", "before_singular"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_overflow_raises_at_the_next_step(self, dim, n_steps, last_finite, singular):
        # (1 - dt 256) = 1/2 doubles u each step, exactly, for dt = 2^-9, so u
        # is inf from step last_finite + 1, and the right-hand side of the
        # step after is not finite: in a block of its own after a block end,
        # within a block, and before a later singular step (theta = -256) in
        # the same block
        horizon = n_steps / 512.0
        space = GalerkinSpace(np.ones(dim), bands(np.eye(dim)))
        theta = Linear(0.0) if singular is None else Spiked(
            0.0, spikes=((step_time(horizon, n_steps, singular), -256.0),))
        terms = AffineTerms(bands(-256.0 * np.eye(dim)), bands(np.eye(dim)), theta)
        family = FormFamily(space, terms, horizon)
        problem = ProblemData(family, np.full(dim, 1e308 * 2.0 ** -last_finite))
        t = step_time(horizon, n_steps, last_finite + 2)
        with np.errstate(over="ignore"), pytest.raises(
                EvaluationError, match=re.escape(f"oracle right-hand side at t={t} is")):
            oracle_solve(problem, n_steps)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("route", ["bands", "dim1"])
    def test_nonfinite_late_load_names_its_step(self, route, value):
        problem = oracle_routes()[route]
        n_steps = 2 * _STEP_BLOCK + 10
        t = step_time(problem.horizon, n_steps, n_steps - 3)
        load = SeparableLoad(Spiked(1.0, spikes=((t, value),)), problem.load.pairing)
        # inf times the pairing's zero entries is nan: no warning for that
        with np.errstate(invalid="ignore"), pytest.raises(
                EvaluationError, match=re.escape(f"oracle right-hand side at t={t} is")):
            oracle_solve(ProblemData(problem.family, problem.u0, load), n_steps)

    def test_output_grid_subsampling(self):
        problem = scalar_problem(1.0, 1.0)
        traj = oracle_solve(problem, 100, output_grid=np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(traj.grid, [0.0, 0.5, 1.0], atol=1e-12)


class TestProblemData:
    @pytest.mark.parametrize("load", [
        SeparableLoad(Linear(1.0), np.ones((5, 1))),
        SeparableLoad(Linear(1.0), np.ones(6)),
        lambda t: np.ones(5),
    ], ids=["column", "too_long", "callable"])
    def test_load_of_the_wrong_kind_is_refused(self, load):
        # a (dim, 1) pairing would broadcast each oracle step to (dim, dim)
        family = get_preset("heat-1d-lipschitz", n_cells=4).problem.family
        assert family.space.dim == 5
        with pytest.raises(ValueError, match="SeparableLoad"):
            ProblemData(family, np.zeros(5), load=load)
