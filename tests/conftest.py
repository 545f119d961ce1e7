import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg.lapack import dgtsv

from evolveq.convergence import (oracle_reference, oracle_suph_gap, refine,
                                 solve_ladder)
from evolveq.fem import heat_terms, lumped_mass, uniform_nodes
from evolveq.forms import (AffineTerms, FormConstants, FormFamily, Harmonic,
                           Linear, Subdivision, dual_operator_norm,
                           estimate_constants, gauss_nodes)
from evolveq.mr import _eint, _slab_coefficients
from evolveq.presets import get_preset, resolved_constants
from evolveq.propagator import OracleSamples, ProblemData, solve
from evolveq.spaces import GalerkinSpace
from evolveq.tridiagonal import pencil_bracket


# Between the package's (3, n) bands and dense matrices.

def bands(a):
    """The (3, n) bands of a square matrix, the layout of
    `spaces.symmetric_bands`: its three middle diagonals, whatever lies
    off them."""
    a = np.asarray(a, dtype=float)
    out = np.zeros((3, a.shape[0]))
    out[0, 1:] = np.diagonal(a, 1)
    out[1] = np.diagonal(a)
    out[2, :-1] = np.diagonal(a, -1)
    return out


def dense(b):
    """The n x n matrix with the (3, n) bands b."""
    b = np.asarray(b, dtype=float)
    return np.diag(b[1]) + np.diag(b[0, 1:], 1) + np.diag(b[2, :-1], -1)


# The dense P1 assembly that `fem` replaced by band assembly, kept as its
# bit-for-bit reference.

def consistent_mass(n_cells):
    h = 1.0 / n_cells
    n = n_cells + 1
    m = np.zeros((n, n))
    idx = np.arange(n_cells)
    np.add.at(m, (idx, idx), h / 3.0)
    np.add.at(m, (idx + 1, idx + 1), h / 3.0)
    np.add.at(m, (idx, idx + 1), h / 6.0)
    np.add.at(m, (idx + 1, idx), h / 6.0)
    return m


def dense_stiffness(n_cells, cell_integrals=None):
    """sum_e c_e * (local stiffness), c_e the per-cell integral of kappa."""
    h = 1.0 / n_cells
    if cell_integrals is None:
        cell_integrals = np.full(n_cells, h)
    n = n_cells + 1
    k = np.zeros((n, n))
    coef = np.asarray(cell_integrals, dtype=float) / h**2
    idx = np.arange(n_cells)
    np.add.at(k, (idx, idx), coef)
    np.add.at(k, (idx + 1, idx + 1), coef)
    np.add.at(k, (idx, idx + 1), -coef)
    np.add.at(k, (idx + 1, idx), -coef)
    return k


def dirichlet_space(n_cells):
    """Interior-node space: lumped mass H-Gram, stiffness plus consistent
    mass V-Gram."""
    mass = consistent_mass(n_cells)[1:-1, 1:-1]
    stiff = dense_stiffness(n_cells)[1:-1, 1:-1]
    return GalerkinSpace(lumped_mass(n_cells)[1:-1], bands(stiff + mass),
                         labels=uniform_nodes(n_cells)[1:-1])


def dirichlet_problem(n_cells, horizon=1.0):
    """The heat preset's affine terms on the interior-node space."""
    space = dirichlet_space(n_cells)
    a0, a1 = (bands(dense(a)[1:-1, 1:-1]) for a in heat_terms(n_cells))
    family = FormFamily(space, AffineTerms(a0, a1, Harmonic(b=1.0)), horizon)
    return ProblemData(family, np.sin(np.pi * space.labels))


# References for the band routes of a family and of a space: dense algebra
# on its terms, on the H-Gram diag(h) and on the V-Gram.

def reference_pencil(family, s):
    """Eigenpairs of (A0 + s A1, diag(h)) by a dense generalized eigensolve."""
    return sla.eigh(dense(family.terms.at(s)), np.diag(family.space.h))


def reference_apply(family, x, s):
    """(A0 + s A1) x as A0 x + s (A1 x) with the dense terms."""
    return dense(family.terms.a0) @ x + s * (dense(family.terms.a1) @ x)


# References for the closed forms: quadrature and sampling of t -> A(t),
# as the bands of A(t), and of t -> f(t), given as plain callables.

GAUSS_PANELS = 4
SAMPLE_TIMES = 129


def gauss_panels(a, b):
    """Composite 4-point Gauss-Legendre nodes and weights on [a, b]."""
    return gauss_nodes(np.linspace(a, b, GAUSS_PANELS + 1))


def _slab_quadrature(func, sub, zero):
    """Per slab of `sub`: the Gauss-panel nodes, weights and sum of w func(t)."""
    for t0, t1 in zip(sub.points[:-1], sub.points[1:]):
        nodes, weights = gauss_panels(t0, t1)
        acc = zero.copy()
        for t, w in zip(nodes, weights):
            acc += w * func(t)
        yield t0, t1, acc


def quadrature_slab_means(matrix_at, dim, sub):
    """Gauss-panel slab means of t -> A(t) on each slab of `sub`, as bands."""
    return [acc / (t1 - t0)
            for t0, t1, acc in _slab_quadrature(matrix_at, sub, np.zeros((3, dim)))]


def quadrature_load_means(space, load_at, sub):
    """Gauss-panel slab means of the pairings t -> f(t), in H-coordinates."""
    return [space.solve_H(acc / (t1 - t0))
            for t0, t1, acc in _slab_quadrature(load_at, sub, np.zeros(space.dim))]


def quadrature_load_l2h(space, load_at, sub):
    """||f||_{L^2(0,T;H)} by Gauss panels on each slab of `sub`."""
    total = 0.0
    for t0, t1 in zip(sub.points[:-1], sub.points[1:]):
        nodes, weights = gauss_panels(t0, t1)
        pairs = np.column_stack([load_at(t) for t in nodes])
        total += float(weights @ np.sum(pairs * space.solve_H(pairs), axis=0))
    return float(np.sqrt(max(total, 0.0)))


def sampled_constants(space, matrix_at, horizon):
    """M, alpha and L of t -> A(t) on 129 uniform sample times.

    M and alpha hold at the sample times only, and the sampled L, the
    largest difference quotient, can fall below the true one.
    """
    t_grid = np.linspace(0.0, horizon, SAMPLE_TIMES)
    mats = [matrix_at(t) for t in t_grid]
    lipschitz = 0.0
    for (ta, aa), (tb, ab) in zip(zip(t_grid[:-1], mats[:-1]), zip(t_grid[1:], mats[1:])):
        lipschitz = max(lipschitz, dual_operator_norm(space, ab - aa) / (tb - ta))
    return FormConstants(bound=max(dual_operator_norm(space, a) for a in mats),
                         coercivity=min(pencil_bracket(a, space.gram_V)[0]
                                        for a in mats),
                         lipschitz=lipschitz, source=f"sampled on {t_grid.size} times")


def reference_ball_projection(cset, xs):
    """A ball's projection row by row: each row outside the ball is scaled
    onto the sphere by its own metric norm, each row inside is copied."""
    rows = []
    for x in np.asarray(xs, dtype=float):
        d = x - cset.center
        r = float(np.sqrt(max((d * cset.metric) @ d, 0.0)))
        rows.append(x.copy() if r <= cset.radius else cset.center + (cset.radius / r) * d)
    return np.vstack(rows)


# The random pool that the invariance criterion was once sampled with, kept
# as the brute-force reference of its exact decision.

POOL_TIMES = 9
SPIKE_MAX = 3


def spikes(rng, rows, dim):
    """Sparse signed spikes: each row has k ~ U{1..min(3, dim)} nonzeros at a
    uniform k-subset of positions, with +-1 signs and U(0.5, 3) magnitudes.

    Positions come from sequential sampling without replacement: column j
    is uniform over the dim - j indices still free, shifted past the row's
    earlier picks taken in ascending order.  Entries past the k-th are zero.
    """
    width = min(SPIKE_MAX, dim)
    k = rng.integers(1, width + 1, size=rows)
    picks = rng.integers(0, dim - np.arange(width), size=(rows, width))
    for j in range(1, width):
        for earlier in np.sort(picks[:, :j], axis=1).T:
            picks[:, j] += picks[:, j] >= earlier
    values = (rng.choice([-1.0, 1.0], size=(rows, width))
              * rng.uniform(0.5, 3.0, size=(rows, width)))
    out = np.zeros((rows, dim))
    out[np.arange(rows)[:, None], picks] = np.where(
        np.arange(width) < k[:, None], values, 0.0)
    return out


def sample_pool(rng, cset, n_vectors):
    """Mixed pool (vectors, projections): Gaussian vectors, sparse signed
    spikes and vectors near the set, a third each."""
    dim = cset.metric.size
    n_gauss = n_vectors // 3
    n_spike = n_vectors // 3
    n_near = n_vectors - n_gauss - n_spike
    gauss = rng.standard_normal((n_gauss, dim))
    spiked = spikes(rng, n_spike, dim)
    near = cset.project(rng.standard_normal((n_near, dim)))
    near += 0.1 * rng.standard_normal((n_near, dim))
    vs = np.vstack([gauss, spiked, near])
    return vs, cset.project(vs)


def criterion_values(family, load, pool, t, metric):
    """The criterion's value (A(t) Pv - f(t)) . (v - Pv) of each pool row with
    v != Pv, scaled to ||v - Pv||_h = 1, by a dense A(t)."""
    vs, pvs = pool
    diffs = vs - pvs
    norms = np.sqrt(np.einsum("ij,ij,j->i", diffs, diffs, metric))
    keep = norms > 0.0
    a = dense(family.terms.at(family.terms.theta(t)))
    f = 0.0 if load is None else load.theta(t) * load.pairing
    values = np.einsum("ij,ij->i", pvs @ a - f, diffs)
    return values[keep] / norms[keep]


def _bilinear_exp_integral(mu, c, p, d, q, gram, length):
    """Integral over [0, length] of (e^{-mu t}c + p)^T G (e^{-mu t}d + q)."""
    cross = _eint(mu[:, None] + mu[None, :], length)
    total = float(np.sum(gram * np.outer(c, d) * cross))
    total += float((c * _eint(mu, length)) @ gram @ q)
    total += float(p @ gram @ (d * _eint(mu, length)))
    total += float(p @ gram @ q) * length
    return total


def reference_mr_terms(traj):
    """The integrals of `mr_norms` by one general bilinear form each, every
    one with its own dense kernel and a dense modal Gram: the reference for
    the low-rank pass.

    The modal Grams are formed in factored form, Y^T Y with Y = L^T W for
    the V-Gram L L^T and Y = L^{-1} diag(h) W for its dual.  Forming
    W^T gram_V W directly loses about eps * lambda_max(gram_V, diag(h))
    in every entry, 2.4e-12 of a slab's L^2(V) integral at 512 cells.
    """
    space = traj.space
    low = sla.cholesky(dense(space.gram_V), lower=True)
    terms = {"l2V_slabs": [], "chain_slabs": [], "product_slabs": [],
             "h1H": 0.0, "h1Vp": 0.0}
    lengths = np.diff(traj.subdivision.points)
    for mu, c, p, dc, w, length in zip(*_slab_coefficients(traj), traj.modes,
                                       lengths):
        zero, eye = np.zeros_like(mu), np.eye(mu.size)
        v_coords = low.T @ w
        dual_coords = sla.solve_triangular(low, space.h[:, None] * w, lower=True)
        terms["l2V_slabs"].append(_bilinear_exp_integral(
            mu, c, p, c, p, v_coords.T @ v_coords, length))
        terms["h1H"] += _bilinear_exp_integral(mu, dc, zero, dc, zero, eye, length)
        terms["h1Vp"] += _bilinear_exp_integral(mu, dc, zero, dc, zero,
                                                dual_coords.T @ dual_coords, length)
        terms["chain_slabs"].append(2.0 * _bilinear_exp_integral(
            mu, dc, zero, c, p, eye, length))
        terms["product_slabs"].append(2.0 * _bilinear_exp_integral(
            mu, c, p, dc, zero, np.diag(mu), length))
    terms["h1H"], terms["h1Vp"] = np.sqrt(terms["h1H"]), np.sqrt(terms["h1Vp"])
    return terms


def _slab_matrices(traj):
    """Each slab's dense A_k = A0 + mean_k(theta) A1."""
    terms = traj.family.terms
    return [dense(terms.at(theta)) for theta in traj.thetas]


def reference_product_rule(report):
    """`check_product_rule` slab by slab, as u1.A_k u1 - u0.A_k u0 with a
    dense A_k: the reference for the one vectorised product."""
    traj, residual = report.traj, 0.0
    for k, (a, rhs) in enumerate(zip(_slab_matrices(traj), report.product_slabs)):
        u0, u1 = traj.states[:, k], traj.states[:, k + 1]
        residual = max(residual, abs(float(u1 @ a @ u1 - u0 @ a @ u0) - rhs))
    return residual


def reference_telescoping(traj, lipschitz):
    """`check_form_telescoping` junction by junction with dense A_k."""
    mats, pts = _slab_matrices(traj), traj.subdivision.points
    worst = -np.inf
    for k in range(len(mats) - 1):
        v = traj.states[:, k + 1]
        gap = abs(float(v @ (mats[k] - mats[k + 1]) @ v))
        worst = max(worst, gap - lipschitz * (pts[k + 1] - pts[k]) * traj.space.v_norm(v) ** 2)
    return worst


def reference_oracle(problem, n_steps, output_grid=None, dense_steps=False):
    """The implicit-Euler oracle one step at a time, each step a closure call
    that forms its own matrix: the reference for the block-formed steps.

    Each step is one gtsv call on the family's bands (a pivot division at
    dim 1), or with `dense_steps` one dense solve with diag(h) + dt A(t).  It
    checks nothing: the failure tests cover that.
    """
    family = problem.family
    horizon, load, h = family.horizon, problem.load, family.space.h
    dt = horizon / n_steps
    if output_grid is None:
        keep = set(range(n_steps + 1))
    else:
        keep = set(np.clip(np.rint(np.asarray(output_grid) / dt).astype(int),
                           0, n_steps).tolist())
    theta_f, g = (Linear(0.0), 0.0) if load is None else (load.theta, dt * load.pairing)
    if dense_steps:
        gram_h = np.diag(h)

        def step(t, u, f):
            return np.linalg.solve(gram_h + dt * dense(family.matrix(t)), h * u + f)
    else:
        base, slope = dt * family.terms.a0, dt * family.terms.a1
        base[1] += h

        def step(t, u, f):
            bands, rhs = base + family.terms.theta(t) * slope, h * u + f
            if rhs.size == 1:
                return rhs / bands[1, 0]
            return dgtsv(bands[2, :-1], bands[1], bands[0, 1:], rhs)[3]

    u = problem.u0.copy()
    times, states = [], []
    for i in range(n_steps + 1):
        t = min(i * dt, horizon)
        if i > 0:
            u = step(t, u, theta_f(t) * g)
        if i in keep:
            times.append(t)
            states.append(u.copy())
    return OracleSamples(np.array(times), np.column_stack(states))


def reference_phi1(z):
    """phi1(z) = (e^z - 1)/z on the entries away from 0, 1 on the others."""
    out = np.ones_like(z)
    nz = np.abs(z) > 1e-300
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def reference_slab_states(traj, k, times):
    """Slab k's closed form at absolute times, from row k of the trajectory's
    arrays by its own outer products of rates and times: the reference for
    the dense-output kernel."""
    taus = np.asarray(times, dtype=float) - traj.subdivision.points[k]
    rates = traj.rates[k]
    decay = np.exp(-np.outer(rates, taus))
    drive = taus[None, :] * reference_phi1(-np.outer(rates, taus)) * traj.fhat[k][:, None]
    return traj.modes[k] @ (decay * traj.y0[k][:, None] + drive)


def reference_evaluate_many(traj, times):
    """`Trajectory.evaluate_many` slab by slab, each slab's times through
    `reference_slab_states`."""
    times = np.asarray(times, dtype=float)
    idx = traj.subdivision.slab_index(times)
    out = np.empty((traj.states.shape[0], times.size))
    for k in np.unique(idx):
        out[:, idx == k] = reference_slab_states(traj, k, times[idx == k])
    return out


def reference_sup_v(traj, samples=17):
    """Per slab, the largest ||u||_V at `samples` uniform times across it,
    both ends included, one slab and one v_norms call at a time."""
    pts = traj.subdivision.points
    return tuple(
        float(np.max(traj.space.v_norms(reference_slab_states(
            traj, k, pts[k] + np.linspace(0.0, pts[k + 1] - pts[k], samples)))))
        for k in range(pts.size - 1))


def oracle_gap(problem, subdivision, n_steps, relative=False):
    """sup-H gap between the exponential scheme and the implicit-Euler oracle.

    With `relative`, divided by the oracle's largest H-norm.
    """
    oracle = oracle_reference(problem, n_steps)
    gap = oracle_suph_gap(solve(problem, subdivision), oracle)
    if relative:
        scale = float(np.max(problem.family.space.h_norms(oracle.states)))
        return gap / scale if scale > 0 else gap
    return gap


@pytest.fixture(scope="session")
def heat_preset():
    return get_preset("heat-1d-lipschitz")


@pytest.fixture(scope="session")
def heat_constants(heat_preset):
    return resolved_constants(heat_preset.constants,
                              estimate_constants(heat_preset.problem.family))


@pytest.fixture(scope="session")
def heat_homogeneous():
    return get_preset("heat-1d-lipschitz", load="none")


@pytest.fixture(scope="session")
def heat_traj_64(heat_preset):
    sub = Subdivision(heat_preset.problem.horizon, 64)
    return solve(heat_preset.problem, sub)


@pytest.fixture(scope="session")
def heat_ladder(heat_preset):
    """Dyadic ladder 8 -> 512 with the forcing load; shared by several audits."""
    return solve_ladder(heat_preset.problem, [8, 16, 32, 64, 128, 256, 512])


@pytest.fixture(scope="session")
def heat_study(heat_ladder):
    return refine(heat_ladder)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
