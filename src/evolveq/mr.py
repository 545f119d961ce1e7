"""Maximal-regularity norms and numerical audits of the a-priori estimates.

Time integrals use the closed form of the within-slab solution in the
slab's modal basis: the integrands are sums of decaying exponentials, so
the integrals are exact up to roundoff.  Each slab builds the kernel
E_ij = int_0^h e^{-(mu_i + mu_j) tau} once: the L^2(V) and H^1(V') integrals
pair it with the dense modal Grams, and the H^1(H), chain- and product-rule
integrals, whose modal Grams are diagonal, read only its diagonal, in O(n).
A slab with a rate at or below _MIN_RATE has no such closed form and is
refused with ContractError, and an integral that overflows raises
FloatingPointError.
The audits take a trajectory from `solve`, on its breakpoints, and read
its `SlabRecord` row by row; the identity and estimate audits read the
per-slab terms that `mr_norms` computes in its one pass over the rows.
The product-rule and telescoping audits form A_k v for all breakpoints at
once by `FormFamily.apply`, from the record's coefficient means.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import FormConstants
from .propagator import ProblemData, SlabRecord, Trajectory

__all__ = [
    "ContractError",
    "MRReport",
    "mr_norms",
    "check_chain_rule",
    "check_product_rule",
    "check_lemma_indepmax",
    "check_lemma3",
    "check_H_estimate",
    "check_form_telescoping",
    "load_l2h",
]

_MIN_RATE = 1e-12
_SUP_SAMPLES = 17


class ContractError(RuntimeError):
    """A check was called on a trajectory/family that violates its precondition."""


@dataclass(frozen=True)
class MRReport:
    """Norm components of a trajectory in the two maximal-regularity spaces."""

    l2V: float          # ||u||_{L^2(0,T;V)}
    h1H: float          # ||u'||_{L^2(0,T;H)}
    h1Vp: float         # ||u'||_{L^2(0,T;V')}
    supV: float         # sup_t ||u(t)||_V (sampled)
    mr_vvp: float       # sqrt(l2V^2 + h1Vp^2)
    mr_vh: float        # sqrt(l2V^2 + h1H^2)
    l2V_slabs: tuple[float, ...] = ()      # slab k's summand of l2V^2
    supV_slabs: tuple[float, ...] = ()     # sampled sup of ||u||_V on slab k
    chain_slabs: tuple[float, ...] = ()    # 2 int_k (u' | u)_H
    product_slabs: tuple[float, ...] = ()  # 2 int_k (A_k u | u')_H

    def __post_init__(self) -> None:
        vals = (self.l2V, self.h1H, self.h1Vp, self.supV, self.mr_vvp, self.mr_vh)
        if not all(np.isfinite(v) and v >= 0 for v in vals):
            raise ValueError("MR norms must be finite and nonnegative")
        if abs(self.mr_vvp - float(np.hypot(self.l2V, self.h1Vp))) > 1e-12 * (1 + self.mr_vvp):
            raise ValueError("mr_vvp is not the root-sum-square of its parts")
        if abs(self.mr_vh - float(np.hypot(self.l2V, self.h1H))) > 1e-12 * (1 + self.mr_vh):
            raise ValueError("mr_vh is not the root-sum-square of its parts")


def _eint(s: np.ndarray, length: float) -> np.ndarray:
    """Elementwise integral of e^{-s*tau} over [0, length], stable near s = 0."""
    s = np.asarray(s, dtype=float)
    z = -s * length
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, s)
    return np.where(small, length * (1.0 + z / 2.0 + z * z / 6.0),
                    -np.expm1(z) / safe)


def _slab_coefficients(traj: Trajectory):
    """(mu, c, p, dc) with u(tau) = W (c e^{-mu tau} + p), u'(tau) = W (dc e^{-mu tau}),
    as (n_slabs, dim) arrays with row k for slab k.

    W are the slab's diag(h)-orthonormal modes, so the modal H-Gram is the
    identity.  A rate at or below _MIN_RATE has no such closed form; the
    first slab with one is named.
    """
    rec = _require_metadata(traj)
    mu = rec.rates
    low = ~np.all(mu > _MIN_RATE, axis=1)
    if low.any():
        k, pts = np.argmax(low), traj.subdivision.points
        raise ContractError(
            f"slab rate {mu[k].min():.3e} <= {_MIN_RATE:g} on "
            f"[{pts[k]:g}, {pts[k + 1]:g}]: shift the family (omega) so "
            "that every slab is coercive")
    p = rec.fhat / mu
    c = rec.y0 - p
    return mu, c, p, -mu * c


def _require_metadata(traj: Trajectory, report: MRReport | None = None) -> SlabRecord:
    if traj.slabs is None:
        raise ContractError("trajectory carries no slab metadata; use solve()")
    if report is not None and len(report.supV_slabs) != traj.slabs.thetas.size:
        raise ContractError("MR report is not of this trajectory; use mr_norms()")
    return traj.slabs


def _sampled_sup_v(traj: Trajectory) -> tuple[float, ...]:
    """Per slab, the largest ||u||_V at _SUP_SAMPLES uniform times across it,
    both ends included: one evaluation and one v_norms call for all slabs.

    Each sample is addressed to its own slab, the right end included, and
    the norms take the states as one (dim, _SUP_SAMPLES) block per slab.
    """
    pts = traj.subdivision.points
    n_slabs = pts.size - 1
    times = pts[:-1, None] + np.linspace(0.0, np.diff(pts), _SUP_SAMPLES, axis=1)
    states = traj.evaluate_in_slabs(np.repeat(np.arange(n_slabs), _SUP_SAMPLES),
                                    times.ravel())
    blocks = states.reshape(-1, n_slabs, _SUP_SAMPLES).transpose(1, 0, 2)
    return tuple(float(v) for v in traj.space.v_norms(blocks).max(axis=1))


def mr_norms(traj: Trajectory) -> MRReport:
    """Norm components of eqs. L^2(V), H^1(H), H^1(V') plus the sampled sup-V.

    One pass per slab: the closed-form coefficients give the norm integrals
    and the chain- and product-rule terms that the identity audits read.
    The sup-V samples of all slabs are evaluated together.  As in `solve`,
    an overflow raises FloatingPointError instead of reporting inf.
    """
    modes = _require_metadata(traj).modes
    space = traj.space
    h = space.h
    gram_dual = h[:, None] * space.dual_gram * h
    lengths = np.diff(traj.subdivision.points)
    l2v = h1h = h1vp = 0.0
    l2v_slabs, chain_slabs, product_slabs = [], [], []
    with np.errstate(over="raise"):
        try:
            for mu, c, p, dc, w, length in zip(*_slab_coefficients(traj), modes, lengths):
                kernel = _eint(mu[:, None] + mu[None, :], length)
                e = _eint(mu, length)
                gram_v = w.T @ space.gram_V @ w
                l2v_slabs.append(float(c @ (gram_v * kernel) @ c
                                       + 2.0 * (c * e) @ gram_v @ p
                                       + length * (p @ gram_v @ p)))
                l2v += l2v_slabs[-1]
                h1vp += float(dc @ ((w.T @ gram_dual @ w) * kernel) @ dc)
                diag = np.diagonal(kernel)
                h1h += float(np.sum(dc * dc * diag))
                moment = c * diag + p * e            # int_0^h e^{-mu tau} (modal u)
                chain_slabs.append(2.0 * float(dc @ moment))
                product_slabs.append(2.0 * float((mu * dc) @ moment))
            supv_slabs = _sampled_sup_v(traj)
        except FloatingPointError as exc:
            raise FloatingPointError(f"overflow in the MR integrals of the "
                                     f"{lengths.size}-slab solve") from exc
    l2v, h1h, h1vp = (float(np.sqrt(max(x, 0.0))) for x in (l2v, h1h, h1vp))
    return MRReport(l2V=l2v, h1H=h1h, h1Vp=h1vp, supV=max(supv_slabs),
                    mr_vvp=float(np.hypot(l2v, h1vp)),
                    mr_vh=float(np.hypot(l2v, h1h)),
                    l2V_slabs=tuple(l2v_slabs), supV_slabs=tuple(supv_slabs),
                    chain_slabs=tuple(chain_slabs),
                    product_slabs=tuple(product_slabs))


def check_chain_rule(report: MRReport, traj: Trajectory) -> float:
    """Per-slab residual of d/dt ||u||_H^2 = 2 (du | u)_H.

    The right side is the report's `chain_slabs`.
    """
    _require_metadata(traj, report)
    h_sq = traj.space.h_norms(traj.states) ** 2
    return float(np.max(np.abs(np.diff(h_sq) - np.array(report.chain_slabs))))


def check_product_rule(report: MRReport, traj: Trajectory) -> float:
    """Per-slab residual of d/dt a_k(u(t)) = 2 (A_k u | du)_H.

    The left side is a_k(u1) - a_k(u0) = (u1 - u0) . A_k (u1 + u0) for the
    symmetric A_k, over all slabs at once; the right side is the report's
    `product_slabs`.
    """
    rec = _require_metadata(traj, report)
    u0, u1 = traj.states[:, :-1], traj.states[:, 1:]
    lhs = np.einsum("ij,ij->j", u1 - u0, rec.family.apply(u1 + u0, rec.thetas))
    return float(np.max(np.abs(lhs - np.array(report.product_slabs))))


def check_lemma_indepmax(report: MRReport, traj: Trajectory,
                         constants: FormConstants | None = None) -> float:
    """Per-slab sup bound: sup ||u||_V^2 <= (M ||u(a)||_V^2 + ||f||^2_{L^2(H)}) / alpha.

    The sups are the report's `supV_slabs`.  Returns the minimum margin
    (RHS - LHS) over slabs; nonnegative means verified.
    """
    fbar = _require_metadata(traj, report).fbar
    if constants is None or constants.bound is None or constants.coercivity is None:
        raise ContractError("sup-bound check needs certified M and alpha")
    if constants.coercivity <= 0:
        raise ContractError("sup-bound check requires coercivity at shift 0")
    space = traj.space
    big_m, alpha = constants.bound, constants.coercivity
    lengths = np.diff(traj.subdivision.points)
    starts = traj.states[:, :-1].T.copy()        # contiguous, one row per slab
    margin = np.inf
    for f, u, length, sup_v in zip(fbar, starts, lengths, report.supV_slabs):
        load_sq = length * space.h_norm(f) ** 2
        rhs = (big_m * space.v_norm(u) ** 2 + load_sq) / alpha
        margin = min(margin, rhs - sup_v ** 2)
    return float(margin)


def check_lemma3(report: MRReport, traj: Trajectory, problem: ProblemData,
                 alpha: float) -> float:
    """Energy bound with the Young-step constant c2 = max(1/alpha^2, 1/alpha).

    Verifies int_0^t ||u||_V^2 <= c2 [ int_0^t ||f||_{V'}^2 + ||u0||_H^2 ]
    at every breakpoint t, by running sums of the report's `l2V_slabs`;
    f is the slab-averaged load the trajectory actually solves with.
    Returns the minimum margin.
    """
    fbar = _require_metadata(traj, report).fbar
    if alpha <= 0:
        raise ContractError("energy bound requires coercivity at shift 0")
    space = problem.family.space
    c2 = max(1.0 / alpha**2, 1.0 / alpha)
    u0_sq = space.h_norm(problem.u0) ** 2
    lhs = rhs_load = 0.0
    margin = c2 * u0_sq                                  # at t = 0
    for f, length, l2v_sq in zip(fbar, np.diff(traj.subdivision.points),
                                 report.l2V_slabs):
        pair = space.h * f
        lhs += l2v_sq
        rhs_load += float(pair @ space.dual_gram @ pair) * length
        margin = min(margin, c2 * (rhs_load + u0_sq) - lhs)
    return float(margin)


def load_l2h(problem: ProblemData) -> float:
    """||f||_{L^2(0,T;H)} of the true load theta(t) g, in closed form:
    sqrt(int_0^T theta^2 dt * g^T diag(h)^{-1} g).

    It does not depend on the trajectory: a run computes it once and
    passes it to every check_H_estimate.  An overflow raises
    FloatingPointError.
    """
    load = problem.load
    if load is None:
        return 0.0
    space, g = problem.family.space, load.pairing
    with np.errstate(over="raise"):
        try:
            total = load.theta.square_integral(problem.horizon) * float(g @ space.solve_H(g))
        except FloatingPointError as exc:
            raise FloatingPointError("overflow in the load norm ||f||_{L^2(0,T;H)}") from exc
    return float(np.sqrt(max(total, 0.0)))


def check_H_estimate(report: MRReport, problem: ProblemData,
                     load_norm: float) -> float:
    """MR(V,H)-to-data ratio ||u||_MR(V,H) / (||u0||_V + ||f||_{L^2(H)}).

    `load_norm` is ||f||_{L^2(0,T;H)}, from `load_l2h`.
    """
    denom = problem.family.space.v_norm(problem.u0) + load_norm
    if denom < 1e-300:
        return 0.0
    return report.mr_vh / denom


def check_form_telescoping(traj: Trajectory,
                           lipschitz: float | None = None) -> float:
    """Worst excess of |a_k(v) - a_{k+1}(v)| over L h ||v||_V^2 at slab junctions.

    v is the computed state at the junction.  Nonpositive (up to slack)
    means the telescoping inequality holds.
    """
    rec = _require_metadata(traj)
    if lipschitz is None:
        raise ContractError("telescoping check needs a Lipschitz constant")
    if not traj.subdivision.is_uniform:
        raise ContractError("telescoping check assumes a uniform subdivision")
    v, thetas = traj.states[:, 1:-1], rec.thetas
    jump = rec.family.apply(v, thetas[:-1]) - rec.family.apply(v, thetas[1:])
    gap = np.abs(np.einsum("ij,ij->j", v, jump))
    lengths = np.diff(traj.subdivision.points)[:-1]
    allowance = lipschitz * lengths * traj.space.v_norms(v) ** 2
    return float(np.max(gap - allowance, initial=-np.inf))
