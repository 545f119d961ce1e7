"""Maximal-regularity norms and numerical audits of the a-priori estimates.

Time integrals use the closed form of the within-slab solution in the
slab's modal basis, u(tau) = W (c e^{-mu tau} + p): the integrands are
sums of exponentials, so the integrals are exact up to roundoff or to a
certified remainder.  The steady part p counts as one more exponential,
of rate 0 and mode W p.  Slab k's kernel E_ij = int_0^h e^{-(mu_i + mu_j) tau}
over these rates is the Gram matrix of the exponentials in L^2(0, h):
positive semidefinite and of low numerical rank.  A partial pivoted
Cholesky E ~ R^T R, run for all slabs of a trajectory in lockstep, knows
its residual diagonal d exactly, since diag(E) is known.  The L^2(V)
integral is then sum_r ||W (R_r o c)||_V^2, one product of the modes with
r columns, V-normed through the space's banded factor; the H^1(V')
integral is sum_r ||h W (R_r o dc)||_{V'}^2, one banded V-solve of the
same kind of columns.  The remainder c^T (M o D) c, with M the modal Gram
and D = E - R^T R both positive semidefinite, lies in
[0, (sum_i |c_i| sqrt(M_ii d_i))^2], which is at most the Schur bound
tr(d) sum_i M_ii c_i^2.  A bound above _REMAINDER_TOL of its slab's
integral, and above the roundoff level of the integral's terms, raises
ToleranceError.  The H^1(H), chain- and product-rule integrals, whose
modal Grams are diagonal, read only the kernel's diagonal, in O(n).
A slab with a rate at or below _MIN_RATE has no such closed form and is
refused with ContractError, and an integral that overflows raises
FloatingPointError.

The audits take a trajectory from `solve`, on its breakpoints, and read
its `SlabRecord`; the identity and estimate audits read the per-slab
terms that `mr_norms` computes, and an overflow in any of them raises
FloatingPointError naming its audit.  The identity audits return their
residual with the scale of the identity's terms, so that a caller can
judge it relative to them.  The product-rule and telescoping audits form
A_k v for all breakpoints at once by `FormFamily.apply`, from the
record's coefficient means.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forms import FormConstants
from .propagator import ProblemData, SlabRecord, Trajectory
from .spaces import GalerkinSpace

__all__ = [
    "ContractError",
    "ToleranceError",
    "MRReport",
    "Residual",
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
# A slab's certified remainder may reach _REMAINDER_TOL of its integral, or
# _ROUNDOFF of the bound on the integral's terms, which is the size of the
# roundoff that any evaluation of the integral carries; the kernel factor
# stops at _STOP_TOL of the latter.
_REMAINDER_TOL = 1e-13
_ROUNDOFF = 64.0 * np.finfo(float).eps
_STOP_TOL = np.finfo(float).eps
_PIVOT_FLOOR = 16.0 * np.finfo(float).eps   # d_i below this share of E_ii is roundoff
_CHUNK = 1 << 18         # mode entries whose norms are taken at once


class ContractError(RuntimeError):
    """A check was called on a trajectory/family that violates its precondition."""


class ToleranceError(RuntimeError):
    """A low-rank integral's certified remainder exceeds its tolerance."""


class Residual(NamedTuple):
    """An identity audit's worst residual over slabs, and the largest
    magnitude among the identity's terms, which its roundoff scales with."""

    value: float
    scale: float


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


def _eint(s: np.ndarray, length) -> np.ndarray:
    """Elementwise integral of e^{-s*tau} over [0, length] for s >= 0:
    -expm1(-s length) / s, accurate for small s length, and length at s = 0.
    `length` is a scalar or broadcasts against s."""
    s = np.asarray(s, dtype=float)
    out = np.broadcast_to(length, s.shape).astype(float)
    np.divide(np.expm1(-s * length), -s, out=out, where=s != 0.0)
    return out


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


def _remainder_bound(weight: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per slab, (sum_i sqrt(weight_i |d_i|))^2 for weight_i = coef_i^2 M_ii.

    It bounds coef^T (M o D) coef for M and D positive semidefinite with
    diagonals M_ii and d, since |M_ij| <= sqrt(M_ii M_jj) and
    |D_ij| <= sqrt(d_i d_j); by Cauchy-Schwarz it is at most the Schur
    bound tr(d) sum_i M_ii coef_i^2.  With the kernel's diagonal for d it
    bounds the terms of coef^T (M o E) coef.
    """
    return np.sum(np.sqrt(weight * np.abs(d)), axis=1) ** 2


def _kernel_factor(mu: np.ndarray, lengths: np.ndarray,
                   weights: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Partial pivoted Cholesky E_k ~ R_k^T R_k of every slab's kernel, all
    slabs in lockstep: the (K, r, n) rows R and the (K, n) residual diagonals d.

    Each iteration takes one pivot per slab, the largest entry of its d;
    the pivot's kernel column is in closed form.  Only an entry with d_i
    above _PIVOT_FLOOR E_ii can be a pivot, so that no row is divided by a
    pivot made of roundoff.  A slab stops, taking zero rows from then on,
    once every remainder bound (one per (K, n) array of `weights`) is at
    most _STOP_TOL of the bound on its kernel terms, or once no entry can
    be a pivot.  The rows grow by doubling, never past n.
    """
    n_slabs, n = mu.shape
    slabs, lengths = np.arange(n_slabs), lengths[:, None]
    d = _eint(2.0 * mu, lengths)
    floor, roots = _PIVOT_FLOOR * d, np.sqrt(weights)
    goals = _STOP_TOL * np.einsum("wkn,kn->wk", roots, np.sqrt(d)) ** 2
    rows = np.empty((n_slabs, min(8, n), n))
    rank = 0
    while rank < n:
        eligible = d > floor
        pivot = np.argmax(np.where(eligible, d, -np.inf), axis=1)
        bounds = np.einsum("wkn,kn->wk", roots, np.sqrt(np.abs(d))) ** 2
        active = eligible.any(axis=1) & (bounds > goals).any(axis=0)
        if not active.any():
            break
        if rank == rows.shape[1]:
            rows = np.concatenate([rows, np.empty((n_slabs, min(rank, n - rank), n))], axis=1)
        col = _eint(mu + mu[slabs, pivot, None], lengths)
        col -= np.matmul(rows[slabs, :rank, pivot][:, None, :], rows[:, :rank])[:, 0]
        row = rows[:, rank]
        np.divide(col, np.sqrt(np.where(active, d[slabs, pivot], 1.0))[:, None], out=row)
        row[~active] = 0.0
        d -= row * row
        rank += 1
    return rows[:, :rank], d


def _check_remainder(name: str, weight: np.ndarray, d: np.ndarray, diag: np.ndarray,
                     value: np.ndarray, pts) -> None:
    """Raise ToleranceError where the certified remainder exceeds both
    _REMAINDER_TOL of the slab's integral and _ROUNDOFF of the bound on
    its kernel terms, the level of the integral's own roundoff."""
    bound = _remainder_bound(weight, d)
    allowed = np.maximum(_REMAINDER_TOL * value, _ROUNDOFF * _remainder_bound(weight, diag))
    bad = bound > allowed
    if bad.any():
        k = int(np.argmax(bad))
        raise ToleranceError(
            f"the low-rank {name} integral on [{pts[k]:g}, {pts[k + 1]:g}] has a "
            f"certified remainder {bound[k]:.3e} above {_REMAINDER_TOL:g} of its "
            f"value {value[k]:.3e}")


@contextlib.contextmanager
def _overflow_named(what: str):
    """Run a block under np.errstate(over="raise") and re-raise its
    overflow as FloatingPointError naming `what`."""
    with np.errstate(over="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise FloatingPointError(f"overflow in {what}") from exc


def _mode_norms(space: GalerkinSpace, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (K, n) squared V- and V'-norms of every slab's modes w_i, the
    diagonals of its modal Grams, for slabs in chunks of at most _CHUNK
    mode entries: one v_norms and one solve_V call per chunk."""
    n_slabs, n, _ = modes.shape
    step = max(1, _CHUNK // (n * n))
    mode_sq, dual_sq = np.empty(modes.shape[:2]), np.empty(modes.shape[:2])
    for k in range(0, n_slabs, step):
        w = modes[k:k + step]
        mode_sq[k:k + step] = space.v_norms(w) ** 2
        pairings = (space.h[:, None] * w).transpose(1, 0, 2).reshape(n, -1)
        dual_sq[k:k + step] = np.sum(pairings * space.solve_V(pairings),
                                     axis=0).reshape(-1, n)
    return mode_sq, dual_sq


def mr_norms(traj: Trajectory) -> MRReport:
    """Norm components of eqs. L^2(V), H^1(H), H^1(V') plus the sampled sup-V.

    The V- and V'-norms of the slabs' modes, which weigh the remainder
    bounds, then one lockstep factorization of all slabs' kernels, then
    one product of each slab's modes with the factor's rows.  The
    low-rank states of all slabs take one v_norms and one solve_V call,
    and the sup-V samples are evaluated together.  An uncertified
    remainder raises ToleranceError.  As in `solve`, an overflow raises
    FloatingPointError instead of reporting inf.
    """
    modes = _require_metadata(traj).modes
    space = traj.space
    h = space.h[:, None]
    pts = traj.subdivision.points
    lengths = np.diff(pts)
    with _overflow_named(f"the MR integrals of the {lengths.size}-slab solve"):
        mu, c, p, dc = _slab_coefficients(traj)
        # the steady part p is one more exponential, of rate 0 and mode W p
        rates = np.hstack([mu, np.zeros((lengths.size, 1))])
        mode_sq, dual_sq = np.zeros(rates.shape), np.zeros(rates.shape)
        mode_sq[:, :-1], dual_sq[:, :-1] = _mode_norms(space, modes)
        steady = np.matmul(modes, p[:, :, None])[:, :, 0]          # W p, (K, n)
        mode_sq[:, -1] = space.v_norms(steady.T) ** 2
        coef = np.hstack([c, np.ones((lengths.size, 1))])
        dcoef = np.hstack([dc, np.zeros((lengths.size, 1))])
        weights = [coef * coef * mode_sq, dcoef * dcoef * dual_sq]
        rows, d = _kernel_factor(rates, lengths, weights)
        rank = rows.shape[1]
        # the (K, n, 2r) columns W(R_r o c) + W p R_r[p], then W(R_r o dc):
        # one product with each slab's modes
        block = np.concatenate([rows[:, :, :-1] * c[:, None, :],
                                rows[:, :, :-1] * dc[:, None, :]], axis=1)
        states = np.matmul(modes, block.transpose(0, 2, 1))
        states[:, :, :rank] += steady[:, :, None] * rows[:, None, :, -1]
        l2v = np.sum(space.v_norms(states[:, :, :rank]) ** 2, axis=1)
        pairings = h * states[:, :, rank:].transpose(1, 0, 2).reshape(space.dim, -1)
        h1vp = np.sum((pairings * space.solve_V(pairings)).reshape(
            space.dim, lengths.size, rank), axis=(0, 2))
        kernel_diag = _eint(2.0 * rates, lengths[:, None])
        _check_remainder("L^2(V)", weights[0], d, kernel_diag, l2v, pts)
        _check_remainder("H^1(V')", weights[1], d, kernel_diag, h1vp, pts)
        e, diag = _eint(mu, lengths[:, None]), kernel_diag[:, :-1]
        moment = c * diag + p * e            # int_0^h e^{-mu tau} (modal u)
        h1h = float(np.sum(dc * dc * diag))
        chain_slabs = 2.0 * np.sum(dc * moment, axis=1)
        product_slabs = 2.0 * np.sum(mu * dc * moment, axis=1)
        supv_slabs = _sampled_sup_v(traj)
        l2v_total, h1vp_total = float(np.sum(l2v)), float(np.sum(h1vp))
    l2v_norm, h1h, h1vp_norm = (float(np.sqrt(max(x, 0.0)))
                                for x in (l2v_total, h1h, h1vp_total))
    return MRReport(l2V=l2v_norm, h1H=h1h, h1Vp=h1vp_norm, supV=max(supv_slabs),
                    mr_vvp=float(np.hypot(l2v_norm, h1vp_norm)),
                    mr_vh=float(np.hypot(l2v_norm, h1h)),
                    l2V_slabs=tuple(float(x) for x in l2v),
                    supV_slabs=tuple(supv_slabs),
                    chain_slabs=tuple(float(x) for x in chain_slabs),
                    product_slabs=tuple(float(x) for x in product_slabs))


def check_chain_rule(report: MRReport, traj: Trajectory) -> Residual:
    """Per-slab residual of d/dt ||u||_H^2 = 2 (du | u)_H.

    The right side is the report's `chain_slabs`; the scale is the largest
    ||u||_H^2 at a breakpoint or |chain_slabs|.
    """
    with _overflow_named("the chain-rule audit"):
        _require_metadata(traj, report)
        h_sq = traj.space.h_norms(traj.states) ** 2
        chain = np.array(report.chain_slabs)
        return Residual(float(np.max(np.abs(np.diff(h_sq) - chain))),
                        float(max(np.max(h_sq), np.max(np.abs(chain)))))


def check_product_rule(report: MRReport, traj: Trajectory) -> Residual:
    """Per-slab residual of d/dt a_k(u(t)) = 2 (A_k u | du)_H.

    The left side is a_k(u1) - a_k(u0) = (u1 - u0) . A_k (u1 + u0) for the
    symmetric A_k, over all slabs at once; the right side is the report's
    `product_slabs`.  The scale is the largest max|rate_k| ||u||_H^2 at a
    slab's ends, which bounds |u|^T |A_k| |u| for a tridiagonal A_k with a
    nonnegative diagonal (a sign similarity takes |A_k| to A_k), or
    |product_slabs|.
    """
    with _overflow_named("the product-rule audit"):
        rec = _require_metadata(traj, report)
        u0, u1 = traj.states[:, :-1], traj.states[:, 1:]
        product = np.array(report.product_slabs)
        lhs = np.einsum("ij,ij->j", u1 - u0, rec.family.apply(u1 + u0, rec.thetas))
        h_sq = traj.space.h_norms(traj.states) ** 2
        ends = np.abs(rec.rates).max(axis=1) * np.maximum(h_sq[:-1], h_sq[1:])
        return Residual(float(np.max(np.abs(lhs - product))),
                        float(max(np.max(ends), np.max(np.abs(product)))))


def check_lemma_indepmax(report: MRReport, traj: Trajectory,
                         constants: FormConstants) -> float:
    """Per-slab sup bound: sup ||u||_V^2 <= (M ||u(a)||_V^2 + ||f||^2_{L^2(H)}) / alpha.

    The sups are the report's `supV_slabs`.  Returns the minimum margin
    (RHS - LHS) over slabs; nonnegative means verified.
    """
    with _overflow_named("the sup-bound audit"):
        fbar = _require_metadata(traj, report).fbar
        if constants.bound is None or constants.coercivity is None:
            raise ContractError("sup-bound check needs certified M and alpha")
        if constants.coercivity <= 0:
            raise ContractError("sup-bound check requires coercivity at shift 0")
        space = traj.space
        big_m, alpha = np.float64(constants.bound), np.float64(constants.coercivity)
        load_sq = np.diff(traj.subdivision.points) * space.h_norms(fbar.T) ** 2
        rhs = (big_m * space.v_norms(traj.states[:, :-1]) ** 2 + load_sq) / alpha
        return float(np.min(rhs - np.array(report.supV_slabs) ** 2))


def check_lemma3(report: MRReport, traj: Trajectory, problem: ProblemData,
                 alpha: float) -> float:
    """Energy bound with the Young-step constant c2 = max(1/alpha^2, 1/alpha).

    Verifies int_0^t ||u||_V^2 <= c2 [ int_0^t ||f||_{V'}^2 + ||u0||_H^2 ]
    at every breakpoint t, by running sums of the report's `l2V_slabs`;
    f is the slab-averaged load the trajectory actually solves with, and
    its V'-norms take one banded solve for all slabs.  Returns the minimum
    margin.
    """
    with _overflow_named("the energy-bound audit (Lemma 3)"):
        fbar = _require_metadata(traj, report).fbar
        if alpha <= 0:
            raise ContractError("energy bound requires coercivity at shift 0")
        space = problem.family.space
        inverse = np.float64(1.0) / alpha
        c2 = max(inverse * inverse, inverse)
        u0_sq = space.h_norms(problem.u0[:, None])[0] ** 2
        pairs = space.h[:, None] * fbar.T
        load_sq = np.sum(pairs * space.solve_V(pairs), axis=0) * np.diff(traj.subdivision.points)
        lhs = np.cumsum(report.l2V_slabs)
        margins = c2 * (np.cumsum(load_sq) + u0_sq) - lhs
        return float(min(c2 * u0_sq, np.min(margins)))      # c2 u0_sq at t = 0


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
    with _overflow_named("the load norm ||f||_{L^2(0,T;H)}"):
        total = load.theta.square_integral(problem.horizon) * float(g @ space.solve_H(g))
    return float(np.sqrt(max(total, 0.0)))


def check_H_estimate(report: MRReport, problem: ProblemData,
                     load_norm: float) -> float:
    """MR(V,H)-to-data ratio ||u||_MR(V,H) / (||u0||_V + ||f||_{L^2(H)}).

    `load_norm` is ||f||_{L^2(0,T;H)}, from `load_l2h`.
    """
    with _overflow_named("the MR(V,H) estimate ratio"):
        denom = np.float64(problem.family.space.v_norm(problem.u0)) + load_norm
        if denom < 1e-300:
            return 0.0
        return float(report.mr_vh / denom)


def check_form_telescoping(traj: Trajectory, lipschitz: float) -> float:
    """Worst excess of |a_k(v) - a_{k+1}(v)| over L h ||v||_V^2 at slab junctions.

    v is the computed state at the junction.  Nonpositive (up to slack)
    means the telescoping inequality holds.
    """
    with _overflow_named("the telescoping audit"):
        rec = _require_metadata(traj)
        if not traj.subdivision.is_uniform:
            raise ContractError("telescoping check assumes a uniform subdivision")
        v, thetas = traj.states[:, 1:-1], rec.thetas
        jump = rec.family.apply(v, thetas[:-1]) - rec.family.apply(v, thetas[1:])
        gap = np.abs(np.einsum("ij,ij->j", v, jump))
        lengths = np.diff(traj.subdivision.points)[:-1]
        allowance = lipschitz * lengths * traj.space.v_norms(v) ** 2
        return float(np.max(gap - allowance, initial=-np.inf))
