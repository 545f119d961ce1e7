"""Closed convex sets in H, metric projections, and the invariance criterion
decided exactly.

Projection is taken in H's own metric, the lumped mass diag(h) of the
space: the criterion's projection is the one in that metric.  Boxes
project by exact nodewise clamping, balls by radial scaling.

The criterion (Ouhabaz, Potential Anal. 5, 1996; Arendt, Dier & Ouhabaz,
J. London Math. Soc. 89, 2014) asks a(t; Pv, v - Pv) >= <f(t), v - Pv>
for every v and t; the value of v is the difference of the two sides at
||v - Pv||_h = 1.  A box is decided by its one-node faces and a ball by a
trust-region problem, at the corners of the coefficients' ranges.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .forms import EvaluationError, FormFamily, Linear
from .propagator import SeparableLoad, Trajectory

__all__ = [
    "ConvexSet",
    "CriterionReport",
    "check_criterion",
    "check_criterion_symmetric",
    "audit_trajectory",
]

_BISECTIONS = 200     # halvings of the secular equation's bracket


@dataclass
class ConvexSet:
    """A box or a ball in the H-metric diag(h), held as `metric` = h."""

    kind: str
    metric: np.ndarray
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float = 0.0

    def __post_init__(self) -> None:
        self.metric = np.asarray(self.metric, dtype=float)
        if self.metric.ndim != 1:
            raise ValueError("a convex set's metric is the diagonal h of the lumped "
                             f"H-Gram; got shape {self.metric.shape}")
        if self.kind not in ("box", "ball"):
            raise ValueError(f"unknown convex-set kind {self.kind!r}")

    @classmethod
    def box(cls, metric, lower=None, upper=None) -> "ConvexSet":
        n = len(metric)
        lo = np.full(n, -np.inf) if lower is None else np.broadcast_to(
            np.asarray(lower, dtype=float), (n,)).copy()
        hi = np.full(n, np.inf) if upper is None else np.broadcast_to(
            np.asarray(upper, dtype=float), (n,)).copy()
        if np.any(lo > hi):
            raise ValueError("box bounds are inverted")
        return cls("box", metric, lower=lo, upper=hi)

    @classmethod
    def ball(cls, metric, center, radius: float) -> "ConvexSet":
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        return cls("ball", metric, center=np.asarray(center, dtype=float),
                   radius=float(radius))

    def metric_norm(self, x: np.ndarray) -> float:
        return float(np.sqrt(max((x * self.metric) @ x, 0.0)))

    def project(self, x) -> np.ndarray:
        """The projection of x, or of each row of an (m, dim) array: a box
        clamps every entry, a ball scales every row outside it onto its
        sphere and returns the others unchanged."""
        x = np.asarray(x, dtype=float)
        if self.kind == "box":
            return np.clip(x, self.lower, self.upper)
        d = x - self.center
        r = np.sqrt(np.maximum(np.sum(d * self.metric * d, axis=-1, keepdims=True), 0.0))
        far = r > self.radius
        return np.where(far, self.center + np.divide(self.radius, r, where=far, out=r) * d, x)

    def distance(self, x) -> float:
        return self.metric_norm(np.subtract(x, self.project(x)))


class CriterionReport(NamedTuple):
    """`bound`: the least value at the corners of the coefficients' ranges;
    no value is negative when it is not, and a ball's values lie above it.
    `margin`: min(0, least value at the real times checked), attained by
    `witness` at `witness_t`.  `scale`: the largest magnitude of the terms.
    At one (theta, theta_f), the margin is the least value itself."""

    margin: float
    bound: float
    witness_t: float
    witness: np.ndarray
    scale: float


def _box_faces(family: FormFamily, cset: ConvexSet, s: float, f: np.ndarray) -> CriterionReport:
    """The least one-node face value of a box at theta = s, with load f.

    Face (sign, i) puts Pv_i on the upper (+1) or lower (-1) bound, v - Pv =
    sign e_i / sqrt(h_i), and each neighbour j at the bound minimising
    sign A_ij Pv_j; every value is a sum of such terms.  A neighbour free
    of finite bounds sits at +-B, B = max(1, |finite bounds|), or further
    out where its coupling makes the face unbounded below.
    """
    b, h, lo, hi = family.terms.at(s), cset.metric, cset.lower, cset.upper
    inside, face = np.clip(np.zeros(h.size), lo, hi), np.stack([hi, lo])
    exists = np.isfinite(face)
    big = max(1.0, float(np.max(np.abs(face), where=exists, initial=0.0)))
    if not exists.any():                   # the whole space: v = Pv always
        return CriterionReport(np.inf, np.inf, np.nan, inside, 0.0)
    sign, at = np.array([[1.0], [-1.0]]), np.where(exists, face, 0.0)
    # (face, neighbour, node); the bands' zero corners leave no neighbour past an end
    couple = np.stack([np.roll(b[2], 1), np.roll(b[0], -1)])
    nb = np.where(sign[:, :, None] * couple > 0, [np.roll(lo, 1), np.roll(lo, -1)],
                  [np.roll(hi, 1), np.roll(hi, -1)])
    free = np.isinf(nb)
    slope = np.sum(np.where(free, np.abs(couple), 0.0), axis=1)
    rest = sign * (b[1] * at + np.sum(couple * np.where(free, 0.0, nb), axis=1) - f)
    far = np.maximum(big, np.divide(2.0 * rest, slope, out=np.zeros_like(rest), where=slope > 0))
    nb = np.where(free, np.sign(nb) * far[:, None], nb)
    root_h = np.sqrt(h)
    values = np.where(exists, (rest - slope * far) / root_h, np.inf)
    terms = (np.abs(b[1] * at) + np.sum(np.abs(couple * nb), axis=1) + np.abs(f)) / root_h
    k, i = np.unravel_index(np.argmin(values), values.shape)
    v = inside.copy()
    v[i] = face[k, i] + sign[k, 0] / root_h[i]
    if i > 0:
        v[i - 1] = nb[k, 0, i]
    if i < h.size - 1:
        v[i + 1] = nb[k, 1, i]
    return CriterionReport(values[k, i], values[k, i], np.nan, v,
                           float(np.max(terms, where=exists, initial=0.0)))


def _sphere_min(mu: np.ndarray, beta: np.ndarray) -> tuple[float, np.ndarray]:
    """A lower bound of min y.(mu y) + beta.y over the unit sphere, mu
    ascending, and a unit y attaining it (More & Sorensen, SIAM J. Sci.
    Stat. Comput. 4, 1983): the dual nu - sum beta^2 / (4 (mu - nu)),
    nu < mu_0, at the root of the secular equation ||y|| = 1,
    y = -beta / (2 (mu - nu)), bisected in delta = mu_0 - nu within
    [||beta_0|| / 2, ||beta|| / 2], beta_0 on the least modes.  In the hard
    case, ||y|| <= 1 as delta -> 0, the least mode takes the rest.
    """
    gaps, b2 = mu - mu[0], 0.25 * beta**2
    least = gaps == 0.0
    lo, hi = np.sqrt(np.sum(b2[least])), np.sqrt(np.sum(b2))
    if lo == 0.0 and np.sum(b2[~least] / gaps[~least] ** 2) <= 1.0:
        y = np.zeros_like(mu)
        y[~least] = -0.5 * beta[~least] / gaps[~least]
        y[0] = np.sqrt(max(1.0 - y @ y, 0.0))
        return float(mu[0] - np.sum(b2[~least] / gaps[~least])), y
    for _ in range(_BISECTIONS):
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            break
        lo, hi = (mid, hi) if np.sum(b2 / (gaps + mid) ** 2) > 1.0 else (lo, mid)
    y = -0.5 * beta / (gaps + hi)
    return float(mu[0] - hi - np.sum(b2 / (gaps + hi))), y / np.linalg.norm(y)


def _ball_least(family: FormFamily, cset: ConvexSet, modes, s: float,
                f: np.ndarray) -> CriterionReport:
    """The least value of a ball at theta = s, with load f: for Pv = c + r w
    and v - Pv = w, r w.A w + (A c - f).w over ||w||_h = 1, in the pencil's
    diag(h)-orthonormal modes.  The witness's value is read through the bands."""
    rates, w_modes = modes
    c, r = cset.center, cset.radius
    grad = family.apply(c, s) - f
    bound, y = _sphere_min(r * rates, w_modes.T @ grad)
    w = w_modes @ y
    terms = (np.abs(grad + f) + np.abs(f)) / np.sqrt(cset.metric)
    return CriterionReport(float(family.apply(c + r * w, s) @ w - f @ w), bound, np.nan,
                           c + (r + 1.0) * w,
                           r * float(np.max(np.abs(rates))) + float(np.linalg.norm(terms)))


def check_criterion(family: FormFamily, cset: ConvexSet,
                    load: SeparableLoad | None = None) -> CriterionReport:
    """The criterion for `cset` and the load f(t) = theta_f(t) g, or none.
    Each value is concave in (theta, theta_f): the corners of their ranges
    give the bound, and the times 0, T and their extremes the witness.
    A negative value is a finding, not an error."""
    if not np.array_equal(cset.metric, family.space.h):
        raise ValueError("the set's metric is not the family's H-metric diag(h)")
    theta, horizon = family.terms.theta, family.horizon
    theta_f = Linear(0.0) if load is None else load.theta
    g = np.zeros(cset.metric.size) if load is None else load.pairing
    pencil = functools.cache(family.pencil)       # once per distinct theta

    def least(s: float, sf: float) -> CriterionReport:
        if not np.isfinite(sf):        # a non-finite s fails in `terms.at`
            raise EvaluationError(f"load coefficient {sf} is not finite")
        return (_box_faces(family, cset, s, sf * g) if cset.kind == "box"
                else _ball_least(family, cset, pencil(s), s, sf * g))

    (t0, s0), (t1, s1) = theta.extremes(horizon)
    (tf0, sf0), (tf1, sf1) = theta_f.extremes(horizon)
    corners = [least(s, sf) for s in {s0, s1} for sf in {sf0, sf1}]
    times = sorted({0.0, horizon, t0, t1, tf0, tf1})
    real = [least(theta(t), theta_f(t))._replace(witness_t=t) for t in times]
    best = min(real, key=lambda r: r.margin)
    return best._replace(margin=min(0.0, best.margin), bound=min(r.bound for r in corners),
                         scale=max(r.scale for r in corners + real))


def check_criterion_symmetric(family: FormFamily, cset: ConvexSet,
                              alpha: float) -> CriterionReport:
    """a(t; Pv, Pv) <= a(t; v, v): for a symmetric accretive form, alpha > 0
    from `estimate_constants`, the criterion without a load (Ouhabaz 1996)."""
    if alpha <= 0:
        raise ValueError("symmetric criterion requires an accretive (coercive) family")
    return check_criterion(family, cset)


def audit_trajectory(traj: Trajectory, cset: ConvexSet) -> tuple[float, float]:
    """Max distance of the computed states from the set over the output grid,
    and the first output time that attains it."""
    dists = [cset.distance(traj.states[:, i]) for i in range(traj.grid.size)]
    k = int(np.argmax(dists))
    return dists[k], float(traj.grid[k])
