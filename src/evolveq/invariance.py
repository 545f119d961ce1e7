"""Closed convex sets in H, metric projections, and the invariance criteria.

Projection is taken in H's own metric, the lumped mass diag(h) of the
space: the criterion's projection is the one in that metric.  Boxes
project by exact nodewise clamping, balls by radial scaling.  Both
criterion checks read one structured pool of test vectors and its
projections, drawn by `sample_pool`, and report the worst margin.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .forms import EvaluationError, FormFamily
from .propagator import SeparableLoad, Trajectory

__all__ = [
    "ConvexSet",
    "CriterionReport",
    "SamplePool",
    "check_criterion",
    "check_criterion_symmetric",
    "audit_trajectory",
    "offdiagonal_sign_certificate",
    "sample_pool",
]

_CRITERION_TIMES = 9    # uniform sample times of both criteria
_SPIKE_MAX = 3          # most nonzeros of a spike vector


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
        return self.project_many(np.asarray(x, dtype=float)[None, :])[0]

    def project_many(self, xs: np.ndarray) -> np.ndarray:
        """Row-wise projection of an (m, dim) sample matrix: a box clamps
        every entry, a ball scales every row outside it onto its sphere."""
        xs = np.asarray(xs, dtype=float)
        if self.kind == "box":
            return np.clip(xs, self.lower, self.upper)
        if self.kind == "ball":
            d = xs - self.center
            r = np.sqrt(np.maximum(np.einsum("ij,ij->i", d * self.metric, d), 0.0))
            out = xs.copy()
            far = r > self.radius
            out[far] = self.center + (self.radius / r[far])[:, None] * d[far]
            return out
        raise ValueError(f"unknown convex-set kind {self.kind!r}")

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return self.metric_norm(x - self.project(x))


@dataclass(frozen=True)
class CriterionReport:
    margin: float
    witness_t: float
    witness: np.ndarray


class SamplePool(NamedTuple):
    vectors: np.ndarray        # (m, dim) test vectors v
    projections: np.ndarray    # their projections Pv onto the set


def _spikes(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Sparse signed spikes: each row has k ~ U{1..min(3, dim)} nonzeros at a
    uniform k-subset of positions, with +-1 signs and U(0.5, 3) magnitudes.

    Positions come from sequential sampling without replacement: column j
    is uniform over the dim - j indices still free, shifted past the row's
    earlier picks taken in ascending order.  Entries past the k-th are zero.
    """
    width = min(_SPIKE_MAX, dim)
    k = rng.integers(1, width + 1, size=rows)
    picks = rng.integers(0, dim - np.arange(width), size=(rows, width))
    for j in range(1, width):
        for earlier in np.sort(picks[:, :j], axis=1).T:
            picks[:, j] += picks[:, j] >= earlier
    values = (rng.choice([-1.0, 1.0], size=(rows, width))
              * rng.uniform(0.5, 3.0, size=(rows, width)))
    spikes = np.zeros((rows, dim))
    spikes[np.arange(rows)[:, None], picks] = np.where(
        np.arange(width) < k[:, None], values, 0.0)
    return spikes


def sample_pool(rng: np.random.Generator, cset: ConvexSet,
                n_vectors: int) -> SamplePool:
    """Mixed pool: Gaussian, sparse signed spikes, boundary-adjacent vectors."""
    dim = cset.metric.size
    n_gauss = n_vectors // 3
    n_spike = n_vectors // 3
    n_near = n_vectors - n_gauss - n_spike
    gauss = rng.standard_normal((n_gauss, dim))
    spikes = _spikes(rng, n_spike, dim)
    near = cset.project_many(rng.standard_normal((n_near, dim)))
    near += 0.1 * rng.standard_normal((n_near, dim))
    vs = np.vstack([gauss, spikes, near])
    return SamplePool(vs, cset.project_many(vs))


def _form_values(family: FormFamily, left: np.ndarray,
                 right: np.ndarray) -> Callable[[float], np.ndarray]:
    """t -> a(t; left_i, right_i) for each row pair of the pool.

    The rows' forms of A0 and A1 are taken once (`FormFamily.pair`), so
    each time costs O(m).
    """
    theta = family.terms.theta
    q0, q1 = family.pair(left, right)

    def values(t: float) -> np.ndarray:
        s = theta(t)
        if not np.isfinite(s):
            raise EvaluationError(f"form coefficient at t={t} is not finite")
        return q0 + s * q1

    return values


def _worst(values: Callable[[float], np.ndarray], vs: np.ndarray,
           t_samples: np.ndarray) -> CriterionReport:
    """The least value over the sample times; the first time attaining it wins."""
    best = CriterionReport(np.inf, 0.0, np.zeros(vs.shape[1]))
    for t in t_samples:
        vals = values(t)
        k = int(np.argmin(vals))
        if vals[k] < best.margin:
            best = CriterionReport(float(vals[k]), float(t), vs[k].copy())
    return best


def check_criterion(family: FormFamily, pool: SamplePool,
                    load: SeparableLoad | None = None) -> CriterionReport:
    """Worst value of a(t; Pv, v - Pv) [minus <f(t), v - Pv> if given] over
    9 uniform sample times.

    The load theta_f(t) g is paired with the pool once, as (v - Pv) . g.
    A negative margin is a finding, not an error; the arg-min witness is
    reported for diagnosis.
    """
    vs, pvs = pool
    diffs = vs - pvs
    t_samples = np.linspace(0.0, family.horizon, _CRITERION_TIMES)
    form = _form_values(family, pvs, diffs)
    if load is None:
        return _worst(form, vs, t_samples)
    paired = diffs @ load.pairing
    return _worst(lambda t: form(t) - load.theta(t) * paired, vs, t_samples)


def check_criterion_symmetric(family: FormFamily, pool: SamplePool,
                              alpha: float) -> CriterionReport:
    """Worst value of a(t; v, v) - a(t; Pv, Pv) over the same 9 sample times,
    for symmetric accretive forms.

    `alpha` is the family's coercivity constant, as `estimate_constants`
    gives it; the family is accretive when it is positive.
    """
    if not family.symmetric:
        raise ValueError("symmetric criterion requires a symmetric family")
    if alpha <= 0:
        raise ValueError("symmetric criterion requires an accretive (coercive) family")
    t_samples = np.linspace(0.0, family.horizon, _CRITERION_TIMES)
    vs, pvs = pool
    outer, inner = _form_values(family, vs, vs), _form_values(family, pvs, pvs)
    return _worst(lambda t: outer(t) - inner(t), vs, t_samples)


def audit_trajectory(traj: Trajectory, cset: ConvexSet) -> tuple[float, float]:
    """Max distance of the computed states from the set over the output grid,
    and the first output time that attains it."""
    dists = [cset.distance(traj.states[:, i]) for i in range(traj.grid.size)]
    k = int(np.argmax(dists))
    return dists[k], float(traj.grid[k])


def offdiagonal_sign_certificate(a: np.ndarray) -> bool:
    """True when all off-diagonal entries are <= 0.

    For box sets, whose projection is the nodewise clamp, this upgrades the
    sampled criterion to a certificate: every term of a(Pv, v - Pv) is then a
    product of nonnegative factors.
    """
    off = a - np.diag(np.diag(a))
    return bool(np.all(off <= 0.0))
