"""Closed-form work statistics for the discrete exchange engine.

Mean quantities depend on populations only through the mean drawn weight
f_k = w_k/N of each reservoir: per cycle,

    <Q_k> = eps_k * (f_{k-1} - f_k)           (cyclic, heat into reservoir k)
    <W>   = sum_k (eps_k - eps_{k+1}) * f_k = -<Q_low> - <Q_high>

For the 0/1-weight model each draw is an independent Bernoulli(f_k) variable,
so the work, a weighted sum of independent draws, has

    Var(W) = sum_k (eps_k - eps_{k+1})^2 * f_k * (1 - f_k)

and Var(W)/<W> measures the relative fluctuation of one cycle's output.  The
same independence argument gives the general-weight extension
sum_k (eps_k - eps_{k+1})^2 * Var(w_k), exposed separately.

The two-reservoir Otto engine is the m = 1 ring (``RingSpec.from_counts``);
its efficiency 1 - eps_l/eps_h depends only on the altitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .thermo import occupancy_np

__all__ = _EXPORTS["analytic"]


@dataclass(frozen=True, eq=False)
class RingSpec:
    """Per-reservoir description of a 2m-ring: altitude, mean weight, and
    (for 0/1 populations) the excited fraction driving the variance model,
    which is the mean weight itself.

    Index convention is cyclic with k = 0..2m-1, the first m entries the low
    group; index -1 wraps to 2m-1.
    """

    altitudes: np.ndarray
    mean_weights: np.ndarray
    bernoulli_f: np.ndarray | None = None

    def __post_init__(self) -> None:
        eps = np.array(self.altitudes, dtype=float)
        f = np.array(self.mean_weights, dtype=float)
        object.__setattr__(self, "altitudes", eps)
        object.__setattr__(self, "mean_weights", f)
        n = eps.shape[0] if eps.ndim == 1 else 0
        if n < 2 or n % 2 != 0 or f.shape != (n,):
            raise ValueError("ring must hold 2m >= 2 reservoirs")
        if not np.all(np.isfinite(eps)) or np.any(eps <= 0.0):
            raise ValueError("invalid altitude")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0):
            raise ValueError("invalid population")
        if self.bernoulli_f is not None:
            b = np.asarray(self.bernoulli_f, dtype=float)
            if b.shape != (n,) or (b != f).any() or (f > 1.0).any():
                raise ValueError("invalid population")
            object.__setattr__(self, "bernoulli_f", f)
        eps.flags.writeable = False
        f.flags.writeable = False

    @classmethod
    def from_counts(cls, altitudes, excited, total: int) -> "RingSpec":
        """0/1-weight ring with ``excited[k]`` of ``total`` balls at weight 1.

        Every low altitude must lie below every high one; at m = 1 that is
        the Otto engine's 0 < eps_l < eps_h.
        """
        eps = np.asarray(altitudes, dtype=float)
        n = np.asarray(excited)
        if eps.ndim != 1 or eps.size < 2 or eps.size % 2 != 0 or n.shape != eps.shape:
            raise ValueError("ring must hold 2m >= 2 reservoirs")
        if np.any(n < 0) or np.any(n > total):
            raise ValueError("invalid population")
        m = eps.size // 2
        if not (0.0 < eps.min() and eps[:m].max() < eps[m:].min() and np.isfinite(eps).all()):
            raise ValueError("invalid altitude order")
        if total < 1:
            raise ValueError("empty reservoir")
        f = n / total
        return cls(altitudes=eps, mean_weights=f, bernoulli_f=f)

    @property
    def m(self) -> int:
        return len(self.altitudes) // 2


@dataclass(frozen=True)
class WorkStatistics:
    """Mean and variance of one cycle's work; ratio is None when mean = 0."""

    mean: float
    variance: float
    ratio: float | None


def efficiency_otto(eps_l: float, eps_h: float) -> float:
    """Engine efficiency 1 - eps_l/eps_h; populations drop out entirely."""
    if not (0.0 < eps_l < eps_h):
        raise ValueError("invalid altitude order")
    return 1.0 - eps_l / eps_h


def _ring_heats(eps, f):
    """Group heats and work of a ring: (Q_low, Q_high, W).

    ``eps[k]`` and ``f[k]`` are reservoir k's altitude and mean weight, low
    group first: Python floats for one ring, or arrays holding one entry per
    ring for a batch.  Heats add in ring order either way, so a ring gets the
    same bits alone and in a batch; W = -(Q_low + Q_high) by energy
    conservation.
    """
    m = len(eps) // 2
    q_low = eps[0] * (f[-1] - f[0])
    q_high = eps[m] * (f[m - 1] - f[m])
    for k in range(1, m):
        q_low += eps[k] * (f[k - 1] - f[k])
        q_high += eps[m + k] * (f[m + k - 1] - f[m + k])
    return q_low, q_high, -(q_low + q_high)


def _checked_seed(seed: int) -> int:
    """The seed itself, if it is a 64-bit key; a domain error otherwise."""
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must be in [0, 2**64)")
    return seed


def _equilibrium_weights(beta_l: float, beta_h: float, eps: np.ndarray) -> np.ndarray:
    """Thermal occupancies f(beta*eps) over the last axis (low half, high half)."""
    m = eps.shape[-1] // 2
    f = np.empty_like(eps)
    f[..., :m] = occupancy_np(float(beta_l) * eps[..., :m])
    f[..., m:] = occupancy_np(float(beta_h) * eps[..., m:])
    return f


def mean_heats_ring(spec: RingSpec) -> tuple[float, float, float]:
    """Group heats (Q_low, Q_high) and mean work W = -(Q_low + Q_high); one
    that overflows a float is a domain error."""
    heats = _ring_heats(spec.altitudes.tolist(), spec.mean_weights.tolist())
    if not all(map(math.isfinite, heats)):
        raise ValueError("mean heats too large for a float")
    return heats


def work_statistics_ring(spec: RingSpec) -> WorkStatistics:
    """Exact mean/variance of one cycle's work for the 0/1-weight model."""
    if spec.bernoulli_f is None:
        raise ValueError("bernoulli fractions required for the 0/1 variance model")
    f = spec.bernoulli_f
    return work_statistics_general(spec.altitudes, f, f * (1.0 - f))


def work_statistics_general(
    altitudes: np.ndarray, mean_weights: np.ndarray, weight_variances: np.ndarray
) -> WorkStatistics:
    """Work statistics for arbitrary per-reservoir weight distributions.

    Extension of the 0/1 model: draws stay independent across reservoirs, so
    Var(W) = sum_k (eps_k - eps_{k+1})^2 Var(w_k) for any weight law; the 0/1
    case is Var(w) = f(1-f).
    """
    eps = np.asarray(altitudes, dtype=float)
    mw = np.asarray(mean_weights, dtype=float)
    vw = np.asarray(weight_variances, dtype=float)
    if eps.shape != mw.shape or eps.shape != vw.shape or eps.ndim != 1:
        raise ValueError("ring arrays must have equal 1-d shapes")
    if np.any(vw < 0.0):
        raise ValueError("invalid population")
    d = eps - np.roll(eps, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(d @ mw)
        variance = float((d * d) @ vw)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ValueError("work statistics too large for a float")
    ratio = variance / mean if mean != 0.0 else None
    return WorkStatistics(mean=mean, variance=variance, ratio=ratio)


def equilibrium_ring(
    beta_l: float, beta_h: float, eps_low: np.ndarray, eps_high: np.ndarray
) -> RingSpec:
    """RingSpec with every sub-reservoir at its thermal occupancy f(beta*eps).

    ``eps_low``/``eps_high`` are the altitude sequences of the cold and hot
    branches, in ring order.
    """
    lo = np.asarray(eps_low, dtype=float)
    hi = np.asarray(eps_high, dtype=float)
    if lo.ndim != 1 or lo.shape != hi.shape or lo.size == 0:
        raise ValueError("branches must be equal-length non-empty sequences")
    eps = np.concatenate([lo, hi])
    f = _equilibrium_weights(beta_l, beta_h, eps)
    return RingSpec(altitudes=eps, mean_weights=f, bernoulli_f=f)
