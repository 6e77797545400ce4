"""Closed-form work statistics for the discrete exchange engine.

A ring describes reservoir k by its altitude eps_k and the law of the weight
w_k drawn there: weight values with their probabilities.  Mean quantities
depend on the laws only through the mean weights f_k = E[w_k]: per cycle,

    <Q_k> = eps_k * (f_{k-1} - f_k)           (cyclic, heat into reservoir k)
    <W>   = sum_k (eps_k - eps_{k+1}) * f_k = -<Q_low> - <Q_high>

The work is a weighted sum of independent draws, so its cumulants are
kappa_n(W) = sum_k (eps_k - eps_{k+1})^n * kappa_n(w_k).  For the 0/1 model
(law ((0, 1), (1 - f, f))) the variance term is f_k (1 - f_k), and
Var(W)/<W> measures the relative fluctuation of one cycle's output.

A ring of balls (``RingSpec.from_populations``) also keeps its integer ball
counts, which the Monte Carlo replay of ``montecarlo`` draws from; the same
spec gives its closed forms here.  The two-reservoir Otto engine is the
m = 1 ring; where it runs as an engine its efficiency W/(-Q_h) is
1 - eps_l/eps_h, which depends only on the altitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _EXPORTS
from .thermo import occupancy_np

__all__ = _EXPORTS["analytic"]


def _law_cumulants(values: tuple[float, ...], probs: tuple[float, ...]) -> tuple[float, float]:
    """Variance and fourth cumulant of one weight law: (b-a)^2 pq and
    (b-a)^4 pq(1-6pq) for two values a, b at probabilities p, q; central
    moments mu_2 and mu_4 - 3 mu_2^2 otherwise."""
    if len(values) == 2:
        (a, b), (p, q) = values, probs
        pq = p * q
        return (b - a) ** 2 * pq, (b - a) ** 4 * (pq * (1.0 - 6.0 * pq))
    mean = math.fsum(v * p for v, p in zip(values, probs))
    mu2 = math.fsum(p * (v - mean) ** 2 for v, p in zip(values, probs))
    mu4 = math.fsum(p * (v - mean) ** 4 for v, p in zip(values, probs))
    return mu2, mu4 - 3.0 * mu2 * mu2


@dataclass(frozen=True, eq=False)
class RingSpec:
    """Per-reservoir description of a 2m-ring: altitude and weight law.

    ``laws[k]`` is ``(values, probs)``: the weights a draw at reservoir k can
    carry, each finite and >= 0, and their probabilities, which sum to 1.
    The mean weights, the per-reservoir cumulants and ``two_level`` (every
    value 0 or 1: the 0/1 model) derive from the laws.  A spec built by
    ``from_populations`` also holds ``counts[k]``, the ball count of each of
    reservoir k's values, and ``total``, the N balls of every reservoir;
    other specs hold None there and cannot be sampled.

    Index convention is cyclic with k = 0..2m-1, the first m entries the low
    group; index -1 wraps to 2m-1.
    """

    altitudes: np.ndarray
    laws: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]
    mean_weights: np.ndarray = field(init=False, repr=False)  # f_k, the mean weight at reservoir k
    counts: tuple[tuple[int, ...], ...] | None = field(init=False, default=None, repr=False)
    total: int | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        eps = np.array(self.altitudes, dtype=float)
        laws = tuple((tuple(map(float, v)), tuple(map(float, p))) for v, p in self.laws)
        n = eps.shape[0] if eps.ndim == 1 else 0
        if n < 2 or n % 2 != 0 or len(laws) != n:
            raise ValueError("ring must hold 2m >= 2 reservoirs")
        if not np.all(np.isfinite(eps)) or np.any(eps <= 0.0):
            raise ValueError("invalid altitude")
        for values, probs in laws:
            if not (len(values) == len(probs) > 0
                    and all(0.0 <= v < math.inf for v in values)
                    and all(0.0 <= p for p in probs)
                    and abs(math.fsum(probs) - 1.0) <= 1e-12):
                raise ValueError("invalid population")
        f = np.array([math.fsum(v * p for v, p in zip(*law)) for law in laws])
        eps.flags.writeable = f.flags.writeable = False
        object.__setattr__(self, "altitudes", eps)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "mean_weights", f)

    @classmethod
    def bernoulli(cls, altitudes, f) -> "RingSpec":
        """0/1-weight ring: weight 1 at reservoir k with probability ``f[k]``."""
        f = np.ravel(f).astype(float).tolist()
        return cls(altitudes, tuple(((0.0, 1.0), (1.0 - fk, fk)) for fk in f))

    @classmethod
    def from_populations(cls, altitudes, populations) -> "RingSpec":
        """Ring of weighted balls: ``populations[k]`` maps each weight at
        reservoir k to its ball count, N < 2^63 balls in every reservoir.

        Classes are sorted and empty ones dropped.  Class c is drawn at
        n_c/N and the first class at 1 minus the rest, so a 0/1 reservoir
        gets ``bernoulli``'s law at f = n_1/N bit for bit.
        """
        if len(altitudes) != len(populations):
            raise ValueError("altitudes and populations must have equal length")
        values, counts = [], []
        for population in populations:
            items = sorted(population.items())
            for w, c in items:
                if not (0.0 <= float(w) < math.inf and 0 <= c < math.inf and c == int(c)):
                    raise ValueError("invalid population")
            kept = [(float(w), int(c)) for w, c in items if int(c) > 0]
            if not kept:
                raise ValueError("empty reservoir")
            if sum(c for _, c in kept) >= 2**63:  # counts and N are int64
                raise ValueError("invalid population")
            values.append(tuple(w for w, _ in kept))
            counts.append(tuple(c for _, c in kept))
        totals = set(map(sum, counts))
        if len(totals) != 1:
            raise ValueError("all reservoirs must hold the same number of balls")
        total = totals.pop()
        laws = []
        for v, n in zip(values, counts):
            rest = (np.array(n[1:], dtype=np.int64) / total).tolist()
            # past N = 2^53 the rounded rest may sum above 1 by a few ulp
            laws.append((v, [max(0.0, 1.0 - math.fsum(rest)), *rest]))
        spec = cls(altitudes, laws)
        object.__setattr__(spec, "counts", tuple(counts))
        object.__setattr__(spec, "total", total)
        return spec

    @property
    def m(self) -> int:
        return len(self.altitudes) // 2

    @cached_property
    def cumulants(self) -> tuple[np.ndarray, np.ndarray]:
        """Variance and fourth cumulant of each reservoir's weight."""
        var, kappa4 = map(np.array, zip(*(_law_cumulants(*law) for law in self.laws)))
        var.flags.writeable = kappa4.flags.writeable = False
        return var, kappa4

    @property
    def two_level(self) -> bool:
        """True when every weight value is 0 or 1."""
        return all(v in (0.0, 1.0) for values, _ in self.laws for v in values)


@dataclass(frozen=True)
class WorkStatistics:
    """Mean and variance of one cycle's work; ratio is None when the mean is
    0 up to rounding."""

    mean: float
    variance: float
    ratio: float | None


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


def _ring_sum(coeffs: np.ndarray, values: np.ndarray) -> float:
    """sum_k coeffs[k] * values[k], added in ring order from 0.0 as a trial
    adds its work, so no BLAS kernel's order or fused multiply-add enters."""
    total = 0.0
    for c, x in zip(coeffs.tolist(), values.tolist()):
        total += c * x
    return total


def work_statistics_ring(spec: RingSpec) -> WorkStatistics:
    """Exact mean and variance of one cycle's work, for any weight laws:
    draws are independent across reservoirs, so Var(W) = sum_k
    (eps_k - eps_{k+1})^2 Var(w_k), each sum added in ring order.  A mean
    within 1e-12 sum_k |d_k mu_k| of 0 is rounding residue, as in the
    conservation audit, and has no ratio."""
    d = spec.altitudes - np.roll(spec.altitudes, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _ring_sum(d, spec.mean_weights)
        scale = float(np.abs(d * spec.mean_weights).sum())
        variance = _ring_sum(d * d, spec.cumulants[0])
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ValueError("work statistics too large for a float")
    ratio = variance / mean if abs(mean) > 1e-12 * scale else None
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
    return RingSpec.bernoulli(eps, _equilibrium_weights(beta_l, beta_h, eps))
