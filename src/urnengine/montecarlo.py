"""Reproducible ensembles of exchange trials with mergeable statistics.

Determinism contract: run_ensemble(ring, trials, seed) is bit-identical for
any worker count.  Trial i derives its randomness from a counter-based Philox
stream keyed by the seed: trial i owns the fixed counter window
[i*B, (i+1)*B) of 4-word blocks (B sized so each trial has its reservoir
draws plus at least four spare words), so any partition of trials over
workers sees the same draws.  Trials are processed in fixed-size chunks
regardless of worker count; each chunk reduces to partial statistics (count,
mean, M2, per-reservoir heat means, work histogram, conservation violations)
and the partials merge pairwise in chunk order, which pins every floating
point operation independent of scheduling.

Ball selection is exactly uniform: a 64-bit word r is accepted iff
r < 2^64 - (2^64 mod N), making r mod N uniform over [0, N); the rare
rejected word (probability < N/2^64 per draw) is replaced from the trial's
spare words in a deterministic order.

Work and heats use the same accumulation order as urn.exchange_step, so for
0/1 weights the per-trial work values land on exactly the same floats the
exact enumeration in compare_to_analytic produces.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import RingSpec, mean_heats_ring, work_statistics_ring
from .urn import EngineRing

__all__ = [
    "EnsembleStats",
    "ComparisonReport",
    "run_ensemble",
    "compare_to_analytic",
    "exact_work_distribution",
    "ring_spec_of",
]

_CHUNK = 16384  # trials per accumulation chunk; fixed so worker count cannot affect results
_WORD = 1 << 64
_HIST_BINS = 256

# statistical-test acceptance threshold; |z| < 4 keeps the false-alarm rate of
# the whole suite below 0.1%.  Tunable per call in compare_to_analytic.
DEFAULT_Z_THRESHOLD = 4.0


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Summary of one ensemble: moments of work, per-reservoir heat means,
    work histogram (exact value keys for 0/1 rings, else 256 fixed-width bins
    keyed by left edge), and the seed that reproduces it.
    """

    trials: int
    mean_work: float
    var_work: float
    stderr_work: float
    mean_heats: np.ndarray
    histogram: dict[float, int]
    seed: int
    bin_width: float | None
    conservation_violations: int


@dataclass(frozen=True)
class ComparisonReport:
    """z-scores and exact-enumeration checks of an ensemble vs the analytic model."""

    analytic_mean: float
    analytic_variance: float | None
    z_mean: float | None
    z_var: float | None
    tv_distance: float | None
    exact_match: bool | None
    threshold: float
    passed: bool


class _Tables:
    """Precomputed per-ring draw tables shared by all chunks."""

    def __init__(self, ring: EngineRing):
        self.eps = [r.altitude for r in ring.reservoirs]
        n = len(self.eps)
        self.deltas = [self.eps[k] - self.eps[(k + 1) % n] for k in range(n)]
        self.weights = [np.asarray(r.weights, dtype=float) for r in ring.reservoirs]
        self.cums = [np.asarray(r.cumulative_counts) for r in ring.reservoirs]
        self.total = ring.total
        rem = _WORD % self.total
        self.threshold = np.uint64(_WORD - rem) if rem else None
        self.two_level = all(r.is_two_level for r in ring.reservoirs)
        # raw words per trial: one per reservoir plus >= 4 spares, block-aligned
        self.blocks_per_trial = (n + 4 + 3) // 4
        self.words_per_trial = 4 * self.blocks_per_trial
        # work support bounds, for fixed-width binning of general weights
        lo = hi = 0.0
        for k in range(n):
            contrib = self.deltas[k] * self.weights[k]
            lo += float(contrib.min())
            hi += float(contrib.max())
        self.support = (lo, hi)


@dataclass
class _Partial:
    n: int
    mean: float
    m2: float
    mean_heats: np.ndarray
    hist: dict[float, int] | np.ndarray
    violations: int


def _checked_seed(seed: int) -> int:
    """The seed itself, if it is a 64-bit key; a domain error otherwise."""
    if not 0 <= seed < _WORD:
        raise ValueError("seed must be in [0, 2**64)")
    return seed


def _draw_weights(tables: _Tables, key: int, lo: int, hi: int) -> np.ndarray:
    """Weight matrix (hi-lo trials, 2m reservoirs) for the trial window [lo, hi)."""
    n_res = len(tables.eps)
    n_tr = hi - lo
    bg = np.random.Philox(key=key, counter=lo * tables.blocks_per_trial)
    raw = bg.random_raw(n_tr * tables.words_per_trial).reshape(n_tr, tables.words_per_trial)
    draws = raw[:, :n_res]
    spares = raw[:, n_res:]
    cursor = np.zeros(n_tr, dtype=np.int64)  # next spare word per trial
    total = np.uint64(tables.total)
    out = np.empty((n_tr, n_res), dtype=float)
    for k in range(n_res):
        r = draws[:, k].copy()
        if tables.threshold is not None:
            for t in np.nonzero(r >= tables.threshold)[0]:
                # deterministic replacement from this trial's spares
                while True:
                    c = cursor[t]
                    if c >= spares.shape[1]:
                        raise RuntimeError("rejection spares exhausted; change the seed")
                    cursor[t] = c + 1
                    if spares[t, c] < tables.threshold:
                        r[t] = spares[t, c]
                        break
        idx = (r % total).astype(np.int64)
        classes = np.searchsorted(tables.cums[k], idx, side="right")
        out[:, k] = tables.weights[k][classes]
    return out


def _chunk_stats(tables: _Tables, key: int, lo: int, hi: int) -> _Partial:
    n_res = len(tables.eps)
    w = _draw_weights(tables, key, lo, hi)
    work = np.zeros(hi - lo)
    # the audit bounds the residual by its summands, not by |W|: when every
    # draw has the same weight the heats are 0 and W is pure rounding residue
    scale = np.zeros(hi - lo)
    for k in range(n_res):
        term = tables.deltas[k] * w[:, k]
        work += term
        scale += np.abs(term, out=term)
    heats = np.empty_like(w)
    # conservation audit: same left-to-right order as CycleOutcome
    residual = work.copy()
    for k in range(n_res):
        q = tables.eps[k] * (w[:, k - 1] - w[:, k])
        heats[:, k] = q
        residual += q
        scale += np.abs(q, out=q)
    violations = int(np.count_nonzero(np.abs(residual) > 1e-12 * scale))

    mean = float(work.mean())
    m2 = float(np.sum((work - mean) ** 2))
    mean_heats = heats.mean(axis=0)

    hist: dict[float, int] | np.ndarray
    if tables.two_level:
        vals, counts = np.unique(work, return_counts=True)
        hist = {float(v): int(c) for v, c in zip(vals, counts)}
    else:
        s_lo, s_hi = tables.support
        width = (s_hi - s_lo) / _HIST_BINS
        if width > 0.0:
            idx = np.clip(((work - s_lo) / width).astype(np.int64), 0, _HIST_BINS - 1)
            hist = np.bincount(idx, minlength=_HIST_BINS)
        else:  # degenerate support: a single exact key
            vals, counts = np.unique(work, return_counts=True)
            hist = {float(v): int(c) for v, c in zip(vals, counts)}
    return _Partial(hi - lo, mean, m2, mean_heats, hist, violations)


def _merge(a: _Partial, b: _Partial) -> _Partial:
    n = a.n + b.n
    delta = b.mean - a.mean
    ratio = b.n / n
    mean = a.mean + delta * ratio
    m2 = a.m2 + b.m2 + delta * delta * (a.n * ratio)
    mean_heats = a.mean_heats + (b.mean_heats - a.mean_heats) * ratio
    if isinstance(a.hist, dict):
        hist: dict[float, int] | np.ndarray = dict(a.hist)
        for v, c in b.hist.items():  # type: ignore[union-attr]
            hist[v] = hist.get(v, 0) + c
    else:
        hist = a.hist + b.hist
    return _Partial(n, mean, m2, mean_heats, hist, a.violations + b.violations)


def run_ensemble(ring: EngineRing, trials: int, seed: int, workers: int = 1) -> EnsembleStats:
    """Simulate ``trials`` independent cycles from the same initial ring.

    Bit-identical output for fixed (ring, trials, seed), whatever ``workers``
    is; see the module docstring for the splitting scheme.
    """
    if trials < 1:
        raise ValueError("empty ensemble")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    key = _checked_seed(seed)
    tables = _Tables(ring)
    ranges = [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]
    if workers == 1 or len(ranges) == 1:
        partials = [_chunk_stats(tables, key, lo, hi) for lo, hi in ranges]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda r: _chunk_stats(tables, key, r[0], r[1]), ranges))
    acc = partials[0]
    for part in partials[1:]:
        acc = _merge(acc, part)

    var = acc.m2 / (acc.n - 1) if acc.n > 1 else 0.0
    if var < 0.0:
        var = 0.0
    if isinstance(acc.hist, dict):
        histogram = dict(sorted(acc.hist.items()))
        bin_width = None
    else:
        s_lo, s_hi = tables.support
        width = (s_hi - s_lo) / _HIST_BINS
        histogram = {
            float(s_lo + j * width): int(c) for j, c in enumerate(acc.hist) if c > 0
        }
        bin_width = width
    mean_heats = acc.mean_heats.copy()
    mean_heats.flags.writeable = False
    return EnsembleStats(
        trials=acc.n,
        mean_work=acc.mean,
        var_work=var,
        stderr_work=math.sqrt(var / acc.n),
        mean_heats=mean_heats,
        histogram=histogram,
        seed=seed,
        bin_width=bin_width,
        conservation_violations=acc.violations,
    )


def ring_spec_of(ring: EngineRing) -> RingSpec:
    """Analytic description of a ring; bernoulli_f only when all weights are 0/1."""
    f = np.array([r.mean_weight for r in ring.reservoirs])
    two_level = all(r.is_two_level for r in ring.reservoirs)
    return RingSpec(
        altitudes=ring.altitudes,
        mean_weights=f,
        bernoulli_f=f if two_level else None,
    )


def exact_work_distribution(spec: RingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact work distribution of the 0/1 model by enumerating all 2^(2m) outcomes.

    Work values are accumulated in the same order as the simulation, so the
    support floats match the simulated histogram keys bit for bit.
    """
    if spec.bernoulli_f is None:
        raise ValueError("bernoulli fractions required for the 0/1 variance model")
    n = len(spec.altitudes)
    if n > 20:
        raise ValueError("enumeration limited to 2m <= 20 reservoirs")
    eps = spec.altitudes
    f = spec.bernoulli_f
    d = eps - np.roll(eps, -1)
    bits = (np.arange(1 << n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    work = np.zeros(1 << n)
    prob = np.ones(1 << n)
    for k in range(n):
        x = bits[:, k].astype(float)
        work += d[k] * x
        prob *= np.where(bits[:, k] == 1, f[k], 1.0 - f[k])
    values, inverse = np.unique(work, return_inverse=True)
    probs = np.bincount(inverse, weights=prob)
    return values, probs


def compare_to_analytic(
    stats: EnsembleStats, spec: RingSpec, z_threshold: float = DEFAULT_Z_THRESHOLD
) -> ComparisonReport:
    """Statistical agreement between an ensemble and the analytic model.

    z_mean uses the run's own standard error; z_var uses the exact sampling
    variance of the sample variance (via the analytic fourth moment) for the
    0/1 model.  When 2m <= 20 and the histogram has exact keys, the empirical
    distribution is compared to the enumerated one by total-variation
    distance.  Deterministic rings (all f in {0,1}) have no defined z-scores;
    they report an exact_match flag instead.
    """
    if len(stats.mean_heats) != len(spec.altitudes):
        raise ValueError("spec/stats mismatch")
    analytic_mean = mean_heats_ring(spec)[2]
    n = stats.trials

    analytic_variance: float | None = None
    z_var: float | None = None
    exact_match: bool | None = None
    tv: float | None = None

    if spec.bernoulli_f is not None:
        ws = work_statistics_ring(spec)
        analytic_mean = ws.mean  # single-sum form, comparable for exact_match
        analytic_variance = ws.variance
        if ws.variance > 0.0 and n > 1:
            eps = spec.altitudes
            f = spec.bernoulli_f
            d = eps - np.roll(eps, -1)
            pq = f * (1.0 - f)
            kappa4 = float((d**4) @ (pq * (1.0 - 6.0 * pq)))
            mu4 = kappa4 + 3.0 * ws.variance**2
            se_var = math.sqrt((mu4 - ws.variance**2 * (n - 3) / (n - 1)) / n)
            z_var = (stats.var_work - ws.variance) / se_var
        elif ws.variance == 0.0:
            exact_match = stats.var_work == 0.0 and stats.mean_work == ws.mean
        if len(spec.altitudes) <= 20 and stats.bin_width is None:
            values, probs = exact_work_distribution(spec)
            table = {float(v): p for v, p in zip(values, probs)}
            tv = 0.0
            for v, c in stats.histogram.items():
                tv += abs(c / n - table.pop(v, 0.0))
            tv = 0.5 * (tv + sum(table.values()))

    z_mean: float | None = None
    if stats.stderr_work > 0.0:
        z_mean = (stats.mean_work - analytic_mean) / stats.stderr_work

    passed = True
    for z in (z_mean, z_var):
        if z is not None and not abs(z) < z_threshold:
            passed = False
    if exact_match is False:
        passed = False
    return ComparisonReport(
        analytic_mean=analytic_mean,
        analytic_variance=analytic_variance,
        z_mean=z_mean,
        z_var=z_var,
        tv_distance=tv,
        exact_match=exact_match,
        threshold=z_threshold,
        passed=passed,
    )
