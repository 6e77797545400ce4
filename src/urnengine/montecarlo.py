"""Reproducible ensembles of exchange trials with mergeable statistics.

Determinism contract: run_ensemble(ring, trials, seed) is bit-identical for
any worker count.  Trial i derives its randomness from a counter-based Philox
stream keyed by the seed: trial i owns the fixed counter window
[i*B, (i+1)*B) of 4-word blocks (B sized so each trial has its reservoir
draws plus at least four spare words), so any partition of trials over
workers sees the same draws.  Trials are processed in fixed-size chunks
regardless of worker count; each chunk reduces to partial statistics (count,
mean, M2, per-reservoir heat means, work histogram, conservation violations)
and the partials fold into one accumulator in chunk order as they arrive,
which pins every floating point operation independent of scheduling and
keeps memory flat in the number of chunks.

Ball selection is exactly uniform: a 64-bit word r is accepted iff
r < 2^64 - (2^64 mod N), making r mod N uniform over [0, N); the rare
rejected word (probability < N/2^64 per draw) is replaced from the trial's
spare words in a deterministic order.

A trial's work is accumulated in ring order, W = ((d_0 w_0 + d_1 w_1) + ...)
with d_k = eps_k - eps_{k+1}, and the heat into reservoir k is
eps_k (w_{k-1} - w_k); so for 0/1 weights the per-trial work values land on
exactly the same floats the exact enumeration in compare_to_analytic produces.

Rings with prod_k K_k <= 2^20 draw tuples (K_k weight classes at reservoir k;
2m <= 20 for 0/1 rings) skip per-trial weights: a trial becomes the mixed-radix
code of its draw classes, each code's work is tabulated once per run in ring
order and the audit runs once per distinct drawn code, so moments, histogram
and violations equal the trial path's.  Mean heats come from per-reservoir
class counts n_kc: eps_k (S_{k-1} - S_k) / n with S_k = fsum_c w_kc n_kc.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import RingSpec, _checked_seed, mean_heats_ring, work_statistics_ring
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
_CODES = 1 << 20  # most draw codes tabulated per run, and the enumeration limit

# statistical-test acceptance threshold; |z| < 4 keeps the false-alarm rate of
# the whole suite below 0.1%.
_Z_THRESHOLD = 4.0


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
    passed: bool


class _Tables:
    """Precomputed per-ring draw tables shared by all chunks."""

    def __init__(self, ring: EngineRing):
        self.eps = [r.altitude for r in ring.reservoirs]
        n = len(self.eps)
        self.deltas = [self.eps[k] - self.eps[(k + 1) % n] for k in range(n)]
        self.weights = [np.asarray(r.weights, dtype=float) for r in ring.reservoirs]
        # class c of a ball index: the number of these boundaries at or below it
        self.bounds = [r.cumulative_counts[:-1].astype(np.uint64) for r in ring.reservoirs]
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
        # a trial's code: digit k is its class at reservoir k, stride K_0...K_{k-1}
        sizes = [len(w) for w in self.weights]
        self.strides = [math.prod(sizes[:k]) for k in range(n)]
        self.code_work = _code_work(self.deltas, self.weights) if math.prod(sizes) <= _CODES else None


@dataclass
class _Partial:
    n: int
    mean: float
    m2: float
    mean_heats: np.ndarray
    hist: dict[float, int] | np.ndarray
    violations: int


def _partial(work: np.ndarray, mean_heats: np.ndarray, hist, violations: int = 0) -> _Partial:
    mean = float(work.mean())
    return _Partial(len(work), mean, float(np.sum((work - mean) ** 2)), mean_heats, hist, violations)


def _ball_indices(tables: _Tables, key: int, lo: int, hi: int) -> np.ndarray:
    """Uniform ball indices in [0, N), shape (2m reservoirs, hi-lo trials)."""
    n_res = len(tables.eps)
    n_tr = hi - lo
    bg = np.random.Philox(key=key, counter=lo * tables.blocks_per_trial)
    raw = bg.random_raw(n_tr * tables.words_per_trial).reshape(n_tr, tables.words_per_trial)
    draws = raw[:, :n_res]
    spares = raw[:, n_res:]
    if tables.threshold is not None and draws.max() >= tables.threshold:
        cursor = np.zeros(n_tr, dtype=np.int64)  # next spare word per trial
        # trial-major order: each trial's spares replace its draws in ring order
        for t, k in zip(*np.nonzero(draws >= tables.threshold)):
            while True:
                c = cursor[t]
                if c >= spares.shape[1]:
                    raise RuntimeError("rejection spares exhausted; change the seed")
                cursor[t] = c + 1
                if spares[t, c] < tables.threshold:
                    draws[t, k] = spares[t, c]
                    break
    return np.remainder(draws.T, np.uint64(tables.total), order="C")


def _work_audit(tables: _Tables, column, heat_sums: np.ndarray | None = None):
    """Work and conservation-audit verdict per row from ``column(k)``, the
    drawn weights of reservoir k, summed in ring order; fills
    ``heat_sums[k]`` with reservoir k's heats summed in row order, if given.
    The audit bounds the residual by its summands, not by |W|: with equal
    draws the heats are 0 and W is rounding residue."""
    n_res = len(tables.eps)
    work = np.zeros_like(column(0))
    scale = np.zeros_like(work)
    for k in range(n_res):
        term = tables.deltas[k] * column(k)
        work += term
        scale += np.abs(term, out=term)
    residual = work.copy()
    for k in range(n_res):
        q = tables.eps[k] * (column((k - 1) % n_res) - column(k))
        if heat_sums is not None:  # a running sum, not np.sum's pairwise one
            heat_sums[k] = np.cumsum(q)[-1]
        residual += q
        scale += np.abs(q, out=q)
    return work, np.abs(residual) > 1e-12 * scale


def _code_work(deltas, weights) -> np.ndarray:
    """Work of every draw code in ring order, like the trial path: codes with
    class c at reservoir k are those below its stride plus c strides, with
    d_k w_c added (nothing for w = 0)."""
    work = np.zeros(1)
    for d, w in zip(deltas, weights):
        work = np.concatenate([work + d * wc if wc else work for wc in w])
    return work


def _histogram(tables: _Tables, work: np.ndarray, counts: np.ndarray | None = None):
    """Histogram of work values drawn ``counts`` times each (once if None):
    256 fixed-width bin counts for general weights, else exact sorted keys
    (0/1 weights, or a degenerate support)."""
    s_lo, s_hi = tables.support
    width = (s_hi - s_lo) / _HIST_BINS
    if not tables.two_level and width > 0.0:
        idx = np.clip(((work - s_lo) / width).astype(np.int64), 0, _HIST_BINS - 1)
        return np.bincount(idx, weights=counts, minlength=_HIST_BINS)
    if counts is None:
        vals, keyed = np.unique(work, return_counts=True)
    else:
        vals, inverse = np.unique(work, return_inverse=True)
        keyed = np.bincount(inverse, weights=counts)
    return {float(v): int(c) for v, c in zip(vals, keyed)}


def _code_summary(tables: _Tables, counts: np.ndarray):
    """Histogram and audit violations of a histogram of codes, each drawn
    code evaluated once and weighted by its count."""
    codes = np.flatnonzero(counts)
    drawn = counts[codes]
    cols = [w[codes // s % len(w)] for w, s in zip(tables.weights, tables.strides)]
    work, bad = _work_audit(tables, lambda k: cols[k])
    return _histogram(tables, work, drawn), int(drawn[bad].sum())


def _code_stats(tables: _Tables, balls: np.ndarray) -> _Partial:
    """Chunk partial from ball indices via one draw code per trial.  Its
    histogram is the code counts; violations are counted after the merge."""
    n_tr = balls.shape[1]
    code = np.zeros(n_tr, dtype=np.intp)
    sums = []  # S_k = sum_c w_kc n_kc, the products summed by math.fsum
    for k, r in enumerate(balls):
        at_least = [n_tr]  # draws of class >= c: one comparison per boundary
        for b in tables.bounds[k]:
            above = r >= b
            code += above * tables.strides[k]
            at_least.append(np.count_nonzero(above))
        drawn = [a - b for a, b in zip(at_least, at_least[1:] + [0])]
        sums.append(math.fsum(w * c for w, c in zip(tables.weights[k].tolist(), drawn)))
    counts = np.bincount(code, minlength=len(tables.code_work))
    sums = np.array(sums)
    mean_heats = np.asarray(tables.eps) * (np.roll(sums, 1) - sums) / n_tr
    return _partial(tables.code_work[code], mean_heats, counts)


def _trial_stats(tables: _Tables, balls: np.ndarray) -> _Partial:
    """Chunk partial of any ring from its ball indices, trial by trial."""
    w = np.empty(balls.shape[::-1])
    for k, r in enumerate(balls):
        w[:, k] = tables.weights[k][np.searchsorted(tables.bounds[k], r, side="right")]
    heat_sums = np.empty(len(balls))
    work, bad = _work_audit(tables, lambda k: w[:, k], heat_sums)
    return _partial(work, heat_sums / len(work), _histogram(tables, work), int(np.count_nonzero(bad)))


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
    stats = _trial_stats if tables.code_work is None else _code_stats
    # partials fold into the accumulator in chunk order as they arrive
    acc = None
    with ThreadPoolExecutor(max_workers=workers) as pool:
        mapper = map if workers == 1 or len(ranges) == 1 else pool.map
        for part in mapper(lambda r: stats(tables, _ball_indices(tables, key, *r)), ranges):
            acc = part if acc is None else _merge(acc, part)

    var = acc.m2 / (acc.n - 1) if acc.n > 1 else 0.0
    if var < 0.0:
        var = 0.0
    hist, violations, bin_width = acc.hist, acc.violations, None
    if tables.code_work is not None:
        hist, violations = _code_summary(tables, hist)  # exact keys come sorted
    elif isinstance(hist, dict):
        hist = dict(sorted(hist.items()))
    if not isinstance(hist, dict):
        s_lo, s_hi = tables.support
        bin_width = (s_hi - s_lo) / _HIST_BINS
        hist = {float(s_lo + j * bin_width): int(c) for j, c in enumerate(hist) if c > 0}
    mean_heats = acc.mean_heats.copy()
    mean_heats.flags.writeable = False
    return EnsembleStats(
        trials=acc.n,
        mean_work=acc.mean,
        var_work=var,
        stderr_work=math.sqrt(var / acc.n),
        mean_heats=mean_heats,
        histogram=hist,
        seed=seed,
        bin_width=bin_width,
        conservation_violations=violations,
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
    if 2**n > _CODES:
        raise ValueError("enumeration limited to 2m <= 20 reservoirs")
    eps = spec.altitudes
    f = spec.bernoulli_f
    d = eps - np.roll(eps, -1)
    work = _code_work(d, [(0.0, 1.0)] * n)
    prob = np.ones(1)
    for fk in f:
        prob = np.concatenate([prob * (1.0 - fk), prob * fk])
    values, inverse = np.unique(work, return_inverse=True)
    probs = np.bincount(inverse, weights=prob)
    return values, probs


def compare_to_analytic(stats: EnsembleStats, spec: RingSpec) -> ComparisonReport:
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
            # a power of two scales max |d_k| into [0.5, 1): exact, and d**4
            # and variance**2 cannot overflow at extreme altitudes
            e = -math.frexp(float(np.abs(d).max()))[1]
            d = np.ldexp(d, e)
            var = math.ldexp(ws.variance, 2 * e)
            pq = f * (1.0 - f)
            kappa4 = float((d**4) @ (pq * (1.0 - 6.0 * pq)))
            mu4 = kappa4 + 3.0 * var**2
            se_var = math.sqrt((mu4 - var**2 * (n - 3) / (n - 1)) / n)
            z_var = (math.ldexp(stats.var_work, 2 * e) - var) / se_var
        elif ws.variance == 0.0:
            exact_match = stats.var_work == 0.0 and stats.mean_work == ws.mean
        if 2**len(spec.altitudes) <= _CODES and stats.bin_width is None:
            values, probs = exact_work_distribution(spec)
            keys = np.fromiter(stats.histogram, dtype=float, count=len(stats.histogram))
            freq = np.fromiter(stats.histogram.values(), dtype=float, count=len(keys)) / n
            pos = np.minimum(np.searchsorted(values, keys), len(values) - 1)
            hit = values[pos] == keys
            unseen = np.ones(len(values), dtype=bool)
            unseen[pos[hit]] = False
            expected = np.where(hit, probs[pos], 0.0)
            tv = 0.5 * float(np.abs(freq - expected).sum() + probs[unseen].sum())

    z_mean: float | None = None
    if stats.stderr_work > 0.0:
        z_mean = (stats.mean_work - analytic_mean) / stats.stderr_work

    passed = True
    for z in (z_mean, z_var):
        if z is not None and not abs(z) < _Z_THRESHOLD:
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
        passed=passed,
    )
