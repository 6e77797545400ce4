"""Reproducible ensembles of exchange trials with mergeable statistics.

Determinism contract: run_ensemble(ring, trials, seed) is bit-identical for
any worker count.  Trials are processed in fixed-size chunks of _CHUNK trials
regardless of worker count, and chunk c draws all its ball indices from its
own stream, Philox keyed by the seed with counter c << 192, so any partition
of chunks over workers sees the same draws.  Chunk streams start 2^192
counter blocks apart, so no chunk reads another's words.  Each chunk reduces
to partial statistics (count, mean, M2, per-reservoir heat means, work
histogram, conservation violations) and the partials fold in place into one
accumulator in chunk order as they arrive, which pins every floating point
operation independent of scheduling and keeps memory flat in the number of
chunks.

Ball selection is exactly uniform: a chunk draws its (2m, chunk) array of
ball indices in [0, N) with one numpy Generator.integers call, one row per
reservoir, and numpy resamples each draw that Lemire's multiply-and-reject
method rejects from the chunk's own stream, so every N up to 2^63 - 1 runs,
whatever the seed.  When N <= 2^32 the indices are uint32 and each takes one
32-bit half-word; otherwise they are uint64.  Memory is bounded by one (2m, _CHUNK) index array per chunk in
flight; the trial path holds drawn weights _BLOCK trials at a time, and no
result depends on _BLOCK.

A trial's work is accumulated in ring order, W = ((d_0 w_0 + d_1 w_1) + ...)
with d_k = eps_k - eps_{k+1}, and the heat into reservoir k is
eps_k (w_{k-1} - w_k); so the per-trial work values land on exactly the same
floats as the exact enumeration of exact_work_distribution.

Rings with prod_k K_k <= 2^20 draw tuples (K_k weight classes at reservoir k;
2m <= 20 for 0/1 rings) skip per-trial weights: a trial becomes the mixed-radix
code of its draw classes, each code's work is tabulated once per run in ring
order and the audit runs once per distinct drawn code, so moments, histogram
and violations equal the trial path's.  Both paths take mean heats from the
per-reservoir class counts n_kc: eps_k (S_{k-1} - S_k) / n with
S_k = fsum_c w_kc n_kc, so they agree bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .analytic import RingSpec, _checked_seed, mean_heats_ring, work_statistics_ring
from .urn import EngineRing

__all__ = _EXPORTS["montecarlo"]

_CHUNK = 16384  # trials per accumulation chunk; fixed so worker count cannot affect results
_BLOCK = 4096  # trials per trial-path weight block; results do not depend on it
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
        self.total = ring.total
        # ball indices in the narrowest unsigned dtype that holds N
        self.dtype = np.uint32 if self.total <= 1 << 32 else np.uint64
        # class c of a ball index: the number of these boundaries at or below it
        self.bounds = [r.cumulative_counts[:-1].astype(self.dtype) for r in ring.reservoirs]
        self.two_level = all(r.is_two_level for r in ring.reservoirs)
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
        self.code_work = _code_work(self.deltas, self.weights) if _enumerable(self.weights) else None


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
    """Uniform ball indices in [0, N), shape (2m, hi-lo), from the stream of chunk lo // _CHUNK."""
    g = np.random.Generator(np.random.Philox(key=key, counter=lo // _CHUNK << 192))
    return g.integers(0, tables.total, size=(len(tables.eps), hi - lo), dtype=tables.dtype)


def _work_audit(tables: _Tables, column):
    """Work and conservation-audit verdict per row from ``column(k)``, the
    drawn weights of reservoir k, summed in ring order.  The audit bounds
    the residual by its summands, not by |W|: with equal draws the heats
    are 0 and W is rounding residue."""
    work = np.zeros_like(column(0))
    scale = np.zeros_like(work)
    for k in range(len(tables.eps)):
        drawn = column(k)
        term = tables.deltas[k] * drawn
        work += term
        scale += np.abs(term, out=term)
    residual = work.copy()
    for k in range(len(tables.eps)):  # drawn holds column k - 1: each column is decoded twice
        current = column(k)
        q = tables.eps[k] * (drawn - current)
        residual += q
        scale += np.abs(q, out=q)
        drawn = current
    return work, np.abs(residual) > 1e-12 * scale


def _enumerable(weights) -> bool:
    """Whether the draw codes over these per-reservoir weight classes (their
    count is the product of the class counts) fit the enumeration limit."""
    return math.prod(map(len, weights)) <= _CODES


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
    vals, inverse = np.unique(work, return_inverse=True)
    keyed = np.bincount(inverse, weights=counts).astype(np.int64)
    return dict(zip(vals.tolist(), keyed.tolist()))


def _code_summary(tables: _Tables, counts: np.ndarray):
    """Histogram and audit violations of a histogram of codes, each drawn
    code evaluated once and weighted by its count."""
    codes = np.flatnonzero(counts)
    drawn = counts[codes]
    w, s = tables.weights, tables.strides  # each column decoded when the audit asks for it
    work, bad = _work_audit(tables, lambda k: w[k][codes // s[k] % len(w[k])])
    return _histogram(tables, work, drawn), int(drawn[bad].sum())


def _mean_heats(tables: _Tables, drawn: list[list[int]], n_tr: int) -> np.ndarray:
    """Mean heats eps_k (S_{k-1} - S_k) / n_tr from ``drawn[k][c]``, the
    draws of class c at reservoir k, with S_k = fsum_c w_kc n_kc."""
    sums = np.array([math.fsum(w * c for w, c in zip(tables.weights[k].tolist(), counts))
                     for k, counts in enumerate(drawn)])
    return np.asarray(tables.eps) * (np.roll(sums, 1) - sums) / n_tr


def _code_stats(tables: _Tables, balls: np.ndarray) -> _Partial:
    """Chunk partial from ball indices via one draw code per trial.  Its
    histogram is the code counts; violations are counted after the merge."""
    n_tr = balls.shape[1]
    code = np.zeros(n_tr, dtype=np.intp)
    drawn = []
    for k, r in enumerate(balls):
        at_least = [n_tr]  # draws of class >= c: one comparison per boundary
        for b in tables.bounds[k]:
            above = r >= b
            code += above * tables.strides[k]
            at_least.append(np.count_nonzero(above))
        drawn.append([a - b for a, b in zip(at_least, at_least[1:] + [0])])
    counts = np.bincount(code, minlength=len(tables.code_work))
    return _partial(tables.code_work[code], _mean_heats(tables, drawn, n_tr), counts)


def _trial_stats(tables: _Tables, balls: np.ndarray) -> _Partial:
    """Chunk partial of any ring from its ball indices, trial by trial, _BLOCK trials at a time."""
    n_tr = balls.shape[1]
    work, bad = np.empty(n_tr), np.empty(n_tr, dtype=bool)
    drawn = [np.zeros(len(w), dtype=np.int64) for w in tables.weights]
    for b in range(0, n_tr, _BLOCK):
        w = np.empty(balls[:, b:b + _BLOCK].shape)
        for k, r in enumerate(balls[:, b:b + _BLOCK]):
            classes = np.searchsorted(tables.bounds[k], r, side="right")
            w[k] = tables.weights[k][classes]
            drawn[k] += np.bincount(classes, minlength=len(drawn[k]))
        work[b:b + _BLOCK], bad[b:b + _BLOCK] = _work_audit(tables, w.__getitem__)
    return _partial(work, _mean_heats(tables, [d.tolist() for d in drawn], n_tr),
                    _histogram(tables, work), int(np.count_nonzero(bad)))


def _merge(a: _Partial, b: _Partial) -> _Partial:
    """Fold partial b into a, in place; returns a."""
    n = a.n + b.n
    delta = b.mean - a.mean
    ratio = b.n / n
    a.mean, a.m2 = a.mean + delta * ratio, a.m2 + b.m2 + delta * delta * (a.n * ratio)
    a.mean_heats = a.mean_heats + (b.mean_heats - a.mean_heats) * ratio
    if isinstance(a.hist, dict):
        for v, c in b.hist.items():  # type: ignore[union-attr]
            a.hist[v] = a.hist.get(v, 0) + c
    else:
        a.hist += b.hist
    a.n, a.violations = n, a.violations + b.violations
    return a


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
            del part  # the next chunk runs before the loop rebinds the name

    var = acc.m2 / (acc.n - 1) if acc.n > 1 else 0.0
    hist, violations, bin_width = acc.hist, acc.violations, None
    if tables.code_work is not None:
        hist, violations = _code_summary(tables, hist)  # exact keys come sorted
    elif isinstance(hist, dict):
        hist = dict(sorted(hist.items()))
    if not isinstance(hist, dict):
        s_lo, s_hi = tables.support
        bin_width = (s_hi - s_lo) / _HIST_BINS
        hist = {float(s_lo + j * bin_width): int(c) for j, c in enumerate(hist) if c > 0}
    acc.mean_heats.flags.writeable = False  # a fresh array: each merge makes a new one
    return EnsembleStats(
        trials=acc.n,
        mean_work=acc.mean,
        var_work=var,
        stderr_work=math.sqrt(var / acc.n),
        mean_heats=acc.mean_heats,
        histogram=hist,
        seed=seed,
        bin_width=bin_width,
        conservation_violations=violations,
    )


def ring_spec_of(ring: EngineRing) -> RingSpec:
    """Analytic description of a ring: each reservoir's weight law, class c
    at probability n_c/N and the first class at 1 minus the rest, so a 0/1
    reservoir gets 1 - f exactly as ``RingSpec.from_counts`` does."""
    laws = []
    for r in ring.reservoirs:
        rest = (r.counts[1:] / r.total).tolist()
        # past N = 2^53 the rounded rest may sum above 1 by a few ulp
        laws.append((r.weights.tolist(), [max(0.0, 1.0 - math.fsum(rest)), *rest]))
    return RingSpec(ring.altitudes, laws)


def exact_work_distribution(spec: RingSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact work distribution of a ring by enumerating its draw codes, one
    weight value per reservoir, each code at the product of its values'
    probabilities.

    Work values are accumulated in the same order as the simulation, so the
    support floats match the simulated histogram keys bit for bit.
    """
    values = [v for v, _ in spec.laws]
    if not _enumerable(values):
        raise ValueError(f"enumeration limited to {_CODES} draw codes")
    eps = spec.altitudes
    work = _code_work(eps - np.roll(eps, -1), values)
    prob = np.ones(1)
    for _, probs in spec.laws:
        prob = np.concatenate([prob * p for p in probs])
    support, inverse = np.unique(work, return_inverse=True)
    return support, np.bincount(inverse, weights=prob)


def compare_to_analytic(stats: EnsembleStats, spec: RingSpec) -> ComparisonReport:
    """Statistical agreement between an ensemble and the analytic model.

    z_mean uses the run's own standard error.  For 0/1 rings, z_var uses the
    exact sampling variance of the sample variance (via the fourth cumulant
    of the work), and when the ring's draw codes fit the enumeration limit
    the exact-key histogram is compared to the enumerated distribution by
    total-variation distance.  Deterministic rings (all f in {0,1}, or no
    altitude gap) have no defined z-scores; they report an exact_match flag
    instead.  A work variance that underflows a float is a domain error.
    """
    if len(stats.mean_heats) != len(spec.altitudes):
        raise ValueError("spec/stats mismatch")
    analytic_mean = mean_heats_ring(spec)[2]
    n = stats.trials

    analytic_variance: float | None = None
    z_var: float | None = None
    exact_match: bool | None = None
    tv: float | None = None

    if spec.two_level:
        ws = work_statistics_ring(spec)
        analytic_mean = ws.mean  # single-sum form, comparable for exact_match
        analytic_variance = ws.variance
        eps = spec.altitudes
        var_w, kappa4_w = spec.cumulants
        d = eps - np.roll(eps, -1)
        # a power of two scales max |d_k| into [0.5, 1): exact, so the scaled
        # variance cannot underflow, and d**4 and variance**2 cannot overflow
        e = -math.frexp(float(np.abs(d).max()))[1]
        d = np.ldexp(d, e)
        if not float((d * d) @ var_w) > 0.0:  # every f_k is 0 or 1, or no altitude gap
            exact_match = stats.var_work == 0.0 and stats.mean_work == ws.mean
        elif ws.variance == 0.0:  # underflowed, and the sample variance with it
            raise ValueError("work variance too small for a float")
        elif n > 1:
            var = math.ldexp(ws.variance, 2 * e)
            kappa4 = float((d**4) @ kappa4_w)
            mu4 = kappa4 + 3.0 * var**2
            se_var = math.sqrt((mu4 - var**2 * (n - 3) / (n - 1)) / n)
            z_var = (math.ldexp(stats.var_work, 2 * e) - var) / se_var
        if _enumerable([v for v, _ in spec.laws]) and stats.bin_width is None:
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
