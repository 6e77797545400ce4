"""Reproducible ensembles of exchange trials with mergeable statistics.

A ring is a ``RingSpec`` built by ``RingSpec.from_populations``: 2m
reservoirs, each holding N balls of integer counts per weight class.  One
cycle draws a ball uniformly from every reservoir at once, each ball at
probability 1/N from the ring's initial populations, and carries each drawn
ball one step around the ring; an ensemble re-draws from the same
populations, never evolving them over repeated cycles.  A spec without
populations, such as ``RingSpec.bernoulli``'s, is a domain error.

Determinism contract: run_ensemble(spec, trials, seed) is bit-identical for
any worker count.  Trials are processed in fixed-size chunks of _CHUNK trials
regardless of worker count, and chunk c draws all its weight classes from
its own stream, Philox keyed by the seed with counter c << 192, so any partition
of chunks over workers sees the same draws.  Chunk streams start 2^192
counter blocks apart, so no chunk reads another's words.  Each chunk reduces
to partial statistics (count, mean, M2, per-reservoir heat means, work
histogram, conservation violations) and the partials fold in place into one
accumulator in chunk order as they arrive, at most 2 * workers chunks in
flight, which pins every floating point operation independent of scheduling
and keeps memory flat in the number of chunks.

Class selection is exact: a draw U uniform in [0, 1) has class
c = #{b : b <= U N} over its reservoir's class boundaries b, probability
n_c/N for any N up to 2^63 - 1.  A chunk's raw words give each draw's 16-bit
prefix, which decides unless a boundary lies inside its interval; such ties
read further words of the chunk's stream (see _classes).  Memory is bounded
by the prefixes and classes of each chunk in flight; the trial path holds
drawn weights _BLOCK trials at a time, and no result depends on _BLOCK.

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
from itertools import accumulate

import numpy as np

from . import _EXPORTS
from .analytic import RingSpec, _checked_seed, mean_heats_ring, work_statistics_ring

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

    def __init__(self, spec: RingSpec):
        if spec.counts is None:
            raise ValueError("ring has no ball populations: build it with RingSpec.from_populations")
        self.eps = spec.altitudes.tolist()
        n = len(self.eps)
        self.deltas = [self.eps[k] - self.eps[(k + 1) % n] for k in range(n)]
        self.weights = [np.array(values) for values, _ in spec.laws]
        self.total = n_tot = spec.total
        # a draw U in [0, 1) has class c = #{b : b <= U N}, b the class boundaries;
        # its 16-bit prefix u lies above b / N when u > ceil(b 2^16 / N) - 1, and
        # only u equal to that cut can tie b.  Cut column j holds each
        # reservoir's boundary j, and 0xFFFF (nothing above) past its last.
        self.bounds = [list(accumulate(counts))[:-1] for counts in spec.counts]
        width = max(map(len, self.bounds))
        self.cuts = np.array([[((b << 16) - 1) // n_tot for b in bs] + [0xFFFF] * (width - len(bs))
                              for bs in self.bounds], dtype=np.uint16).T[..., None]
        self.two_level = spec.two_level
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


def _refine(bounds: list[int], total: int, c: int, p: int, word) -> int:
    """Class of a draw whose 16-bit prefix p ties a boundary, c boundaries
    lying below p's interval: append ``word()`` 64-bit words to the prefix
    until no boundary b has p N < b 2^s < (p + 1) N, then count b 2^s <= p N."""
    s = 16
    while True:
        while c < len(bounds) and bounds[c] << s <= p * total:
            c += 1
        if c == len(bounds) or bounds[c] << s >= (p + 1) * total:
            return c
        p, s = p << 64 | word(), s + 64


def _classify(tables: _Tables, prefixes: np.ndarray, word) -> np.ndarray:
    """Weight class of each draw from its 16-bit prefix, one row per
    reservoir.  Each tie, in increasing flat position, appends ``word()``
    64-bit words until it resolves, so class c has probability exactly n_c/N."""
    rows, n = prefixes.shape
    cls = np.zeros((rows, n), dtype=np.min_scalar_type(len(tables.cuts)))
    above, tied = np.empty((rows, n), dtype=bool), set()
    for cut in tables.cuts:  # one comparison per boundary column
        cls += np.greater(prefixes, cut, out=above)
        tied.update(np.flatnonzero(np.equal(prefixes, cut, out=above)).tolist())
    for k, j in (divmod(i, n) for i in sorted(tied)):  # reads no word unless a boundary lies inside
        cls[k, j] = _refine(tables.bounds[k], tables.total, int(cls[k, j]), int(prefixes[k, j]), word)
    return cls


def _classes(tables: _Tables, key: int, lo: int, hi: int) -> np.ndarray:
    """Draw classes of chunk lo // _CHUNK, shape (2m, hi-lo), from its own
    stream: the 16-bit little-endian prefixes of its first ceil(2m (hi-lo) / 4)
    raw Philox words, one row per reservoir, and later words for the ties."""
    rows, n = len(tables.eps), hi - lo
    bits = np.random.Philox(key=key, counter=lo // _CHUNK << 192)
    words = bits.random_raw(-(-rows * n // 4)).astype("<u8", copy=False)
    return _classify(tables, words.view("<u2")[:rows * n].reshape(rows, n), bits.random_raw)


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
    del inverse  # freed before the dict and its key lists are built
    return dict(zip(vals.tolist(), keyed.tolist()))


def _code_summary(tables: _Tables, part: _Partial):
    """Histogram and audit violations of a partial's code counts, each drawn
    code evaluated once and weighted by its count; frees the counts."""
    codes = np.flatnonzero(part.hist)
    drawn, part.hist = part.hist[codes], None
    w, s = tables.weights, tables.strides  # each column decoded when the audit asks for it
    work, bad = _work_audit(tables, lambda k: w[k][codes // s[k] % len(w[k])])
    violations = int(drawn[bad].sum())
    del codes, bad
    return _histogram(tables, work, drawn), violations


def _mean_heats(tables: _Tables, cls: np.ndarray) -> np.ndarray:
    """Mean heats eps_k (S_{k-1} - S_k) / n of n draws of classes ``cls``,
    with S_k = fsum_c w_kc n_kc, n_kc the draws of class c at reservoir k."""
    n, sums = cls.shape[1], []
    for w, row in zip(tables.weights, cls):
        at_least = [n, *(np.count_nonzero(row >= c) for c in range(1, len(w))), 0]  # draws of class >= c
        sums.append(math.fsum(wc * (a - b) for wc, a, b in zip(w.tolist(), at_least, at_least[1:])))
    return np.asarray(tables.eps) * (np.roll(sums, 1) - sums) / n


def _code_stats(tables: _Tables, cls: np.ndarray) -> _Partial:
    """Chunk partial from draw classes via one draw code per trial.  Its
    histogram is the code counts; violations are counted after the merge."""
    n_tr = cls.shape[1]
    code = np.zeros(n_tr, dtype=np.uint32)  # at most 2^20 codes
    for k in reversed(range(len(cls))):  # Horner: digit k has stride K_0...K_{k-1}
        code *= len(tables.weights[k])
        code += cls[k]
    code = code.astype(np.intp)  # indexing and bincount cast any other dtype on every call
    counts = np.bincount(code, minlength=len(tables.code_work))
    return _partial(tables.code_work[code], _mean_heats(tables, cls), counts)


def _trial_stats(tables: _Tables, cls: np.ndarray) -> _Partial:
    """Chunk partial of any ring from its draw classes, trial by trial, _BLOCK trials at a time."""
    n_tr = cls.shape[1]
    work, bad = np.empty(n_tr), np.empty(n_tr, dtype=bool)
    for b in range(0, n_tr, _BLOCK):
        w = np.array([wk[c] for wk, c in zip(tables.weights, cls[:, b:b + _BLOCK])])
        work[b:b + _BLOCK], bad[b:b + _BLOCK] = _work_audit(tables, w.__getitem__)
    return _partial(work, _mean_heats(tables, cls), _histogram(tables, work), int(np.count_nonzero(bad)))


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


def run_ensemble(spec: RingSpec, trials: int, seed: int, workers: int = 1) -> EnsembleStats:
    """Simulate ``trials`` independent cycles from the same initial ring,
    a spec built by ``RingSpec.from_populations``.

    Bit-identical output for fixed (spec, trials, seed), whatever ``workers``
    is; see the module docstring for the splitting scheme.
    """
    if trials < 1:
        raise ValueError("empty ensemble")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    key = _checked_seed(seed)
    tables = _Tables(spec)
    ranges = [(lo, min(lo + _CHUNK, trials)) for lo in range(0, trials, _CHUNK)]
    stats = _trial_stats if tables.code_work is None else _code_stats
    # partials fold into the accumulator in chunk order as they arrive, from
    # at most 2 * workers chunks at a time, so they cannot pile up behind a slow one
    acc, window = None, 2 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        mapper = map if workers == 1 else pool.map
        for at in range(0, len(ranges), window):
            for part in mapper(lambda r: stats(tables, _classes(tables, key, *r)), ranges[at:at + window]):
                acc = part if acc is None else _merge(acc, part)
                del part  # the next chunk runs before the loop rebinds the name

    var = acc.m2 / (acc.n - 1) if acc.n > 1 else 0.0
    hist, violations, bin_width = acc.hist, acc.violations, None
    if tables.code_work is not None:
        del hist  # so that _code_summary can free the code counts
        hist, violations = _code_summary(tables, acc)  # exact keys come sorted
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


def ring_spec_of(spec: RingSpec) -> RingSpec:  # benchmark shim, deleted with urn.py
    return spec


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
