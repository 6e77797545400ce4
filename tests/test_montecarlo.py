"""Ensemble simulation: determinism, moments, exact enumeration."""

import bisect
import dataclasses
import math
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from exchange_oracle import exchange_step
from rings import two_level
from urnengine import analytic, montecarlo


def otto_oracle_ring():
    return two_level([1.0, 2.0], [2, 3], 10)  # f = (0.2, 0.3)


def test_run_ensemble_validation():
    ring = otto_oracle_ring()
    with pytest.raises(ValueError, match="empty ensemble"):
        montecarlo.run_ensemble(ring, 0, seed=1)
    with pytest.raises(ValueError, match="workers"):
        montecarlo.run_ensemble(ring, 10, seed=1, workers=0)
    # a spec of laws alone has no balls to draw
    with pytest.raises(ValueError, match="ring has no ball populations"):
        montecarlo.run_ensemble(analytic.RingSpec.bernoulli([1.0, 2.0], [0.2, 0.3]), 10, seed=1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_a_domain_error(seed):
    ring = two_level([1.0, 2.0], [2, 3], 10)
    with pytest.raises(ValueError, match="seed must be in"):
        montecarlo.run_ensemble(ring, 10, seed)


def test_same_seed_reproduces_bitwise():
    ring = otto_oracle_ring()
    a = montecarlo.run_ensemble(ring, 50_000, seed=123)
    b = montecarlo.run_ensemble(ring, 50_000, seed=123)
    assert a.mean_work == b.mean_work
    assert a.var_work == b.var_work
    assert a.histogram == b.histogram
    assert np.array_equal(a.mean_heats, b.mean_heats)


def test_worker_count_cannot_change_results():
    ring = otto_oracle_ring()
    base = montecarlo.run_ensemble(ring, 200_000, seed=7, workers=1)
    for workers in (2, 8):
        other = montecarlo.run_ensemble(ring, 200_000, seed=7, workers=workers)
        assert other.mean_work == base.mean_work
        assert other.var_work == base.var_work
        assert other.stderr_work == base.stderr_work
        assert other.histogram == base.histogram
        assert np.array_equal(other.mean_heats, base.mean_heats)
        assert other.conservation_violations == base.conservation_violations


def test_different_seeds_differ():
    ring = otto_oracle_ring()
    a = montecarlo.run_ensemble(ring, 20_000, seed=1)
    b = montecarlo.run_ensemble(ring, 20_000, seed=2)
    assert a.histogram != b.histogram


def test_ensemble_matches_analytic_zscores():
    ring = otto_oracle_ring()
    stats = montecarlo.run_ensemble(ring, 400_000, seed=42)
    report = montecarlo.compare_to_analytic(stats, ring)
    assert report.analytic_mean == pytest.approx(0.1, abs=1e-14)
    assert report.analytic_variance == pytest.approx(0.37, abs=1e-14)
    assert abs(report.z_mean) < 4.0
    assert abs(report.z_var) < 4.0
    assert report.tv_distance < 0.01
    assert report.passed
    assert stats.conservation_violations == 0


def test_histogram_reconstructs_streaming_moments():
    ring = otto_oracle_ring()
    stats = montecarlo.run_ensemble(ring, 100_000, seed=5)
    n = stats.trials
    keys = np.array(sorted(stats.histogram))
    counts = np.array([stats.histogram[k] for k in keys], dtype=float)
    assert counts.sum() == n
    mean = (keys * counts).sum() / n
    var = ((keys - mean) ** 2 * counts).sum() / (n - 1)
    assert mean == pytest.approx(stats.mean_work, abs=1e-10)
    assert var == pytest.approx(stats.var_work, rel=1e-10)


def test_exact_distribution_oracle():
    spec = otto_oracle_ring()
    values, probs = montecarlo.exact_work_distribution(spec)
    assert list(values) == [-1.0, 0.0, 1.0]
    # P(+1) = f_h(1-f_l), P(-1) = f_l(1-f_h), rest at zero
    assert probs[2] == pytest.approx(0.24, abs=1e-15)
    assert probs[0] == pytest.approx(0.14, abs=1e-15)
    assert probs[1] == pytest.approx(0.62, abs=1e-15)
    assert probs.sum() == pytest.approx(1.0, abs=1e-14)


def test_exact_distribution_matches_variance_formula():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        eps = np.cumsum(rng.uniform(0.1, 2.0, size=2 * m))
        f = rng.uniform(0.0, 1.0, size=2 * m)
        spec = analytic.RingSpec.bernoulli(eps, f)
        values, probs = montecarlo.exact_work_distribution(spec)
        ws = analytic.work_statistics_ring(spec)
        mean = float(values @ probs)
        var = float(((values - mean) ** 2) @ probs)
        assert mean == pytest.approx(ws.mean, abs=1e-14)
        assert var == pytest.approx(ws.variance, abs=1e-14)


def test_exact_distribution_limits():
    # 2^22 codes of a 0/1 ring, 3^14 of a ring of three weights
    big = analytic.RingSpec.bernoulli(np.cumsum(np.ones(22)), np.full(22, 0.5))
    wide = analytic.RingSpec(np.cumsum(np.ones(14)), [((0.0, 1.0, 2.5), (0.5, 0.25, 0.25))] * 14)
    for spec in (big, wide):
        with pytest.raises(ValueError, match="enumeration limited"):
            montecarlo.exact_work_distribution(spec)


@pytest.mark.parametrize("eps, excited, total", [
    ([1.0, 2.0], [2, 3], 10),
    ([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9),
    ([1.0, 2.0], [3, 2**62 + 1], 2**63 - 1),
    ([1.0, 1.5, 2.5, 2.0], [2**53 + 1, 5, 2**60, 2**62], 2**62 + 3),
], ids=["otto", "2m=4", "N=2^63-1", "N=2^62+3"])
def test_ring_spec_of_a_0_1_ring_is_from_counts(eps, excited, total):
    # reservoirs that hold both weights: the laws of f = n/N, bit for bit
    spec = two_level(eps, excited, total)
    bernoulli = analytic.RingSpec.bernoulli(eps, np.asarray(excited) / total)
    assert [[list(map(float.hex, part)) for part in law] for law in spec.laws] == [
        [list(map(float.hex, part)) for part in law] for law in bernoulli.laws]
    assert spec.mean_weights.tobytes() == bernoulli.mean_weights.tobytes()


def test_ring_spec_of_a_mixed_ring_copies_its_classes():
    spec = analytic.RingSpec.from_populations([1.0, 2.0], [{0.0: 3, 1.0: 5, 2.5: 2}, {2.5: 10}])
    # class c at n_c/N, the first class at 1 minus the rest
    assert spec.laws == (((0.0, 1.0, 2.5), (1.0 - math.fsum([0.5, 0.2]), 0.5, 0.2)), ((2.5,), (1.0,)))
    assert spec.counts == ((3, 5, 2), (10,)) and spec.total == 10
    assert not spec.two_level


def test_simulated_support_is_subset_of_enumerated():
    ring = two_level([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    stats = montecarlo.run_ensemble(ring, 30_000, seed=9)
    values, _ = montecarlo.exact_work_distribution(ring)
    support = set(float(v) for v in values)
    assert set(stats.histogram) <= support  # keys match bit for bit


def test_m2_ring_ensemble_agrees():
    ring = two_level([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    stats = montecarlo.run_ensemble(ring, 300_000, seed=17, workers=4)
    report = montecarlo.compare_to_analytic(stats, ring)
    assert report.passed
    assert abs(report.z_mean) < 4.0
    assert abs(report.z_var) < 4.0
    assert report.tv_distance < 0.01
    assert stats.conservation_violations == 0


def test_deterministic_ring_reports_exact_match():
    # every ball weight pinned: zero variance, flagged as exact
    ring = two_level([1.0, 2.0], [0, 5], 5)
    stats = montecarlo.run_ensemble(ring, 5_000, seed=1)
    assert stats.var_work == 0.0
    report = montecarlo.compare_to_analytic(stats, ring)
    assert report.exact_match is True
    assert report.z_mean is None and report.z_var is None
    assert report.passed


PINNED_RINGS = {
    "2m=2": ([0.1, 0.7], [10, 0]),
    "2m=4": ([1.1, 1.3, 2.9, 2.3], [10, 0, 0, 10]),
    # one work value each: rounding residue (-3.3e-16) at 2m = 16, -0.9000000000000001 at 2m = 18
    "2m=16": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0, 0.9], [10, 0] * 8),
    "2m=18": ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0],
              [10, 0] * 9),
}


@pytest.mark.parametrize("trials", [1, 3, 100, 20_000, 5 * 16384 + 123])
@pytest.mark.parametrize("eps, excited", PINNED_RINGS.values(), ids=PINNED_RINGS.keys())
def test_pinned_ring_draws_the_analytic_mean(eps, excited, trials):
    # every trial draws the one work value, the ring-order sum of the closed
    # form; the ensemble mean of n equal floats need not be that value
    ring = two_level(eps, excited, 10)
    mean = analytic.work_statistics_ring(ring).mean
    for workers in (1, 2):
        stats = montecarlo.run_ensemble(ring, trials, seed=1, workers=workers)
        assert [k.hex() for k in stats.histogram] == [mean.hex()]
        report = montecarlo.compare_to_analytic(stats, ring)
        assert report.exact_match is True and report.passed
        assert report.z_mean is None and report.analytic_mean == mean


def test_single_class_ring_reports_exact_match():
    # one weight per reservoir, not 0/1: as deterministic as a pinned 0/1 ring
    ring = analytic.RingSpec.from_populations([0.1, 0.2, 0.7, 0.3], [{2.5: 4}, {1.0: 4}, {2.5: 4}, {0.0: 4}])
    stats = montecarlo.run_ensemble(ring, 20_000, seed=1)
    report = montecarlo.compare_to_analytic(stats, ring)
    assert report.exact_match is True and report.passed and report.z_mean is None
    wrong = analytic.RingSpec.from_populations([0.1, 0.2, 0.7, 0.3], [{2.5: 4}, {2.5: 4}, {2.5: 4}, {0.0: 4}])
    report = montecarlo.compare_to_analytic(stats, wrong)
    assert report.exact_match is False and not report.passed


def test_wrong_spec_fails_the_comparison():
    stats = montecarlo.run_ensemble(otto_oracle_ring(), 20_000, seed=3)
    # a mean off by 0.3 at the run's standard error
    f = np.array([0.5, 0.3])
    wrong = analytic.RingSpec.bernoulli([1.0, 2.0], f)
    report = montecarlo.compare_to_analytic(stats, wrong)
    expected = (stats.mean_work - analytic.mean_heats_ring(wrong)[2]) / stats.stderr_work
    assert report.z_mean == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert report.z_mean > 60
    assert report.passed is False
    # a deterministic spec against varying draws
    f = np.array([1.0, 1.0])
    report = montecarlo.compare_to_analytic(stats, analytic.RingSpec.bernoulli([1.0, 2.0], f))
    assert report.exact_match is False
    assert not report.passed


def test_underflowing_work_variance_is_a_domain_error():
    # f = (0.2, 0.3): d_k^2 f_k (1 - f_k) underflows to 0 at 1e-320, and so
    # does the sample variance
    stats = montecarlo.run_ensemble(two_level([1e-320, 2e-320], [2, 3], 10), 1000, seed=1)
    with pytest.raises(ValueError, match="work variance too small for a float"):
        montecarlo.compare_to_analytic(stats, analytic.RingSpec.bernoulli([1e-320, 2e-320], [0.2, 0.3]))
    # pinned weights, or no altitude gap, stay deterministic at any scale
    for eps, n in (([1e-320, 2e-320], [0, 10]), ([1.0, 1.0], [3, 3])):
        ring = two_level(eps, n, 10)
        report = montecarlo.compare_to_analytic(montecarlo.run_ensemble(ring, 1000, seed=1),
                                                ring)
        assert report.exact_match is True and report.passed


def test_multiclass_ring_binned_histogram():
    ring = analytic.RingSpec.from_populations([1.0, 2.0], [{0.0: 3, 0.5: 3, 1.0: 3}, {0.0: 2, 0.5: 4, 1.0: 3}])
    stats = montecarlo.run_ensemble(ring, 100_000, seed=21, workers=2)
    assert stats.bin_width is not None and stats.bin_width > 0.0
    assert sum(stats.histogram.values()) == stats.trials
    assert stats.conservation_violations == 0
    report = montecarlo.compare_to_analytic(stats, ring)
    # general weights: mean check only, no 0/1 variance model
    assert report.analytic_variance is None and report.z_var is None
    assert report.tv_distance is None
    assert abs(report.z_mean) < 4.0
    assert report.passed
    base = montecarlo.run_ensemble(ring, 100_000, seed=21, workers=1)
    assert base.histogram == stats.histogram


def test_compare_rejects_mismatched_spec():
    ring = otto_oracle_ring()
    stats = montecarlo.run_ensemble(ring, 1_000, seed=1)
    wrong = analytic.RingSpec.bernoulli([1.0, 2.0, 3.0, 4.0], [0.2, 0.3, 0.2, 0.3])
    with pytest.raises(ValueError, match="spec/stats mismatch"):
        montecarlo.compare_to_analytic(stats, wrong)


def test_ensemble_histogram_chi_square():
    ring = otto_oracle_ring()
    stats = montecarlo.run_ensemble(ring, 200_000, seed=77)
    values, probs = montecarlo.exact_work_distribution(ring)
    expected = probs * stats.trials
    observed = np.array([stats.histogram.get(float(v), 0) for v in values])
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < sps.chi2.ppf(0.999, df=len(values) - 1)


def _altitudes(rng, n):
    low = np.sort(rng.uniform(1.0, 2.0, n // 2))
    return np.r_[low, np.sort(rng.uniform(2.0, 4.0, n // 2))[::-1]]


def _equilibrium_like_ring(n, seed, total=1000):
    rng = np.random.default_rng(seed)
    eps = _altitudes(rng, n)
    return two_level(eps, rng.integers(50, 400, n), total)


_ring = analytic.RingSpec.from_populations


def _mixed_ring(n, seed, weights=(0.0, 1.0, 2.5), total=1000):
    """Ring of balls of the given weights in random proportions."""
    rng = np.random.default_rng(seed)
    eps = _altitudes(rng, n)
    pops = []
    for _ in range(n):
        cuts = np.sort(rng.integers(1, total, len(weights) - 1))
        pops.append(dict(zip(weights, np.diff(np.r_[0, cuts, total]).tolist())))
    return _ring(eps.tolist(), pops)


def _drawn_weights(ring, cls):
    """Weight of each draw, (2m, trials): class c at reservoir k weighs its
    weight class c."""
    return np.array([np.array(values)[c] for (values, _), c in zip(ring.laws, cls)])


@pytest.mark.parametrize(
    "ring",
    [
        two_level([1.0, 2.0], [2, 3], 10),
        # equal weights: heats exactly 0, work pure rounding residue (audit edge)
        two_level([0.1, 0.2, 0.7, 0.3], [9, 9, 9, 9], 10),
        # an all-0 and an all-1 reservoir
        two_level([0.5, 1.0, 2.5, 1.5], [0, 3, 10, 4], 10),
        _equilibrium_like_ring(16, 1),
        _equilibrium_like_ring(20, 2),
    ],
    ids=["2m=2", "2m=4-equal", "2m=4-pinned", "2m=16", "2m=20"],
)
def test_code_path_matches_trial_path(ring):
    tables = montecarlo._Tables(ring)
    assert tables.code_work is not None
    eps = np.asarray(tables.eps)
    for lo, hi in [(0, 16384), (3 * 16384 + 5, 3 * 16384 + 2000)]:
        cls = montecarlo._classes(tables, 11, lo, hi)
        fast = montecarlo._code_stats(tables, cls)
        slow = montecarlo._trial_stats(tables, cls)
        assert (fast.n, fast.mean, fast.m2) == (slow.n, slow.mean, slow.m2)
        codes = np.flatnonzero(fast.hist)
        histogram, violations = montecarlo._code_summary(tables, fast)
        assert list(histogram.items()) == list(slow.hist.items())
        assert violations == slow.violations
        # every key is the tabulated work of the codes counted under it
        assert sorted(set(tables.code_work[codes].tolist())) == list(histogram)
        # exactly rounded mean of the per-trial heats both paths see
        w = _drawn_weights(ring, cls)
        q = eps[:, None] * (np.roll(w, 1, axis=0) - w)
        exact = np.array([math.fsum(row) / (hi - lo) for row in q])
        np.testing.assert_allclose(fast.mean_heats, exact, rtol=1e-15, atol=0.0)
        # both paths take mean heats from the same class counts
        assert np.array_equal(fast.mean_heats, slow.mean_heats)


MIXED_RINGS = {
    "0/1/2.5 2m=4": _mixed_ring(4, 1),
    "0/1/2.5 2m=8": _mixed_ring(8, 2),
    # most draws weigh 2.5: all-equal trials have zero heats (audit edge)
    "fault": _ring([0.1, 0.2, 0.7, 0.3], [{0.0: 1, 1.0: 1, 2.5: 8}] * 4),
    "single-class": _ring(
        [1.0, 2.0, 3.0, 1.5], [{2.5: 7}, {0.0: 2, 1.0: 3, 2.5: 2}, {0.0: 7}, {1.0: 1, 2.5: 6}]
    ),
    # one work value: a degenerate support keeps exact keys
    "degenerate": _ring([1.0, 2.0], [{2.5: 3}, {2.5: 3}]),
    "non-dyadic 2m=6": _mixed_ring(6, 3, weights=(0.3, 1.7, 4.1)),
    "K=600 2m=2": _ring([1.0, 2.0], [{0.37 * i: 1 + i % 5 for i in range(600)}, {0.0: 800, 1.0: 1000}]),
}


@pytest.mark.parametrize("ring", MIXED_RINGS.values(), ids=MIXED_RINGS.keys())
def test_class_code_path_matches_trial_path(ring):
    tables = montecarlo._Tables(ring)
    assert tables.code_work is not None
    eps = np.asarray(tables.eps)
    for lo, hi in [(0, 16384), (3 * 16384 + 5, 3 * 16384 + 2000)]:
        cls = montecarlo._classes(tables, 11, lo, hi)
        fast = montecarlo._code_stats(tables, cls)
        slow = montecarlo._trial_stats(tables, cls)
        assert (fast.n, fast.mean, fast.m2) == (slow.n, slow.mean, slow.m2)
        hist, violations = montecarlo._code_summary(tables, fast)
        if isinstance(slow.hist, dict):
            assert list(hist.items()) == list(slow.hist.items())
        else:
            assert np.array_equal(hist, slow.hist)
        assert violations == slow.violations
        # within four roundings of the exactly rounded mean of the per-trial heats
        w = _drawn_weights(ring, cls)
        q = eps[:, None] * (np.roll(w, 1, axis=0) - w)
        exact = np.array([math.fsum(row) / (hi - lo) for row in q])
        bound = 4 * 2.0**-53 * np.abs(q).sum(axis=1) / (hi - lo)
        assert np.all(np.abs(fast.mean_heats - exact) <= bound)
        assert np.array_equal(fast.mean_heats, slow.mean_heats)


@pytest.mark.parametrize("ring", MIXED_RINGS.values(), ids=MIXED_RINGS.keys())
def test_ensemble_class_codes_match_trial_path(ring, monkeypatch):
    fast = montecarlo.run_ensemble(ring, 2 * 16384 + 77, seed=4)
    monkeypatch.setattr(montecarlo, "_CODES", 0)  # no ring fits: all take _trial_stats
    slow = montecarlo.run_ensemble(ring, 2 * 16384 + 77, seed=4)
    assert (fast.mean_work, fast.var_work, fast.bin_width, fast.conservation_violations) == (
        slow.mean_work, slow.var_work, slow.bin_width, slow.conservation_violations)
    assert list(fast.histogram.items()) == list(slow.histogram.items())


def test_workers_bit_identical_on_mixed_8_ring():
    ring = _mixed_ring(8, 5)
    base = montecarlo.run_ensemble(ring, 5 * 16384 + 123, seed=8, workers=1)
    assert base.bin_width is not None
    for workers in (2, 3):
        other = montecarlo.run_ensemble(ring, 5 * 16384 + 123, seed=8, workers=workers)
        assert (other.mean_work, other.var_work) == (base.mean_work, base.var_work)
        assert list(other.histogram.items()) == list(base.histogram.items())
        assert other.bin_width == base.bin_width
        assert np.array_equal(other.mean_heats, base.mean_heats)
        assert other.conservation_violations == base.conservation_violations


def test_3_14_code_ring_takes_trial_path():
    eps = np.linspace(1.0, 3.0, 14).tolist()
    assert montecarlo._Tables(_ring(eps[:12], [{0.0: 3, 1.0: 5, 2.5: 2}] * 12)).code_work.size == 3**12
    ring = _ring(eps, [{0.0: 3, 1.0: 5, 2.5: 2}] * 14)
    assert montecarlo._Tables(ring).code_work is None  # 3^14 > 2^20 codes
    a = montecarlo.run_ensemble(ring, 20_000, seed=12, workers=1)
    b = montecarlo.run_ensemble(ring, 20_000, seed=12, workers=2)
    assert (a.mean_work, a.var_work, a.bin_width) == (b.mean_work, b.var_work, b.bin_width)
    assert list(a.histogram.items()) == list(b.histogram.items())
    assert np.array_equal(a.mean_heats, b.mean_heats)


def test_code_audit_decodes_each_column_twice(monkeypatch):
    ring = MIXED_RINGS["0/1/2.5 2m=8"]
    tables = montecarlo._Tables(ring)
    part = montecarlo._code_stats(tables, montecarlo._classes(tables, 3, 0, 5000))
    hist, violations = montecarlo._code_summary(tables, dataclasses.replace(part))
    audit, calls = montecarlo._work_audit, []

    def counted(tables, column):
        return audit(tables, lambda k: calls.append(k) or column(k))

    monkeypatch.setattr(montecarlo, "_work_audit", counted)
    again, violations_again = montecarlo._code_summary(tables, dataclasses.replace(part))
    assert len(calls) <= 2 * 8 + 1
    assert np.array_equal(again, hist) and violations_again == violations


def test_work_audit_reads_each_column_once():
    # every draw weighs 2.5: the heats are 0 and the work is rounding residue,
    # so each verdict rests on the audit's scale
    eps = [0.1, 0.2, 0.7, 0.3, 1.9, 1.7]
    tables = montecarlo._Tables(_ring(eps, [{2.5: 3}] * 6))
    drawn = np.full((6, 5), 2.5)
    calls = []
    work, bad = montecarlo._work_audit(tables, lambda k: calls.append(k) or drawn[k])
    assert calls == [5, 0, 1, 2, 3, 4, 5]
    trials = [exchange_step(eps, row) for row in drawn.T.tolist()]
    assert work.tolist() == [w for w, _, _ in trials] and work[0] != 0.0
    assert bad.tolist() == [v for _, _, v in trials] == [False] * 5


def test_code_audit_counts_the_trials_the_trial_audit_counts():
    # a shifted altitude makes heats and work disagree on some draws only
    for ring in (two_level([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9), MIXED_RINGS["0/1/2.5 2m=4"]):
        tables = montecarlo._Tables(ring)
        tables.eps[2] += 0.5
        cls = montecarlo._classes(tables, 3, 0, 5000)
        slow = montecarlo._trial_stats(tables, cls)
        _, violations = montecarlo._code_summary(tables, montecarlo._code_stats(tables, cls))
        assert 0 < violations == slow.violations < 5000


def test_workers_bit_identical_on_16_ring():
    ring = _equilibrium_like_ring(16, 3)
    base = montecarlo.run_ensemble(ring, 5 * 16384 + 123, seed=8, workers=1)
    for workers in (2, 3):
        other = montecarlo.run_ensemble(ring, 5 * 16384 + 123, seed=8, workers=workers)
        assert (other.mean_work, other.var_work) == (base.mean_work, base.var_work)
        assert list(other.histogram.items()) == list(base.histogram.items())
        assert np.array_equal(other.mean_heats, base.mean_heats)
        assert other.conservation_violations == base.conservation_violations


LAYOUT_RINGS = {
    "N=10": otto_oracle_ring(),
    "N=2^61+1": two_level([1.0, 2.0], [2**59, 2**60], 2**61 + 1),
    "2m=16": _equilibrium_like_ring(16, 3),
}


def _class_of_interval(bounds, total, prefix, word):
    """Class #{b : b/N <= U} of a draw U in [prefix/2^16, (prefix+1)/2^16),
    narrowed by 64 more bits from ``word()`` until no boundary lies inside."""
    lo, width = Fraction(prefix, 2**16), Fraction(1, 2**16)
    edges = [Fraction(b, total) for b in bounds]
    while (below := bisect.bisect_right(edges, lo)) != bisect.bisect_left(edges, lo + width):
        width /= 2**64
        lo += word() * width
    return below


@pytest.mark.parametrize("ring", LAYOUT_RINGS.values(), ids=LAYOUT_RINGS.keys())
def test_each_chunk_draws_its_ball_indices_from_its_own_stream(ring):
    # chunk c reads ceil(2m n / 4) raw words of Philox(seed) at counter c << 192;
    # word w holds the prefixes w >> 0, 16, 32 and 48 (mod 2^16), one row of n
    # per reservoir, and each tied prefix, in flat order, reads the words after
    # them; chunks 0, 1 and a ragged last chunk
    tables = montecarlo._Tables(ring)
    chunk, rows = montecarlo._CHUNK, len(ring.counts)
    bounds = [np.cumsum(counts)[:-1].tolist() for counts in ring.counts]
    ties = 0
    for c, (lo, hi) in enumerate([(0, chunk), (chunk, 2 * chunk), (2 * chunk, 2 * chunk + 123)]):
        n = hi - lo
        bits = np.random.Philox(key=5, counter=c << 192)
        words = bits.random_raw(-(-rows * n // 4)).tolist()
        prefixes = np.array([w >> 16 * j & 0xFFFF for w in words for j in range(4)][:rows * n]).reshape(rows, n)
        expected = np.empty((rows, n), dtype=np.int64)
        for k in range(rows):
            values, inverse = np.unique(prefixes[k], return_inverse=True)
            # the classes at the two ends of each prefix's interval
            below = [bisect.bisect_right(bounds[k], u * ring.total >> 16) for u in values.tolist()]
            above = [bisect.bisect_left(bounds[k], -(-(u + 1) * ring.total >> 16)) for u in values.tolist()]
            expected[k] = np.array(below)[inverse]
            for j in np.flatnonzero((np.array(below) != np.array(above))[inverse]).tolist():
                expected[k, j] = _class_of_interval(bounds[k], ring.total, int(prefixes[k, j]), bits.random_raw)
                ties += 1
        assert np.array_equal(montecarlo._classes(tables, 5, lo, hi), expected)
    if rows == 16:
        assert ties > 0  # about 4 per whole chunk

@pytest.mark.parametrize("total", [2**61 + 1, 6148914691236517206])
def test_populations_that_reject_many_words_run(total):
    # these N reject about 1/8 and 1/3 of 64-bit words under a plain modulo;
    # the bounded-integer draw resamples on the chunk's own stream instead
    ring = two_level([1.0, 2.0], [total // 4, total // 2], total)
    spec = ring
    report = montecarlo.compare_to_analytic(montecarlo.run_ensemble(ring, 2**20, seed=1), spec)
    assert report.z_mean is not None and report.z_var is not None
    assert report.tv_distance < 0.01
    assert report.passed


def test_z_mean_is_calibrated_across_seeds():
    # a layout in which adjacent trials share words correlates their work and
    # moves the spread of z_mean over seeds away from 1, which no single seed
    # can show; the ensembles fit one chunk
    ring = otto_oracle_ring()
    spec = ring
    z = [montecarlo.compare_to_analytic(montecarlo.run_ensemble(ring, 2**14, seed), spec).z_mean
         for seed in range(64)]
    assert abs(np.mean(z)) <= 0.5
    assert 0.7 <= np.std(z) <= 1.3


def test_z_mean_is_calibrated_across_chunks():
    # four chunks per ensemble: chunk streams that overlap (chunk c keyed at
    # counter c, one Philox block after chunk c - 1) reread each other's words,
    # correlating the chunks' means and widening the spread of z_mean over seeds
    ring = otto_oracle_ring()
    spec = ring
    z = [montecarlo.compare_to_analytic(montecarlo.run_ensemble(ring, 4 * montecarlo._CHUNK, seed), spec).z_mean
         for seed in range(64)]
    assert abs(np.mean(z)) <= 0.5
    assert 0.7 <= np.std(z) <= 1.3


def test_philox_raw_stream_is_pinned():
    # the simulate goldens rest on Philox.random_raw, whose words follow from
    # the Philox4x64-10 definition; a change to them fails here first
    first = [np.random.Philox(key=5, counter=c << 192).random_raw(4).tolist() for c in (0, 1)]
    assert first == [
        [13535223855206698129, 10893183200674769480, 3833398344621921443, 8178605492699859198],
        [16537810034265420718, 10237331883048570337, 18366959544605899517, 17357229025537356443],
    ], "Philox's raw stream moved: regenerate the simulate goldens"


EXACT_POPULATIONS = {
    "N=10": {0.0: 8, 1.0: 2},
    # boundary 3 * 2^15 is exact in 16 bits (u >= 2^15 lies above it), 3 * 2^15 + 5 is not
    "N=3*2^16": {0.0: 3 * 2**15, 1.0: 5, 2.5: 3 * 2**15 - 5},
    # boundaries 3 apart share their 16-bit floor
    "equal floors": {0.0: 2**39, 1.0: 3, 2.5: 2**39 - 2},
    "K=600": {0.37 * i: 1 + i % 5 for i in range(600)},
    "N=2^61+1": {0.0: 2**61 + 1 - 2**59, 1.0: 2**59},
    "N=2^63-1": {0.0: 2**61, 1.0: 3 * 2**61 - 8, 2.5: 7},
}


def _words_of(x):
    """The 64-bit words of the binary expansion of x in [0, 1) after its first 16 bits."""
    x = x * 2**16 % 1
    while True:
        x *= 2**64
        yield int(x)
        x %= 1


@pytest.mark.parametrize("population", EXACT_POPULATIONS.values(), ids=EXACT_POPULATIONS.keys())
def test_prefix_classes_carry_exact_class_mass(population):
    # over all 2^16 prefixes of the first reservoir: an untied prefix puts
    # 1/2^16 on its class, and a tied one puts each piece between the
    # boundaries inside it on the class its refinement gives a draw at the
    # piece's midpoint; class c must get exactly n_c/N
    total = sum(population.values())
    ring = _ring([1.0, 2.0], [population, {1.0: total}])
    tables = montecarlo._Tables(ring)
    counts, bounds = ring.counts[0], tables.bounds[0]
    edges = [Fraction(b, total) for b in bounds]
    prefixes = np.zeros((2, 2**16), dtype=np.uint16)
    prefixes[0] = np.arange(2**16)
    cls = montecarlo._classify(tables, prefixes, lambda: 0)
    # the prefixes whose interval holds a boundary strictly inside
    ties = sorted({(b << 16) // total for b in bounds if (b << 16) % total})
    untied = np.ones(2**16, dtype=bool)
    untied[ties] = False
    mass = [Fraction(int(c), 2**16) for c in np.bincount(cls[0][untied], minlength=len(counts))]
    # one draw per piece, in flat order, with the words its refinement reads
    pieces, words = [], []
    for u in ties:
        lo, hi = Fraction(u, 2**16), Fraction(u + 1, 2**16)
        inside = edges[bisect.bisect_right(edges, lo):bisect.bisect_left(edges, hi)]
        assert inside, "a prefix without a boundary inside is not a tie"
        for a, b in zip([lo, *inside], [*inside, hi]):
            digits = _words_of((a + b) / 2)
            c = _class_of_interval(bounds, total, u, lambda: words.append(next(digits)) or words[-1])
            pieces.append((u, c, b - a))
    source = iter(words)
    tied = np.zeros((2, len(pieces)), dtype=np.uint16)
    tied[0] = [u for u, _, _ in pieces]
    cls = montecarlo._classify(tables, tied, source.__next__)
    assert next(source, None) is None, "a word was left unread"
    assert cls[0].tolist() == [c for _, c, _ in pieces]
    for c, (_, _, length) in zip(cls[0].tolist(), pieces):
        mass[c] += length
    assert mass == [Fraction(int(n), total) for n in counts]


def test_refinement_reads_words_until_the_tie_resolves():
    def refine(bounds, total, prefix, words):
        source = iter(words)
        c = montecarlo._refine(bounds, total, bisect.bisect_right(bounds, prefix * total >> 16), prefix, source.__next__)
        assert next(source, None) is None, "a word was left unread"
        return c

    # b/N = 2^-50 ties prefix 0; after one word U = 2^30 / 2^80 lies exactly at
    # it and goes above, and one unit below goes below
    assert refine([3], 3 << 50, 0, [1 << 30]) == 1
    assert refine([3], 3 << 50, 0, [(1 << 30) - 1]) == 0
    # 3/10 ties prefix 19660 and still ties after the word floor(0.3 2^80) mod 2^64,
    # so a second word decides
    first = (3 << 80) // 10 - (19660 << 64)
    assert refine([3], 10, 19660, [first, 0]) == 0
    assert refine([3], 10, 19660, [first, 2**64 - 1]) == 1
    # a tie between two boundaries that share the prefix: the middle class
    assert refine([2**39, 2**39 + 3], 2**40 + 1, 2**15 - 1, [2**64 - 1]) == 1


def test_chunks_in_flight_are_bounded(monkeypatch):
    # chunk 0 is slow: pool.map would run every other chunk meanwhile and hold
    # their partials; at workers=2 only chunks 1-3 may start before it ends
    classes, release, started, seen = montecarlo._classes, threading.Event(), [], []

    def slow_first(tables, key, lo, hi):
        started.append(lo // montecarlo._CHUNK)
        if lo == 0:
            release.wait(10)
            seen.extend(sorted(started))
        return classes(tables, key, lo, hi)

    monkeypatch.setattr(montecarlo, "_classes", slow_first)
    threading.Timer(0.3, release.set).start()
    montecarlo.run_ensemble(otto_oracle_ring(), 20 * montecarlo._CHUNK, seed=1, workers=2)
    assert seen == [0, 1, 2, 3]


def _outputs(stats):
    """Every EnsembleStats field, floats by repr (so -0.0 != 0.0) and arrays by bytes."""
    values = [getattr(stats, f.name) for f in dataclasses.fields(stats)]
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(list(v.items())) if isinstance(v, dict)
            else repr(v) for v in values]


def test_binned_trial_path_is_the_same_at_any_worker_count():
    ring = _mixed_ring(14, 7)  # 3^14 draw codes: past the table, binned histogram
    assert montecarlo._Tables(ring).code_work is None
    a, b = (montecarlo.run_ensemble(ring, 5 * 16384 + 123, seed=8, workers=w) for w in (1, 3))
    assert a.bin_width is not None
    assert _outputs(a) == _outputs(b)


def _traced_peak_mb(ring, trials, workers):
    montecarlo.run_ensemble(ring, 100, seed=1, workers=workers)  # first-call allocations
    tracemalloc.start()
    try:
        montecarlo.run_ensemble(ring, trials, seed=1, workers=workers)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("ring, trials, workers, bound_mb", [
    (_equilibrium_like_ring(16, 3), 2**19, 1, 4.5),
    (_equilibrium_like_ring(16, 3), 2**19, 2, 8.0),
    (_equilibrium_like_ring(64, 4), 4 * 16384 + 77, 1, 15.0),
], ids=["2m=16 workers=1", "2m=16 workers=2", "2m=64 trial path"])
def test_traced_peak_is_bounded_by_blocks(ring, trials, workers, bound_mb):
    # each chunk in flight holds its (2m, 16384) 16-bit prefixes, 8-bit
    # classes and comparison flags (1 MB at 2m = 16) and, on the trial path,
    # decodes one reservoir's drawn weights at a time (128 KB); a whole-chunk
    # weight matrix (8 MB at 2m = 64) would exceed the trial-path bound
    assert _traced_peak_mb(ring, trials, workers) <= bound_mb


def test_22_reservoir_ring_takes_trial_path():
    ring = _equilibrium_like_ring(22, 4)
    assert montecarlo._Tables(ring).code_work is None  # no 2^22 table
    a = montecarlo.run_ensemble(ring, 40_000, seed=12, workers=1)
    b = montecarlo.run_ensemble(ring, 40_000, seed=12, workers=2)
    assert (a.mean_work, a.var_work) == (b.mean_work, b.var_work)
    assert list(a.histogram.items()) == list(b.histogram.items())
    assert np.array_equal(a.mean_heats, b.mean_heats)
    assert a.conservation_violations == b.conservation_violations == 0
    report = montecarlo.compare_to_analytic(a, ring)
    assert report.tv_distance is None
    assert report.passed


@pytest.mark.parametrize("ring", [_equilibrium_like_ring(22, 4), MIXED_RINGS["fault"]],
                         ids=["0/1 2m=22", "fault"])
def test_trial_path_matches_the_exchange_oracle(ring):
    tables = montecarlo._Tables(ring)
    tables.two_level = True  # exact histogram keys for any weights: compare value by value
    cls = montecarlo._classes(tables, 6, 0, 3000)
    slow = montecarlo._trial_stats(tables, cls)
    drawn = _drawn_weights(ring, cls)
    trials = [exchange_step(tables.eps, row) for row in drawn.T.tolist()]
    assert Counter(work for work, _, _ in trials) == slow.hist
    assert sum(violation for _, _, violation in trials) == slow.violations
    # correctly rounded sums of the drawn weights per reservoir, exact for
    # weights 0, 1 and 2.5, give the mean heats eps_k (S_{k-1} - S_k) / n
    sums = np.array([math.fsum(row) for row in drawn.tolist()])
    assert np.array_equal(np.asarray(tables.eps) * (np.roll(sums, 1) - sums) / len(trials), slow.mean_heats)


def test_z_var_is_exact_under_power_of_two_altitudes():
    # every work value, moment and analytic term scales by a power of two, so
    # z_var does not change; 2^300 altitudes overflow d**4 unless it is rescaled
    base = montecarlo.run_ensemble(otto_oracle_ring(), 4000, seed=2)
    z = montecarlo.compare_to_analytic(base, otto_oracle_ring()).z_var
    for scale in (2.0**-40, 2.0**300):
        ring = two_level([scale, 2.0 * scale], [2, 3], 10)
        stats = montecarlo.run_ensemble(ring, 4000, seed=2)
        assert stats.var_work == base.var_work * scale * scale
        assert montecarlo.compare_to_analytic(stats, ring).z_var == z


def test_tv_enumeration_follows_the_code_limit(monkeypatch):
    ring = two_level([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    spec = ring
    stats = montecarlo.run_ensemble(ring, 3000, seed=9)
    assert montecarlo.compare_to_analytic(stats, spec).tv_distance is not None
    monkeypatch.setattr(montecarlo, "_CODES", 8)  # fewer than the ring's 2^4 outcomes
    report = montecarlo.compare_to_analytic(stats, spec)
    assert report.tv_distance is None and report.passed


def test_tv_enumeration_counts_the_law_codes():
    # two pinned reservoirs hold one class each: 2^20 codes, so TV over 2m = 22
    rng = np.random.default_rng(8)
    excited = rng.integers(50, 400, 22)
    excited[[3, 15]] = 0, 1000
    ring = two_level(_altitudes(rng, 22), excited, 1000)
    stats = montecarlo.run_ensemble(ring, 20_000, seed=6)
    report = montecarlo.compare_to_analytic(stats, ring)
    assert 0.0 < report.tv_distance < 1.0
    assert report.passed


def test_tv_distance_matches_dict_reference():
    ring = two_level([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    spec = ring
    stats = montecarlo.run_ensemble(ring, 30_000, seed=9)
    # a key outside the enumerated support counts in full
    foreign = dataclasses.replace(stats, histogram={**stats.histogram, 123.25: 100}, trials=30_100)
    values, probs = montecarlo.exact_work_distribution(spec)
    for st in (stats, foreign):
        table = {float(v): p for v, p in zip(values, probs)}
        tv = sum(abs(c / st.trials - table.pop(v, 0.0)) for v, c in st.histogram.items())
        tv = 0.5 * (tv + sum(table.values()))
        got = montecarlo.compare_to_analytic(st, spec).tv_distance
        assert got == pytest.approx(tv, rel=1e-12)


def test_largest_int64_population_runs():
    ring = two_level([1.0, 2.0], [2**61, 2**62], 2**63 - 1)
    stats = montecarlo.run_ensemble(ring, 1000, seed=3)
    assert stats.trials == 1000 and stats.conservation_violations == 0


@pytest.mark.parametrize("total", [2**63, 2**64 + 5])
def test_population_beyond_int64_is_a_domain_error(total):
    with pytest.raises(ValueError, match="invalid population"):
        two_level([1.0, 2.0], [2, 3], total)
