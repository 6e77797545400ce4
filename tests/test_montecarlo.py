"""Ensemble simulation: determinism, moments, exact enumeration."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats as sps

from exchange_oracle import exchange_step
from urnengine import analytic, montecarlo, urn


def otto_oracle_ring():
    return urn.two_level_ring([1.0, 2.0], [2, 3], 10)  # f = (0.2, 0.3)


def test_run_ensemble_validation():
    ring = otto_oracle_ring()
    with pytest.raises(ValueError, match="empty ensemble"):
        montecarlo.run_ensemble(ring, 0, seed=1)
    with pytest.raises(ValueError, match="workers"):
        montecarlo.run_ensemble(ring, 10, seed=1, workers=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_a_domain_error(seed):
    ring = urn.two_level_ring([1.0, 2.0], [2, 3], 10)
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
    report = montecarlo.compare_to_analytic(stats, montecarlo.ring_spec_of(ring))
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
    spec = montecarlo.ring_spec_of(otto_oracle_ring())
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
        spec = analytic.RingSpec(altitudes=eps, mean_weights=f, bernoulli_f=f)
        values, probs = montecarlo.exact_work_distribution(spec)
        ws = analytic.work_statistics_ring(spec)
        mean = float(values @ probs)
        var = float(((values - mean) ** 2) @ probs)
        assert mean == pytest.approx(ws.mean, abs=1e-14)
        assert var == pytest.approx(ws.variance, abs=1e-14)


def test_exact_distribution_limits():
    big = analytic.RingSpec(
        altitudes=np.cumsum(np.ones(22)),
        mean_weights=np.full(22, 0.5),
        bernoulli_f=np.full(22, 0.5),
    )
    with pytest.raises(ValueError, match="enumeration limited"):
        montecarlo.exact_work_distribution(big)
    no_f = analytic.RingSpec(altitudes=np.array([1.0, 2.0]), mean_weights=np.array([0.2, 0.3]))
    with pytest.raises(ValueError, match="bernoulli"):
        montecarlo.exact_work_distribution(no_f)


def test_simulated_support_is_subset_of_enumerated():
    ring = urn.two_level_ring([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    stats = montecarlo.run_ensemble(ring, 30_000, seed=9)
    values, _ = montecarlo.exact_work_distribution(montecarlo.ring_spec_of(ring))
    support = set(float(v) for v in values)
    assert set(stats.histogram) <= support  # keys match bit for bit


def test_m2_ring_ensemble_agrees():
    ring = urn.two_level_ring([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    stats = montecarlo.run_ensemble(ring, 300_000, seed=17, workers=4)
    report = montecarlo.compare_to_analytic(stats, montecarlo.ring_spec_of(ring))
    assert report.passed
    assert abs(report.z_mean) < 4.0
    assert abs(report.z_var) < 4.0
    assert report.tv_distance < 0.01
    assert stats.conservation_violations == 0


def test_deterministic_ring_reports_exact_match():
    # every ball weight pinned: zero variance, flagged as exact
    ring = urn.two_level_ring([1.0, 2.0], [0, 5], 5)
    stats = montecarlo.run_ensemble(ring, 5_000, seed=1)
    assert stats.var_work == 0.0
    report = montecarlo.compare_to_analytic(stats, montecarlo.ring_spec_of(ring))
    assert report.exact_match is True
    assert report.z_mean is None and report.z_var is None
    assert report.passed


def test_multiclass_ring_binned_histogram():
    low = urn.make_reservoir(1.0, {0.0: 3, 0.5: 3, 1.0: 3}, urn.Group.LOW)
    high = urn.make_reservoir(2.0, {0.0: 2, 0.5: 4, 1.0: 3}, urn.Group.HIGH)
    ring = urn.EngineRing(reservoirs=(low, high))
    stats = montecarlo.run_ensemble(ring, 100_000, seed=21, workers=2)
    assert stats.bin_width is not None and stats.bin_width > 0.0
    assert sum(stats.histogram.values()) == stats.trials
    assert stats.conservation_violations == 0
    report = montecarlo.compare_to_analytic(stats, montecarlo.ring_spec_of(ring))
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
    wrong = analytic.RingSpec(
        altitudes=np.array([1.0, 2.0, 3.0, 4.0]),
        mean_weights=np.array([0.2, 0.3, 0.2, 0.3]),
    )
    with pytest.raises(ValueError, match="spec/stats mismatch"):
        montecarlo.compare_to_analytic(stats, wrong)


def test_ensemble_histogram_chi_square():
    ring = otto_oracle_ring()
    stats = montecarlo.run_ensemble(ring, 200_000, seed=77)
    values, probs = montecarlo.exact_work_distribution(montecarlo.ring_spec_of(ring))
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
    return urn.two_level_ring(eps, rng.integers(50, 400, n), total)


def _ring(eps, populations):
    n = len(eps)
    groups = [urn.Group.LOW if k < n // 2 else urn.Group.HIGH for k in range(n)]
    return urn.EngineRing(tuple(map(urn.make_reservoir, eps, populations, groups)))


def _mixed_ring(n, seed, weights=(0.0, 1.0, 2.5), total=1000):
    """Ring of balls of the given weights in random proportions."""
    rng = np.random.default_rng(seed)
    eps = _altitudes(rng, n)
    pops = []
    for _ in range(n):
        cuts = np.sort(rng.integers(1, total, len(weights) - 1))
        pops.append(dict(zip(weights, np.diff(np.r_[0, cuts, total]).tolist())))
    return _ring(eps.tolist(), pops)


def _drawn_weights(ring, balls):
    """Weight of each drawn ball, (2m, trials): ball index i has the class whose
    cumulative count first exceeds i."""
    return np.array([
        r.weights[np.searchsorted(r.cumulative_counts, b.astype(np.int64), side="right")]
        for r, b in zip(ring.reservoirs, balls)
    ])


@pytest.mark.parametrize(
    "ring",
    [
        urn.two_level_ring([1.0, 2.0], [2, 3], 10),
        # equal weights: heats exactly 0, work pure rounding residue (audit edge)
        urn.two_level_ring([0.1, 0.2, 0.7, 0.3], [9, 9, 9, 9], 10),
        # an all-0 and an all-1 reservoir
        urn.two_level_ring([0.5, 1.0, 2.5, 1.5], [0, 3, 10, 4], 10),
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
        balls = montecarlo._ball_indices(tables, 11, lo, hi)
        fast = montecarlo._code_stats(tables, balls)
        slow = montecarlo._trial_stats(tables, balls)
        assert (fast.n, fast.mean, fast.m2) == (slow.n, slow.mean, slow.m2)
        histogram, violations = montecarlo._code_summary(tables, fast.hist)
        assert list(histogram.items()) == list(slow.hist.items())
        assert violations == slow.violations
        # every key is the tabulated work of the codes counted under it
        codes = np.flatnonzero(fast.hist)
        assert sorted(set(tables.code_work[codes].tolist())) == list(histogram)
        # exactly rounded mean of the per-trial heats both paths see
        w = _drawn_weights(ring, balls)
        q = eps[:, None] * (np.roll(w, 1, axis=0) - w)
        exact = np.array([math.fsum(row) / (hi - lo) for row in q])
        np.testing.assert_allclose(fast.mean_heats, exact, rtol=1e-15, atol=0.0)
        # the trial path sums heats in sequence: off by its own rounding only
        assert np.all(np.abs(slow.mean_heats - exact) <= (hi - lo) * 2.0**-53 * eps)


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
        balls = montecarlo._ball_indices(tables, 11, lo, hi)
        fast = montecarlo._code_stats(tables, balls)
        slow = montecarlo._trial_stats(tables, balls)
        assert (fast.n, fast.mean, fast.m2) == (slow.n, slow.mean, slow.m2)
        hist, violations = montecarlo._code_summary(tables, fast.hist)
        if isinstance(slow.hist, dict):
            assert list(hist.items()) == list(slow.hist.items())
        else:
            assert np.array_equal(hist, slow.hist)
        assert violations == slow.violations
        # within four roundings of the exactly rounded mean of the per-trial heats
        w = _drawn_weights(ring, balls)
        q = eps[:, None] * (np.roll(w, 1, axis=0) - w)
        exact = np.array([math.fsum(row) / (hi - lo) for row in q])
        bound = 4 * 2.0**-53 * np.abs(q).sum(axis=1) / (hi - lo)
        assert np.all(np.abs(fast.mean_heats - exact) <= bound)


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


def test_code_audit_counts_the_trials_the_trial_audit_counts():
    # a shifted altitude makes heats and work disagree on some draws only
    for ring in (urn.two_level_ring([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9), MIXED_RINGS["0/1/2.5 2m=4"]):
        tables = montecarlo._Tables(ring)
        tables.eps[2] += 0.5
        balls = montecarlo._ball_indices(tables, 3, 0, 5000)
        slow = montecarlo._trial_stats(tables, balls)
        _, violations = montecarlo._code_summary(tables, montecarlo._code_stats(tables, balls).hist)
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


def test_rejected_words_are_replaced_from_spares_in_ring_order():
    # N = 2^61 + 1 rejects about one word in eight
    total = 2**61 + 1
    ring = urn.two_level_ring([1.0, 2.0], [2**59, 2**60], total)
    tables = montecarlo._Tables(ring)
    lo, hi, n_res = 7, 3000, 2
    bg = np.random.Philox(key=5, counter=lo * tables.blocks_per_trial)
    raw = bg.random_raw((hi - lo) * tables.words_per_trial).reshape(hi - lo, -1)
    assert np.count_nonzero(raw[:, :n_res] >= tables.threshold) > 100
    expected = np.empty((n_res, hi - lo), dtype=np.uint64)
    cursor = [n_res] * (hi - lo)
    for k in range(n_res):  # reservoir by reservoir, each trial's next spare
        for t in range(hi - lo):
            r = raw[t, k]
            while r >= tables.threshold:
                r = raw[t, cursor[t]]
                cursor[t] += 1
            expected[k, t] = r % np.uint64(total)
    assert np.array_equal(montecarlo._ball_indices(tables, 5, lo, hi), expected)


def test_22_reservoir_ring_takes_trial_path():
    ring = _equilibrium_like_ring(22, 4)
    assert montecarlo._Tables(ring).code_work is None  # no 2^22 table
    a = montecarlo.run_ensemble(ring, 40_000, seed=12, workers=1)
    b = montecarlo.run_ensemble(ring, 40_000, seed=12, workers=2)
    assert (a.mean_work, a.var_work) == (b.mean_work, b.var_work)
    assert list(a.histogram.items()) == list(b.histogram.items())
    assert np.array_equal(a.mean_heats, b.mean_heats)
    assert a.conservation_violations == b.conservation_violations == 0
    report = montecarlo.compare_to_analytic(a, montecarlo.ring_spec_of(ring))
    assert report.tv_distance is None
    assert report.passed


@pytest.mark.parametrize("ring", [_equilibrium_like_ring(22, 4), MIXED_RINGS["fault"]],
                         ids=["0/1 2m=22", "fault"])
def test_trial_path_matches_the_exchange_oracle(ring):
    tables = montecarlo._Tables(ring)
    tables.two_level = True  # exact histogram keys for any weights: compare value by value
    balls = montecarlo._ball_indices(tables, 6, 0, 3000)
    slow = montecarlo._trial_stats(tables, balls)
    trials = [exchange_step(tables.eps, drawn) for drawn in _drawn_weights(ring, balls).T.tolist()]
    assert Counter(work for work, _, _ in trials) == slow.hist
    assert sum(violation for _, _, violation in trials) == slow.violations
    # heats summed trial by trial, in sequence
    heat_sums = np.cumsum([heats for _, heats, _ in trials], axis=0)[-1]
    assert np.array_equal(heat_sums / len(trials), slow.mean_heats)


def test_z_var_is_exact_under_power_of_two_altitudes():
    # every work value, moment and analytic term scales by a power of two, so
    # z_var does not change; 2^300 altitudes overflow d**4 unless it is rescaled
    base = montecarlo.run_ensemble(otto_oracle_ring(), 4000, seed=2)
    z = montecarlo.compare_to_analytic(base, montecarlo.ring_spec_of(otto_oracle_ring())).z_var
    for scale in (2.0**-40, 2.0**300):
        ring = urn.two_level_ring([scale, 2.0 * scale], [2, 3], 10)
        stats = montecarlo.run_ensemble(ring, 4000, seed=2)
        assert stats.var_work == base.var_work * scale * scale
        assert montecarlo.compare_to_analytic(stats, montecarlo.ring_spec_of(ring)).z_var == z


def test_tv_enumeration_follows_the_code_limit(monkeypatch):
    ring = urn.two_level_ring([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    spec = montecarlo.ring_spec_of(ring)
    stats = montecarlo.run_ensemble(ring, 3000, seed=9)
    assert montecarlo.compare_to_analytic(stats, spec).tv_distance is not None
    monkeypatch.setattr(montecarlo, "_CODES", 8)  # fewer than the ring's 2^4 outcomes
    report = montecarlo.compare_to_analytic(stats, spec)
    assert report.tv_distance is None and report.passed


def test_tv_distance_matches_dict_reference():
    ring = urn.two_level_ring([0.7, 1.3, 3.1, 2.9], [3, 4, 6, 2], 9)
    spec = montecarlo.ring_spec_of(ring)
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
    ring = urn.two_level_ring([1.0, 2.0], [2**61, 2**62], 2**63 - 1)
    stats = montecarlo.run_ensemble(ring, 1000, seed=3)
    assert stats.trials == 1000 and stats.conservation_violations == 0


@pytest.mark.parametrize("total", [2**63, 2**64 + 5])
def test_population_beyond_int64_is_a_domain_error(total):
    with pytest.raises(ValueError, match="invalid population"):
        urn.two_level_ring([1.0, 2.0], [2, 3], total)
