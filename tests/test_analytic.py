"""Closed-form means, variances, efficiencies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnengine import analytic, thermo


def ring(eps, f, bernoulli=True):
    return analytic.RingSpec(
        altitudes=np.asarray(eps, dtype=float),
        mean_weights=np.asarray(f, dtype=float),
        bernoulli_f=np.asarray(f, dtype=float) if bernoulli else None,
    )


def test_otto_heats_work_efficiency_oracle():
    spec = analytic.RingSpec.from_counts([1.0, 2.0], [2000, 3000], 10_000)
    q_l, q_h, w = analytic.mean_heats_ring(spec)
    assert q_l == pytest.approx(0.1, abs=1e-15)
    assert q_h == pytest.approx(-0.2, abs=1e-15)
    assert w == pytest.approx(0.1, abs=1e-15)
    assert analytic.efficiency_otto(1.0, 2.0) == 0.5


def test_otto_second_oracle():
    spec = analytic.RingSpec.from_counts([1.0, 3.0], [10, 40], 100)
    q_l, q_h, _ = analytic.mean_heats_ring(spec)
    assert q_l == pytest.approx(0.3, abs=1e-15)
    assert q_h == pytest.approx(-0.9, abs=1e-15)


def test_otto_pump_sign():
    spec = analytic.RingSpec.from_counts([1.0, 2.0], [3000, 2000], 10_000)
    assert analytic.mean_heats_ring(spec)[2] == pytest.approx(-0.1, abs=1e-15)


def test_otto_validation():
    with pytest.raises(ValueError, match="invalid altitude order"):
        analytic.RingSpec.from_counts([2.0, 1.0], [2, 3], 10)
    with pytest.raises(ValueError, match="empty reservoir"):
        analytic.RingSpec.from_counts([1.0, 2.0], [0, 0], 0)
    with pytest.raises(ValueError, match="invalid population"):
        analytic.RingSpec.from_counts([1.0, 2.0], [11, 3], 10)
    with pytest.raises(ValueError, match="invalid altitude order"):
        analytic.efficiency_otto(3.0, 2.0)


def test_from_counts_is_the_ring_at_fractions_n_over_total():
    spec = analytic.RingSpec.from_counts([1.0, 1.5, 3.0, 2.5], [2, 3, 5, 4], 10)
    assert spec.m == 2
    assert np.array_equal(spec.mean_weights, [0.2, 0.3, 0.5, 0.4])
    assert np.array_equal(spec.bernoulli_f, spec.mean_weights)
    # every low altitude lies below every high one
    with pytest.raises(ValueError, match="invalid altitude order"):
        analytic.RingSpec.from_counts([1.0, 3.0, 2.0, 4.0], [2, 3, 5, 4], 10)
    with pytest.raises(ValueError, match="ring must hold"):
        analytic.RingSpec.from_counts([1.0, 2.0], [2, 3, 4], 10)


def test_work_statistics_oracle():
    ws = analytic.work_statistics_ring(ring([1.0, 2.0], [0.2, 0.3]))
    assert ws.mean == pytest.approx(0.1, abs=1e-15)
    assert ws.variance == pytest.approx(0.37, abs=1e-15)
    assert ws.ratio == pytest.approx(3.7, abs=1e-14)


def test_work_statistics_zero_mean_ratio_is_none():
    ws = analytic.work_statistics_ring(ring([1.0, 2.0], [0.25, 0.25]))
    assert ws.mean == 0.0
    assert ws.ratio is None


def test_work_statistics_requires_bernoulli():
    spec = ring([1.0, 2.0], [0.2, 0.3], bernoulli=False)
    with pytest.raises(ValueError, match="bernoulli"):
        analytic.work_statistics_ring(spec)


def test_ring_heats_telescope_to_work():
    eps = [1.0, 1.1, 3.6, 3.3]
    f = [0.2, 0.21, 0.18, 0.19]
    spec = ring(eps, f)
    q_low, q_high, w = analytic.mean_heats_ring(spec)
    assert w == pytest.approx(-(q_low + q_high), abs=1e-15)
    ws = analytic.work_statistics_ring(spec)
    # heat route and direct Bernoulli route agree
    assert ws.mean == pytest.approx(w, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_ring_heats_same_bits_alone_and_in_a_batch(m):
    # one kernel serves the optimizer (floats) and the region scatter (columns)
    rng = np.random.default_rng(m)
    eps = 8.0 * (1.0 - rng.random((300, 2 * m)))
    f = rng.random((300, 2 * m))
    batch = analytic._ring_heats(eps.T, f.T)
    for i in range(len(eps)):
        alone = analytic._ring_heats(eps[i].tolist(), f[i].tolist())
        assert all(type(v) is float for v in alone)
        assert [v.hex() for v in alone] == [float(b[i]).hex() for b in batch]
    # against numpy's axis sums: the same bits below 8 terms, where those add
    # in order too, and rounding-level differences beyond
    q = eps * (np.roll(f, 1, axis=1) - f)
    reference = (q[:, :m].sum(axis=1), q[:, m:].sum(axis=1))
    for got, want in zip(batch, reference):
        if m < 8:
            assert np.array_equal(got, want)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=80)
def test_ring_reduces_to_otto_at_m_equal_one(seed):
    rng = np.random.default_rng(seed)
    eps_l = float(rng.uniform(0.1, 5.0))
    eps_h = eps_l + float(rng.uniform(0.01, 5.0))
    n_l = int(rng.integers(0, 101))
    n_h = int(rng.integers(0, 101))
    # two-reservoir Otto closed forms: Q_l = eps_l*d, Q_h = -eps_h*d, W = -(Q_l + Q_h)
    d = (n_h - n_l) / 100
    q_l, q_h = eps_l * d, -(eps_h * d)
    spec = analytic.RingSpec.from_counts([eps_l, eps_h], [n_l, n_h], 100)
    q_low, q_high, w = analytic.mean_heats_ring(spec)
    assert q_low == pytest.approx(q_l, abs=1e-14)
    assert q_high == pytest.approx(q_h, abs=1e-14)
    assert w == pytest.approx(-(q_l + q_h), abs=1e-14)


def test_m2_finite_ring_approximates_continuum():
    # worked four-reservoir example; value frozen as a regression oracle
    spec = analytic.equilibrium_ring(1.38, 0.42, [1.0, 1.1], [3.6, 3.3])
    _, _, w = analytic.mean_heats_ring(spec)
    assert w == pytest.approx(0.04480966319936756, rel=1e-12)


def test_equilibrium_ring_occupancies():
    spec = analytic.equilibrium_ring(1.38, 0.42, [1.0, 1.1], [3.6, 3.3])
    assert spec.m == 2
    assert spec.mean_weights[0] == pytest.approx(thermo.occupancy(1.38 * 1.0), rel=1e-15)
    assert spec.mean_weights[3] == pytest.approx(thermo.occupancy(0.42 * 3.3), rel=1e-15)
    assert spec.bernoulli_f is not None


def test_equilibrium_ring_validation():
    with pytest.raises(ValueError, match="equal-length non-empty"):
        analytic.equilibrium_ring(1.0, 0.5, [1.0], [2.0, 3.0])
    with pytest.raises(ValueError, match="equal-length non-empty"):
        analytic.equilibrium_ring(1.0, 0.5, [], [])


def test_thermal_otto_work_matches_equilibrium_ring():
    # Otto work with both reservoirs thermal: (eps_h - eps_l)(f(beta_h eps_h) - f(beta_l eps_l))
    w = (4.6 - 2.5) * (thermo.occupancy(0.42 * 4.6) - thermo.occupancy(1.38 * 2.5))
    spec = analytic.equilibrium_ring(1.38, 0.42, [2.5], [4.6])
    _, _, w2 = analytic.mean_heats_ring(spec)
    assert w == pytest.approx(w2, rel=1e-14)
    assert w == pytest.approx(0.20, abs=0.004)


def test_ring_spec_validation():
    with pytest.raises(ValueError, match="ring must hold"):
        analytic.RingSpec(altitudes=np.array([1.0]), mean_weights=np.array([0.2]))
    with pytest.raises(ValueError, match="ring must hold"):
        analytic.RingSpec(altitudes=np.array([1.0, 2.0, 3.0]), mean_weights=np.array([0.2, 0.3, 0.1]))
    with pytest.raises(ValueError, match="invalid altitude"):
        analytic.RingSpec(altitudes=np.array([1.0, -2.0]), mean_weights=np.array([0.2, 0.3]))
    # general mean weights may exceed 1 (multiclass balls); 0/1 fractions may not
    analytic.RingSpec(altitudes=np.array([1.0, 2.0]), mean_weights=np.array([0.2, 1.3]))
    with pytest.raises(ValueError, match="invalid population"):
        analytic.RingSpec(
            altitudes=np.array([1.0, 2.0]),
            mean_weights=np.array([0.2, 0.3]),
            bernoulli_f=np.array([0.2, 1.3]),
        )
    # 0/1 fractions are the mean weights, so a ring cannot have two differing ones
    with pytest.raises(ValueError, match="invalid population"):
        analytic.RingSpec(
            altitudes=np.array([1.0, 2.0]),
            mean_weights=np.array([0.2, 0.3]),
            bernoulli_f=np.array([0.5, 0.9]),
        )
    with pytest.raises(ValueError, match="invalid population"):
        analytic.RingSpec(altitudes=np.array([1.0, 2.0]), mean_weights=np.array([0.2, -0.1]))


def test_ring_spec_copies_input_arrays():
    eps = np.array([1.0, 2.0])
    f = np.array([0.2, 0.3])
    spec = analytic.RingSpec(altitudes=eps, mean_weights=f)
    eps[0] = 99.0
    assert spec.altitudes[0] == 1.0
    assert eps.flags.writeable  # the caller's array is untouched


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=0.1, max_value=8.0),
)
@settings(max_examples=100)
def test_efficiency_scale_invariant(eps_l, gap, a):
    eps_h = eps_l + gap
    assert analytic.efficiency_otto(a * eps_l, a * eps_h) == pytest.approx(
        analytic.efficiency_otto(eps_l, eps_h), abs=1e-12
    )


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60)
def test_general_variance_reduces_to_bernoulli(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    eps = np.cumsum(rng.uniform(0.1, 2.0, size=2 * m))
    f = rng.uniform(0.0, 1.0, size=2 * m)
    ws_b = analytic.work_statistics_ring(ring(eps, f))
    ws_g = analytic.work_statistics_general(eps, f, f * (1.0 - f))
    assert ws_g.mean == pytest.approx(ws_b.mean, abs=1e-14)
    assert ws_g.variance == pytest.approx(ws_b.variance, abs=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("beta_l, beta_h", [(1.38, 0.42), (-0.5, -1.0), (1.0, -0.5), (-1.0, 0.5)])
def test_integral_fluctuation_relation_by_enumeration(m, beta_l, beta_h):
    # <exp(-sigma)> = 1 with sigma = sum_k beta_k Q_k, Q_k = eps_k (w_{k-1} - w_k):
    # averaging over draw k leaves (1 - f_k)(1 + e^{-x_{k+1}}), and the product
    # telescopes to 1 since (1 - f_k)(1 + e^{-x_k}) = 1
    rng = np.random.default_rng(100 * m + 7)
    eps = rng.uniform(0.1, 3.0, 2 * m)
    spec = analytic.equilibrium_ring(beta_l, beta_h, eps[:m], eps[m:])
    f = spec.bernoulli_f
    beta = np.repeat([beta_l, beta_h], m)
    w = (np.arange(2 ** (2 * m))[:, None] >> np.arange(2 * m)) & 1  # every draw outcome
    p = np.prod(np.where(w == 1, f, 1.0 - f), axis=1)
    q = spec.altitudes * (np.roll(w, 1, axis=1) - w)
    q_low, q_high, _ = analytic.mean_heats_ring(spec)
    assert p @ q[:, :m].sum(axis=1) == pytest.approx(q_low, abs=1e-12)
    assert p @ q[:, m:].sum(axis=1) == pytest.approx(q_high, abs=1e-12)
    assert abs(p @ np.exp(-(q @ beta)) - 1.0) <= 1e-12
