"""Closed-form means, variances, efficiencies."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantum_oracle import otto_work_law
from rings import two_level
from urnengine import analytic, montecarlo, thermo


def ring(eps, f):
    return analytic.RingSpec.bernoulli(eps, f)

# weights 0, 1 and 2.5 at four reservoirs
MIXED = analytic.RingSpec([1.0, 1.3, 2.9, 2.2], [
    ((0.0, 1.0, 2.5), (0.5, 0.3, 0.2)),
    ((0.0, 2.5), (0.75, 0.25)),
    ((1.0,), (1.0,)),
    ((0.0, 1.0, 2.5), (0.125, 0.625, 0.25)),
])


def test_otto_heats_work_efficiency_oracle():
    spec = two_level([1.0, 2.0], [2000, 3000], 10_000)
    q_l, q_h, w = analytic.mean_heats_ring(spec)
    assert q_l == pytest.approx(0.1, abs=1e-15)
    assert q_h == pytest.approx(-0.2, abs=1e-15)
    assert w == pytest.approx(0.1, abs=1e-15)
    assert w / -q_h == 0.5


def test_otto_second_oracle():
    spec = two_level([1.0, 3.0], [10, 40], 100)
    q_l, q_h, _ = analytic.mean_heats_ring(spec)
    assert q_l == pytest.approx(0.3, abs=1e-15)
    assert q_h == pytest.approx(-0.9, abs=1e-15)


def test_otto_pump_sign():
    spec = two_level([1.0, 2.0], [3000, 2000], 10_000)
    assert analytic.mean_heats_ring(spec)[2] == pytest.approx(-0.1, abs=1e-15)


def test_mean_heats_overflow_is_a_domain_error():
    # Q_high = 2 * (0.2 - 1e308) overflows to -inf, and W to inf
    spec = analytic.RingSpec([1.0, 2.0], [((0.0, 1.0), (0.8, 0.2)), ((1e308,), (1.0,))])
    with pytest.raises(ValueError, match="mean heats too large for a float"):
        analytic.mean_heats_ring(spec)


def test_otto_validation():
    with pytest.raises(ValueError, match="empty reservoir"):
        two_level([1.0, 2.0], [0, 0], 0)
    with pytest.raises(ValueError, match="invalid population"):
        two_level([1.0, 2.0], [11, 3], 10)


def test_from_counts_is_the_ring_at_fractions_n_over_total():
    spec = two_level([1.0, 1.5, 3.0, 2.5], [2, 3, 5, 4], 10)
    assert spec.m == 2
    assert np.array_equal(spec.mean_weights, [0.2, 0.3, 0.5, 0.4])
    assert spec.laws == tuple(((0.0, 1.0), (1.0 - f, f)) for f in (0.2, 0.3, 0.5, 0.4))
    assert spec.two_level
    with pytest.raises(ValueError, match="equal length"):
        two_level([1.0, 2.0], [2, 3, 4], 10)
    with pytest.raises(ValueError, match="ring must hold"):
        two_level([1.0, 2.0, 3.0], [2, 3, 4], 10)


def test_work_statistics_oracle():
    ws = analytic.work_statistics_ring(ring([1.0, 2.0], [0.2, 0.3]))
    assert ws.mean == pytest.approx(0.1, abs=1e-15)
    assert ws.variance == pytest.approx(0.37, abs=1e-15)
    assert ws.ratio == pytest.approx(3.7, abs=1e-14)


def test_work_statistics_zero_mean_ratio_is_none():
    ws = analytic.work_statistics_ring(ring([1.0, 2.0], [0.25, 0.25]))
    assert ws.mean == 0.0
    assert ws.ratio is None


@pytest.mark.parametrize("spec", [
    ring([0.1, 0.2, 0.7, 0.3], [0.9] * 4),
    analytic.RingSpec([0.1, 0.2, 0.7, 0.3], [((0.0, 1.0, 2.5), (0.1, 0.1, 0.8))] * 4),
], ids=["0/1", "equal 0/1/2.5 laws"])
def test_work_statistics_rounding_residue_mean_has_no_ratio(spec):
    # equal weight laws everywhere: the mean work is 0, but the single sum
    # sum_k d_k mu_k keeps the rounding residue of sum_k d_k
    ws = analytic.work_statistics_ring(spec)
    assert ws.mean != 0.0 and abs(ws.mean) < 1e-15
    assert ws.variance > 0.0
    assert ws.ratio is None


def test_law_cumulants_of_a_mixed_ring():
    # reservoir 0: mean 0.8, E[w^2] = 0.3 + 1.25 = 1.55, so Var = 0.91; a
    # point mass has no spread; two values a, b take (b-a)^2 pq
    var, kappa4 = MIXED.cumulants
    assert not MIXED.two_level
    np.testing.assert_allclose(MIXED.mean_weights, [0.8, 0.625, 1.0, 1.25], rtol=1e-15)
    np.testing.assert_allclose(var, [0.91, 6.25 * 0.1875, 0.0, 0.625], rtol=1e-14)
    assert kappa4[1] == 2.5**4 * 0.1875 * (1.0 - 6.0 * 0.1875) and kappa4[2] == 0.0
    # kappa_4 = mu_4 - 3 mu_2^2 of reservoir 0
    mu4 = 0.5 * 0.8**4 + 0.3 * 0.2**4 + 0.2 * 1.7**4
    assert kappa4[0] == pytest.approx(mu4 - 3.0 * 0.91**2, rel=1e-13)


@pytest.mark.parametrize("laws, message", [
    ([((0.0, 1.0), (math.nan, 1.0)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, 1.0), (-0.1, 1.1)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, 1.0), (0.5, 0.6)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, 1.0), (0.3, 0.3)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((-1.0, 1.0), (0.5, 0.5)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, math.inf), (0.5, 0.5)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, math.nan), (0.5, 0.5)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, 1.0), (1.0,)), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((), ()), ((0.0, 1.0), (0.5, 0.5))], "invalid population"),
    ([((0.0, 1.0), (0.5, 0.5))], "ring must hold"),
    ([((0.0, 1.0), (0.5, 0.5))] * 3, "ring must hold"),
], ids=["nan prob", "negative prob", "sum above 1", "sum below 1", "negative value", "inf value",
        "nan value", "unpaired", "empty", "one law", "three laws"])
def test_ring_spec_law_validation(laws, message):
    with pytest.raises(ValueError, match=message):
        analytic.RingSpec([1.0, 2.0], laws)


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
    spec = two_level([eps_l, eps_h], [n_l, n_h], 100)
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
    assert spec.two_level


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
        ring([1.0], [0.2])
    with pytest.raises(ValueError, match="ring must hold"):
        ring([1.0, 2.0, 3.0], [0.2, 0.3, 0.1])
    with pytest.raises(ValueError, match="ring must hold"):
        ring([1.0, 2.0], [0.2, 0.3, 0.1])
    with pytest.raises(ValueError, match="invalid altitude"):
        ring([1.0, -2.0], [0.2, 0.3])
    # general weights may exceed 1 (multiclass balls); 0/1 fractions may not
    assert analytic.RingSpec([1.0, 2.0], [((0.0, 1.0), (0.8, 0.2)), ((1.3,), (1.0,))]).mean_weights[1] == 1.3
    for f in ([0.2, 1.3], [0.2, -0.1], [0.2, math.nan]):
        with pytest.raises(ValueError, match="invalid population"):
            ring([1.0, 2.0], f)


def test_ring_spec_copies_input_arrays():
    eps = np.array([1.0, 2.0])
    f = np.array([0.2, 0.3])
    spec = ring(eps, f)
    eps[0] = 99.0
    f[0] = 0.9
    assert spec.altitudes[0] == 1.0 and spec.mean_weights[0] == 0.2
    assert eps.flags.writeable  # the caller's array is untouched
    assert not spec.altitudes.flags.writeable and not spec.mean_weights.flags.writeable


@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=0.1, max_value=8.0),
)
@settings(max_examples=100)
def test_efficiency_scale_invariant(eps_l, gap, a):
    # the m = 1 engine's W/(-Q_h) is 1 - eps_l/eps_h at any populations
    eps_h = eps_l + gap

    def eta(scale):
        spec = analytic.RingSpec.bernoulli([scale * eps_l, scale * eps_h], [0.2, 0.3])
        _, q_h, w = analytic.mean_heats_ring(spec)
        return w / -q_h

    assert eta(a) == pytest.approx(eta(1.0), abs=1e-12)
    assert eta(1.0) == pytest.approx(1.0 - eps_l / eps_h, abs=1e-12)


def test_mixed_work_statistics_match_the_enumeration():
    # the closed forms sum per-reservoir cumulants; the enumeration weighs
    # every draw code's work by its probability
    values, probs = montecarlo.exact_work_distribution(MIXED)
    assert probs.sum() == pytest.approx(1.0, abs=1e-15)
    mean = float(values @ probs)
    ws = analytic.work_statistics_ring(MIXED)
    assert abs(ws.mean - mean) <= 1e-12
    assert abs(ws.variance - float(((values - mean) ** 2) @ probs)) <= 1e-12
    assert ws.mean == pytest.approx(analytic.mean_heats_ring(MIXED)[2], abs=1e-14)


def _ring_order_sum(coeffs, values):
    total = 0.0
    for c, x in zip(coeffs.tolist(), values.tolist()):
        total += c * x
    return total


def _seeded_ring(n, seed, mixed):
    """0/1 ring of random occupancies, or one of random 0/1/2.5 laws."""
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.1, 3.0, n)
    if not mixed:
        return ring(eps, rng.uniform(0.0, 1.0, n))
    laws = []
    for _ in range(n):
        p = rng.uniform(0.1, 1.0, 3)
        laws.append(((0.0, 1.0, 2.5), tuple((p / p.sum()).tolist())))
    return analytic.RingSpec(eps, laws)


@pytest.mark.parametrize("mixed", [False, True], ids=["0/1", "mixed"])
@pytest.mark.parametrize("n", [2, 4, 16, 18, 32, 64])
def test_work_statistics_add_in_ring_order(n, mixed):
    # the closed forms add d_k x_k from 0.0 in ring order, the order a trial
    # adds its work; a BLAS dot product reorders the sum or fuses its steps
    for spec in (_seeded_ring(n, seed, mixed) for seed in range(5)):
        d = spec.altitudes - np.roll(spec.altitudes, -1)
        ws = analytic.work_statistics_ring(spec)
        assert ws.mean == _ring_order_sum(d, spec.mean_weights)
        assert ws.variance == _ring_order_sum(d * d, spec.cumulants[0])


def test_equal_weight_ring_mean_is_the_ring_order_sum():
    # the simulate_equal_weights golden ring: W = 0.9 sum_k d_k is rounding residue
    spec = two_level([0.1, 0.2, 0.7, 0.3], [9, 9, 9, 9], 10)
    assert analytic.work_statistics_ring(spec).mean == 5.551115123125783e-17


@pytest.mark.parametrize("beta_l, beta_h, eps_l, eps_h", [
    (1.38, 0.42, 1.0, 2.0), (2.0, 0.5, 0.3, 1.7), (0.9, -0.4, 1.2, 2.6),
])
def test_quantum_otto_oracle_matches_the_m1_ring(beta_l, beta_h, eps_l, eps_h):
    # two-point-measurement work of a two-level Otto cycle with adiabatic
    # strokes is the thermal m = 1 ring's work law
    support, probs = otto_work_law(beta_l, beta_h, eps_l, eps_h)
    spec = analytic.equilibrium_ring(beta_l, beta_h, [eps_l], [eps_h])
    values, expected = montecarlo.exact_work_distribution(spec)
    assert support.tolist() == values.tolist()
    assert np.abs(probs - expected).max() <= 1e-15
    ws = analytic.work_statistics_ring(spec)
    mean = float(np.sum(support * probs))
    assert mean == pytest.approx(ws.mean, rel=1e-12)
    assert float(np.sum((support - mean) ** 2 * probs)) == pytest.approx(ws.variance, rel=1e-12)


def test_quantum_mixing_stroke_leaves_the_ring():
    # a stroke that rotates the levels by 0.3 rad is not the urn exchange:
    # its extra transitions turn the engine's mean work negative
    ws = analytic.work_statistics_ring(analytic.equilibrium_ring(1.38, 0.42, [1.0], [2.0]))
    support, probs = otto_work_law(1.38, 0.42, 1.0, 2.0, theta=0.3)
    assert ws.mean == pytest.approx(0.1005, abs=1e-4)
    assert float(np.sum(support * probs)) == pytest.approx(-0.0386, abs=1e-4)
    assert len(support) == 7


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("beta_l, beta_h", [(1.38, 0.42), (-0.5, -1.0), (1.0, -0.5), (-1.0, 0.5)])
def test_integral_fluctuation_relation_by_enumeration(m, beta_l, beta_h):
    # <exp(-sigma)> = 1 with sigma = sum_k beta_k Q_k, Q_k = eps_k (w_{k-1} - w_k):
    # averaging over draw k leaves (1 - f_k)(1 + e^{-x_{k+1}}), and the product
    # telescopes to 1 since (1 - f_k)(1 + e^{-x_k}) = 1
    rng = np.random.default_rng(100 * m + 7)
    eps = rng.uniform(0.1, 3.0, 2 * m)
    spec = analytic.equilibrium_ring(beta_l, beta_h, eps[:m], eps[m:])
    f = spec.mean_weights
    beta = np.repeat([beta_l, beta_h], m)
    w = (np.arange(2 ** (2 * m))[:, None] >> np.arange(2 * m)) & 1  # every draw outcome
    p = np.prod(np.where(w == 1, f, 1.0 - f), axis=1)
    q = spec.altitudes * (np.roll(w, 1, axis=1) - w)
    q_low, q_high, _ = analytic.mean_heats_ring(spec)
    assert p @ q[:, :m].sum(axis=1) == pytest.approx(q_low, abs=1e-12)
    assert p @ q[:, m:].sum(axis=1) == pytest.approx(q_high, abs=1e-12)
    assert abs(p @ np.exp(-(q @ beta)) - 1.0) <= 1e-12


def _mean_exp_minus_sigma(spec, beta_l, beta_h):
    """E[exp(-sigma)] over every draw of ``spec.laws``, with sigma = sum_k
    x_k (w_{k-1} - w_k) and x_k = beta_k eps_k."""
    x = (np.repeat([beta_l, beta_h], spec.m) * spec.altitudes).tolist()
    terms = []
    for draw in itertools.product(*(zip(*law) for law in spec.laws)):
        w, p = zip(*draw)
        terms.append(math.prod(p) * math.exp(-sum(xk * (w[k - 1] - w[k]) for k, xk in enumerate(x))))
    return math.fsum(terms)


def _gibbs_ring(beta_l, beta_h, eps, values, degeneracy):
    """Ring whose reservoir k draws weight w_c with probability g_c exp(-x_k w_c)/Z(x_k)."""
    laws = []
    for x in np.repeat([beta_l, beta_h], len(eps) // 2) * eps:
        weights = [g * math.exp(-x * v) for v, g in zip(values, degeneracy)]
        laws.append((values, [wt / math.fsum(weights) for wt in weights]))
    return analytic.RingSpec(eps, laws)


# E[exp(-sigma)] is the product over k of Z(x_{k+1})/Z(x_k), which is 1 around
# the ring for thermal laws of any weights (the 0/1 case is the enumeration
# test above), and not otherwise
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("beta_l, beta_h", [(1.38, 0.42), (-0.5, -1.0), (1.0, -0.5)])
def test_integral_fluctuation_identity_over_the_laws(m, beta_l, beta_h):
    eps = np.random.default_rng(10 * m + 3).uniform(0.1, 3.0, 2 * m)
    gibbs = _gibbs_ring(beta_l, beta_h, eps, (0.0, 1.0, 2.5), (1, 2, 3))
    assert abs(_mean_exp_minus_sigma(gibbs, beta_l, beta_h) - 1.0) <= 1e-12


def test_integral_fluctuation_identity_fails_off_equilibrium():
    spec = ring([1.0, 1.3, 2.9, 2.2], [0.1, 0.2, 0.4, 0.3])  # thermal: 0.20, 0.14, 0.23, 0.28
    assert _mean_exp_minus_sigma(spec, 1.38, 0.42) == pytest.approx(1.12982, abs=1e-5)
