"""Reservoirs, rings, single-cycle exchange."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnengine import urn


def test_make_reservoir_basic():
    r = urn.make_reservoir(1.0, {0.0: 7, 1.0: 3}, urn.Group.LOW)
    assert r.total == 10
    assert r.total_weight == 3.0
    assert r.mean_weight == pytest.approx(0.3)
    assert r.weight_variance == pytest.approx(0.21)
    assert r.is_two_level


def test_make_reservoir_drops_zero_counts_and_sorts():
    r = urn.make_reservoir(2.0, {5.0: 2, 1.0: 0, 3.0: 1}, urn.Group.HIGH)
    assert list(r.weights) == [3.0, 5.0]
    assert list(r.counts) == [1, 2]


def test_make_reservoir_validation():
    with pytest.raises(ValueError, match="invalid altitude"):
        urn.make_reservoir(0.0, {1.0: 1}, urn.Group.LOW)
    with pytest.raises(ValueError, match="empty reservoir"):
        urn.make_reservoir(1.0, {}, urn.Group.LOW)
    with pytest.raises(ValueError, match="empty reservoir"):
        urn.make_reservoir(1.0, {1.0: 0}, urn.Group.LOW)
    with pytest.raises(ValueError, match="invalid population"):
        urn.make_reservoir(1.0, {1.0: -2}, urn.Group.LOW)
    with pytest.raises(ValueError, match="invalid population"):
        urn.make_reservoir(1.0, {float("nan"): 2}, urn.Group.LOW)


def test_population_total_must_fit_int64():
    assert urn.make_reservoir(1.0, {0.0: 2**62, 1.0: 2**62 - 1}, urn.Group.LOW).total == 2**63 - 1
    for population in ({0.0: 2**62, 1.0: 2**62}, {1.0: 2**63}, {1.0: 2**64 + 5}):
        with pytest.raises(ValueError, match="invalid population"):
            urn.make_reservoir(1.0, population, urn.Group.LOW)


def test_reservoir_arrays_frozen():
    r = urn.make_reservoir(1.0, {0.0: 2, 1.0: 2}, urn.Group.LOW)
    with pytest.raises(ValueError):
        r.weights[0] = 9.0


def test_two_level_ring_shape():
    ring = urn.two_level_ring([1.0, 2.0], [2, 3], 10)
    assert ring.m == 1
    assert ring.total == 10
    assert list(ring.altitudes) == [1.0, 2.0]
    assert ring.reservoirs[0].group is urn.Group.LOW
    assert ring.reservoirs[1].group is urn.Group.HIGH


def test_otto_ring_equivalent():
    a = urn.otto_ring(1.0, 2.0, 2, 3, 10)
    b = urn.two_level_ring([1.0, 2.0], [2, 3], 10)
    assert list(a.altitudes) == list(b.altitudes)
    assert [r.mean_weight for r in a.reservoirs] == [r.mean_weight for r in b.reservoirs]


def test_ring_validation():
    r1 = urn.make_reservoir(1.0, {0.0: 5, 1.0: 5}, urn.Group.LOW)
    with pytest.raises(ValueError, match="ring must hold"):
        urn.EngineRing(reservoirs=(r1,))
    r2 = urn.make_reservoir(2.0, {0.0: 4, 1.0: 5}, urn.Group.HIGH)
    with pytest.raises(ValueError, match="same number of balls"):
        urn.EngineRing(reservoirs=(r1, r2))
    r3 = urn.make_reservoir(2.0, {0.0: 5, 1.0: 5}, urn.Group.LOW)
    with pytest.raises(ValueError, match="m low reservoirs then m high"):
        urn.EngineRing(reservoirs=(r1, r3))


def test_draw_ball_class_boundaries():
    r = urn.make_reservoir(1.0, {0.0: 7, 1.0: 3}, urn.Group.LOW)

    class FixedRng:
        def __init__(self, v):
            self.v = v

        def integers(self, n):
            assert n == 10
            return self.v

    assert urn.draw_ball(r, FixedRng(0)) == 0.0
    assert urn.draw_ball(r, FixedRng(6)) == 0.0
    assert urn.draw_ball(r, FixedRng(7)) == 1.0
    assert urn.draw_ball(r, FixedRng(9)) == 1.0


def test_exchange_step_work_and_heats_by_hand():
    # deterministic reservoirs: all balls in one class
    low = urn.make_reservoir(1.0, {0.0: 4}, urn.Group.LOW)
    high = urn.make_reservoir(2.0, {1.0: 4}, urn.Group.HIGH)
    ring = urn.EngineRing(reservoirs=(low, high))
    out = urn.exchange_step(ring, np.random.default_rng(0))
    # drawn weights are (0, 1); work = (1-2)*0 + (2-1)*1 = 1
    assert out.drawn_weights == (0.0, 1.0)
    assert out.work == 1.0
    # heats: reservoir k receives eps_k * (drawn[k-1] - drawn[k])
    assert out.heat_increments == (1.0 * (1.0 - 0.0), 2.0 * (0.0 - 1.0))
    assert out.conservation_residual() == 0.0


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_exchange_step_conserves_energy(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    total = int(rng.integers(1, 30))
    altitudes = np.cumsum(rng.uniform(0.1, 3.0, size=2 * m))
    excited = [int(rng.integers(0, total + 1)) for _ in range(2 * m)]
    ring = urn.two_level_ring(altitudes, excited, total)
    out = urn.exchange_step(ring, rng)
    scale = abs(out.work) + sum(abs(q) for q in out.heat_increments)
    assert abs(out.conservation_residual()) <= 1e-12 * max(scale, 1.0)


def test_exchange_step_multiclass_weights():
    # weights beyond {0, 1} are legal at the urn layer
    low = urn.make_reservoir(1.0, {0.5: 2, 2.5: 2}, urn.Group.LOW)
    high = urn.make_reservoir(3.0, {0.5: 2, 2.5: 2}, urn.Group.HIGH)
    ring = urn.EngineRing(reservoirs=(low, high))
    rng = np.random.default_rng(11)
    out = urn.exchange_step(ring, rng)
    assert set(out.drawn_weights) <= {0.5, 2.5}
    scale = abs(out.work) + sum(abs(q) for q in out.heat_increments)
    assert abs(out.conservation_residual()) <= 1e-12 * max(scale, 1.0)
