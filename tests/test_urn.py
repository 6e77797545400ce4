"""Rings of weighted balls, single-cycle exchange."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exchange_oracle import exchange_step
from rings import two_level
from urnengine import analytic, montecarlo

from_populations = analytic.RingSpec.from_populations


def test_make_reservoir_basic():
    spec = from_populations([1.0, 2.0], [{0.0: 7, 1.0: 3}, {1.0: 10}])
    assert spec.total == 10
    assert spec.laws[0] == ((0.0, 1.0), (0.7, 0.3)) and spec.counts == ((7, 3), (10,))
    assert montecarlo._Tables(spec).bounds == [[7], []]
    assert spec.two_level


def test_make_reservoir_drops_zero_counts_and_sorts():
    spec = from_populations([2.0, 1.0], [{5.0: 2, 1.0: 0, 3.0: 1}, {2.5: 3}])
    assert spec.laws[0][0] == (3.0, 5.0)
    assert spec.counts[0] == (1, 2)


def test_make_reservoir_validation():
    with pytest.raises(ValueError, match="invalid altitude"):
        from_populations([0.0, 2.0], [{1.0: 1}, {1.0: 1}])
    for population, message in [({}, "empty reservoir"), ({1.0: 0}, "empty reservoir"),
                                ({1.0: -2}, "invalid population"), ({1.0: 2.5}, "invalid population"),
                                ({float("nan"): 2}, "invalid population"), ({-1.0: 2}, "invalid population"),
                                ({1.0: math.nan}, "invalid population"), ({1.0: math.inf}, "invalid population")]:
        with pytest.raises(ValueError, match=message):
            from_populations([1.0, 2.0], [population, {1.0: 2}])


def test_population_total_must_fit_int64():
    largest = {0.0: 2**62, 1.0: 2**62 - 1}
    assert from_populations([1.0, 2.0], [largest, largest]).total == 2**63 - 1
    for population in ({0.0: 2**62, 1.0: 2**62}, {1.0: 2**63}, {1.0: 2**64 + 5}):
        with pytest.raises(ValueError, match="invalid population"):
            from_populations([1.0, 2.0], [population, population])


def test_reservoir_arrays_frozen():
    spec = from_populations([1.0, 2.0], [{0.0: 2, 1.0: 2}, {1.0: 4}])
    with pytest.raises(ValueError):
        spec.altitudes[0] = 9.0
    with pytest.raises(TypeError):
        spec.counts[0][0] = 9  # type: ignore[index]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.total = 5  # type: ignore[misc]


def test_two_level_ring_shape():
    spec = two_level([1.0, 2.0], [2, 3], 10)
    assert spec.m == 1
    assert spec.total == 10
    assert list(spec.altitudes) == [1.0, 2.0]
    assert spec.counts == ((8, 2), (7, 3))


def test_two_level_ring_validation():
    with pytest.raises(ValueError, match="equal length"):
        from_populations([1.0, 2.0], [{0.0: 8, 1.0: 2}])
    with pytest.raises(ValueError, match="ring must hold"):
        two_level([1.0, 2.0, 3.0], [2, 3, 4], 10)
    for excited in ([-1, 3], [2, 11]):
        with pytest.raises(ValueError, match="invalid population"):
            two_level([1.0, 2.0], excited, 10)


def test_ring_validation():
    with pytest.raises(ValueError, match="ring must hold"):
        from_populations([1.0], [{0.0: 5, 1.0: 5}])
    with pytest.raises(ValueError, match="same number of balls"):
        from_populations([1.0, 2.0], [{0.0: 5, 1.0: 5}, {0.0: 4, 1.0: 5}])


def test_draw_ball_class_boundaries():
    # a draw U below 7/10 has weight 0 and from 7/10 on weight 1, on both Monte
    # Carlo paths: its 16-bit prefix u decides, but for u = floor(0.7 2^16) =
    # 45875, whose next word decides
    tables = montecarlo._Tables(from_populations([1.0, 2.0], [{0.0: 7, 1.0: 3}, {1.0: 10}]))
    for prefix, words, weight_class in [(0, [], 0), (45874, [], 0), (45875, [0], 0),
                                        (45875, [2**64 - 1], 1), (45876, [], 1), (65535, [], 1)]:
        source = iter(words)
        cls = montecarlo._classify(tables, np.array([[prefix], [prefix]], dtype=np.uint16), source.__next__)
        assert next(source, None) is None
        assert cls[:, 0].tolist() == [weight_class, 0]
        assert np.flatnonzero(montecarlo._code_stats(tables, cls).hist).tolist() == [weight_class]
        # W = (1 - 2) w + (2 - 1) 1 for a weight-w draw at the low reservoir
        assert montecarlo._trial_stats(tables, cls).mean == 1.0 - weight_class


def test_exchange_step_work_and_heats_by_hand():
    # drawn weights (0, 1): work = (1-2)*0 + (2-1)*1 = 1
    work, heats, violation = exchange_step([1.0, 2.0], [0.0, 1.0])
    assert work == 1.0
    # heats: reservoir k receives eps_k * (drawn[k-1] - drawn[k])
    assert heats == [1.0 * (1.0 - 0.0), 2.0 * (0.0 - 1.0)]
    assert not violation


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_exchange_step_conserves_energy(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    altitudes = np.cumsum(rng.uniform(0.1, 3.0, size=2 * m)).tolist()
    drawn = rng.integers(0, 2, size=2 * m).astype(float).tolist()
    work, heats, violation = exchange_step(altitudes, drawn)
    assert not violation
    assert math.fsum([work, *heats]) == pytest.approx(0.0, abs=1e-12 * max(sum(altitudes), 1.0))


def test_exchange_step_multiclass_weights():
    # weights beyond {0, 1}: every draw of a 0.5/2.5 ring conserves energy
    for drawn in itertools.product((0.5, 2.5), repeat=4):
        _, _, violation = exchange_step([1.0, 1.5, 3.0, 2.0], list(drawn))
        assert not violation
