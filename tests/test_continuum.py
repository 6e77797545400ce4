"""Continuum (Carnot-limit) branch heats and reversible work."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnengine import analytic, continuum, thermo


def test_reversible_work_oracle():
    w, eta = continuum.reversible_work(1.38, 0.42, 1.38 * 1.0, 1.38 * 1.1)
    assert w == pytest.approx(0.049, abs=0.002)
    assert eta == thermo.carnot_efficiency(1.38, 0.42)


def test_reversible_entropy_identity():
    # matched endpoints: beta_l Q_l + beta_h Q_h = 0 to rounding
    ep = continuum.reversible_endpoints(1.38, 0.42, 1.38, 1.38 * 1.1)
    res = continuum.continuum_heats(ep)
    assert abs(1.38 * res.heat_low + 0.42 * res.heat_high) <= 1e-10
    assert res.work == pytest.approx(continuum.reversible_work(1.38, 0.42, 1.38, 1.38 * 1.1)[0], rel=1e-12)
    assert res.efficiency == pytest.approx(thermo.carnot_efficiency(1.38, 0.42), abs=1e-12)


@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.01, max_value=4.0),
)
@settings(max_examples=100)
def test_reversible_family_is_carnot(bl, dbeta, l1, dl):
    bh = bl + dbeta  # run as a pump when hot is colder; identity still holds
    ep = continuum.reversible_endpoints(bl, bh, l1, l1 + dl)
    res = continuum.continuum_heats(ep)
    scale = abs(bl * res.heat_low) + abs(bh * res.heat_high)
    assert abs(bl * res.heat_low + bh * res.heat_high) <= 1e-10 * max(scale, 1.0)


def test_max_reversible_work_oracle():
    wm = continuum.max_reversible_work(1.38, 0.42)
    assert wm == pytest.approx((1.0 / 0.42 - 1.0 / 1.38) * math.log(2.0), rel=1e-15)
    assert wm == pytest.approx(1.149, abs=0.001)
    # supremum dominates any matched reversible cycle
    for l1, lm in [(0.5, 2.0), (1.38, 1.52), (0.1, 9.0)]:
        w, _ = continuum.reversible_work(1.38, 0.42, l1, lm)
        assert w <= wm + 1e-12


def test_negative_hot_branch_oracle():
    ep = continuum.CarnotEndpoints.from_altitudes(0.2, -0.1, 0.3, 0.3, 14.0, 0.3)
    res = continuum.continuum_heats(ep)
    assert res.work == pytest.approx(2.48, abs=0.03)
    assert res.efficiency == pytest.approx(0.997, abs=0.001)
    assert res.heat_low == pytest.approx(0.0067485, rel=1e-4)
    assert res.heat_high == pytest.approx(-2.4837642, rel=1e-6)


def test_continuum_heats_work_is_negative_total_heat():
    ep = continuum.CarnotEndpoints(beta_l=1.38, beta_h=0.42, cold_first=1.38,
                                   cold_last=1.518, hot_first=1.512, hot_last=1.386)
    res = continuum.continuum_heats(ep)
    assert res.work == pytest.approx(-(res.heat_low + res.heat_high), abs=1e-15)


def test_efficiency_none_when_hot_side_not_discharging():
    # reversed cold branch: the hot side absorbs heat, eta undefined
    ep = continuum.reversible_endpoints(1.38, 0.42, 1.518, 1.38)
    res = continuum.continuum_heats(ep)
    assert res.heat_high > 0.0
    assert res.efficiency is None


def test_efficiency_defined_whenever_hot_discharges():
    # work-consuming but hot-discharging cycles report a (negative) ratio
    ep = continuum.reversible_endpoints(0.42, 1.38, 0.5, 1.5)
    res = continuum.continuum_heats(ep)
    assert res.heat_high < 0.0 and res.work < 0.0
    assert res.efficiency == pytest.approx(res.work / -res.heat_high, rel=1e-15)


@pytest.mark.parametrize("beta_l, beta_h", [(1.0, -0.5), (-1.0, 0.5)])
def test_reversible_cycle_needs_same_sign_betas(beta_l, beta_h):
    # Hm = L1 and H1 = Lm cannot take beta_h's sign when beta_l's differs
    message = r"reversible cycle needs sign\(beta_l\) = sign\(beta_h\)"
    with pytest.raises(ValueError, match=message):
        continuum.reversible_work(beta_l, beta_h, 1.0, 2.0)
    with pytest.raises(ValueError, match=message):
        continuum.max_reversible_work(beta_l, beta_h)
    with pytest.raises(ValueError, match=message):
        continuum.reversible_endpoints(beta_l, beta_h, 1.0, 2.0)


@pytest.mark.parametrize("cold_first", [-1.0, 0.0, math.inf])
def test_reversible_work_validates_endpoints(cold_first):
    message = "invalid reduced endpoint cold_first: altitude must be positive"
    with pytest.raises(ValueError, match=message):
        continuum.reversible_work(1.0, 0.5, cold_first, 2.0)
    with pytest.raises(ValueError, match=message):
        continuum.reversible_endpoints(1.0, 0.5, cold_first, 2.0)


def test_reversible_work_antisymmetric_under_beta_swap():
    for l1, lm in [(0.5, 2.0), (1.38, 1.518)]:
        w_fwd, _ = continuum.reversible_work(1.38, 0.42, l1, lm)
        w_rev, _ = continuum.reversible_work(0.42, 1.38, l1, lm)
        assert w_rev == pytest.approx(-w_fwd, rel=1e-14)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.05, max_value=10.0),
    st.floats(min_value=0.05, max_value=10.0),
)
@settings(max_examples=150)
def test_efficiency_bounded_by_carnot(bl, bh, l1, lm, h1, hm):
    ep = continuum.CarnotEndpoints(beta_l=bl, beta_h=bh, cold_first=l1,
                                   cold_last=lm, hot_first=h1, hot_last=hm)
    res = continuum.continuum_heats(ep)
    if res.efficiency is not None and res.work > 0.0:
        assert res.efficiency <= thermo.carnot_efficiency(bl, bh) + 1e-9


def test_entropy_rate_vanishes_at_large_reduced_energy():
    # normalization choice: s -> 0 as the reduced energy grows
    assert float(thermo.entropy_s(50.0)) <= 1e-20
    assert float(thermo.entropy_s(745.0)) <= 1e-300
    assert float(thermo.entropy_s(800.0)) == 0.0


def test_m64_ring_within_one_percent_of_continuum():
    ep = continuum.CarnotEndpoints(beta_l=1.38, beta_h=0.42, cold_first=1.38,
                                   cold_last=1.518, hot_first=1.512, hot_last=1.386)
    target = continuum.continuum_heats(ep)
    spec = continuum.discretized_ring(ep, 64)
    q_low, q_high, w = analytic.mean_heats_ring(spec)
    assert w == pytest.approx(target.work, rel=0.01)
    assert q_low == pytest.approx(target.heat_low, rel=0.01)
    assert q_high == pytest.approx(target.heat_high, rel=0.01)


def test_otto_endpoints_collapse():
    ep = continuum.CarnotEndpoints.from_altitudes(1.38, 0.42, 1.0, 1.0, 2.0, 2.0)
    assert ep.cold_first == ep.cold_last == pytest.approx(1.38)
    assert ep.hot_first == ep.hot_last == pytest.approx(0.84)
    res = continuum.continuum_heats(ep)
    spec = analytic.equilibrium_ring(1.38, 0.42, [1.0], [2.0])
    q_low, q_high, w = analytic.mean_heats_ring(spec)
    assert res.heat_low == pytest.approx(q_low, rel=1e-12)
    assert res.heat_high == pytest.approx(q_high, rel=1e-12)
    assert res.work == pytest.approx(w, rel=1e-12)


def test_endpoint_validation():
    with pytest.raises(ValueError, match="beta must be finite and nonzero"):
        continuum.CarnotEndpoints(beta_l=0.0, beta_h=0.4, cold_first=1.0,
                                  cold_last=1.1, hot_first=1.1, hot_last=1.0)
    with pytest.raises(ValueError, match="altitude must be positive"):
        continuum.CarnotEndpoints(beta_l=1.0, beta_h=0.4, cold_first=-1.0,
                                  cold_last=1.1, hot_first=1.1, hot_last=1.0)
    # negative-beta branches demand negative reduced endpoints
    with pytest.raises(ValueError, match="altitude must be positive"):
        continuum.CarnotEndpoints(beta_l=1.0, beta_h=-0.4, cold_first=1.0,
                                  cold_last=1.1, hot_first=1.1, hot_last=1.0)
    ok = continuum.CarnotEndpoints(beta_l=1.0, beta_h=-0.4, cold_first=1.0,
                                   cold_last=1.1, hot_first=-1.1, hot_last=-1.0)
    assert ok.hot_altitudes == (pytest.approx(2.75), pytest.approx(2.5))


def test_discretized_ring_converges_to_continuum():
    ep = continuum.CarnotEndpoints(beta_l=1.38, beta_h=0.42, cold_first=1.38,
                                   cold_last=1.518, hot_first=1.512, hot_last=1.386)
    target = continuum.continuum_heats(ep).work
    errors = []
    for m in (2, 8, 32, 128):
        spec = continuum.discretized_ring(ep, m)
        _, _, w = analytic.mean_heats_ring(spec)
        errors.append(abs(w - target))
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-3
    # roughly first-order in 1/m: quadrupling m cuts the error by ~4
    assert errors[2] / errors[3] == pytest.approx(4.0, rel=0.35)


def test_discretized_ring_m1_is_two_reservoirs():
    ep = continuum.CarnotEndpoints.from_altitudes(1.38, 0.42, 1.0, 1.0, 2.0, 2.0)
    spec = continuum.discretized_ring(ep, 1)
    assert spec.m == 1
    assert list(spec.altitudes) == [1.0, 2.0]
