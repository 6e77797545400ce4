"""Occupancy, inverse temperature, entropy, degeneracy."""

import json
import math
import struct
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnengine import cli, thermo


finite_x = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_occupancy_known_values():
    assert thermo.occupancy(0.0) == 0.5
    assert thermo.occupancy(math.log(4.0)) == pytest.approx(0.2, abs=1e-15)
    assert thermo.occupancy(float("inf")) == 0.0
    assert thermo.occupancy(float("-inf")) == 1.0


def test_nan_occupancy_is_a_domain_error():
    with pytest.raises(ValueError, match="occupancy argument must not be NaN"):
        thermo.occupancy(math.nan)


def test_occupancy_extreme_arguments_do_not_overflow():
    assert thermo.occupancy(800.0) == 0.0
    assert thermo.occupancy(-800.0) == 1.0
    out = thermo.occupancy_np(np.array([800.0, -800.0, 0.0]))
    assert out[0] == 0.0 and out[1] == 1.0 and out[2] == 0.5


@given(finite_x)
@settings(max_examples=200)
def test_occupancy_complement(x):
    assert thermo.occupancy(x) + thermo.occupancy(-x) == pytest.approx(1.0, abs=1e-15)


@given(finite_x)
@settings(max_examples=100)
def test_occupancy_np_matches_scalar(x):
    # libm and numpy exp may round differently by one ulp
    assert thermo.occupancy_np(np.array([x]))[0] == pytest.approx(thermo.occupancy(x), rel=1e-15)


def _occupancy_by_halves(x):
    """The masked two-branch form occupancy_np replaced."""
    out = np.empty_like(x)
    pos = x >= 0
    e = np.exp(-x[pos])
    out[pos] = e / (1.0 + e)
    out[~pos] = 1.0 / (np.exp(x[~pos]) + 1.0)
    return out


def test_occupancy_np_is_the_two_branch_form_bit_for_bit():
    rng = np.random.default_rng(4)
    edges = [0.0, 1e-300, 745.2, 1e308, math.inf]
    x = np.concatenate([edges, np.negative(edges), rng.normal(0.0, 3.0, 400_000), rng.normal(0.0, 300.0, 400_000)])
    out = thermo.occupancy_np(x)
    assert out.tobytes() == _occupancy_by_halves(x).tobytes()
    assert math.copysign(1.0, x[5]) == -1.0 and out[5] == 0.5  # -0.0 takes the x >= 0 branch
    assert np.isnan(thermo.occupancy_np(np.array([1.0, math.nan]))[1])


def test_beta_from_occupancy_oracles():
    assert thermo.beta_from_occupancy(2000, 10_000, 1.0) == pytest.approx(math.log(4.0), abs=1e-14)
    assert thermo.beta_from_occupancy(3000, 10_000, 2.0) == pytest.approx(math.log(7.0 / 3.0) / 2.0, abs=1e-14)
    # population inversion gives negative beta
    assert thermo.beta_from_occupancy(7000, 10_000, 1.0) == pytest.approx(-math.log(7.0 / 3.0), abs=1e-14)
    assert thermo.beta_from_occupancy(8000, 10_000, 2.0) == pytest.approx(-math.log(4.0) / 2.0, abs=1e-14)


@pytest.mark.parametrize("n, N, eps", [
    (4999999, 10_000_000, 1.0),  # near half filling: ln of a ratio that rounds to 1
    (10**18 // 2 - 1, 10**18, 1.0),  # (N - n)/n rounds to exactly 1; beta is 4e-18
    (10**18 // 2 + 1, 10**18, 2.0),
    (2000, 10_000, 1.0),
    (3000, 10_000, 2.0),
    (7000, 10_000, 1.0),
    (1, 2**62, 7.5),
    (2**62 - 1, 2**62, 0.37),  # near full filling
    (9999999, 10_000_000, 1e-3),
])
def test_beta_from_occupancy_matches_a_40_digit_oracle(n, N, eps):
    with localcontext() as ctx:
        ctx.prec = 40
        exact = (Decimal(N - n) / Decimal(n)).ln() / Decimal(eps)
    beta = thermo.beta_from_occupancy(n, N, eps)
    # one rounding of the ratio, one of log1p and one of the division
    assert abs(Decimal(beta) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_beta_temperature_is_reciprocal(capsys):
    # beta is a plain float; the thermo beta document's temperature is 1/beta
    b = thermo.beta_from_occupancy(2000, 10_000, 1.0)
    assert type(b) is float
    assert cli.main(["thermo", "beta", "--n", "2000", "--N", "10000", "--eps", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["temperature"] == 1.0 / b


@given(st.integers(min_value=1, max_value=9999), st.floats(min_value=0.01, max_value=50.0))
@settings(max_examples=150)
def test_beta_occupancy_round_trip(n, eps):
    beta = thermo.beta_from_occupancy(n, 10_000, eps)
    f = thermo.occupancy(beta * eps)
    assert f == pytest.approx(n / 10_000, abs=1e-12)


def test_beta_rejects_degenerate_occupation():
    with pytest.raises(ValueError, match="degenerate occupancy"):
        thermo.beta_from_occupancy(0, 10, 1.0)
    with pytest.raises(ValueError, match="degenerate occupancy"):
        thermo.beta_from_occupancy(10, 10, 1.0)
    with pytest.raises(ValueError, match=r"degenerate occupancy \(infinite \|beta\|\)"):
        thermo.beta_from_occupancy(1, 10, 1e-320)  # ln 9 / 1e-320 overflows
    with pytest.raises(ValueError, match="invalid occupation"):
        thermo.beta_from_occupancy(11, 10, 1.0)
    with pytest.raises(ValueError, match="invalid occupation"):
        thermo.beta_from_occupancy(-1, 10, 1.0)
    with pytest.raises(ValueError, match="altitude must be positive"):
        thermo.beta_from_occupancy(5, 10, 0.0)


def test_half_occupation_is_infinite_temperature():
    assert thermo.beta_from_occupancy(5000, 10_000, 1.0) == 0.0


def test_entropy_known_values():
    assert thermo.entropy_s(0.0) == pytest.approx(math.log(2.0), abs=1e-15)
    # x f(x) + ln(1 + e^-x) at x = ln 4
    x = math.log(4.0)
    expected = x * 0.2 + math.log(1.25)
    assert thermo.entropy_s(x) == pytest.approx(expected, abs=1e-14)


@given(finite_x)
@settings(max_examples=200)
def test_entropy_even_bounded(x):
    s = thermo.entropy_s(x)
    assert 0.0 <= s <= math.log(2.0) + 1e-15
    assert s == pytest.approx(thermo.entropy_s(-x), abs=1e-12)


def test_entropy_two_argument_form():
    # s(x, y) = x f(y) + ln(1 + e^-x); cross form used by branch heats
    x, y = 1.5, -0.7
    expected = x * thermo.occupancy(y) + math.log(1.0 + math.exp(-x))
    assert thermo.entropy_s(x, y) == pytest.approx(expected, rel=1e-14)


def test_entropy_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        thermo.entropy_s(float("inf"))


def test_entropy_equally_spaced_sup_is_log_levels():
    for levels in (2, 3, 5):
        assert thermo.entropy_equally_spaced(0.0, levels) == pytest.approx(math.log(levels), abs=1e-12)
        # approaches the sup from below as the reduced gap shrinks
        assert thermo.entropy_equally_spaced(1e-4, levels) < math.log(levels)
        assert thermo.entropy_equally_spaced(1e-4, levels) == pytest.approx(math.log(levels), abs=1e-6)


def test_entropy_equally_spaced_two_levels_matches_pair_form():
    for x in (0.3, 1.7, 4.0):
        assert thermo.entropy_equally_spaced(x, 2) == pytest.approx(thermo.entropy_s(x), rel=1e-12)


def _entropy_log_sum_exp(x, levels):
    """s = ln Z + x<k> summed over every level: the oracle for the closed form.
    It allocates ``levels`` floats, so keep ``levels`` small."""
    x = abs(x)
    k = np.arange(levels, dtype=float)
    t = -k * x
    log_z = float(np.logaddexp.reduce(t))
    return log_z + x * float(np.exp(t - log_z) @ k)


@pytest.mark.parametrize("levels", [2, 3, 7, 100, 1000, 10_000])
@pytest.mark.parametrize("x", [0.0, 1e-12, 1e-4, 1.0, 30.0, 800.0])
def test_entropy_equally_spaced_matches_log_sum_exp(x, levels):
    expected = _entropy_log_sum_exp(x, levels)
    for gap in (x, -x):
        assert math.isclose(thermo.entropy_equally_spaced(gap, levels), expected, rel_tol=1e-12)


def test_entropy_equally_spaced_huge_levels():
    # L -> inf leaves s = -ln(1 - e^-x) + x/(e^x - 1); 10^12 levels would be 8 TB as an array
    x = 0.5
    limit = -math.log1p(-math.exp(-x)) + x / math.expm1(x)
    assert thermo.entropy_equally_spaced(x, 10**12) == pytest.approx(limit, rel=1e-14)
    assert thermo.entropy_equally_spaced(0.0, 10**300) == pytest.approx(300 * math.log(10), rel=1e-15)
    # L x overflows to inf: every state but k = 0 is empty
    assert thermo.entropy_equally_spaced(1e10, 10**300) == 0.0


def test_entropy_equally_spaced_validation():
    with pytest.raises(ValueError, match="levels"):
        thermo.entropy_equally_spaced(1.0, 1)
    with pytest.raises(ValueError, match="finite"):
        thermo.entropy_equally_spaced(float("nan"), 3)
    with pytest.raises(ValueError, match="levels too large for a float"):
        thermo.entropy_equally_spaced(0.5, 10**400)


def test_log_degeneracy_small_exact():
    assert thermo.log_degeneracy(3, 1) == math.log(3.0)
    assert thermo.log_degeneracy(10, 0) == 0.0
    assert thermo.log_degeneracy(10, 10) == 0.0
    assert thermo.log_degeneracy(5, 2) == pytest.approx(math.log(10.0), rel=1e-15)


def test_log_degeneracy_large_uses_stirling_branch():
    n_total, n = 10**6, 200_000
    got = thermo.log_degeneracy(n_total, n)
    expected = math.lgamma(n_total + 1) - math.lgamma(n + 1) - math.lgamma(n_total - n + 1)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n_total, n", [
    (10**23, 5), (10**16, 3), (10**12, 5), (10**23, 10**4), (10**6, 5 * 10**5),
    (10**6, 10**6 - 3), (10_001, 5_000),
])
def test_log_degeneracy_matches_the_falling_factorial_sum(n_total, n):
    # ln C(N, n) = sum_{i<k} ln(N - i) - ln k! with k = min(n, N - n): positive
    # terms, no cancellation; ln N! - ln n! - ln(N-n)! keeps no digit at N = 1e23
    k = min(n, n_total - n)
    oracle = math.fsum(math.log(n_total - i) for i in range(k)) - math.lgamma(k + 1)
    assert thermo.log_degeneracy(n_total, n) == pytest.approx(oracle, rel=1e-12)


def test_log_degeneracy_validation():
    with pytest.raises(ValueError, match="invalid occupation"):
        thermo.log_degeneracy(10, 11)
    with pytest.raises(ValueError, match="invalid occupation"):
        thermo.log_degeneracy(10, -1)
    with pytest.raises(ValueError, match="occupation too large for a float"):
        thermo.log_degeneracy(10**400, 5)


def test_carnot_efficiency_values():
    assert thermo.carnot_efficiency(1.38, 0.42) == pytest.approx(1.0 - 0.42 / 1.38, rel=1e-15)
    # mixed-sign temperatures clamp at unity
    assert thermo.carnot_efficiency(0.2007, -0.1003) == 1.0
    with pytest.raises(ValueError, match="infinite cold temperature"):
        thermo.carnot_efficiency(0.0, 0.42)


def test_carnot_efficiency_is_correctly_rounded():
    # the engine and pump goldens' betas; 1 - bh/bl rounds twice and lands
    # one ulp high on both
    for (n_l, n_h), eta in [((2000, 3000), 0.694401894665888), ((3000, 2000), 0.1819321008987483)]:
        bl = thermo.beta_from_occupancy(n_l, 10_000, 1.0)
        bh = thermo.beta_from_occupancy(n_h, 10_000, 2.0)
        assert thermo.carnot_efficiency(bl, bh) == eta == float(1 - Fraction(bh) / Fraction(bl))
        assert 1.0 - bh / bl == math.nextafter(eta, 1.0)
    # an overflowing ratio or an infinite beta keeps 1 - beta_h/beta_l
    assert thermo.carnot_efficiency(1e-300, 1e10) == -math.inf
    assert thermo.carnot_efficiency(math.inf, 0.42) == 1.0


@given(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=100)
def test_carnot_efficiency_scale_invariant(bl, bh, a):
    assert thermo.carnot_efficiency(a * bl, a * bh) == pytest.approx(
        thermo.carnot_efficiency(bl, bh), abs=1e-12
    )


def _bits(value):
    return struct.pack("<d", float(value))


def test_efficiency_float_branch_matches_array_branch_bit_for_bit():
    q_highs = [-2.5, -1e-300, 0.0, -0.0, 1.5, math.nan, math.inf, -math.inf]
    works = [0.7, -0.7, 0.0, -0.0]
    for w in works:
        for q in q_highs:
            array_eta = thermo._efficiency(np.array(w), np.array(q))
            assert isinstance(array_eta, np.floating)
            for args in ((w, q), (np.float64(w), np.float64(q)), (w, np.float64(q))):
                assert _bits(thermo._efficiency(*args)) == _bits(array_eta), (w, q, args)
    batch = thermo._efficiency(np.repeat(works, len(q_highs)), np.tile(q_highs, len(works)))
    singles = [thermo._efficiency(w, q) for w in works for q in q_highs]
    assert list(map(_bits, batch)) == list(map(_bits, singles))
