"""Acceptance gate: one test per published worked example or guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
asserts the same condition, so the suite doubles as a checklist.  Tolerances
are part of the contract and are not loosened to make runs green.
"""

import math
import time

import numpy as np
import pytest

from rings import two_level
from urnengine import analytic, continuum, frontier, montecarlo, thermo

N_BALLS = 10_000

def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})")
    assert ok, f"{name}: {detail}"


def test_otto_engine_worked_example():
    t0 = time.perf_counter()
    spec = two_level([1.0, 2.0], [2000, 3000], N_BALLS)
    _, q_h, w = analytic.mean_heats_ring(spec)
    eta = w / -q_h
    beta_l = thermo.beta_from_occupancy(2000, N_BALLS, 1.0)
    beta_h = thermo.beta_from_occupancy(3000, N_BALLS, 2.0)
    # the quoted 0.6957 reads the bound at the two-decimal betas; the exact
    # pipeline value is pinned alongside so both stay visible
    eta_c_rounded = thermo.carnot_efficiency(1.38, 0.42)
    eta_c_exact = thermo.carnot_efficiency(beta_l, beta_h)
    elapsed = time.perf_counter() - t0
    ok = (
        w == pytest.approx(0.1, abs=1e-12)
        and eta == pytest.approx(0.5, abs=1e-15)
        and beta_l == pytest.approx(1.3863, abs=5e-4)
        and beta_h == pytest.approx(0.4236, abs=5e-4)
        and eta_c_rounded == pytest.approx(0.6957, abs=1e-3)
        and eta_c_exact == pytest.approx(0.6944, abs=1e-3)
        and elapsed < 1.0
    )
    _report(
        "otto engine worked example",
        ok,
        f"W={w:.6f} eta={eta:.3f} beta_l={beta_l:.5f} beta_h={beta_h:.5f} "
        f"eta_C={eta_c_rounded:.5f}/{eta_c_exact:.5f} t={elapsed:.3f}s",
    )


def test_heat_pump_worked_example():
    # swapping the populations reverses both heat flows and the work sign
    spec = two_level([1.0, 2.0], [3000, 2000], N_BALLS)
    _, q_h, w = analytic.mean_heats_ring(spec)
    cop = -q_h / w  # Q_h = 2d and W = -d exactly, so COP is exactly 2
    beta_l = thermo.beta_from_occupancy(3000, N_BALLS, 1.0)
    beta_h = thermo.beta_from_occupancy(2000, N_BALLS, 2.0)
    cop_carnot = 1.0 / thermo.carnot_efficiency(beta_l, beta_h)
    ok = (
        w == pytest.approx(-0.1, abs=1e-12)
        and cop == 2.0
        and beta_l == pytest.approx(0.8473, abs=5e-5)
        and beta_h == pytest.approx(0.6931, abs=5e-5)
        and cop_carnot == pytest.approx(5.49, abs=0.05)
    )
    _report(
        "heat pump worked example",
        ok,
        f"W={w:.3f} COP={cop:.1f} beta_l={beta_l:.5f} beta_h={beta_h:.5f} "
        f"COP_C={cop_carnot:.4f}",
    )


def test_negative_temperature_branches():
    b1 = thermo.beta_from_occupancy(7000, N_BALLS, 1.0)
    b2 = thermo.beta_from_occupancy(8000, N_BALLS, 2.0)
    beta_l = thermo.beta_from_occupancy(4500, N_BALLS, 1.0)
    beta_h = thermo.beta_from_occupancy(5500, N_BALLS, 2.0)
    spec = two_level([1.0, 2.0], [4500, 5500], N_BALLS)
    _, q_h, w = analytic.mean_heats_ring(spec)
    eta = w / -q_h
    eta_max = thermo.carnot_efficiency(beta_l, beta_h)
    ok = (
        b1 == pytest.approx(-0.8473, abs=5e-5)
        and b2 == pytest.approx(-0.6931, abs=5e-5)
        and beta_l == pytest.approx(0.2007, abs=5e-5)
        and beta_h == pytest.approx(-0.1003, abs=5e-5)
        and w == pytest.approx(0.1, abs=1e-12)
        and eta == pytest.approx(0.5, abs=1e-15)
        and eta_max == 1.0
    )
    _report(
        "negative temperature branches",
        ok,
        f"beta(7000)={b1:.5f} beta(8000)={b2:.5f} mixed=({beta_l:.5f},{beta_h:.5f}) "
        f"W={w:.3f} eta={eta:.3f} eta_max={eta_max:.1f}",
    )


def test_work_distribution_against_simulation():
    t0 = time.perf_counter()
    spec = two_level([1.0, 2.0], [2, 3], 10)
    stats = analytic.work_statistics_ring(spec)
    values, probs = montecarlo.exact_work_distribution(spec)
    mean_enum = float(np.dot(values, probs))
    var_enum = float(np.dot(values**2, probs) - mean_enum**2)
    ens = montecarlo.run_ensemble(spec, 1_000_000, seed=2026, workers=1)
    report = montecarlo.compare_to_analytic(ens, spec)
    elapsed = time.perf_counter() - t0
    ok = (
        stats.mean == pytest.approx(0.1, abs=1e-12)
        and stats.variance == pytest.approx(0.37, abs=1e-12)
        and mean_enum == pytest.approx(stats.mean, abs=1e-12)
        and var_enum == pytest.approx(stats.variance, abs=1e-12)
        and abs(report.z_mean) < 4.0
        and abs(report.z_var) < 4.0
        and ens.conservation_violations == 0
        and elapsed < 10.0
    )
    _report(
        "work distribution vs million-trial simulation",
        ok,
        f"mean={stats.mean:.4f} var={stats.variance:.4f} z_mean={report.z_mean:.2f} "
        f"z_var={report.z_var:.2f} t={elapsed:.2f}s",
    )


def test_reversible_cycle_reaches_carnot():
    eta_c = thermo.carnot_efficiency(1.38, 0.42)
    # quoted altitudes, taken literally, land inside the work band
    literal = continuum.continuum_heats(
        continuum.CarnotEndpoints.from_altitudes(1.38, 0.42, 1.0, 1.1, 3.6, 3.3)
    )
    # the matched-endpoint cycle through the same cold branch is the
    # reversible one the efficiency and entropy identities refer to
    l1, lm = 1.38 * 1.0, 1.38 * 1.1
    w, eta = continuum.reversible_work(1.38, 0.42, l1, lm)
    rev = continuum.continuum_heats(continuum.reversible_endpoints(1.38, 0.42, l1, lm))
    identity = 1.38 * rev.heat_low + 0.42 * rev.heat_high
    ok = (
        literal.work == pytest.approx(0.049, abs=2e-3)
        and w == pytest.approx(0.049, abs=2e-3)
        and eta == pytest.approx(eta_c, abs=1e-6)
        and abs(identity) <= 1e-10
    )
    _report(
        "reversible cycle reaches the efficiency bound",
        ok,
        f"W_literal={literal.work:.5f} W_rev={w:.5f} eta-eta_C={eta - eta_c:.2e} "
        f"identity={identity:.2e}",
    )


def test_maximum_work_and_entropy_limits():
    wmax = continuum.max_reversible_work(1.38, 0.42)
    w_otto, _, evals = frontier.max_work(1, 1.38, 0.42, seed=0)
    grid = np.linspace(0.01, 12.0, 401)
    el, eh = np.meshgrid(grid, grid, indexing="ij")
    gw, _, _ = frontier.evaluate_configs(1.38, 0.42, np.column_stack([el.ravel(), eh.ravel()]))
    w_scan = float(np.max(gw))
    sup_gaps = [
        abs(thermo.entropy_equally_spaced(1e-4, levels) - math.log(levels))
        for levels in (2, 3, 5)
    ]
    ok = (
        wmax == pytest.approx(1.149, abs=1e-3)
        and w_otto == pytest.approx(0.20, abs=4e-3)
        and abs(w_otto - w_scan) / w_scan < 0.01
        and max(sup_gaps) < 1e-6
        and evals > 0
    )
    _report(
        "maximum work and entropy limits",
        ok,
        f"W_max={wmax:.6f} W_otto={w_otto:.6f} grid={w_scan:.6f} "
        f"sup_gap={max(sup_gaps):.1e}",
    )


def test_negative_hot_bath_continuum_example():
    res = continuum.continuum_heats(
        continuum.CarnotEndpoints.from_altitudes(0.2, -0.1, 0.3, 0.3, 14.0, 0.3)
    )
    ok = (
        res.work == pytest.approx(2.48, abs=0.03)
        and res.efficiency == pytest.approx(0.997, abs=1e-3)
    )
    _report(
        "negative-hot-bath continuum example",
        ok,
        f"W={res.work:.5f} eta={res.efficiency:.5f}",
    )


def test_fluctuation_ratio_vanishes_under_refinement():
    # fixed-endpoint loop: cold branch climbs 1 -> 2, hot branch returns
    ep = continuum.CarnotEndpoints.from_altitudes(1.38, 0.42, 1.0, 2.0, 2.0, 1.0)
    ratios = []
    for m in (2, 4, 8, 16, 32, 64):
        st = analytic.work_statistics_ring(continuum.discretized_ring(ep, m))
        ratios.append(st.variance / abs(st.mean))
    decreasing = all(b < a for a, b in zip(ratios, ratios[1:]))
    # order in the step size, read off the finest halving
    order = math.log2(ratios[-2] / ratios[-1])
    ok = decreasing and order == pytest.approx(1.0, abs=0.2)
    _report(
        "fluctuation ratio vanishes under refinement",
        ok,
        f"ratio(m=2)={ratios[0]:.4f} ratio(m=64)={ratios[-1]:.5f} order={order:.3f}",
    )


def test_degeneracy_and_stirling_consistency():
    exact = thermo.log_degeneracy(3, 1) == math.log(3)
    n, n_total = 200_000, 1_000_000
    # adding one excited ball changes ln W by beta*eps at equilibrium
    delta = thermo.log_degeneracy(n_total, n) - thermo.log_degeneracy(n_total, n - 1)
    beta_eps = thermo.beta_from_occupancy(n, n_total, 1.0)
    resid = abs(delta - beta_eps)
    ok = exact and resid <= 1e-5
    _report(
        "degeneracy count and Stirling consistency",
        ok,
        f"ln3 exact={exact} stirling residual={resid:.2e}",
    )


def test_invariant_suite_holds():
    rng = np.random.default_rng(123)
    # conservation: a million random exchange trials, zero violations
    counts = [int(v) for v in rng.integers(1, 50, size=4)]
    ring = two_level([0.7, 1.3, 3.1, 2.9], counts, 50)
    ens = montecarlo.run_ensemble(ring, 1_000_000, seed=77, workers=4)
    conservation_ok = ens.conservation_violations == 0

    # occupancy/beta round trips across regimes
    round_ok = True
    for n, n_total, eps in ((2000, 10_000, 1.0), (7000, 10_000, 2.0), (1, 3, 0.5)):
        beta = thermo.beta_from_occupancy(n, n_total, eps)
        round_ok &= abs(thermo.occupancy(beta * eps) * n_total - n) <= 1e-9 * n_total

    # entropy rate is even with maximum ln 2 at the origin
    xs = np.linspace(-30.0, 30.0, 1201)
    even_ok = all(
        abs(thermo.entropy_s(x) - thermo.entropy_s(-x)) <= 1e-12 for x in xs
    )
    max_ok = (
        max(thermo.entropy_s(x) for x in xs) <= math.log(2) + 1e-15
        and thermo.entropy_s(0.0) == pytest.approx(math.log(2), abs=1e-15)
    )

    # worker count never changes the result
    a = montecarlo.run_ensemble(ring, 200_000, seed=5, workers=1)
    b = montecarlo.run_ensemble(ring, 200_000, seed=5, workers=8)
    determinism_ok = (
        a.mean_work == b.mean_work
        and a.var_work == b.var_work
        and a.histogram == b.histogram
    )

    # a one-sub-reservoir ring is the two-reservoir engine
    reduction = 0.0
    for beta_l, beta_h, eps_l, eps_h in ((1.38, 0.42, 1.0, 2.0), (0.9, 0.3, 0.5, 4.0)):
        spec = analytic.equilibrium_ring(beta_l, beta_h, [eps_l], [eps_h])
        q_l, q_h, w = analytic.mean_heats_ring(spec)
        f_l = thermo.occupancy(beta_l * eps_l)
        f_h = thermo.occupancy(beta_h * eps_h)
        reduction = max(
            reduction,
            abs(q_l - eps_l * (f_h - f_l)),
            abs(q_h - eps_h * (f_l - f_h)),
            abs(w - (eps_h - eps_l) * (f_h - f_l)),
        )
    reduction_ok = reduction <= 1e-14

    ok = conservation_ok and round_ok and even_ok and max_ok and determinism_ok and reduction_ok
    _report(
        "invariant suite",
        ok,
        f"violations={ens.conservation_violations} round_trips={round_ok} "
        f"evenness={even_ok and max_ok} workers_identical={determinism_ok} "
        f"m1_reduction={reduction:.1e}",
    )


def test_frontier_shape_is_qualitatively_right():
    # envelope: scattered maximum sits at the optimizer maximum
    sample = frontier.sample_region(1, 1.38, 0.42, 100_000, 8.0, seed=11)
    envelope = float(np.max(sample.work[sample.engine]))
    w_best, _, _ = frontier.max_work(1, 1.38, 0.42, seed=0)
    envelope_ok = abs(envelope - w_best) / w_best < 0.02

    # more sub-reservoirs never hurt the attainable efficiency
    kw = dict(tol_w=1e-3, budget=60_000, starts=6, seed=0)
    eta1 = frontier.optimize_efficiency(1, 1.38, 0.42, 0.1, frontier.Mode.MAX, **kw).eta
    eta2 = frontier.optimize_efficiency(2, 1.38, 0.42, 0.1, frontier.Mode.MAX, **kw).eta
    ordering_ok = eta2 >= eta1 - 1e-6

    # the reversible-cycle efficiency floor grows linearly from the origin
    targets = np.linspace(0.15, 1.05, 5)
    etas = np.array([
        frontier.carnot_frontier(1.38, 0.42, float(t), frontier.Mode.MIN,
                                 tol_w=1e-4, budget=200_000, starts=8, seed=0).eta
        for t in targets
    ])
    slope = float(np.dot(targets, etas) / np.dot(targets, targets))
    r2 = 1.0 - float(np.sum((etas - slope * targets) ** 2)
                     / np.sum((etas - etas.mean()) ** 2))
    floor_ok = r2 > 0.95

    ok = envelope_ok and ordering_ok and floor_ok
    _report(
        "frontier shape",
        ok,
        f"envelope={envelope:.5f} vs max={w_best:.5f}; eta(m=1)={eta1:.4f} "
        f"eta(m=2)={eta2:.4f}; floor slope={slope:.4f} R2={r2:.4f}",
    )
