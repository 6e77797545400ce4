"""Region sampling and constrained efficiency extremization."""

import math

import numpy as np
import pytest

from urnengine import analytic, continuum, frontier, thermo

BL, BH = 1.38, 0.42
ETA_C = 1.0 - BH / BL

# trimmed optimizer settings for test speed; acceptance runs the defaults
FAST = dict(tol_w=1e-3, budget=60_000, starts=6, seed=0)


def test_evaluate_known_point():
    work, eta, engine = frontier.evaluate_configs(BL, BH, np.array([[1.0, 2.0]]))
    assert work[0] == pytest.approx(0.1, abs=2e-3)
    assert eta[0] == pytest.approx(0.5, abs=1e-12)
    assert engine[0]


def test_evaluate_orientation():
    # swapped altitudes still discharge the hot side, so the flag stays set
    # while the work and the efficiency ratio both go negative
    work, eta, engine = frontier.evaluate_configs(BL, BH, np.array([[2.0, 1.0]]))
    assert work[0] < 0.0
    assert eta[0] < 0.0
    assert engine[0]
    # a shallow cold step against a tall hot step makes the hot side absorb
    work, eta, engine = frontier.evaluate_configs(BL, BH, np.array([[0.1, 10.0]]))
    assert not engine[0]
    assert work[0] < 0.0


def test_evaluate_validation():
    with pytest.raises(ValueError, match="ring must hold"):
        frontier.evaluate_configs(BL, BH, np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match="invalid altitude"):
        frontier.evaluate_configs(BL, BH, np.array([[1.0, -2.0]]))


def test_equal_betas_no_engine_work():
    sample = frontier.sample_region(1, 0.9, 0.9, 20_000, 8.0, seed=3)
    assert float(np.max(sample.work)) <= 1e-12


def test_region_envelope_reaches_known_max():
    sample = frontier.sample_region(1, BL, BH, 100_000, 8.0, seed=11)
    best = float(np.max(sample.work[sample.engine]))
    assert best == pytest.approx(0.2020375, rel=0.02)


def test_region_sample_contract():
    sample = frontier.sample_region(2, BL, BH, 500, 5.0, seed=1)
    assert sample.eps.shape == (500, 4)
    assert np.all(sample.eps > 0.0) and np.all(sample.eps <= 5.0)
    assert sample.work.shape == sample.efficiency.shape == (500,)
    with pytest.raises(ValueError):
        sample.work[0] = 0.0
    # flag marks hot-side discharge only; recomputation agrees
    w2, e2, g2 = frontier.evaluate_configs(BL, BH, sample.eps)
    assert np.array_equal(g2, sample.engine)
    same = ~(np.isnan(e2) & np.isnan(sample.efficiency))
    assert np.allclose(w2, sample.work)
    assert np.allclose(e2[same], sample.efficiency[same])


def test_region_eta_undefined_off_engine():
    sample = frontier.sample_region(1, BL, BH, 2000, 10.0, seed=3)
    off = ~sample.engine
    assert int(off.sum()) == 304
    assert np.isnan(sample.efficiency[off]).all()
    # engine rows keep eta = W/(-Q_h) with W summed over the whole ring
    eps = sample.eps
    f = np.concatenate([thermo.occupancy_np(BL * eps[:, :1]),
                        thermo.occupancy_np(BH * eps[:, 1:])], axis=1)
    q = eps * (np.roll(f, 1, axis=1) - f)
    eta = -q.sum(axis=1) / -q[:, 1:].sum(axis=1)
    assert np.array_equal(sample.efficiency[sample.engine], eta[sample.engine])


def test_region_rejects_nonfinite_beta_but_not_zero():
    eps = np.array([[1.0, 2.0], [3.0, 0.5]])
    for beta_l, beta_h in [(math.nan, BH), (BL, math.inf), (-math.inf, BH)]:
        with pytest.raises(ValueError, match="beta must be finite"):
            frontier.evaluate_configs(beta_l, beta_h, eps)
        with pytest.raises(ValueError, match="beta must be finite"):
            frontier.sample_region(1, beta_l, beta_h, 10, 5.0, seed=1)
    # beta = 0 is the infinite-temperature bath, f = 1/2 at every altitude
    work, _, _ = frontier.evaluate_configs(0.0, BH, eps)
    f_h = thermo.occupancy_np(BH * eps[:, 1])
    assert np.array_equal(work, -(eps[:, 0] * (f_h - 0.5) + eps[:, 1] * (0.5 - f_h)))
    assert frontier.sample_region(1, BL, 0.0, 10, 5.0, seed=1).work.shape == (10,)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_a_domain_error(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        frontier.sample_region(1, BL, BH, 10, 5.0, seed=seed)
    with pytest.raises(ValueError, match="seed must be in"):
        frontier.optimize_efficiency(1, BL, BH, 0.1, **{**FAST, "seed": seed})


def test_region_validation():
    with pytest.raises(ValueError, match="samples"):
        frontier.sample_region(1, BL, BH, 0, 5.0, seed=1)
    with pytest.raises(ValueError, match="invalid altitude"):
        frontier.sample_region(1, BL, BH, 10, -5.0, seed=1)
    with pytest.raises(ValueError, match="ring must hold"):
        frontier.sample_region(0, BL, BH, 10, 5.0, seed=1)


B = frontier._BLOCK_ROWS


@pytest.mark.parametrize("samples", [1, B - 1, B, B + 1, 3 * B + 7])
def test_region_blocks_match_a_one_shot_draw(samples):
    sample = frontier.sample_region(2, BL, BH, samples, 5.0, seed=9)
    eps = 5.0 * (1.0 - np.random.default_rng(9).random((samples, 4)))
    expected = (*frontier.evaluate_configs(BL, BH, eps), eps)
    for got, want in zip((sample.work, sample.efficiency, sample.engine, sample.eps), expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_region_eps_max_must_exceed_the_smallest_normal():
    # the smallest draw is eps_max * 2**-53; from 2**-1022 down it underflows to 0
    for eps_max in (1e-320, 1e-310, 2.0**-1022, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"eps_max must be finite and above 2\*\*-1022"):
            frontier.sample_region(1, BL, BH, 1, eps_max, seed=1)
    eps_max = math.nextafter(2.0**-1022, 1.0)
    assert frontier.sample_region(1, BL, BH, 10, eps_max, seed=1).eps.min() > 0.0


def test_region_deterministic():
    a = frontier.sample_region(1, BL, BH, 100, 5.0, seed=4)
    b = frontier.sample_region(1, BL, BH, 100, 5.0, seed=4)
    assert np.array_equal(a.eps, b.eps)


def test_optimize_beats_known_feasible_point():
    pt = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    assert pt.eta >= 0.5
    assert pt.residual <= FAST["tol_w"]
    assert pt.work == pytest.approx(0.1, abs=FAST["tol_w"])


def test_frontier_point_recomputes_through_public_modules():
    pt = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    eps = list(pt.config)
    spec = analytic.equilibrium_ring(BL, BH, eps[:1], eps[1:])
    _, q_high, w = analytic.mean_heats_ring(spec)
    assert abs(w / -q_high - pt.eta) <= 1e-10
    assert abs(w - pt.work) <= 1e-10


def test_engine_eta_within_unit_interval():
    for target in (0.02, 0.1, 0.18):
        pt = frontier.optimize_efficiency(1, BL, BH, target, frontier.Mode.MAX, **FAST)
        assert 0.0 <= pt.eta <= 1.0


def test_max_curve_non_increasing():
    pts = frontier.frontier_curve(1, BL, BH, np.array([0.05, 0.1, 0.15, 0.19]),
                                  frontier.Mode.MAX, FAST["tol_w"], FAST["budget"],
                                  FAST["starts"], 0)
    etas = [p.eta for p in pts]
    for a, b in zip(etas, etas[1:]):
        assert b <= a + 1e-6


def test_feasible_set_nesting_in_m():
    p1 = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    p2 = frontier.optimize_efficiency(2, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    assert p2.eta >= p1.eta - 1e-6


def test_min_mode_lies_below_max_mode():
    lo = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MIN, **FAST)
    hi = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    assert lo.eta <= hi.eta
    assert lo.residual <= FAST["tol_w"]


def test_optimizer_deterministic_given_seed():
    a = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    b = frontier.optimize_efficiency(1, BL, BH, 0.1, frontier.Mode.MAX, **FAST)
    assert a.config == b.config
    assert a.eta == b.eta
    assert a.start_index == b.start_index


def test_mode_accepts_strings():
    pt = frontier.optimize_efficiency(1, BL, BH, 0.1, "max", **FAST)
    assert pt.mode is frontier.Mode.MAX


def test_infeasible_target_raises():
    with pytest.raises(ValueError, match="infeasible or budget too small"):
        frontier.optimize_efficiency(1, BL, BH, 50.0, frontier.Mode.MAX,
                                     tol_w=1e-4, budget=2_000, starts=2, seed=0)


def test_optimizer_argument_validation():
    with pytest.raises(ValueError, match="tol_w"):
        frontier.optimize_efficiency(1, BL, BH, 0.1, tol_w=0.0)
    with pytest.raises(ValueError, match="budget and starts"):
        frontier.optimize_efficiency(1, BL, BH, 0.1, budget=0)
    with pytest.raises(ValueError, match="ring must hold"):
        frontier.optimize_efficiency(0, BL, BH, 0.1)


@pytest.mark.parametrize("beta_l, beta_h", [(0.0, BH), (BL, 0.0), (math.nan, BH), (BL, math.inf)])
def test_zero_or_nonfinite_beta_is_a_domain_error(beta_l, beta_h):
    with pytest.raises(ValueError, match="beta must be finite and nonzero"):
        frontier.optimize_efficiency(1, beta_l, beta_h, 0.1, **FAST)
    with pytest.raises(ValueError, match="beta must be finite and nonzero"):
        frontier.carnot_frontier(beta_l, beta_h, 0.1, **FAST)
    with pytest.raises(ValueError, match="beta must be finite and nonzero"):
        frontier.max_work(1, beta_l, beta_h, budget=100, starts=1)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("beta_l, beta_h", [(-1.0, -0.5), (-0.5, -1.0), (1.0, -0.5)])
def test_max_work_is_unbounded_for_negative_beta_h(m, beta_l, beta_h):
    # f(beta_h * eps) -> 1 as a hot altitude grows, so the work has no maximum;
    # a descent would report whatever its budget reached
    with pytest.raises(ValueError, match="max_work is unbounded for beta_h < 0"):
        frontier.max_work(m, beta_l, beta_h, budget=2_000, starts=2)


def test_overflowing_default_extent_is_a_domain_error(monkeypatch):
    # 16 / min(|beta_l|, |beta_h|) overflows to inf for a subnormal beta
    _no_search(monkeypatch)
    message = r"^beta 1e-310 is too small: the start box 16/\|beta\| overflows$"
    with pytest.raises(ValueError, match=message):
        frontier.optimize_efficiency(1, 1e-310, BH, 0.1, **FAST)
    with pytest.raises(ValueError, match=message):
        frontier.max_work(2, 1e-310, BH, budget=100, starts=1)
    with pytest.raises(ValueError, match=r"^beta -1e-310 is too small"):
        frontier.frontier_curve(2, BL, -1e-310, np.array([0.1]))


def test_optimizer_results_hold_python_floats():
    quick = dict(tol_w=1e-3, budget=5_000, starts=2, seed=0)
    for pt in (frontier.optimize_efficiency(1, BL, BH, 0.1, **quick),
               frontier.carnot_frontier(BL, BH, 0.3, **quick)):
        assert type(pt.eta) is float and type(pt.work) is float
        assert all(type(v) is float for v in pt.config)
    w, cfg, _ = frontier.max_work(2, BL, BH, budget=2_000, starts=2)
    assert type(w) is float
    assert all(type(v) is float for v in cfg)


def test_carnot_reaches_carnot_efficiency():
    pt = frontier.carnot_frontier(BL, BH, 0.05, frontier.Mode.MAX, **FAST)
    assert pt.eta == pytest.approx(ETA_C, abs=1e-9)
    assert pt.residual <= FAST["tol_w"]
    # reversibility shows as matched entropy rates, not matched endpoints:
    # saturated branches (s ~ 0) leave the endpoint values unconstrained
    l1, lm, h1, hm = pt.config
    assert thermo.entropy_s(h1) == pytest.approx(thermo.entropy_s(lm), abs=1e-6)
    assert thermo.entropy_s(hm) == pytest.approx(thermo.entropy_s(l1), abs=1e-6)


def test_carnot_feasible_at_supremum():
    wmax = continuum.max_reversible_work(BL, BH)
    pt = frontier.carnot_frontier(BL, BH, wmax, frontier.Mode.MAX, **FAST)
    assert pt.residual <= FAST["tol_w"]
    assert pt.eta == pytest.approx(ETA_C, abs=1e-6)


def test_carnot_point_recomputes_through_continuum():
    pt = frontier.carnot_frontier(BL, BH, 0.3, frontier.Mode.MAX, **FAST)
    ep = continuum.CarnotEndpoints(beta_l=BL, beta_h=BH, cold_first=pt.config[0],
                                   cold_last=pt.config[1], hot_first=pt.config[2],
                                   hot_last=pt.config[3])
    res = continuum.continuum_heats(ep)
    assert abs(res.work - pt.work) <= 1e-10
    assert abs(res.efficiency - pt.eta) <= 1e-10


def test_pump_targets_use_negative_work():
    pt = frontier.optimize_efficiency(1, BL, BH, -0.1, frontier.Mode.MIN, **FAST)
    assert pt.work == pytest.approx(-0.1, abs=FAST["tol_w"])
    assert pt.eta > 0.0
    # COP = 1/eta cannot beat the reversible bound
    assert 1.0 / pt.eta <= 1.0 / ETA_C + 1e-6


def test_carnot_pump_attains_reversible_cop():
    pt = frontier.carnot_frontier(BL, BH, -0.1, frontier.Mode.MIN, **FAST)
    assert pt.eta == pytest.approx(ETA_C, abs=1e-6)


def test_max_work_matches_grid_oracle():
    w, cfg, evals = frontier.max_work(1, BL, BH, seed=0)
    grid = np.linspace(0.01, 12.0, 401)
    el, eh = np.meshgrid(grid, grid, indexing="ij")
    configs = np.column_stack([el.ravel(), eh.ravel()])
    gw, _, _ = frontier.evaluate_configs(BL, BH, configs)
    best = float(np.max(gw))
    assert abs(w - best) / best < 0.01
    assert w == pytest.approx(0.20, abs=0.004)
    assert evals > 0 and len(cfg) == 2


def test_frontier_curve_deterministic_and_ordered():
    targets = np.array([0.05, 0.15])
    a = frontier.frontier_curve(1, BL, BH, targets, frontier.Mode.MAX, 1e-4, 30_000, 4, 9)
    b = frontier.frontier_curve(1, BL, BH, targets, frontier.Mode.MAX, 1e-4, 30_000, 4, 9)
    assert [p.eta for p in a] == [p.eta for p in b]
    assert [p.target_work for p in a] == [0.05, 0.15]


# ------------------------------------------------------- exact m=1 and continuum paths


def _no_search(monkeypatch):
    """Make any call into the multistart search fail the test."""
    def search(*args):
        raise AssertionError("the multistart search ran")

    monkeypatch.setattr(frontier, "_multistart", search)


def _grid_max_work(ratios, log_eps_h):
    """Max over the eps_h grid of the m=1 work at each ratio eps_l/eps_h."""
    eps_h = np.exp(log_eps_h)
    best = np.empty(len(ratios))
    for i in range(0, len(ratios), 200):
        eps_l = ratios[i:i + 200, None] * eps_h
        rows = np.column_stack([eps_l.ravel(), np.broadcast_to(eps_h, eps_l.shape).ravel()])
        work, _, _ = frontier.evaluate_configs(BL, BH, rows)
        best[i:i + 200] = work.reshape(eps_l.shape).max(axis=1)
    return best


def test_m1_max_lands_in_the_exact_band_with_two_starts():
    # the search stopped two starts short of the maximum here (eta 0.640880)
    pt = frontier.optimize_efficiency(1, BL, BH, 0.1, starts=2)
    assert 0.642142 <= pt.eta <= 0.642282
    assert pt.start_index == 0


@pytest.mark.parametrize("mode", [frontier.Mode.MAX, frontier.Mode.MIN])
def test_m1_exact_point_is_not_beaten_on_a_dense_grid(mode):
    target = 0.1
    pt = frontier.optimize_efficiency(1, BL, BH, target, mode, starts=2)
    # every ratio with a better eta = 1 - r stays short of the target
    ratios = np.concatenate([np.linspace(BH / BL, 1.0, 6001)[1:-1],
                             1.0 - pt.eta + np.linspace(-1e-3, 1e-3, 2001)])
    better = (1.0 - ratios > pt.eta + 1e-9) if mode is frontier.Mode.MAX else (1.0 - ratios < pt.eta - 1e-9)
    log_eps_h = np.log(1.0 / BH) + np.linspace(-6.0, 4.0, 2001)
    assert better.sum() > 1400
    assert _grid_max_work(ratios[better], log_eps_h).max() < target
    # and the returned ratio reaches it
    assert _grid_max_work(np.array([1.0 - pt.eta]), log_eps_h)[0] >= target - 1e-4


@pytest.mark.parametrize("mode", [frontier.Mode.MAX, frontier.Mode.MIN])
@pytest.mark.parametrize("target", [0.02, 0.1, 0.18])
def test_m1_exact_residual_is_at_rounding_level(mode, target):
    pt = frontier.optimize_efficiency(1, BL, BH, target, mode)
    work, eta, engine = frontier.evaluate_configs(BL, BH, np.array([pt.config]))
    assert engine[0] and eta[0] == pt.eta and work[0] == pt.work
    assert pt.residual <= 1e-15  # W is a sum of heats of order 1
    assert pt.eta == pytest.approx(1.0 - pt.config[0] / pt.config[1], abs=1e-15)


def test_m1_target_above_the_maximum_work_raises_without_a_search(monkeypatch):
    _no_search(monkeypatch)
    with pytest.raises(ValueError, match="infeasible or budget too small"):
        frontier.optimize_efficiency(1, BL, BH, 0.25)
    with pytest.raises(ValueError, match="infeasible or budget too small"):
        frontier.optimize_efficiency(1, BL, BH, 0.25, frontier.Mode.MIN)
    # within tol_w above the peak work (0.2020376) the peak is a feasible answer
    pt = frontier.optimize_efficiency(1, BL, BH, 0.20205)
    assert pt.work < 0.20205 and pt.residual <= 1e-4


def test_exact_paths_validate_like_the_search(monkeypatch):
    _no_search(monkeypatch)
    for solve in (lambda **kw: frontier.optimize_efficiency(1, BL, BH, 0.1, **kw),
                  lambda **kw: frontier.carnot_frontier(BL, BH, 0.3, **kw)):
        with pytest.raises(ValueError, match="budget and starts"):
            solve(budget=0)
        with pytest.raises(ValueError, match="budget and starts"):
            solve(starts=0)
        with pytest.raises(ValueError, match="seed must be in"):
            solve(seed=-1)
        with pytest.raises(ValueError, match="tol_w"):
            solve(tol_w=math.nan)
        with pytest.raises(ValueError, match="tol_w"):
            solve(tol_w=0.0)
        pt = solve(budget=1, starts=1)  # the exact paths spend no budget
        assert pt.start_index == 0 and pt.residual <= 1e-15


@pytest.mark.parametrize("target", [0.05, 0.3, 0.6])
def test_carnot_max_is_the_closed_form(target):
    pt = frontier.carnot_frontier(BL, BH, target, frontier.Mode.MAX)
    res = continuum.continuum_heats(continuum.CarnotEndpoints(BL, BH, *pt.config))
    assert abs(res.efficiency - thermo.carnot_efficiency(BL, BH)) <= 1e-12
    assert res.work == pt.work and res.efficiency == pt.eta
    assert pt.residual <= 1e-15
    assert pt.evaluations < 1_000 and pt.start_index == 0


@pytest.mark.parametrize("target, tol_w, message", [
    (math.nan, 1e-3, "target_work must be finite"),
    (math.inf, 1e-3, "target_work must be finite"),
    (-math.inf, 1e-3, "target_work must be finite"),
    (0.1, math.inf, "tol_w must be finite and positive"),
    (0.1, math.nan, "tol_w must be finite and positive"),
    (0.1, -1e-3, "tol_w must be finite and positive"),
])
def test_nonfinite_target_or_tolerance_is_a_domain_error(target, tol_w, message, monkeypatch):
    _no_search(monkeypatch)
    for m in (1, 2):
        with pytest.raises(ValueError, match=message):
            frontier.optimize_efficiency(m, BL, BH, target, tol_w=tol_w, budget=2_000, starts=2)
    with pytest.raises(ValueError, match=message):
        frontier.carnot_frontier(BL, BH, target, tol_w=tol_w, budget=2_000, starts=2)
    # a curve checks every target before its first solve
    for m in (2, None):
        with pytest.raises(ValueError, match=message):
            frontier.frontier_curve(m, BL, BH, np.array([0.1, target]), tol_w=tol_w)


def test_opposite_sign_betas_have_no_m1_engine(monkeypatch):
    _no_search(monkeypatch)
    # beta_l < 0 < beta_h: f_l > 1/2 > f_h, so Q_h = eps_h (f_l - f_h) > 0 everywhere
    for target in (0.1, 0.0):
        with pytest.raises(ValueError, match="no m=1 engine exists for beta_l < 0 < beta_h"):
            frontier.optimize_efficiency(1, -1.0, 0.5, target)
    with pytest.raises(ValueError, match="no m=1 engine exists for beta_l < 0 < beta_h"):
        frontier.max_work(1, -1.0, 0.5)


# ------------------------------------------------------- MAX-mode heat pumps at m >= 2

PUMP_BETAS = [(1.38, 0.42), (0.5, 0.2), (2.0, 1.9), (1.0, 3.0)]


@pytest.mark.parametrize("beta_l, beta_h", PUMP_BETAS)
def test_m2_pump_efficiency_has_no_maximum(beta_l, beta_h):
    # equal hot altitudes e and beta_l eps_1 just below beta_h e leave the hot side
    # a heat Q_h -> 0+, while eps_0 is bisected so the cold side takes W = -0.05
    rng = np.random.default_rng(11)
    e = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    eps_1 = beta_h * e / beta_l * (1.0 - 1e-8)

    def heats(eps_0):
        return analytic.mean_heats_ring(analytic.equilibrium_ring(beta_l, beta_h, [eps_0, eps_1], [e, e]))

    lo, hi = eps_1, 2.0 * eps_1 + 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if heats(mid)[2] > -0.05 else (lo, mid)
    _, q_high, w = heats(hi)
    assert abs(w + 0.05) <= frontier.DEFAULT_TOL_W
    assert q_high > 0.0
    assert w / -q_high > 1e6


@pytest.mark.parametrize("beta_l, beta_h", PUMP_BETAS)
def test_m1_pump_efficiency_has_no_maximum(beta_l, beta_h):
    # eta = 1 - r at r = eps_l/eps_h, and at every r a hot altitude e puts the
    # pump on W = -0.05: eta tends to 1 as r -> 0 but r > 0 keeps it below
    def heats(r, e):
        return analytic.mean_heats_ring(analytic.equilibrium_ring(beta_l, beta_h, [r * e], [e]))

    for r in (1e-2, 1e-4, 1e-8):
        lo, hi = 1e-6, 1e6
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if heats(r, mid)[2] > -0.05 else (lo, mid)
        _, q_high, w = heats(r, hi)
        assert abs(w + 0.05) <= frontier.DEFAULT_TOL_W
        assert q_high > 0.0
        assert w / -q_high == pytest.approx(1.0 - r, abs=1e-12)


PUMP_MESSAGE = "no maximum efficiency for heat-pump targets"


def test_m2_max_pump_is_a_domain_error_before_any_start(monkeypatch):
    _no_search(monkeypatch)
    for m in (1, 2):
        for beta_l, beta_h in PUMP_BETAS:
            with pytest.raises(ValueError, match=PUMP_MESSAGE):
                frontier.optimize_efficiency(m, beta_l, beta_h, -0.05)
    # a curve rejects the whole grid before solving its engine targets
    for m in (1, 3):
        with pytest.raises(ValueError, match=PUMP_MESSAGE):
            frontier.frontier_curve(m, BL, BH, np.array([0.1, -0.05]))
    # min mode and other beta signs keep the search
    for m, beta_l, beta_h, mode in [(2, BL, BH, "min"), (1, BL, BH, "min"),
                                    (2, -0.5, -1.0, "max"), (2, 1.0, -0.5, "max"),
                                    (1, -0.5, -1.0, "max"), (1, 1.0, -0.5, "max")]:
        with pytest.raises(AssertionError, match="the multistart search ran"):
            frontier.optimize_efficiency(m, beta_l, beta_h, -0.05, mode)
