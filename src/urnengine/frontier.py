"""Efficiency-vs-work frontier: region sampling and constrained extremization.

The attainable (W, eta) set of an m-sub-reservoir engine at fixed inverse
temperatures is explored two ways: scatter sampling of altitude
configurations drawn uniformly from (0, eps_max]^{2m}, and an optimizer that
extremizes the efficiency subject to |W - target| <= tol_W.

Where a closed form exists the optimizer solves exactly: the m=1 engine by a
search over eps_l/eps_h, the continuum maximum at the Carnot value (see
_ring_problem and _carnot_problem).  Elsewhere it runs multistart
derivative-free coordinate descent on a quadratic penalty objective.
Gradients are unreliable here: the engine/pump sign regimes and negative-beta
cases fold the feasible set, while a single objective evaluation is a handful
of exponentials, so robustness wins over speed.  Fixed schedule: starts are
drawn from the box (0, E]^n, E = 16/min(|beta_l|, |beta_h|) for rings and 20
for the continuum; initial step = E/8, halve on a sweep without improvement,
stop a descent at step < 1e-6 or the per-start budget; penalty weight starts
at 1e2 and is multiplied by 10 (cap 1e12) until the work residual fits tol_W.
Starts are seeded deterministically from valid rejection-sampled points, and
among objectives within 1e-12 of the best the lowest start index wins, so
results are reproducible for a given seed.

Each problem has one evaluator, point(z) -> (W, Q_h).  Finite m takes the
equilibrium occupancies f(beta*eps) and the ring kernel analytic._ring_heats
that the region scatter also runs; ``carnot_frontier`` extremizes the
continuum cycle over its four reduced branch endpoints through
continuum._branch_heats, with endpoint signs pinned to the beta signs.  The
regime rule and eta = W/(-Q_h) are applied on top, once, by the objective,
the start sampler and the final score.  Heat pumps are requested with a
negative target work; the reported figure of merit stays eta = W/(-Q_h),
whose inverse is the pump COP.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .analytic import (_checked_seed, _equilibrium_weights, _ring_heats, equilibrium_ring,
                       mean_heats_ring)
from .continuum import (CarnotEndpoints, _branch_heats, _checked_betas, continuum_heats,
                        max_reversible_work)
from .thermo import _efficiency, occupancy

__all__ = _EXPORTS["frontier"]

_STEP_STOP = 1e-6
_PENALTY_START = 1e2
_PENALTY_GROWTH = 10.0
_PENALTY_CAP = 1e12
_FLOOR = 1e-9  # altitudes and endpoint magnitudes stay strictly positive
_TIE = 1e-12
_CARNOT_LM = 40.0  # the exact continuum path's last cold reduced endpoint
_BLOCK_ROWS = 4096  # region rows drawn and evaluated at a time

DEFAULT_TOL_W = 1e-4
DEFAULT_BUDGET = 200_000  # objective evaluations per start
DEFAULT_STARTS = 16


class Mode(enum.Enum):
    """Extremization direction for the efficiency."""

    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class FrontierPoint:
    """One extremal point of the efficiency-vs-work frontier.

    ``config`` holds the optimizing altitudes for finite m, or the four
    reduced endpoints (cold_first, cold_last, hot_first, hot_last) for the
    continuum cycle.  ``eta`` and ``residual`` are recomputed through the
    public analytic/continuum evaluators at the returned configuration.
    """

    target_work: float
    eta: float
    mode: Mode
    config: tuple[float, ...]
    residual: float
    evaluations: int
    work: float
    start_index: int


@dataclass(frozen=True, eq=False)
class RegionSample:
    """Scatter of sampled configurations: work, efficiency (NaN where
    undefined), an engine flag (-Q_high > 0), and the sampled altitudes."""

    work: np.ndarray
    efficiency: np.ndarray
    engine: np.ndarray
    eps: np.ndarray


def evaluate_configs(
    beta_l: float, beta_h: float, eps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (work, eta, engine-flag) over rows of altitude configs.

    Each row is (eps_low_1..eps_low_m, eps_high_1..eps_high_m); occupancies
    are the equilibrium f(beta*eps) of the owning branch.  eta is NaN on
    non-engine rows, where the hot side does not discharge.
    """
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    n = eps.shape[1]
    if n < 2 or n % 2 != 0:
        raise ValueError("ring must hold 2m >= 2 reservoirs")
    if not np.all(np.isfinite(eps)) or np.any(eps <= 0.0):
        raise ValueError("invalid altitude")
    if not (math.isfinite(beta_l) and math.isfinite(beta_h)):
        raise ValueError("beta must be finite")
    _, q_high, work = _ring_heats(eps.T, _equilibrium_weights(beta_l, beta_h, eps).T)
    return work, _efficiency(work, q_high), q_high < 0.0


def _region_blocks(m: int, beta_l: float, beta_h: float, samples: int, eps_max: float, seed: int):
    """Check the arguments, then return an iterator over sample_region's rows as
    (work, eta, engine, eps) blocks of _BLOCK_ROWS rows.  The draws continue one
    stream and every kernel acts row by row, so the bits match a one-shot draw."""
    if m < 1:
        raise ValueError("ring must hold 2m >= 2 reservoirs")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not (math.isfinite(eps_max) and eps_max * 2.0**-53 > 0.0):  # the least draw: 1 - u >= 2**-53
        raise ValueError("invalid altitude: eps_max must be finite and above 2**-1022")
    if not (math.isfinite(beta_l) and math.isfinite(beta_h)):
        raise ValueError("beta must be finite")
    rng = np.random.default_rng(_checked_seed(seed))
    draws = (eps_max * (1.0 - rng.random((min(_BLOCK_ROWS, samples - start), 2 * m)))
             for start in range(0, samples, _BLOCK_ROWS))
    return ((*evaluate_configs(beta_l, beta_h, eps), eps) for eps in draws)


def sample_region(
    m: int,
    beta_l: float,
    beta_h: float,
    samples: int,
    eps_max: float,
    seed: int,
) -> RegionSample:
    """Uniform scatter of the attainable region for an m-sub-reservoir ring.

    Altitudes are uniform in (0, eps_max]^{2m}; eps_max must exceed 2**-1022.
    Non-engine points (heat not leaving the hot side) are flagged, not dropped.
    """
    blocks = _region_blocks(m, beta_l, beta_h, samples, eps_max, seed)
    arrays = (np.empty(samples), np.empty(samples), np.empty(samples, bool),
              np.empty((samples, 2 * m)))
    for start, block in zip(range(0, samples, _BLOCK_ROWS), blocks):
        for arr, part in zip(arrays, block):
            arr[start:start + _BLOCK_ROWS] = part
    for arr in arrays:
        arr.flags.writeable = False
    return RegionSample(*arrays)


def _regime_ok(w: float, q_high: float, pump: bool) -> bool:
    """Optimizer feasibility: engines draw heat from the hot side and deliver
    work; pumps invert both.  A feasible point reports eta = W/(-Q_h) in
    either regime, so a pump's eta (the inverse of its COP) is the one
    deliberate exception to thermo._efficiency's rule."""
    if pump:
        return q_high > 0.0 and w <= 0.0
    return q_high < 0.0 and w >= 0.0


def _descend(obj, x: list[float], fx: float, step0: float, max_evals: int):
    """Coordinate descent: probe +-step per coordinate, halve step on a full
    sweep without improvement, stop below the step floor or the budget."""
    evals = 0
    step = step0
    nd = len(x)
    while step >= _STEP_STOP and evals < max_evals:
        improved = False
        for j in range(nd):
            for sgn in (1.0, -1.0):
                if evals >= max_evals:
                    break
                trial = x[j] + sgn * step
                if trial < _FLOOR:
                    trial = _FLOOR
                if trial == x[j]:
                    continue
                old = x[j]
                x[j] = trial
                fc = obj(x)
                evals += 1
                if fc < fx:
                    fx = fc
                    improved = True
                    break
                x[j] = old
        if not improved:
            step *= 0.5
    return x, fx, evals


def _solve_start(point, pump: bool, x0: list[float], sign: float, target: float,
                 tol_w: float, budget: int, step0: float):
    """One start: penalty loop around coordinate descent on sign * eta.

    Returns (x, feasible, evaluations).  Feasibility is re-verified by the
    caller through the public evaluator.
    """
    lam = _PENALTY_START
    evals = 0

    def obj(z: list[float]) -> float:
        w, q_high = point(z)
        if not _regime_ok(w, q_high, pump):
            return math.inf
        r = w - target
        return sign * (w / -q_high) + lam * r * r

    x = list(x0)
    fx = obj(x)
    evals += 1
    while True:
        x, fx, used = _descend(obj, x, fx, step0, budget - evals)
        evals += used
        w, q_high = point(x)
        evals += 1
        if _regime_ok(w, q_high, pump) and abs(w - target) <= tol_w:
            return x, True, evals
        if evals >= budget or lam >= _PENALTY_CAP:
            return x, False, evals
        lam *= _PENALTY_GROWTH
        fx = obj(x)
        evals += 1


def _checked_starts(budget: int, starts: int, seed: int) -> int:
    """The start seed, once budget, starts and seed are valid."""
    if budget < 1 or starts < 1:
        raise ValueError("budget and starts must be >= 1")
    return _checked_seed(seed)


def _multistart(point, public, ndim: int, extent: float, budget: int, starts: int,
                seed: int, pump: bool, solve, score):
    """Run every start and return the winner (x, W, Q_high, start_index, evals).

    Each start descends by ``solve(x0, step0, budget) -> (x, ok, evals)`` from a
    rejection-sampled point in the ``pump`` regime; ok results, re-evaluated by
    ``public``, rank by ``score(W, Q_high)``: lower wins, None rejects, ties
    within _TIE go to the lowest start.
    """
    children = np.random.SeedSequence(_checked_starts(budget, starts, seed)).spawn(starts)
    total_evals = 0
    found = []  # (score, start_index, x, w_public, q_high_public), in start order
    for si in range(starts):
        rng = np.random.default_rng(children[si])
        for _ in range(128):  # rejection-sample a valid initial point
            x0 = (extent * (1.0 - rng.random(ndim))).tolist()
            total_evals += 1
            if _regime_ok(*point(x0), pump):
                break
        else:
            continue
        x, ok, used = solve(x0, extent / 8.0, budget)
        total_evals += used
        if not ok:
            continue
        w, q_high = public(x)
        s = score(w, q_high)
        if s is not None:
            found.append((s, si, x, w, q_high))
    if not found:
        raise ValueError("infeasible or budget too small")
    best = min(f[0] for f in found)
    _, si, x, w, q_high = next(f for f in found if f[0] <= best + _TIE)
    return x, w, q_high, si, total_evals


def _bisect(pred, lo: float, hi: float, width: float = 0.0) -> tuple[float, float]:
    """Shrink [lo, hi] around the point where ``pred`` turns from false (at lo)
    to true (at hi), down to ``width`` or to adjacent floats."""
    mid = 0.5 * (lo + hi)
    while hi - lo > width and lo < mid < hi:
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
        mid = 0.5 * (lo + hi)
    return lo, hi


def _ring_problem(m: int, beta_l: float, beta_h: float):
    """(point, public, ndim, extent, to_config, exact) of an m-sub-reservoir ring;
    ``point`` takes scalar occupancies, ``public`` the vectorized ones."""
    if m < 1:
        raise ValueError("ring must hold 2m >= 2 reservoirs")
    bl, bh = _checked_betas(beta_l, beta_h)

    def point(eps: list[float]) -> tuple[float, float]:
        f = [occupancy(bl * e) for e in eps[:m]] + [occupancy(bh * e) for e in eps[m:]]
        _, q_high, w = _ring_heats(eps, f)
        return w, q_high

    def public(eps: list[float]) -> tuple[float, float]:
        _, q_high, w = mean_heats_ring(equilibrium_ring(bl, bh, eps[:m], eps[m:]))
        return w, q_high

    def exact(work, target: float, mode: Mode) -> list[float] | None:
        """m=1 engines, 0 < beta_h < beta_l.  At r = eps_l/eps_h, eta = 1 - r and W
        sweeps (0, maxW(r)] with eps_h, so MAX bisects r down and MIN up to where
        maxW(r), a maximum over log eps_h, meets the target (or peaks short of it);
        a last bisection over log eps_h puts W on the target."""
        if bl < 0.0 and target >= 0.0:  # f_l > 1/2 > f_h: the hot side always absorbs
            raise ValueError("no m=1 engine exists for beta_l < 0 < beta_h")
        if not target > 0.0:
            return None  # pumps and W = 0 take the search
        lo_x, hi_x, r0 = -math.log(bh) - 12.0, -math.log(bh) + 6.0, bh / bl

        def w_at(r: float, x: float) -> float:
            return work([r * math.exp(x), math.exp(x)])

        def best(r: float) -> tuple[float, float]:  # (log eps_h, maxW(r)): bisect W's slope
            x = _bisect(lambda x: w_at(r, x + _STEP_STOP) <= w_at(r, x - _STEP_STOP),
                        lo_x, hi_x, _STEP_STOP)[1]
            return x, w_at(r, x)

        r_top = _bisect(lambda r: best(r + _STEP_STOP)[1] <= best(r - _STEP_STOP)[1],
                        r0, 1.0, _STEP_STOP)[1]
        if mode is Mode.MAX:
            r = _bisect(lambda r: best(r)[1] >= target, r0, r_top)[1]
        else:
            r = _bisect(lambda r: best(r)[1] < target, r_top, 1.0)[0]
        x = _bisect(lambda x: w_at(r, x) >= target, lo_x, best(r)[0])[1]
        return [r * math.exp(x), math.exp(x)]

    small = min(bl, bh, key=abs)
    extent = 16.0 / abs(small)
    if extent == math.inf:
        raise ValueError(f"beta {small!r} is too small: the start box 16/|beta| overflows")
    exact = exact if m == 1 and (bl < 0.0 < bh or 0.0 < bh < bl) else None
    return point, public, 2 * m, extent, tuple, exact


def _carnot_problem(beta_l: float, beta_h: float):
    """(point, public, ndim, extent, to_config, exact) of the continuum cycle over
    its endpoint magnitudes, signs pinned to the betas; ``to_config`` signs them."""
    bl, bh = _checked_betas(beta_l, beta_h)
    sl, sh = math.copysign(1.0, bl), math.copysign(1.0, bh)

    def point(u: list[float]) -> tuple[float, float]:
        q_l, q_h = _branch_heats(bl, bh, sl * u[0], sl * u[1], sh * u[2], sh * u[3])
        return -(q_l + q_h), q_h

    def to_config(u: list[float]) -> tuple[float, ...]:
        return (sl * u[0], sl * u[1], sh * u[2], sh * u[3])

    def public(u: list[float]) -> tuple[float, float]:
        res = continuum_heats(CarnotEndpoints(bl, bh, *to_config(u)))
        return res.work, res.heat_high

    def exact(work, target: float, mode: Mode) -> list[float] | None:
        """MAX, positive betas, 0 < W < max_reversible_work.  For beta_l > 0 the
        second law caps eta at the Carnot value, which the reversible cycle
        reaches with W = (1/beta_h - 1/beta_l)(s(L1) - s(Lm)).  Lm = _CARNOT_LM,
        where s(Lm) ~ 2e-16 leaves the work to L1 alone; L1 is bisected onto it."""
        if mode is not Mode.MAX or not 0.0 < target < max_reversible_work(bl, bh):
            return None
        l1 = _bisect(lambda l1: work([l1, _CARNOT_LM, _CARNOT_LM, l1]) <= target,
                     _FLOOR, _CARNOT_LM)[1]
        return [l1, _CARNOT_LM, _CARNOT_LM, l1]

    exact = exact if bl > 0.0 and bh > 0.0 else None
    return point, public, 4, 20.0, to_config, exact


def _check_targets(targets, tol_w: float) -> None:
    """Work targets and their tolerance, checked before any start runs."""
    if not all(math.isfinite(t) for t in targets):
        raise ValueError("target_work must be finite")
    if not (math.isfinite(tol_w) and tol_w > 0.0):
        raise ValueError("tol_w must be finite and positive")


def _check_pump_max(m: int | None, beta_l: float, beta_h: float, targets, mode: Mode) -> None:
    """MAX-mode pump targets of a ring with positive betas have no maximum: at m >= 2
    the hot sub-reservoirs' heats can cancel, so eta = W/(-Q_h) grows without bound
    as Q_h -> 0+; at m = 1 eta = 1 - eps_l/eps_h tends to 1 as eps_l/eps_h -> 0."""
    if (m is not None and Mode(mode) is Mode.MAX and beta_l > 0.0
            and beta_h > 0.0 and any(t < 0.0 for t in targets)):
        at, why = (("= 1", "= 1 - eps_l/eps_h tends to 1 but never attains it") if m == 1
                   else (">= 2", "is unbounded"))
        raise ValueError(f"no maximum efficiency for heat-pump targets (W < 0) at m {at} "
                         f"with positive betas: eta = W/(-Q_h) {why}; use mode min")


def _extremize(problem, target_work: float, mode: Mode, tol_w: float, budget: int,
               starts: int, seed: int) -> FrontierPoint:
    """One builder's problem at fixed work, its targets already checked: its exact
    solver where that applies, else the penalty multistart."""
    point, public, ndim, extent, to_config, exact = problem
    mode = Mode(mode)
    sign = -1.0 if mode is Mode.MAX else 1.0
    pump = target_work < 0.0

    def solve(x0: list[float], step0: float, budget: int):
        return _solve_start(point, pump, x0, sign, target_work, tol_w, budget, step0)

    def score(w: float, q_high: float) -> float | None:
        feasible = _regime_ok(w, q_high, pump) and abs(w - target_work) <= tol_w
        return sign * (w / -q_high) if feasible else None

    x = None
    if exact is not None:  # spends no budget; evals counts its scalar evaluations
        _checked_starts(budget, starts, seed)
        evals = 0

        def work(z: list[float]) -> float:
            nonlocal evals
            evals += 1
            return point(z)[0]

        x = exact(work, target_work, mode)
    if x is None:
        x, w, q_high, start, evals = _multistart(point, public, ndim, extent, budget, starts,
                                                 seed, pump, solve, score)
    else:
        (w, q_high), start = public(x), 0
        if score(w, q_high) is None:
            raise ValueError("infeasible or budget too small")
    return FrontierPoint(target_work=target_work, eta=w / -q_high, mode=mode,
                         config=to_config(x), residual=abs(w - target_work),
                         evaluations=evals, work=w, start_index=start)


def optimize_efficiency(
    m: int,
    beta_l: float,
    beta_h: float,
    target_work: float,
    mode: Mode = Mode.MAX,
    tol_w: float = DEFAULT_TOL_W,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> FrontierPoint:
    """Extremal efficiency of an m-sub-reservoir ring at fixed work.

    Raises "infeasible or budget too small" when no start reaches the work
    constraint within tolerance, and a domain error for a MAX pump target with
    positive betas, where no maximum exists.
    """
    problem = _ring_problem(m, beta_l, beta_h)
    _check_targets([target_work], tol_w)
    _check_pump_max(m, beta_l, beta_h, [target_work], mode)
    return _extremize(problem, target_work, mode, tol_w, budget, starts, seed)


def carnot_frontier(
    beta_l: float,
    beta_h: float,
    target_work: float,
    mode: Mode = Mode.MAX,
    tol_w: float = DEFAULT_TOL_W,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> FrontierPoint:
    """Extremal efficiency of the continuum cycle at fixed work.

    The four optimized parameters are the reduced endpoint magnitudes; the
    returned config is the signed endpoints (cold_first, cold_last,
    hot_first, hot_last).
    """
    problem = _carnot_problem(beta_l, beta_h)
    _check_targets([target_work], tol_w)
    return _extremize(problem, target_work, mode, tol_w, budget, starts, seed)


def max_work(
    m: int,
    beta_l: float,
    beta_h: float,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> tuple[float, tuple[float, ...], int]:
    """Unconstrained maximum mean engine work over altitude configurations:
    optimize_efficiency's multistart from valid engine starts, with a plain
    descent on -W.  Returns (work, config, evaluations), work via the public evaluator.
    """
    point, public, ndim, extent, to_config, _ = _ring_problem(m, beta_l, beta_h)
    if beta_h < 0.0:  # f(beta_h*eps) -> 1 as a hot altitude grows, and W with it
        raise ValueError("max_work is unbounded for beta_h < 0")
    if m == 1 and beta_l < 0.0:  # f_l > 1/2 > f_h: the hot side always absorbs
        raise ValueError("no m=1 engine exists for beta_l < 0 < beta_h")

    def obj(z: list[float]) -> float:
        return -point(z)[0]

    def solve(x0: list[float], step0: float, budget: int):
        x, _, used = _descend(obj, x0, obj(x0), step0, budget)
        return x, True, used + 1

    x, w, _, _, evals = _multistart(point, public, ndim, extent, budget, starts, seed,
                                    False, solve, lambda w, q_high: -w)
    return w, to_config(x), evals


def frontier_curve(
    m: int | None,
    beta_l: float,
    beta_h: float,
    targets: np.ndarray,
    mode: Mode = Mode.MAX,
    tol_w: float = DEFAULT_TOL_W,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    seed: int = 0,
) -> list[FrontierPoint]:
    """Frontier points over a grid of work targets.

    ``m=None`` means the continuum cycle.  Each target gets its own
    deterministic child seed, so the curve is reproducible as a whole.  Every
    target is checked, including optimize_efficiency's pump domain error,
    before the first solve.
    """
    problem = _carnot_problem(beta_l, beta_h) if m is None else _ring_problem(m, beta_l, beta_h)
    _check_targets(targets, tol_w)
    _check_pump_max(m, beta_l, beta_h, targets, mode)
    children = np.random.SeedSequence(_checked_seed(seed)).spawn(len(targets))
    return [_extremize(problem, float(target), mode, tol_w, budget, starts,
                       int(child.generate_state(1, np.uint64)[0]))
            for target, child in zip(targets, children)]
