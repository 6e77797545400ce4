"""Self-tests: every check passes a right answer and rejects a wrong one.

Each case builds a right answer from the oracles alone, shows that the
check accepts it, then perturbs it the way a fault would and shows that the
check rejects it.  No urnengine code runs here.  run.py runs these before
every measurement; to run them alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import io
import math
from types import SimpleNamespace

import numpy as np

import checks
import inputs
import oracles

BL, BH = inputs.BETA_L, inputs.BETA_H


def _ring_point(config, target=None):
    w, _, eta = oracles.ring_eval(BL, BH, list(config))
    target = w if target is None else target
    return SimpleNamespace(config=tuple(config), work=w, eta=eta, residual=abs(w - target)), target


def _continuum_point(config):
    w, _, eta = oracles.continuum_eval(BL, BH, *config)
    return SimpleNamespace(config=tuple(config), work=w, eta=eta, residual=0.0), w


def _otto_ensemble(n: int):
    ring = {**inputs.make("mc_two_level", 0)["rings"]["otto"], "trials": n}
    dist = oracles.work_distribution(ring["altitudes"], oracles.laws(ring))
    mom = oracles.ring_moments(ring["altitudes"], oracles.laws(ring))
    keys = sorted(dist)
    counts = [round(dist[k] * n) for k in keys]
    counts[0] += n - sum(counts)
    # a right answer: exact-probability counts, exact moments, balanced heats
    stats = SimpleNamespace(
        trials=n, mean_work=mom["mean"], var_work=mom["variance"], stderr_work=math.sqrt(mom["variance"] / n),
        mean_heats=np.array(mom["heats"]), histogram=dict(zip(keys, counts)), seed=0, bin_width=None,
        conservation_violations=0,
    )
    return stats, ring, dist, mom


def cases():
    """(name, right-answer check, wrong-answer check) triples."""
    out = []

    # frontier: a perturbed eta, W off by more than tol_w
    tol = 1e-4
    point, target = _ring_point([1.0, 2.0])
    out.append(("ring point re-evaluated",
                lambda: checks.ring_point(point, BL, BH, 1, target, tol),
                lambda: checks.ring_point(SimpleNamespace(**{**vars(point), "eta": point.eta + 1e-6}),
                                          BL, BH, 1, target, tol)))
    far, far_target = _ring_point([1.0, 2.0], target=point.work + 2 * tol)
    out.append(("W within tol_w of the target",
                lambda: checks.ring_point(point, BL, BH, 1, target, tol),
                lambda: checks.ring_point(far, BL, BH, 1, far_target, tol)))
    cpoint, ctarget = _continuum_point([0.2, 3.0, 0.9, 0.05])
    out.append(("continuum point re-evaluated",
                lambda: checks.continuum_point(cpoint, BL, BH, ctarget, tol),
                lambda: checks.continuum_point(SimpleNamespace(**{**vars(cpoint), "work": cpoint.work + 1e-6}),
                                               BL, BH, ctarget, tol)))
    low = oracles.m1_max_efficiency(BL, BH, 0.1 + tol)
    high = oracles.m1_max_efficiency(BL, BH, 0.1 - tol)
    out.append(("m=1 eta inside the oracle band",
                lambda: checks.m1_band(0.5 * (low + high), low, high),
                lambda: checks.m1_band(high + 1e-6, low, high)))
    out.append(("m=1 eta not far below the oracle band",
                lambda: checks.m1_band(low - 0.5 * checks.ETA_SLACK, low, high),
                lambda: checks.m1_band(low - 2 * checks.ETA_SLACK, low, high)))
    carnot = oracles.carnot_bound(BL, BH)
    out.append(("eta at most the Carnot bound",
                lambda: checks.below_carnot(carnot, BL, BH, "eta"),
                lambda: checks.below_carnot(carnot + 1e-9, BL, BH, "eta")))

    # Monte Carlo: moments, a shifted histogram, workers=1 vs workers=2, the audit
    n = 1 << 20
    stats, ring, dist, mom = _otto_ensemble(n)
    keys = sorted(stats.histogram)
    shifted = dict(zip(keys, [stats.histogram[k] for k in keys[1:]] + [stats.histogram[keys[0]]]))
    out.append(("histogram against the enumeration",
                lambda: checks.ensemble(stats, ring, dist),
                lambda: checks.ensemble(SimpleNamespace(**{**vars(stats), "histogram": shifted}), ring, dist)))
    off_mean = mom["mean"] + 5 * math.sqrt(mom["variance"] / n)
    out.append(("mean work z-score",
                lambda: checks.ensemble(stats, ring, dist),
                lambda: checks.ensemble(SimpleNamespace(**{**vars(stats), "mean_work": off_mean}), ring, dist)))
    off_var = mom["variance"] * (1 + 0.05)
    out.append(("work variance z-score",
                lambda: checks.ensemble(stats, ring, dist),
                lambda: checks.ensemble(SimpleNamespace(**{**vars(stats), "var_work": off_var}), ring, dist)))
    unbalanced = stats.mean_heats + np.array([1e-6, 0.0])
    out.append(("mean energy balance",
                lambda: checks.ensemble(stats, ring, dist),
                lambda: checks.ensemble(SimpleNamespace(**{**vars(stats), "mean_heats": unbalanced}), ring, dist)))
    twin = SimpleNamespace(**vars(stats))
    other = SimpleNamespace(**{**vars(stats), "mean_work": math.nextafter(stats.mean_work, math.inf)})
    out.append(("workers=1 and workers=2 bit-identical",
                lambda: checks.identical(stats, twin, "twin"),
                lambda: checks.identical(stats, other, "last-bit change")))
    out.append(("conservation audit",
                lambda: checks.audit(stats),
                lambda: checks.audit(SimpleNamespace(**{**vars(stats), "conservation_violations": 1}))))

    # CLI: closed-form outputs, CSV against JSON rows
    forms = oracles.cli_closed_forms(inputs.make("cli", 0))
    good_doc = {"outputs": dict(forms["analytic_otto"])}
    bad_doc = {"outputs": {**forms["analytic_otto"], "var_W": 0.36}}
    out.append(("CLI outputs against closed forms",
                lambda: checks.outputs_match(good_doc, forms["analytic_otto"], "otto"),
                lambda: checks.outputs_match(bad_doc, forms["analytic_otto"], "otto")))
    rows = [{"W": 0.125, "eta": None, "engine": False, "config": [1.5, 2.25]},
            {"W": 0.1, "eta": 0.5, "engine": True, "config": [1.0, 2.0]}]
    good_csv = "W,eta,engine,config\r\n0.125,,false,1.5;2.25\r\n0.1,0.5,true,1.0;2.0\r\n"
    bad_csv = good_csv.replace("0.5,true", "0.5000000000000001,true")
    out.append(("region CSV row for row with JSON",
                lambda: checks.region_csv_matches_json(rows, io.StringIO(good_csv, newline="")),
                lambda: checks.region_csv_matches_json(rows, io.StringIO(bad_csv, newline=""))))
    return out


def run() -> list[str]:
    """Names of checks that rejected a right answer or passed a wrong one."""
    problems = []
    for name, right, wrong in cases():
        try:
            right()
        except checks.CheckError as exc:
            problems.append(f"{name}: rejected a right answer ({exc})")
        try:
            wrong()
            problems.append(f"{name}: accepted a wrong answer")
        except checks.CheckError:
            pass
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print(f"{len(cases())} checks, {len(found)} problems")
    raise SystemExit(1 if found else 0)
