"""Checks of program outputs against the oracles and against properties the
method must have.  Each check raises ``CheckError`` with a message naming
what is wrong; a check that returns has passed.  ``selftest.py`` shows that
every check rejects a wrong answer.
"""

from __future__ import annotations

import csv
import json
import math

import oracles

Z_LIMIT = 4.0
# how far below the m=1 oracle band an optimizer result may land before it
# counts as not converged; the upper edge of the band gets no slack
ETA_SLACK = 1e-4
# exact arithmetic differs from the program only in summation order
REL = 1e-9


class CheckError(AssertionError):
    pass


class KnownFault(CheckError):
    """A check that fails because of a fault named in CHANGES.md; the
    operation counts as failed, not as a wrong answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(got: float, want: float, what: str, rel: float = REL, abs_: float = 1e-12) -> None:
    require(
        got is not None and math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want),
        f"{what}: got {got!r}, expected {want!r}",
    )


# ------------------------------------------------------------- Monte Carlo


def ensemble(stats, ring: dict, dist: dict | None = None) -> None:
    """Moments, energy balance and (for 0/1 rings) the histogram of one ensemble."""
    n = ring["trials"]
    mom = oracles.ring_moments(ring["altitudes"], oracles.laws(ring))
    require(stats.trials == n, f"trials {stats.trials} != {n}")
    require(sum(stats.histogram.values()) == n, "histogram counts do not sum to the trial count")
    if mom["variance"] > 0.0:
        z_mean = (stats.mean_work - mom["mean"]) / math.sqrt(mom["variance"] / n)
        z_var = (stats.var_work - mom["variance"]) / oracles.variance_stderr(mom["variance"], mom["kappa4"], n)
        require(abs(z_mean) < Z_LIMIT, f"mean work {stats.mean_work} vs {mom['mean']}: z = {z_mean:.2f}")
        require(abs(z_var) < Z_LIMIT, f"work variance {stats.var_work} vs {mom['variance']}: z = {z_var:.2f}")
    else:
        close(stats.mean_work, mom["mean"], "mean work of a deterministic ring")
    heats = [float(q) for q in stats.mean_heats]
    require(len(heats) == len(ring["altitudes"]), "one mean heat per reservoir expected")
    scale = abs(stats.mean_work) + sum(abs(q) for q in heats)
    balance = stats.mean_work + math.fsum(heats)
    require(abs(balance) <= 1e-9 * scale + 1e-15, f"mean energy balance W + sum Q = {balance!r}")
    if dist is not None:
        require(stats.bin_width is None, "a 0/1 ring must give an exact-key histogram")
        tv = oracles.tv_distance(stats.histogram, n, dist)
        bound = oracles.tv_bound(dist, n)
        require(tv <= bound, f"histogram TV distance {tv:.3g} to the enumeration exceeds {bound:.3g}")


def audit(stats) -> None:
    require(stats.conservation_violations == 0,
            f"{stats.conservation_violations} conservation violations in {stats.trials} trials")


def ensemble_key(stats) -> tuple:
    """Every output of an ensemble, for bit-for-bit comparison."""
    return (
        stats.trials, stats.mean_work, stats.var_work, stats.stderr_work,
        stats.mean_heats.tobytes(), tuple(stats.histogram.items()), stats.seed,
        stats.bin_width, stats.conservation_violations,
    )


def identical(a, b, what: str) -> None:
    require(ensemble_key(a) == ensemble_key(b), f"{what}: outputs differ")


# ------------------------------------------------------------------ frontier


def ring_point(point, beta_l: float, beta_h: float, m: int, target: float, tol_w: float) -> None:
    """A finite-m frontier point re-evaluated from its returned config."""
    require(len(point.config) == 2 * m and all(e > 0.0 for e in point.config),
            f"config {point.config} is not {2 * m} positive altitudes")
    w, _, eta = oracles.ring_eval(beta_l, beta_h, list(point.config))
    _frontier_common(point, w, eta, beta_l, beta_h, target, tol_w)


def continuum_point(point, beta_l: float, beta_h: float, target: float, tol_w: float) -> None:
    """A continuum frontier point re-evaluated from its signed reduced endpoints."""
    l1, lm, h1, hm = point.config
    require(all(x / b > 0.0 for x, b in ((l1, beta_l), (lm, beta_l), (h1, beta_h), (hm, beta_h))),
            f"endpoints {point.config} do not match the beta signs")
    w, _, eta = oracles.continuum_eval(beta_l, beta_h, l1, lm, h1, hm)
    _frontier_common(point, w, eta, beta_l, beta_h, target, tol_w)


def _frontier_common(point, w, eta, beta_l, beta_h, target, tol_w) -> None:
    close(point.work, w, "reported W vs W re-evaluated from config")
    require(eta is not None, "config does not discharge the hot side")
    close(point.eta, eta, "reported eta vs eta re-evaluated from config")
    require(abs(point.work - target) <= tol_w, f"|W - target| = {abs(point.work - target):.3g} > tol_w")
    close(point.residual, abs(point.work - target), "residual")
    below_carnot(point.eta, beta_l, beta_h, "frontier eta")


def below_carnot(eta: float, beta_l: float, beta_h: float, what: str) -> None:
    carnot = oracles.carnot_bound(beta_l, beta_h)
    require(eta <= carnot + 1e-12, f"{what} {eta} exceeds the Carnot bound {carnot}")


def m1_band(eta: float, low: float, high: float) -> None:
    """low = oracle(target + tol_w), high = oracle(target - tol_w)."""
    require(low - ETA_SLACK <= eta <= high + 1e-12,
            f"m=1 eta {eta} outside [{low - ETA_SLACK}, {high}] set by the exact m=1 maximum")


def region_rows(work, eta, engine, eps, rows, beta_l: float, beta_h: float) -> None:
    """Re-evaluate the given rows of a region scatter."""
    for i in rows:
        w, q_h, eta_ref = oracles.ring_eval(beta_l, beta_h, [float(e) for e in eps[i]])
        close(float(work[i]), w, f"region row {i} W")
        require(bool(engine[i]) == (q_h < 0.0), f"region row {i} engine flag")
        if eta_ref is not None:
            close(float(eta[i]), eta_ref, f"region row {i} eta")
            below_carnot(float(eta[i]), beta_l, beta_h, f"region row {i} eta")


# ---------------------------------------------------------------------- CLI


def document(path: str, seeded: bool) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    keys = {"inputs", "outputs", "version"} | ({"seed"} if seeded else set())
    require(set(doc) == keys, f"{path}: top-level keys {sorted(doc)} != {sorted(keys)}")
    return doc


def outputs_match(doc: dict, expected: dict, what: str) -> None:
    for key, want in expected.items():
        close(doc["outputs"].get(key), want, f"{what} {key}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return repr(value)


def region_csv_matches_json(json_rows: list[dict], csv_lines) -> None:
    """The CSV region document (an open file or any iterable of its lines)
    holds the JSON rows, row for row."""
    reader = csv.reader(csv_lines)
    header = next(reader)
    require(header == ["W", "eta", "engine", "config"], f"CSV header {header}")
    count = 0
    for i, row in enumerate(reader):
        require(i < len(json_rows), "CSV has more rows than JSON")
        want = [_cell(json_rows[i][c]) for c in header]
        require(row == want, f"row {i}: CSV {row} != JSON {want}")
        count += 1
    require(count == len(json_rows), f"CSV has {count} rows, JSON {len(json_rows)}")
