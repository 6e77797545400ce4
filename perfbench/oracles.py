"""Reference values computed without urnengine.

Everything here is written from the physics in the package's documentation,
in plain Python floats, so a fault in the program cannot hide in the
reference.  The pieces:

* closed forms of a ring's work: mean sum_k d_k mu_k, variance
  sum_k d_k^2 var_k and fourth cumulant sum_k d_k^4 kappa4_k, with
  d_k = eps_k - eps_{k+1} (cyclic) and the moments of each reservoir's
  ball-weight law; mean heats eps_k (mu_{k-1} - mu_k);
* the exact work distribution by a reservoir-by-reservoir convolution
  (2^(2m) outcomes for 0/1 rings), accumulated in ring order so the keys
  are the floats a trial-by-trial replay produces;
* a total-variation bound for an empirical histogram of n trials;
* scalar re-evaluation of (W, Q_h, eta) for a ring at equilibrium
  occupancies and for a continuum cycle given by its reduced endpoints;
* the Carnot bound 1 - beta_h/beta_l;
* the exact maximum efficiency of the m=1 ring at fixed work, by a nested
  one-dimensional search over eps_l/eps_h and eps_h.

Run as a script to print every oracle value a workload uses:

    python3 perfbench/oracles.py --workload frontier --seed 1
"""

from __future__ import annotations

import math

_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def occupancy(x: float) -> float:
    """f(x) = 1/(e^x + 1) without overflow."""
    if x >= 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (math.exp(x) + 1.0)


def _log1p_exp_neg(x: float) -> float:
    """ln(1 + e^-x) without overflow."""
    if x >= 0.0:
        return math.log1p(math.exp(-x))
    return -x + math.log1p(math.exp(x))


def entropy(x: float, y: float) -> float:
    """s(x, y) = x f(y) + ln(1 + e^-x)."""
    return x * occupancy(y) + _log1p_exp_neg(x)


# ------------------------------------------------------------------ rings


def laws(ring: dict) -> list[dict[float, float]]:
    """Per reservoir of a ring description (inputs.py), the weight law
    {weight: probability} of one uniform draw."""
    return [{float(w): c / ring["total"] for w, c in pop.items() if c > 0} for pop in ring["populations"]]


def ring_moments(altitudes: list[float], laws: list[dict[float, float]]) -> dict:
    """Mean, variance and fourth cumulant of the work; mean heats per reservoir."""
    n = len(altitudes)
    d = [altitudes[k] - altitudes[(k + 1) % n] for k in range(n)]
    mean = var = kappa4 = 0.0
    mus = []
    for k in range(n):
        mu = sum(w * p for w, p in laws[k].items())
        m2 = sum((w - mu) ** 2 * p for w, p in laws[k].items())
        m4 = sum((w - mu) ** 4 * p for w, p in laws[k].items())
        mus.append(mu)
        mean += d[k] * mu
        var += d[k] ** 2 * m2
        kappa4 += d[k] ** 4 * (m4 - 3.0 * m2 * m2)
    heats = [altitudes[k] * (mus[k - 1] - mus[k]) for k in range(n)]
    return {"mean": mean, "variance": var, "kappa4": kappa4, "heats": heats}


def variance_stderr(variance: float, kappa4: float, n: int) -> float:
    """Standard error of the unbiased sample variance of n draws."""
    mu4 = kappa4 + 3.0 * variance * variance
    return math.sqrt(max(mu4 - variance * variance * (n - 3) / (n - 1), 0.0) / n)


def work_distribution(altitudes: list[float], laws: list[dict[float, float]]) -> dict[float, float]:
    """Exact {work: probability}, adding d_k * w in ring order."""
    n = len(altitudes)
    d = [altitudes[k] - altitudes[(k + 1) % n] for k in range(n)]
    dist = {0.0: 1.0}
    for k in range(n):
        nxt: dict[float, float] = {}
        for w0, p0 in dist.items():
            for w, p in laws[k].items():
                key = w0 + d[k] * w
                nxt[key] = nxt.get(key, 0.0) + p0 * p
        dist = nxt
    return dist


def tv_distance(histogram: dict[float, int], n: int, dist: dict[float, float]) -> float:
    """Total-variation distance between counts/n and an exact distribution."""
    tv = sum(abs(c / n - dist.get(v, 0.0)) for v, c in histogram.items())
    tv += sum(p for v, p in dist.items() if v not in histogram)
    return 0.5 * tv


def tv_bound(dist: dict[float, float], n: int, false_alarm: float = 1e-6) -> float:
    """Bound the TV distance of n exact draws stays under.

    E[TV] <= 1/2 sum_i sqrt(p_i (1 - p_i) / n) by Jensen; one draw moves TV
    by at most 1/n, so McDiarmid adds sqrt(ln(1/false_alarm) / (2n)).
    """
    mean_bound = 0.5 * sum(math.sqrt(p * (1.0 - p) / n) for p in dist.values())
    return mean_bound + math.sqrt(math.log(1.0 / false_alarm) / (2.0 * n))


# --------------------------------------------------------- efficiencies


def carnot_bound(beta_l: float, beta_h: float) -> float:
    return 1.0 - beta_h / beta_l


def ring_eval(beta_l: float, beta_h: float, eps: list[float]) -> tuple[float, float, float | None]:
    """(W, Q_h, eta) of a ring at equilibrium occupancies; eta None unless Q_h < 0."""
    n = len(eps)
    m = n // 2
    f = [occupancy((beta_l if k < m else beta_h) * eps[k]) for k in range(n)]
    q = [eps[k] * (f[k - 1] - f[k]) for k in range(n)]
    q_h = math.fsum(q[m:])
    w = -math.fsum(q)
    return w, q_h, (w / -q_h if q_h < 0.0 else None)


def continuum_eval(beta_l: float, beta_h: float, l1: float, lm: float, h1: float, hm: float):
    """(W, Q_h, eta) of the continuum cycle from its reduced branch endpoints."""
    q_l = (entropy(l1, hm) - entropy(lm, lm)) / beta_l
    q_h = (entropy(h1, lm) - entropy(hm, hm)) / beta_h
    w = -(q_l + q_h)
    return w, q_h, (w / -q_h if q_h < 0.0 else None)


def _golden_max(g, lo: float, hi: float, grid: int = 96, tol: float = 1e-12) -> tuple[float, float]:
    """Maximum of a unimodal-looking g on [lo, hi]: grid scan, then golden section."""
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    best = max(range(grid + 1), key=lambda i: g(xs[i]))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, grid)]
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    gc, gd = g(c), g(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _GOLD * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + _GOLD * (b - a)
            gd = g(d)
    x = 0.5 * (a + b)
    return x, g(x)


def m1_max_work_at_ratio(beta_l: float, beta_h: float, r: float) -> float:
    """max over eps_h of (1 - r) eps_h (f(beta_h eps_h) - f(beta_l r eps_h))."""
    def work(log_eps_h: float) -> float:
        e = math.exp(log_eps_h)
        return (1.0 - r) * e * (occupancy(beta_h * e) - occupancy(beta_l * r * e))

    scale = math.log(1.0 / beta_h)
    return _golden_max(work, scale - 12.0, scale + 6.0)[1]


def m1_max_efficiency(beta_l: float, beta_h: float, target_work: float) -> float | None:
    """Largest eta = 1 - eps_l/eps_h of an m=1 engine whose mean work equals target_work.

    Requires 0 < beta_h < beta_l.  The ring's work vanishes at the Carnot
    ratio r0 = beta_h/beta_l and at r = 1, so the best eta comes from the
    smallest r on the rising side whose maximum work reaches the target.
    None when no m=1 engine reaches it.
    """
    r0 = beta_h / beta_l
    r_peak, w_peak = _golden_max(lambda r: m1_max_work_at_ratio(beta_l, beta_h, r), r0, 1.0, grid=64)
    if target_work > w_peak:
        return None
    lo, hi = r0, r_peak
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if m1_max_work_at_ratio(beta_l, beta_h, mid) >= target_work:
            hi = mid
        else:
            lo = mid
    return 1.0 - hi


def cli_closed_forms(spec: dict) -> dict:
    """Expected outputs of the small CLI documents of the cli workload."""
    otto = spec["otto"]
    (el, eh), (nl, nh), total = otto["altitudes"], otto["excited"], otto["total"]
    fl, fh = nl / total, nh / total
    beta_l = math.log((total - nl) / nl) / el
    beta_h = math.log((total - nh) / nh) / eh
    b = spec["beta"]
    beta = math.log((b["N"] - b["n"]) / b["n"]) / b["eps"]
    bl, bh = spec["betas"]["beta_l"], spec["betas"]["beta_h"]
    return {
        "analytic_otto": {
            "W": (eh - el) * (fh - fl),
            "eta": 1.0 - el / eh,
            "var_W": (el - eh) ** 2 * (fl * (1.0 - fl) + fh * (1.0 - fh)),
            "Q_l": el * (fh - fl),
            "Q_h": -eh * (fh - fl),
            "beta_l": beta_l,
            "beta_h": beta_h,
            "eta_carnot": carnot_bound(beta_l, beta_h),
        },
        "thermo_beta": {"beta": beta, "temperature": 1.0 / beta},
        "continuum_wmax": {"W_max": (1.0 / bh - 1.0 / bl) * math.log(2.0)},
    }


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json

    import inputs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    spec = inputs.make(args.workload, args.seed)
    out: dict = {}
    for name, ring in spec.get("rings", {}).items():
        ring_laws = laws(ring)
        mom = ring_moments(ring["altitudes"], ring_laws)
        out[name] = {"trials": ring["trials"], **mom}
        if all(set(law) <= {0.0, 1.0} for law in ring_laws):
            dist = work_distribution(ring["altitudes"], ring_laws)
            out[name]["support_size"] = len(dist)
            out[name]["tv_bound"] = tv_bound(dist, ring["trials"])
    if args.workload == "frontier":
        bl, bh = spec["beta_l"], spec["beta_h"]
        t, tol = spec["m_target_w"], spec["tol_w"]
        out["carnot_bound"] = carnot_bound(bl, bh)
        out["m1_max_eta"] = {
            "target": m1_max_efficiency(bl, bh, t),
            "target_minus_tol": m1_max_efficiency(bl, bh, t - tol),
            "target_plus_tol": m1_max_efficiency(bl, bh, t + tol),
        }
    if args.workload == "cli":
        out["closed_forms"] = cli_closed_forms(spec)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
