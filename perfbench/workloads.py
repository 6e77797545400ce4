"""The benchmark's four workloads.

Each workload builds its inputs once (``__init__``, part of set-up), then
runs rounds of a fixed list of operations (``run_round``, the timed part).
``check`` compares a round's outputs with the oracles and returns the
status of each operation: "ok", "failed" (the operation raised, or hit the
known conservation-audit fault) or "wrong" (a check rejected its output).
``key`` reduces an output to a value that later rounds must reproduce bit
for bit, since every operation is deterministic for its inputs.

Spans: every call the benchmark makes into an urnengine module (or, for the
cli workload, every ``urnengine`` process it starts) sits in a span named
after the module and function, so per-layer metrics come from the same
records whatever the workload.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import traceback
from types import SimpleNamespace

import checks
import inputs
import oracles


def _median(values):
    return statistics.median(values) if values else None


class Workload:
    name = ""

    def __init__(self, spec: dict, tracer, root: str):
        self.spec = spec
        self.tracer = tracer
        self.root = root
        self.child_peak_kb = 0  # peak RSS of program child processes (cli only)

    def ops(self) -> list[str]:
        raise NotImplementedError

    def _call(self, results: dict, op: str, span: str, fn, **counts):
        """Run one operation inside its span; an operation that raises is
        recorded as failed and the round goes on."""
        try:
            with self.tracer.span(span, **counts) as c:
                results[op] = fn(c)
        except Exception as exc:  # noqa: BLE001 - one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            results[op] = exc

    def check(self, results: dict) -> tuple[dict[str, str], list[str]]:
        status = {op: "ok" for op in self.ops()}
        messages: list[str] = []
        for op in self.ops():
            if isinstance(results.get(op), Exception):
                status[op] = "failed"
                messages.append(f"{op}: raised {results[op]!r}")
        for op, fn in self.checkers(results):
            if status[op] != "ok":
                continue
            try:
                fn()
            except checks.KnownFault as exc:
                status[op] = "failed"
                messages.append(f"{op}: known fault: {exc}")
            except Exception as exc:  # noqa: BLE001 - a malformed output is a wrong answer
                status[op] = "wrong"
                messages.append(f"{op}: {exc!r}")
        return status, messages

    def checkers(self, results: dict):
        raise NotImplementedError

    def key(self, op: str, result):
        return result


# ------------------------------------------------------------ Monte Carlo


class _MonteCarlo(Workload):
    ensembles: tuple[tuple[str, str, int], ...] = ()  # (op, ring, workers)
    compares: tuple[str, ...] = ()

    def __init__(self, spec, tracer, root):
        super().__init__(spec, tracer, root)
        from urnengine import montecarlo

        self.mc = montecarlo
        self.rings = {}
        for name, ring in spec["rings"].items():
            with tracer.span("urn.ring_build", ring=name, reservoirs=len(ring["altitudes"])):
                self.rings[name] = inputs.build_ring(ring)
        with tracer.span("montecarlo.ring_spec_of"):
            self.specs = {name: montecarlo.ring_spec_of(r) for name, r in self.rings.items()}

    def ops(self):
        return [op for op, _, _ in self.ensembles] + [f"compare_{ring}" for ring in self.compares]

    def run_round(self) -> dict:
        results: dict = {}
        for op, ring, workers in self.ensembles:
            n = self.spec["rings"][ring]["trials"]

            def ensemble(c, ring=ring, n=n, workers=workers):
                stats = self.mc.run_ensemble(self.rings[ring], n, self.spec["seeds"][ring], workers=workers)
                c["violations"] = stats.conservation_violations
                return stats

            self._call(results, op, f"montecarlo.run_ensemble:{op}", ensemble, trials=n, workers=workers)
        for ring in self.compares:
            stats = results.get(ring)
            self._call(results, f"compare_{ring}", f"montecarlo.compare_to_analytic:{ring}",
                       lambda c, stats=stats, ring=ring: self.mc.compare_to_analytic(stats, self.specs[ring]))
        return results

    def key(self, op, result):
        if op.startswith("compare_"):
            return result
        return checks.ensemble_key(result)


class MCTwoLevel(_MonteCarlo):
    """0/1 rings: the paper's Otto example and a 2m=16 equilibrium ring, the
    latter at workers=1 and workers=2."""

    name = "mc_two_level"
    ensembles = (("otto", "otto", 1), ("ring16", "ring16", 1), ("ring16_workers2", "ring16", 2))
    compares = ("otto", "ring16")

    def checkers(self, results):
        dists = {}
        for ring in ("otto", "ring16"):
            r = self.spec["rings"][ring]
            dists[ring] = oracles.work_distribution(r["altitudes"], oracles.laws(r))
        for op, ring, _ in self.ensembles:
            yield op, lambda op=op, ring=ring: (
                checks.ensemble(results[op], self.spec["rings"][ring], dists[ring]),
                checks.audit(results[op]),
            )
        yield "ring16_workers2", lambda: checks.identical(results["ring16"], results["ring16_workers2"],
                                                          "ring16 at workers=1 and workers=2")
        for ring in self.compares:
            yield f"compare_{ring}", lambda ring=ring: _check_compare(
                results[f"compare_{ring}"], results[ring], self.spec["rings"][ring], dists[ring])


class MCMixedWeights(_MonteCarlo):
    """Rings of balls weighing 0, 1 and 2.5 (binned-histogram path), plus the
    fixed ring that trips the conservation audit."""

    name = "mc_mixed_weights"
    ensembles = (("mixed4", "mixed4", 1), ("mixed8", "mixed8", 1), ("fault", "fault", 1))
    compares = ("mixed4", "mixed8")

    def checkers(self, results):
        for op, ring, _ in self.ensembles:
            yield op, lambda op=op, ring=ring: checks.ensemble(results[op], self.spec["rings"][ring])
        # the audit counts trials whose heats are all exactly 0 as violations
        # (see CHANGES.md); only the fixed fault ring is audited, because on
        # seeded mixed rings the count depends on how the altitudes round
        yield "fault", lambda: _known_fault(checks.audit, results["fault"])
        for ring in self.compares:
            yield f"compare_{ring}", lambda ring=ring: _check_compare(
                results[f"compare_{ring}"], results[ring], self.spec["rings"][ring], None)


def _known_fault(check, *args):
    try:
        check(*args)
    except checks.CheckError as exc:
        raise checks.KnownFault(str(exc)) from None


def _check_compare(report, stats, ring: dict, dist: dict | None) -> None:
    mom = oracles.ring_moments(ring["altitudes"], oracles.laws(ring))
    checks.close(report.analytic_mean, mom["mean"], "compare_to_analytic analytic_mean")
    checks.require(report.passed is True, "compare_to_analytic did not pass a correct ensemble")
    if dist is None:
        checks.require(report.analytic_variance is None and report.tv_distance is None,
                       "binned histograms get no variance or TV comparison")
        return
    checks.close(report.analytic_variance, mom["variance"], "compare_to_analytic analytic_variance")
    checks.close(report.tv_distance, oracles.tv_distance(stats.histogram, stats.trials, dist),
                 "compare_to_analytic tv_distance", rel=1e-6)
    z_mean = (stats.mean_work - mom["mean"]) / stats.stderr_work
    checks.close(report.z_mean, z_mean, "compare_to_analytic z_mean", rel=1e-6, abs_=1e-9)


# ----------------------------------------------------------------- frontier


class Frontier(Workload):
    """Four frontier targets at optimizer defaults, one region scatter, and
    the public evaluators on rows of that scatter."""

    name = "frontier"
    SOLVES = ("m1_max", "m2_max", "carnot_max", "carnot_min")

    def __init__(self, spec, tracer, root):
        super().__init__(spec, tracer, root)
        import numpy as np
        from urnengine import analytic, continuum, frontier, thermo

        self.np = np
        self.analytic, self.continuum, self.frontier, self.thermo = analytic, continuum, frontier, thermo

    def ops(self):
        return [*self.SOLVES, "region", "occupancy_np", "mean_heats_ring", "continuum_heats"]

    def run_round(self) -> dict:
        s, fr = self.spec, self.frontier
        bl, bh = s["beta_l"], s["beta_h"]
        results: dict = {}

        def solve(c, fn, *args, **kwargs):
            point = fn(*args, **kwargs)
            c["evaluations"] = point.evaluations
            return point

        for op, m in (("m1_max", 1), ("m2_max", 2)):
            self._call(results, op, f"frontier.optimize_efficiency:{op}",
                       lambda c, m=m: solve(c, fr.optimize_efficiency, m, bl, bh, s["m_target_w"],
                                            tol_w=s["tol_w"]))
        for op, mode in (("carnot_max", fr.Mode.MAX), ("carnot_min", fr.Mode.MIN)):
            self._call(results, op, f"frontier.carnot_frontier:{op}",
                       lambda c, mode=mode: solve(c, fr.carnot_frontier, bl, bh, s["carnot_target_w"], mode,
                                                  tol_w=s["tol_w"]))
        reg = s["region"]
        self._call(results, "region", "frontier.sample_region",
                   lambda c: fr.sample_region(reg["m"], bl, bh, reg["samples"], reg["eps_max"], s["seeds"]["region"]),
                   samples=reg["samples"])
        region = results["region"]
        if isinstance(region, Exception):
            for op in ("occupancy_np", "mean_heats_ring", "continuum_heats"):
                results[op] = RuntimeError("no region scatter to evaluate")
            return results

        m = reg["m"]
        x = region.eps * self.np.array([bl] * m + [bh] * m)
        self._call(results, "occupancy_np", "thermo.occupancy_np",
                   lambda c: self.thermo.occupancy_np(x), elements=int(x.size))
        rows = [[float(e) for e in region.eps[i]] for i in range(s["evaluations"])]

        def mean_heats(c):
            out = []
            for row in rows:
                with self.tracer.span("analytic.equilibrium_ring"):
                    ring = self.analytic.equilibrium_ring(bl, bh, self.np.array(row[:m]), self.np.array(row[m:]))
                with self.tracer.span("analytic.mean_heats_ring"):
                    out.append(self.analytic.mean_heats_ring(ring))
            return out

        def continuum_heats(c):
            out = []
            for e in rows:
                # the scatter's four altitudes as the continuum cycle's endpoints
                ep = self.continuum.CarnotEndpoints(bl, bh, bl * e[0], bl * e[1], bh * e[2], bh * e[3])
                with self.tracer.span("continuum.continuum_heats"):
                    out.append(self.continuum.continuum_heats(ep))
            return out

        self._call(results, "mean_heats_ring", "benchmark.mean_heats_batch", mean_heats)
        self._call(results, "continuum_heats", "benchmark.continuum_heats_batch", continuum_heats)
        return results

    def key(self, op, result):
        if op == "region":
            return tuple(a.tobytes() for a in (result.work, result.efficiency, result.engine, result.eps))
        if op == "occupancy_np":
            return result.tobytes()
        return result

    def checkers(self, results):
        s = self.spec
        bl, bh, t, tol = s["beta_l"], s["beta_h"], s["m_target_w"], s["tol_w"]
        low = oracles.m1_max_efficiency(bl, bh, t + tol)
        high = oracles.m1_max_efficiency(bl, bh, t - tol)
        carnot = oracles.carnot_bound(bl, bh)
        ct = s["carnot_target_w"]

        def m1():
            checks.ring_point(results["m1_max"], bl, bh, 1, t, tol)
            checks.m1_band(results["m1_max"].eta, low, high)

        def m2():
            checks.ring_point(results["m2_max"], bl, bh, 2, t, tol)
            # an m=1 ring is an m=2 ring with repeated altitudes
            checks.require(results["m2_max"].eta >= low - checks.ETA_SLACK,
                           f"m=2 eta {results['m2_max'].eta} below the m=1 maximum {low}")

        def cmax():
            checks.continuum_point(results["carnot_max"], bl, bh, ct, tol)
            checks.require(abs(results["carnot_max"].eta - carnot) <= 1e-6,
                           f"continuum max eta {results['carnot_max'].eta} is not the Carnot bound {carnot}")

        def cmin():
            checks.continuum_point(results["carnot_min"], bl, bh, ct, tol)
            cm = results["carnot_max"]
            checks.require(isinstance(cm, Exception) or results["carnot_min"].eta <= cm.eta,
                           "continuum min above continuum max")

        yield "m1_max", m1
        yield "m2_max", m2
        yield "carnot_max", cmax
        yield "carnot_min", cmin
        yield "region", lambda: self._check_region(results["region"])
        yield "occupancy_np", lambda: self._check_occupancy(results["region"], results["occupancy_np"])
        yield "mean_heats_ring", lambda: self._check_mean_heats(results["region"], results["mean_heats_ring"])
        yield "continuum_heats", lambda: self._check_continuum(results["region"], results["continuum_heats"])

    def _rows(self, n):
        return range(0, n, max(n // 200, 1))

    def _check_region(self, region):
        reg = self.spec["region"]
        n = reg["samples"]
        checks.require(region.eps.shape == (n, 2 * reg["m"]) and region.work.shape == (n,),
                       f"region shapes {region.eps.shape}, {region.work.shape}")
        checks.require(bool((region.eps > 0.0).all() and (region.eps <= reg["eps_max"]).all()),
                       "region altitudes outside (0, eps_max]")
        checks.region_rows(region.work, region.efficiency, region.engine, region.eps,
                           self._rows(n), self.spec["beta_l"], self.spec["beta_h"])

    def _check_occupancy(self, region, f):
        bl, bh, m = self.spec["beta_l"], self.spec["beta_h"], self.spec["region"]["m"]
        checks.require(f.shape == region.eps.shape, "occupancy shape")
        for i in self._rows(len(f)):
            for k in range(2 * m):
                x = (bl if k < m else bh) * float(region.eps[i, k])
                checks.close(float(f[i, k]), oracles.occupancy(x), f"occupancy at {x}", rel=1e-12, abs_=0.0)

    def _check_mean_heats(self, region, out):
        bl, bh = self.spec["beta_l"], self.spec["beta_h"]
        checks.require(len(out) == self.spec["evaluations"], "one mean_heats_ring result per row")
        for i, (q_low, q_high, w) in enumerate(out):
            w_ref, qh_ref, _ = oracles.ring_eval(bl, bh, [float(e) for e in region.eps[i]])
            checks.close(w, w_ref, f"row {i} W")
            checks.close(q_high, qh_ref, f"row {i} Q_high")
            checks.close(q_low, -w_ref - qh_ref, f"row {i} Q_low")

    def _check_continuum(self, region, out):
        bl, bh = self.spec["beta_l"], self.spec["beta_h"]
        checks.require(len(out) == self.spec["evaluations"], "one continuum_heats result per row")
        for i, res in enumerate(out):
            e = [float(v) for v in region.eps[i]]
            w, q_h, eta = oracles.continuum_eval(bl, bh, bl * e[0], bl * e[1], bh * e[2], bh * e[3])
            checks.close(res.work, w, f"row {i} continuum W")
            checks.close(res.heat_high, q_h, f"row {i} continuum Q_h")
            checks.close(res.heat_low, -w - q_h, f"row {i} continuum Q_l")
            checks.require((res.efficiency is None) == (eta is None), f"row {i} continuum eta defined-ness")
            if eta is not None:
                checks.close(res.efficiency, eta, f"row {i} continuum eta")


# ---------------------------------------------------------------------- CLI


class Cli(Workload):
    """Sequential ``urnengine`` processes: the import alone, three small
    documents, one simulate and one large region document in JSON and CSV."""

    name = "cli"

    def __init__(self, spec, tracer, root):
        super().__init__(spec, tracer, root)
        self._rows_cache = None  # the region JSON rows, while the checks run
        self.out = os.path.join(root, ".perfbench_out", "cli")
        os.makedirs(self.out, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        s = spec
        o, b, bs = s["otto"], s["beta"], s["betas"]
        sim, reg = s["simulate"], s["region"]
        self.commands = {
            "analytic_otto": ["analytic", "otto", "--eps-l", repr(o["altitudes"][0]), "--eps-h", repr(o["altitudes"][1]),
                              "--N", str(o["total"]), "--n-l", str(o["excited"][0]), "--n-h", str(o["excited"][1])],
            "thermo_beta": ["thermo", "beta", "--n", str(b["n"]), "--N", str(b["N"]), "--eps", repr(b["eps"])],
            "continuum_wmax": ["continuum", "wmax", "--beta-l", repr(bs["beta_l"]), "--beta-h", repr(bs["beta_h"])],
            "simulate": ["simulate", "--eps", ",".join(map(repr, sim["altitudes"])), "--n", ",".join(map(str, sim["excited"])),
                         "--N", str(sim["total"]), "--trials", str(sim["trials"]), "--seed", str(sim["seed"])],
            "region_json": ["region", "--m", str(reg["m"]), "--beta-l", repr(inputs.BETA_L),
                            "--beta-h", repr(inputs.BETA_H), "--samples", str(reg["samples"]),
                            "--eps-max", repr(reg["eps_max"]), "--seed", str(reg["seed"]), "--format", "json"],
        }
        self.commands["region_csv"] = self.commands["region_json"][:-1] + ["csv"]
        for op, cmd in self.commands.items():
            cmd += ["--output", self._path(op)]

    SMALL = ("analytic_otto", "thermo_beta", "continuum_wmax")

    def _path(self, op):
        return os.path.join(self.out, op + (".csv" if op.endswith("_csv") else ".json"))

    def ops(self):
        return ["import", *self.SMALL, "simulate", "region_json", "region_csv"]

    def _spawn(self, argv: list[str]) -> int:
        """Run one program process to its end; keep its peak RSS."""
        proc = subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"urnengine exited with {proc.returncode}: {argv}")
        return proc.returncode

    def run_round(self) -> dict:
        results: dict = {}
        self._call(results, "import", "cli.import", lambda c: self._spawn(["-c", "import urnengine.cli"]))
        for op in self.ops()[1:]:
            span = "cli.small_doc" if op in self.SMALL else f"cli.{op}"
            self._call(results, op, span, lambda c, op=op: self._spawn(["-m", "urnengine.cli", *self.commands[op]]))
        return results

    def key(self, op, result):
        if op == "import":
            return result
        with open(self._path(op), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def checkers(self, results):
        forms = oracles.cli_closed_forms(self.spec)
        for op in self.SMALL:
            yield op, lambda op=op: checks.outputs_match(checks.document(self._path(op), seeded=False), forms[op], op)
        yield "simulate", self._check_simulate
        yield "region_json", self._check_region_json
        yield "region_csv", self._check_region_csv
        self._rows_cache = None

    def _check_region_csv(self):
        with open(self._path("region_csv"), newline="") as fh:
            checks.region_csv_matches_json(self._region_rows(), fh)

    def _check_simulate(self):
        sim = self.spec["simulate"]
        doc = checks.document(self._path("simulate"), seeded=True)
        out = doc["outputs"]
        stats = SimpleNamespace(
            trials=out["trials"], mean_work=out["mean_W"], var_work=out["var_W"],
            mean_heats=out["mean_Q"], histogram={float(k): v for k, v in out["histogram"].items()},
            bin_width=None, conservation_violations=out["conservation_violations"],
        )
        ring = inputs.two_level(sim["altitudes"], sim["excited"], sim["total"], sim["trials"])
        dist = oracles.work_distribution(ring["altitudes"], oracles.laws(ring))
        checks.ensemble(stats, ring, dist)
        checks.audit(stats)
        checks.require(doc["seed"] == sim["seed"] and out["passed"] is True, "simulate seed echo or verdict")

    def _region_rows(self):
        if self._rows_cache is None:
            self._rows_cache = checks.document(self._path("region_json"), seeded=True)["outputs"]["points"]
        return self._rows_cache

    def _check_region_json(self):
        reg = self.spec["region"]
        rows = self._region_rows()
        checks.require(len(rows) == reg["samples"], f"{len(rows)} region rows, expected {reg['samples']}")
        nan = float("nan")
        idx = range(0, len(rows), max(len(rows) // 200, 1))
        sub = [rows[i] for i in idx]
        checks.region_rows([r["W"] for r in sub], [nan if r["eta"] is None else r["eta"] for r in sub],
                           [r["engine"] for r in sub], [r["config"] for r in sub], range(len(sub)),
                           inputs.BETA_L, inputs.BETA_H)


WORKLOADS = {w.name: w for w in (MCTwoLevel, MCMixedWeights, Frontier, Cli)}


# ------------------------------------------------------------ layer metrics


def layer_metrics(tracer, specs: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric from the spans of a traced run."""
    d = tracer.durations
    out: dict[str, tuple[float, str]] = {}

    def rate(amount, span):
        t = _median(d(span))
        return amount / t if t else 0.0

    mc2 = specs["mc_two_level"]["rings"]
    out["montecarlo.otto_trials_per_s"] = (rate(mc2["otto"]["trials"], "montecarlo.run_ensemble:otto"), "trials/s")
    out["montecarlo.ring16_trials_per_s"] = (rate(mc2["ring16"]["trials"], "montecarlo.run_ensemble:ring16"), "trials/s")
    w1 = _median(d("montecarlo.run_ensemble:ring16"))
    w2 = _median(d("montecarlo.run_ensemble:ring16_workers2"))
    out["montecarlo.ring16_workers2_speedup"] = (w1 / w2 if w1 and w2 else 0.0, "ratio")
    compare = [a + b for a, b in zip(d("montecarlo.compare_to_analytic:otto"), d("montecarlo.compare_to_analytic:ring16"))]
    out["montecarlo.compare_s"] = (_median(compare) or 0.0, "s")
    violations = [sum(v) for v in zip(*(tracer.counts(f"montecarlo.run_ensemble:{op}", "violations")
                                        for op in ("otto", "ring16", "ring16_workers2")))]
    out["montecarlo.conservation_violations"] = (max(violations, default=0), "count")
    mix = specs["mc_mixed_weights"]["rings"]
    t4 = _median(d("montecarlo.run_ensemble:mixed4"))
    t8 = _median(d("montecarlo.run_ensemble:mixed8"))
    out["montecarlo.mixed_trials_per_s"] = (
        (mix["mixed4"]["trials"] + mix["mixed8"]["trials"]) / (t4 + t8) if t4 and t8 else 0.0, "trials/s")
    out["urn.ring_build_s"] = (sum(d("urn.ring_build")), "s")

    solve_spans = {
        "m1_max": "frontier.optimize_efficiency:m1_max", "m2_max": "frontier.optimize_efficiency:m2_max",
        "carnot_max": "frontier.carnot_frontier:carnot_max", "carnot_min": "frontier.carnot_frontier:carnot_min",
    }
    total_evals = total_time = 0.0
    for op, span in solve_spans.items():
        t = _median(d(span))
        evals = tracer.counts(span, "evaluations")
        out[f"frontier.{op}_solve_s"] = (t or 0.0, "s")
        out[f"frontier.{op}_evaluations"] = (evals[-1] if evals else 0, "count")
        if t and evals:
            total_evals += evals[-1]
            total_time += t
    out["frontier.evals_per_s"] = (total_evals / total_time if total_time else 0.0, "1/s")
    out["frontier.region_samples_per_s"] = (rate(specs["frontier"]["region"]["samples"], "frontier.sample_region"), "samples/s")
    for name, span in (("analytic.mean_heats_ring_us", "analytic.mean_heats_ring"),
                       ("continuum.continuum_heats_us", "continuum.continuum_heats")):
        out[name] = ((_median(d(span)) or 0.0) * 1e6, "us")
    elements = tracer.counts("thermo.occupancy_np", "elements")
    out["thermo.occupancy_np_per_s"] = (rate(elements[-1], "thermo.occupancy_np") if elements else 0.0, "elements/s")

    for name, span in (("cli.import_s", "cli.import"), ("cli.small_doc_s", "cli.small_doc"),
                       ("cli.simulate_doc_s", "cli.simulate"), ("cli.region_json_doc_s", "cli.region_json"),
                       ("cli.region_csv_doc_s", "cli.region_csv")):
        out[name] = (_median(d(span)) or 0.0, "s")
    return out

