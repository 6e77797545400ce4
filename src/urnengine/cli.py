"""Command-line interface: every computation, machine-readable output.

One invocation runs one computation and writes one document.  JSON documents
have the shape {"inputs": ..., "outputs": ..., "version": ..., "seed": ...}
(seed present only for seeded commands); inputs echo every effective flag,
defaulted or not, so a result is reproducible from its own output.  CSV
output is RFC-4180-style with a mandatory header; column order is part of
the interface and stays stable.  Identical invocations produce byte-identical
documents.

Exit codes: 0 success, 1 domain error (structured JSON message on stderr),
2 usage error (argparse).  Reduced units (k_B = 1) are the only unit system.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Any

from . import __version__

if TYPE_CHECKING:  # each handler imports the modules it runs
    from . import continuum

__all__ = ["main", "build_parser"]


@dataclass
class CommandResult:
    """A command's document: JSON ``inputs`` and ``outputs``, and a table of
    ``columns`` with one sequence of ``cells`` per column.  CSV writes the
    table; JSON writes it as outputs["points"] when ``points`` is set."""

    inputs: dict[str, Any]
    outputs: dict[str, Any]
    seed: int | None
    columns: list[str]
    cells: list[Sequence[Any]]
    points: bool = False


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc


def _grid(text: str) -> list[float]:
    """Parse start:stop:count into an inclusive linear grid."""
    import numpy as np
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}") from exc
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be >= 1")
    return np.linspace(start, stop, count).tolist()


def _ring_m(text: str) -> int | None:
    """Sub-reservoir count; 'inf' or 'carnot' selects the continuum cycle."""
    if text.lower() in ("inf", "carnot"):
        return None
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"m must be an integer, 'inf', or 'carnot': {text!r}") from exc
    return value


def _jsonable(value: Any) -> Any:
    if hasattr(value, "tolist"):  # numpy scalars and arrays
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None  # JSON has no NaN/inf; undefined quantities serialize as null
    return value


_JSON_NULL = {"": "null", "nan": "null", "inf": "null", "-inf": "null"}


def _text(value: Any) -> str:
    """A scalar cell as CSV writes it: None empty, bools lower-case, else str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _column(values: Sequence[Any], fmt: str, pad: str) -> list[str]:
    """One table column as CSV or JSON cell texts.  Numbers need only str();
    JSON quotes strings and writes the empty, nan and inf texts as null.
    List cells (never empty) format their items as one column, then join
    them with ';' or lay them out as an array at indent ``pad``."""
    types = set(map(type, values))
    if types and types <= {list, tuple}:
        items = iter(_column([v for cell in values for v in cell], fmt, pad + "  "))
        if fmt == "csv":
            return [";".join(islice(items, len(cell))) for cell in values]
        sep = f",\n{pad}  "
        return [f"[\n{pad}  {sep.join(islice(items, len(cell)))}\n{pad}]" for cell in values]
    texts = list(map(str if types <= {int, float} else _text, values))
    if fmt == "csv":
        return texts
    if str not in types:
        return list(map(_JSON_NULL.get, texts, texts))
    return [json.dumps(v) if isinstance(v, str) else _JSON_NULL.get(t, t) for v, t in zip(values, texts)]


def _emit(result: CommandResult, fmt: str, output: str | None) -> None:
    """Write the document, streaming the table row by row: CSV rows through
    csv.writer, JSON rows through a template of the points array that json.dumps
    (sort_keys=True, indent=2) writes for the rest of the document."""
    with contextlib.nullcontext(sys.stdout) if output is None else open(output, "w", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(result.columns)
            writer.writerows(zip(*(_column(col, fmt, "") for col in result.cells)))
            return
        doc = {"inputs": _jsonable(result.inputs), "outputs": _jsonable(result.outputs),
               "version": __version__}
        if result.seed is not None:
            doc["seed"] = result.seed
        if result.points:
            doc["outputs"]["points"] = []
        head, points, tail = (json.dumps(doc, sort_keys=True, indent=2) + "\n").partition('"points": []')
        if result.points and result.cells[0]:
            pad = head[head.rfind("\n") + 1:] + "  "
            order = sorted(range(len(result.columns)), key=result.columns.__getitem__)
            keys = ",\n".join(f"{pad}  {json.dumps(result.columns[k])}: %s" for k in order)
            template = f"{pad}{{\n{keys}\n{pad}}}"
            rows = zip(*(_column(result.cells[k], fmt, pad + "  ") for k in order))
            fh.write(head + '"points": [\n' + template % next(rows))
            fh.writelines(map((",\n" + template).__mod__, rows))
            head, points = "", f"\n{pad[:-2]}]"
        fh.write(head + points + tail)


def _scalar_result(inputs: dict[str, Any], outputs: dict[str, Any], seed: int | None = None) -> CommandResult:
    # one CSV row merging inputs and scalar outputs; on a name clash the
    # echoed input wins and the column appears once
    row = {**{k: v for k, v in outputs.items() if not isinstance(v, dict)}, **inputs}
    columns = list(inputs) + [k for k in row if k not in inputs]
    return CommandResult(inputs=inputs, outputs=outputs, seed=seed, columns=columns,
                         cells=[[row[k]] for k in columns])


# ---------------------------------------------------------------- handlers


def _handle_analytic_otto(args: argparse.Namespace) -> CommandResult:
    from . import analytic, thermo
    inputs = {
        "eps_l": args.eps_l, "eps_h": args.eps_h, "N": args.N,
        "n_l": args.n_l, "n_h": args.n_h,
    }
    spec = analytic.RingSpec.from_counts([args.eps_l, args.eps_h], [args.n_l, args.n_h], args.N)
    q_l, q_h, w = analytic.mean_heats_ring(spec)
    stats = analytic.work_statistics_ring(spec)
    outputs: dict[str, Any] = {
        "W": w,
        "eta": analytic.efficiency_otto(args.eps_l, args.eps_h),
        "Q_l": q_l,
        "Q_h": q_h,
        "var_W": stats.variance,
    }
    degenerate = {0, args.N}
    outputs["beta_l"] = (
        thermo.beta_from_occupancy(args.n_l, args.N, args.eps_l).beta
        if args.n_l not in degenerate else None
    )
    outputs["beta_h"] = (
        thermo.beta_from_occupancy(args.n_h, args.N, args.eps_h).beta
        if args.n_h not in degenerate else None
    )
    bl, bh = outputs["beta_l"], outputs["beta_h"]
    outputs["eta_carnot"] = None if bl in (None, 0.0) or bh is None else thermo.carnot_efficiency(bl, bh)
    return _scalar_result(inputs, outputs)


def _handle_analytic_ring(args: argparse.Namespace) -> CommandResult:
    from . import analytic
    inputs = {"eps": args.eps, "f_mean": args.f_mean, "f": args.f}
    spec = analytic.RingSpec(altitudes=args.eps, mean_weights=args.f_mean, bernoulli_f=args.f)
    q_low, q_high, w = analytic.mean_heats_ring(spec)
    outputs: dict[str, Any] = {"Q_low": q_low, "Q_high": q_high, "W": w}
    if args.f is not None:
        stats = analytic.work_statistics_ring(spec)
        outputs.update(mean_W=stats.mean, var_W=stats.variance, ratio=stats.ratio)
    return _scalar_result(inputs, outputs)


def _handle_analytic_variance(args: argparse.Namespace) -> CommandResult:
    from . import analytic
    inputs = {"eps": args.eps, "f": args.f}
    spec = analytic.RingSpec(altitudes=args.eps, mean_weights=args.f, bernoulli_f=args.f)
    stats = analytic.work_statistics_ring(spec)
    outputs = {"mean_W": stats.mean, "var_W": stats.variance, "ratio": stats.ratio}
    return _scalar_result(inputs, outputs)


def _handle_thermo_beta(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    inputs = {"n": args.n, "N": args.N, "eps": args.eps}
    beta = thermo.beta_from_occupancy(args.n, args.N, args.eps)
    outputs = {"beta": beta.beta, "temperature": beta.temperature}
    return _scalar_result(inputs, outputs)


def _handle_thermo_occupancy(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    inputs = {"x": args.x}
    outputs = {"f": thermo.occupancy(args.x)}
    return _scalar_result(inputs, outputs)


def _handle_thermo_entropy(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    inputs = {"x": args.x, "y": args.y, "levels": args.levels}
    if args.levels is not None:
        if args.y is not None:
            raise ValueError("--levels and --y are mutually exclusive")
        s = thermo.entropy_equally_spaced(args.x, args.levels)
    else:
        s = thermo.entropy_s(args.x, args.y).s
    return _scalar_result(inputs, {"s": s})


def _handle_thermo_degeneracy(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    inputs = {"N": args.N, "n": args.n}
    outputs = {"log_degeneracy": thermo.log_degeneracy(args.N, args.n)}
    return _scalar_result(inputs, outputs)


def _handle_simulate(args: argparse.Namespace) -> CommandResult:
    from . import montecarlo, urn
    if args.eps is not None or args.n is not None:
        if args.eps is None or args.n is None:
            raise ValueError("ring mode needs both --eps and --n")
        altitudes, excited = args.eps, args.n
    else:
        required = (args.eps_l, args.eps_h, args.n_l, args.n_h)
        if any(v is None for v in required):
            raise ValueError("need --eps-l/--eps-h/--n-l/--n-h or --eps/--n")
        altitudes = [args.eps_l, args.eps_h]
        excited = [args.n_l, args.n_h]
    inputs = {
        "eps": list(altitudes), "n": [int(v) for v in excited], "N": args.N,
        "trials": args.trials, "seed": args.seed, "workers": args.workers,
    }
    ring = urn.two_level_ring(altitudes, excited, args.N)
    stats = montecarlo.run_ensemble(ring, args.trials, args.seed, workers=args.workers)
    report = montecarlo.compare_to_analytic(stats, montecarlo.ring_spec_of(ring))
    outputs: dict[str, Any] = {
        "trials": stats.trials,
        "mean_W": stats.mean_work,
        "var_W": stats.var_work,
        "stderr_W": stats.stderr_work,
        "mean_Q": list(stats.mean_heats),
        "conservation_violations": stats.conservation_violations,
        "histogram": {str(k): v for k, v in stats.histogram.items()},
        "analytic_mean": report.analytic_mean,
        "analytic_variance": report.analytic_variance,
        "z_mean": report.z_mean,
        "z_var": report.z_var,
        "tv_distance": report.tv_distance,
        "exact_match": report.exact_match,
        "passed": report.passed,
    }
    return _scalar_result(inputs, outputs, seed=args.seed)


def _continuum_endpoints(args: argparse.Namespace) -> continuum.CarnotEndpoints:
    from . import continuum
    reduced = (args.l1, args.lm, args.h1, args.hm)
    raw = (args.eps_l1, args.eps_lm, args.eps_h1, args.eps_hm)
    if all(v is not None for v in reduced):
        return continuum.CarnotEndpoints(
            beta_l=args.beta_l, beta_h=args.beta_h,
            cold_first=args.l1, cold_last=args.lm,
            hot_first=args.h1, hot_last=args.hm,
        )
    if all(v is not None for v in raw):
        return continuum.CarnotEndpoints.from_altitudes(
            args.beta_l, args.beta_h, args.eps_l1, args.eps_lm, args.eps_h1, args.eps_hm
        )
    raise ValueError("need all of --l1/--lm/--h1/--hm or all of --eps-l1/--eps-lm/--eps-h1/--eps-hm")


def _handle_continuum_heats(args: argparse.Namespace) -> CommandResult:
    from . import continuum
    ep = _continuum_endpoints(args)
    inputs = {
        "beta_l": args.beta_l, "beta_h": args.beta_h,
        "L1": ep.cold_first, "Lm": ep.cold_last, "H1": ep.hot_first, "Hm": ep.hot_last,
    }
    res = continuum.continuum_heats(ep)
    outputs = {
        "Q_l": res.heat_low, "Q_h": res.heat_high, "W": res.work, "eta": res.efficiency,
    }
    return _scalar_result(inputs, outputs)


def _handle_continuum_reversible(args: argparse.Namespace) -> CommandResult:
    from . import continuum
    if args.l1 is not None and args.lm is not None:
        l1, lm = args.l1, args.lm
    elif args.eps_l1 is not None and args.eps_lm is not None:
        l1, lm = args.beta_l * args.eps_l1, args.beta_l * args.eps_lm
    else:
        raise ValueError("need --l1/--lm or --eps-l1/--eps-lm")
    inputs = {"beta_l": args.beta_l, "beta_h": args.beta_h, "L1": l1, "Lm": lm}
    res = continuum.continuum_heats(continuum.reversible_endpoints(args.beta_l, args.beta_h, l1, lm))
    w, eta = continuum.reversible_work(args.beta_l, args.beta_h, l1, lm)
    outputs = {"W": w, "eta": eta,
               "identity_residual": args.beta_l * res.heat_low + args.beta_h * res.heat_high}
    return _scalar_result(inputs, outputs)


def _handle_continuum_wmax(args: argparse.Namespace) -> CommandResult:
    from . import continuum
    inputs = {"beta_l": args.beta_l, "beta_h": args.beta_h}
    outputs = {"W_max": continuum.max_reversible_work(args.beta_l, args.beta_h)}
    return _scalar_result(inputs, outputs)


_FRONTIER_COLUMNS = [
    "m", "beta_l", "beta_h", "mode", "target_W", "W", "eta",
    "residual", "evaluations", "start_index", "config",
]


def _handle_frontier(args: argparse.Namespace) -> CommandResult:
    from . import frontier
    if (args.target_w is None) == (args.w_grid is None):
        raise ValueError("need exactly one of --target-w or --w-grid")
    targets = [args.target_w] if args.target_w is not None else args.w_grid
    tol_w = frontier.DEFAULT_TOL_W if args.tol_w is None else args.tol_w
    budget = frontier.DEFAULT_BUDGET if args.budget is None else args.budget
    starts = frontier.DEFAULT_STARTS if args.starts is None else args.starts
    inputs = {
        "m": "carnot" if args.m is None else args.m,
        "beta_l": args.beta_l, "beta_h": args.beta_h,
        "mode": args.mode, "target_W": [float(t) for t in targets],
        "tol_w": tol_w, "budget": budget, "starts": starts,
        "seed": args.seed, "init_extent": args.init_extent,
    }
    points = frontier.frontier_curve(
        args.m, args.beta_l, args.beta_h, targets, frontier.Mode(args.mode),
        tol_w, budget, starts, args.seed, args.init_extent,
    )
    fields = ("target_work", "work", "eta", "residual", "evaluations", "start_index", "config")
    cells = [[v] * len(points) for v in (inputs["m"], args.beta_l, args.beta_h, args.mode)]
    cells += [[getattr(p, f) for p in points] for f in fields]
    return CommandResult(inputs=inputs, outputs={}, seed=args.seed,
                         columns=_FRONTIER_COLUMNS, cells=cells, points=True)


_REGION_COLUMNS = ["W", "eta", "engine", "config"]


def _handle_region(args: argparse.Namespace) -> CommandResult:
    from . import frontier
    inputs = {
        "m": args.m, "beta_l": args.beta_l, "beta_h": args.beta_h,
        "samples": args.samples, "eps_max": args.eps_max, "seed": args.seed,
    }
    sample = frontier.sample_region(
        args.m, args.beta_l, args.beta_h, args.samples, args.eps_max, args.seed
    )
    cells = [sample.work.tolist(),
             [e if math.isfinite(e) else None for e in sample.efficiency.tolist()],
             sample.engine.tolist(), sample.eps.tolist()]
    return CommandResult(inputs=inputs, outputs={}, seed=args.seed,
                         columns=_REGION_COLUMNS, cells=cells, points=True)


# ---------------------------------------------------------------- parser


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write the document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnengine",
        description="Urn-model heat engines: exact statistics, simulation, frontiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="closed-form engine statistics")
    sub_analytic = p_analytic.add_subparsers(dest="subcommand", required=True)

    p = sub_analytic.add_parser("otto", help="two-reservoir engine from 0/1 populations")
    p.add_argument("--eps-l", type=float, required=True)
    p.add_argument("--eps-h", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n-l", type=int, required=True)
    p.add_argument("--n-h", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_analytic_otto)

    p = sub_analytic.add_parser("ring", help="2m-ring mean heats and work")
    p.add_argument("--eps", type=_float_list, required=True)
    p.add_argument("--f-mean", type=_float_list, required=True)
    p.add_argument("--f", type=_float_list, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_analytic_ring)

    p = sub_analytic.add_parser("variance", help="0/1-model work mean/variance/ratio")
    p.add_argument("--eps", type=_float_list, required=True)
    p.add_argument("--f", type=_float_list, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_analytic_variance)

    p_thermo = sub.add_parser("thermo", help="occupancy/temperature/entropy layer")
    sub_thermo = p_thermo.add_subparsers(dest="subcommand", required=True)

    p = sub_thermo.add_parser("beta", help="inverse temperature from occupancy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_thermo_beta)

    p = sub_thermo.add_parser("occupancy", help="f(x) = 1/(exp(x)+1)")
    p.add_argument("--x", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_thermo_occupancy)

    p = sub_thermo.add_parser("entropy", help="two-level or equally-spaced entropy")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--levels", type=int, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_thermo_entropy)

    p = sub_thermo.add_parser("degeneracy", help="log microstate count ln C(N, n)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_thermo_degeneracy)

    p = sub.add_parser("simulate", help="Monte Carlo ensemble of 0/1-weight cycles")
    p.add_argument("--eps-l", type=float, default=None)
    p.add_argument("--eps-h", type=float, default=None)
    p.add_argument("--n-l", type=int, default=None)
    p.add_argument("--n-h", type=int, default=None)
    p.add_argument("--eps", type=_float_list, default=None, help="ring altitudes, low half first")
    p.add_argument("--n", type=_int_list, default=None, help="ring excited counts")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_simulate)

    p_continuum = sub.add_parser("continuum", help="reversible-limit cycles")
    sub_continuum = p_continuum.add_subparsers(dest="subcommand", required=True)

    def _endpoint_flags(q: argparse.ArgumentParser, hot: bool) -> None:
        q.add_argument("--beta-l", type=float, required=True)
        q.add_argument("--beta-h", type=float, required=True)
        q.add_argument("--l1", type=float, default=None, help="reduced cold start beta_l*eps")
        q.add_argument("--lm", type=float, default=None, help="reduced cold end")
        q.add_argument("--eps-l1", type=float, default=None)
        q.add_argument("--eps-lm", type=float, default=None)
        if hot:
            q.add_argument("--h1", type=float, default=None)
            q.add_argument("--hm", type=float, default=None)
            q.add_argument("--eps-h1", type=float, default=None)
            q.add_argument("--eps-hm", type=float, default=None)

    p = sub_continuum.add_parser("heats", help="branch heats at arbitrary endpoints")
    _endpoint_flags(p, hot=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_continuum_heats)

    p = sub_continuum.add_parser("reversible", help="matched-endpoint Carnot cycle")
    _endpoint_flags(p, hot=False)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_continuum_reversible)

    p = sub_continuum.add_parser("wmax", help="supremum of the reversible work")
    p.add_argument("--beta-l", type=float, required=True)
    p.add_argument("--beta-h", type=float, required=True)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_continuum_wmax)

    p = sub.add_parser("frontier", help="extremal efficiency at fixed work")
    p.add_argument("--m", type=_ring_m, required=True, help="sub-reservoirs per side, or 'carnot'")
    p.add_argument("--beta-l", type=float, required=True)
    p.add_argument("--beta-h", type=float, required=True)
    p.add_argument("--target-w", type=float, default=None)
    p.add_argument("--w-grid", type=_grid, default=None, help="start:stop:count")
    p.add_argument("--mode", choices=("max", "min"), default="max")
    p.add_argument("--tol-w", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init-extent", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_frontier)

    p = sub.add_parser("region", help="scatter-sample the attainable (W, eta) region")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--beta-l", type=float, required=True)
    p.add_argument("--beta-h", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--eps-max", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(handler=_handle_region)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
        _emit(result, args.format, args.output)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
