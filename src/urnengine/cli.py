"""Command-line interface: every computation, machine-readable output.

One invocation runs one computation and writes one document.  JSON documents
have the shape {"inputs": ..., "outputs": ..., "version": ..., "seed": ...}
(seed present only for seeded commands); inputs echo every effective flag,
defaulted or not, so a result is reproducible from its own output.  CSV
output is RFC-4180-style with a mandatory header; column order is part of
the interface and stays stable.  Identical invocations produce byte-identical
documents.

Exit codes: 0 success, 1 domain error (structured JSON message on stderr),
2 usage error (argparse: a missing or unknown flag).  Each input has one
spelling: ``simulate`` takes the ring (``--eps``/``--n``), ``analytic ring``
the excited fractions (``--f``), ``continuum heats|reversible`` reduced
endpoints (beta*eps), ``frontier`` its work targets (``--target-w``: one W or
start:stop:count).  Reduced units (k_B = 1) are the only unit system.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any

from . import __version__

__all__ = ["main", "build_parser"]


@dataclass
class CommandResult:
    """A command's document: JSON ``inputs`` and ``outputs``, and a table of
    ``columns`` given as row ``blocks``, each one sequence of cells per column.
    CSV writes the table; JSON writes it as outputs["points"] when ``points``
    is set, and the seed at top level when the inputs hold one."""

    inputs: dict[str, Any]
    outputs: dict[str, Any]
    columns: list[str]
    blocks: Iterable[list[Sequence[Any]]]
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
    """Parse one value, or start:stop:count into an inclusive linear grid."""
    import numpy as np
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"not a value or start:stop:count: {text!r}")
    try:
        if len(parts) == 1:
            return [float(text)]
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a value or start:stop:count: {text!r}") from exc
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


# the cell text of an undefined value: an empty CSV cell, a JSON null
_UNDEFINED = {"csv": dict.fromkeys(("nan", "inf", "-inf"), ""),
              "json": dict.fromkeys(("", "nan", "inf", "-inf"), "null")}


def _text(value: Any) -> str:
    """A scalar cell as CSV writes it: None empty, bools lower-case, else str()."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _column(values: Sequence[Any], fmt: str, pad: str) -> list[str]:
    """One table column as CSV or JSON cell texts.  Numbers need only str();
    None and every non-finite number are undefined: an empty CSV cell, a JSON
    null.  JSON quotes strings.  List cells (never empty) format their items
    as one column, then join them with ';' or lay them out as an array at
    indent ``pad``."""
    types = set(map(type, values))
    if types and types <= {list, tuple}:
        items = iter(_column([v for cell in values for v in cell], fmt, pad + "  "))
        if fmt == "csv":
            return [";".join(islice(items, len(cell))) for cell in values]
        sep = f",\n{pad}  "
        return [f"[\n{pad}  {sep.join(islice(items, len(cell)))}\n{pad}]" for cell in values]
    texts = list(map(str if types <= {int, float} else _text, values))
    undefined = _UNDEFINED[fmt]
    if str not in types:
        return list(map(undefined.get, texts, texts))
    quote = json.dumps if fmt == "json" else str
    return [quote(v) if isinstance(v, str) else undefined.get(t, t) for v, t in zip(values, texts)]


def _emit(result: CommandResult, fmt: str, output: str | None) -> None:
    """Write the document, streaming the table block by block: CSV rows through
    csv.writer, JSON rows through a template of the points array that json.dumps
    (sort_keys=True, indent=2) writes for the rest of the document."""
    with contextlib.nullcontext(sys.stdout) if output is None else open(output, "w", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(result.columns)
            for block in result.blocks:
                writer.writerows(zip(*(_column(col, fmt, "") for col in block)))
            return
        doc = {"inputs": _jsonable(result.inputs), "outputs": _jsonable(result.outputs),
               "version": __version__}
        if result.inputs.get("seed") is not None:
            doc["seed"] = result.inputs["seed"]
        if result.points:
            doc["outputs"]["points"] = []
        head, points, tail = (json.dumps(doc, sort_keys=True, indent=2) + "\n").partition('"points": []')
        if result.points:
            pad = head[head.rfind("\n") + 1:] + "  "
            order = sorted(range(len(result.columns)), key=result.columns.__getitem__)
            keys = ",\n".join(f"{pad}  {json.dumps(result.columns[k])}: %s" for k in order)
            template = f"{pad}{{\n{keys}\n{pad}}}"
            rows = chain.from_iterable(zip(*(_column(block[k], fmt, pad + "  ") for k in order))
                                       for block in result.blocks)
            for row in islice(rows, 1):  # unless the table is empty
                fh.write(head + '"points": [\n' + template % row)
                fh.writelines(map((",\n" + template).__mod__, rows))
                head, points = "", f"\n{pad[:-2]}]"
        fh.write(head + points + tail)


def _scalar_result(inputs: dict[str, Any], outputs: dict[str, Any]) -> CommandResult:
    # one CSV row merging inputs and scalar outputs; on a name clash the
    # echoed input wins and the column appears once
    row = {**{k: v for k, v in outputs.items() if not isinstance(v, dict)}, **inputs}
    columns = list(inputs) + [k for k in row if k not in inputs]
    return CommandResult(inputs=inputs, outputs=outputs, columns=columns, blocks=[[[row[k]] for k in columns]])


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _echo(args: argparse.Namespace) -> dict[str, Any]:
    """The subcommand's flags in declaration order, as given or defaulted."""
    return {dest: getattr(args, dest) for dest in args.flags}


# ---------------------------------------------------------------- handlers


def _handle_analytic_otto(args: argparse.Namespace) -> CommandResult:
    from . import analytic, thermo
    spec = analytic.RingSpec.from_populations(
        [args.eps_l, args.eps_h], [{0.0: args.N - n, 1.0: n} for n in (args.n_l, args.n_h)])
    q_l, q_h, w = analytic.mean_heats_ring(spec)
    var_w = analytic.work_statistics_ring(spec).variance
    bl, bh = (thermo.beta_from_occupancy(n, args.N, eps) if n not in (0, args.N) else None
              for n, eps in ((args.n_l, args.eps_l), (args.n_h, args.eps_h)))
    outputs = {
        "W": w, "eta": thermo._efficiency(w, q_h), "Q_l": q_l, "Q_h": q_h, "var_W": var_w,
        "beta_l": bl, "beta_h": bh,
        "eta_carnot": None if bl in (None, 0.0) or bh is None else thermo.carnot_efficiency(bl, bh),
    }
    return _scalar_result(_echo(args), outputs)


def _handle_analytic_ring(args: argparse.Namespace) -> CommandResult:
    from . import analytic
    spec = analytic.RingSpec.bernoulli(args.eps, args.f)
    q_low, q_high, w = analytic.mean_heats_ring(spec)
    stats = analytic.work_statistics_ring(spec)
    outputs = {"Q_low": q_low, "Q_high": q_high, "W": w,
               "mean_W": stats.mean, "var_W": stats.variance, "ratio": stats.ratio}
    return _scalar_result(_echo(args), outputs)


def _handle_thermo_beta(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    beta = thermo.beta_from_occupancy(args.n, args.N, args.eps)
    temperature = math.inf if beta == 0.0 else 1.0 / beta
    return _scalar_result(_echo(args), {"beta": beta, "temperature": temperature})


def _handle_thermo_occupancy(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    return _scalar_result(_echo(args), {"f": thermo.occupancy(args.x)})


def _handle_thermo_entropy(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    if args.levels is not None:
        if args.y is not None:
            raise ValueError("--levels and --y are mutually exclusive")
        s = thermo.entropy_equally_spaced(args.x, args.levels)
    else:
        s = thermo.entropy_s(args.x, args.y)
    return _scalar_result(_echo(args), {"s": s})


def _handle_thermo_degeneracy(args: argparse.Namespace) -> CommandResult:
    from . import thermo
    return _scalar_result(_echo(args), {"log_degeneracy": thermo.log_degeneracy(args.N, args.n)})


def _handle_simulate(args: argparse.Namespace) -> CommandResult:
    from . import analytic, montecarlo
    spec = analytic.RingSpec.from_populations(args.eps, [{0.0: args.N - n, 1.0: n} for n in args.n])
    analytic.work_statistics_ring(spec)  # an overflowing closed form fails before any draw
    stats = montecarlo.run_ensemble(spec, args.trials, args.seed, workers=args.workers)
    report = montecarlo.compare_to_analytic(stats, spec)
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
    return _scalar_result(_echo(args), outputs)


def _handle_continuum_heats(args: argparse.Namespace) -> CommandResult:
    from . import continuum
    inputs = {"beta_l": args.beta_l, "beta_h": args.beta_h,
              "L1": args.l1, "Lm": args.lm, "H1": args.h1, "Hm": args.hm}
    ep = continuum.CarnotEndpoints(args.beta_l, args.beta_h, args.l1, args.lm, args.h1, args.hm)
    res = continuum.continuum_heats(ep)
    outputs = {
        "Q_l": res.heat_low, "Q_h": res.heat_high, "W": res.work, "eta": res.efficiency,
    }
    return _scalar_result(inputs, outputs)


def _handle_continuum_reversible(args: argparse.Namespace) -> CommandResult:
    from . import continuum
    inputs = {"beta_l": args.beta_l, "beta_h": args.beta_h, "L1": args.l1, "Lm": args.lm}
    cycle = (args.beta_l, args.beta_h, args.l1, args.lm)
    res = continuum.continuum_heats(continuum.reversible_endpoints(*cycle))
    w, eta = continuum.reversible_work(*cycle)
    outputs = {"W": w, "eta": eta,
               "identity_residual": args.beta_l * res.heat_low + args.beta_h * res.heat_high}
    return _scalar_result(inputs, outputs)


def _handle_continuum_wmax(args: argparse.Namespace) -> CommandResult:
    from . import continuum
    return _scalar_result(_echo(args), {"W_max": continuum.max_reversible_work(args.beta_l, args.beta_h)})


_FRONTIER_COLUMNS = [
    "m", "beta_l", "beta_h", "mode", "target_W", "W", "eta",
    "residual", "evaluations", "start_index", "config",
]


def _handle_frontier(args: argparse.Namespace) -> CommandResult:
    from . import frontier
    tol_w = frontier.DEFAULT_TOL_W if args.tol_w is None else args.tol_w
    budget = frontier.DEFAULT_BUDGET if args.budget is None else args.budget
    starts = frontier.DEFAULT_STARTS if args.starts is None else args.starts
    inputs = {
        "m": "carnot" if args.m is None else args.m,
        "beta_l": args.beta_l, "beta_h": args.beta_h,
        "mode": args.mode, "target_W": args.target_w,
        "tol_w": tol_w, "budget": budget, "starts": starts,
        "seed": args.seed,
    }
    points = frontier.frontier_curve(
        args.m, args.beta_l, args.beta_h, args.target_w, frontier.Mode(args.mode),
        tol_w, budget, starts, args.seed,
    )
    fields = ("target_work", "work", "eta", "residual", "evaluations", "start_index", "config")
    cells = [[v] * len(points) for v in (inputs["m"], args.beta_l, args.beta_h, args.mode)]
    cells += [[getattr(p, f) for p in points] for f in fields]
    return CommandResult(inputs=inputs, outputs={}, columns=_FRONTIER_COLUMNS, blocks=[cells], points=True)


_REGION_COLUMNS = ["W", "eta", "engine", "config"]


def _handle_region(args: argparse.Namespace) -> CommandResult:
    from . import frontier
    # the arguments are checked here, so a domain error comes before any output
    arrays = frontier._region_blocks(args.m, args.beta_l, args.beta_h, args.samples, args.eps_max, args.seed)
    blocks = ([a.tolist() for a in block] for block in arrays)
    return CommandResult(inputs=_echo(args), outputs={}, columns=_REGION_COLUMNS, blocks=blocks, points=True)


# ---------------------------------------------------------------- parser


def _command(sub: Any, name: str, help: str, handler: Any, /, **flags: Any) -> None:
    """Declare a subcommand: its help, handler and flags, each flag a type
    (required) or a dict of add_argument keywords (optional unless it says
    otherwise), then the shared --format and --output.  ``args.flags``
    records the flags' destinations in declaration order."""
    p = sub.add_parser(name, help=help)
    for dest, spec in flags.items():
        p.add_argument(_option(dest), **(spec if isinstance(spec, dict) else {"type": spec, "required": True}))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="write the document here instead of stdout")
    p.set_defaults(handler=handler, flags=tuple(flags))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnengine",
        description="Urn-model heat engines: exact statistics, simulation, frontiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help: str) -> Any:
        return sub.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)

    opt_float, opt_int = {"type": float}, {"type": int}

    analytic = group("analytic", "closed-form engine statistics")
    _command(analytic, "otto", "two-reservoir engine from 0/1 populations", _handle_analytic_otto,
             eps_l=float, eps_h=float, N=int, n_l=int, n_h=int)
    _command(analytic, "ring", "0/1-weight 2m-ring: mean heats, work mean/variance/ratio",
             _handle_analytic_ring, eps=_float_list, f=_float_list)

    thermo = group("thermo", "occupancy/temperature/entropy layer")
    _command(thermo, "beta", "inverse temperature from occupancy", _handle_thermo_beta,
             n=int, N=int, eps=float)
    _command(thermo, "occupancy", "f(x) = 1/(exp(x)+1)", _handle_thermo_occupancy, x=float)
    _command(thermo, "entropy", "two-level or equally-spaced entropy", _handle_thermo_entropy,
             x=float, y=opt_float, levels=opt_int)
    _command(thermo, "degeneracy", "log microstate count ln C(N, n)", _handle_thermo_degeneracy,
             N=int, n=int)

    _command(sub, "simulate", "Monte Carlo ensemble of 0/1-weight cycles", _handle_simulate,
             eps={"type": _float_list, "required": True, "help": "ring altitudes, low half first"},
             n={"type": _int_list, "required": True, "help": "ring excited counts"},
             N=int, trials=int, seed=int, workers={"type": int, "default": 1})

    continuum = group("continuum", "reversible-limit cycles")
    cold = dict(beta_l=float, beta_h=float,
                l1={"type": float, "required": True, "help": "reduced cold start beta_l*eps"},
                lm={"type": float, "required": True, "help": "reduced cold end"})
    _command(continuum, "heats", "branch heats at arbitrary endpoints", _handle_continuum_heats,
             **cold, h1=float, hm=float)
    _command(continuum, "reversible", "matched-endpoint Carnot cycle", _handle_continuum_reversible, **cold)
    _command(continuum, "wmax", "supremum of the reversible work", _handle_continuum_wmax,
             beta_l=float, beta_h=float)

    _command(sub, "frontier", "extremal efficiency at fixed work", _handle_frontier,
             m={"type": _ring_m, "required": True, "help": "sub-reservoirs per side, or 'carnot'"},
             beta_l=float, beta_h=float,
             target_w={"type": _grid, "required": True, "help": "one W, or start:stop:count"},
             mode={"choices": ("max", "min"), "default": "max"},
             tol_w=opt_float, budget=opt_int, starts=opt_int,
             seed={"type": int, "default": 0})
    _command(sub, "region", "scatter-sample the attainable (W, eta) region", _handle_region,
             m=int, beta_l=float, beta_h=float, samples=int, eps_max=float,
             seed={"type": int, "default": 0})

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.handler(args), args.format, args.output)
    except (ValueError, RuntimeError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
