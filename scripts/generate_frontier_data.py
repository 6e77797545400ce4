"""Generate region-scatter and frontier-curve CSV files for plotting.

Writes region_m{m}.csv (one row per sampled cycle) and frontier_m{m}.csv
(one row per work target) into --outdir.  m=1 targets take the exact m=1
path (a few hundredths of a second each); m >= 2 runs the multistart search
at the full optimizer defaults, several seconds per target, so expect
minutes for fine grids at m >= 2.
"""

import argparse
import csv
import pathlib

import numpy as np

from urnengine import frontier


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--beta-l", type=float, default=1.38)
    parser.add_argument("--beta-h", type=float, default=0.42)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--eps-max", type=float, default=8.0)
    parser.add_argument("--targets", type=int, default=11)
    parser.add_argument("--w-max", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("data"))
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    targets = np.linspace(args.w_max / args.targets, args.w_max, args.targets)

    for m in args.m:
        sample = frontier.sample_region(
            m, args.beta_l, args.beta_h, args.samples, args.eps_max, seed=args.seed
        )
        path = args.outdir / f"region_m{m}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["W", "eta", "engine"])
            for w, eta, engine in zip(sample.work, sample.efficiency, sample.engine):
                writer.writerow([w, "" if np.isnan(eta) else eta, str(bool(engine)).lower()])
        print(f"wrote {path} ({args.samples} samples)")

        rows = []
        for mode in (frontier.Mode.MAX, frontier.Mode.MIN):
            points = frontier.frontier_curve(
                m, args.beta_l, args.beta_h, targets, mode,
                frontier.DEFAULT_TOL_W, frontier.DEFAULT_BUDGET,
                frontier.DEFAULT_STARTS, args.seed, None,
            )
            rows += [
                [p.target_work, mode.value, p.work, p.eta, p.residual]
                for p in points
            ]
        path = args.outdir / f"frontier_m{m}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["target_W", "mode", "W", "eta", "residual"])
            writer.writerows(rows)
        print(f"wrote {path} ({len(rows)} points)")


if __name__ == "__main__":
    main()
