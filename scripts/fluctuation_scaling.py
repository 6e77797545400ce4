"""Sweep sub-reservoir refinement and check the work fluctuations' limit.

Discretizes the altitude-matched cycle (cold branch eps_lo -> eps_hi, hot
branch eps_hi -> eps_lo) at m = 2, 4, ..., 2^k sub-reservoirs per side and
prints the variance/mean ratio with the halving-estimated decay order.  The
ratio falls like the step size, so the order column settles near 1.

Every step is d = (b - a)/(m - 1) and f' = -f(1 - f), so m Var W tends to

    C = (b - a) [(f(beta_l a) - f(beta_l b))/beta_l + (f(beta_h a) - f(beta_h b))/beta_h].

Two Richardson steps on m Var W (its error runs in powers of 1/m) must land
within TOLERANCE (1e-4) of C, relative; otherwise the script exits with
status 1.  Fewer than six doublings (m up to 64) miss it at the defaults.
"""

import argparse
import math
import sys

from urnengine import analytic, continuum, thermo

TOLERANCE = 1e-4


def closed_form(beta_l: float, beta_h: float, a: float, b: float) -> float:
    """The limit of m Var W on the matched cycle between altitudes a and b."""
    f = thermo.occupancy
    return (b - a) * ((f(beta_l * a) - f(beta_l * b)) / beta_l + (f(beta_h * a) - f(beta_h * b)) / beta_h)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--beta-l", type=float, default=1.38)
    parser.add_argument("--beta-h", type=float, default=0.42)
    parser.add_argument("--eps-lo", type=float, default=1.0)
    parser.add_argument("--eps-hi", type=float, default=2.0)
    parser.add_argument("--doublings", type=int, default=6)
    args = parser.parse_args()
    if args.doublings < 6:
        parser.error("the Richardson check needs --doublings >= 6")

    ep = continuum.CarnotEndpoints.from_altitudes(
        args.beta_l, args.beta_h, args.eps_lo, args.eps_hi, args.eps_hi, args.eps_lo
    )
    print(f"{'m':>4}  {'mean_W':>12}  {'var_W':>12}  {'var/|mean|':>12}  {'order':>6}  {'m*var_W':>12}")
    previous = None
    scaled = []
    for k in range(1, args.doublings + 1):
        m = 2**k
        stats = analytic.work_statistics_ring(continuum.discretized_ring(ep, m))
        ratio = stats.variance / abs(stats.mean)
        order = "" if previous is None else f"{math.log2(previous / ratio):.3f}"
        scaled.append(m * stats.variance)
        print(f"{m:>4}  {stats.mean:>12.6f}  {stats.variance:>12.6f}  {ratio:>12.6f}  {order:>6}  {scaled[-1]:>12.8f}")
        previous = ratio

    # cancel the 1/m term, then the 1/m^2 term, over the last three refinements
    x, y, z = scaled[-3:]
    first, second = 2.0 * y - x, 2.0 * z - y
    extrapolated = (4.0 * second - first) / 3.0
    limit = closed_form(args.beta_l, args.beta_h, args.eps_lo, args.eps_hi)
    miss = abs(extrapolated / limit - 1.0)
    print(f"closed form C = {limit:.10f}")
    print(f"Richardson    = {extrapolated:.10f}  (relative miss {miss:.2e}, tolerance {TOLERANCE:.0e})")
    if not miss <= TOLERANCE:
        print("FAIL: the extrapolated m*var_W misses the closed form", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
