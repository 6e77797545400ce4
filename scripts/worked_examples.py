"""Run the package's worked examples and print one line per cycle.

Covers the two-reservoir engine and pump, the negative-temperature branches,
the matched-endpoint reversible cycle, and the negative-hot-bath continuum
cycle.  Useful as a smoke check that a fresh install reproduces the numbers
the test suite pins down.
"""

import math

from urnengine import analytic, continuum, thermo


def main() -> None:
    n_total = 10_000

    # the m = 1 ring: eta = W/(-Q_h) as an engine, COP = -Q_h/W as a pump
    _, q_h, w = analytic.mean_heats_ring(analytic.RingSpec.from_counts([1.0, 2.0], [2000, 3000], n_total))
    beta_l = thermo.beta_from_occupancy(2000, n_total, 1.0)
    beta_h = thermo.beta_from_occupancy(3000, n_total, 2.0)
    print(
        f"engine      W={w:+.4f}  "
        f"eta={w / -q_h:.3f}  "
        f"beta=({beta_l:.4f}, {beta_h:.4f})  "
        f"eta_C={thermo.carnot_efficiency(beta_l, beta_h):.4f}"
    )

    _, q_h, w = analytic.mean_heats_ring(analytic.RingSpec.from_counts([1.0, 2.0], [3000, 2000], n_total))
    beta_l = thermo.beta_from_occupancy(3000, n_total, 1.0)
    beta_h = thermo.beta_from_occupancy(2000, n_total, 2.0)
    print(
        f"pump        W={w:+.4f}  "
        f"COP={-q_h / w:.1f}  "
        f"beta=({beta_l:.4f}, {beta_h:.4f})  "
        f"COP_C={1 / thermo.carnot_efficiency(beta_l, beta_h):.3f}"
    )

    beta_l = thermo.beta_from_occupancy(4500, n_total, 1.0)
    beta_h = thermo.beta_from_occupancy(5500, n_total, 2.0)
    _, q_h, w = analytic.mean_heats_ring(analytic.RingSpec.from_counts([1.0, 2.0], [4500, 5500], n_total))
    print(
        f"mixed signs W={w:+.4f}  "
        f"eta={w / -q_h:.3f}  "
        f"beta=({beta_l:.4f}, {beta_h:.4f})  "
        f"eta_max={thermo.carnot_efficiency(beta_l, beta_h):.1f}"
    )

    l1, lm = 1.38 * 1.0, 1.38 * 1.1
    w, eta = continuum.reversible_work(1.38, 0.42, l1, lm)
    print(
        f"reversible  W={w:+.4f}  eta={eta:.6f}  "
        f"(eta_C={thermo.carnot_efficiency(1.38, 0.42):.6f})"
    )
    print(f"W_max       {continuum.max_reversible_work(1.38, 0.42):.4f}  "
          f"(= (1/beta_h - 1/beta_l) ln 2 = {(1 / 0.42 - 1 / 1.38) * math.log(2):.4f})")

    res = continuum.continuum_heats(
        continuum.CarnotEndpoints.from_altitudes(0.2, -0.1, 0.3, 0.3, 14.0, 0.3)
    )
    print(f"negative-hot W={res.work:+.4f}  eta={res.efficiency:.4f}")


if __name__ == "__main__":
    main()
