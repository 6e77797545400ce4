"""Per-trial exchange bookkeeping, the reference the Monte Carlo paths are tested against.

Plain Python floats, one trial at a time: each value is the same IEEE
operation, in the same order, that the vectorized paths perform.
"""


def exchange_step(altitudes, drawn):
    """(work, heat increments, audit verdict) of one cycle in which
    reservoir k gives up a ball of weight ``drawn[k]``.

    The ball moves from eps_k to eps_{k+1}, so the work is the ring-order sum
    W = ((eps_0 - eps_1) w_0 + (eps_1 - eps_2) w_1) + ... and reservoir k
    gains eps_k (w_{k-1} - w_k).  Energy is conserved, W + sum_k Q_k = 0; the
    heats add in ring order beside the work, and the verdict is True when
    W plus their sum exceeds 1e-12 times the summed magnitudes of all terms.
    """
    n = len(drawn)
    work = heat = scale = 0.0
    heats = []
    for k in range(n):
        term = (altitudes[k] - altitudes[(k + 1) % n]) * drawn[k]
        q = altitudes[k] * (drawn[k - 1] - drawn[k])
        work += term
        scale += abs(term)
        heat += q
        scale += abs(q)
        heats.append(q)
    return work, heats, abs(work + heat) > 1e-12 * scale
