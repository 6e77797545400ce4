"""Two-level quantum Otto cycle with two-point-measurement work, the m = 1 oracle.

A two-level agent with levels 0 and eps runs Kieu's Otto cycle (PRL 93,
140403, 2004): it thermalizes with the cold bath at gap eps_l, its gap is
changed to eps_h by a unitary stroke, it thermalizes with the hot bath at
eps_h, and a second unitary stroke brings the gap back to eps_l.  Energy is
measured projectively at both ends of each unitary stroke, so each stroke
releases the work E_before - E_after of its two outcomes and heat enters
only through the baths.  With identity (adiabatic) strokes the agent keeps
its level, which is the m = 1 urn ring: a ball of weight w_0 = n drawn from
the cold reservoir and one of weight w_1 drawn from the hot one.

Plain numpy: density matrices, projectors and unitaries as 2x2 arrays.
"""

import math

import numpy as np


def gibbs_state(beta, eps):
    """Thermal density matrix exp(-beta H) / Z of H = diag(0, eps)."""
    weights = np.exp(-beta * np.array([0.0, eps]))
    return np.diag(weights / weights.sum())


def mixing_stroke(theta):
    """Unitary rotating the two levels into each other by ``theta`` radians;
    0 is the adiabatic stroke, which keeps each level."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _stroke(rho, unitary):
    """(level before, level after, probability) of a stroke between two
    projective energy measurements, starting from state ``rho``."""
    projectors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    for i, before in enumerate(projectors):
        p_i = float(np.trace(before @ rho))
        if p_i == 0.0:
            continue
        evolved = unitary @ before @ unitary.conj().T  # post-measurement state, evolved
        for j, after in enumerate(projectors):
            p_j = float(np.trace(after @ evolved))
            if p_j > 0.0:
                yield i, j, p_i * p_j


def otto_work_law(beta_l, beta_h, eps_l, eps_h, theta=0.0):
    """Work law of one cycle as (sorted support, probabilities).

    A trajectory releases (E_l[i] - E_h[j]) on the compression stroke and
    (E_h[k] - E_l[l]) on the expansion stroke, added from 0.0 in that order.
    """
    energies_l, energies_h = (0.0, eps_l), (0.0, eps_h)
    unitary = mixing_stroke(theta)
    law = {}
    for i, j, p in _stroke(gibbs_state(beta_l, eps_l), unitary):
        for k, l, q in _stroke(gibbs_state(beta_h, eps_h), unitary.conj().T):  # the stroke reversed
            work = 0.0
            work += energies_l[i] - energies_h[j]
            work += energies_h[k] - energies_l[l]
            law[work] = law.get(work, 0.0) + p * q
    support = np.array(sorted(law))
    return support, np.array([law[w] for w in support.tolist()])
