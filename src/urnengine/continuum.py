"""Infinitely subdivided (reversible-limit) cycles via two-level entropies.

Refining each branch of the ring into ever more sub-reservoirs turns the heat
sums into integrals of the occupancy.  With reduced gaps x = beta*eps, the
cold branch running from L1 to Lm (L = beta_l * eps) and the hot branch from
H1 to Hm (H = beta_h * eps), the branch heats become

    beta_l * Q_l = s(L1, Hm) - s(Lm)
    beta_h * Q_h = s(H1, Lm) - s(Hm)

with s(x, y) = x*f(y) + ln(1 + e^-x) and s(x) = s(x, x) from thermo.  The
cross terms carry the boundary condition: each branch inherits the occupancy
the previous branch ended at.  A reversible cycle matches the branch ends in
reduced units (Hm = L1 and H1 = Lm), which cancels the cross terms against
the opposite branch and yields

    W = (1/beta_h - 1/beta_l) * (s(L1) - s(Lm))

at exactly the Carnot efficiency, with supremum (1/beta_h - 1/beta_l)*ln 2
approached as L1 -> 0 and |Lm| -> inf.

Collapsing each branch to a single gap (L1 = Lm, H1 = Hm) recovers the
two-reservoir Otto work: ``CarnotEndpoints.from_altitudes(beta_l, beta_h,
eps_l, eps_l, eps_h, eps_h)``.

Everything here is scalar arithmetic and loads no numpy; only
``discretized_ring``, which builds a finite ring, imports numpy and
``analytic`` when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _EXPORTS
from .thermo import _efficiency, _entropy, carnot_efficiency

if TYPE_CHECKING:
    from .analytic import RingSpec

__all__ = _EXPORTS["continuum"]


def _checked_betas(beta_l: float, beta_h: float) -> tuple[float, float]:
    """(beta_l, beta_h) as floats; a zero or non-finite beta is a domain error."""
    bl, bh = float(beta_l), float(beta_h)
    if not (math.isfinite(bl) and math.isfinite(bh)) or bl == 0.0 or bh == 0.0:
        raise ValueError("beta must be finite and nonzero")
    return bl, bh


def _matched_betas(beta_l: float, beta_h: float) -> tuple[float, float]:
    """Checked betas of a reversible cycle, whose matched ends H1 = Lm and
    Hm = L1 need beta_l and beta_h to share a sign."""
    bl, bh = _checked_betas(beta_l, beta_h)
    if (bl > 0.0) != (bh > 0.0):
        raise ValueError("reversible cycle needs sign(beta_l) = sign(beta_h)")
    return bl, bh


@dataclass(frozen=True)
class CarnotEndpoints:
    """Branch endpoints of a continuum cycle, canonically in reduced units.

    ``cold_first``/``cold_last`` are beta_l*eps at the start and end of the
    cold branch, ``hot_first``/``hot_last`` the beta_h*eps analogues.  Signs
    must match the corresponding beta so the underlying altitudes are
    positive.
    """

    beta_l: float
    beta_h: float
    cold_first: float
    cold_last: float
    hot_first: float
    hot_last: float

    def __post_init__(self) -> None:
        _checked_betas(self.beta_l, self.beta_h)
        for name, value, beta in (
            ("cold_first", self.cold_first, self.beta_l),
            ("cold_last", self.cold_last, self.beta_l),
            ("hot_first", self.hot_first, self.beta_h),
            ("hot_last", self.hot_last, self.beta_h),
        ):
            if not math.isfinite(value) or value / beta <= 0.0:
                raise ValueError(f"invalid reduced endpoint {name}: altitude must be positive")

    @classmethod
    def from_altitudes(
        cls,
        beta_l: float,
        beta_h: float,
        eps_cold_first: float,
        eps_cold_last: float,
        eps_hot_first: float,
        eps_hot_last: float,
    ) -> "CarnotEndpoints":
        """Build from raw altitudes; requires nonzero betas."""
        bl, bh = _checked_betas(beta_l, beta_h)
        return cls(
            beta_l=bl,
            beta_h=bh,
            cold_first=bl * eps_cold_first,
            cold_last=bl * eps_cold_last,
            hot_first=bh * eps_hot_first,
            hot_last=bh * eps_hot_last,
        )

    @property
    def cold_altitudes(self) -> tuple[float, float]:
        return (self.cold_first / self.beta_l, self.cold_last / self.beta_l)

    @property
    def hot_altitudes(self) -> tuple[float, float]:
        return (self.hot_first / self.beta_h, self.hot_last / self.beta_h)


@dataclass(frozen=True)
class ContinuumHeats:
    """Branch heats, work, and efficiency; efficiency is None unless Q_h < 0."""

    heat_low: float
    heat_high: float
    work: float
    efficiency: float | None


def _branch_heats(
    beta_l: float, beta_h: float, l1: float, lm: float, h1: float, hm: float
) -> tuple[float, float]:
    """(Q_l, Q_h) at reduced endpoints, unvalidated: the optimizer's inner loop
    calls this too."""
    q_l = (_entropy(l1, hm) - _entropy(lm, lm)) / beta_l
    q_h = (_entropy(h1, lm) - _entropy(hm, hm)) / beta_h
    return q_l, q_h


def continuum_heats(ep: CarnotEndpoints) -> ContinuumHeats:
    """Branch heats of the continuum cycle at the given endpoints."""
    q_l, q_h = _branch_heats(
        ep.beta_l, ep.beta_h, ep.cold_first, ep.cold_last, ep.hot_first, ep.hot_last
    )
    w = -(q_l + q_h)
    eta = float(_efficiency(w, q_h))
    return ContinuumHeats(heat_low=q_l, heat_high=q_h, work=w,
                          efficiency=None if math.isnan(eta) else eta)


def reversible_work(
    beta_l: float, beta_h: float, cold_first: float, cold_last: float
) -> tuple[float, float]:
    """(W, eta) of the reversible cycle with matched branch ends.

    Matching means hot_last = cold_first and hot_first = cold_last in reduced
    units, so W = (1/beta_h - 1/beta_l)(s(cold_first) - s(cold_last)) and the
    efficiency is the Carnot value; beta_l*Q_l + beta_h*Q_h = 0.  The
    endpoints are validated as ``reversible_endpoints`` validates them; a W
    or eta that overflows a float, as at a beta near 0, is a domain error.
    """
    ep = reversible_endpoints(beta_l, beta_h, cold_first, cold_last)
    w = (1.0 / ep.beta_h - 1.0 / ep.beta_l) * (
        _entropy(ep.cold_first, ep.cold_first) - _entropy(ep.cold_last, ep.cold_last)
    )
    eta = carnot_efficiency(ep.beta_l, ep.beta_h)
    if not (math.isfinite(w) and math.isfinite(eta)):
        raise ValueError("reversible work or efficiency too large for a float")
    return w, eta


def reversible_endpoints(
    beta_l: float, beta_h: float, cold_first: float, cold_last: float
) -> CarnotEndpoints:
    """Endpoints with matched branch ends; needs sign(beta_l) = sign(beta_h)."""
    bl, bh = _matched_betas(beta_l, beta_h)
    return CarnotEndpoints(
        beta_l=bl,
        beta_h=bh,
        cold_first=cold_first,
        cold_last=cold_last,
        hot_first=cold_last,
        hot_last=cold_first,
    )


def max_reversible_work(beta_l: float, beta_h: float) -> float:
    """Supremum (1/beta_h - 1/beta_l) * ln 2 of the reversible work; one that
    overflows a float is a domain error."""
    bl, bh = _matched_betas(beta_l, beta_h)
    w = (1.0 / bh - 1.0 / bl) * math.log(2.0)
    if not math.isfinite(w):
        raise ValueError("reversible work too large for a float")
    return w


def discretized_ring(ep: CarnotEndpoints, m: int) -> RingSpec:
    """Finite-m ring on the endpoint geometry, at equilibrium occupancies.

    Each branch is an m-point linear altitude grid between its endpoint
    altitudes; mean_heats_ring on the result converges to continuum_heats at
    rate O(1/m).
    """
    import numpy as np

    from .analytic import equilibrium_ring
    if m < 1:
        raise ValueError("ring must hold 2m >= 2 reservoirs")
    lo_a, lo_b = ep.cold_altitudes
    hi_a, hi_b = ep.hot_altitudes
    eps_low = np.linspace(lo_a, lo_b, m)
    eps_high = np.linspace(hi_a, hi_b, m)
    return equilibrium_ring(ep.beta_l, ep.beta_h, eps_low, eps_high)
