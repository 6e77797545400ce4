"""Reservoirs of weighted balls and the rings of the exchange cycle.

An engine is a closed ring of 2m reservoirs (m low-side followed by m
high-side), each holding N distinguishable balls at a fixed altitude.  One
cycle draws a single ball uniformly from every reservoir simultaneously
(probability 1/N per ball, compositions frozen at their pre-cycle state) and
carries each drawn ball one step around the ring.  Moving a ball of weight w
from altitude eps_k to eps_{k+1} releases w*(eps_k - eps_{k+1}) as work, so

    work            = sum_k (eps_k - eps_{k+1}) * w_drawn(k)        (cyclic)
    heat_increment  = eps_k * (w_drawn(k-1) - w_drawn(k))   at reservoir k

and energy is conserved trial by trial: work + sum of heat increments = 0.

Reservoirs are immutable: an ensemble means re-drawing from the same initial
populations, never evolving one engine's composition over repeated cycles.
The cycles themselves are drawn by ``montecarlo``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import _EXPORTS

__all__ = _EXPORTS["urn"]


class Group(enum.Enum):
    """Which side of the engine a reservoir sits on."""

    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True, eq=False)
class Reservoir:
    """Immutable population of weighted balls at one altitude.

    Attributes
    ----------
    altitude : float
        Potential energy per unit weight (eps >= 0).
    weights : np.ndarray
        Sorted distinct weight classes present (each >= 0, finite).
    counts : np.ndarray
        Ball count per weight class (int64, each >= 1 after canonicalization).
    group : Group
        Low- or high-side tag.
    """

    altitude: float
    weights: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    group: Group

    @cached_property
    def total(self) -> int:
        """Number of balls N."""
        return int(self.counts.sum())

    @cached_property
    def cumulative_counts(self) -> np.ndarray:
        """Cumulative class counts used to map a uniform ball index to a weight."""
        return np.cumsum(self.counts)

    @cached_property
    def is_two_level(self) -> bool:
        """True when every weight class is 0 or 1."""
        return bool(np.all((self.weights == 0.0) | (self.weights == 1.0)))


def make_reservoir(altitude: float, population: Mapping[float, int], group: Group) -> Reservoir:
    """Validate and canonicalize a reservoir (sorted classes, zero counts dropped)."""
    if not isinstance(group, Group):
        group = Group(group)
    if not (math.isfinite(altitude) and altitude > 0.0):
        raise ValueError("invalid altitude")
    if len(population) == 0:
        raise ValueError("empty reservoir")
    items = sorted(population.items())
    for w, c in items:
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError("invalid population")
        if c != int(c) or c < 0:
            raise ValueError("invalid population")
    items = [(float(w), int(c)) for w, c in items if int(c) > 0]
    if not items:
        raise ValueError("empty reservoir")
    if sum(c for _, c in items) >= 2**63:  # counts and N are int64
        raise ValueError("invalid population")
    weights = np.array([w for w, _ in items], dtype=float)
    counts = np.array([c for _, c in items], dtype=np.int64)
    weights.flags.writeable = False
    counts.flags.writeable = False
    return Reservoir(altitude=float(altitude), weights=weights, counts=counts, group=group)


@dataclass(frozen=True)
class EngineRing:
    """Cyclic sequence of 2m reservoirs: indices 0..m-1 low, m..2m-1 high."""

    reservoirs: tuple[Reservoir, ...]

    def __post_init__(self) -> None:
        n = len(self.reservoirs)
        if n < 2 or n % 2 != 0:
            raise ValueError("ring must hold 2m >= 2 reservoirs")
        totals = {r.total for r in self.reservoirs}
        if len(totals) != 1:
            raise ValueError("all reservoirs must hold the same number of balls")
        m = n // 2
        if any(r.group is not Group.LOW for r in self.reservoirs[:m]) or any(
            r.group is not Group.HIGH for r in self.reservoirs[m:]
        ):
            raise ValueError("ring order must be m low reservoirs then m high")

    @property
    def m(self) -> int:
        """Sub-reservoir count per side."""
        return len(self.reservoirs) // 2

    @property
    def total(self) -> int:
        """Balls per reservoir N."""
        return self.reservoirs[0].total

    @cached_property
    def altitudes(self) -> np.ndarray:
        out = np.array([r.altitude for r in self.reservoirs], dtype=float)
        out.flags.writeable = False
        return out


def two_level_ring(altitudes: Sequence[float], excited: Sequence[int], total: int) -> EngineRing:
    """Ring of 0/1-weight reservoirs; first half low group, second half high.

    ``excited[k]`` balls of weight 1 and ``total - excited[k]`` of weight 0 at
    ``altitudes[k]``.
    """
    if len(altitudes) != len(excited):
        raise ValueError("altitudes and excited counts must have equal length")
    n = len(altitudes)
    if n < 2 or n % 2 != 0:
        raise ValueError("ring must hold 2m >= 2 reservoirs")
    reservoirs = []
    for k, (eps, nx) in enumerate(zip(altitudes, excited)):
        nx = int(nx)
        if nx < 0 or nx > total:
            raise ValueError("invalid population")
        population = {1.0: nx, 0.0: total - nx}
        group = Group.LOW if k < n // 2 else Group.HIGH
        reservoirs.append(make_reservoir(eps, population, group))
    return EngineRing(reservoirs=tuple(reservoirs))
