"""Benchmark shim for perfbench's ring builders; ROADMAP item 1's benchmark PR deletes it."""

import enum

from .analytic import RingSpec

Group = enum.Enum("Group", "LOW HIGH")


def make_reservoir(altitude, population, group):
    return altitude, population


def EngineRing(reservoirs):
    return RingSpec.from_populations(*zip(*reservoirs))
