"""Urn-model heat engines: exact statistics, Monte Carlo, and frontiers.

Balls carrying 0/1 weights are drawn from stacked two-level reservoirs and
shifted around a ring of altitudes; the net potential-energy change per cycle
is the work.  This package computes the exact mean/variance of that work, the
per-reservoir heats, the continuum (Carnot) limit, and the attainable
efficiency-versus-work region, and validates the closed forms by simulation.
All quantities are in reduced units with k_B = 1.

Submodules load on first use (PEP 562): ``import urnengine`` loads neither
numpy nor any submodule, and ``urnengine.occupancy`` or ``urnengine.frontier``
imports its home module when first read.  _EXPORTS is the one list of
public names, each under its home module, and each submodule's __all__ is
its entry.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "thermo": ("beta_from_occupancy", "carnot_efficiency", "entropy_equally_spaced",
               "entropy_s", "log_degeneracy", "occupancy", "occupancy_np"),
    "analytic": ("RingSpec", "WorkStatistics", "equilibrium_ring", "mean_heats_ring",
                 "work_statistics_ring"),
    "continuum": ("CarnotEndpoints", "ContinuumHeats", "continuum_heats",
                  "discretized_ring", "max_reversible_work", "reversible_endpoints",
                  "reversible_work"),
    "montecarlo": ("ComparisonReport", "EnsembleStats", "compare_to_analytic",
                   "exact_work_distribution", "run_ensemble"),
    "frontier": ("FrontierPoint", "Mode", "RegionSample", "carnot_frontier",
                 "evaluate_configs", "frontier_curve", "max_work",
                 "optimize_efficiency", "sample_region"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    """Import a submodule, or a public name's home module, on first access
    and cache the value in the package namespace."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
