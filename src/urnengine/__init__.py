"""Urn-model heat engines: exact statistics, Monte Carlo, and frontiers.

Balls carrying 0/1 weights are drawn from stacked two-level reservoirs and
shifted around a ring of altitudes; the net potential-energy change per cycle
is the work.  This package computes the exact mean/variance of that work, the
per-reservoir heats, the continuum (Carnot) limit, and the attainable
efficiency-versus-work region, and validates the closed forms by simulation.
All quantities are in reduced units with k_B = 1.
"""

from .thermo import (
    EntropyValue,
    InverseTemperature,
    beta_from_occupancy,
    carnot_efficiency,
    entropy_equally_spaced,
    entropy_s,
    log_degeneracy,
    occupancy,
    occupancy_np,
)
from .urn import (
    CycleOutcome,
    EngineRing,
    Group,
    Reservoir,
    draw_ball,
    exchange_step,
    make_reservoir,
    otto_ring,
    two_level_ring,
)
from .analytic import (
    RingSpec,
    WorkStatistics,
    efficiency_otto,
    equilibrium_ring,
    mean_heats_ring,
    work_statistics_general,
    work_statistics_ring,
)
from .continuum import (
    CarnotEndpoints,
    ContinuumHeats,
    continuum_heats,
    discretized_ring,
    max_reversible_work,
    otto_endpoints,
    reversible_endpoints,
    reversible_work,
)
from .montecarlo import (
    ComparisonReport,
    EnsembleStats,
    compare_to_analytic,
    exact_work_distribution,
    ring_spec_of,
    run_ensemble,
)
from .frontier import (
    FrontierPoint,
    Mode,
    RegionSample,
    carnot_frontier,
    evaluate_configs,
    frontier_curve,
    max_work,
    optimize_efficiency,
    sample_region,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "EntropyValue", "InverseTemperature", "beta_from_occupancy",
    "carnot_efficiency", "entropy_equally_spaced", "entropy_s",
    "log_degeneracy", "occupancy", "occupancy_np",
    "CycleOutcome", "EngineRing", "Group", "Reservoir", "draw_ball",
    "exchange_step", "make_reservoir", "otto_ring", "two_level_ring",
    "RingSpec", "WorkStatistics", "efficiency_otto", "equilibrium_ring",
    "mean_heats_ring", "work_statistics_general", "work_statistics_ring",
    "CarnotEndpoints", "ContinuumHeats", "continuum_heats",
    "discretized_ring", "max_reversible_work", "otto_endpoints",
    "reversible_endpoints", "reversible_work",
    "ComparisonReport", "EnsembleStats", "compare_to_analytic",
    "exact_work_distribution", "ring_spec_of", "run_ensemble",
    "FrontierPoint", "Mode", "RegionSample", "carnot_frontier",
    "evaluate_configs", "frontier_curve", "max_work",
    "optimize_efficiency", "sample_region",
]
