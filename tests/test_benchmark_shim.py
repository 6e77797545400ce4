"""The benchmark's ring builders (urnengine/urn.py and montecarlo.ring_spec_of)
give the ring ``RingSpec.from_populations`` gives, so the benchmark times the
library's one ring path.  This is the only test that calls them; it goes with
the shim."""

import numpy as np

from urnengine import analytic, montecarlo, urn

ALTITUDES = [0.7, 1.3, 3.1, 2.9]
POPULATIONS = [{0.0: 3, 1.0: 5, 2.5: 2}, {2.5: 10}, {0.0: 6, 1.0: 4}, {0.0: 1, 1.0: 1, 2.5: 8}]


def _fields(stats):
    return [v.tobytes() if isinstance(v, np.ndarray) else repr(v) for v in vars(stats).values()]


def test_shim_builds_the_from_populations_ring():
    # as perfbench/inputs.py::build_ring and its workloads do
    n = len(ALTITUDES)
    reservoirs = tuple(urn.make_reservoir(eps, pop, urn.Group.LOW if k < n // 2 else urn.Group.HIGH)
                       for k, (eps, pop) in enumerate(zip(ALTITUDES, POPULATIONS)))
    ring = urn.EngineRing(reservoirs=reservoirs)
    shimmed = montecarlo.ring_spec_of(ring)
    spec = analytic.RingSpec.from_populations(ALTITUDES, POPULATIONS)
    assert repr(shimmed.laws) == repr(spec.laws)
    assert (shimmed.counts, shimmed.total) == (spec.counts, spec.total) == (
        ((3, 5, 2), (10,), (6, 4), (1, 1, 8)), 10)
    assert shimmed.altitudes.tobytes() == spec.altitudes.tobytes()
    assert _fields(montecarlo.run_ensemble(ring, 3 * 16384 + 5, seed=4, workers=2)) == _fields(
        montecarlo.run_ensemble(spec, 3 * 16384 + 5, seed=4, workers=2))
