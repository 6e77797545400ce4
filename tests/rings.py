"""The 0/1 ring of excited counts, the form most tests state a ring in."""

from urnengine import analytic


def two_level(altitudes, excited, total):
    """Ring of ``total`` balls per reservoir, ``excited[k]`` of them at weight 1."""
    return analytic.RingSpec.from_populations(altitudes, [{0.0: total - n, 1.0: n} for n in excited])
