"""Golden CLI documents: fixed invocations compared byte for byte.

Each case writes its document through ``--output`` and compares the bytes
with ``tests/golden/<name>``.  A deliberate change to a document regenerates
its fixture with

    PYTHONPATH=src python tests/test_golden.py [name ...]

and names the change and its reason in CHANGES.md.  Values that pass
through exp/log can differ in the last bit between numpy builds and CPUs,
so fixtures belong to the platform that wrote them.
"""

import json
import os
import sys

import pytest

from urnengine import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_FRONTIER = ["--beta-l", "1.38", "--beta-h", "0.42", "--budget", "20000", "--starts", "4"]
_REGION = ["--beta-l", "1.38", "--beta-h", "0.42", "--samples", "200", "--eps-max", "10", "--seed", "3"]

CASES = {
    "analytic_otto_engine.json": ["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
                                  "--N", "10000", "--n-l", "2000", "--n-h", "3000"],
    "analytic_otto_pump.json": ["analytic", "otto", "--eps-l", "1", "--eps-h", "2",
                                "--N", "10000", "--n-l", "3000", "--n-h", "2000"],
    "analytic_ring.json": ["analytic", "ring", "--eps", "1,1.5,2.5,2", "--f", "0.2,0.25,0.3,0.35"],
    "thermo_beta.json": ["thermo", "beta", "--n", "2000", "--N", "10000", "--eps", "1"],
    "thermo_occupancy.json": ["thermo", "occupancy", "--x", "0.5"],
    "thermo_entropy.json": ["thermo", "entropy", "--x", "1.2", "--y", "0.7"],
    "thermo_degeneracy.json": ["thermo", "degeneracy", "--N", "100", "--n", "30"],
    "simulate_otto.json": ["simulate", "--eps", "1,2", "--n", "2000,3000",
                           "--N", "10000", "--trials", "20000", "--seed", "42"],
    "simulate_equal_weights.json": ["simulate", "--eps", "0.1,0.2,0.7,0.3", "--n", "9,9,9,9",
                                    "--N", "10", "--trials", "20000", "--seed", "1"],
    "continuum_heats.json": ["continuum", "heats", "--beta-l", "1.38", "--beta-h", "0.42",
                             "--l1", "0.5", "--lm", "3.0", "--h1", "1.5", "--hm", "0.2"],
    "continuum_reversible.json": ["continuum", "reversible", "--beta-l", "1.38", "--beta-h", "0.42",
                                  "--l1", "1.38", "--lm", "1.518"],
    "continuum_wmax.json": ["continuum", "wmax", "--beta-l", "1.38", "--beta-h", "0.42"],
    "frontier_m1.json": ["frontier", "--m", "1", "--target-w", "0.1", *_FRONTIER],
    "frontier_m2.json": ["frontier", "--m", "2", "--target-w", "0.1", *_FRONTIER],
    "frontier_carnot.json": ["frontier", "--m", "carnot", "--target-w", "0.6", *_FRONTIER],
    "region_m1.json": ["region", "--m", "1", *_REGION],
    "region_m1.csv": ["region", "--m", "1", *_REGION, "--format", "csv"],
    "region_m2.json": ["region", "--m", "2", *_REGION],
    "region_m2.csv": ["region", "--m", "2", *_REGION, "--format", "csv"],
}


def _render(name: str, path: str) -> None:
    assert cli.main(CASES[name] + ["--output", path]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path):
    out = tmp_path / name
    _render(name, str(out))
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def test_analytic_ring_keeps_the_variance_outputs(tmp_path):
    # the outputs of the removed `analytic variance --eps 1,2 --f 0.2,0.3`
    out = tmp_path / "ring.json"
    assert cli.main(["analytic", "ring", "--eps", "1,2", "--f", "0.2,0.3", "--output", str(out)]) == 0
    outputs = json.loads(out.read_text())["outputs"]
    assert [outputs[k].hex() for k in ("mean_W", "var_W", "ratio")] == [
        (0.09999999999999998).hex(), (0.37).hex(), (3.7000000000000006).hex()]


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for case in sys.argv[1:] or sorted(CASES):
        _render(case, os.path.join(GOLDEN, case))
