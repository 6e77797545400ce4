"""The package loads each submodule on first use: a command imports only what it runs."""

import json
import subprocess
import sys

import pytest

import urnengine
from urnengine import analytic, continuum, frontier, montecarlo, thermo, urn

HOMES = {"thermo": thermo, "urn": urn, "analytic": analytic, "continuum": continuum,
         "montecarlo": montecarlo, "frontier": frontier}


def _loaded_after(code):
    """The sorted numpy and urnengine.* modules a fresh interpreter holds after ``code``."""
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m == 'numpy' or m.startswith('urnengine.'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _after_main(argv):
    return _loaded_after(f"from urnengine import cli\nassert cli.main({argv!r}) == 0")


def test_importing_the_cli_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import urnengine.cli") == ["urnengine.cli"]


def test_thermo_beta_loads_only_thermo():
    assert _after_main(["thermo", "beta", "--n", "3", "--N", "10", "--eps", "1"]) == [
        "numpy", "urnengine.cli", "urnengine.thermo"]


def test_simulate_loads_neither_frontier_nor_continuum():
    loaded = _after_main(["simulate", "--eps-l", "1", "--eps-h", "2", "--n-l", "2", "--n-h", "3",
                          "--N", "10", "--trials", "100", "--seed", "1"])
    assert "urnengine.montecarlo" in loaded
    assert "urnengine.frontier" not in loaded and "urnengine.continuum" not in loaded


def test_usage_errors_load_no_numpy():
    code = "from urnengine import cli\ntry:\n    cli.main(['frontier'])\nexcept SystemExit:\n    pass"
    assert _loaded_after(code) == ["urnengine.cli"]


def test_public_names_are_their_home_module_objects():
    for name in urnengine.__all__:
        if name != "__version__":
            assert getattr(urnengine, name) is getattr(HOMES[urnengine._HOME[name]], name), name
    assert set(urnengine.__all__) <= set(dir(urnengine))
    assert set(HOMES) <= set(dir(urnengine))


def test_submodule_resolves_before_first_use():
    loaded = _loaded_after("import urnengine\nurnengine.montecarlo.run_ensemble")
    assert "urnengine.montecarlo" in loaded and "urnengine.frontier" not in loaded


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from urnengine import *", namespace)
    assert set(urnengine.__all__) <= set(namespace)
    assert namespace["Mode"] is frontier.Mode


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        urnengine.no_such_name
