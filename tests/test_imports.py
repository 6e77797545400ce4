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


# commands whose closed forms are scalar arithmetic, with the modules they load
SCALAR_COMMANDS = [
    (["thermo", "beta", "--n", "3", "--N", "10", "--eps", "1"], ["thermo"]),
    (["thermo", "occupancy", "--x", "0.5"], ["thermo"]),
    (["thermo", "degeneracy", "--N", "20000", "--n", "7"], ["thermo"]),
    (["thermo", "entropy", "--x", "1.2", "--y", "0.7"], ["thermo"]),
    (["thermo", "entropy", "--x", "0.5", "--levels", "1000000000000"], ["thermo"]),
    (["continuum", "heats", "--beta-l", "1.38", "--beta-h", "0.42",
      "--l1", "1.38", "--lm", "1.518", "--h1", "1.512", "--hm", "1.386"], ["continuum", "thermo"]),
    (["continuum", "reversible", "--beta-l", "1.38", "--beta-h", "0.42",
      "--l1", "1.38", "--lm", "1.518"], ["continuum", "thermo"]),
    (["continuum", "wmax", "--beta-l", "1.38", "--beta-h", "0.42"], ["continuum", "thermo"]),
]


def test_thermo_beta_loads_only_thermo():
    assert _after_main(["thermo", "beta", "--n", "3", "--N", "10", "--eps", "1"]) == [
        "urnengine.cli", "urnengine.thermo"]


@pytest.mark.parametrize("argv, modules", SCALAR_COMMANDS,
                         ids=[" ".join(argv[:2]) for argv, _ in SCALAR_COMMANDS])
def test_scalar_commands_load_no_numpy(argv, modules):
    assert _after_main(argv) == ["urnengine.cli", *(f"urnengine.{m}" for m in modules)]


def test_scalar_commands_run_with_numpy_blocked():
    # a None entry makes every later `import numpy` raise, so a transitive import fails loudly
    code = ("import sys\nsys.modules['numpy'] = None\nfrom urnengine import cli\n"
            f"for argv in {[argv for argv, _ in SCALAR_COMMANDS]!r}:\n"
            "    assert cli.main(argv) == 0, argv")
    subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)


def test_region_loads_no_monte_carlo():
    loaded = _after_main(["region", "--m", "1", "--beta-l", "1.38", "--beta-h", "0.42",
                          "--samples", "10", "--eps-max", "5", "--seed", "1"])
    assert "urnengine.frontier" in loaded
    assert "urnengine.montecarlo" not in loaded and "urnengine.urn" not in loaded


def test_simulate_loads_neither_frontier_nor_continuum():
    loaded = _after_main(["simulate", "--eps", "1,2", "--n", "2,3", "--N", "10",
                          "--trials", "100", "--seed", "1"])
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


def test_each_home_module_exports_its_entry():
    for module, names in urnengine._EXPORTS.items():
        assert HOMES[module].__all__ == names, module
